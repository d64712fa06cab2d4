"""Every public function and method of the library has a caller in it.

A public module-level function of src/dlhecke counts as called when some
module there reads its name as a name or an attribute, and a public
method of a public class when some module reads it as an attribute; a
definition, or an import on its own, is not a use.  The names below have
no such caller and stay for a stated reason.  Every name that a module
imports is read there too, re-exports marked `# noqa: F401` aside, and no
module reaches a private (underscore) name of a sibling module, bar the
one stated below."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dlhecke"

ALLOWED = {
    "shifted": "perfbench's tracer wraps it by name (SERIES_METHODS)",
    "as_exact": "perfbench's tracer wraps it by name (SERIES_METHODS)",
    "truncate": "perfbench's tracer wraps it by name (SERIES_METHODS)",
    "eq_up_to_depth": "perfbench's tracer wraps it by name (SERIES_METHODS)",
    "evaluate_v": "perfbench's tracer wraps it by name (SERIES_METHODS); "
                  "acceptance criterion 4's spot values",
    "in_v_inverse_ring": "acceptance criterion 11's polynomiality test",
}

PRIVATE_IMPORTS = {
    "heckeops <- vseries._divide_strings":
        "the T_i kernel builds its numerator straight into the strings that "
        "the string division takes (heckeops module docstring)",
}


def _trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _public(name):
    return not name.startswith("_")


def _uncalled():
    """{name: "module:qualified name"} of the public functions and methods
    that nothing in src/dlhecke reads."""
    defs, names, attrs = [], set(), set()
    for module, tree in _trees().items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                defs.append((module, node.name, node.name, False))
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                defs += [(module, f"{node.name}.{item.name}", item.name, True)
                         for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and _public(item.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return {name: f"{module}:{qualified}"
            for module, qualified, name, method in defs
            if name not in attrs and (method or name not in names)}


def test_every_public_function_has_a_caller():
    uncalled = sorted(where for name, where in _uncalled().items()
                      if name not in ALLOWED)
    assert uncalled == [], ("public functions with no caller in src/dlhecke "
                            f"(call, delete or allowlist them): {uncalled}")


def test_the_allowlist_names_only_uncalled_definitions():
    assert sorted(set(ALLOWED) - set(_uncalled())) == []


def _unread_imports():
    """["module:name"] of the names that a module of src/dlhecke imports
    and never reads; an import marked `# noqa: F401` is a re-export."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        tree = ast.parse("\n".join(lines))
        imported = set()
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    and not any("# noqa: F401" in line for line in
                                lines[node.lineno - 1:node.end_lineno])):
                imported.update(alias.asname or alias.name.split(".")[0]
                                for alias in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unread += [f"{path.name}:{name}"
                   for name in sorted(imported - read)]
    return unread


def test_every_import_is_read():
    assert _unread_imports() == [], (
        "imported names that their module never reads (use or drop them)")


def _private(name):
    """An underscore name other than a dunder such as __version__."""
    return name.startswith("_") and not name.endswith("__")


def _private_imports():
    """["module <- sibling.name"] for each private name of a sibling
    module that a module of src/dlhecke imports, or reads as an attribute
    of a sibling module it imported."""
    found = set()
    for path, tree in _trees().items():
        module = path[:-3]
        siblings = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                source = node.module or ""
            elif (node.module + ".").startswith("dlhecke."):
                source = node.module[len("dlhecke."):]
            else:
                continue  # not a dlhecke module
            for alias in node.names:
                if not source:
                    siblings.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.add(f"{module} <- {source or 'dlhecke'}."
                              f"{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and _private(node.attr)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in siblings):
                found.add(f"{module} <- {node.value.id}.{node.attr}")
    return sorted(found)


def test_no_module_reaches_a_private_name_of_another():
    assert _private_imports() == sorted(PRIVATE_IMPORTS), (
        "private names a module takes from a sibling (make them public or "
        "state the reason in PRIVATE_IMPORTS)")
