"""Command-line front end: root-system queries, character and Whittaker
series, and the identity-verification suite.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 a check did
not stabilize under the layer cap, 3 the library could not carry out the
request (for example a layer-cap overflow), 64 usage error, 141 standard
output was closed before the output was written (128 + SIGPIPE, as a
shell reports a process that SIGPIPE ended).  All arithmetic is exact.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, characters, heckeops, rootdata, verify, weyl
from .rootdata import RootDataError, RootSystemSpec
from .vseries import SeriesError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNSTABILIZED = 2
EXIT_ERROR = 3
EXIT_USAGE = 64
EXIT_PIPE = 141


class UsageError(Exception):
    pass


class _Exit(Exception):
    """argparse's own exit (after --help), its status the return code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):
        if message:
            self._print_message(message, sys.stderr)
        raise _Exit(status)


def _parse_ints(text, what, n=None):
    """Comma-separated integers; exactly n of them when n is given."""
    try:
        vec = tuple(int(x) for x in text.split(",")) if text.strip() else ()
    except ValueError:
        raise UsageError(f"cannot parse {what} {text!r}")
    if n is not None and len(vec) != n:
        raise UsageError(f"expected {n} {what}, got {len(vec)}")
    return vec


def _spec(text):
    """argparse type of --spec."""
    try:
        return RootSystemSpec.parse(text)
    except RootDataError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_int(text):
    """argparse type of --count, --layer-cap and --margin: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# the --spec option of every command and check but `verify all`
_SPEC = argparse.ArgumentParser(add_help=False)
_SPEC.add_argument("--spec", type=_spec, required=True)


def _command(sub, name, summary, spec=True, **options):
    """The sub-parser of one command or check: --spec (unless spec is
    False) and exactly the given options, each with its add_argument
    keywords; argparse refuses any other."""
    sp = sub.add_parser(name, help=summary, parents=[_SPEC] if spec else [])
    for option, kwargs in options.items():
        sp.add_argument("--" + option.replace("_", "-"), **kwargs)
    return sp


def build_parser():
    p = _Parser(prog="dlhecke", description=__doc__.splitlines()[0])
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layer-cap", type=_positive_int,
                   default=heckeops.DEFAULT_LAYER_CAP)
    sub = p.add_subparsers(dest="command", required=True)
    labels = {"required": True}
    depth = {"type": int, "default": 6}
    margin = {"type": _positive_int, "default": heckeops.DEFAULT_MARGIN}

    _command(sub, "roots", "positive coroots up to a height", depth=depth)
    _command(sub, "exponents", "finite exponents")
    _command(sub, "weyl", "Weyl group layers",
             max_length={"type": int, "required": True})
    _command(sub, "character", "Weyl-Kac character series", labels=labels,
             depth=depth)
    # affine sums only; a finite sum is exact and refuses both
    _command(sub, "whittaker", "normalized Whittaker sum", labels=labels,
             depth={"type": int, "help": "default 6"},
             margin={"type": _positive_int,
                     "help": f"default {heckeops.DEFAULT_MARGIN}"})

    checks = _command(sub, "verify", "run identity checks", spec=False) \
        .add_subparsers(dest="what", required=True)
    _command(checks, "finite-cs", "finite Casselman-Shalika", labels=labels)
    _command(checks, "affine-cs", "affine Casselman-Shalika", labels=labels,
             depth=depth, margin=margin)
    _command(checks, "recursion", "T_i recursion of the Whittaker sum",
             labels=labels,
             wprime={"required": True, "help": "reduced word, e.g. 2,1"},
             i={"type": int, "required": True, "help": "generator"})
    _command(checks, "symmetrizer", "symmetrizer eigenproperties",
             labels=labels, depth=depth, buffer={"type": int, "default": 3},
             margin=margin)
    _command(checks, "gk-limit", "Gindikin-Karpelevich limit",
             nu={"required": True, "help": "displacement vector"},
             depth=depth, margin=margin)
    _command(checks, "hecke-relations", "Hecke algebra relations",
             count={"type": _positive_int, "default": 100})
    _command(checks, "denominator-identity", "denominator identity",
             depth=depth)
    _command(checks, "proportionality", "P(e^L) / (D_v chi_L)",
             labels=labels, depth=depth, margin=margin)
    _command(checks, "all", "the fixed acceptance battery", spec=False)
    return p


def _header(args, spec=None):
    head = {"tool": "dlhecke", "version": __version__, "seed": args.seed}
    if spec is not None:
        head["spec"] = str(spec)
        head["spec_hash"] = rootdata.spec_hash(spec)
    return head


def _emit(args, payload):
    if args.format == "json":
        print(json.dumps(payload, separators=(", ", ": ")))
    else:
        _emit_text(payload)


def _emit_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{payload}")


def _reports_exit(reports):
    if any(r.verdict == verify.UNSTABILIZED for r in reports):
        return EXIT_UNSTABILIZED
    if not all(r.passed for r in reports):
        return EXIT_FAIL
    return EXIT_OK


def _run_verify(args, spec, labels):
    what, cap = args.what, args.layer_cap
    if what == "all":
        reports = acceptance_reports(layer_cap=cap, seed=args.seed)
    elif what == "finite-cs":
        reports = [verify.verify_finite_cs(spec, labels, layer_cap=cap)]
    elif what == "affine-cs":
        reports = [verify.verify_affine_cs(spec, labels, args.depth,
                                           margin=args.margin, layer_cap=cap)]
    elif what == "recursion":
        word = _parse_ints(args.wprime, "--wprime letters")
        reports = [verify.verify_recursion(spec, labels, word, args.i)]
    elif what == "symmetrizer":
        reports = [verify.verify_symmetrizer_properties(
            spec, labels, args.depth, buffer=args.buffer, margin=args.margin,
            layer_cap=cap)]
    elif what == "gk-limit":
        nu = _parse_ints(args.nu, "--nu entries", spec.num_nodes)
        reports = [verify.verify_gk_limit(spec, nu, args.depth,
                                          margin=args.margin, layer_cap=cap)]
    elif what == "hecke-relations":
        reports = [verify.verify_hecke_relations(spec, count=args.count,
                                                 seed=args.seed)]
    elif what == "denominator-identity":
        reports = [verify.verify_denominator_identity(spec, args.depth)]
    elif what == "proportionality":
        _, report = verify.extract_proportionality(
            spec, labels, args.depth, margin=args.margin, layer_cap=cap)
        reports = [report]
    payload = {"header": _header(args),
               "reports": [r.to_json_dict() for r in reports]}
    _emit(args, payload)
    return _reports_exit(reports)


def acceptance_reports(layer_cap=heckeops.DEFAULT_LAYER_CAP, seed=0):
    """The default `verify all` battery (a superset is in the test suite)."""
    reports = []
    a1 = RootSystemSpec.parse("A1")
    a2 = RootSystemSpec.parse("A2")
    a1a = RootSystemSpec.parse("A1!")
    a2a = RootSystemSpec.parse("A2!")
    for k in range(3):
        reports.append(verify.verify_finite_cs(a1, (2 * k,)))
    reports.append(verify.verify_finite_cs(a2, (1, 1)))
    reports.append(verify.verify_affine_cs(a1a, (0, 1), 6,
                                           layer_cap=layer_cap))
    reports.append(verify.verify_affine_cs(a2a, (0, 0, 1), 4,
                                           layer_cap=layer_cap))
    reports.append(verify.verify_hecke_relations(a2, count=25, seed=seed))
    reports.append(verify.verify_hecke_relations(a1a, count=25, seed=seed))
    reports.append(verify.verify_denominator_identity(a1a, 8))
    reports.append(verify.verify_denominator_identity(a2a, 6))
    reports.append(verify.verify_symmetrizer_properties(a1a, (0, 1), 6,
                                                        layer_cap=layer_cap))
    _, prop = verify.extract_proportionality(a1a, (0, 1), 6,
                                             layer_cap=layer_cap)
    reports.append(prop)
    c = rootdata.minimal_imaginary_coroot(a1a).coords
    reports.append(verify.verify_gk_limit(a1a, c, 6, layer_cap=layer_cap))
    return reports


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse reads "--opt=--" as an empty list; no option takes one
        empty = [name for name, value in vars(args).items() if value == []]
        if empty:
            raise UsageError(f"--{empty[0].replace('_', '-')} needs a value")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _Exit as exc:
        return exc.args[0]
    try:
        spec = getattr(args, "spec", None)
        labels = None
        if "labels" in vars(args):
            labels = _parse_ints(args.labels, "labels", spec.num_nodes)
        if args.command == "verify":
            return _run_verify(args, spec, labels)
        if args.command == "roots":
            roots = rootdata.positive_coroots_up_to(spec, args.depth)
            payload = {"header": _header(args, spec),
                       "roots": [{"coords": list(r.coords), "kind": r.kind,
                                  "multiplicity": r.multiplicity}
                                 for r in roots]}
            _emit(args, payload)
        elif args.command == "exponents":
            exps = rootdata.exponents(spec.finite)
            payload = {"header": _header(args, spec),
                       "exponents": list(exps)}
            _emit(args, payload)
        elif args.command == "weyl":
            layers = weyl.enumerate_layers(spec, args.max_length,
                                           layer_cap=args.layer_cap)
            payload = {"header": _header(args, spec),
                       "layer_sizes": [len(l) for l in layers],
                       "total": sum(len(l) for l in layers)}
            _emit(args, payload)
        elif args.command == "character":
            chi = characters.weyl_kac_character(spec, labels, args.depth)
            payload = {"header": _header(args, spec),
                       "series": chi.to_json_dict()}
            _emit(args, payload)
        elif args.command == "whittaker":
            depth = args.depth
            if spec.affine and depth is None:
                depth = 6
            s, achieved, stabilized = verify.whittaker_normalized(
                spec, labels, depth=depth, margin=args.margin,
                layer_cap=args.layer_cap)
            payload = {"header": _header(args, spec),
                       "prefactor": "q^<rho,anchor> (symbolic, not folded in)",
                       "achieved_L": achieved, "stabilized": stabilized,
                       "series": s.to_json_dict()}
            _emit(args, payload)
            if not stabilized:
                return EXIT_UNSTABILIZED
        return EXIT_OK
    except (UsageError, verify.SpecKindError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RootDataError, SeriesError, verify.VerifyError,
            heckeops.HeckeError, characters.CharacterError,
            weyl.WeylError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main():
    """The console entry point: run, then flush standard output inside the
    try, so that a reader that has gone (`dlhecke ... | head -c 1`) ends
    the run with EXIT_PIPE and no traceback (the SIGPIPE recipe of the
    Python docs: standard output moves to devnull, so that the flush at
    exit raises nothing more)."""
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
