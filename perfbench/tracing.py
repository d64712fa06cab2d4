"""Per-layer tracing of dlhecke from the outside.

Installing a Tracer replaces every module binding of every public library
function (a function imported by name into another module is replaced
there too) with a wrapper that records calls, inclusive time and self
time.  Self time is a call's duration minus the time of the wrapped calls
nested inside it.  Operations too small and too frequent to time --
`VPoly` arithmetic, `weyl.reflect` and `WeylElement` construction --
are counted only, so their cost lands in the caller's self time;
`vseries.ht` is left alone.  Uninstalling restores every binding.
"""
from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

from dlhecke import characters, cli, heckeops, rootdata, verify, vseries, weyl
from dlhecke.rootdata import RootSystemSpec
from dlhecke.vseries import AnchoredSeries, VPoly
from dlhecke.weyl import WeylElement

MODULES = (rootdata, vseries, weyl, heckeops, characters, verify, cli)
LAYERS = tuple(m.__name__.split(".")[1] for m in MODULES)
COUNTED = {"weyl.reflect": "weyl.reflect.calls"}
UNWRAPPED = {"vseries.ht"}
SERIES_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "scale",
                  "shifted", "truncate", "as_exact", "first_difference",
                  "eq_up_to_depth", "evaluate_v", "to_json_dict")
VPOLY_OPS = {"__add__": "adds", "__radd__": "adds", "__mul__": "muls",
             "__rmul__": "muls", "__neg__": "negs"}
# verify entry points whose inclusive time is reported per check
CHECKS = {"verify_finite_cs": "finite-cs",
          "verify_affine_cs": "affine-cs",
          "verify_symmetrizer_properties": "symmetrizer",
          "extract_proportionality": "proportionality",
          "verify_gk_limit": "gk-limit",
          "verify_hecke_relations": "hecke-relations",
          "verify_denominator_identity": "denominator-identity"}

# Per-layer metrics and their units, in report order.
METRICS = {f"{layer}.self_s": "s" for layer in LAYERS}
METRICS.update({
    "heckeops.apply_T.self_s": "s",
    "heckeops.apply_T.calls": "count",
    "heckeops.apply_T.terms_in": "count",
    "heckeops.apply_T.terms_out": "count",
    "heckeops.apply_T.shallow_frac": "ratio",
    "heckeops.symmetrizer.layers": "count",
    "vseries.mul_maps.self_s": "s",
    "vseries.mul_maps.calls": "count",
    "vseries.mul_maps.pairs": "count",
    "vseries.mul_maps.kept_frac": "ratio",
    "vseries.vpoly.adds": "count",
    "vseries.vpoly.muls": "count",
    "vseries.vpoly.negs": "count",
    "characters.calls": "count",
    "weyl.elements": "count",
    "weyl.reflect.calls": "count",
    "verify.series_divide.s": "s",
    **{f"verify.{check}.s": "s" for check in CHECKS.values()},
    "rootdata.calls": "count",
})


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _kept_pairs(t1, t2, depth):
    """Number of pairs of t1 x t2 whose product lies at ht <= depth."""
    if depth is None:
        return len(t1) * len(t2)
    h1 = Counter(sum(b) for b in t1)
    h2 = Counter(sum(b) for b in t2)
    return sum(n1 * n2 for a, n1 in h1.items() for b, n2 in h2.items()
               if a + b <= depth)


class Tracer:
    """Spans and counts for one traced pass; use as a context manager."""

    def __init__(self):
        self.self_s = Counter()
        self.total_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._cells = {}
        self._stack = []
        self._depths = []
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, key, fn, before=None, after=None):
        stack = self._stack

        def close(frame, t0, t1):
            stack.pop()
            dur = t1 - t0
            self.self_s[key] += dur - frame[0]
            self.total_s[key] += dur
            self.calls[key] += 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(frame, t0, perf_counter())
                raise
            close(frame, t0, perf_counter())
            if after is not None:
                after(args, kwargs, result)
            if stack:
                # hook time is tracer overhead: keep it out of the parent's
                # self time as well
                stack[-1][0] += perf_counter() - t0
            return result

        return wrapper

    def _counted(self, key, fn):
        cell = self._cells.setdefault(key, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self, key):
        """(before, after) hooks that record a function's counts."""
        counts, depths = self.counts, self._depths
        if key == "heckeops.apply_T":
            def after(args, kwargs, out):
                depth = depths[-1] if depths else None
                counts["heckeops.apply_T.terms_in"] += len(
                    _arg(args, kwargs, 2, "s").terms)
                counts["heckeops.apply_T.terms_out"] += len(out.terms)
                counts["heckeops.apply_T.shallow"] += (
                    len(out.terms) if depth is None
                    else sum(1 for b in out.terms if sum(b) <= depth))
            return None, after
        if key == "heckeops.symmetrizer_stabilized":
            def before(args, kwargs):
                depths.append(_arg(args, kwargs, 2, "depth"))

            def after(args, kwargs, out):
                depths.pop()
                counts["heckeops.symmetrizer.layers"] += out[1]
            return before, after
        if key == "heckeops.symmetrizer_partial":
            def before(args, kwargs):
                depths.append(None)

            def after(args, kwargs, out):
                depths.pop()
                counts["heckeops.symmetrizer.layers"] += len(out[1]) - 1
            return before, after
        if key == "vseries.mul_maps":
            def after(args, kwargs, out):
                t1, t2 = args[0], args[1]
                depth = _arg(args, kwargs, 2, "depth")
                counts["vseries.mul_maps.pairs"] += len(t1) * len(t2)
                counts["vseries.mul_maps.kept"] += _kept_pairs(t1, t2, depth)
            return None, after
        return None, None

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self):
        wrappers = {}
        for mod in MODULES:
            for name, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", None) or ""
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or not home.startswith("dlhecke.")):
                    continue
                key = f"{home.split('.')[1]}.{obj.__name__}"
                if key in UNWRAPPED:
                    continue
                if id(obj) not in wrappers:
                    if key in COUNTED:
                        wrappers[id(obj)] = self._counted(COUNTED[key], obj)
                    else:
                        wrappers[id(obj)] = self._span(key, obj,
                                                       *self._hooks(key))
                self._set(mod, name, wrappers[id(obj)])
        parse = vars(RootSystemSpec)["parse"].__func__
        self._set(RootSystemSpec, "parse", classmethod(
            self._span("rootdata.RootSystemSpec.parse", parse)))
        for name in SERIES_METHODS:
            self._set(AnchoredSeries, name, self._span(
                f"vseries.AnchoredSeries.{name}", vars(AnchoredSeries)[name]))
        for name, op in VPOLY_OPS.items():
            self._set(VPoly, name, self._counted(f"vseries.vpoly.{op}",
                                                 vars(VPoly)[name]))
        self._set(WeylElement, "__init__",
                  self._counted("weyl.elements", WeylElement.__init__))

    def uninstall(self):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------

    def all_counts(self):
        out = Counter(self.counts)
        for key, cell in self._cells.items():
            out[key] += cell[0]
        return out

    def metrics(self):
        """Every per-layer metric except trace_overhead_frac."""
        counts = self.all_counts()
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.split(".")[0] == layer)
        m["heckeops.apply_T.self_s"] = (self.self_s["heckeops.apply_T"]
                                        + self.self_s["heckeops.apply_T_raw"])
        m["heckeops.apply_T.calls"] = self.calls["heckeops.apply_T"]
        terms_out = counts["heckeops.apply_T.terms_out"]
        m["heckeops.apply_T.terms_in"] = counts["heckeops.apply_T.terms_in"]
        m["heckeops.apply_T.terms_out"] = terms_out
        m["heckeops.apply_T.shallow_frac"] = (
            counts["heckeops.apply_T.shallow"] / terms_out if terms_out
            else 0.0)
        m["heckeops.symmetrizer.layers"] = counts["heckeops.symmetrizer.layers"]
        pairs = counts["vseries.mul_maps.pairs"]
        m["vseries.mul_maps.self_s"] = self.self_s["vseries.mul_maps"]
        m["vseries.mul_maps.calls"] = self.calls["vseries.mul_maps"]
        m["vseries.mul_maps.pairs"] = pairs
        m["vseries.mul_maps.kept_frac"] = (
            counts["vseries.mul_maps.kept"] / pairs if pairs else 0.0)
        for op in ("adds", "muls", "negs"):
            m[f"vseries.vpoly.{op}"] = counts[f"vseries.vpoly.{op}"]
        m["characters.calls"] = sum(
            v for k, v in self.calls.items() if k.startswith("characters."))
        m["weyl.elements"] = counts["weyl.elements"]
        m["weyl.reflect.calls"] = counts["weyl.reflect.calls"]
        m["verify.series_divide.s"] = self.total_s["verify.series_divide"]
        for fn, check in CHECKS.items():
            m[f"verify.{check}.s"] = self.total_s[f"verify.{fn}"]
        m["rootdata.calls"] = sum(
            v for k, v in self.calls.items() if k.startswith("rootdata."))
        return m
