"""Command-line front end: root-system queries, character and Whittaker
series, and the identity-verification suite.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 a check did
not stabilize under the layer cap, 3 the library could not carry out the
request (for example a layer-cap overflow), 64 usage error.  All
arithmetic is exact.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__, characters, heckeops, rootdata, verify, weyl
from .rootdata import RootDataError, RootSystemSpec
from .vseries import SeriesError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNSTABILIZED = 2
EXIT_ERROR = 3
EXIT_USAGE = 64
# options that only the single checks read; `verify all` refuses them
VERIFY_ALL_IGNORES = ("spec", "labels", "nu", "wprime", "i")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_ints(text, what, n=None):
    """Comma-separated integers; exactly n of them when n is given."""
    if text is None:
        raise UsageError(f"missing {what}")
    try:
        vec = tuple(int(x) for x in text.split(",")) if text.strip() else ()
    except ValueError:
        raise UsageError(f"cannot parse {what} {text!r}")
    if n is not None and len(vec) != n:
        raise UsageError(f"expected {n} {what}, got {len(vec)}")
    return vec


def build_parser():
    p = _Parser(prog="dlhecke", description=__doc__.splitlines()[0])
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layer-cap", type=int,
                   default=heckeops.DEFAULT_LAYER_CAP)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roots", help="positive coroots up to a height")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--depth", type=int, default=6)

    sp = sub.add_parser("exponents", help="finite exponents")
    sp.add_argument("--spec", required=True)

    sp = sub.add_parser("weyl", help="Weyl group layers")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--max-length", type=int, required=True)

    sp = sub.add_parser("character", help="Weyl-Kac character series")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--labels", required=True)
    sp.add_argument("--depth", type=int, default=6)

    sp = sub.add_parser("whittaker", help="normalized Whittaker sum")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--labels", required=True)
    # affine sums only; a finite sum is exact and refuses both
    sp.add_argument("--depth", type=int, help="default 6")
    sp.add_argument("--margin", type=int,
                    help=f"default {heckeops.DEFAULT_MARGIN}")

    sp = sub.add_parser("verify", help="run identity checks")
    sp.add_argument("what", choices=(
        "finite-cs", "affine-cs", "recursion", "symmetrizer", "gk-limit",
        "hecke-relations", "denominator-identity", "proportionality", "all"))
    sp.add_argument("--spec")
    sp.add_argument("--labels")
    sp.add_argument("--depth", type=int, default=6)
    sp.add_argument("--margin", type=int, default=heckeops.DEFAULT_MARGIN)
    sp.add_argument("--buffer", type=int, default=3)
    sp.add_argument("--nu", help="displacement vector for gk-limit")
    sp.add_argument("--wprime", help="reduced word for recursion, e.g. 2,1")
    sp.add_argument("--i", type=int, help="generator for recursion")
    sp.add_argument("--count", type=int, default=100)
    return p


def _spec_of(args):
    if not getattr(args, "spec", None):
        raise UsageError("--spec is required for this command")
    try:
        return RootSystemSpec.parse(args.spec)
    except RootDataError as exc:
        raise UsageError(str(exc))


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


def _run_verify(args):
    what = args.what
    reports = []
    if what == "all":
        ignored = [f"--{name}" for name in VERIFY_ALL_IGNORES
                   if getattr(args, name) is not None]
        if ignored:
            raise UsageError("verify all runs a fixed battery and takes no "
                             + ", ".join(ignored))
        reports = acceptance_reports(layer_cap=args.layer_cap,
                                     seed=args.seed)
    elif what == "finite-cs":
        spec = _spec_of(args)
        labels = _parse_ints(args.labels, "labels", spec.num_nodes)
        reports = [verify.verify_finite_cs(spec, labels,
                                           layer_cap=args.layer_cap)]
    elif what == "affine-cs":
        spec = _spec_of(args)
        labels = _parse_ints(args.labels, "labels", spec.num_nodes)
        reports = [verify.verify_affine_cs(spec, labels, args.depth,
                                           margin=args.margin,
                                           layer_cap=args.layer_cap)]
    elif what == "recursion":
        spec = _spec_of(args)
        labels = _parse_ints(args.labels, "labels", spec.num_nodes)
        if args.i is None or args.wprime is None:
            raise UsageError("recursion needs --wprime and --i")
        word = _parse_ints(args.wprime, "--wprime letters")
        reports = [verify.verify_recursion(spec, labels, word, args.i)]
    elif what == "symmetrizer":
        spec = _spec_of(args)
        labels = _parse_ints(args.labels, "labels", spec.num_nodes)
        reports = [verify.verify_symmetrizer_properties(
            spec, labels, args.depth, buffer=args.buffer,
            margin=args.margin, layer_cap=args.layer_cap)]
    elif what == "gk-limit":
        spec = _spec_of(args)
        if args.nu is None:
            raise UsageError("gk-limit needs --nu")
        nu = _parse_ints(args.nu, "--nu entries", spec.num_nodes)
        reports = [verify.verify_gk_limit(spec, nu, args.depth,
                                          margin=args.margin,
                                          layer_cap=args.layer_cap)]
    elif what == "hecke-relations":
        spec = _spec_of(args)
        if args.count < 1:
            raise UsageError("--count must be >= 1")
        reports = [verify.verify_hecke_relations(spec, count=args.count,
                                                 seed=args.seed)]
    elif what == "denominator-identity":
        spec = _spec_of(args)
        reports = [verify.verify_denominator_identity(spec, args.depth)]
    elif what == "proportionality":
        spec = _spec_of(args)
        labels = _parse_ints(args.labels, "labels", spec.num_nodes)
        _, report = verify.extract_proportionality(
            spec, labels, args.depth, margin=args.margin,
            layer_cap=args.layer_cap)
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
    try:
        if args.layer_cap < 1:
            raise UsageError("--layer-cap must be >= 1")
        if args.command == "verify":
            return _run_verify(args)
        spec = _spec_of(args)
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
            labels = _parse_ints(args.labels, "labels", spec.num_nodes)
            chi = characters.weyl_kac_character(spec, labels, args.depth)
            payload = {"header": _header(args, spec),
                       "series": chi.to_json_dict()}
            _emit(args, payload)
        elif args.command == "whittaker":
            labels = _parse_ints(args.labels, "labels", spec.num_nodes)
            if spec.affine:
                depth = 6 if args.depth is None else args.depth
                margin = args.margin
            elif args.depth is not None or args.margin is not None:
                raise UsageError("a finite Whittaker sum is exact and takes "
                                 "no --depth or --margin")
            else:
                depth = margin = None
            s, achieved, stabilized = verify.whittaker_normalized(
                spec, labels, depth=depth, margin=margin,
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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
