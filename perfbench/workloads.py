"""Workload cases for the dlhecke benchmark: seeded inputs and canonical
output digests.

A seed never changes how much work a case does.  For the affine and
finite cases it picks one automorphism of each case's Cartan matrix and
relabels the nodes by it; the output is mapped back through the same
automorphism before it is digested, so every seed has the same reference
digest.  For `verify-all` the seed is handed to the CLI as `--seed`.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

from dlhecke import characters, cli, rootdata, verify
from dlhecke.rootdata import RootSystemSpec

AFFINE_CASES = (("A2!", (0, 0, 1), 6),
                ("A3!", (0, 0, 0, 1), 4),
                ("D4!", (0, 0, 0, 0, 1), 3))
FINITE_CASES = (("A4", (2, 1, 1, 0)),
                ("D4", (1, 0, 1, 0)),
                ("D4", (0, 1, 0, 0)))
# Orders of the Dynkin-diagram automorphism groups, asserted against the
# brute-force search.
AUTOMORPHISM_COUNTS = {"A2!": 6, "A3!": 8, "D4!": 24, "A4": 2, "D4": 6}
# Specs each workload parses during set-up.
WORKLOAD_SPECS = {
    "affine-whittaker": [spec for spec, _, _ in AFFINE_CASES],
    "finite-cs": sorted({spec for spec, _ in FINITE_CASES}),
    "verify-all": ["A1", "A2", "A1!", "A2!"],
}
WORKLOADS = tuple(WORKLOAD_SPECS)
MARGIN = 2


# -- automorphisms ----------------------------------------------------------

def is_automorphism(cartan, perm):
    """True iff relabelling node i as perm[i] preserves the Cartan matrix."""
    n = len(cartan)
    return (sorted(perm) == list(range(n))
            and all(cartan[perm[i]][perm[j]] == cartan[i][j]
                    for i in range(n) for j in range(n)))


def check_automorphism(cartan, perm):
    if not is_automorphism(cartan, perm):
        raise ValueError(f"{perm} is not an automorphism of {cartan}")
    return tuple(perm)


def automorphisms(spec):
    """All diagram automorphisms of the spec, by brute force over node
    permutations (n <= 5, so at most 120 candidates)."""
    cartan = rootdata.build_cartan(spec)
    found = [p for p in itertools.permutations(range(len(cartan)))
             if is_automorphism(cartan, p)]
    expected = AUTOMORPHISM_COUNTS.get(str(spec))
    if expected is not None and len(found) != expected:
        raise AssertionError(
            f"{spec}: found {len(found)} automorphisms, expected {expected}")
    return found


def permute(vec, perm):
    """The vector relabelled by perm: out[perm[i]] = vec[i]."""
    out = [0] * len(vec)
    for i, x in enumerate(vec):
        out[perm[i]] = x
    return tuple(out)


def unpermute(vec, perm):
    """Inverse of permute."""
    return tuple(vec[perm[i]] for i in range(len(vec)))


# -- digests ----------------------------------------------------------------

def _sha(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def series_canonical(series, perm):
    """Terms of a series mapped back through perm, sorted by exponent."""
    return {
        "anchor": list(unpermute(series.anchor, perm)),
        "depth": series.depth,
        "exact": series.exact,
        "terms": sorted([list(unpermute(beta, perm)), cf.pairs()]
                        for beta, cf in series.terms.items()),
    }


def whittaker_digest(result, perm):
    series, achieved, stabilized = result
    body = series_canonical(series, perm)
    body.update(achieved_L=achieved, stabilized=stabilized)
    return _sha(body)


def report_canonical(report, perm):
    """Verdict, witness and parameters of a report, mapped back through perm."""
    out = report.to_json_dict()
    del out["ms"]
    params = dict(out["params"])
    if "labels" in params:
        params["labels"] = list(unpermute(params["labels"], perm))
    out["params"] = params
    witness = out.get("witness")
    if witness is not None:
        out["witness"] = dict(witness,
                              beta=list(unpermute(witness["beta"], perm)))
    return out


def report_digest(report, perm):
    return _sha(report_canonical(report, perm))


def cli_canonical(result):
    """Exit code plus every report of a `--format json` run, without the
    timing field and the seed (the seed only picks the random monomials of
    the Hecke-relation checks)."""
    code, text = result
    payload = json.loads(text)
    reports = []
    for rep in payload["reports"]:
        rep = {k: v for k, v in rep.items() if k != "ms"}
        rep["params"] = {k: v for k, v in rep["params"].items()
                         if k != "seed"}
        reports.append(rep)
    return {"exit_code": code, "reports": reports}


def cli_digest(result):
    return _sha(cli_canonical(result))


# -- cases ------------------------------------------------------------------

@dataclass
class Case:
    """One library call of a workload, on the seeded input."""

    name: str
    run: Callable[[], object]
    digest: Callable[[object], str]
    # Extra correctness check on the output, run outside the timed region
    # once per run; None when the case has none.
    check: Callable[[object], bool] | None = None


def _normalization_holds(spec, labels, depth, result):
    """P(e^L) * m_v == D_v * chi_L to the depth: the extracted factor is
    1/m_v (the README's measured normalization)."""
    p = result[0]
    lhs = p * characters.m_factor(spec, depth)
    rhs = (characters.denominator(spec, depth, deformed=True)
           * characters.weyl_kac_character(spec, labels, depth))
    return lhs.first_difference(rhs) is None


def _affine_case(text, labels, depth, perm):
    spec = RootSystemSpec.parse(text)
    seeded = permute(labels, perm)
    return Case(
        name=f"{text}/{','.join(map(str, labels))}/d{depth}",
        run=lambda: verify.whittaker_normalized(spec, seeded, depth=depth,
                                                margin=MARGIN),
        digest=lambda out: whittaker_digest(out, perm),
        check=lambda out: _normalization_holds(spec, seeded, depth, out))


def _finite_case(text, labels, perm):
    spec = RootSystemSpec.parse(text)
    seeded = permute(labels, perm)
    return Case(
        name=f"{text}/{','.join(map(str, labels))}",
        run=lambda: verify.verify_finite_cs(spec, seeded),
        digest=lambda out: report_digest(out, perm))


def run_cli(argv):
    """cli.run with its standard output captured: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def build_cases(workload, seed, identity=False):
    """The cases of a workload for a seed.  identity=True keeps the
    canonical labelling (used to record the reference)."""
    rng = random.Random(seed)

    def pick(spec_text):
        spec = RootSystemSpec.parse(spec_text)
        auts = automorphisms(spec)
        perm = auts[0] if identity else rng.choice(auts)
        return check_automorphism(rootdata.build_cartan(spec), perm)

    if workload == "affine-whittaker":
        return [_affine_case(t, l, d, pick(t)) for t, l, d in AFFINE_CASES]
    if workload == "finite-cs":
        return [_finite_case(t, l, pick(t)) for t, l in FINITE_CASES]
    if workload == "verify-all":
        argv = ["--format", "json", "--seed", str(seed), "verify", "all"]
        return [Case(name="verify all", run=lambda: run_cli(argv),
                     digest=cli_digest)]
    raise ValueError(f"unknown workload {workload!r}")
