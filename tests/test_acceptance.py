"""Acceptance suite: the eleven criteria, one test per criterion.

Each test prints a single ``[criterion N] PASS|FAIL`` line (visible with
pytest -s, and in the captured output of failing tests) and then asserts.
All comparisons are exact; there are no tolerances anywhere.

Stabilized affine Whittaker sums are shared across criteria 3, 4, and 11
through a lazy module-level cache, since each stabilized run is the
expensive step.
"""
import itertools
from fractions import Fraction

from dlhecke import characters, rootdata, verify, weyl
from dlhecke.rootdata import RootSystemSpec
from dlhecke.vseries import VP_ONE, VINV

A1 = RootSystemSpec.parse("A1")
A2 = RootSystemSpec.parse("A2")
A3 = RootSystemSpec.parse("A3")
D4 = RootSystemSpec.parse("D4")
A1A = RootSystemSpec.parse("A1!")
A2A = RootSystemSpec.parse("A2!")

AFFINE_CONFIGS = [(A1A, (0, 1), 6), (A1A, (1, 1), 6), (A1A, (2, 1), 6),
                  (A2A, (0, 0, 1), 4), (A2A, (1, 0, 1), 4)]

_whittaker_cache = {}


def _whittaker(spec, labels, depth):
    key = (str(spec), labels, depth)
    if key not in _whittaker_cache:
        series, achieved, stabilized = verify.whittaker_normalized(
            spec, labels, depth=depth, margin=2)
        _whittaker_cache[key] = (series, achieved, stabilized)
    return _whittaker_cache[key]


def _emit(number, ok, text):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {text}")


def test_criterion_01_finite_casselman_shalika():
    """Sum_w T_w(e^L) = prod(1 - v^-1 e^{-a})·chi_L for A1 (2k), k<=5;
    A2/A3 labels in {0,1,2}; D4 labels in {0,1}."""
    failures = []
    for k in range(6):
        if not verify.verify_finite_cs(A1, (2 * k,)).passed:
            failures.append(("A1", (2 * k,)))
    for spec, vals in ((A2, (0, 1, 2)), (A3, (0, 1, 2)), (D4, (0, 1))):
        for labels in itertools.product(vals, repeat=spec.num_nodes):
            if not verify.verify_finite_cs(spec, labels).passed:
                failures.append((str(spec), labels))
    ok = not failures
    _emit(1, ok, "finite Casselman-Shalika on A1/A2/A3/D4 label grids")
    assert ok, f"finite CS failed at {failures[:3]}"


def test_criterion_02_hand_verified_anchor_case():
    """A1 with anchor a^vee: both sides equal the four-term hand value."""
    lhs, _, _ = verify.whittaker_normalized(A1, (2,))
    expected = {(0,): VP_ONE, (1,): 1 - VINV, (2,): 1 - VINV, (3,): -VINV}
    rhs = characters.finite_character_exact(A1, (2,)) * \
        verify.AnchoredSeries(A1, (0,), {(0,): VP_ONE, (1,): -VINV})
    ok = dict(lhs.terms) == expected and dict(rhs.terms) == expected
    _emit(2, ok, "hand-verified A1 anchor case e^a + (1-v^-1) + ...")
    assert ok


def test_criterion_03_affine_casselman_shalika():
    """Sum_w T_w(e^L) = m_v·D_v·chi_L coefficientwise: affine A1 at depth 6
    for labels (0,1), (1,1), (2,1); affine A2 at depth 4 for (0,0,1),
    (1,0,1); stabilization margin 2."""
    failures, witnesses = [], []
    for spec, labels, depth in AFFINE_CONFIGS:
        lhs, achieved, stabilized = _whittaker(spec, labels, depth)
        if not stabilized:
            failures.append((str(spec), labels, "unstabilized"))
            continue
        rhs = (characters.m_factor(spec, depth)
               * characters.denominator(spec, depth, deformed=True)
               * characters.weyl_kac_character(spec, labels, depth))
        diff = lhs.first_difference(rhs)
        if diff is not None:
            failures.append((str(spec), labels, diff[0]))
            witnesses.append(f"{spec} {labels} at {diff[0]}: lhs {diff[1]}, "
                             f"rhs {diff[2]}")
    ok = not failures
    _emit(3, ok, "affine Casselman-Shalika, five label configurations")
    assert ok, (f"affine CS differs first at {failures}; "
                f"witnesses: {'; '.join(witnesses)}")


def test_criterion_04_v_equals_q_specialization():
    """Criterion-3 identities after exact substitution v := 2 and v := 3."""
    failures, witnesses = [], []
    for spec, labels, depth in AFFINE_CONFIGS:
        lhs, _, stabilized = _whittaker(spec, labels, depth)
        if not stabilized:
            failures.append((str(spec), labels, "unstabilized"))
            continue
        rhs = (characters.m_factor(spec, depth)
               * characters.denominator(spec, depth, deformed=True)
               * characters.weyl_kac_character(spec, labels, depth))
        for q in (Fraction(2), Fraction(3)):
            lv, rv = lhs.evaluate_v(q), rhs.evaluate_v(q)
            bad = [b for b in set(lv) | set(rv)
                   if lv.get(b, 0) != rv.get(b, 0)]
            if bad:
                beta = sorted(bad)[0]
                failures.append((str(spec), labels, int(q), beta))
                witnesses.append(f"{spec} {labels} v={q} at {beta}: "
                                 f"lhs {lv.get(beta, 0)}, "
                                 f"rhs {rv.get(beta, 0)}")
    ok = not failures
    _emit(4, ok, "v = q specialization at q in {2, 3}, exact rationals")
    assert ok, (f"specialized identity differs: {failures[:3]}; "
                f"witnesses: {'; '.join(witnesses[:3])}")


def test_criterion_05_hecke_relations():
    """Quadratic + braid/commutation + conjugation on 100 seeded random
    monomials for A2, A3, affine A1, affine A2."""
    failures = []
    for spec in (A2, A3, A1A, A2A):
        r = verify.verify_hecke_relations(spec, count=100, seed=0)
        if not r.passed:
            failures.append((str(spec), r.params.get("relation")))
    ok = not failures
    _emit(5, ok, "Hecke relations on 100 seeded monomials per system")
    assert ok, f"relation failures: {failures}"


def test_criterion_06_proportionality_constant():
    """P(e^L)/(D_v·chi) on affine A1 at depth 6: supported on Z>=0 c and
    equal to m_factor coefficient-for-coefficient."""
    gamma, report = verify.extract_proportionality(A1A, (0, 1), 6)
    ok = report.passed
    _emit(6, ok, "extracted proportionality factor equals m_factor")
    if not ok and gamma is not None:
        got = gamma.coefficient((1, 1))
        want = characters.m_factor(A1A, 6).coefficient((1, 1))
        assert ok, (f"factor differs at c: extracted {got!r}, "
                    f"m_factor has {want!r}; witness {report.witness}")
    assert ok


def test_criterion_07_denominator_identity():
    """Macdonald/Weyl denominator identity at depth 8 (affine A1) and
    depth 6 (affine A2)."""
    r1 = verify.verify_denominator_identity(A1A, 8)
    r2 = verify.verify_denominator_identity(A2A, 6)
    ok = r1.passed and r2.passed
    _emit(7, ok, "denominator/Macdonald identity, depths 8 and 6")
    assert ok


def test_criterion_08_recursion_all_short_words():
    """Both evaluation routes agree for every (w', i) ascent pair with
    l(w') <= 4, in A2 and affine A1, labels all-ones."""
    failures = []
    for spec in (A2, A1A):
        cartan = rootdata.build_cartan(spec)
        n = spec.num_nodes
        ones = (1,) * n
        for layer in weyl.enumerate_layers(spec, 4):
            for w in layer:
                for i in range(1, n + 1):
                    if weyl.pairing(cartan, ones, w.orbit_key, i) <= 0:
                        continue
                    r = verify.verify_recursion(spec, ones, w.word, i)
                    if not r.passed:
                        failures.append((str(spec), w.word, i))
    ok = not failures
    _emit(8, ok, "Whittaker recursion, all ascent pairs with l(w') <= 4")
    assert ok, f"recursion route mismatch at {failures}"


def test_criterion_09_symmetrizer_properties():
    """Symmetrizer eigen/invariance properties (i)-(iv) at buffered depth
    6 - 3 on affine A1, labels (0, 1)."""
    r = verify.verify_symmetrizer_properties(A1A, (0, 1), 6, buffer=3)
    ok = r.passed
    _emit(9, ok, "symmetrizer properties (i)-(iv) at buffered depth 3")
    assert ok, f"property failed: {r.params.get('property')}, {r.witness}"


def test_criterion_10_gindikin_karpelevich_limit():
    """Scaled-dominant Whittaker coefficients match [e^{-nu}] Delta
    (finite, 1 <= ht(nu) <= 4) and [e^{-nu}] m_v·Delta (affine A1,
    nu in {c, a1, a1 + c}), within 6 doublings."""
    failures = []
    for k in range(1, 5):
        if not verify.verify_gk_limit(A1, (k,), 4).passed:
            failures.append(("A1", (k,)))
    for b1 in range(5):
        for b2 in range(max(0, 1 - b1), 5 - b1):
            if not verify.verify_gk_limit(A2, (b1, b2), 4).passed:
                failures.append(("A2", (b1, b2)))
    c = rootdata.minimal_imaginary_coroot(A1A).coords
    a1 = (1, 0)
    a1c = tuple(x + y for x, y in zip(a1, c))
    witnesses = []
    for nu in (c, a1, a1c):
        report = verify.verify_gk_limit(A1A, nu, 6)
        if not report.passed:
            failures.append(("A1!", nu))
            witnesses.append(f"A1! {nu}: {report.witness}")
    ok = not failures
    _emit(10, ok, "Gindikin-Karpelevich limit, finite and affine probes")
    assert ok, (f"limit mismatches at {failures}; "
                f"witnesses: {'; '.join(witnesses)}")


def test_criterion_11_polynomiality():
    """Every coefficient of every stabilized affine Whittaker series from
    criterion 3 lies in Z[v^-1]."""
    bad = []
    for spec, labels, depth in AFFINE_CONFIGS:
        series, _, stabilized = _whittaker(spec, labels, depth)
        if not stabilized:
            bad.append((str(spec), labels, "unstabilized"))
            continue
        for beta, coeff in series.terms.items():
            if not coeff.in_v_inverse_ring():
                bad.append((str(spec), labels, beta))
            if any(n != int(n) for _, n in coeff.pairs()):
                bad.append((str(spec), labels, beta, "non-integer"))
    ok = not bad
    _emit(11, ok, "all stabilized Whittaker coefficients lie in Z[v^-1]")
    assert ok, f"coefficients outside Z[v^-1]: {bad[:3]}"
