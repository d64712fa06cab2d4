"""Unit tests for the verification harness (mechanics and small cases).

The full identity battery lives in test_acceptance.py; here we exercise
report plumbing, the independent evaluation routes, and small exact cases.
"""
import functools
import itertools
import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from dlhecke import characters, cli, heckeops, rootdata, verify, vseries, weyl
from dlhecke.rootdata import RootSystemSpec
from dlhecke.vseries import (AnchoredSeries, PackedSeries, VPoly, VP_ONE,
                             VP_ZERO, V, VINV, divide_exact)
from series_json import series_from_json
from weyl_action import act_on_series

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

A1 = RootSystemSpec.parse("A1")
A2 = RootSystemSpec.parse("A2")
A1A = RootSystemSpec.parse("A1!")


def test_whittaker_finite_a1_anchor_case():
    w, achieved, stabilized = verify.whittaker_normalized(A1, (2,))
    assert stabilized and achieved == 1
    assert dict(w.terms) == {(0,): VP_ONE, (1,): 1 - VINV,
                             (2,): 1 - VINV, (3,): -VINV}


@pytest.mark.parametrize("text, positive_roots", [("A5", 15), ("D5", 20)])
def test_finite_cs_at_rank_five(text, positive_roots):
    spec = RootSystemSpec.parse(text)
    report = verify.verify_finite_cs(spec, (1, 0, 0, 0, 0))
    assert report.passed and report.achieved_length == positive_roots


def _rhs_by_series_products(spec, chi):
    """prod_{a>0}(1 - v^-1 e^{-a}) chi by AnchoredSeries products of
    VPolys, the route the packed right-hand side replaced."""
    zero = (0,) * spec.num_nodes
    rhs = chi
    for cr in rootdata.positive_coroots_up_to(spec, None):
        rhs = rhs * AnchoredSeries(spec, zero, {zero: VP_ONE,
                                                cr.coords: -VINV})
    return rhs


def _packed_rhs(spec, chi, width):
    """The packed right-hand side as verify_finite_cs builds it: chi
    packed for T at width (or wider) times the deformed denominator's
    factor list, by PackedSeries.times_factors."""
    return PackedSeries.pack(chi.anchor, chi.terms, -1, width).times_factors(
        characters.denominator_factors(spec, None, VINV, 1), None)


@st.composite
def finite_cs_labels(draw):
    spec = draw(st.sampled_from(["A2", "A3", "A4", "D4"]))
    spec = RootSystemSpec.parse(spec)
    top = 2 if spec.num_nodes <= 3 else 1
    return spec, tuple(draw(st.lists(st.integers(0, top),
                                     min_size=spec.num_nodes,
                                     max_size=spec.num_nodes)))


@settings(max_examples=30, deadline=None)
@given(finite_cs_labels())
def test_packed_finite_cs_rhs_matches_the_series_products(case):
    spec, labels = case
    chi = characters.finite_character_exact(spec, labels)
    rhs = _packed_rhs(spec, chi, 64)
    assert (AnchoredSeries(spec, rhs.anchor, rhs.unpack())
            == _rhs_by_series_products(spec, chi))


@pytest.mark.parametrize("text, labels", [("A2", (1, 1)),
                                          ("D4", (1, 0, 1, 0))])
def test_packed_finite_cs_rhs_widens_past_64_bits(monkeypatch, text, labels):
    # coefficients near 2^70 need a width of 70 + N + 1 bits or more, N
    # the number of positive coroots
    spec = RootSystemSpec.parse(text)
    n = len(rootdata.positive_coroots_up_to(spec, None))
    chi = characters.finite_character_exact(spec, labels)
    chis = [chi.scale(2 ** 70 + 1),
            AnchoredSeries.monomial(spec, labels, coeff=-2 ** 70)]
    widths = []
    unpack = PackedSeries.unpack

    def recording_unpack(self):
        widths.append(self.width)
        return unpack(self)

    monkeypatch.setattr(PackedSeries, "unpack", recording_unpack)
    for chi in chis:
        rhs = _packed_rhs(spec, chi, 64)
        assert (AnchoredSeries(spec, rhs.anchor, rhs.unpack())
                == _rhs_by_series_products(spec, chi))
    assert min(widths) >= 70 + n + 1 > 64


@pytest.mark.parametrize("where", ["in the support", "outside it"])
def test_finite_cs_decodes_only_the_first_differing_beta(monkeypatch, where):
    """A passing finite CS check decodes neither side.  A right-hand side
    perturbed at one beta fails there: one term of each side is decoded,
    and the report is the one of the decoded route, both sides decoded
    whole and compared by AnchoredSeries.first_difference."""
    spec, labels = RootSystemSpec.parse("D4"), (1, 0, 1, 0)
    chi = characters.finite_character_exact(spec, labels)
    rhs = _packed_rhs(spec, chi, 64)
    beta = (sorted(rhs.terms)[len(rhs.terms) // 2]
            if where == "in the support" else (9, 9, 9, 9))
    times_factors = PackedSeries.times_factors

    def perturbed_times_factors(self, factors, depth):
        p = times_factors(self, factors, depth)
        p.terms[beta] = p.terms.get(beta, 0) + (1 << 2 * p.width)  # + v^-2
        p.bound += 1
        return p

    lhs, achieved, _ = verify.whittaker_normalized(spec, labels)
    bad = perturbed_times_factors(PackedSeries.pack(chi.anchor, chi.terms, -1),
                                  characters.denominator_factors(
                                      spec, None, VINV, 1), None)
    diff = lhs.first_difference(AnchoredSeries(spec, bad.anchor,
                                               bad.unpack()))
    assert diff[0] == beta
    want = verify._report("finite-cs", spec, {"labels": list(labels)}, 0,
                          diff, achieved).to_json_dict()

    decoded, digits = [], []
    unpack, _digits = PackedSeries.unpack, vseries._digits

    def counting_unpack(self):
        decoded.append(len(self.terms))
        return unpack(self)

    def counting_digits(x, width):
        digits.append(x)
        return _digits(x, width)

    monkeypatch.setattr(characters, "finite_character_exact",
                        lambda spec, labels: chi)
    monkeypatch.setattr(PackedSeries, "unpack", counting_unpack)
    monkeypatch.setattr(vseries, "_digits", counting_digits)
    assert verify.verify_finite_cs(spec, labels).passed
    assert decoded == [] and digits == []
    monkeypatch.setattr(PackedSeries, "times_factors",
                        perturbed_times_factors)
    got = verify.verify_finite_cs(spec, labels).to_json_dict()
    assert decoded == [1, 1] and len(digits) == 2
    del got["ms"], want["ms"]
    assert got == want and got["verdict"] == verify.FAIL


def test_cs_checks_refuse_a_spec_of_the_other_kind(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the refusal comes before any work")

    monkeypatch.setattr(verify, "whittaker_normalized", no_work)
    monkeypatch.setattr(heckeops, "symmetrizer_stabilized", no_work)
    monkeypatch.setattr(heckeops, "symmetrizer_chain", no_work)
    with pytest.raises(verify.VerifyError,
                       match="finite-cs runs on finite specs only; "
                             "A1! is affine"):
        verify.verify_finite_cs(A1A, (0, 1))
    with pytest.raises(verify.VerifyError,
                       match="affine-cs runs on affine specs only; "
                             "A2 is finite"):
        verify.verify_affine_cs(A2, (1, 0), 4)


@pytest.mark.parametrize("text, labels, depth", [("A2", (1, 1), 4),
                                                 ("A3", (1, 0, 1), 4),
                                                 ("D4", (2, 2, 2, 2), 3)])
def test_finite_sum_to_a_depth_walks_the_whole_group(monkeypatch, text,
                                                     labels, depth):
    """On a finite spec the sum to a depth walks every layer of W, whatever
    the margin: it is the exact chain's series truncated to the depth, its
    length is l(w0), and the orbit's end certifies the stop.  The checks
    that work to a depth take this route and never reach the chain; a
    margin of 0, which an affine walk refuses, is not read."""
    spec = RootSystemSpec.parse(text)
    total, length = heckeops.symmetrizer_chain(spec, labels)
    want = {b: cf for b, cf in total.unpack().items()
            if vseries.ht(b) <= depth and min(b) >= 0}
    for margin in (1, 2, 3):
        got, achieved, stabilized = heckeops.symmetrizer_stabilized(
            spec, labels, depth, margin=margin)
        assert (got.terms, got.depth, achieved, stabilized) == \
            (want, depth, length, True)

    def no_chain(*args, **kwargs):
        raise AssertionError("a sum to a depth reached the chain")

    monkeypatch.setattr(heckeops, "symmetrizer_chain", no_chain)
    nu = (1,) + (0,) * (spec.num_nodes - 1)
    reports = [
        verify.verify_symmetrizer_properties(spec, labels, depth + 1,
                                             buffer=depth, margin=0),
        verify.extract_proportionality(spec, labels, depth, margin=0)[1],
        verify.verify_gk_limit(spec, nu, depth, margin=0)]
    assert all(report.passed for report in reports)
    assert [r.achieved_length for r in reports] == [length, length, None]


def test_acceptance_reports_multiply_no_two_series(monkeypatch):
    """Every right-hand side of the battery is a factor pass
    (vseries.times_factors); none multiplies two AnchoredSeries."""
    def unmasked(reports):
        return [{k: v for k, v in r.to_json_dict().items() if k != "ms"}
                for r in reports]

    def refuse(self, other):
        raise AssertionError("an AnchoredSeries product")

    expected = unmasked(cli.acceptance_reports())
    monkeypatch.setattr(AnchoredSeries, "__mul__", refuse)
    assert unmasked(cli.acceptance_reports()) == expected


def test_negative_depth_and_buffer_are_refused():
    with pytest.raises(heckeops.HeckeError, match="depth must be >= 0"):
        verify.whittaker_normalized(A1A, (0, 1), depth=-1)
    with pytest.raises(heckeops.HeckeError, match="depth must be >= 0"):
        heckeops.symmetrizer_stabilized(A1A, (0, 1), -1)
    with pytest.raises(verify.VerifyError, match="buffer must be >= 0"):
        verify.verify_symmetrizer_properties(A1A, (0, 1), 5, buffer=-1)


def test_whittaker_rejects_nondominant():
    with pytest.raises(verify.VerifyError):
        verify.whittaker_normalized(A1, (-2,))


@pytest.mark.parametrize("labels", [(), (0, 1, 2), (0, -1)])
@pytest.mark.parametrize("check", [verify.verify_affine_cs,
                                   verify.extract_proportionality,
                                   verify.verify_symmetrizer_properties])
def test_affine_checks_refuse_bad_labels_with_verify_error(check, labels):
    # the symmetrizer check reads max(labels) for its internal depth, so it
    # must validate them first: () once raised a bare ValueError from max
    with pytest.raises(verify.VerifyError, match="labels needs 2 entries "
                       "for A1!, got [03]|dominant labels required"):
        check(A1A, labels, 6)


def test_whittaker_affine_needs_depth():
    with pytest.raises(verify.VerifyError):
        verify.whittaker_normalized(A1A, (0, 1))


@pytest.mark.parametrize("options", [{"depth": 3}, {"margin": 2},
                                     {"depth": -5, "margin": -1}])
def test_whittaker_finite_refuses_depth_and_margin(options):
    with pytest.raises(verify.VerifyError, match="takes no depth or margin"):
        verify.whittaker_normalized(A2, (1, 1), **options)


def test_whittaker_affine_margin_defaults():
    assert verify.whittaker_normalized(A1A, (0, 1), depth=4) == \
        verify.whittaker_normalized(A1A, (0, 1), depth=4,
                                    margin=heckeops.DEFAULT_MARGIN)


def test_whittaker_matches_golden_regression():
    data = json.loads((GOLDEN / "whittaker_A1aff_0_1_depth4.json").read_text())
    achieved_golden = data.pop("achieved_L")
    golden = series_from_json(data)
    live, achieved, stabilized = verify.whittaker_normalized(A1A, (0, 1),
                                                             depth=4)
    assert stabilized and achieved == achieved_golden
    assert live.first_difference(golden) is None


def test_report_shapes():
    r = verify.verify_finite_cs(A1, (2,))
    assert r.passed and r.witness is None
    d = r.to_json_dict()
    assert d["check"] == "finite-cs" and d["verdict"] == "pass"
    assert "witness" not in d


def test_failing_report_carries_witness():
    r = verify.verify_affine_cs(A1A, (0, 1), 4)
    if r.verdict == verify.FAIL:
        assert r.witness is not None and "beta" in r.witness


def test_recursion_two_routes_agree():
    r = verify.verify_recursion(A2, (1, 1), (2,), 1)
    assert r.passed


def test_recursion_rejects_descent():
    with pytest.raises(verify.VerifyError):
        verify.verify_recursion(A2, (1, 1), (1,), 1)


def test_series_divide_inverts_multiplication():
    d = characters.denominator(A1A, 5, deformed=True)
    chi = characters.weyl_kac_character(A1A, (0, 1), 5)
    prod = d * chi
    q = verify.series_divide(prod, d, 5)
    assert q.first_difference(chi) is None


def test_series_divide_requires_unit_lead():
    bad = characters.denominator(A1A, 4, deformed=True).scale(VPoly(2))
    with pytest.raises(verify.VerifyError):
        verify.series_divide(bad, bad, 4)


def test_divide_deep_end_matches_shallow_end():
    """The recursion check's route (deep end) and apply_T's (shallow end)
    give the same quotient of a T_1 numerator by (1 - e^{a_1}); the
    numerator is built by series arithmetic, as verify_recursion does."""
    s = AnchoredSeries.monomial(A2, (2, 1))
    cnum = AnchoredSeries(A2, (0, 0), {(0, 0): VP_ONE, (1, 0): -VINV})
    num = cnum * act_on_series(A2, (1,), s) + s.scale(VINV - 1)
    shallow = divide_exact(num.terms, (-1, 0))
    deep = divide_exact(num.terms, (-1, 0), from_deep=True)
    assert shallow == deep
    assert shallow == heckeops.apply_T_word(A2, (1,), s).unpack()


def test_recursion_rejects_bad_words():
    for word, i in (((1, 1), 2), ((3,), 1), ((1,), 0)):
        with pytest.raises(verify.VerifyError):
            verify.verify_recursion(A2, (1, 1), word, i)


def test_gk_limit_rejects_wrong_length_nu():
    with pytest.raises(verify.VerifyError):
        verify.verify_gk_limit(A1A, (1, 1, 1), 6)


def test_recursion_applies_each_letter_of_the_word_once(monkeypatch):
    # T_{w'}(e^L) is built once and route A is T_i of it: |w'| + 1 kernel
    # calls, letters right to left
    kernel = heckeops._kernel
    calls = []

    def counting_kernel(p, strings, i, limit=None):
        calls.append(i)
        return kernel(p, strings, i, limit)

    monkeypatch.setattr(heckeops, "_kernel", counting_kernel)
    for spec, labels, word, i in ((A2, (1, 1), (), 1), (A2, (1, 1), (2,), 1),
                                  (A1A, (0, 1), (1, 2, 1), 2)):
        calls.clear()
        assert verify.verify_recursion(spec, labels, word, i).passed
        assert calls == list(reversed(word)) + [i]


def _decoded_relations(spec, s, faulty):
    """(relation, first difference or None) of each relation of the Hecke
    battery on s, in its order, by AnchoredSeries arithmetic with every
    letter decoded: the oracle of the packed relations.  The value of a
    letter i of kind applied after `before` letters is negated where
    faulty(i, kind, before) holds."""
    def word(letters, x, kind=heckeops.T_KIND):
        for before, i in enumerate(reversed(letters)):
            x = AnchoredSeries(spec, x.anchor, heckeops.apply_T_word(
                spec, (i,), x, kind).unpack(), _trusted=True)
            x = -x if faulty(i, kind, before) else x
        return x
    cartan = rootdata.build_cartan(spec)
    n = spec.num_nodes
    for i in range(1, n + 1):
        for kind, u in ((heckeops.T_KIND, VINV), (heckeops.TPRIME_KIND, V)):
            rhs = word((i,), s, kind).scale(u - 1) + s.scale(u)
            yield (f"quadratic {kind} generator {i}",
                   word((i, i), s, kind).first_difference(rhs))
        shifted = AnchoredSeries(spec, [a + 1 for a in s.anchor], s.terms)
        lhs = word((i,), shifted, heckeops.TPRIME_KIND)
        yield (f"conjugation generator {i}",
               AnchoredSeries(spec, s.anchor, lhs.terms).first_difference(
                   word((i,), s).scale(-V)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            bond = cartan[i - 1][j - 1] * cartan[j - 1][i - 1]
            words = {1: ((i, j, i), (j, i, j)), 0: ((i, j), (j, i))}
            if bond in words:
                w1, w2 = words[bond]
                yield (f"braid ({i},{j})",
                       word(w1, s).first_difference(word(w2, s)))


def test_hecke_failure_carries_real_witness():
    """A fault planted in the packed kernel's output (its value negated)
    fails the relation that the decoded oracle, fed the same faulty
    values, finds first, with the oracle's witness: once on every T'
    letter, which a T' quadratic relation catches, once on the third
    letter of a word when it is T_1, which only a braid word has, and once
    on the image T_2 s of the T packing, which the battery computes once
    and every relation on generator 2 reads.  Each failure is on the
    first monomial of the seed."""
    kernel = heckeops._kernel
    faults = [(lambda i, kind, before: kind == heckeops.TPRIME_KIND,
               "quadratic Tprime generator 1"),
              (lambda i, kind, before: before == 2 and i == 1,
               "braid (1,2)"),
              (lambda i, kind, before: (before, i, kind)
               == (0, 2, heckeops.T_KIND), "quadratic T generator 2")]
    first = verify._random_monomial(A2, random.Random(1)).anchor
    for faulty, relation in faults:
        made = {}  # id of a kernel value -> (letters that built it, value)

        def planted(p, strings, i, limit=None):
            out = kernel(p, strings, i, limit)
            before = made.get(id(p), (0,))[0]
            kind = heckeops.T_KIND if p.var == -1 else heckeops.TPRIME_KIND
            if faulty(i, kind, before):
                out = PackedSeries(out.anchor, {b: -x for b, x in
                                                out.terms.items()},
                                   out.width, out.bound, out.low, out.var)
            made[id(out)] = (before + 1, out)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heckeops, "_kernel", planted)
            r = verify.verify_hecke_relations(A2, count=3, seed=1)
        s = AnchoredSeries.monomial(A2, r.params["monomial"])
        label, (beta, lhs, rhs) = next(
            (label, diff) for label, diff in _decoded_relations(A2, s, faulty)
            if diff is not None)
        assert r.verdict == verify.FAIL
        assert r.params["relation"] == label == relation
        assert tuple(r.params["monomial"]) == first
        assert r.witness == {"beta": list(beta),
                             "lhs": [list(dn) for dn in lhs.pairs()],
                             "rhs": [list(dn) for dn in rhs.pairs()]}
        assert lhs != rhs


def test_denominator_twist_failure_carries_real_witness(monkeypatch):
    # a doubled denominator still matches a doubled numerator, so only
    # the twisted identities can fail
    real = characters.denominator

    def doubled(spec, depth, deformed=False):
        return real(spec, depth, deformed).scale(VPoly(2))

    monkeypatch.setattr(characters, "denominator", doubled)
    monkeypatch.setattr(characters, "character_numerator",
                        lambda spec, labels, depth: doubled(spec, depth))
    r = verify.verify_denominator_identity(A1A, 4)
    assert r.verdict == verify.FAIL
    assert r.params["twist_generator"] == 1
    assert r.witness == {"beta": [0, 0], "lhs": [[0, 2]], "rhs": [[0, 1]]}


def test_finite_proportionality_is_one():
    gamma, report = verify.extract_proportionality(A2, (1, 1), 4)
    assert report.passed
    assert dict(gamma.terms) == {(0, 0): VP_ONE}


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(["A1!", "A2!", "D4!"]))
def test_is_multiple_of_matches_the_search_over_j(data, text):
    # the closed form against the search over j = 1 .. ht(beta) // ht(c)
    # that it replaced
    c = rootdata.minimal_imaginary_coroot(RootSystemSpec.parse(text)).coords
    beta = data.draw(st.tuples(*[st.integers(0, 6)] * len(c)))
    if data.draw(st.booleans()):
        beta = tuple(data.draw(st.integers(0, 4)) * x for x in c)
    want = not any(beta) or any(
        beta == tuple(j * x for x in c)
        for j in range(1, sum(beta) // sum(c) + 1))
    assert verify._is_multiple_of(beta, c) == want


def test_gk_limit_trivial_displacement():
    # at nu = 0 both sides are [e^0] = 1, whatever the identity says
    for spec, nu in ((A1, (0,)), (A1A, (0, 0))):
        with pytest.raises(verify.VerifyError, match="nu must be nonzero"):
            verify.verify_gk_limit(spec, nu, 2)


def test_gk_limit_refuses_a_negative_entry():
    # both sides live on nonnegative displacements, so they would compare
    # 0 with 0 there
    for spec, nu, depth in ((A1, (-2,), 3), (A1A, (2, -1), 4)):
        with pytest.raises(verify.VerifyError, match="nonnegative"):
            verify.verify_gk_limit(spec, nu, depth)


def test_gk_limit_finite_a1_simple_root():
    assert verify.verify_gk_limit(A1, (1,), 2).passed


@pytest.mark.parametrize("text, depth", [("A1!", 6), ("A2!", 4), ("D4", 4)])
def test_gk_target_to_the_height_of_nu_is_the_full_depth_coefficient(
        text, depth):
    """The target, built to ht(nu) only, is the coefficient at nu of the
    product Delta (times m_v on an affine spec) built to the whole depth,
    at every nonzero nu >= 0 of height <= depth."""
    spec = RootSystemSpec.parse(text)
    n = spec.num_nodes
    factors = (characters.denominator_factors(spec, depth, VINV, 1)
               + characters.denominator_factors(spec, depth, VP_ONE, -1))
    if spec.affine:
        factors += characters.m_factors(spec, depth)
    full = AnchoredSeries.one(spec, n, depth).times_factors(factors)
    nus = [nu for nu in itertools.product(range(depth + 1), repeat=n)
           if 0 < sum(nu) <= depth]
    assert all(verify._gk_target(spec, nu) == full.coefficient(nu)
               for nu in nus)
    assert sum(1 for nu in nus if full.coefficient(nu)) > len(nus) // 4


def test_gk_limit_depth_precondition():
    with pytest.raises(verify.VerifyError):
        verify.verify_gk_limit(A1, (3,), 2)


def test_hecke_relations_apply_each_image_once(monkeypatch):
    # per monomial and generator: T_i and T_i T_i of each packing and T'_i
    # of the rho-shifted one (5), and per braid pair the two letters that
    # follow the shared images (4): 14 on A2, 10 on A1! (no braid)
    calls = []
    apply_T = heckeops.apply_T

    def counting(spec, i, s, limit=None):
        calls.append(i)
        return apply_T(spec, i, s, limit)

    monkeypatch.setattr(heckeops, "apply_T", counting)
    for spec, per_monomial in ((A2, 14), (A1A, 10)):
        calls.clear()
        assert verify.verify_hecke_relations(spec, count=5, seed=7).passed
        assert len(calls) == 5 * per_monomial


def test_hecke_relations_check_each_distinct_monomial_once(monkeypatch):
    # the draws are the same, and a repeat of a passing monomial is
    # skipped: 25 draws from the 81 monomials of labels in -4..4
    checked = []
    differences = verify._relation_differences

    def counting(spec, s):
        checked.append(s.anchor)
        return differences(spec, s)

    monkeypatch.setattr(verify, "_relation_differences", counting)
    for spec in (A2, A1A):
        for seed in (0, 1, 2):
            rng = random.Random(seed)
            draws = [verify._random_monomial(spec, rng).anchor
                     for _ in range(25)]
            checked.clear()
            assert verify.verify_hecke_relations(spec, 25, seed).passed
            assert checked == list(dict.fromkeys(draws))
            assert len(checked) < len(draws)


def test_denominator_identity_builds_one_denominator(monkeypatch):
    built = []
    denominator = characters.denominator

    def counting(*args, **kwargs):
        built.append(args)
        return denominator(*args, **kwargs)

    monkeypatch.setattr(characters, "denominator", counting)
    for spec, depth in ((A1A, 8), (RootSystemSpec.parse("A2!"), 6)):
        built.clear()
        assert verify.verify_denominator_identity(spec, depth).passed
        assert len(built) == 1


def test_hecke_relations_seeded_smoke():
    assert verify.verify_hecke_relations(A2, count=5, seed=7).passed


def test_hecke_relations_pack_each_monomial_once_per_kind(monkeypatch):
    # every relation on a monomial reads its two packings, one for T and
    # one for T' (4n + 2 per monomial on A2 before)
    packs = []
    pack = vars(PackedSeries)["pack"].__func__

    def counting_pack(cls, anchor, terms, var, width=64):
        packs.append(var)
        return pack(cls, anchor, terms, var, width)

    monkeypatch.setattr(PackedSeries, "pack", classmethod(counting_pack))
    for spec in (A2, A1A):
        packs.clear()
        assert verify.verify_hecke_relations(spec, count=5, seed=7).passed
        assert sorted(packs) == [-1] * 5 + [1] * 5


def test_symmetrizer_properties_finite():
    r = verify.verify_symmetrizer_properties(A1, (2,), 4, buffer=2)
    assert r.passed


def _cone_window_diff(lhs, rhs, window):
    """First coefficient difference of two term maps on the anchored cone
    up to `window`, over the sorted union of their keys: the map-based
    comparison that the symmetrizer check made before it read P at the
    window points only."""
    keys = set(lhs) | set(rhs)
    for beta in sorted(k for k in keys
                       if min(k) >= 0 and vseries.ht(k) <= window):
        lc = lhs.get(beta, VP_ZERO)
        rc = rhs.get(beta, VP_ZERO)
        if lc != rc:
            return beta, lc, rc
    return None


def _planted(series, beta):
    """series with 1 added to its coefficient at beta."""
    terms = dict(series.terms)
    terms[beta] = terms.get(beta, VP_ZERO) + VP_ONE
    return AnchoredSeries(series.spec, series.anchor,
                          {b: cf for b, cf in terms.items() if cf},
                          depth=series.depth, _trusted=True)


@pytest.mark.parametrize("text, labels, depth", [("A1!", (0, 1), 6),
                                                 ("A2!", (0, 0, 1), 4),
                                                 ("A2", (1, 1), 5)])
def test_symmetrizer_check_fails_on_a_planted_fault(monkeypatch, text,
                                                    labels, depth):
    """One coefficient of P planted wrong at any window point fails the
    check at (i) for generator 1, and one planted in the first (ii) rerun
    fails it at (ii) for generator 1, each with a witness whose sides
    differ.  The sums are computed once and replayed in the order the
    check asks for them: P, then the rerun on T_1(e^L).

    The comparison the check no longer makes, (iv): (1/D_v) P is fixed by
    every s_i on the window, P divided by D_v's factors at the internal
    depth, is kept here as an oracle and holds on the unperturbed P."""
    spec = RootSystemSpec.parse(text)
    real = heckeops.symmetrizer_stabilized
    sums = []

    def recording(*args, **kwargs):
        sums.append(real(*args, **kwargs))
        return sums[-1]

    monkeypatch.setattr(heckeops, "symmetrizer_stabilized", recording)
    assert verify.verify_symmetrizer_properties(spec, labels, depth).passed
    p = sums[0][0]
    window = depth - 3
    s_inv = vseries.times_factors(
        p.terms, characters.denominator_factors(spec, p.depth, VINV, -1),
        p.depth)
    cartan = rootdata.build_cartan(spec)
    for i in range(1, spec.num_nodes + 1):
        image = weyl.reflect_terms(cartan, p.anchor, s_inv, i)
        assert _cone_window_diff(image, s_inv, window) is None

    for faulty, where in ((0, "(i) generator 1"), (1, "(ii) generator 1")):
        for beta in vseries.nonneg_vectors_up_to(spec.num_nodes, window):
            replay = [(_planted(series, beta) if k == faulty else series,
                       achieved, stabilized)
                      for k, (series, achieved, stabilized)
                      in enumerate(sums[:2])]
            monkeypatch.setattr(heckeops, "symmetrizer_stabilized",
                                lambda *args, **kwargs: replay.pop(0))
            r = verify.verify_symmetrizer_properties(spec, labels, depth)
            assert (r.verdict, r.params["property"]) == (verify.FAIL, where)
            assert r.witness["lhs"] != r.witness["rhs"]


@pytest.mark.parametrize("text, labels, depth", [("A1!", (0, 1), 6),
                                                 ("A2!", (0, 0, 1), 5),
                                                 ("A3!", (0, 0, 0, 1), 4)])
def test_symmetrizer_window_reads_lie_within_the_internal_depth(
        text, labels, depth):
    """At each window point gamma and generator i, (i) reads P at gamma,
    gamma + a_i, s_i gamma and s_i(gamma - a_i) (displacements of
    s_i(L - .)), and only there.  With P computed four deeper than the
    check computes it, every nonzero read lies at height <= the internal
    depth, so the check's P holds every coefficient that (i) reads."""
    spec = RootSystemSpec.parse(text)
    n = spec.num_nodes
    cartan = rootdata.build_cartan(spec)
    window = depth - 3
    internal = 3 * window + max(labels) + 2
    deep, _, stabilized = heckeops.symmetrizer_stabilized(spec, labels,
                                                          internal + 4)
    assert stabilized
    nonzero = set()
    for gamma in vseries.nonneg_vectors_up_to(n, window):
        for i in range(1, n + 1):
            unit = tuple(int(j == i - 1) for j in range(n))
            down = tuple(g - u for g, u in zip(gamma, unit))
            expected = [gamma, tuple(g + u for g, u in zip(gamma, unit)),
                        weyl.reflect(cartan, labels, gamma, i),
                        weyl.reflect(cartan, labels, down, i)]
            reads = []

            def read(beta, default):
                reads.append(beta)
                return deep.terms.get(beta, default)

            verify._property_i(cartan, deep.anchor, read, i, gamma)
            assert reads == expected
            nonzero.update(b for b in reads if deep.terms.get(b))
    assert nonzero
    assert max(map(vseries.ht, nonzero)) <= internal


def test_symmetrizer_window_reads_reach_height_ten_on_a1_affine():
    """The internal depth cannot fall to 6 at window 3 on A1! (0,1): P is
    -v^-3 + v^-2 at (3, 7), of height 10, and (i) reads it at gamma =
    (3, 0) for generator 2, as s_2 gamma."""
    deep, _, _ = heckeops.symmetrizer_stabilized(A1A, (0, 1), 16)
    assert deep.terms[(3, 7)] == VPoly({-3: -1, -2: 1})
    reads = []
    verify._property_i(rootdata.build_cartan(A1A), deep.anchor,
                       lambda beta, default: reads.append(beta) or default,
                       2, (3, 0))
    assert (3, 7) in reads


@functools.lru_cache(maxsize=None)
def _symmetrizer_sum(text, labels, window):
    """P to the symmetrizer check's internal depth at the window."""
    spec = RootSystemSpec.parse(text)
    p, _, stabilized = heckeops.symmetrizer_stabilized(
        spec, labels, 3 * window + max(labels) + 2)
    assert stabilized
    return p


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([("A1!", (0, 1), 3), ("A2!", (0, 0, 1), 2),
                                   ("A2", (1, 1), 2)]))
def test_property_i_at_window_points_matches_the_map_route(data, case):
    """The check's (i), four reads of P per window point, finds the first
    difference that the map-based comparison finds on a P perturbed at
    drawn positions: the T_i numerator map (verify._t_numerator), the
    right side v^-1 (1 - e^{a_i}) P by times_factors, and the first
    difference on the cone window over the sorted union of their keys."""
    text, labels, window = case
    p = _symmetrizer_sum(text, labels, window)
    n = p.spec.num_nodes
    cartan = rootdata.build_cartan(p.spec)
    terms = dict(p.terms)
    coords = st.integers(0, p.depth)
    for beta in data.draw(st.lists(st.tuples(*[coords] * n).filter(
            lambda b: vseries.ht(b) <= p.depth), max_size=3)):
        terms[beta] = terms.get(beta, VP_ZERO) + data.draw(st.sampled_from(
            [VP_ONE, VINV, VPoly({0: -1, -2: 2})]))
    terms = {b: cf for b, cf in terms.items() if cf}
    i = data.draw(st.integers(1, n))
    alpha = tuple(-1 if j == i - 1 else 0 for j in range(n))
    by_maps = _cone_window_diff(
        verify._t_numerator(cartan, p.anchor, terms, i),
        vseries.times_factors({b: cf * VINV for b, cf in terms.items()},
                              [(alpha, VP_ONE, 1)], None), window)
    at_points = verify._first_difference_at(
        sorted(vseries.nonneg_vectors_up_to(n, window)),
        lambda gamma: verify._property_i(cartan, p.anchor, terms.get, i,
                                         gamma))
    assert at_points == by_maps


def test_denominator_identity_report():
    assert verify.verify_denominator_identity(A1A, 5).passed


def test_hecke_relations_refuses_an_empty_run():
    for count in (0, -5):
        with pytest.raises(verify.VerifyError):
            verify.verify_hecke_relations(A2, count=count)
