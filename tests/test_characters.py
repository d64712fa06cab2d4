"""Unit tests for characters, denominators, and the golden files."""
import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dlhecke import characters, rootdata, weyl
from dlhecke.characters import CharacterError
from dlhecke.rootdata import RootSystemSpec
from dlhecke.vseries import (AnchoredSeries, VPoly, VP_ONE, VINV, ht,
                             mul_maps, times_factors)
from series_json import series_from_json
from weyl_action import act_on_series

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

A1 = RootSystemSpec.parse("A1")
A2 = RootSystemSpec.parse("A2")
A1A = RootSystemSpec.parse("A1!")
A2A = RootSystemSpec.parse("A2!")
E6 = RootSystemSpec.parse("E6")


def test_denominator_a1_affine_low_terms():
    d = characters.denominator(A1A, 2, deformed=True)
    assert d.coefficient((0, 0)) == VP_ONE
    assert d.coefficient((1, 0)) == -VINV
    assert d.coefficient((0, 1)) == -VINV
    # cross term v^-2 from the two simple coroots, minus v^-1 from the
    # imaginary coroot factor
    assert d.coefficient((1, 1)) == VPoly({-2: 1, -1: -1})


def test_plain_denominator_a1_affine():
    # at v = 1 the real cross term and the imaginary factor cancel at c
    d = characters.denominator(A1A, 2, deformed=False)
    assert d.coefficient((1, 1)) == VPoly()


def test_inverse_denominator_inverts():
    one = {(0, 0): VP_ONE}
    for deformed, u in ((False, VP_ONE), (True, VINV)):
        d = characters.denominator(A1A, 5, deformed=deformed)
        inv = times_factors(
            one, characters.denominator_factors(A1A, 5, u, -1), 5)
        assert mul_maps(d.terms, inv, 5) == one
        assert times_factors(
            d.terms, characters.denominator_factors(A1A, 5, u, -1), 5) == one


def test_m_factor_a1_affine_example():
    m = characters.m_factor(A1A, 4)
    assert m.coefficient((0, 0)) == VP_ONE
    assert m.coefficient((1, 1)) == VPoly({-1: 1, -2: -1})   # v^-1 - v^-2
    assert m.coefficient((1, 0)) == VPoly()
    # support sits on multiples of c
    assert all(b[0] == b[1] for b in m.terms)


def test_m_factor_rejects_finite():
    with pytest.raises(CharacterError):
        characters.m_factor(A2, 4)


def test_character_depth2_basic_affine_a1():
    chi = characters.weyl_kac_character(A1A, (0, 1), 2)
    assert {b: c for b, c in chi.terms.items()} == {
        (0, 0): VP_ONE, (0, 1): VP_ONE, (1, 1): VP_ONE}


def test_finite_character_a2_adjoint():
    chi = characters.finite_character_exact(A2, (1, 1))
    # 8-dimensional: six weight-1 coefficients and a double zero weight
    assert chi.coefficient((1, 1)) == VPoly(2)
    total = sum(c.evaluate(1) for c in chi.terms.values())
    assert total == 8


def test_finite_character_weyl_dimension_a1():
    chi = characters.finite_character_exact(A1, (3,))
    assert sorted(chi.terms) == [(0,), (1,), (2,), (3,)]
    assert all(c == VP_ONE for c in chi.terms.values())


def test_character_requires_dominant_labels():
    with pytest.raises(CharacterError):
        characters.character_numerator(A1A, (-1, 2), 3)


def test_denominator_identity_affine():
    for spec, depth in ((A1A, 8), (A2A, 6)):
        num = characters.character_numerator(spec, (0,) * spec.num_nodes,
                                             depth)
        den = characters.denominator(spec, depth, deformed=False)
        assert num.first_difference(den) is None


def test_wtwist_denominator_identities():
    for i in (1, 2):
        assert characters.denominator_wtwist_difference(A1A, i, 5) is None


def test_gk_delta_leading_terms():
    delta = times_factors({(0,): VP_ONE},
                          characters.denominator_factors(A1, 4, VINV, 1)
                          + characters.denominator_factors(A1, 4, VP_ONE, -1),
                          4)
    # (1 - v^-1 e^{-a}) / (1 - e^{-a}): every depth >= 1 coefficient 1 - v^-1
    assert delta == {(0,): VP_ONE, **{(j,): 1 - VINV for j in range(1, 5)}}


def test_factor_lists_cover_the_coroots_and_the_imaginary_axis():
    assert sorted(characters.denominator_factors(A1A, 2, VINV, -1)) == [
        ((0, 1), VINV, -1), ((1, 0), VINV, -1), ((1, 1), VINV, -1)]
    # one exponent m = 1 on A1!: (1 - v^-2 e^{-jc}) / (1 - v^-1 e^{-jc})
    assert characters.m_factors(A1A, 4) == [
        ((j, j), VPoly.term(1, -k), p)
        for j in (1, 2) for k, p in ((2, 1), (1, -1))]


def test_character_matches_goldens_all_depths():
    """The factor pass's division by the denominator reproduces the
    coefficient-recursion oracle that generated the goldens."""
    for depth in (2, 4, 6, 8):
        data = json.loads(
            (GOLDEN / f"character_A1aff_0_1_depth{depth}.json").read_text())
        golden = series_from_json(data)
        live = characters.weyl_kac_character(A1A, (0, 1), depth)
        assert live.first_difference(golden) is None


def _w0_height(spec, labels):
    """ht(Lambda - w0 Lambda): the depth at which the truncated Weyl-Kac
    product holds the whole finite character."""
    w0 = weyl.enumerate_layers(spec, 10 ** 9)[-1][0]
    image = act_on_series(spec, w0.word,
                          AnchoredSeries.monomial(spec, labels))
    (beta,) = image.terms
    return ht(beta)


@pytest.mark.parametrize("text, labels", [
    ("A1", (3,)), ("A2", (2, 1)), ("A3", (1, 0, 1)), ("D4", (0, 1, 0, 0)),
    ("A4", (1, 0, 0, 1))])
def test_finite_character_matches_truncated_weyl_kac(text, labels):
    spec = RootSystemSpec.parse(text)
    exact = characters.finite_character_exact(spec, labels)
    truncated = characters.weyl_kac_character(
        spec, labels, _w0_height(spec, labels)).as_exact()
    assert exact == truncated


def _weyl_dimension(spec, labels):
    """prod_{a > 0} <a, Lambda + rho> / <a, rho> (simply-laced: a root and
    its coroot have the same coordinates)."""
    dim = Fraction(1)
    for cr in rootdata.positive_coroots_up_to(spec, None):
        dim *= Fraction(sum(c * (x + 1) for c, x in zip(cr.coords, labels)),
                        cr.height)
    return dim


@st.composite
def dominant_labels(draw):
    spec = draw(st.sampled_from(
        [RootSystemSpec.parse(t) for t in ("A2", "A3", "A4", "D4")]))
    top = 2 if spec.num_nodes <= 3 else 1
    labels = draw(st.tuples(*[st.integers(0, top)] * spec.num_nodes))
    return spec, labels


@settings(max_examples=25, deadline=None)
@given(dominant_labels())
def test_finite_character_dimension_is_weyls(case):
    spec, labels = case
    chi = characters.finite_character_exact(spec, labels)
    assert sum(c.evaluate(1) for c in chi.terms.values()) == \
        _weyl_dimension(spec, labels)


@pytest.mark.parametrize("text, labels", [
    ("A3", (0, 0, 0)), ("A3", (1, 0, 2)), ("A3", (2, 1, 1)),
    ("D4", (0, 0, 0, 0)), ("D4", (1, 0, 1, 0)), ("D4", (0, 2, 0, 1))])
def test_signed_orbit_pruning_keeps_every_shallow_element(text, labels):
    """Pruning the BFS by height drops no element at ht <= depth: each
    length-increasing step raises the height, so every kept element is
    reached through kept ones."""
    spec = RootSystemSpec.parse(text)
    # no displacement of the orbit of labels + rho is higher than the w0 one
    full = characters._signed_orbit(
        spec, labels, _w0_height(spec, tuple(x + 1 for x in labels)))
    assert len(full) == {"A3": 24, "D4": 192}[text]
    for depth in (0, 1, 3, 6, 10):
        pruned = characters._signed_orbit(spec, labels, depth)
        assert pruned == {b: sign for b, sign in full.items()
                          if ht(b) <= depth}


@pytest.mark.parametrize("labels, dim", [((1, 0, 0, 0, 0, 0), 27),
                                         ((0, 1, 0, 0, 0, 0), 78)])
def test_e6_characters_by_the_demazure_chain(labels, dim):
    chi = characters.finite_character_exact(E6, labels)
    assert sum(c.evaluate(1) for c in chi.terms.values()) == dim == \
        _weyl_dimension(E6, labels)
    cartan = rootdata.build_cartan(E6)
    for i in range(1, 7):
        assert weyl.reflect_terms(cartan, labels, chi.terms, i) == chi.terms


@settings(max_examples=20, deadline=None)
@given(dominant_labels().filter(lambda case: _w0_height(*case) <= 12))
def test_demazure_chain_matches_the_undivided_routes(case):
    """The Demazure chain against two routes that divide nothing: the
    truncated Weyl-Kac character (the numerator divided by the plain
    denominator's factors) at the w0 height, and
    chi * prod_{a > 0} (1 - e^{-a}) = the Weyl numerator, both exact."""
    spec, labels = case
    chi = characters.finite_character_exact(spec, labels)
    assert chi == characters.weyl_kac_character(
        spec, labels, _w0_height(spec, labels)).as_exact()
    zero = (0,) * spec.num_nodes
    product = chi
    for cr in rootdata.positive_coroots_up_to(spec, None):
        product = product * AnchoredSeries(spec, zero,
                                           {zero: 1, cr.coords: -1})
    numerator = characters.character_numerator(
        spec, labels, _w0_height(spec, tuple(x + 1 for x in labels)))
    assert product == numerator.as_exact()
