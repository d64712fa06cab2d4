"""Unit tests for root-system specs, Cartan matrices, and coroot catalogues."""
from fractions import Fraction
from math import factorial, prod

import pytest

from dlhecke import rootdata, weyl
from dlhecke.rootdata import RootDataError, RootSystemSpec


def test_parse_and_str():
    assert str(RootSystemSpec.parse("A2")) == "A2"
    assert str(RootSystemSpec.parse("D4!")) == "D4!"
    assert RootSystemSpec.parse("A1!").affine


def test_d3_canonicalizes_to_a3():
    assert str(RootSystemSpec.parse("D3")) == "A3"


def test_invalid_specs_rejected():
    for bad in ("B2", "A0", "D2", "E9", "A", "2A"):
        with pytest.raises(RootDataError):
            RootSystemSpec.parse(bad)


def test_num_nodes_and_finite():
    s = RootSystemSpec.parse("A2!")
    assert s.num_nodes == 3
    assert str(s.finite) == "A2"
    assert RootSystemSpec.parse("D4").num_nodes == 4


def test_cartan_a2():
    assert rootdata.build_cartan(RootSystemSpec.parse("A2")) == \
        ((2, -1), (-1, 2))


def test_cartan_a1_affine_has_double_bond():
    assert rootdata.build_cartan(RootSystemSpec.parse("A1!")) == \
        ((2, -2), (-2, 2))


def test_cartan_a2_affine_is_cycle():
    assert rootdata.build_cartan(RootSystemSpec.parse("A2!")) == \
        ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))


def test_cartan_d4_affine_attaches_to_branch_node():
    c = rootdata.build_cartan(RootSystemSpec.parse("D4!"))
    # the affine node pairs with the trivalent node (Bourbaki node 2) only
    assert c[4][:4] == (0, -1, 0, 0)
    assert c[4][4] == 2


def test_highest_root():
    assert rootdata.highest_root(RootSystemSpec.parse("A2")).coords == (1, 1)
    assert rootdata.highest_root(RootSystemSpec.parse("D4")).coords == \
        (1, 2, 1, 1)


def test_minimal_imaginary_coroot():
    assert rootdata.minimal_imaginary_coroot(
        RootSystemSpec.parse("A1!")).coords == (1, 1)
    assert rootdata.minimal_imaginary_coroot(
        RootSystemSpec.parse("A2!")).coords == (1, 1, 1)


def test_finite_positive_coroot_count():
    # |R_+| = n(n+1)/2 for An, 12 for D4
    assert len(rootdata.positive_coroots_up_to(
        RootSystemSpec.parse("A3"), None)) == 6
    assert len(rootdata.positive_coroots_up_to(
        RootSystemSpec.parse("D4"), None)) == 12


def test_affine_catalogue_heights_and_multiplicities():
    spec = RootSystemSpec.parse("A1!")
    roots = rootdata.positive_coroots_up_to(spec, 4)
    by_coords = {r.coords: r for r in roots}
    assert by_coords[(1, 0)].multiplicity == 1
    assert by_coords[(1, 1)].kind == "imaginary"
    assert by_coords[(1, 1)].multiplicity == 1    # rank of the finite system
    assert by_coords[(2, 2)].multiplicity == 1
    assert (2, 1) in by_coords and (1, 2) in by_coords
    assert all(sum(r.coords) <= 4 for r in roots)


def test_a2_affine_imaginary_multiplicity_is_two():
    spec = RootSystemSpec.parse("A2!")
    roots = rootdata.positive_coroots_up_to(spec, 3)
    jc = {r.coords: r for r in roots}[(1, 1, 1)]
    assert jc.kind == "imaginary" and jc.multiplicity == 2


def test_exponents():
    assert rootdata.exponents(RootSystemSpec.parse("A1")) == (1,)
    assert rootdata.exponents(RootSystemSpec.parse("A2")) == (1, 2)
    assert rootdata.exponents(RootSystemSpec.parse("A3")) == (1, 2, 3)
    assert rootdata.exponents(RootSystemSpec.parse("D4")) == (1, 3, 3, 5)


def test_spec_hash_stable_and_distinct():
    h1 = rootdata.spec_hash(RootSystemSpec.parse("A2"))
    h2 = rootdata.spec_hash(RootSystemSpec.parse("A2"))
    h3 = rootdata.spec_hash(RootSystemSpec.parse("A2!"))
    assert h1 == h2 != h3


# Facts from the classification (Bourbaki, Lie Groups and Lie Algebras,
# ch. VI, plates I-VII), not from this code: |W|, the number of positive
# roots and det(Cartan) of every finite type in the catalogue test.
CATALOGUE = {
    **{f"A{l}": (factorial(l + 1), l * (l + 1) // 2, l + 1)
       for l in range(1, 9)},
    **{f"D{l}": (2 ** (l - 1) * factorial(l), l * (l - 1), 4)
       for l in range(4, 9)},
    "E6": (51840, 36, 3),
    "E7": (2903040, 63, 2),
    "E8": (696729600, 120, 1),
}
ENUMERATE_UP_TO = 5040


def _det(matrix):
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _poincare(exps):
    """Coefficients of prod_i (1 + q + ... + q^{m_i})."""
    coeffs = [1]
    for m in exps:
        out = [0] * (len(coeffs) + m)
        for d, x in enumerate(coeffs):
            for e in range(m + 1):
                out[d + e] += x
        coeffs = out
    return coeffs


@pytest.mark.parametrize("text", sorted(CATALOGUE))
def test_finite_catalogue_against_classification(text):
    spec = RootSystemSpec.parse(text)
    order, positive, det = CATALOGUE[text]
    exps = rootdata.exponents(spec)
    assert len(exps) == spec.rank
    assert prod(m + 1 for m in exps) == order
    assert sum(exps) == positive == len(
        rootdata.positive_coroots_up_to(spec, None))
    assert _det(rootdata.build_cartan(spec)) == det
    if order <= ENUMERATE_UP_TO:
        # the length generating function of W is prod_i [m_i + 1]_q
        sizes = [1] + [len(layer) for layer in weyl.orbit_layers(
            rootdata.build_cartan(spec), (1,) * spec.rank)]
        assert sum(sizes) == order
        assert sizes == _poincare(exps)


@pytest.mark.parametrize("text", sorted(CATALOGUE))
def test_no_height_bound_is_every_positive_coroot(text):
    # None is the one unbounded height; a huge bound gives the same list
    spec = RootSystemSpec.parse(text)
    assert rootdata.positive_coroots_up_to(spec, None) == \
        rootdata.positive_coroots_up_to(spec, 10 ** 9)
    with pytest.raises(RootDataError, match="infinitely many"):
        rootdata.positive_coroots_up_to(RootSystemSpec.parse(text + "!"),
                                        None)


@pytest.mark.parametrize("text", sorted(CATALOGUE))
def test_affine_catalogue_null_vector(text):
    spec = RootSystemSpec.parse(text + "!")
    cartan = rootdata.build_cartan(spec)
    c = rootdata.minimal_imaginary_coroot(spec).coords
    assert all(sum(a * x for a, x in zip(row, c)) == 0 for row in cartan)
    assert _det(cartan) == 0
    l = spec.rank
    assert tuple(row[:l] for row in cartan[:l]) == \
        rootdata.build_cartan(spec.finite)


def test_e_exponents():
    assert rootdata.exponents(RootSystemSpec.parse("E6")) == \
        (1, 4, 5, 7, 8, 11)
    assert rootdata.exponents(RootSystemSpec.parse("E7")) == \
        (1, 5, 7, 9, 11, 13, 17)
    assert rootdata.exponents(RootSystemSpec.parse("E8")) == \
        (1, 7, 11, 13, 17, 19, 23, 29)


def test_highest_root_needs_a_finite_spec():
    with pytest.raises(RootDataError):
        rootdata.highest_root(RootSystemSpec.parse("A2!"))
