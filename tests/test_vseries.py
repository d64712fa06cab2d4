"""Unit tests for VPoly and AnchoredSeries arithmetic."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dlhecke import rootdata
from dlhecke.rootdata import RootSystemSpec
from dlhecke.vseries import (AnchoredSeries, PackedSeries, SeriesError,
                             VPoly, VP_ONE, VP_ZERO, V, VINV, _divide_strings,
                             add_maps, divide_exact, ht, mul_maps,
                             times_factors)
from series_json import series_from_json, vpoly_from_pairs

A2 = RootSystemSpec.parse("A2")
A1A = RootSystemSpec.parse("A1!")


def test_vpoly_basic_arithmetic():
    p = VPoly({0: 1, -1: -1})          # 1 - v^-1
    q = VPoly({1: 2})                  # 2v
    assert p + q == VPoly({0: 1, -1: -1, 1: 2})
    assert p - p == VP_ZERO
    assert not VP_ZERO
    assert p * q == VPoly({1: 2, 0: -2})
    assert -q == VPoly({1: -2})
    assert 1 - VINV == VPoly({0: 1, -1: -1})


def test_vpoly_term_and_degrees():
    t = VPoly.term(3, -2)
    assert t == VPoly({-2: 3})
    assert t.pairs() == [(-2, 3)]
    assert VPoly({-2: 1, 1: 5}).pairs() == [(-2, 1), (1, 5)]


def test_vpoly_evaluate_exact_rational():
    p = (1 - VINV) * (1 - VINV)        # 1 - 2v^-1 + v^-2
    assert p.evaluate(Fraction(2)) == Fraction(1, 4)
    assert p.evaluate(Fraction(1, 3)) == Fraction(4)


def test_vpoly_v_inverse_ring_predicate():
    assert (1 - VINV).in_v_inverse_ring()
    assert not V.in_v_inverse_ring()
    assert VP_ZERO.in_v_inverse_ring()


def test_vpoly_pairs_roundtrip():
    p = VPoly({-3: 4, 0: -1})
    assert vpoly_from_pairs(p.pairs()) == p


def test_ht():
    assert ht((2, 0, 1)) == 3
    assert ht((-1, 1)) == 0


def test_monomial_and_coefficient():
    s = AnchoredSeries.monomial(A2, (1, 0))
    assert s.exact
    assert s.coefficient((0, 0)) == VP_ONE
    assert s.coefficient((1, 2)) == VP_ZERO


def test_addition_requires_same_anchor():
    a = AnchoredSeries.monomial(A2, (1, 0))
    b = AnchoredSeries.monomial(A2, (0, 1))
    with pytest.raises(SeriesError):
        _ = a + b


def test_multiplication_adds_anchors():
    a = AnchoredSeries.monomial(A2, (1, 0), beta=(1, 0))
    b = AnchoredSeries.monomial(A2, (0, 1), beta=(0, 2))
    p = a * b
    assert p.anchor == (1, 1)
    assert p.coefficient((1, 2)) == VP_ONE


def test_truncation_depth_tracking():
    one = AnchoredSeries.one(A2, 2)
    t = one.truncate(3)
    assert not t.exact and t.depth == 3
    deep = AnchoredSeries.monomial(A2, (0, 0), beta=(2, 2))
    assert (t * deep.truncate(5)).depth == 3


def test_negative_beta_requires_exact():
    s = AnchoredSeries(A2, (0, 0), {(-1, 0): VP_ONE})
    assert s.coefficient((-1, 0)) == VP_ONE
    with pytest.raises(SeriesError):
        AnchoredSeries(A2, (0, 0), {(-1, 0): VP_ONE}, depth=4)


def test_first_difference_and_eq_up_to_depth():
    a = AnchoredSeries.one(A1A, 2).truncate(4)
    b = a + AnchoredSeries.monomial(A1A, (0, 0), beta=(1, 1)).truncate(4)
    diff = a.first_difference(b)
    assert diff is not None and diff[0] == (1, 1)
    assert a.eq_up_to_depth(b, up_to=1)
    assert not a.eq_up_to_depth(b, up_to=2)


def test_shifted_moves_support():
    s = AnchoredSeries.monomial(A2, (2, 0), beta=(1, 1))
    moved = s.shifted((1, 0))
    assert moved.coefficient((2, 1)) == VP_ONE


def test_evaluate_v_maps_betas_to_rationals():
    s = AnchoredSeries(A2, (0, 0), {(0, 0): 1 - VINV})
    vals = s.evaluate_v(Fraction(2))
    assert vals == {(0, 0): Fraction(1, 2)}


def test_exact_is_depth_none():
    s = AnchoredSeries.monomial(A2, (1, 0))
    t = s.truncate(3)
    assert s.exact and s.depth is None
    assert not t.exact and t.depth == 3
    assert not (s * t).exact and (s + t).depth == 3
    assert t.as_exact().exact and t.as_exact().depth is None
    with pytest.raises(AttributeError):
        s.exact = False


def test_json_record_with_disagreeing_exact_flag_is_refused():
    for s, flag in ((AnchoredSeries.monomial(A2, (1, 0)), False),
                    (AnchoredSeries.monomial(A2, (1, 0)).truncate(3), True)):
        record = s.to_json_dict()
        assert series_from_json(record) == s
        record["exact"] = flag
        with pytest.raises(SeriesError, match="disagrees with its depth"):
            series_from_json(record)


def test_json_roundtrip():
    s = AnchoredSeries(A1A, (0, 1), {(0, 0): VP_ONE, (1, 1): 1 - VINV},
                       depth=3)
    back = series_from_json(s.to_json_dict())
    assert back.first_difference(s) is None
    assert back.anchor == s.anchor and back.depth == s.depth


def test_geometric_inverse_is_inverse():
    # power -1 is the geometric series sum_j v^-j e^{-j(1,1)} to the depth
    one = {(0, 0): VP_ONE}
    inv = times_factors(one, [((1, 1), VINV, -1)], 6)
    assert inv == {(j, j): VPoly.term(1, -j) for j in range(4)}
    factor = {(0, 0): VP_ONE, (1, 1): -VINV}
    assert mul_maps(inv, factor, 6) == one
    assert times_factors(inv, [((1, 1), VINV, 1)], 6) == one


# -- the factor pass -------------------------------------------------------

def _geometric(beta, u, depth):
    """1/(1 - u e^{-beta}) as the dense truncated series
    sum_j u^j e^{-j beta}."""
    out, power, j = {}, VP_ONE, 0
    while j * ht(beta) <= depth:
        out[tuple(j * b for b in beta)] = power
        power, j = power * u, j + 1
    return out


def _factors_by_products(terms, factors, depth):
    """times_factors by the general product: each power of a factor is a
    binomial {0: 1, beta: -u} or a truncated geometric series, multiplied
    in by mul_maps."""
    out = {b: c for b, c in terms.items() if ht(b) <= depth}
    for beta, u, power in factors:
        series = ({(0,) * len(beta): VP_ONE, beta: -u} if power > 0
                  else _geometric(beta, u, depth))
        for _ in range(abs(power)):
            out = mul_maps(out, series, depth)
    return out


# on A1!, c = (1, 1): simple, real non-simple and imaginary (j c) coroots
FACTOR_BETAS = ((1, 0), (0, 1), (1, 2), (2, 1), (1, 1), (2, 2), (3, 3))
FACTOR_US = (VP_ONE, VINV, VPoly.term(1, -2), VPoly.term(1, -3))


@st.composite
def factor_problems(draw):
    """(terms, factors, depth): a truncated rank-2 term map and up to four
    factors with powers -2..2."""
    depth = draw(st.integers(0, 6))
    coeffs = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                             max_size=3).map(VPoly)
    betas = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
        lambda b: ht(b) <= depth)
    terms = draw(st.dictionaries(betas, coeffs, max_size=6))
    factors = draw(st.lists(st.tuples(st.sampled_from(FACTOR_BETAS),
                                      st.sampled_from(FACTOR_US),
                                      st.integers(-2, 2)), max_size=4))
    return {b: c for b, c in terms.items() if c}, factors, depth


@settings(max_examples=200, deadline=None)
@given(factor_problems())
def test_times_factors_matches_the_general_product(problem):
    terms, factors, depth = problem
    assert (times_factors(terms, factors, depth)
            == _factors_by_products(terms, factors, depth))


@settings(max_examples=100, deadline=None)
@given(factor_problems())
def test_times_factors_power_one_then_minus_one_is_identity(problem):
    terms, factors, depth = problem
    for beta, u, _ in factors:
        there = times_factors(terms, [(beta, u, 1)], depth)
        assert times_factors(there, [(beta, u, -1)], depth) == terms


def test_times_factors_skips_deep_factors_and_drops_deep_terms():
    terms = {(0, 0): VP_ONE, (1, 1): VINV, (2, 2): V}
    assert times_factors(terms, [((2, 1), VINV, -1), ((3, 0), V, 2)], 2) \
        == {(0, 0): VP_ONE, (1, 1): VINV}
    # a one-term map times a factor keeps VPoly coefficients throughout
    out = times_factors({(0, 0): VP_ONE}, [((1, 0), VP_ONE, 1)], None)
    assert all(isinstance(c, VPoly) for c in out.values())


def test_times_factors_refuses_a_division_it_cannot_truncate():
    with pytest.raises(SeriesError, match="finite depth"):
        times_factors({(0, 0): VP_ONE}, [((1, 0), VINV, -1)], None)
    with pytest.raises(SeriesError, match="ht"):
        times_factors({(0, 0): VP_ONE}, [((-1, 0), VP_ONE, -1)], 3)


@st.composite
def exact_factor_problems(draw):
    """(terms, factors): an exact rank-2 term map, displacements of either
    sign, and up to three factors with powers -1..2 (a negative power has
    no depth to stop at)."""
    coeffs = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                             max_size=3).map(VPoly)
    betas = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    terms = draw(st.dictionaries(betas, coeffs, max_size=5))
    factors = draw(st.lists(st.tuples(st.sampled_from(FACTOR_BETAS),
                                      st.sampled_from(FACTOR_US),
                                      st.integers(-1, 2)), max_size=3))
    return {b: c for b, c in terms.items() if c}, factors


@settings(max_examples=200, deadline=None)
@given(factor_problems(), st.sampled_from([(0, 1), (3, -2)]),
       st.integers(1, 64))
def test_packed_series_times_factors_matches_the_vpoly_route(problem, anchor,
                                                             width):
    """PackedSeries.times_factors, from a packing at any starting width,
    runs the factor pass on ints and widens by width_for; term for term it
    is the pass on VPolys, and so is AnchoredSeries.times_factors, which
    packs its terms once and calls it."""
    terms, factors, depth = problem
    want = times_factors(terms, factors, depth)
    p = PackedSeries.pack(anchor, terms, -1, width)
    out = p.times_factors(factors, depth)
    assert (out.anchor, out.low, out.var) == (p.anchor, p.low, p.var)
    assert out.width >= p.width and out.unpack() == want
    s = AnchoredSeries(A1A, anchor, terms, depth=depth)
    out = s.times_factors(factors)
    assert (out.anchor, out.depth) == (s.anchor, depth)
    assert out.terms == want


@settings(max_examples=100, deadline=None)
@given(exact_factor_problems())
def test_packed_series_times_factors_on_exact_series(problem):
    """An exact series multiplies packed as the VPoly route does, and a
    division, which has no depth to stop at, keeps its SeriesError."""
    terms, factors = problem
    s = AnchoredSeries(A1A, (0, 1), terms)
    if any(power < 0 for _, _, power in factors):
        with pytest.raises(SeriesError, match="finite depth"):
            s.times_factors(factors)
    else:
        assert s.times_factors(factors).terms == times_factors(
            terms, factors, None)


def test_packed_series_times_factors_widens_for_its_divisions():
    """Repeated divisions grow the coefficients far past those of the
    input (1 and v^-1 here): the packed width must come from the bound
    of every factor, not from the input alone."""
    s = AnchoredSeries(A1A, (0, 1), {(0, 0): VP_ONE, (1, 1): VINV}, depth=14)
    factors = [((1, 0), VP_ONE, -4), ((0, 1), VINV, -3), ((1, 1), VINV, -2),
               ((1, 0), VPoly.term(1, -2), 1)]
    out = s.times_factors(factors).terms
    assert out == times_factors(s.terms, factors, 14)
    assert max(abs(n) for cf in out.values() for n in cf.c.values()) > 1000


@pytest.mark.parametrize("us", [(V, VINV), (VPoly({0: 2, -1: 3}), VP_ONE)])
def test_packed_series_times_factors_on_other_factors(us):
    """A list with a u outside Z[v^-1], which would pack to a negative
    shift, raises SeriesError; a u that is no monomial widens the packed
    bound by the sum of its |coefficients|, and matches the pass on
    VPolys."""
    terms = {(0, 0): VPoly({0: 3, -2: -1}), (1, 0): VINV, (0, 2): V}
    factors = [((1, 0), us[0], 2), ((1, 1), us[1], -2), ((0, 1), us[1], 1)]
    s = AnchoredSeries(A1A, (0, 1), terms, depth=5)
    if us[0] == V:
        with pytest.raises(SeriesError, match=r"no polynomial in v\^-1"):
            s.times_factors(factors)
    else:
        assert s.times_factors(factors).terms == times_factors(terms,
                                                               factors, 5)


def test_raw_map_helpers():
    t1 = {(0, 0): VP_ONE, (1, 0): -VP_ONE}
    t2 = {(0, 0): VP_ONE, (1, 0): VP_ONE}
    assert mul_maps(t1, t2, None) == {(0, 0): VP_ONE, (2, 0): -VP_ONE}
    assert add_maps(t1, t2) == {(0, 0): VPoly(2)}


# -- the one general product -------------------------------------------------

def _parent_mul_maps(t1, t2, depth):
    """mul_maps before the smaller map ran outside and unit coefficients
    were shared, kept as its oracle."""
    out = {}
    for b1, c1 in t1.items():
        for b2, c2 in t2.items():
            beta = tuple(x + y for x, y in zip(b1, b2))
            if depth is not None and ht(beta) > depth:
                continue
            prev = out.get(beta)
            if prev is None:
                out[beta] = c1 * c2
            else:
                s = prev + c1 * c2
                if s:
                    out[beta] = s
                else:
                    del out[beta]
    return out


@st.composite
def product_problems(draw, big=False):
    """(t1, t2, depth): two term maps of one rank, 1 to 5, and independent
    sizes, so that either may be the smaller, whose coefficients are often
    the units +-1 or +-(1 - v^-1), so that products share and cancel;
    depth None or 0..6.  Above rank 2 the coordinates stay in 0..1, so
    that keys still meet.  With big, the other coefficients reach 2^80."""
    top = 2 ** 80 if big else 3
    polys = st.dictionaries(st.integers(-4, 4), st.integers(-top, top),
                            max_size=3).map(VPoly)
    coeffs = st.sampled_from([VP_ONE, -VP_ONE, 1 - VINV, VINV - 1]) | polys
    rank = draw(st.integers(1, 5))
    betas = st.tuples(*[st.integers(0, 3 if rank <= 2 else 1)] * rank)
    t1, t2 = (draw(st.dictionaries(betas, coeffs, max_size=size))
              for size in (3, 7))
    if draw(st.booleans()):
        t1, t2 = t2, t1
    depth = draw(st.none() | st.integers(0, 6))
    return ({b: c for b, c in t1.items() if c},
            {b: c for b, c in t2.items() if c}, depth)


def _snapshot(*maps):
    """Each map's coefficient objects and their contents, to see that
    nothing was mutated in place."""
    return [[(b, id(c), dict(c.c)) for b, c in t.items()] for t in maps]


# (1 + e^{-a} + e^{-b})(1 - e^{-a}): the e^{-a} terms cancel
CANCELLING = ({(0, 0): VP_ONE, (1, 0): VP_ONE, (0, 1): VP_ONE},
              {(0, 0): VP_ONE, (1, 0): -VP_ONE}, None)


@settings(max_examples=200, deadline=None)
@given(product_problems())
@example(CANCELLING)
@example((CANCELLING[1], CANCELLING[0], 1))
# the smaller map's first term is 1 at beta = 0: out starts as a copy of
# the other map within the depth
@example(({(0, 0): VP_ONE, (1, 0): -VINV},
          {(0, 0): VINV, (1, 1): V, (0, 3): VP_ONE, (2, 0): -VP_ONE}, 2))
# an empty map, either side, and keys of rank 1, a single key column
@example(({}, {(0, 1): V, (2, 0): VP_ONE}, None))
@example(({(1, 2, 0): -VINV}, {}, 3))
@example(({(0,): VP_ONE, (1,): -VP_ONE},
          {(0,): VP_ONE, (1,): VP_ONE, (3,): 1 - VINV}, None))
@example(({(1,): V, (2,): -VP_ONE}, {(0,): VINV, (1,): V, (4,): VP_ONE}, 3))
def test_mul_maps_matches_the_parent_loop(problem):
    t1, t2, depth = problem
    before = _snapshot(t1, t2)
    expected = _parent_mul_maps(t1, t2, depth)
    product = mul_maps(t1, t2, depth)
    assert product == expected
    assert mul_maps(t2, t1, depth) == expected
    # a shared unit coefficient does not leak mutation, either into the
    # inputs or back from later arithmetic on the product
    assert mul_maps(product, t1, depth) == _parent_mul_maps(expected, t1,
                                                            depth)
    assert add_maps(product, product) == add_maps(expected, expected)
    assert _snapshot(t1, t2) == before


def _packing_bound(t1, t2):
    """A bound on the v-coefficients of a product of t1 and t2: at most
    min(len) pairs meet at one beta, each a product of polynomials of at
    most 3 terms."""
    top1, top2 = (max((abs(n) for c in t.values() for n in c.c.values()),
                      default=0) for t in (t1, t2))
    return top1 * top2 * min(len(t1), len(t2)) * 3


@settings(max_examples=150, deadline=None)
@given(product_problems(big=True), st.sampled_from((1, -1)))
def test_mul_maps_on_packed_ints_matches_the_vpoly_product(problem, var):
    t1, t2, depth = problem
    before = _snapshot(t1, t2)
    bound = _packing_bound(t1, t2)
    width = max(PackedSeries.pack(None, t, var, bound.bit_length() + 1).width
                for t in (t1, t2))
    p1, p2 = (PackedSeries.pack(None, t, var, width) for t in (t1, t2))
    packed = (dict(p1.terms), dict(p2.terms))
    product = mul_maps(p1.terms, p2.terms, depth)
    assert (PackedSeries(None, product, width, bound, p1.low + p2.low,
                         var).unpack()
            == _parent_mul_maps(t1, t2, depth))
    assert (p1.terms, p2.terms) == packed and _snapshot(t1, t2) == before


# -- exact division along root strings ---------------------------------------

DIVISION_SPECS = [RootSystemSpec.parse(t) for t in ("A2", "A3", "D4", "A1!",
                                                    "A2!")]
BIG_SPECS = [RootSystemSpec.parse(t) for t in ("A2", "D4", "A1!", "A2!", "D4!")]


@st.composite
def division_problems(draw, big=False):
    """(alpha, Q): alpha = +- a simple coroot, the only directions
    divide_exact takes, and Q a random multi-term map with negative
    displacements allowed; with big, coefficients up to 2^80 and
    v-degrees up to 4 in absolute value."""
    spec = draw(st.sampled_from(BIG_SPECS if big else DIVISION_SPECS))
    n = spec.num_nodes
    pivot = draw(st.integers(0, n - 1))
    sign = draw(st.sampled_from((1, -1)))
    alpha = tuple(sign if j == pivot else 0 for j in range(n))
    betas = st.tuples(*[st.integers(-3, 3)] * n)
    top, degree = (2 ** 80, 4) if big else (3, 2)
    coeffs = st.dictionaries(st.integers(-degree, degree),
                             st.integers(-top, top), max_size=3).map(VPoly)
    q = draw(st.dictionaries(betas, coeffs, max_size=6))
    return alpha, {b: c for b, c in q.items() if c}


def _times_one_minus(alpha, q):
    """(1 - e^{-alpha}) * q as a raw term map."""
    zero = (0,) * len(alpha)
    return mul_maps({zero: VP_ONE, alpha: -VP_ONE}, q, None)


@settings(max_examples=150, deadline=None)
@given(division_problems())
def test_divide_exact_round_trips_from_both_ends(problem):
    alpha, q = problem
    num = _times_one_minus(alpha, q)
    assert divide_exact(num, alpha) == q
    assert divide_exact(num, alpha, from_deep=True) == q


@settings(max_examples=100, deadline=None)
@given(division_problems(), st.tuples(*[st.integers(-3, 3)] * 3))
def test_divide_exact_rejects_inexact_input(problem, offset):
    alpha, q = problem
    num = _times_one_minus(alpha, q)
    # one extra monomial changes the sum along its string, so that
    # string's remainder is nonzero
    beta = tuple(offset[j % 3] for j in range(len(alpha)))
    num[beta] = num.get(beta, VP_ZERO) + V
    for from_deep in (False, True):
        with pytest.raises(SeriesError):
            divide_exact(num, alpha, from_deep=from_deep)


@settings(max_examples=50, deadline=None)
@given(division_problems())
def test_accumulator_matches_map_arithmetic(problem):
    _, q = problem
    p = PackedSeries.pack((), q, 1)
    minus = PackedSeries((), {b: -x for b, x in p.terms.items()}, p.width,
                         p.bound, p.low, p.var)
    acc = PackedSeries((), {}, p.width, 0, p.low, p.var)
    acc.add(p)
    acc.add(minus)
    assert acc.unpack() == {}  # cancelled terms leave no zeros behind
    acc.add(p)
    acc.add(p)
    assert acc.unpack() == add_maps(q, q)


@settings(max_examples=100, deadline=None)
@given(division_problems(big=True), st.sampled_from((1, -1)),
       st.integers(1, 200))
def test_a_packed_map_repacked_wider_decodes_to_itself(problem, var, extra):
    _, q = problem
    p = PackedSeries.pack(None, q, var)
    wider = p.width + extra
    wide = PackedSeries(None, p.repacked(p.terms, wider), wider, p.bound,
                        p.low, var)
    assert p.unpack() == q and wide.unpack() == q


@settings(max_examples=100, deadline=None)
@given(product_problems(big=True), st.sampled_from((1, -1)),
       st.integers(1, 100), st.booleans())
def test_adding_series_of_two_widths_matches_map_arithmetic(problem, var,
                                                            extra, forced):
    # two maps packed together share low and width; the second is then
    # repacked wider.  forced declares each bound at the most its width
    # allows, so that their sum fits neither width and add must widen
    t1, t2, _ = problem
    joint = PackedSeries.pack(None, {**{(0,) + b: c for b, c in t1.items()},
                                     **{(1,) + b: c for b, c in t2.items()}},
                              var)
    narrow, wider = joint.width, joint.width + extra
    bounds = (((1 << (narrow - 1)) - 1, (1 << (wider - 1)) - 1) if forced
              else (joint.bound, joint.bound))
    parts = [{b[1:]: x for b, x in joint.terms.items() if b[0] == k}
             for k in (0, 1)]
    want = add_maps(t1, t2)
    for first in (0, 1):
        series = [PackedSeries(None, dict(parts[0]), narrow, bounds[0],
                               joint.low, var),
                  PackedSeries(None, joint.repacked(parts[1], wider), wider,
                               bounds[1], joint.low, var)]
        acc, other = series[first], series[1 - first]
        assert acc.add(other) == bool(other.terms)
        assert acc.unpack() == want
        if other.terms:
            assert acc.bound == sum(bounds)
            assert acc.width == (max(2 * wider, sum(bounds).bit_length() + 1)
                                 if forced else wider)


@st.composite
def comparison_problems(draw):
    """(t1, t2, zeros): two rank-2 term maps, equal, differing at one beta
    (where a term may be on one side only) or drawn apart, and per side a
    set of betas to hold zero ints, as an accumulator keeps them where
    values cancel."""
    t1, t2, _ = draw(product_problems(big=True))
    how = draw(st.sampled_from(("equal", "one beta", "apart")))
    betas = st.tuples(st.integers(0, 4), st.integers(0, 4))
    if how != "apart":
        t2 = dict(t1)
    if how == "one beta":
        beta = draw(st.sampled_from(sorted(t1)) | betas if t1 else betas)
        delta = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9),
                                min_size=1, max_size=2).map(VPoly).filter(bool)
        if beta in t1:
            delta = delta | st.just(-t1[beta])
        cf = t1.get(beta, VP_ZERO) + draw(delta)
        t2.pop(beta, None)
        if cf:
            t2[beta] = cf
    return t1, t2, [draw(st.sets(betas, max_size=3)) for _ in range(2)]


@settings(max_examples=300, deadline=None)
@given(comparison_problems(), st.sampled_from((1, -1)),
       st.tuples(st.integers(0, 90), st.integers(0, 90)), st.booleans())
def test_packed_comparison_is_the_first_difference_of_the_decoded_maps(
        problem, var, extras, loose):
    # the two maps are packed together, so that they share their low, and
    # then each is repacked at its own width; loose declares each bound at
    # the most its width allows
    t1, t2, zeros = problem
    anchor = (0, 0)
    joint = PackedSeries.pack(None, {**{(0,) + b: c for b, c in t1.items()},
                                     **{(1,) + b: c for b, c in t2.items()}},
                              var)
    sides = []
    for k in (0, 1):
        width = joint.width + extras[k]
        terms = joint.repacked({b[1:]: x for b, x in joint.terms.items()
                                if b[0] == k}, width)
        for beta in zeros[k]:
            terms.setdefault(beta, 0)
        bound = (1 << (width - 1)) - 1 if loose else joint.bound
        sides.append(PackedSeries(anchor, terms, width, bound, joint.low,
                                  var))
    decoded = [AnchoredSeries(A2, anchor, p.unpack()) for p in sides]
    for a, b in ((0, 1), (1, 0)):
        assert (sides[a].first_difference(sides[b])
                == decoded[a].first_difference(decoded[b]))


def test_packed_comparison_refuses_what_it_cannot_decide():
    p = PackedSeries.pack((1, 0), {(0, 0): VP_ONE, (1, 0): 1 - VINV}, -1)

    def like(**changes):
        fields = {name: getattr(p, name) for name in PackedSeries.__slots__}
        return PackedSeries(**{**fields, **changes})

    assert p.first_difference(like(terms=dict(p.terms))) is None
    for other in (like(anchor=(0, 1)), like(low=1), like(var=1)):
        with pytest.raises(SeriesError, match="other anchor, low or var"):
            p.first_difference(other)
    # the certificate of decoding: each bound must fit its own width
    for other in (like(bound=1 << 63), like(width=4, bound=8)):
        with pytest.raises(SeriesError, match="does not fit packed width"):
            p.first_difference(other)
        with pytest.raises(SeriesError, match="does not fit packed width"):
            other.first_difference(p)


def _per_degree_divide(terms, alpha, from_deep=False):
    """divide_exact by the per-degree loop that the packed division
    replaced, kept as its oracle: each string summed in {v-degree: int}
    dicts from its shallow end (or its deep end)."""
    pivot = next(j for j, a in enumerate(alpha) if a)
    sign = alpha[pivot]
    strings = {}
    for beta, cf in terms.items():
        strings.setdefault(beta[:pivot] + beta[pivot + 1:], {})[
            beta[pivot] * sign] = cf.c
    from_low_t = (sign > 0) != from_deep
    out = {}
    for key, string in strings.items():
        run = {}
        ts = sorted(string, reverse=not from_low_t)
        for j, t in enumerate(ts):
            for d, x in string[t].items():
                run[d] = run.get(d, 0) + (x if from_low_t else -x)
            if j + 1 < len(ts) and VPoly(run):
                lo, hi = sorted((t, ts[j + 1]))
                for u in range(lo, hi):
                    out[key[:pivot] + (u * sign,) + key[pivot:]] = VPoly(run)
        if any(run.values()):
            raise SeriesError("nonzero remainder")
    return out


def _outcome(f, *args):
    try:
        return f(*args)
    except SeriesError:
        return SeriesError


@settings(max_examples=150, deadline=None)
@given(division_problems(big=True), st.booleans())
def test_packed_division_matches_the_per_degree_loop(problem, from_deep):
    alpha, q = problem
    num = _times_one_minus(alpha, q)
    assert divide_exact(num, alpha, from_deep) == q
    assert _per_degree_divide(num, alpha, from_deep) == q
    # a map that is not a numerator: the same quotient or the same refusal
    assert (_outcome(divide_exact, q, alpha, from_deep)
            == _outcome(_per_degree_divide, q, alpha, from_deep))


def test_packed_decoding_and_remainder_refuse_a_bound_too_wide():
    # balanced digits of width 8 lie in [-2^7, 2^7): 128 = v - 128 there
    def unpack(x, width, bound, var=1):
        return PackedSeries(None, {(0,): x}, width, bound, 0, var).unpack()
    assert unpack(128, 8, 127) == {(0,): VPoly({1: 1, 0: -128})}
    with pytest.raises(SeriesError, match="does not fit packed width 8"):
        unpack(128, 8, 128)
    # the finite CS right-hand side decodes with u = v^-1
    assert unpack(1 << 64, 64, (1 << 63) - 1, -1) == {(0,): VPoly({-1: 1})}
    with pytest.raises(SeriesError, match="does not fit packed width 64"):
        unpack(1 << 64, 64, 1 << 63, -1)
    string = {(): {0: 1, 1: -1}}  # 1 - e^{-a_1} over itself
    assert _divide_strings(string, 0, 1, 8, 127) == {(0,): 1}
    with pytest.raises(SeriesError, match="does not fit packed width 8"):
        _divide_strings(string, 0, 1, 8, 128)


def test_divide_exact_simple_direction_by_hand():
    # (e^{-a} - e^{-3a}) / (1 - e^{-a}) = e^{-a} + e^{-2a}
    num = {(1, 0): VP_ONE, (3, 0): -VP_ONE}
    assert divide_exact(num, (1, 0)) == {(1, 0): VP_ONE, (2, 0): VP_ONE}
    # over (1 - e^{+a}) the quotient is -e^{-2a} - e^{-3a}
    assert divide_exact(num, (-1, 0)) == {(2, 0): -VP_ONE, (3, 0): -VP_ONE}
    with pytest.raises(SeriesError):
        divide_exact(num, (0, 0))


@pytest.mark.parametrize("spec", DIVISION_SPECS, ids=str)
def test_divide_exact_refuses_every_non_simple_direction(spec):
    # (1 - e^{-alpha}) over itself would divide exactly along alpha, so
    # the refusal is the direction's, not a remainder's
    n = spec.num_nodes
    zero = (0,) * n
    coroots = [cr for cr in rootdata.positive_coroots_up_to(spec, 4)
               if cr.height > 1]
    assert spec.affine == any(cr.kind == "imaginary" for cr in coroots)
    for cr in coroots:
        for alpha in (cr.coords, tuple(-x for x in cr.coords)):
            for from_deep in (False, True):
                with pytest.raises(SeriesError, match="simple coroot"):
                    divide_exact({zero: VP_ONE, alpha: -VP_ONE}, alpha,
                                 from_deep=from_deep)
    with pytest.raises(SeriesError, match="simple coroot"):
        divide_exact({zero: VP_ONE}, (2,) + zero[1:])
