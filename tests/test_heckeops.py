"""Unit tests for the Demazure-Lusztig operators and symmetrizers."""
import itertools
import json
import pathlib
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from dlhecke import heckeops, rootdata, weyl
from dlhecke.heckeops import HeckeError, T_KIND, TPRIME_KIND
from dlhecke.rootdata import RootSystemSpec
from dlhecke.vseries import (AnchoredSeries, PackedSeries, VPoly, VP_ONE, V,
                             VINV, _divide_strings, divide_exact,
                             nonneg_vectors_up_to)
from dlhecke.weyl import WeylError
from series_json import series_from_json
from weyl_action import act_on_series

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

A1 = RootSystemSpec.parse("A1")
A2 = RootSystemSpec.parse("A2")
A1A = RootSystemSpec.parse("A1!")


def _mono(spec, labels, **kw):
    return AnchoredSeries.monomial(spec, labels, **kw)


def _packed(s, kind=T_KIND):
    """An exact series packed for the kind, as the relations take it."""
    return heckeops.apply_T_word(s.spec, (), s, kind)


def _quadratic_difference(i, s, kind=T_KIND):
    """The quadratic relation on s packed for the kind, given T_i of it as
    the relation battery shares it."""
    p = _packed(s, kind)
    return heckeops.quadratic_difference(s.spec, i, p,
                                         heckeops.apply_T(s.spec, i, p))


def _word_difference(w1, w2, s):
    """T_{w1} = T_{w2} on s packed for T, given T_i of it for the
    rightmost letter of each word."""
    p = _packed(s)
    return heckeops.word_difference(s.spec, w1, w2, {
        i: heckeops.apply_T(s.spec, i, p) for i in (w1[-1], w2[-1])})


def _T(spec, word, s, kind=T_KIND):
    """T_w (or T'_w) of an exact series, decoded: apply_T_word's packed
    value read back as an AnchoredSeries."""
    return AnchoredSeries(spec, s.anchor, heckeops.apply_T_word(
        spec, word, s, kind).unpack(), _trusted=True)


def test_T_closed_form_k0():
    # <a, mu> = 0:  T(e^mu) = -v^-1 e^{mu - a}
    out = heckeops.apply_T_word(A1, (1,), _mono(A1, (0,))).unpack()
    assert out == {(1,): -VINV}


def test_T_closed_form_k1():
    # <a, mu> = 1:  (1 - v^-1) e^{mu - a} - v^-1 e^{mu - 2a}
    out = heckeops.apply_T_word(A1, (1,), _mono(A1, (1,))).unpack()
    assert out == {(1,): 1 - VINV, (2,): -VINV}


def test_T_closed_form_k2():
    out = heckeops.apply_T_word(A1, (1,), _mono(A1, (2,))).unpack()
    assert out == {(1,): 1 - VINV, (2,): 1 - VINV, (3,): -VINV}


def test_T_closed_form_k_minus_1():
    # <a, mu> = -1:  T(e^mu) = -e^mu
    out = heckeops.apply_T_word(A1, (1,), _mono(A1, (-1,))).unpack()
    assert out == {(0,): VPoly(-1)}


def test_T_closed_form_k_minus_2_rises():
    # <a, mu> = -2: support rises one step toward the reflection
    out = heckeops.apply_T_word(A1, (1,), _mono(A1, (-2,))).unpack()
    assert out == {(-1,): VPoly(-1), (0,): VINV - 1}


def test_Tprime_closed_form_k1():
    # T'(e^mu) = e^{mu - a} when <a, mu> = 1
    out = heckeops.apply_T_word(A1, (1,), _mono(A1, (1,)), TPRIME_KIND)
    assert out.unpack() == {(1,): VP_ONE}


def test_apply_T_is_linear():
    s = _mono(A2, (1, 1)) + _mono(A2, (1, 1), beta=(1, 0), coeff=VPoly(3))
    out = _T(A2, (1,), s)
    parts = _T(A2, (1,), _mono(A2, (1, 1))) + \
        _T(A2, (1,), _mono(A2, (1, 1), beta=(1, 0))).scale(VPoly(3))
    assert out.first_difference(parts) is None


def test_apply_T_rejects_truncated_series():
    # apply_T_word, where a series is packed for the operators, refuses it
    with pytest.raises(HeckeError):
        heckeops.apply_T_word(A2, (1,), AnchoredSeries.one(A2, 2).truncate(3))


@pytest.mark.parametrize("kind", [T_KIND, TPRIME_KIND])
def test_apply_T_word_refuses_a_value_already_packed(kind):
    # the one AnchoredSeries boundary: a PackedSeries is refused, not packed
    # again (its int coefficients have no VPoly dict)
    p = _packed(_mono(A2, (1, 1)), kind)
    for word in ((), (1,)):
        with pytest.raises(HeckeError, match="AnchoredSeries"):
            heckeops.apply_T_word(A2, word, p, kind)


@pytest.mark.parametrize("text", ["A2", "A2!"])
@pytest.mark.parametrize("kind", [T_KIND, TPRIME_KIND])
def test_apply_T_rejects_out_of_range_generators(text, kind):
    spec = RootSystemSpec.parse(text)
    s = _mono(spec, (1,) * spec.num_nodes)
    p = heckeops.apply_T_word(spec, (), s, kind)
    for i in (0, spec.num_nodes + 1):
        with pytest.raises(WeylError):
            heckeops.apply_T(spec, i, p)
        with pytest.raises(WeylError):
            heckeops.apply_T_word(spec, (1, i), s)


def test_quadratic_relation_on_awkward_monomials():
    for labels in [(-3, 2), (0, 0), (4, -1)]:
        s = _mono(A2, labels)
        for i in (1, 2):
            for kind in (T_KIND, TPRIME_KIND):
                assert _quadratic_difference(i, s, kind) is None


def test_quadratic_relation_affine_double_bond():
    for labels in [(0, 1), (2, -2), (-1, 3)]:
        for i in (1, 2):
            assert _quadratic_difference(i, _mono(A1A, labels)) is None


def test_braid_relation_a2():
    assert _word_difference((1, 2, 1), (2, 1, 2),
                            _mono(A2, (2, -1))) is None


def _conjugation_difference(i, s):
    return heckeops.conjugation_difference(
        s.spec, i, heckeops.apply_T(s.spec, i, _packed(s)),
        _packed(s, TPRIME_KIND))


def test_conjugation_identity():
    assert _conjugation_difference(1, _mono(A2, (1, -2))) is None
    assert _conjugation_difference(2, _mono(A1A, (0, 1))) is None


def test_word_operator_composes_right_to_left():
    s = _mono(A2, (1, 1))
    lhs = _T(A2, (1, 2), s)
    rhs = _T(A2, (1,), _T(A2, (2,), s))
    assert lhs.first_difference(rhs) is None


def test_symmetrizer_chain_on_a1():
    total, length = heckeops.symmetrizer_chain(A1, (2,))
    assert length == 1               # identity plus one reflection
    assert total.unpack() == {
        (0,): VP_ONE, (1,): 1 - VINV, (2,): 1 - VINV, (3,): -VINV}


def test_symmetrizer_stabilized_affine_flags():
    total, achieved, stabilized = heckeops.symmetrizer_stabilized(
        A1A, (0, 1), 3, margin=2)
    assert stabilized and achieved >= 3
    assert total.depth == 3
    assert total.coefficient((0, 0)) == VP_ONE
    # forcing an unreachable margin inside a tiny layer budget reports honestly
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heckeops, "MAX_LAYERS", 2)
        _, _, flag = heckeops.symmetrizer_stabilized(A1A, (0, 1), 3,
                                                     margin=2)
    assert not flag
    # a truncated seed is refused where it is packed, before any walk
    deep = _mono(A1A, (0, 1), beta=(2, 1), depth=3)
    with pytest.raises(HeckeError):
        heckeops.apply_T_word(A1A, (), deep)


def test_layer_cap_enforced():
    # the first layer of the affine A2 Weyl group holds 3 reflections
    spec = RootSystemSpec.parse("A2!")
    with pytest.raises(HeckeError, match="layer of size 3 exceeds cap 2"):
        heckeops.symmetrizer_stabilized(spec, (0, 0, 1), 2, layer_cap=2)


# -- random multi-term series ----------------------------------------------

OPERATOR_SPECS = [RootSystemSpec.parse(t) for t in ("A2", "A3", "D4", "A1!",
                                                    "A2!", "A3!")]


def _term_maps(n):
    """Random exact term maps over n nodes, negative displacements allowed."""
    betas = st.tuples(*[st.integers(-3, 3)] * n)
    coeffs = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3),
                             min_size=1, max_size=3).map(VPoly)
    return st.dictionaries(betas, coeffs, min_size=1, max_size=6)


@st.composite
def exact_series(draw, specs=OPERATOR_SPECS):
    spec = draw(st.sampled_from(specs))
    n = spec.num_nodes
    labels = draw(st.tuples(*[st.integers(-3, 3)] * n))
    return AnchoredSeries(spec, labels, draw(_term_maps(n)))


KINDS = st.sampled_from((T_KIND, TPRIME_KIND))


def _numerator(s, i, kind):
    """The numerator (1 - u e^{-/+a_i}) s^{s_i} + (u - 1) s of T_i (or
    T'_i) on s by series arithmetic, independent of apply_T."""
    n = s.spec.num_nodes
    u, sign = (VINV, 1) if kind == T_KIND else (V, -1)
    shift = tuple(sign if j == i - 1 else 0 for j in range(n))
    factor = AnchoredSeries(s.spec, (0,) * n, {(0,) * n: VP_ONE, shift: -u})
    return factor * act_on_series(s.spec, (i,), s) + s.scale(u - 1)


@settings(max_examples=150, deadline=None)
@given(st.data(), exact_series([RootSystemSpec.parse(t) for t in (
    "A2", "A3", "D4", "A1!", "A2!", "D4!")]), KINDS)
def test_apply_T_word_divides_the_series_numerator(data, s, kind):
    # the kernel's one-pass strings against divide_exact of a numerator
    # built term map by term map, summed from either end
    i = data.draw(st.integers(1, s.spec.num_nodes))
    num = _numerator(s, i, kind).terms
    alpha = tuple(-1 if j == i - 1 else 0 for j in range(s.spec.num_nodes))
    got = heckeops.apply_T_word(s.spec, (i,), s, kind).unpack()
    assert got == divide_exact(num, alpha)
    assert got == divide_exact(num, alpha, from_deep=True)


@settings(max_examples=60, deadline=None)
@given(st.data(), exact_series(), KINDS)
def test_quadratic_relation_on_multi_term_series(data, s, kind):
    i = data.draw(st.integers(1, s.spec.num_nodes))
    assert _quadratic_difference(i, s, kind) is None


def _bonds(spec):
    cartan = rootdata.build_cartan(spec)
    return [(i + 1, j + 1) for i in range(len(cartan))
            for j in range(len(cartan)) if cartan[i][j] == -1]


@settings(max_examples=40, deadline=None)
@given(st.data(), exact_series([s for s in OPERATOR_SPECS
                                if str(s) != "A1!"]))
def test_braid_relation_on_multi_term_series(data, s):
    i, j = data.draw(st.sampled_from(_bonds(s.spec)))
    assert _word_difference((i, j, i), (j, i, j), s) is None


@settings(max_examples=60, deadline=None)
@given(st.data(), exact_series())
def test_conjugation_identity_on_multi_term_series(data, s):
    i = data.draw(st.integers(1, s.spec.num_nodes))
    assert _conjugation_difference(i, s) is None


# -- the packed kernel -----------------------------------------------------

def _per_degree_T(cartan, anchor, terms, i, kind):
    """T_i (or T'_i) of a raw term map by the per-degree loop that the
    packed kernel replaced, kept as its oracle: each a_i-string's
    numerator in {v-degree: int} dicts, summed from the shallow end."""
    e, s = (-1, 1) if kind == T_KIND else (1, -1)
    ii = i - 1
    strings = {}
    for beta, cf in terms.items():
        k = anchor[ii] - sum(a * b for a, b in zip(cartan[ii], beta))
        t = -beta[ii]
        string = strings.setdefault(beta[:ii] + beta[ii + 1:], {})
        # cf at b + k, -u cf at b + k + s, (u - 1) cf at b; u moves d by e
        for pos, shift, sign in ((t - k, 0, 1), (t - k - s, e, -1),
                                 (t, e, 1), (t, 0, -1)):
            p = string.setdefault(pos, {})
            for d, x in cf.c.items():
                p[d + shift] = p.get(d + shift, 0) + sign * x
    out = {}
    for key, string in strings.items():
        # along -a_i the shallow end is the high-t end: Q_t = -sum_{r > t}
        run = {}
        ts = sorted(string, reverse=True)
        for j, t in enumerate(ts):
            for d, x in string[t].items():
                run[d] = run.get(d, 0) - x
            if j + 1 < len(ts) and VPoly(run):
                for u in range(ts[j + 1], t):
                    out[key[:ii] + (-u,) + key[ii:]] = VPoly(run)
        assert not any(run.values())
    return out


def _big_term_maps(n):
    """Term maps with v-degrees of both signs and coefficients up to
    2^80 in absolute value."""
    betas = st.tuples(*[st.integers(-3, 3)] * n)
    coeffs = st.dictionaries(st.integers(-4, 4),
                             st.integers(-2 ** 80, 2 ** 80),
                             min_size=1, max_size=4).map(VPoly)
    return st.dictionaries(betas, coeffs, min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([RootSystemSpec.parse(t) for t in (
    "A2", "D4", "A1!", "A2!", "D4!")]), KINDS)
def test_packed_kernel_matches_the_per_degree_loop(data, spec, kind):
    n = spec.num_nodes
    terms = {b: c for b, c in data.draw(_big_term_maps(n)).items() if c}
    anchor = data.draw(st.tuples(*[st.integers(-3, 3)] * n))
    cartan = rootdata.build_cartan(spec)
    packed = PackedSeries.pack(anchor, terms, -1 if kind == T_KIND else 1)
    for i in range(1, n + 1):
        want = _per_degree_T(cartan, anchor, terms, i, kind)
        exact = AnchoredSeries(spec, anchor, terms)
        assert heckeops.apply_T_word(spec, (i,), exact, kind).unpack() == want
        out = heckeops.apply_T(spec, i, packed)
        assert out.unpack() == want
        # the carried bound covers every coefficient it vouches for
        assert all(abs(x) <= out.bound
                   for cf in want.values() for x in cf.c.values())


def test_a_width_too_small_for_the_step_is_widened():
    # four terms on one a_1-string with coefficients up to 3 fit width 4
    # (below 2^3), but their image needs up to 2 * 3 * 4: the kernel
    # repacks them wider first, and the accumulator widens the same way
    cartan = rootdata.build_cartan(A1)
    anchor = (6,)
    terms = {(b,): VPoly({0: 3, -1: -2}) for b in range(4)}
    p = PackedSeries.pack(anchor, terms, -1)
    narrow = PackedSeries(anchor, p.repacked(p.terms, 4), 4, 3, p.low,
                          p.var)
    assert narrow.unpack() == terms
    out = heckeops.apply_T(A1, 1, narrow)
    want = _per_degree_T(cartan, anchor, terms, 1, T_KIND)
    assert out.width > 4 and out.unpack() == want
    assert max(abs(x) for cf in want.values() for x in cf.c.values()) >= 8
    acc = PackedSeries(anchor, {}, 4, 0, p.low, p.var)
    for _ in range(3):
        acc.add(narrow)
    assert acc.width > 4
    assert acc.unpack() == {b: cf * 3 for b, cf in terms.items()}


@pytest.mark.parametrize("kind", (T_KIND, TPRIME_KIND))
@pytest.mark.parametrize("k", range(-6, 7))
def test_one_term_strings_match_the_division_and_the_per_degree_loop(k, kind):
    # the kernel's closed form for a string of one term, at pairing k, term
    # for term against _divide_strings of its numerator and against the
    # per-degree loop, under every skipped range that lies before, across,
    # inside or after the image's runs; the packed width is 8, and the
    # coefficients reach 20 (no widening) or 100 (2 M P = 200 widens)
    cartan = rootdata.build_cartan(A2)
    var = -1 if kind == T_KIND else 1
    s = -var
    for i, b, scale in itertools.product((1, 2), (-2, 0, 3), (4, 20)):
        ii = i - 1
        beta = (b, 1) if i == 1 else (1, b)
        key = beta[:ii] + beta[i:]
        c = k + 2 * b
        # the other coordinate, 1, adds -a_{i,j} = 1 to the pairing
        anchor = (c - 1, 0) if i == 1 else (0, c - 1)
        terms = {beta: VPoly({-2: 3, 0: -5, 1: 2, 3: -1}) * scale}
        p = PackedSeries.pack(anchor, terms, var)
        narrow = PackedSeries(anchor, p.repacked(p.terms, 8), 8, p.bound,
                              p.low, var)
        strings = heckeops._strings(cartan, anchor, narrow.terms, i)
        assert strings[key][0] == c
        want = _per_degree_T(cartan, anchor, terms, i, kind)
        full = heckeops._kernel(narrow, strings, i)
        assert full.unpack() == want and (full.width > 8) == (scale == 20)
        (x,) = narrow.repacked(_grouped(strings)[key][1],
                               full.width).values()
        y = x << full.width
        num = {}
        for t, z in ((-b - k, x), (-b - k - s, -y), (-b, y - x)):
            num[t] = num.get(t, 0) + z
        ts = [-g[ii] for g in full.terms]
        window = range(min(ts) - 2, max(ts) + 3)
        for skip in [None] + [(lo, hi) for lo in window for hi in window
                              if lo < hi]:
            tables = _tables(cartan, anchor, 0)
            tables[ii][key] = tables[ii][key][:3] + (skip,)
            got = heckeops._kernel(narrow, strings, i, tables)
            assert got.terms == _divide_strings(
                {key: num}, ii, -1, full.width, full.bound,
                skips=None if skip is None else {key: skip})
            lo, hi = skip or (0, 0)
            assert got.unpack() == {g: cf for g, cf in want.items()
                                    if not lo <= -g[ii] < hi}


# -- the stabilized walk ---------------------------------------------------

def _shallow_part(terms, depth):
    return {b: c for b, c in terms.items() if sum(b) <= depth}


def _reachable_terms(cartan, anchor, terms, i, depth):
    """The terms of a map whose T_i image can reach ht <= depth: those with
    ht(beta) + min(0, k) < depth, k = <a_i, anchor - beta>, each k a dot
    product of its own: the oracle of the string table's reach test."""
    row, label = cartan[i - 1], anchor[i - 1]
    return {beta: cf for beta, cf in terms.items()
            if sum(beta) + min(0, label - sum(map(mul, row, beta))) < depth}


def _grouped(strings):
    """_strings' a_i-strings as {key: (c, {beta_i: coefficient})}, a
    one-term string (c, b, x) as well."""
    return {key: (st[0], st[1]) if len(st) == 2 else (st[0], {st[1]: st[2]})
            for key, st in strings.items()}


def _tables(cartan, anchor, q_max=None):
    """A walk's string tables for the anchor, one per generator, with a
    given q_max (None: nothing skipped)."""
    return [heckeops._StringTable(cartan, anchor, ii, q_max)
            for ii in range(len(cartan))]


def _strings_reaching_by_ends(cartan, p, i, js, depth):
    """The keys of the a_i-strings that _strings_reaching keeps, decided
    from each string's end as a displacement: kept if the end lies at
    ht <= depth or is j-reachable for some j in js."""
    ii = i - 1
    strings = _grouped(heckeops._strings(cartan, p.anchor, p.terms, i))
    ends = {key[:ii] + (min(min(string), c - max(string)) + 1,) + key[ii:]:
            key for key, (c, string) in strings.items()}
    kept = {key for end, key in ends.items() if sum(end) <= depth}
    kept.update(key for j in js for key in _reachable_terms(
        cartan, p.anchor, ends, j, depth).values())
    return kept


@settings(max_examples=200, deadline=None)
@given(st.data(), exact_series(), st.integers(0, 8))
def test_reachable_terms_keep_every_shallow_output(data, s, depth):
    # dropping the unreachable terms changes nothing at ht <= depth
    i = data.draw(st.integers(1, s.spec.num_nodes))
    cartan = rootdata.build_cartan(s.spec)
    kept = _reachable_terms(cartan, s.anchor, s.terms, i, depth)
    full = heckeops.apply_T_word(s.spec, (i,), s).unpack()
    part = heckeops.apply_T_word(s.spec, (i,),
                                 AnchoredSeries(s.spec, s.anchor, kept)).unpack()
    assert _shallow_part(part, depth) == _shallow_part(full, depth)


@settings(max_examples=300, deadline=None)
@given(st.data(), exact_series([RootSystemSpec.parse(t) for t in (
    "A1!", "A2!", "D4!", "A2", "D4")]), st.integers(0, 8))
def test_reaching_strings_keep_every_shallow_output_two_steps_on(
        data, s, depth):
    # T_i of the kept a_i-strings is whole at ht <= depth, and T_j of its
    # j-reachable part is T_j T_i of the whole map there; j != i, as a
    # child s_j c of c = s_i p in the walk is never p
    n = s.spec.num_nodes
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(1, n).filter(lambda j: j != i))
    cartan = rootdata.build_cartan(s.spec)

    def T(terms, g):
        return heckeops.apply_T_word(
            s.spec, (g,), AnchoredSeries(s.spec, s.anchor, terms)).unpack()
    p = PackedSeries.pack(s.anchor, s.terms, -1)
    strings = heckeops._strings_reaching(cartan, p, i, (j,), depth,
                                         _tables(cartan, s.anchor))
    kept = T({b: cf for b, cf in s.terms.items()
              if b[:i - 1] + b[i:] in strings}, i)
    full = T(s.terms, i)
    assert _shallow_part(kept, depth) == _shallow_part(full, depth)
    part = T(_reachable_terms(cartan, s.anchor, kept, j, depth), j)
    assert _shallow_part(part, depth) == _shallow_part(T(full, j), depth)


@settings(max_examples=300, deadline=None)
@given(st.data(), exact_series(OPERATOR_SPECS + [RootSystemSpec.parse(
    "D4!")]), st.integers(0, 8), st.integers(-4, 30))
def test_the_string_table_matches_the_direct_formulas(data, s, depth, q_max):
    # c, the skipped range and the reach decision of every a_i-string, read
    # from a table that other generators' strings have filled as well,
    # against a dot product, Q(beta) > q_max tested along the string, and
    # the string's end tested as a displacement
    n = s.spec.num_nodes
    cartan = rootdata.build_cartan(s.spec)
    i = data.draw(st.integers(1, n))
    js = tuple(data.draw(st.sets(st.integers(1, n).filter(
        lambda j: j != i), max_size=2)))
    p = PackedSeries.pack(s.anchor, s.terms, -1)
    tables = _tables(cartan, s.anchor, q_max)
    for g in range(1, n + 1):
        heckeops._strings(cartan, s.anchor, p.terms, g, tables)
    strings = heckeops._strings(cartan, s.anchor, p.terms, i, tables)
    assert strings == heckeops._strings(cartan, s.anchor, p.terms, i)
    for key in strings:
        dropped = {b for b in range(-40, 41) if _q(
            s.spec, s.anchor, key[:i - 1] + (b,) + key[i - 1:]) > q_max}
        assert not dropped & {-40, 40}
        lo, hi = tables[i - 1].skip(key) or (0, 0)
        assert dropped == {-t for t in range(lo, hi)}
    assert set(heckeops._strings_reaching(cartan, p, i, js, depth, tables)) \
        == _strings_reaching_by_ends(cartan, p, i, js, depth)


@st.composite
def _long_strings(draw):
    """(spec, i, js, a PackedSeries for T) whose a_i-strings each hold two
    to four terms, the terms of the map in a drawn order."""
    spec = draw(st.sampled_from([RootSystemSpec.parse(t) for t in (
        "A1!", "A2!", "D4!", "A2", "D4")]))
    n = spec.num_nodes
    i = draw(st.integers(1, n))
    js = tuple(draw(st.sets(st.integers(1, n).filter(lambda j: j != i),
                            max_size=2)))
    anchor = draw(st.tuples(*[st.integers(-3, 4)] * n))
    terms = []
    for key in draw(st.sets(st.tuples(*[st.integers(-1, 3)] * (n - 1)),
                            min_size=1, max_size=3)):
        for b in draw(st.sets(st.integers(-4, 6), min_size=2, max_size=4)):
            terms.append((key[:i - 1] + (b,) + key[i - 1:], 1))
    terms = draw(st.permutations(terms))
    return spec, i, js, PackedSeries(anchor, dict(terms), 8, 1, 0, -1)


@settings(max_examples=400, deadline=None)
@given(_long_strings(), st.integers(0, 8))
def test_reach_decided_term_by_term_matches_the_string_ends(case, depth):
    # a string of two or more terms is kept iff its end, tested as a
    # displacement, lies at ht <= depth or is j-reachable, whichever of its
    # terms the map lists first
    spec, i, js, p = case
    cartan = rootdata.build_cartan(spec)
    strings = heckeops._strings_reaching(cartan, p, i, js, depth,
                                         _tables(cartan, p.anchor))
    assert set(strings) == _strings_reaching_by_ends(cartan, p, i, js, depth)
    assert strings == heckeops._strings(cartan, p.anchor, {
        b: x for b, x in p.terms.items() if b[:i - 1] + b[i:] in strings}, i)


def test_reach_decided_term_by_term_where_one_term_alone_decides():
    # two-term strings on A2!, each listed least b first and greatest b
    # first, against the string ends; among them strings kept only by the
    # greatest b's reflection reaching the depth, and strings kept only by
    # a j-test, neither of which the least b's own test keeps
    spec = RootSystemSpec.parse("A2!")
    cartan = rootdata.build_cartan(spec)
    reflected = j_only = 0
    for anchor, i, depth in itertools.product(((0, 0, 1), (2, 1, 0)),
                                              (1, 2, 3), range(7)):
        js = tuple(j for j in (1, 2, 3) if j != i)
        tables = _tables(cartan, anchor)
        for key, (b0, b1) in itertools.product(
                itertools.product(range(3), repeat=2),
                itertools.combinations(range(-3, 6), 2)):
            betas = [key[:i - 1] + (b,) + key[i - 1:] for b in (b0, b1)]
            ps = [PackedSeries(anchor, dict.fromkeys(order, 1), 8, 1, 0, -1)
                  for order in (betas, betas[::-1])]
            kept = _strings_reaching_by_ends(cartan, ps[0], i, js, depth)
            for p in ps:
                assert set(heckeops._strings_reaching(
                    cartan, p, i, js, depth, tables)) == kept
            if not kept:
                continue
            one = [bool(_strings_reaching_by_ends(cartan, PackedSeries(
                anchor, {beta: 1}, 8, 1, 0, -1), i, js, depth))
                for beta in betas]
            alone = _strings_reaching_by_ends(cartan, ps[0], i, (), depth)
            c = tables[i - 1][key][0]
            if one == [False, True] and alone and c - b1 < b0:
                reflected += 1
            if one[0] is False and not alone:
                j_only += 1
    assert reflected and j_only


def test_the_settle_runs_the_kernel_only_where_a_string_is_kept(monkeypatch):
    # _loud hands _kernel the strings that _strings_reaching keeps, and
    # returns quiet without a kernel call where it keeps none; the walks
    # meet both
    reaching, kernel = heckeops._strings_reaching, heckeops._kernel
    found, settled = [], []

    def recording_reaching(cartan, p, i, js, depth, limit):
        out = reaching(cartan, p, i, js, depth, limit)
        found.append(out)
        return out

    def recording_kernel(p, strings, i, limit=None):
        if any(strings is out for out in found):
            settled.append(strings)
        return kernel(p, strings, i, limit)

    monkeypatch.setattr(heckeops, "_strings_reaching", recording_reaching)
    monkeypatch.setattr(heckeops, "_kernel", recording_kernel)
    for text, labels, depth in (("A2!", (0, 0, 1), 6),
                                ("D4!", (0, 0, 0, 0, 1), 3)):
        found.clear()
        settled.clear()
        heckeops.symmetrizer_stabilized(RootSystemSpec.parse(text), labels,
                                        depth)
        assert any(out for out in found) and not all(found)
        assert all(settled) and len(settled) == sum(map(bool, found))


def test_each_string_is_computed_once_per_walk(monkeypatch):
    # a walk's table computes each (i, kappa) on its first lookup alone,
    # however many values and kernel calls meet that string, and its
    # skipped range at most once, on the kernel's first use of the string:
    # never for a string that only the reach test reads, and never empty
    computed, looked_up, ranged, divided = [], [0], [], set()
    missing, getitem = (heckeops._StringTable.__missing__,
                        heckeops._StringTable.__getitem__)
    skip, kernel = heckeops._StringTable.skip, heckeops._kernel

    def counting_missing(table, key):
        computed.append((table._ii, key))
        return missing(table, key)

    def counting_getitem(table, key):
        looked_up[0] += 1
        return getitem(table, key)

    def counting_skip(table, key):
        found = skip(table, key)
        ranged.append((table._ii, key, found))
        return found

    def recording_kernel(p, strings, i, limit=None):
        divided.update((i - 1, key) for key in strings)
        return kernel(p, strings, i, limit)

    monkeypatch.setattr(heckeops._StringTable, "__missing__",
                        counting_missing)
    monkeypatch.setattr(heckeops._StringTable, "skip", counting_skip)
    monkeypatch.setattr(heckeops._StringTable, "__getitem__",
                        counting_getitem)
    monkeypatch.setattr(heckeops, "_kernel", recording_kernel)
    for text, labels, depth in (("A2!", (0, 0, 1), 4),
                                ("D4!", (0, 0, 0, 0, 1), 3)):
        computed.clear()
        ranged.clear()
        divided.clear()
        looked_up[0] = 0
        heckeops.symmetrizer_stabilized(RootSystemSpec.parse(text), labels,
                                        depth)
        assert computed and len(set(computed)) == len(computed)
        assert looked_up[0] > len(computed)
        keys = [(ii, key) for ii, key, _ in ranged]
        assert len(set(keys)) == len(keys)
        assert set(keys) == divided and len(keys) < len(computed)
        assert all(found is None or found[0] < found[1]
                   for _, _, found in ranged)
        assert any(found for _, _, found in ranged)


def _least_dominant_displacement(cartan, lam, betas):
    """m, the componentwise least beta+ over betas, lam - beta+ the
    dominant conjugate of lam - beta."""
    return tuple(map(min, zip(*(
        _hull_displacement(cartan, lam, beta) for beta in betas))))


def _q_max_by_enumeration(cartan, lam, betas, depth):
    """_q_max by enumerating every gamma >= m of height at most the depth,
    C(depth - ht(m) + n, n) points, keeping the dominant lam - gamma: its
    oracle."""
    low = _least_dominant_displacement(cartan, lam, betas)
    best = None
    for up in nonneg_vectors_up_to(len(low), depth - sum(low)):
        gamma = tuple(x + y for x, y in zip(low, up))
        pairings = [x - sum(map(mul, row, gamma))
                    for x, row in zip(lam, cartan)]
        if min(pairings) >= 0:
            q = sum(g * (x + k) for g, x, k in zip(gamma, lam, pairings))
            best = q if best is None else max(best, q)
    return best


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([RootSystemSpec.parse(t) for t in (
    "A1", "A2", "A3", "D4", "A1!", "A2!", "A3!", "D4!")]),
    st.integers(-1, 8))
def test_q_max_search_matches_the_enumeration(data, spec, depth):
    # a seed's displacements and a lam of positive level on an affine spec
    n = spec.num_nodes
    cartan = rootdata.build_cartan(spec)
    lam = data.draw(st.tuples(*[st.integers(-1, 3)] * n))
    if spec.affine:
        level = sum(map(mul, rootdata.minimal_imaginary_coroot(
            spec).coords, lam))
        assume(level > 0)
    betas = data.draw(st.lists(st.tuples(*[st.integers(-2, 3)] * n),
                               min_size=1, max_size=4))
    # at most C(10 + n, n) points for the oracle
    assume(depth - sum(_least_dominant_displacement(cartan, lam, betas))
           <= 10)
    assert heckeops._q_max(cartan, lam, betas, depth) == \
        _q_max_by_enumeration(cartan, lam, betas, depth)


def _exact_layers(spec, seed, kind, max_length):
    """Yield the values T_w(seed) of each length layer 1..max_length of W,
    every one built exactly as T_i of its parent's value."""
    values = {(): seed}
    for layer in weyl.enumerate_layers(spec, max_length)[1:]:
        # the first letter of a BFS word is a left descent
        values = {w.word: _T(spec, w.word[:1], values[w.word[1:]], kind)
                  for w in layer}
        yield list(values.values())


def _stabilized_by_exact_layers(spec, seed, depth, margin, kind, max_length):
    """The stabilized sum with every layer's T_w(seed) built exactly."""
    total = seed.truncate(depth)
    quiet = 0
    for length, values in enumerate(
            _exact_layers(spec, seed, kind, max_length), 1):
        pieces = [v.truncate(depth) for v in values]
        pieces = [p for p in pieces if p.terms]
        for p in pieces:
            total = total + p
        quiet = 0 if pieces else quiet + 1
        if quiet >= margin:
            return total, length, True
    raise AssertionError(f"no stabilization within {max_length} layers")


def _summed_by_exact_layers(spec, labels):
    """(sum_{w in W} T_w(e^labels), l(w0)) over a finite W, every
    T_w(e^labels) built exactly and added as a series."""
    total = seed = _mono(spec, labels)
    length = 0
    for length, values in enumerate(
            _exact_layers(spec, seed, T_KIND, 10 ** 9), 1):
        for v in values:
            total = total + v
    return total, length


WALK_CASES = [("A1!", (0, 1), 6, T_KIND, 16),
              ("A1!", (2, 1), 4, T_KIND, 16),
              ("A2!", (0, 0, 1), 2, T_KIND, 10),
              ("A2!", (1, 0, 1), 2, T_KIND, 10),
              ("A2!", (0, 0, 1), 4, T_KIND, 16),
              ("A3!", (0, 0, 0, 1), 2, T_KIND, 8),
              ("D4!", (0, 0, 0, 0, 1), 1, T_KIND, 6)]


@pytest.mark.parametrize("text, labels, depth, kind, max_length", WALK_CASES)
def test_stabilized_walk_matches_exact_layers(text, labels, depth, kind,
                                              max_length):
    spec = RootSystemSpec.parse(text)
    monomial = _mono(spec, labels)
    # the non-monomial seed T_1(e^L) of symmetrizer property (ii) as well,
    # packed for the walk and decoded for the exact layers
    seeds = [(None, monomial), (heckeops.apply_T_word(spec, (1,), monomial,
                                                      kind),
                                _T(spec, (1,), monomial, kind))]
    for margin in (1, 2, 3):
        for seed, exact in seeds:
            got = heckeops.symmetrizer_stabilized(
                spec, labels, depth, margin=margin, seed=seed)
            want = _stabilized_by_exact_layers(
                spec, exact, depth, margin, kind, max_length + margin)
            assert got[1:] == want[1:]
            assert got[0] == want[0]


def test_whittaker_golden_is_the_sum_of_exact_layers():
    # where the golden comes from: the stabilized sum on A1! (0, 1) at
    # depth 4 and margin 2 with every layer's values built exactly, a route
    # that shares the T_i kernel but not the walker or its settle path
    data = json.loads((GOLDEN / "whittaker_A1aff_0_1_depth4.json").read_text())
    achieved = data.pop("achieved_L")
    want, length, _ = _stabilized_by_exact_layers(
        A1A, _mono(A1A, (0, 1)), 4, 2, T_KIND, 18)
    assert length == achieved
    assert series_from_json(data) == want


@pytest.mark.parametrize("text, labels, depth", [("A3!", (0, 0, 0, 1), 6),
                                                 ("D4!", (0, 0, 0, 0, 1), 4)])
def test_walk_matches_the_golden_recorded_before_hull_pruning(text, labels,
                                                              depth):
    # regression pins written by tests/golden/make_goldens.py from the
    # walker that carried every term of its values
    name = (f"whittaker_{text.replace('!', 'aff')}_"
            f"{'_'.join(map(str, labels))}_depth{depth}.json")
    data = json.loads((GOLDEN / name).read_text())
    achieved, stabilized = data.pop("achieved_L"), data.pop("stabilized")
    spec = RootSystemSpec.parse(text)
    assert heckeops.symmetrizer_stabilized(spec, labels, depth) == \
        (series_from_json(data), achieved, stabilized)


def test_last_layer_skips_the_full_parent_values(monkeypatch):
    spec, labels, depth = A1A, (0, 1), 6
    expected = heckeops.symmetrizer_stabilized(spec, labels, depth)
    calls = []
    apply_T = heckeops.apply_T

    def counting_apply_T(spec, i, s, limit=None):
        calls.append(i)
        return apply_T(spec, i, s, limit)

    monkeypatch.setattr(heckeops, "apply_T", counting_apply_T)
    got = heckeops.symmetrizer_stabilized(spec, labels, depth)
    assert got == expected and got[2]
    layers = weyl.enumerate_layers(spec, got[1])
    # every layer but the final two, quiet ones is built exactly
    assert len(calls) == sum(len(layer) for layer in layers[1:-2])


def _q(spec, anchor, beta):
    """Q(beta) = 2<anchor + rho, beta> - beta^T A beta."""
    cartan = rootdata.build_cartan(spec)
    return (2 * sum((a + 1) * b for a, b in zip(anchor, beta))
            - sum(x * cartan[j][k] * y for j, x in enumerate(beta)
                  for k, y in enumerate(beta)))


def test_walker_values_have_the_terms_of_the_exact_route(monkeypatch):
    """The walker hands apply_T packed values.  Each one it passes holds
    exactly the terms of the VPoly route, and each one it gets back those
    of the VPoly route's image with Q <= q_max (all of them in the chain,
    which has no limit), so whatever counts the terms of apply_T calls
    counts the same terms."""
    checked = []
    dropped = 0
    apply_T = heckeops.apply_T

    def checking_apply_T(spec, i, s, limit=None):
        nonlocal dropped
        out = apply_T(spec, i, s, limit)
        terms = s.unpack()
        exact = apply_T(spec, i, PackedSeries.pack(s.anchor, terms,
                                                   s.var)).unpack()
        kept = {b: cf for b, cf in exact.items() if limit is None
                or _q(spec, s.anchor, b) <= limit[i - 1].q_max}
        dropped += len(exact) - len(kept)
        checked.append(set(s.terms) == set(terms)
                       and set(out.terms) == set(kept)
                       and out.unpack() == kept)
        return out

    monkeypatch.setattr(heckeops, "apply_T", checking_apply_T)
    heckeops.symmetrizer_stabilized(A1A, (0, 1), 6)
    heckeops.symmetrizer_stabilized(RootSystemSpec.parse("A2!"), (0, 0, 1), 3)
    heckeops.symmetrizer_chain(RootSystemSpec.parse("A3"), (1, 0, 1))
    assert len(checked) > 20 and all(checked) and dropped > 0


def _hull_displacement(cartan, lam, beta):
    """beta+, lam - beta+ the dominant conjugate of lam - beta, found by
    simple reflections."""
    n = len(cartan)
    while True:
        j = next((j for j in range(1, n + 1)
                  if weyl.pairing(cartan, lam, beta, j) < 0), None)
        if j is None:
            return beta
        beta = weyl.reflect(cartan, lam, beta, j)


def _hull_height(cartan, lam, beta):
    """ht(beta+), lam - beta+ the dominant conjugate of lam - beta."""
    return sum(_hull_displacement(cartan, lam, beta))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([A1A, RootSystemSpec.parse("A2!"),
                                   RootSystemSpec.parse("A3!")]),
       st.integers(0, 4), st.integers(1, 3), st.booleans())
def test_every_term_the_kernel_drops_lies_deeper_in_its_hull(
        data, spec, depth, margin, twisted):
    # the certificate's run-time witness: each term a walk's kernel drops,
    # beta, has (anchor + rho) - beta with a dominant conjugate whose
    # displacement lies deeper than the depth; the walks start at e^L or
    # at the seed T_1(e^L) of symmetrizer property (ii)
    n = spec.num_nodes
    labels = data.draw(st.tuples(*[st.integers(0, 2)] * n))
    cartan = rootdata.build_cartan(spec)
    lam = tuple(a + 1 for a in labels)
    seed = (heckeops.apply_T_word(spec, (1,), _mono(spec, labels))
            if twisted else None)
    kernel = heckeops._kernel
    dropped = []

    def recording_kernel(p, strings, i, limit=None):
        out = kernel(p, strings, i, limit)
        if limit is not None:
            full = kernel(p, strings, i).terms
            assert all(full[b] == x for b, x in out.terms.items())
            dropped.extend(b for b in full if b not in out.terms)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heckeops, "_kernel", recording_kernel)
        mp.setattr(heckeops, "MAX_LAYERS", 12)
        heckeops.symmetrizer_stabilized(spec, labels, depth, margin=margin,
                                        seed=seed)
    assert all(_hull_height(cartan, lam, b) > depth for b in dropped)


def test_a_q_max_one_step_too_small_changes_the_walk(monkeypatch):
    # the hull test can fail: below q_max it drops a term that feeds the sum
    spec, labels, depth = A1A, (0, 1), 6
    expected = heckeops.symmetrizer_stabilized(spec, labels, depth)
    q_max = heckeops._q_max
    monkeypatch.setattr(heckeops, "_q_max", lambda *args: q_max(*args) - 1)
    assert heckeops.symmetrizer_stabilized(spec, labels, depth) != expected


@pytest.mark.parametrize("text, labels, depth, kind, max_length",
                         WALK_CASES)
def test_stop_is_the_same_at_the_edges_of_max_layers_and_layer_cap(
        text, labels, depth, kind, max_length):
    """The last `margin` layers of a stop are quiet, so the series is
    already whole one layer earlier: MAX_LAYERS = L - 1 returns it
    unstabilized, and MAX_LAYERS = L stabilized.  The final layer L, the
    one settled ahead of the layer before it when margin >= 2, is still
    capped: a cap below its size raises, and a cap of its size changes
    nothing."""
    spec = RootSystemSpec.parse(text)
    layers = weyl.orbit_layers(rootdata.build_cartan(spec),
                               (1,) * spec.num_nodes)
    sizes = [size for _, (_, _, size) in zip(range(max_length + 3),
                                             layers)]
    for margin in (1, 2, 3):
        def walk(max_layers=heckeops.MAX_LAYERS, **kw):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(heckeops, "MAX_LAYERS", max_layers)
                return heckeops.symmetrizer_stabilized(
                    spec, labels, depth, margin=margin, **kw)
        total, length, stabilized = walk()
        assert stabilized and sizes[length - 1] == max(sizes[:length])
        assert walk(max_layers=length - 1) == (total, length - 1, False)
        assert walk(max_layers=length) == (total, length, True)
        size = sizes[length - 1]
        with pytest.raises(HeckeError, match=f"^layer of size {size} "
                           f"exceeds cap {size - 1}$"):
            walk(layer_cap=size - 1)
        assert walk(layer_cap=size) == (total, length, True)


# -- the walk's symmetries -------------------------------------------------

def _identity_only(cartan, anchor, terms):
    return [tuple(range(len(cartan)))]


def _relabelled(beta, g):
    """beta with coordinate k moved to g[k]."""
    out = [0] * len(beta)
    for k, b in enumerate(beta):
        out[g[k]] = b
    return tuple(out)


def _symmetries_by_brute_force(cartan, anchor, terms):
    """Every permutation g of the nodes that keeps the Cartan matrix and
    the labels and maps the term map onto itself, in lexicographic order:
    _symmetries' oracle."""
    n = len(cartan)
    return [g for g in itertools.permutations(range(n))
            if all(cartan[g[j]][g[k]] == cartan[j][k]
                   for j in range(n) for k in range(n))
            and all(anchor[g[k]] == anchor[k] for k in range(n))
            and {_relabelled(b, g): x for b, x in terms.items()} == terms]


@pytest.mark.parametrize("spec", [RootSystemSpec.parse(t) for t in (
    "A1", "A2", "A3", "A4", "A5", "D4", "D5",
    "A1!", "A2!", "A3!", "A4!", "D4!")], ids=str)
def test_symmetries_match_the_brute_force_search(spec):
    # every spec of at most 5 nodes, a few label vectors, and the seeds
    # e^L, T_1(e^L) and T_n(e^L)
    cartan = rootdata.build_cartan(spec)
    n = spec.num_nodes
    for labels in {(0,) * n, (0,) * (n - 1) + (1,), (1,) + (0,) * (n - 1),
                   tuple(k % 2 for k in range(n)), tuple(range(n)),
                   (1,) * n}:
        monomial = _mono(spec, labels)
        for word in ((), (1,), (n,)):
            terms = heckeops.apply_T_word(spec, word, monomial).terms
            got = heckeops._symmetries(cartan, labels, terms)
            assert got[0] == tuple(range(n))
            assert got == _symmetries_by_brute_force(cartan, labels, terms)


@pytest.mark.parametrize("text, labels, order, broken", [
    ("A1!", (0, 1), 1, 1),
    ("A1!", (1, 1), 2, 1),
    ("A2!", (0, 0, 1), 2, 1),
    ("A3!", (0, 0, 0, 1), 2, 1),
    ("D4!", (0, 0, 0, 0, 1), 6, 2)])
def test_symmetries_of_the_fundamental_weights(text, labels, order, broken):
    # |G| at e^L, and at the seed T_1(e^L), which breaks the symmetry
    spec = RootSystemSpec.parse(text)
    cartan = rootdata.build_cartan(spec)
    monomial = _mono(spec, labels)
    assert [len(heckeops._symmetries(
        cartan, labels, heckeops.apply_T_word(spec, word, monomial).terms))
        for word in ((), (1,))] == [order, broken]


@pytest.mark.parametrize("text, labels, depth, order", [
    ("A2!", (0, 0, 1), 6, 2),
    ("A3!", (0, 0, 0, 1), 4, 2),
    ("D4!", (0, 0, 0, 0, 1), 3, 6),
    ("D4!", (0, 0, 0, 0, 0), 3, 24),
    ("A1!", (1, 1), 6, 2)])
def test_the_walk_over_orbits_matches_the_walk_over_elements(
        text, labels, depth, order):
    """With G the walk builds one value per orbit of each layer; with the
    identity alone, one per element.  Both give the same terms, length and
    flag, at e^L and at the seeds T_i(e^L) of symmetrizer property (ii),
    at margins 1-3 and where MAX_LAYERS leaves the sum unstabilized, and
    G saves apply_T calls at e^L."""
    spec = RootSystemSpec.parse(text)
    n = spec.num_nodes
    monomial = _mono(spec, labels)
    seeds = [None] + [heckeops.apply_T_word(spec, (i,), monomial)
                      for i in range(1, n + 1)]
    assert len(heckeops._symmetries(
        rootdata.build_cartan(spec), labels,
        heckeops.apply_T_word(spec, (), monomial).terms)) == order
    calls = []
    apply_T = heckeops.apply_T

    def counting_apply_T(spec, i, s, limit=None):
        calls.append(i)
        return apply_T(spec, i, s, limit)

    def walk(seed, margin, symmetries, max_layers=heckeops.MAX_LAYERS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heckeops, "_symmetries", symmetries)
            mp.setattr(heckeops, "MAX_LAYERS", max_layers)
            mp.setattr(heckeops, "apply_T", counting_apply_T)
            calls.clear()
            return heckeops.symmetrizer_stabilized(
                spec, labels, depth, margin=margin, seed=seed), len(calls)

    for margin in (1, 2, 3):
        for seed in seeds:
            (got, fewer), (want, every) = (
                walk(seed, margin, symmetries)
                for symmetries in (heckeops._symmetries, _identity_only))
            assert got == want and fewer <= every
            if seed is None:
                assert got[2] and fewer < every
    cut, want = (walk(None, 2, symmetries, max_layers=3)[0]
                 for symmetries in (heckeops._symmetries, _identity_only))
    assert cut == want and not cut[2]


def _orbits_of_the_plain_layer(acts, steps):
    """The first step (c, i, p) of each G-orbit of a layer of the plain
    BFS, in order, and {c: the act of one g per element g c != c of c's
    orbit}, acts those of G's non-identity elements: how the walk grouped
    the plain BFS into orbits before it walked W/G, the oracle of the
    walk over W/G."""
    firsts, images, seen = [], {}, set()
    for c, i, p in steps:
        if c not in seen:
            found = {c: None}
            for act in acts:
                found.setdefault(act(c), act)
            seen.update(found)
            firsts.append((c, i, p))
            images[c] = [act for act in found.values() if act is not None]
    return firsts, images


@pytest.mark.parametrize("text, labels, order", [
    ("A2!", (0, 0, 1), 2),
    ("D4!", (0, 0, 0, 0, 1), 6),
    ("A3!", (1, 1, 1, 1), 8),
    ("D4!", (0, 1, 0, 0, 0), 24)])
def test_the_walk_over_w_mod_g_finds_the_first_elements_of_the_plain_walk(
        text, labels, order):
    """Over the first 8 layers, orbit_layers handed G's actions yields the
    first steps (orbit key, letter, parent) and images that grouping the
    plain BFS into G-orbits gives, and each layer's element count is the
    plain layer's size; it expands fewer elements than there are."""
    spec = RootSystemSpec.parse(text)
    cartan = rootdata.build_cartan(spec)
    ones = (1,) * spec.num_nodes
    group = heckeops._symmetries(cartan, labels, heckeops.apply_T_word(
        spec, (), _mono(spec, labels)).terms)
    assert len(group) == order
    acts = heckeops._actions(group)
    assert len(acts) == order - 1
    got = list(itertools.islice(weyl.orbit_layers(cartan, ones, acts=acts),
                                8))
    want = [(*_orbits_of_the_plain_layer(acts, steps), len(steps))
            for steps, _, _ in itertools.islice(
                weyl.orbit_layers(cartan, ones), 8)]
    assert got == want
    assert sum(len(firsts) for firsts, _, _ in got) < sum(
        size for _, _, size in got)


def test_the_layer_cap_counts_every_element_of_a_walk_over_w_mod_g():
    # |G| = 24: the largest layer walked holds 24 times more elements than
    # it has orbits at most, and the cap reads its elements
    spec, labels, depth = RootSystemSpec.parse("D4!"), (0, 1, 0, 0, 0), 3
    assert len(heckeops._symmetries(
        rootdata.build_cartan(spec), labels,
        heckeops.apply_T_word(spec, (), _mono(spec, labels)).terms)) == 24
    total, length, stabilized = heckeops.symmetrizer_stabilized(
        spec, labels, depth)
    layers = weyl.orbit_layers(rootdata.build_cartan(spec),
                               (1,) * spec.num_nodes)
    size = max(size for _, (_, _, size) in zip(range(length), layers))
    assert stabilized and size > 24
    assert heckeops.symmetrizer_stabilized(
        spec, labels, depth, layer_cap=size) == (total, length, stabilized)
    with pytest.raises(HeckeError, match=f"^layer of size {size} "
                       f"exceeds cap {size - 1}$"):
        heckeops.symmetrizer_stabilized(spec, labels, depth,
                                        layer_cap=size - 1)


def test_a_symmetry_that_moves_the_labels_changes_the_walk(monkeypatch):
    # the planted fault: a "group" whose swap of nodes 1 and 2 moves the
    # label of node 2, so that it maps T_w(e^L) to no T_w'(e^L)
    spec, labels, depth = RootSystemSpec.parse("A2!"), (0, 0, 1), 6
    expected = heckeops.symmetrizer_stabilized(spec, labels, depth)
    monkeypatch.setattr(heckeops, "_symmetries",
                        lambda *args: [(0, 1, 2), (0, 2, 1)])
    assert heckeops.symmetrizer_stabilized(spec, labels, depth) != expected


def test_the_chain_walks_every_element(monkeypatch):
    # the exact sum (depth None) keeps the identity group and never asks
    # for G
    def no_symmetries(*args):
        raise AssertionError("the chain looked for symmetries")

    monkeypatch.setattr(heckeops, "_symmetries", no_symmetries)
    total, length = heckeops.symmetrizer_chain(
        RootSystemSpec.parse("D4"), (0, 1, 0, 0))
    assert length == 12 and total.terms


# -- the parabolic chain ---------------------------------------------------

@pytest.mark.parametrize("text, labels", [("A4", (2, 1, 1, 0)),
                                          ("A4", (1, 1, 1, 1)),
                                          ("D4", (1, 0, 1, 0)),
                                          ("D4", (0, 1, 0, 0))])
def test_chain_matches_walker(text, labels):
    """The chain's series and l(w0) equal a BFS over all of W that adds
    every T_w(e^L) as a series.  Acceptance criterion 1 checks the chain
    on the A3 and D4 label grids against the Casselman-Shalika product, so
    the slower BFS runs only here."""
    spec = RootSystemSpec.parse(text)
    total, length = heckeops.symmetrizer_chain(spec, labels)
    assert (AnchoredSeries(spec, total.anchor, total.unpack()), length) == \
        _summed_by_exact_layers(spec, labels)


def test_chain_carries_a_value_wider_than_64_bits_across_cosets(
        monkeypatch):
    """A seed scaled by 2^60 fits 64 bits at the first coset.  The bound
    that the chain carries, the accumulator's, passes 2^63 in a later
    coset, so the next coset starts on a wider value.  The sum is still
    the exact one, scaled."""
    spec, labels, scale = RootSystemSpec.parse("A3"), (1, 0, 1), 2 ** 60
    want, want_length = _summed_by_exact_layers(spec, labels)
    monomial = AnchoredSeries.monomial.__func__
    monkeypatch.setattr(AnchoredSeries, "monomial", classmethod(
        lambda cls, spec, anchor, beta=None, coeff=1, depth=None:
        monomial(cls, spec, anchor, beta, coeff * scale, depth)))
    seeds = []
    walk = heckeops._walk

    def recording_walk(spec, nodes, labels, seed, *args):
        seeds.append((seed.width, seed.bound))
        return walk(spec, nodes, labels, seed, *args)

    monkeypatch.setattr(heckeops, "_walk", recording_walk)
    total, length = heckeops.symmetrizer_chain(spec, labels)
    widths = [width for width, _ in seeds]
    assert widths[0] == 64 < widths[-1]
    assert any(a == 64 < b for a, b in zip(widths, widths[1:]))
    assert max(bound for _, bound in seeds) >> 63
    assert length == want_length
    assert total.unpack() == {b: cf * scale for b, cf in want.terms.items()}


def _cosets(spec, labels):
    """The orbit layer sizes of each coset of the chain, in the order of
    nodes that it walks for the labels."""
    cartan = rootdata.build_cartan(spec)
    nodes = heckeops._chain_nodes(cartan, labels)
    return [[size for _, _, size in weyl.orbit_layers(
                heckeops._block(cartan, nodes[:k]), (0,) * (k - 1) + (1,))]
            for k in range(1, len(nodes) + 1)]


@pytest.mark.parametrize("text", ["A1", "A2", "A3", "A4", "A5", "D4", "D5"])
def test_parabolic_cosets_multiply_to_the_layer_sizes(text):
    # the cosets are the minimal coset representatives: their layer-size
    # polynomials multiply to W's Poincare polynomial
    spec = RootSystemSpec.parse(text)
    sizes = [1]
    for coset in _cosets(spec, (0,) * spec.num_nodes):
        product = [0] * (len(sizes) + len(coset))
        for a, x in enumerate(sizes):
            for b, y in enumerate([1] + coset):
                product[a + b] += x * y
        sizes = product
    assert sizes == [len(layer)
                     for layer in weyl.enumerate_layers(spec, 10 ** 9)]


@pytest.mark.parametrize("text", ["A1", "A2", "A3", "A4", "A5", "D4"])
def test_chain_length_is_the_number_of_positive_coroots(text):
    # l(w0) = |positive coroots|, as the sum of the cosets' lengths
    spec = RootSystemSpec.parse(text)
    _, length = heckeops.symmetrizer_chain(spec, (0,) * spec.num_nodes)
    assert length == len(rootdata.positive_coroots_up_to(spec, None))


@pytest.mark.parametrize("text, caps", [("A3", (0, 1)), ("D4", (1, 2))])
def test_chain_layer_cap_error_is_the_walkers(text, caps):
    """The chain's cap bounds one coset layer, the most it holds at once.
    The largest holds m elements (caps = (m - 1, m)): the walker raises at
    cap m - 1, when it reaches that layer, and the sum runs at cap m."""
    spec = RootSystemSpec.parse(text)
    labels = (0,) * spec.num_nodes
    below, largest = caps
    assert max(size for coset in _cosets(spec, labels)
               for size in coset) == largest
    with pytest.raises(HeckeError, match=f"^layer of size {largest} "
                       f"exceeds cap {below}$"):
        heckeops.symmetrizer_chain(spec, labels, below)
    capped, uncapped = (heckeops.symmetrizer_chain(spec, labels, cap)
                        for cap in (largest, None))
    assert (capped[0].unpack(), capped[1]) == \
        (uncapped[0].unpack(), uncapped[1])


@pytest.mark.parametrize("text, largest", [("A5", 1), ("D4", 2), ("D5", 2),
                                           ("D6", 2), ("E6", 3)])
def test_largest_coset_layer(text, largest):
    # the most the chain holds at once, so the least layer cap it runs
    # under; D6's is 2 in the chosen order, against 3 in the order 1..6
    spec = RootSystemSpec.parse(text)
    assert max(size for coset in _cosets(spec, (0,) * spec.num_nodes)
               for size in coset) == largest


def _chain_work(spec, labels, nodes=None):
    """(apply_T calls, their input terms, total, l(w0)) of one chain,
    walked in the order nodes (None: the one _chain_nodes chooses)."""
    work = [0, 0]
    apply_T = heckeops.apply_T

    def counting_apply_T(spec, i, s, limit=None):
        work[0] += 1
        work[1] += len(s.terms)
        return apply_T(spec, i, s, limit)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heckeops, "apply_T", counting_apply_T)
        if nodes is not None:
            mp.setattr(heckeops, "_chain_nodes", lambda *args: nodes)
        total, length = heckeops.symmetrizer_chain(spec, labels)
    return work[0], work[1], total.unpack(), length


@pytest.mark.parametrize("text, labels, work", [
    ("A4", (2, 1, 1, 0), (10, 3968)),
    ("D4", (1, 0, 1, 0), (13, 4189)),
    ("D4", (0, 1, 0, 0), (13, 3577))])
def test_chain_work_is_the_same_under_every_diagram_automorphism(
        text, labels, work):
    """The chain's order depends on the diagram and the labels only, not on
    how the nodes are numbered: relabelled by any automorphism of the
    Cartan matrix, the labels cost the same apply_T calls and terms."""
    spec = RootSystemSpec.parse(text)
    cartan = rootdata.build_cartan(spec)
    n = spec.num_nodes
    automorphisms = [perm for perm in itertools.permutations(range(n))
                     if all(cartan[perm[i]][perm[j]] == cartan[i][j]
                            for i in range(n) for j in range(n))]
    assert len(automorphisms) == {"A4": 2, "D4": 6}[text]
    for perm in automorphisms:
        relabelled = [0] * n
        for i, x in enumerate(labels):
            relabelled[perm[i]] = x
        assert _chain_work(spec, tuple(relabelled))[:2] == work


@pytest.mark.parametrize("text, labels", [("A4", (2, 1, 1, 0)),
                                          ("D4", (1, 0, 1, 0)),
                                          ("D4", (2, 0, 0, 1))])
def test_chain_order_feeds_nearly_the_fewest_terms(text, labels):
    """Every order of the nodes gives the same series and l(w0), and the
    chosen one feeds apply_T within 1 % of the fewest terms of all 24."""
    spec = RootSystemSpec.parse(text)
    _, terms, total, length = _chain_work(spec, labels)
    least = terms
    for nodes in itertools.permutations(range(1, 5)):
        _, other, other_total, other_length = _chain_work(spec, labels,
                                                          nodes)
        assert (other_total, other_length) == (total, length)
        least = min(least, other)
    assert terms <= least * 1.01


def test_chain_order_beats_the_order_of_the_numbering_on_d5():
    # 135,953 terms against 180,162 for J_k = {1..k}
    spec, labels = RootSystemSpec.parse("D5"), (1, 0, 0, 0, 1)
    _, terms, total, length = _chain_work(spec, labels)
    _, numbered, numbered_total, numbered_length = _chain_work(
        spec, labels, (1, 2, 3, 4, 5))
    assert (total, length) == (numbered_total, numbered_length)
    assert terms < numbered * 0.8


def test_chain_refuses_an_affine_spec():
    with pytest.raises(HeckeError):
        heckeops.symmetrizer_chain(A1A, (0, 1))
