"""Unit tests for Weyl-group enumeration and reflection actions."""
from itertools import islice

import pytest

from dlhecke import rootdata, weyl
from dlhecke.rootdata import RootSystemSpec
from dlhecke.vseries import AnchoredSeries, SeriesError, VP_ONE
from weyl_action import act_on_series

A2 = RootSystemSpec.parse("A2")
A1A = RootSystemSpec.parse("A1!")


def test_reflect_matches_cartan_pairing():
    cartan = rootdata.build_cartan(A2)
    # anchor labels (1, 1): s_1 on beta = 0 gives k = 1
    assert weyl.reflect(cartan, (1, 1), (0, 0), 1) == (1, 0)
    # and is an involution
    assert weyl.reflect(cartan, (1, 1), (1, 0), 1) == (0, 0)


def test_pairing_values():
    cartan = rootdata.build_cartan(A1A)
    assert weyl.pairing(cartan, (0, 1), (0, 0), 2) == 1
    assert weyl.pairing(cartan, (0, 1), (1, 0), 2) == 3


def test_layer_sizes_finite():
    sizes = [len(l) for l in weyl.enumerate_layers(A2, 10)]
    assert sizes == [1, 2, 2, 1]
    d4 = RootSystemSpec.parse("D4")
    total = sum(len(l) for l in weyl.enumerate_layers(d4, 10 ** 9,
                                                      layer_cap=10 ** 6))
    assert total == 192


def test_layer_sizes_affine_dihedral():
    sizes = [len(l) for l in weyl.enumerate_layers(A1A, 5)]
    assert sizes == [1, 2, 2, 2, 2, 2]


def test_first_letter_is_left_descent():
    # w = s_i w' with w' the parent: s_i raises the length of w' exactly
    # when <a_i, w'(rho^vee)> > 0, i.e. the pairing on the parent's key
    cartan = rootdata.build_cartan(A2)
    layers = weyl.enumerate_layers(A2, 3)
    keys = {w.word: w.orbit_key for layer in layers for w in layer}
    for layer in layers[1:]:
        for w in layer:
            parent = keys[w.word[1:]]
            assert weyl.pairing(cartan, (1, 1), parent, w.word[0]) > 0
            assert weyl.reflect(cartan, (1, 1), parent, w.word[0]) == \
                w.orbit_key


def test_element_length():
    layers = weyl.enumerate_layers(A2, 3)
    w0 = layers[3][0]
    assert len(w0.word) == 3
    (identity,) = weyl.enumerate_layers(A2, 0)[0]
    assert identity.word == ()


def test_orbit_layers_yields_each_child_once_in_parent_order():
    cartan = rootdata.build_cartan(A2)
    layers = list(weyl.orbit_layers(cartan, (1, 1)))
    assert [len(l) for l in layers] == [2, 2, 1]
    assert layers[0] == [((1, 0), 1, (0, 0)), ((0, 1), 2, (0, 0))]
    children = [c for layer in layers for c, _, _ in layer]
    assert len(set(children)) == len(children) == 5
    for previous, layer in zip([[((0, 0), None, None)]] + layers, layers):
        order = [c for c, _, _ in previous]
        parents = [order.index(p) for _, _, p in layer]
        assert parents == sorted(parents)


def test_orbit_layers_keep_prunes_without_expanding():
    # A1!: the orbit of rho^vee is infinite; keeping ht <= 4 makes it finite
    cartan = rootdata.build_cartan(A1A)
    layers = list(weyl.orbit_layers(cartan, (1, 1),
                                    keep=lambda b: sum(b) <= 4))
    kept = [c for layer in layers for c, _, _ in layer]
    assert all(sum(c) <= 4 for c in kept)
    assert len(kept) == len(set(kept)) == 4


RANK_5_SPECS = [RootSystemSpec.parse(f"{family}{rank}{bang}")
                for family, ranks in (("A", range(1, 6)), ("D", (4, 5)))
                for rank in ranks for bang in ("", "!")]


def _orbit_layers_by_reflections(cartan, labels, keep=None):
    """orbit_layers as a plain BFS that tries all n simple reflections of
    every element: its oracle."""
    n = len(cartan)
    layer = [(0,) * n]
    seen = set(layer)
    while True:
        nxt = []
        for parent in layer:
            for i in range(1, n + 1):
                child = weyl.reflect(cartan, labels, parent, i)
                if child not in seen and (keep is None or keep(child)):
                    seen.add(child)
                    nxt.append((child, i, parent))
        if not nxt:
            return
        yield nxt
        layer = [child for child, _, _ in nxt]


@pytest.mark.parametrize("spec", RANK_5_SPECS, ids=str)
def test_orbit_layers_match_the_bfs_over_every_reflection(spec):
    # the ascent-only BFS against the one trying every generator, on
    # regular, fundamental and mixed dominant labels; an affine orbit
    # without keep is compared on its first layers
    cartan = rootdata.build_cartan(spec)
    n = len(cartan)
    labelings = [(1,) * n, tuple(2 if j == 0 else int(j == n - 1)
                                 for j in range(n))]
    labelings += [tuple(int(j == k) for j in range(n)) for k in range(n)]
    for labels in labelings:
        for keep in (None, lambda beta: sum(beta) <= 4):
            layers = 8 if spec.affine and keep is None else None
            got = list(islice(weyl.orbit_layers(cartan, labels, keep),
                              layers))
            want = list(islice(_orbit_layers_by_reflections(
                cartan, labels, keep), layers))
            assert got == want


def test_orbit_layers_refuse_labels_that_are_not_dominant():
    cartan = rootdata.build_cartan(A2)
    with pytest.raises(weyl.WeylError, match="dominant"):
        next(weyl.orbit_layers(cartan, (1, -1)))


def test_act_on_series_is_group_action():
    s = AnchoredSeries.monomial(A2, (1, 1), beta=(1, 0))
    moved = act_on_series(A2, (1,), s)
    back = act_on_series(A2, (1,), moved)
    assert back.first_difference(s) is None
    # a simple reflection is a bijection on displacements: no terms merge
    terms = {(0, 0): VP_ONE, (1, 0): -VP_ONE, (2, 1): VP_ONE}
    image = weyl.reflect_terms(rootdata.build_cartan(A2), (1, 1), terms, 1)
    assert len(image) == len(terms)
    both = act_on_series(A2, (1, 2), s)
    stepwise = act_on_series(A2, (1,), act_on_series(A2, (2,), s))
    assert both.first_difference(stepwise) is None


def test_act_on_series_requires_exact():
    s = AnchoredSeries.one(A2, 2).truncate(3)
    with pytest.raises(SeriesError):
        act_on_series(A2, (1,), s)

