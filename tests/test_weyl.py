"""Unit tests for Weyl-group enumeration and reflection actions."""
import pytest

from dlhecke import rootdata, weyl
from dlhecke.rootdata import RootSystemSpec
from dlhecke.vseries import AnchoredSeries, VP_ONE

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
    for layer in weyl.enumerate_layers(A2, 3)[1:]:
        for w in layer:
            assert weyl.left_descent(w) == w.word[0]


def test_element_length_and_sign():
    layers = weyl.enumerate_layers(A2, 3)
    w0 = layers[3][0]
    assert w0.length == 3 and w0.sign == -1
    assert weyl.identity_element(A2).sign == 1


def test_act_on_series_is_group_action():
    s = AnchoredSeries.monomial(A2, (1, 1), beta=(1, 0))
    moved = weyl.act_on_series(A2, (1,), s)
    back = weyl.act_on_series(A2, (1,), moved)
    assert back.first_difference(s) is None
    both = weyl.act_on_series(A2, (1, 2), s)
    stepwise = weyl.act_on_series(A2, (1,), weyl.act_on_series(A2, (2,), s))
    assert both.first_difference(stepwise) is None


def test_act_on_series_requires_exact():
    from dlhecke.vseries import SeriesError
    s = AnchoredSeries.one(A2, 2).truncate(3)
    with pytest.raises(SeriesError):
        weyl.act_on_series(A2, (1,), s)

