"""Weyl group elements as reduced words, layer-by-layer enumeration with
orbit-key deduplication, and the action on anchored exponents.

An element w is identified by its orbit key rho^vee - w(rho^vee) in
simple-coroot coordinates: rho^vee is regular, so the key is faithful,
and it hashes cheaply.  BFS extends by left multiplication, so the first
letter of every stored word is a left descent.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import rootdata
from .vseries import AnchoredSeries, SeriesError


class WeylError(ValueError):
    """Bad generator index, identity descent query, or layer-cap overflow."""


@dataclass(frozen=True)
class WeylElement:
    """A group element: reduced word (1-based letters) plus orbit key."""

    word: tuple
    orbit_key: tuple

    @property
    def length(self):
        return len(self.word)

    @property
    def sign(self):
        return -1 if self.length % 2 else 1


def reflect(cartan, labels, beta, i):
    """Displacement of the i-th simple reflection of e^{anchor - beta}.

    With k = <a_i, anchor - beta> = labels[i-1] - (A beta)_{i-1}, the image
    is anchor - (beta + k * unit_i); self-inverse.
    """
    if not 1 <= i <= len(cartan):
        raise WeylError(f"generator index {i} out of range")
    k = labels[i - 1] - sum(cartan[i - 1][j] * beta[j]
                            for j in range(len(beta)))
    out = list(beta)
    out[i - 1] += k
    return tuple(out)


def pairing(cartan, labels, beta, i):
    """<a_i, anchor - beta> for a stored displacement beta."""
    return labels[i - 1] - sum(cartan[i - 1][j] * beta[j]
                               for j in range(len(beta)))


def identity_element(spec):
    return WeylElement((), (0,) * spec.num_nodes)


def left_descent(w):
    """First letter of the stored reduced word; a valid left descent."""
    if not w.word:
        raise WeylError("identity element has no descent")
    return w.word[0]


def enumerate_layers(spec, max_length, layer_cap=None):
    """Layers [L0, L1, ...] with Lk = all elements of Coxeter length k.

    BFS by left multiplication with orbit-key dedup; ties between
    equal-length words are broken by generator index, so output order is
    reproducible.  layer_cap bounds any single layer's size.
    """
    if max_length < 0:
        raise WeylError("max_length must be >= 0")
    cartan = rootdata.build_cartan(spec)
    n = spec.num_nodes
    ones = (1,) * n
    layers = [[identity_element(spec)]]
    seen = {layers[0][0].orbit_key}
    for _ in range(max_length):
        nxt = []
        for w in layers[-1]:
            for i in range(1, n + 1):
                key = reflect(cartan, ones, w.orbit_key, i)
                if key not in seen:
                    seen.add(key)
                    nxt.append(WeylElement((i,) + w.word, key))
        if layer_cap is not None and len(nxt) > layer_cap:
            raise WeylError(
                f"layer of size {len(nxt)} exceeds cap {layer_cap}")
        if not nxt:
            break  # finite group exhausted
        layers.append(nxt)
    return layers


def act_on_series(spec, w, s):
    """Apply w to a finite series: reflect each exponent, letter by letter.

    Only exact (finite-support) series are accepted; w-images may leave
    the anchor cone, which exact series are allowed to do.
    """
    if not s.exact:
        raise SeriesError("W-action is only exact on finite series")
    cartan = rootdata.build_cartan(spec)
    word = w.word if isinstance(w, WeylElement) else tuple(w)
    out = {}
    for beta, cf in s.terms.items():
        for i in reversed(word):
            beta = reflect(cartan, s.anchor, beta, i)
        prev = out.get(beta)
        out[beta] = cf if prev is None else prev + cf
    out = {b: c for b, c in out.items() if c}
    return AnchoredSeries(s.spec, s.anchor, out, depth=None, exact=True,
                          _trusted=True)

