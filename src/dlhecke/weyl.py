"""Weyl group orbits by breadth-first search, reduced words, and the
action on anchored exponents.

orbit_layers is the one BFS over a W-orbit in the library: the
symmetrizer walker, the signed character orbit and enumerate_layers all
iterate it.  An element w is identified by its orbit key
rho^vee - w(rho^vee) in simple-coroot coordinates: rho^vee is regular,
so the key is faithful, and it hashes cheaply.  BFS extends by left
multiplication, so the first letter of every stored word is a left
descent.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import rootdata


class WeylError(ValueError):
    """Bad generator index, negative length, or layer-cap overflow."""


@dataclass(frozen=True)
class WeylElement:
    """A group element: reduced word (1-based letters) plus orbit key."""

    word: tuple
    orbit_key: tuple


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


def orbit_layers(cartan, labels, keep=None):
    """BFS over the W-orbit of e^{anchor}, keyed by displacement from 0.

    Yields each new layer as [(child, letter, parent)]: child is the
    displacement of s_letter applied to the parent's exponent, each child
    appears once, in order of parent and then generator index, and a
    child failing keep is neither yielded nor expanded.  For regular
    labels a layer is one Coxeter length.  The generator ends when a
    layer comes out empty (a finite orbit is exhausted).

    The labels must be dominant (a negative one raises WeylError), and
    keep, if given, must hold at every displacement componentwise below
    one where it holds (a height bound does).  Then only the steps of
    pairing k = <a_i, anchor - parent> > 0 are taken, each adding k to
    coordinate i: k = 0 fixes the parent, and for k < 0 the child is the
    image of a shorter element, reached in an earlier layer along steps
    that only raise the displacement, so seen, or refused by keep.  Each
    element carries its pairings, and a child's are its parent's less k
    times column i of the Cartan matrix.
    """
    if any(x < 0 for x in labels):
        raise WeylError(f"orbit_layers needs dominant labels, got {labels}")
    n = len(cartan)
    # column i's nonzero entries (j, a_ji)
    cols = [[(j, row[i]) for j, row in enumerate(cartan) if row[i]]
            for i in range(n)]
    layer = [((0,) * n, labels)]  # (displacement, its pairings)
    seen = {(0,) * n}
    while True:
        nxt, grown = [], []
        for parent, pairings in layer:
            for i, k in enumerate(pairings):
                if k <= 0:
                    continue
                child = parent[:i] + (parent[i] + k,) + parent[i + 1:]
                if child not in seen and (keep is None or keep(child)):
                    seen.add(child)
                    nxt.append((child, i + 1, parent))
                    ks = list(pairings)
                    for j, a in cols[i]:
                        ks[j] -= a * k
                    grown.append((child, ks))
        if not nxt:
            return
        yield nxt
        layer = grown


def enumerate_layers(spec, max_length, layer_cap=None):
    """Layers [L0, L1, ...] with Lk = all elements of Coxeter length k.

    The layers of orbit_layers on rho^vee, each child's word being its
    letter followed by its parent's word.  layer_cap bounds any single
    layer's size.
    """
    if max_length < 0:
        raise WeylError("max_length must be >= 0")
    cartan = rootdata.build_cartan(spec)
    n = spec.num_nodes
    layers = [[WeylElement((), (0,) * n)]]
    for _, steps in zip(range(max_length), orbit_layers(cartan, (1,) * n)):
        if layer_cap is not None and len(steps) > layer_cap:
            raise WeylError(
                f"layer of size {len(steps)} exceeds cap {layer_cap}")
        words = {w.orbit_key: w.word for w in layers[-1]}
        layers.append([WeylElement((i,) + words[parent], child)
                       for child, i, parent in steps])
    return layers


def reflect_terms(cartan, anchor, terms, i):
    """The i-th simple reflection of a raw term map.  It is an involution
    on displacements, so no two terms collide."""
    return {reflect(cartan, anchor, beta, i): cf
            for beta, cf in terms.items()}

