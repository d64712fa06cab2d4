"""Demazure-Lusztig operators in the polynomial representation.

apply_T realizes, per monomial e^mu with k = <a_i, mu>,

    T_i(e^mu)  = [ (1 - v^-1 e^{-a_i}) e^{s_i mu} + (v^-1 - 1) e^mu ] / (1 - e^{a_i})
    T'_i(e^mu) = [ (1 - v    e^{+a_i}) e^{s_i mu} + (v    - 1) e^mu ] / (1 - e^{a_i})

with the division carried out exactly in the Laurent ring by
vseries.divide_exact: the quotient is assembled along each a_i-string and
the zero remainder is asserted on every call.  Word operators compose
right-to-left, so the first letter of a BFS word (a left descent) is
applied last.
"""
from __future__ import annotations

from . import rootdata, weyl
from .vseries import AnchoredSeries, VINV, V, divide_exact


class HeckeError(ValueError):
    """Non-exact input or symmetrizer cap overflow."""


T_KIND = "T"
TPRIME_KIND = "Tprime"


def _numerator_terms(cartan, anchor, terms, i, kind):
    """Raw term map of the pre-division numerator, all monomials at once."""
    if kind == T_KIND:
        shift_cf, const_cf = -VINV, VINV - 1
        shift_dir = +1  # e^{-a_i}
    elif kind == TPRIME_KIND:
        shift_cf, const_cf = -V, V - 1
        shift_dir = -1  # e^{+a_i}
    else:
        raise HeckeError(f"unknown operator kind {kind!r}")
    num = {}
    ii = i - 1

    def put(beta, cf):
        prev = num.get(beta)
        if prev is None:
            num[beta] = cf
        else:
            s = prev + cf
            if s:
                num[beta] = s
            else:
                del num[beta]

    for beta, cf in terms.items():
        bw = weyl.reflect(cartan, anchor, beta, i)
        put(bw, cf)
        shifted = list(bw)
        shifted[ii] += shift_dir
        put(tuple(shifted), cf * shift_cf)
        put(beta, cf * const_cf)
    return num


def apply_T_raw(cartan, anchor, terms, i, kind=T_KIND):
    """Operator application on a raw term map; see module docstring.

    Dividing by (1 - e^{a_i}) is dividing by (1 - e^{-alpha}) with
    alpha = -a_i, summed from the shallow end of each a_i-string."""
    num = _numerator_terms(cartan, anchor, terms, i, kind)
    alpha = tuple(-1 if j == i - 1 else 0 for j in range(len(cartan)))
    return divide_exact(num, alpha)


def apply_T(spec, i, s, kind=T_KIND):
    """T_i (or T'_i) applied to a finite exact series."""
    if not s.exact:
        raise HeckeError("apply_T needs an exact (finite) series")
    cartan = rootdata.build_cartan(spec)
    out = apply_T_raw(cartan, s.anchor, s.terms, i, kind)
    return AnchoredSeries(spec, s.anchor, out, depth=None, exact=True,
                          _trusted=True)


def apply_T_word(spec, word, s, kind=T_KIND):
    """T_w for a reduced word: rightmost letter acts first."""
    for i in reversed(tuple(word)):
        s = apply_T(spec, i, s, kind)
    return s


def quadratic_difference(spec, i, s, kind=T_KIND):
    """First (beta, lhs, rhs) where T_i^2 = (v^-1 - 1) T_i + v^-1 (or the
    v-version for T') fails on s, or None."""
    t1 = apply_T(spec, i, s, kind)
    t2 = apply_T(spec, i, t1, kind)
    u = VINV if kind == T_KIND else V
    rhs = t1.scale(u - 1) + s.scale(u)
    return t2.first_difference(rhs)


def braid_difference(spec, i, j, s, kind=T_KIND):
    """First (beta, lhs, rhs) where T_i T_j T_i = T_j T_i T_j fails on s
    (adjacent i, j; simply-laced), or None."""
    lhs = apply_T_word(spec, (i, j, i), s, kind)
    rhs = apply_T_word(spec, (j, i, j), s, kind)
    return lhs.first_difference(rhs)


def conjugation_difference(spec, i, s):
    """First (beta, lhs, rhs) where e^{-rho} T'_i e^{rho} = -v T_i fails on
    a finite series, or None.

    The rho-shift acts on the anchored data by raising every pairing
    label by one; exponent displacements are untouched.
    """
    shifted = AnchoredSeries(spec, tuple(a + 1 for a in s.anchor),
                             dict(s.terms), depth=None, exact=True,
                             _trusted=True)
    lhs_raw = apply_T(spec, i, shifted, TPRIME_KIND)
    lhs = AnchoredSeries(spec, s.anchor, dict(lhs_raw.terms), depth=None,
                         exact=True, _trusted=True)
    rhs = apply_T(spec, i, s, T_KIND).scale(-V)
    return lhs.first_difference(rhs)


def check_quadratic(spec, i, s, kind=T_KIND):
    """T_i^2 = (v^-1 - 1) T_i + v^-1 (or the v-version for T')."""
    return quadratic_difference(spec, i, s, kind) is None


def check_braid(spec, i, j, s, kind=T_KIND):
    """T_i T_j T_i = T_j T_i T_j for adjacent i, j (simply-laced)."""
    return braid_difference(spec, i, j, s, kind) is None


def check_conjugation(spec, i, s):
    """e^{-rho} T'_i e^{rho} = -v T_i on a finite series."""
    return conjugation_difference(spec, i, s) is None


def symmetrizer_partial(spec, anchor_labels, max_length, seed=None,
                        layer_cap=None, kind=T_KIND):
    """(sum_{l(w) <= L} T_w(seed), per-layer deltas), all exact.

    T_w is evaluated incrementally along the BFS: w = s_i w' with the
    length adding, so T_w(seed) = T_i(T_{w'}(seed)); values are memoized
    per orbit key and evicted once a layer is fully extended.
    """
    anchor_labels = tuple(anchor_labels)
    if seed is None:
        seed = AnchoredSeries.monomial(spec, anchor_labels)
    total = seed
    deltas = [seed]
    layer = [weyl.identity_element(spec)]
    seen = {layer[0].orbit_key}
    memo = {layer[0].orbit_key: seed}
    for _ in range(max_length):
        nxt = _extend_with_memo(spec, layer, seen, memo, layer_cap, kind)
        if not nxt:
            break
        delta = None
        for w in nxt:
            delta = memo[w.orbit_key] if delta is None else delta + memo[w.orbit_key]
        deltas.append(delta)
        total = total + delta
        for w in layer:
            del memo[w.orbit_key]
        layer = nxt
    return total, deltas


def _extend_with_memo(spec, layer, seen, memo, layer_cap, kind):
    cartan = rootdata.build_cartan(spec)
    n = spec.num_nodes
    ones = (1,) * n
    nxt = []
    for w in layer:
        for i in range(1, n + 1):
            key = weyl.reflect(cartan, ones, w.orbit_key, i)
            if key not in seen:
                seen.add(key)
                nw = weyl.WeylElement((i,) + w.word, key)
                memo[key] = apply_T(spec, i, memo[w.orbit_key], kind)
                nxt.append(nw)
    if layer_cap is not None and len(nxt) > layer_cap:
        raise HeckeError(f"layer of size {len(nxt)} exceeds cap {layer_cap}")
    return nxt


def symmetrizer_stabilized(spec, anchor_labels, depth, margin=2,
                           layer_cap=20000, seed=None, kind=T_KIND,
                           max_layers=500):
    """Partial symmetrizer truncated to `depth`, run until stabilization.

    Layers are added until `margin` consecutive layers contribute nothing
    at ht <= depth.  Returns (series, achieved_length, stabilized); an
    unstabilized result must be treated as unverified by callers.
    """
    if margin < 1:
        raise HeckeError("margin must be >= 1")
    anchor_labels = tuple(anchor_labels)
    if seed is None:
        seed = AnchoredSeries.monomial(spec, anchor_labels)
    total = seed.truncate(depth)
    layer = [weyl.identity_element(spec)]
    seen = {layer[0].orbit_key}
    memo = {layer[0].orbit_key: seed}
    quiet = 0
    achieved = 0
    for _ in range(max_layers):
        nxt = _extend_with_memo(spec, layer, seen, memo, layer_cap, kind)
        if not nxt:
            return total, achieved, True  # finite group exhausted
        achieved += 1
        contributed = False
        for w in nxt:
            piece = memo[w.orbit_key].truncate(depth)
            if not piece.is_zero():
                contributed = True
                total = total + piece
        for w in layer:
            del memo[w.orbit_key]
        layer = nxt
        quiet = 0 if contributed else quiet + 1
        if quiet >= margin:
            return total, achieved, True
    return total, achieved, False
