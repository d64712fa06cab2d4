"""Demazure-Lusztig operators in the polynomial representation.

apply_T realizes, per monomial e^mu with k = <a_i, mu>,

    T_i(e^mu)  = [ (1 - v^-1 e^{-a_i}) e^{s_i mu} + (v^-1 - 1) e^mu ] / (1 - e^{a_i})
    T'_i(e^mu) = [ (1 - v    e^{+a_i}) e^{s_i mu} + (v    - 1) e^mu ] / (1 - e^{a_i})

with the division carried out exactly in the Laurent ring.  apply_T_raw
builds the numerator in one pass, string by string: the three numerator
positions of a monomial lie on its a_i-string, and their coefficients
are added as plain integers per v-degree.  It then hands the strings to
vseries._divide_strings, the same routine behind vseries.divide_exact,
which sums each string from its shallow end and asserts the zero
remainder of every string on every call.  Word operators compose
right-to-left, so the first letter of a BFS word (a left descent) is
applied last.
"""
from __future__ import annotations

from . import rootdata, weyl
from .vseries import AnchoredSeries, VINV, V, _divide_strings


class HeckeError(ValueError):
    """Non-exact input or symmetrizer cap overflow."""


T_KIND = "T"
TPRIME_KIND = "Tprime"


def _pairings(cartan, anchor, terms, i):
    """[k for each beta of terms], k = <a_i, anchor - beta>, computed from
    the nonzero entries of Cartan row i; i must lie in 1..n."""
    if not 1 <= i <= len(cartan):
        raise weyl.WeylError(f"generator index {i} out of range")
    row = [(j, a) for j, a in enumerate(cartan[i - 1]) if a]
    label = anchor[i - 1]
    return [label - sum(a * beta[j] for j, a in row) for beta in terms]


def apply_T_raw(cartan, anchor, terms, i, kind=T_KIND):
    """Operator application on a raw term map; see module docstring.

    One pass over the a_i-strings, keyed by beta without coordinate i.  A
    monomial cf e^{anchor - beta} with b = beta_i and
    k = <a_i, anchor - beta> puts cf at b + k (its reflection), -u cf at
    b + k + s and (u - 1) cf at b (u = v^-1, s = +1 for T; u = v,
    s = -1 for T'; a factor u shifts v-degrees).  They are added straight
    into {v-degree: int} dicts.  Each string is then divided by
    (1 - e^{a_i}), that is by (1 - e^{-alpha}) with alpha = -a_i, from
    its shallow end by vseries._divide_strings, which raises SeriesError
    on a nonzero remainder.  A generator outside 1..n raises WeylError.
    """
    if kind == T_KIND:
        e, s = -1, 1
    elif kind == TPRIME_KIND:
        e, s = 1, -1
    else:
        raise HeckeError(f"unknown operator kind {kind!r}")
    ii = i - 1
    strings = {}
    # t = -beta_i is the string coordinate along alpha = -a_i
    for (beta, cf), k in zip(terms.items(),
                             _pairings(cartan, anchor, terms, i)):
        key = beta[:ii] + beta[ii + 1:]
        string = strings.get(key)
        if string is None:
            strings[key] = string = {}
        t = -beta[ii]
        c = cf.c
        p = string.get(t - k)
        if p is None:
            string[t - k] = p = {}
        for d, x in c.items():
            p[d] = p.get(d, 0) + x
        p = string.get(t - k - s)
        if p is None:
            string[t - k - s] = p = {}
        for d, x in c.items():
            p[d + e] = p.get(d + e, 0) - x
        p = string.get(t)
        if p is None:
            string[t] = p = {}
        for d, x in c.items():
            p[d + e] = p.get(d + e, 0) + x
            p[d] = p.get(d, 0) - x
    alpha = tuple(-1 if j == ii else 0 for j in range(len(cartan)))
    return _divide_strings(strings, alpha)


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
    """(sum_{l(w) <= L} T_w(seed), per-layer deltas), all exact."""
    if seed is None:
        seed = AnchoredSeries.monomial(spec, tuple(anchor_labels))
    total, deltas, _ = _walk(spec, seed, max_length, layer_cap, kind)
    return total, deltas


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
    if seed is None:
        seed = AnchoredSeries.monomial(spec, tuple(anchor_labels))
    total, deltas, stabilized = _walk(spec, seed, max_layers, layer_cap,
                                      kind, depth, margin)
    return total, len(deltas) - 1, stabilized


def _walk(spec, seed, max_layers, layer_cap, kind, depth=None, margin=None):
    """Sum T_w(seed) over the Weyl group, one BFS layer (length) at a time.

    Returns (total, deltas, stabilized), deltas[L] being the sum over the
    elements of length L.  The layers are those of weyl.orbit_layers on
    rho^vee, which extends by left multiplication: w = s_i w' with the
    length adding, so T_w(seed) = T_i(T_{w'}(seed)), and each
    layer's exact values are built from its parents' and kept until the
    next layer has been built from them.  With depth None the sums are
    exact and the walk runs max_layers layers or to the end of a finite
    group.  With a depth every sum is truncated to ht <= depth (and to
    nonnegative displacements), and the walk stops, stabilized, after
    `margin` consecutive layers whose elements each contribute nothing
    there; stabilized is False when max_layers runs out first.

    The layer that would be the margin-th quiet one is first tried without
    its exact values: each element's truncated contribution is computed
    from the part of its parent's value that _reachable_terms keeps, the
    terms beta with ht(beta) + min(0, k, k + s) < depth, where
    k = <a_i, anchor - beta> and s = +1 for T, -1 for T'.  This is exact.
    T_i is linear.  The numerator of one monomial lies on a single
    a_i-string, at heights ht(beta), ht(beta) + k and ht(beta) + k + s,
    and its coefficients sum to zero.  The quotient, summed from the
    shallow end of the string, vanishes at and above the shallowest
    numerator position, so a dropped term has no output at ht <= depth.
    If every contribution is zero the walk ends there, that layer
    counted; otherwise the layer is built exactly.
    """
    if not seed.exact:
        raise HeckeError("the symmetrizer needs an exact (finite) seed")
    cartan = rootdata.build_cartan(spec)
    anchor = seed.anchor
    zero = AnchoredSeries.zero(spec, anchor, depth=depth,
                               exact=depth is None)
    total = seed if depth is None else seed.truncate(depth)
    deltas = [total]
    layer = {(0,) * spec.num_nodes: seed}  # orbit key -> T_w(seed)
    layers = weyl.orbit_layers(cartan, (1,) * spec.num_nodes)
    quiet = 0
    for _ in range(max_layers):
        steps = next(layers, None)  # [(orbit key, letter, parent's key)]
        if steps is None:
            return total, deltas, True  # finite group exhausted
        if layer_cap is not None and len(steps) > layer_cap:
            raise HeckeError(
                f"layer of size {len(steps)} exceeds cap {layer_cap}")
        if (margin is not None and quiet == margin - 1
                and _quiet_from_reachable(cartan, anchor, steps, layer,
                                          kind, depth)):
            deltas.append(zero)
            return total, deltas, True
        layer = {child: apply_T(spec, i, layer[parent], kind)
                 for child, i, parent in steps}
        if depth is None:
            pieces = list(layer.values())
        else:
            pieces = [p for p in (v.truncate(depth) for v in layer.values())
                      if not p.is_zero()]
            quiet = 0 if pieces else quiet + 1
        delta = sum(pieces, zero)
        deltas.append(delta)
        total = total + delta
        if margin is not None and quiet >= margin:
            return total, deltas, True
    return total, deltas, False


def _reachable_terms(cartan, anchor, terms, i, kind, depth):
    """The terms of a map whose T_i (or T'_i) image can reach ht <= depth:
    those with ht(beta) + min(0, k, k + s) < depth; see _walk."""
    s = 1 if kind == T_KIND else -1
    return {beta: cf for (beta, cf), k in zip(
        terms.items(), _pairings(cartan, anchor, terms, i))
        if sum(beta) + min(0, k, k + s) < depth}


def _quiet_from_reachable(cartan, anchor, steps, layer, kind, depth):
    """True iff no new element contributes at ht <= depth, computed from
    the reachable part of each parent's value (layer[parent]) alone."""
    for _, i, parent in steps:
        out = apply_T_raw(cartan, anchor, _reachable_terms(
            cartan, anchor, layer[parent].terms, i, kind, depth), i, kind)
        if any(sum(b) <= depth and min(b) >= 0 for b in out):
            return False
    return True
