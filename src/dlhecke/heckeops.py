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

Every sum of T_w(seed) over a Weyl orbit runs through one walker, _walk:
the stabilized sum over an affine W (symmetrizer_stabilized), and each
coset of the parabolic chain that sums over a finite W
(symmetrizer_chain).
"""
from __future__ import annotations

from . import rootdata, weyl
from .vseries import (AnchoredSeries, VINV, V, _divide_strings, add_into,
                      freeze)


class HeckeError(ValueError):
    """Non-exact input or symmetrizer cap overflow."""


T_KIND = "T"
TPRIME_KIND = "Tprime"
# defaults: a stabilized sum's quiet-layer margin, and the largest layer
# of exact values a walk may hold
DEFAULT_MARGIN = 2
DEFAULT_LAYER_CAP = 20000


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
    return _divide_strings(strings, ii, -1)


def apply_T(spec, i, s, kind=T_KIND):
    """T_i (or T'_i) applied to a finite exact series."""
    if not s.exact:
        raise HeckeError("apply_T needs an exact (finite) series")
    cartan = rootdata.build_cartan(spec)
    out = apply_T_raw(cartan, s.anchor, s.terms, i, kind)
    return AnchoredSeries(spec, s.anchor, out, _trusted=True)


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
                             dict(s.terms), _trusted=True)
    lhs_raw = apply_T(spec, i, shifted, TPRIME_KIND)
    lhs = AnchoredSeries(spec, s.anchor, dict(lhs_raw.terms), _trusted=True)
    rhs = apply_T(spec, i, s, T_KIND).scale(-V)
    return lhs.first_difference(rhs)


def symmetrizer_stabilized(spec, anchor_labels, depth, margin=DEFAULT_MARGIN,
                           layer_cap=DEFAULT_LAYER_CAP, seed=None,
                           kind=T_KIND, max_layers=500):
    """Partial symmetrizer truncated to `depth`, run until stabilization.

    Layers are added until `margin` consecutive layers contribute nothing
    at ht <= depth.  Returns (series, achieved_length, stabilized); an
    unstabilized result must be treated as unverified by callers.
    """
    if margin < 1:
        raise HeckeError("margin must be >= 1")
    if seed is None:
        seed = AnchoredSeries.monomial(spec, tuple(anchor_labels))
    return _walk(spec, rootdata.build_cartan(spec), (1,) * spec.num_nodes,
                 seed, max_layers, layer_cap, kind, depth, margin)


def symmetrizer_chain(spec, anchor_labels, layer_cap=None):
    """sum_{w in W} T_w(e^anchor) over a finite Weyl group, exactly, by the
    parabolic chain J_k = {1..k}.  Returns (total, l(w0)).

    Every w in W_{J_k} factors uniquely as w = u x with x in W_{J_{k-1}},
    u a minimal coset representative and l(w) = l(u) + l(x) (Humphreys,
    Reflection Groups and Coxeter Groups, 1.10).  So with X_0 = e^anchor,
    X_k = sum_u T_u(X_{k-1}) over those u, and X_n is the whole sum.  The
    u of step k are the orbit of the k-th fundamental coweight under
    W_{J_k}, which _walk walks on the leading k x k block of the Cartan
    matrix with labels (0, ..., 0, 1); a step of pairing <= 0 lands on a
    seen key.  l(w0) is the sum of the cosets' lengths, and layer_cap
    bounds each coset layer, the most the chain holds at once.
    """
    if spec.affine:
        raise HeckeError("the parabolic chain needs a finite spec")
    cartan = rootdata.build_cartan(spec)
    total = AnchoredSeries.monomial(spec, tuple(anchor_labels))
    length = 0
    for k in range(1, len(cartan) + 1):
        block = tuple(row[:k] for row in cartan[:k])
        total, coset_length, _ = _walk(spec, block, (0,) * (k - 1) + (1,),
                                       total, None, layer_cap, T_KIND)
        length += coset_length
    return total, length


def _walk(spec, cartan, labels, seed, max_layers, layer_cap, kind,
          depth=None, margin=None):
    """Sum T_w(seed) over the w of weyl.orbit_layers(cartan, labels), one
    BFS layer at a time; cartan is a leading block of spec's matrix, all
    of it when a margin is given.

    Returns (total, length, stabilized), length being the number of
    layers walked.  The walk extends by left multiplication: w = s_i w'
    with the length adding, so T_w(seed) = T_i(T_{w'}(seed)), and each
    layer's exact values are built from its parents' and kept until the
    next layer has been built from them.  A layer of more than layer_cap
    elements raises HeckeError.  Every value is added straight into one
    vseries.add_into accumulator.  With depth None the sum is exact and
    the walk runs max_layers layers (None: no limit) or to the end of a
    finite orbit.  With a depth every value is truncated to ht <= depth
    (and to nonnegative displacements), and the walk stops, stabilized,
    after `margin` consecutive quiet layers, whose elements each
    contribute nothing there; stabilized is False when max_layers runs
    out first.

    The last layers of a stop are settled without their exact values,
    from the values of the layer before them.  When one more quiet layer
    would stop the walk, layer L is settled: T_i is applied only to the
    a_i-strings of each parent's value that _strings_reaching keeps
    (_loud).  When two would, layers L and L + 1 are settled together:
    for each child s_j c of c = s_i p, that image of p's value is tested
    in turn with T_j.  If every contribution is zero the walk ends there,
    the settled layers counted; otherwise layer L is built exactly.

    This is exact.  T_i is linear and maps each a_i-string (the terms
    that differ only in beta_i) into itself.  A term beta, with
    k = <a_i, anchor - beta> and s = +1 for T, -1 for T', has its
    numerator at beta_i, beta_i + k and beta_i + k + s, with coefficients
    summing to zero, and the quotient, summed from the shallow end of the
    string, vanishes at and above the shallowest numerator position b0 of
    the string.  So T_i of a kept string is exact and lies deeper than b0.
    Along a string ht rises by one per step, and ht + min(0, k_j, k_j + s)
    rises too for j != i, as k_j changes by -a_ji >= 0.  A string is
    therefore dropped only if, one step deeper than b0, ht > depth and
    ht + min(0, k_j, k_j + s) >= depth for every child j: its image then
    holds no term at ht <= depth and no term that is j-reachable, and only
    j-reachable terms (_reachable_terms: ht(beta) + min(0, k, k + s)
    < depth, by the same argument) have a T_j image at ht <= depth.
    """
    if not seed.exact:
        raise HeckeError("the symmetrizer needs an exact (finite) seed")
    anchor = seed.anchor
    acc = {}
    add_into(acc, (seed if depth is None else seed.truncate(depth)).terms)
    layer = {(0,) * len(cartan): seed}  # orbit key -> T_w(seed)
    # [(orbit key, letter, parent's key)] per layer, capped
    layers = (_capped(steps, layer_cap)
              for steps in weyl.orbit_layers(cartan, labels))
    ahead = None  # the next layer's steps, taken by a look-ahead
    length = quiet = 0
    stabilized = False
    while max_layers is None or length < max_layers:
        steps = next(layers, None) if ahead is None else ahead
        ahead = None
        if steps is None:
            stabilized = True  # finite orbit exhausted
            break
        length += 1
        if margin is not None and quiet == margin - 1 and _quiet(
                cartan, anchor, steps, (), layer, kind, depth):
            stabilized = True
            break
        if (margin is not None and quiet == margin - 2
                and length != max_layers):
            ahead = next(layers, None)
            if ahead is not None and _quiet(cartan, anchor, steps, ahead,
                                            layer, kind, depth):
                length += 1
                stabilized = True
                break
        layer = {child: apply_T(spec, i, layer[parent], kind)
                 for child, i, parent in steps}
        loud = False
        for value in layer.values():
            terms = (value.terms if depth is None
                     else value.truncate(depth).terms)
            loud = loud or bool(terms)
            add_into(acc, terms)
        quiet = 0 if loud else quiet + 1
        if margin is not None and quiet >= margin:
            stabilized = True
            break
    total = AnchoredSeries(spec, anchor, freeze(acc), depth=depth,
                           _trusted=True)
    return total, length, stabilized


def _capped(steps, layer_cap):
    """steps, or HeckeError if the layer is larger than layer_cap."""
    if layer_cap is not None and len(steps) > layer_cap:
        raise HeckeError(
            f"layer of size {len(steps)} exceeds cap {layer_cap}")
    return steps


def _reachable_terms(cartan, anchor, terms, i, kind, depth):
    """The terms of a map whose T_i (or T'_i) image can reach ht <= depth:
    those with ht(beta) + min(0, k, k + s) < depth; see _walk."""
    s = 1 if kind == T_KIND else -1
    return {beta: cf for (beta, cf), k in zip(
        terms.items(), _pairings(cartan, anchor, terms, i))
        if sum(beta) + min(0, k, k + s) < depth}


def _loud(cartan, anchor, terms, i, kind, depth, js=()):
    """True iff T_i(terms), or T_j T_i(terms) for some j in js, has a term
    at ht <= depth with nonnegative displacement; T_i is applied to the
    a_i-strings that _strings_reaching keeps."""
    out = apply_T_raw(cartan, anchor, _strings_reaching(
        cartan, anchor, terms, i, js, kind, depth), i, kind)
    return (any(sum(b) <= depth and min(b) >= 0 for b in out)
            or any(_loud(cartan, anchor, out, j, kind, depth) for j in js))


def _strings_reaching(cartan, anchor, terms, i, js, kind, depth):
    """The a_i-strings of a map on which T_i can leave a term at
    ht <= depth, or a term that is j-reachable for some j in js, each
    tested at the shallowest position its image can hold; see _walk.

    s_i reverses a string, b -> c - b with b = beta_i, where c is
    <a_i, anchor - beta> at b = 0 (a_ii = 2).  So the shallowest numerator
    position on it is the lower of its least b and of its greatest b
    reflected and moved by min(0, s), and the image starts one step
    deeper."""
    shift = 1 if kind == T_KIND else 0  # 1 + min(0, s)
    ii = i - 1
    keys, span = [], {}
    for beta in terms:
        key = beta[:ii] + beta[ii + 1:]
        b = beta[ii]
        lo, hi = span.get(key, (b, b))
        span[key] = min(lo, b), max(hi, b)
        keys.append(key)
    cs = _pairings(cartan, anchor,
                   [key[:ii] + (0,) + key[ii:] for key in span], i)
    ends = {key[:ii] + (min(lo + 1, c - hi + shift),) + key[ii:]: key
            for (key, (lo, hi)), c in zip(span.items(), cs)}
    kept = {key for end, key in ends.items() if sum(end) <= depth}
    kept.update(key for j in js for key in _reachable_terms(
        cartan, anchor, ends, j, kind, depth).values())
    return {beta: cf for (beta, cf), key in zip(terms.items(), keys)
            if key in kept}


def _quiet(cartan, anchor, steps, ahead, layer, kind, depth):
    """True iff no element of the layer of steps, nor of the layer ahead
    of it (() for none), contributes at ht <= depth, computed from the
    values of the layer before them (layer[parent]) alone; see _walk."""
    children = {}
    for _, j, c in ahead:
        children.setdefault(c, []).append(j)
    return not any(_loud(cartan, anchor, layer[p].terms, i, kind, depth,
                         children.get(c, ()))
                   for c, i, p in steps)
