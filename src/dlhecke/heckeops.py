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
        u, shift_dir = VINV, +1  # u e^{-a_i}
    elif kind == TPRIME_KIND:
        u, shift_dir = V, -1  # u e^{+a_i}
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
        ucf = cf * u  # a monomial factor: a shift of v-degrees
        put(tuple(shifted), -ucf)
        put(beta, ucf - cf)
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
    elements of length L.  BFS extends by left multiplication: w = s_i w'
    with the length adding, so T_w(seed) = T_i(T_{w'}(seed)), and each
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
    n = spec.num_nodes
    ones = (1,) * n
    anchor = seed.anchor
    zero = AnchoredSeries.zero(spec, anchor, depth=depth,
                               exact=depth is None)
    total = seed if depth is None else seed.truncate(depth)
    deltas = [total]
    layer = {(0,) * n: seed}  # orbit key -> T_w(seed)
    seen = set(layer)
    quiet = 0
    for _ in range(max_layers):
        steps = []  # (orbit key, letter, parent's value)
        for key, value in layer.items():
            for i in range(1, n + 1):
                child = weyl.reflect(cartan, ones, key, i)
                if child not in seen:
                    seen.add(child)
                    steps.append((child, i, value))
        if layer_cap is not None and len(steps) > layer_cap:
            raise HeckeError(
                f"layer of size {len(steps)} exceeds cap {layer_cap}")
        if not steps:
            return total, deltas, True  # finite group exhausted
        if (margin is not None and quiet == margin - 1
                and _quiet_from_reachable(cartan, anchor, steps, kind, depth)):
            deltas.append(zero)
            return total, deltas, True
        layer = {child: apply_T(spec, i, value, kind)
                 for child, i, value in steps}
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
    row = cartan[i - 1]
    label = anchor[i - 1]
    s = 1 if kind == T_KIND else -1
    out = {}
    for beta, cf in terms.items():
        k = label - sum(a * b for a, b in zip(row, beta))
        if sum(beta) + min(0, k, k + s) < depth:
            out[beta] = cf
    return out


def _quiet_from_reachable(cartan, anchor, steps, kind, depth):
    """True iff no new element contributes at ht <= depth, computed from
    the reachable part of each parent's value alone."""
    for _, i, parent in steps:
        out = apply_T_raw(cartan, anchor, _reachable_terms(
            cartan, anchor, parent.terms, i, kind, depth), i, kind)
        if any(sum(b) <= depth and min(b) >= 0 for b in out):
            return False
    return True
