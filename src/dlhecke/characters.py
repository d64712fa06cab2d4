"""Weyl-Kac characters, plain and deformed denominators, the
Gindikin-Karpelevich product, and the imaginary-axis correction factor.

All results are anchored truncated series.  The weight rho appearing in
the character and denominator-twist formulas is realized as rho^vee, the
coweight with every pairing label equal to 1; the coweight avatar is the
only reading that type-checks inside the coweight group algebra.
"""
from __future__ import annotations

from . import rootdata, weyl
from .vseries import (AnchoredSeries, VPoly, VP_ONE, VINV, add_maps,
                      divide_exact, geometric_inverse, ht)


class CharacterError(ValueError):
    """Non-dominant labels or malformed character requests."""


def _binomial_factor(spec, u, beta, depth):
    """(1 - u e^{-beta}) as a truncated series at anchor 0."""
    n = spec.num_nodes
    terms = {(0,) * n: VP_ONE}
    if ht(beta) <= depth:
        terms[tuple(beta)] = -u if isinstance(u, VPoly) else VPoly(-u)
    return AnchoredSeries(spec, (0,) * n, terms, depth=depth, _trusted=True)


def denominator(spec, depth, deformed=False):
    """prod over positive coroots of (1 - u e^{-a})^mult to the depth;
    u = v^-1 when deformed, else 1."""
    u = VINV if deformed else VP_ONE
    n = spec.num_nodes
    out = AnchoredSeries.one(spec, n).truncate(depth)
    for cr in rootdata.positive_coroots_up_to(spec, depth):
        factor = _binomial_factor(spec, u, cr.coords, depth)
        for _ in range(cr.multiplicity):
            out = out * factor
    return out


def inverse_denominator(spec, depth, deformed=False):
    """1/D (or 1/D_v) factor-by-factor via geometric expansions."""
    u = VINV if deformed else VP_ONE
    n = spec.num_nodes
    out = AnchoredSeries.one(spec, n).truncate(depth)
    for cr in rootdata.positive_coroots_up_to(spec, depth):
        inv = geometric_inverse(spec, u, cr.coords, depth)
        for _ in range(cr.multiplicity):
            out = out * inv
    return out


def gk_delta(spec, depth):
    """Delta = prod (1 - v^-1 e^{-a})^m / (1 - e^{-a})^m to the depth."""
    return denominator(spec, depth, deformed=True) * \
        inverse_denominator(spec, depth, deformed=False)


def m_factor(spec, depth):
    """The correction factor on the imaginary axis,

        prod_{i=1..l} prod_{j>=1} (1 - v^{-m_i-1} e^{-jc}) / (1 - v^{-m_i} e^{-jc}),

    truncated to j*ht(c) <= depth; finite exponents m_i come from the
    underlying finite system."""
    if not spec.affine:
        raise CharacterError("m_factor lives on affine specs")
    exps = rootdata.exponents(spec.finite)
    c = rootdata.minimal_imaginary_coroot(spec).coords
    hc = ht(c)
    n = spec.num_nodes
    out = AnchoredSeries.one(spec, n).truncate(depth)
    j = 1
    while j * hc <= depth:
        jc = tuple(j * x for x in c)
        for m in exps:
            out = out * _binomial_factor(spec, VPoly.term(1, -m - 1), jc, depth)
            out = out * geometric_inverse(spec, VPoly.term(1, -m), jc, depth)
        j += 1
    return out


def _dominant(labels):
    labels = tuple(labels)
    if any(x < 0 for x in labels):
        raise CharacterError("dominant labels required")
    return labels


def _signed_orbit(spec, labels, depth):
    """{displacement of w(labels + rho): (-1)^{l(w)}} over the Weyl group,
    keeping the displacements of height <= depth.

    labels + rho is regular dominant, so w -> w(labels + rho) is injective
    and weyl.orbit_layers may deduplicate on displacements.  Every
    length-increasing step s_i w raises the height by
    <a_i, w(labels + rho)> >= 1, so the height bounds the length, a pruned
    element has no kept descendant and the search is finite at any
    depth."""
    cartan = rootdata.build_cartan(spec)
    shifted = tuple(x + 1 for x in labels)
    orbit = {(0,) * spec.num_nodes: 1}
    sign = 1
    for layer in weyl.orbit_layers(cartan, shifted,
                                   lambda beta: ht(beta) <= depth):
        sign = -sign
        for child, _, _ in layer:
            orbit[child] = sign
    return orbit


def character_numerator(spec, labels, depth):
    """sum_w (-1)^{l(w)} e^{w(anchor + rho) - rho}, anchored at the labels,
    to the given depth."""
    labels = _dominant(labels)
    terms = {b: VPoly(sign)
             for b, sign in _signed_orbit(spec, labels, depth).items()}
    return AnchoredSeries(spec, labels, terms, depth=depth, _trusted=True)


def weyl_kac_character(spec, labels, depth):
    """chi_Lambda to the given depth: numerator times 1/D."""
    num = character_numerator(spec, labels, depth)
    return num * inverse_denominator(spec, depth, deformed=False)


def finite_character_exact(spec, labels):
    """Exact finite Weyl character by the Demazure character formula,
    chi_Lambda = pi_{w0}(e^Lambda) (Demazure 1974; Kumar 2002, ch. VIII).

    pi_i f = (f - e^{-a_i} s_i f) / (1 - e^{-a_i}) is one exact division
    along a_i-strings (vseries.divide_exact), and pi_{w0} is the product
    of the pi_i along any reduced word of w0.  The word is a greedy walk
    up from rho^vee, on its orbit key: while some <a_i, w rho^vee> > 0,
    s_i w is one longer than w, and at w0 every such pairing is negative."""
    if spec.affine:
        raise CharacterError("finite spec required")
    labels = _dominant(labels)
    cartan = rootdata.build_cartan(spec)
    n = spec.num_nodes
    key, ones = (0,) * n, (1,) * n
    terms = {key: VP_ONE}
    while True:
        i = next((j for j in range(1, n + 1)
                  if weyl.pairing(cartan, ones, key, j) > 0), None)
        if i is None:
            return AnchoredSeries(spec, labels, terms, _trusted=True)
        key = weyl.reflect(cartan, ones, key, i)
        unit = tuple(int(j == i - 1) for j in range(n))
        # e^{-a_i} s_i f: the reflected displacements moved by +a_i
        image = weyl.reflect_terms(cartan, labels, terms, i)
        terms = divide_exact(add_maps(terms, {
            tuple(b + u for b, u in zip(beta, unit)): -cf
            for beta, cf in image.items()}), unit)


def denominator_wtwist_difference(spec, i, depth):
    """First (beta, lhs, rhs) where the w_i-twisted denominator identity
    D^{w_i} = -e^{a_i} D fails to the depth, or None.

    Both sides are pushed into the anchor cone: with P = the product over
    the remaining positive coroots of their s_i-images, the identity
    becomes  D = (1 - e^{-a_i}) P  up to the depth.  The s_i-images of
    coroots of height <= depth+2 cover every factor that can matter."""
    cartan = rootdata.build_cartan(spec)
    n = spec.num_nodes
    unit = tuple(1 if j == i - 1 else 0 for j in range(n))
    lhs = denominator(spec, depth, deformed=False)
    rhs = _binomial_factor(spec, VP_ONE, unit, depth)
    for cr in rootdata.positive_coroots_up_to(spec, depth + 2):
        if cr.coords == unit:
            continue
        img = weyl.reflect(cartan, (0,) * n, cr.coords, i)
        assert all(x >= 0 for x in img)
        if ht(img) > depth:
            continue  # factor is 1 at this truncation
        factor = _binomial_factor(spec, VP_ONE, img, depth)
        for _ in range(cr.multiplicity):
            rhs = rhs * factor
    return lhs.first_difference(rhs)
