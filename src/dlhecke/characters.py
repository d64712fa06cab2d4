"""Weyl-Kac characters, plain and deformed denominators, and the
imaginary-axis correction factor, the last two as factor lists for
vseries.times_factors.

All results are anchored truncated series.  The weight rho appearing in
the character and denominator-twist formulas is realized as rho^vee, the
coweight with every pairing label equal to 1; the coweight avatar is the
only reading that type-checks inside the coweight group algebra.
"""
from __future__ import annotations

from . import rootdata, weyl
from .vseries import (AnchoredSeries, VPoly, VP_ONE, VINV, add_maps,
                      divide_exact, ht)


class CharacterError(ValueError):
    """Non-dominant labels or malformed character requests."""


def denominator_factors(spec, depth, u, power):
    """[(a, u, power * mult)] over the positive coroots a of height <= depth:
    the factor list of prod_{a>0} (1 - u e^{-a})^(power * mult)."""
    return [(cr.coords, u, power * cr.multiplicity)
            for cr in rootdata.positive_coroots_up_to(spec, depth)]


def denominator(spec, depth, deformed=False):
    """prod over positive coroots of (1 - u e^{-a})^mult to the depth;
    u = v^-1 when deformed, else 1."""
    u = VINV if deformed else VP_ONE
    return AnchoredSeries.one(spec, spec.num_nodes, depth).times_factors(
        denominator_factors(spec, depth, u, 1))


def m_factors(spec, depth):
    """The factor list of the correction factor on the imaginary axis,

        prod_{i=1..l} prod_{j>=1} (1 - v^{-m_i-1} e^{-jc}) / (1 - v^{-m_i} e^{-jc}),

    over j*ht(c) <= depth; finite exponents m_i come from the underlying
    finite system."""
    if not spec.affine:
        raise CharacterError("m_factor lives on affine specs")
    exps = rootdata.exponents(spec.finite)
    c = rootdata.minimal_imaginary_coroot(spec).coords
    out = []
    for j in range(1, depth // ht(c) + 1):
        jc = tuple(j * x for x in c)
        for m in exps:
            out += [(jc, VPoly.term(1, -m - 1), 1),
                    (jc, VPoly.term(1, -m), -1)]
    return out


def m_factor(spec, depth):
    """m_v to the depth (m_factors), as a series at anchor 0."""
    return AnchoredSeries.one(spec, spec.num_nodes, depth).times_factors(
        m_factors(spec, depth))


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
    for steps, _, _ in weyl.orbit_layers(cartan, shifted,
                                         lambda beta: ht(beta) <= depth):
        sign = -sign
        for child, _, _ in steps:
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
    """chi_Lambda to the given depth: the numerator divided by the plain
    denominator's factors."""
    return character_numerator(spec, labels, depth).times_factors(
        denominator_factors(spec, depth, VP_ONE, -1))


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


def denominator_wtwist_difference(spec, i, den):
    """First (beta, lhs, rhs) where the w_i-twisted denominator identity
    D^{w_i} = -e^{a_i} D fails to the depth of den, or None; den is the
    plain denominator D (denominator(spec, depth)), which the caller
    builds once for every generator.

    Both sides are pushed into the anchor cone: with P = the product over
    the remaining positive coroots of their s_i-images, the identity
    becomes  D = (1 - e^{-a_i}) P  up to the depth.  The s_i-images of
    coroots of height <= depth+2 cover every factor that can matter."""
    cartan = rootdata.build_cartan(spec)
    n = spec.num_nodes
    depth = den.depth
    unit = tuple(1 if j == i - 1 else 0 for j in range(n))
    factors = [(unit, VP_ONE, 1)]
    for cr in rootdata.positive_coroots_up_to(spec, depth + 2):
        if cr.coords == unit:
            continue
        img = weyl.reflect(cartan, (0,) * n, cr.coords, i)
        assert all(x >= 0 for x in img)
        factors.append((img, VP_ONE, cr.multiplicity))
    return den.first_difference(
        AnchoredSeries.one(spec, n, depth).times_factors(factors))
