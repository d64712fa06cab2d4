"""Executable checks for the central identities: finite and affine
Casselman-Shalika, the Whittaker recursion, symmetrizer eigenproperties,
proportionality-constant extraction, and the Gindikin-Karpelevich limit.

Every check returns a VerificationReport; a failing report always names
the first offending coefficient.  All identities here are prefactor-free:
the q^{<rho, anchor>} normalization is reported symbolically and never
enters a comparison, because the pairing is not determined by the anchor
labels alone.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from . import characters, heckeops, rootdata, weyl
from .heckeops import DEFAULT_LAYER_CAP, DEFAULT_MARGIN
from .vseries import (AnchoredSeries, PackedSeries, VP_ONE, VP_ZERO, VINV,
                      add_maps, divide_exact, ht, nonneg_vectors_up_to,
                      times_factors)


class VerifyError(ValueError):
    """Precondition failures: bad lengths, non-reduced words, bad depths."""


class SpecKindError(VerifyError):
    """A request that does not fit its spec's kind, finite or affine (a
    check given a spec of the wrong kind, or a depth or margin given to a
    finite Whittaker sum), refused before any work runs; the CLI reads it
    as a usage error."""


PASS = "pass"
FAIL = "fail"
UNSTABILIZED = "unstabilized"
# verify_gk_limit's bound on label doublings before it reports unstabilized
GK_MAX_DOUBLINGS = 6


@dataclass
class VerificationReport:
    check: str
    spec: str
    params: dict
    verdict: str
    witness: dict | None = None
    achieved_length: int | None = None
    ms: float = 0.0

    @property
    def passed(self):
        return self.verdict == PASS

    def to_json_dict(self):
        out = {"check": self.check, "spec": self.spec, "params": self.params,
               "verdict": self.verdict, "ms": round(self.ms, 3)}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.achieved_length is not None:
            out["achieved_L"] = self.achieved_length
        return out


def _witness_from_diff(diff):
    if diff is None:
        return None
    beta, lhs, rhs = diff
    return {"beta": list(beta), "lhs": [[d, n] for d, n in lhs.pairs()],
            "rhs": [[d, n] for d, n in rhs.pairs()]}


def _report(check, spec, params, start, diff, achieved=None,
            stabilized=True):
    ms = (time.perf_counter() - start) * 1000.0
    if not stabilized:
        verdict = UNSTABILIZED
    elif diff is None:
        verdict = PASS
    else:
        verdict = FAIL
    return VerificationReport(check, str(spec), params, verdict,
                              _witness_from_diff(diff), achieved, ms)


def _vector(name, vec, spec):
    """vec as a tuple, checked to have one entry per node of the spec."""
    vec = tuple(vec)
    if len(vec) != spec.num_nodes:
        raise VerifyError(f"{name} needs {spec.num_nodes} entries for "
                          f"{spec}, got {len(vec)}")
    return vec


def _dominant(labels, spec):
    """labels as a tuple of one entry per node (_vector), each >= 0."""
    labels = _vector("labels", labels, spec)
    if any(x < 0 for x in labels):
        raise VerifyError("dominant labels required")
    return labels


def _compared_depth(name, depth):
    """Refuse a comparison depth below 1: at 0 a check would compare only
    the beta = 0 coefficient, which is 1 on both sides whatever the
    identity says, and pass vacuously."""
    if depth < 1:
        raise VerifyError(f"{name} must be >= 1, got {depth}; at 0 only "
                          "the beta = 0 coefficient is compared")


# -- Whittaker sums --------------------------------------------------------

def whittaker_normalized(spec, labels, depth=None, margin=None,
                         layer_cap=DEFAULT_LAYER_CAP):
    """sum_w T_w(e^anchor): exact over the full group for finite specs,
    which take no depth or margin, and stabilized to the depth for affine
    ones (margin None: DEFAULT_MARGIN).

    Returns (series, achieved_length, stabilized).  The symbolic
    prefactor q^{<rho, anchor>} is deliberately not folded in.
    """
    if not spec.affine and (depth is not None or margin is not None):
        raise SpecKindError("a finite Whittaker sum is exact and takes no "
                            "depth or margin")
    labels = _dominant(labels, spec)
    if not spec.affine:
        total, achieved = heckeops.symmetrizer_chain(spec, labels, layer_cap)
        return (AnchoredSeries(spec, total.anchor, total.unpack(),
                               _trusted=True), achieved, True)
    if depth is None:
        raise VerifyError("affine Whittaker sums need a truncation depth")
    return heckeops.symmetrizer_stabilized(
        spec, labels, depth,
        margin=DEFAULT_MARGIN if margin is None else margin,
        layer_cap=layer_cap)


# -- Casselman-Shalika -----------------------------------------------------

def verify_finite_cs(spec, labels, layer_cap=DEFAULT_LAYER_CAP):
    """sum_{w in W_o} T_w(e^L) = prod_{a>0}(1 - v^-1 e^{-a}) chi_L, exactly,
    on a finite spec, compared packed (PackedSeries.first_difference):
    chi_L is packed at the chain's width and multiplied by the deformed
    denominator's factor list (PackedSeries.times_factors), so that the
    sides compare as they are."""
    start = time.perf_counter()
    if spec.affine:
        raise SpecKindError(f"finite-cs runs on finite specs only; {spec} "
                            "is affine")
    labels = _dominant(labels, spec)
    lhs, achieved = heckeops.symmetrizer_chain(spec, labels, layer_cap)
    chi = characters.finite_character_exact(spec, labels)
    rhs = PackedSeries.pack(chi.anchor, chi.terms, lhs.var,
                            lhs.width).times_factors(
        characters.denominator_factors(spec, None, VINV, 1), None)
    diff = lhs.first_difference(rhs)
    return _report("finite-cs", spec, {"labels": list(labels)}, start, diff,
                   achieved)


def verify_affine_cs(spec, labels, depth, margin=DEFAULT_MARGIN,
                     layer_cap=DEFAULT_LAYER_CAP):
    """sum_w T_w(e^L) = m_v * D_v * chi_L coefficientwise to the depth,
    which must be at least 1, on an affine spec.

    The coefficients are compared exactly in Z[v, v^-1], so equal series
    stay equal at every specialization v = q; no spot value is compared
    on top."""
    start = time.perf_counter()
    if not spec.affine:
        raise SpecKindError(f"affine-cs runs on affine specs only; {spec} "
                            "is finite")
    _compared_depth("depth", depth)
    labels = tuple(labels)
    lhs, achieved, stabilized = whittaker_normalized(
        spec, labels, depth=depth, margin=margin, layer_cap=layer_cap)
    params = {"labels": list(labels), "depth": depth, "margin": margin}
    if not stabilized:
        return _report("affine-cs", spec, params, start, None, achieved,
                       stabilized=False)
    rhs = characters.weyl_kac_character(spec, labels, depth).times_factors(
        characters.m_factors(spec, depth)
        + characters.denominator_factors(spec, depth, VINV, 1))
    diff = lhs.first_difference(rhs)
    return _report("affine-cs", spec, params, start, diff, achieved)


# -- recursion -------------------------------------------------------------

def verify_recursion(spec, labels, wprime_word, i):
    """T_{s_i w'}(e^L) computed by apply_T against the operator identity
    c(a_i)(T_{w'}e^L)^{s_i} + b(a_i) T_{w'}e^L assembled by series
    arithmetic and divided by (1 - e^{a_i}) from the deep end of each
    a_i-string, where apply_T sums from the shallow end.  T_{w'}e^L is
    built once: apply_T takes it packed, and the identity decoded.

    w' must be a reduced word and s_i w' must be longer than w'."""
    start = time.perf_counter()
    labels = _vector("labels", labels, spec)
    wprime_word = tuple(wprime_word)
    cartan = rootdata.build_cartan(spec)
    n = spec.num_nodes
    if not all(1 <= j <= n for j in wprime_word + (i,)):
        raise VerifyError(f"generators must lie in 1..{n}")
    ones = (1,) * n
    key = (0,) * n
    for j in reversed(wprime_word):
        if weyl.pairing(cartan, ones, key, j) <= 0:
            raise VerifyError(f"w' = {list(wprime_word)} is not reduced")
        key = weyl.reflect(cartan, ones, key, j)
    if weyl.pairing(cartan, ones, key, i) <= 0:
        raise VerifyError(
            f"length of s_{i} w' does not increase; not a valid recursion")
    params = {"labels": list(labels), "wprime": list(wprime_word), "i": i}
    packed = heckeops.apply_T_word(spec, wprime_word,
                                   AnchoredSeries.monomial(spec, labels))
    route_a = AnchoredSeries(spec, labels, heckeops.apply_T(
        spec, i, packed).unpack(), _trusted=True)
    numerator = _t_numerator(cartan, labels, packed.unpack(), i)
    alpha = tuple(-1 if j == i - 1 else 0 for j in range(n))
    route_b = AnchoredSeries(spec, labels, divide_exact(
        numerator, alpha, from_deep=True), _trusted=True)
    diff = route_a.first_difference(route_b)
    return _report("recursion", spec, params, start, diff)


def _t_numerator(cartan, anchor, terms, i):
    """The term map (1 - v^-1 e^{-a_i}) F^{s_i} + (v^-1 - 1) F of a term
    map F, T_i(F) times (1 - e^{a_i}) (heckeops module docstring)."""
    unit = tuple(1 if j == i - 1 else 0 for j in range(len(anchor)))
    image = weyl.reflect_terms(cartan, anchor, terms, i)
    return add_maps(times_factors(image, [(unit, VINV, 1)], None),
                    {b: c * (VINV - 1) for b, c in terms.items()})


# -- symmetrizer properties ------------------------------------------------

def verify_symmetrizer_properties(spec, labels, depth, buffer=3,
                                  margin=DEFAULT_MARGIN,
                                  layer_cap=DEFAULT_LAYER_CAP):
    """Eigenproperties of P = sum_w T_w on the buffered window
    (anchored-cone exponents of height <= depth - buffer, which must be
    at least 1; buffer must be >= 0), compared for each generator in turn:

      (i)   T_i P(e^L) = v^-1 P(e^L)
      (ii)  P(T_i(e^L)) = v^-1 P(e^L)

    Two more properties follow from (i) and are not compared again:

      (iii) (1 - v^-1 e^{-a_i}) (P(e^L))^{s_i} = (1 - v^-1 e^{a_i}) P(e^L)
      (iv)  (1/D_v) P(e^L) is fixed by every s_i

    (iii) is (i) rearranged.  In numerator form (i) reads
    (1 - v^-1 e^{-a_i}) P^{s_i} + (v^-1 - 1) P = v^-1 (1 - e^{a_i}) P, and
    taking (v^-1 - 1) P to the right gives (iii): both sides change by the
    same (v^-1 - 1) P, so lhs - rhs is the same map.  (iv) is (iii) again.
    s_i permutes the positive coroots other than a_i, with their
    multiplicities (the permutation that denominator-identity's twisted
    check, characters.denominator_wtwist_difference, tests), so
    D_v = (1 - v^-1 e^{-a_i}) D' with D' fixed by s_i, and
    D_v^{s_i} = D_v (1 - v^-1 e^{a_i}) / (1 - v^-1 e^{-a_i}).  Hence
    ((1/D_v) P)^{s_i} = (1/D_v) P exactly when (iii) holds.

    Soundness of the windowed comparison: at a window point gamma >= 0
    of height h <= window, with k = <a_i, L - gamma>, (i) reads P at four
    points of gamma's a_i-string: gamma, gamma + a_i, s_i gamma =
    gamma + k a_i and s_i(gamma - a_i) = gamma + (k + 1) a_i (each
    s_i-image the displacement of s_i(L - .)), and nowhere else.  No
    off-diagonal Cartan entry is below -2, so k <= max(labels) + 2h, and
    every read lies at height <= 3 window + max(labels) + 1, below the
    internal depth 3 window + max(labels) + 2 to which P is computed.
    (ii) reruns the stabilized symmetrizer on the finite seed T_i(e^L) to
    the same depth and reads the window points only.
    """
    start = time.perf_counter()
    labels = _dominant(labels, spec)
    cartan = rootdata.build_cartan(spec)
    n = spec.num_nodes
    params = {"labels": list(labels), "depth": depth, "buffer": buffer,
              "margin": margin}
    if buffer < 0:
        raise VerifyError(f"buffer must be >= 0, got {buffer}")
    window = depth - buffer
    _compared_depth("the window depth - buffer", window)
    internal = 3 * window + max(labels) + 2
    p, achieved, stabilized = heckeops.symmetrizer_stabilized(
        spec, labels, internal, margin, layer_cap)
    if not stabilized:
        return _report("symmetrizer", spec, params, start, None, achieved,
                       stabilized=False)
    points = sorted(nonneg_vectors_up_to(n, window))
    read = p.terms.get
    diff = None
    for i in range(1, n + 1):
        # (i), numerator form:
        #   (1 - v^-1 e^{-a_i}) P^{s_i} + (v^-1 - 1) P = v^-1 (1 - e^{a_i}) P
        diff = _first_difference_at(points, lambda gamma: _property_i(
            cartan, p.anchor, read, i, gamma))
        if diff is not None:
            params["property"] = f"(i) generator {i}"
            break
        # (ii): rerun the stabilized sum on the finite seed T_i(e^L)
        p2, a2, st2 = heckeops.symmetrizer_stabilized(
            spec, labels, internal, margin=margin, layer_cap=layer_cap,
            seed=heckeops.apply_T_word(
                spec, (i,), AnchoredSeries.monomial(spec, labels)))
        if not st2:
            return _report("symmetrizer", spec, params, start, None, a2,
                           stabilized=False)
        diff = _first_difference_at(points, lambda gamma: (
            p2.terms.get(gamma, VP_ZERO), VINV * read(gamma, VP_ZERO)))
        if diff is not None:
            params["property"] = f"(ii) generator {i}"
            break
    return _report("symmetrizer", spec, params, start, diff, achieved)


def _property_i(cartan, anchor, read, i, gamma):
    """(lhs, rhs) of (i) in numerator form at gamma, from the four reads
    read(gamma + t a_i), t = 0, 1, k, k + 1 with k = <a_i, anchor - gamma>
    (verify_symmetrizer_properties)."""
    k = weyl.pairing(cartan, anchor, gamma, i)
    head, b, tail = gamma[:i - 1], gamma[i - 1], gamma[i:]
    here, up, image, image_up = (read(head + (b + t,) + tail, VP_ZERO)
                                 for t in (0, 1, k, k + 1))
    return (image - VINV * image_up + (VINV - 1) * here,
            VINV * (here - up))


def _first_difference_at(points, sides):
    """First (beta, lhs, rhs) over the points, in their order, where the
    two coefficients sides(beta) = (lhs, rhs) differ, or None."""
    for beta in points:
        lhs, rhs = sides(beta)
        if lhs != rhs:
            return beta, lhs, rhs
    return None


# -- proportionality constant ---------------------------------------------

def series_divide(numer, denom, depth):
    """Coefficient recursion numer/denom along the height filtration.

    The divisor's beta = 0 coefficient must be exactly 1."""
    n = len(denom.anchor)
    lead = denom.terms.get((0,) * n, VP_ZERO)
    if lead != VP_ONE:
        raise VerifyError("series division needs unit leading coefficient")
    dterms = {b: c for b, c in denom.terms.items() if any(b)}
    q = {}
    for beta in nonneg_vectors_up_to(n, depth):
        acc = numer.terms.get(beta, VP_ZERO)
        for gamma, dc in dterms.items():
            rem = tuple(b - g for b, g in zip(beta, gamma))
            if any(x < 0 for x in rem):
                continue
            qc = q.get(rem)
            if qc is not None:
                acc = acc - dc * qc
        if acc:
            q[beta] = acc
    anchor = tuple(a - b for a, b in zip(numer.anchor, denom.anchor))
    return AnchoredSeries(numer.spec, anchor, q, depth=depth, _trusted=True)


def extract_proportionality(spec, labels, depth, margin=DEFAULT_MARGIN,
                            layer_cap=DEFAULT_LAYER_CAP):
    """P(e^L) / (D_v chi_L) by coefficient recursion to the depth (at
    least 1); the quotient must be supported on the nonnegative multiples
    of c (affine) or be 1 (finite).

    Returns (series, report); the series is the extracted factor."""
    start = time.perf_counter()
    _compared_depth("depth", depth)
    labels = tuple(labels)
    params = {"labels": list(labels), "depth": depth}
    p, achieved, stabilized = heckeops.symmetrizer_stabilized(
        spec, _dominant(labels, spec), depth, margin, layer_cap)
    if not stabilized:
        return None, _report("proportionality", spec, params, start, None,
                             achieved, stabilized=False)
    chi = characters.weyl_kac_character(spec, labels, depth)
    divisor = chi.times_factors(
        characters.denominator_factors(spec, depth, VINV, 1))
    gamma = series_divide(p, divisor, depth)
    if spec.affine:
        c = rootdata.minimal_imaginary_coroot(spec).coords
        for beta in gamma.terms:
            if not _is_multiple_of(beta, c):
                diff = (beta, gamma.terms[beta], VP_ZERO)
                return gamma, _report("proportionality", spec, params, start,
                                      diff, achieved)
        expected = characters.m_factor(spec, depth)
    else:
        expected = AnchoredSeries.one(spec, spec.num_nodes, depth)
    diff = gamma.first_difference(expected)
    return gamma, _report("proportionality", spec, params, start, diff,
                          achieved)


def _is_multiple_of(beta, c):
    """True iff beta = j c for an integer j, which can only be
    ht(beta) // ht(c) (j = 0 at beta = 0)."""
    j = ht(beta) // ht(c)
    return all(b == j * x for b, x in zip(beta, c))


# -- Gindikin-Karpelevich limit -------------------------------------------

def verify_gk_limit(spec, nu, depth, margin=DEFAULT_MARGIN,
                    layer_cap=DEFAULT_LAYER_CAP):
    """The scaled-dominant Whittaker coefficient at displacement nu equals
    [e^{-nu}] of Delta (finite) or m_v * Delta (affine).

    Labels start at the smallest power of two >= ht(nu) (so the anchor
    already dominates the displacement; smaller anchors can agree on a
    spurious zero) and double until two successive runs agree on the
    extracted coefficient; the search must terminate within
    GK_MAX_DOUBLINGS doublings."""
    start = time.perf_counter()
    nu = _vector("nu", nu, spec)
    if not any(nu):
        raise VerifyError("nu must be nonzero; at nu = 0 only the beta = 0 "
                          "coefficient, 1 on both sides, is compared")
    if min(nu) < 0:
        raise VerifyError(f"nu must be nonnegative, got {list(nu)}; both "
                          "sides vanish at a negative displacement")
    if ht(nu) > depth:
        raise VerifyError("ht(nu) must be <= depth")
    params = {"nu": list(nu), "depth": depth}
    target = _gk_target(spec, nu)
    n = spec.num_nodes
    prev = None
    achieved = None
    found = None
    base = 1
    while base < ht(nu):
        base *= 2
    for k in range(GK_MAX_DOUBLINGS + 1):
        labels = tuple(base * 2 ** k for _ in range(n))
        w, aL, stabilized = heckeops.symmetrizer_stabilized(
            spec, labels, depth, margin, layer_cap)
        if not stabilized:
            return _report("gk-limit", spec, params, start, None, aL,
                           stabilized=False)
        coeff = w.coefficient(nu)
        if prev is not None and coeff == prev:
            achieved = k
            found = coeff
            break
        prev = coeff
    params["doublings"] = achieved
    if found is None:
        return _report("gk-limit", spec, params, start, None, None,
                       stabilized=False)
    diff = None if found == target else (nu, found, target)
    return _report("gk-limit", spec, params, start, diff)


def _gk_target(spec, nu):
    """[e^{-nu}] of Delta (finite) or m_v * Delta (affine), Delta =
    prod_{a>0} (1 - v^-1 e^{-a})^mult / (1 - e^{-a})^mult, built to ht(nu)
    only: each factor at beta, or its inverse, is 1 plus terms of height
    >= ht(beta), so no factor or term deeper than nu reaches its
    coefficient."""
    top = ht(nu)
    factors = (characters.denominator_factors(spec, top, VINV, 1)
               + characters.denominator_factors(spec, top, VP_ONE, -1))
    if spec.affine:
        factors += characters.m_factors(spec, top)
    return AnchoredSeries.one(spec, spec.num_nodes, top).times_factors(
        factors).coefficient(nu)


# -- Hecke relations -------------------------------------------------------

def _random_monomial(spec, rng):
    n = spec.num_nodes
    labels = tuple(rng.randint(-4, 4) for _ in range(n))
    return AnchoredSeries.monomial(spec, labels)


def _relation_differences(spec, s):
    """(relation, first difference or None) for each relation on s, in
    order: quadratic and conjugation per generator, then braid
    (single-bond pairs) and commutation (orthogonal pairs).  s is packed
    once per operator kind, and T_i of each packing computed once per
    generator, for every relation that reads it."""
    cartan = rootdata.build_cartan(spec)
    n = spec.num_nodes
    packed = {kind: heckeops.apply_T_word(spec, (), s, kind)
              for kind in (heckeops.T_KIND, heckeops.TPRIME_KIND)}
    images = {}  # T_i of s packed for T, by generator
    for i in range(1, n + 1):
        for kind, p in packed.items():
            image = heckeops.apply_T(spec, i, p)
            if kind == heckeops.T_KIND:
                images[i] = image
            yield (f"quadratic {kind} generator {i}",
                   heckeops.quadratic_difference(spec, i, p, image))
        yield (f"conjugation generator {i}",
               heckeops.conjugation_difference(
                   spec, i, images[i], packed[heckeops.TPRIME_KIND]))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            bond = cartan[i - 1][j - 1] * cartan[j - 1][i - 1]
            # an infinite bond (4, on A1!) has no braid relation
            words = {1: ((i, j, i), (j, i, j)), 0: ((i, j), (j, i))}.get(bond)
            if words:
                yield f"braid ({i},{j})", heckeops.word_difference(
                    spec, *words, images)


def verify_hecke_relations(spec, count=100, seed=0):
    """Quadratic, braid (single-bond pairs), commutation (orthogonal
    pairs), and the T/T' conjugation identity on seeded random monomials.
    A failure names the relation and the monomial's labels; the witness
    is relative to that monomial.  Each distinct monomial drawn is checked
    once: a repeat of one that passed cannot fail first.  count must be
    at least 1: a run that checks nothing is refused, not passed."""
    if count < 1:
        raise VerifyError(f"count must be >= 1, got {count}")
    import random  # on first use: slow to import

    start = time.perf_counter()
    rng = random.Random(seed)
    params = {"count": count, "seed": seed}
    diff = None
    checked = set()  # the labels of the monomials checked so far
    for _ in range(count):
        s = _random_monomial(spec, rng)
        if s.anchor in checked:
            continue
        checked.add(s.anchor)
        for relation, diff in _relation_differences(spec, s):
            if diff is not None:
                params["relation"] = relation
                params["monomial"] = list(s.anchor)
                break
        if diff is not None:
            break
    return _report("hecke-relations", spec, params, start, diff)


def verify_denominator_identity(spec, depth):
    """Macdonald/Weyl denominator identity to the depth (at least 1), plus
    the one-generator twisted identities, all on one plain denominator D
    built once."""
    start = time.perf_counter()
    _compared_depth("depth", depth)
    params = {"depth": depth}
    n = spec.num_nodes
    num = characters.character_numerator(spec, (0,) * n, depth)
    den = characters.denominator(spec, depth, deformed=False)
    diff = num.first_difference(den)
    if diff is None:
        for i in range(1, n + 1):
            diff = characters.denominator_wtwist_difference(spec, i, den)
            if diff is not None:
                params["twist_generator"] = i
                break
    return _report("denominator-identity", spec, params, start, diff)
