"""Exact coefficient arithmetic: Laurent polynomials in v and anchored,
depth-truncated formal series over the coroot lattice.

A series is a finite sparse map beta -> VPoly, where beta is a nonnegative
integer vector over the simple coroots and the pair (anchor, beta) encodes
the exponent e^{anchor - beta}.  Truncation is by total height
ht(beta) = sum(beta).  A finite Laurent polynomial has depth None, which
certifies that no truncation ever occurred, and reads as exact; only exact
series may hold beta vectors with negative entries (images under Weyl
reflections).
"""
from __future__ import annotations

import itertools
from operator import add, itemgetter, mul


class SeriesError(ValueError):
    """Raised on incompatible or out-of-truncation series operations."""


def ht(beta):
    """Total height of a displacement vector."""
    return sum(beta)


def nonneg_vectors_up_to(n, depth):
    """The vectors beta >= 0 in Z^n with ht(beta) <= depth, in order of
    height."""
    for total in range(depth + 1):
        for cuts in itertools.combinations(range(total + n - 1), n - 1):
            beta = []
            prev = -1
            for c in cuts:
                beta.append(c - prev - 1)
                prev = c
            beta.append(total + n - 2 - prev)
            yield tuple(beta)


class VPoly:
    """Sparse Laurent polynomial in the formal parameter v over Z."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            self.c = {}
        elif isinstance(coeffs, int):
            self.c = {0: coeffs} if coeffs else {}
        elif isinstance(coeffs, VPoly):
            self.c = dict(coeffs.c)
        else:
            self.c = {d: n for d, n in coeffs.items() if n}

    @classmethod
    def term(cls, coef, deg):
        """The monomial coef * v^deg."""
        return cls({deg: coef})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = VPoly(other)
        if not isinstance(other, VPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = VPoly(other)
        out = dict(self.c)
        for d, n in other.c.items():
            m = out.get(d, 0) + n
            if m:
                out[d] = m
            else:
                out.pop(d, None)
        r = VPoly()
        r.c = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = VPoly()
        r.c = {d: -n for d, n in self.c.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, int):
            other = VPoly(other)
        return self + (-other)

    def __rsub__(self, other):
        return VPoly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return VPoly()
            r = VPoly()
            r.c = {d: n * other for d, n in self.c.items()}
            return r
        if len(other.c) == 1:
            # a monomial factor only shifts and scales, with no collisions
            ((e, m),) = other.c.items()
            r = VPoly()
            r.c = {d + e: n * m for d, n in self.c.items()}
            return r
        out = {}
        for d1, n1 in self.c.items():
            for d2, n2 in other.c.items():
                d = d1 + d2
                m = out.get(d, 0) + n1 * n2
                if m:
                    out[d] = m
                else:
                    del out[d]
        r = VPoly()
        r.c = out
        return r

    __rmul__ = __mul__

    def in_v_inverse_ring(self):
        """True iff the polynomial lies in Z[v^-1] (no positive v-degrees)."""
        return all(d <= 0 for d in self.c)

    def evaluate(self, q):
        """Exact value at v = q (a Fraction or int)."""
        from fractions import Fraction  # on first use: slow to import

        q = Fraction(q)
        if q == 0:
            raise SeriesError("cannot evaluate at v = 0")
        return sum((Fraction(n) * q ** d for d, n in self.c.items()), Fraction(0))

    def pairs(self):
        """Sorted (degree, coefficient) pairs; the serialization order."""
        return sorted(self.c.items())

    def __repr__(self):
        if not self.c:
            return "0"
        bits = []
        for d, n in self.pairs():
            if d == 0:
                bits.append(f"{n}")
            elif d == 1:
                bits.append(f"{n}*v")
            else:
                bits.append(f"{n}*v^{d}")
        return " + ".join(bits)


VP_ZERO = VPoly()
VP_ONE = VPoly(1)
V = VPoly({1: 1})
VINV = VPoly({-1: 1})


def _coerce_terms(terms):
    out = {}
    for beta, cf in terms.items():
        if isinstance(cf, int):
            cf = VPoly(cf)
        if cf:
            out[tuple(beta)] = cf
    return out


class AnchoredSeries:
    """A formal sum  sum_beta c_beta e^{anchor - beta}  with c_beta in Z[v,v^-1].

    anchor is recorded through its pairing labels <a_i, anchor>.  Truncated
    series store every term with ht(beta) <= depth; exact series have
    depth None and complete support.
    """

    __slots__ = ("spec", "anchor", "terms", "depth")

    def __init__(self, spec, anchor, terms, depth=None, _trusted=False):
        self.spec = spec
        self.anchor = tuple(int(x) for x in anchor)
        self.terms = terms if _trusted else _coerce_terms(terms)
        self.depth = depth
        if not _trusted:
            self._validate()

    @property
    def exact(self):
        """True iff the series was never truncated: its depth is None."""
        return self.depth is None

    def _validate(self):
        if self.depth is not None:
            if self.depth < 0:
                raise SeriesError("truncated series need a depth >= 0")
            for beta in self.terms:
                if any(b < 0 for b in beta):
                    raise SeriesError(
                        f"negative displacement {beta} on a truncated series")
                if ht(beta) > self.depth:
                    raise SeriesError(
                        f"term {beta} beyond truncation depth {self.depth}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, spec, anchor, beta=None, coeff=1, depth=None):
        n = len(anchor)
        if beta is None:
            beta = (0,) * n
        return cls(spec, anchor, {tuple(beta): VPoly(coeff)}, depth=depth)

    @classmethod
    def one(cls, spec, nvars, depth=None):
        return cls.monomial(spec, (0,) * nvars, depth=depth)

    # -- basic queries -----------------------------------------------------

    def coefficient(self, beta):
        """[e^{anchor - beta}] of the series; errors beyond the depth."""
        beta = tuple(beta)
        if not self.exact and ht(beta) > self.depth:
            raise SeriesError(f"coefficient at {beta} beyond depth {self.depth}")
        return self.terms.get(beta, VP_ZERO)

    def __repr__(self):
        kind = "exact" if self.exact else f"depth={self.depth}"
        return (f"AnchoredSeries({self.spec}, anchor={self.anchor}, "
                f"{kind}, {len(self.terms)} terms)")

    # -- arithmetic --------------------------------------------------------

    def _common_depth(self, other):
        return min((s.depth for s in (self, other) if s.depth is not None),
                   default=None)

    def __add__(self, other):
        if self.spec != other.spec:
            raise SeriesError("spec mismatch in add")
        if self.anchor != other.anchor:
            raise SeriesError("anchor mismatch in add")
        depth = self._common_depth(other)
        out = add_maps(self.terms, other.terms)
        if depth is not None:
            out = {b: c for b, c in out.items() if ht(b) <= depth}
        return AnchoredSeries(self.spec, self.anchor, out,
                              depth=depth, _trusted=True)

    def __neg__(self):
        out = {b: -c for b, c in self.terms.items()}
        return AnchoredSeries(self.spec, self.anchor, out,
                              depth=self.depth, _trusted=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.spec != other.spec:
            raise SeriesError("spec mismatch in mul")
        depth = self._common_depth(other)
        anchor = tuple(a + b for a, b in zip(self.anchor, other.anchor))
        out = mul_maps(self.terms, other.terms, depth)
        return AnchoredSeries(self.spec, anchor, out,
                              depth=depth, _trusted=True)

    def times_factors(self, factors):
        """The series times a factor list (times_factors), to its depth,
        on packed coefficients: the terms at the depth are packed once
        with u = v^-1, as PackedSeries packs for T, multiplied by
        PackedSeries.times_factors, which holds the bound, and unpacked
        once.  A u outside Z[v^-1] raises SeriesError."""
        terms = self.terms
        if self.depth is not None:
            terms = {b: c for b, c in terms.items() if ht(b) <= self.depth}
        p = PackedSeries.pack(self.anchor, terms, -1).times_factors(
            factors, self.depth)
        return AnchoredSeries(self.spec, self.anchor, p.unpack(),
                              depth=self.depth, _trusted=True)

    def scale(self, coef):
        """Multiply every coefficient by a VPoly (or int)."""
        if isinstance(coef, int):
            coef = VPoly(coef)
        if not coef:
            return AnchoredSeries(self.spec, self.anchor, {},
                                  depth=self.depth, _trusted=True)
        out = {b: c * coef for b, c in self.terms.items()}
        return AnchoredSeries(self.spec, self.anchor, out,
                              depth=self.depth, _trusted=True)

    def shifted(self, delta_beta, delta_anchor=None):
        """Multiply by e^{-delta_beta} (and optionally move the anchor)."""
        delta_beta = tuple(delta_beta)
        anchor = self.anchor
        if delta_anchor is not None:
            anchor = tuple(a + d for a, d in zip(anchor, delta_anchor))
        out = {}
        for beta, cf in self.terms.items():
            nb = tuple(b + d for b, d in zip(beta, delta_beta))
            if self.depth is not None and ht(nb) > self.depth:
                continue
            out[nb] = cf
        return AnchoredSeries(self.spec, anchor, out,
                              depth=self.depth, _trusted=True)

    def truncate(self, depth):
        """Forget terms beyond ht = depth; the result is flagged truncated."""
        if not self.exact and depth > self.depth:
            raise SeriesError(f"cannot extend depth {self.depth} to {depth}")
        out = {b: c for b, c in self.terms.items()
               if ht(b) <= depth and all(x >= 0 for x in b)}
        return AnchoredSeries(self.spec, self.anchor, out,
                              depth=depth, _trusted=True)

    def as_exact(self):
        """Re-flag as exact; caller certifies the support is complete."""
        return AnchoredSeries(self.spec, self.anchor, dict(self.terms),
                              _trusted=True)

    # -- comparison --------------------------------------------------------

    def first_difference(self, other, up_to=None):
        """First (beta, lhs, rhs) triple where the series disagree, or None.

        Comparison runs over ht(beta) <= the tightest available depth
        (exact sides impose no bound); betas scan in lexicographic order.
        """
        if self.spec != other.spec or self.anchor != other.anchor:
            raise SeriesError("cannot compare across specs or anchors")
        bound = up_to
        for s in (self, other):
            if not s.exact:
                bound = s.depth if bound is None else min(bound, s.depth)
        betas = set(self.terms) | set(other.terms)
        for beta in sorted(betas):
            if bound is not None and ht(beta) > bound:
                continue
            a = self.terms.get(beta, VP_ZERO)
            b = other.terms.get(beta, VP_ZERO)
            if a != b:
                return beta, a, b
        return None

    def eq_up_to_depth(self, other, up_to=None):
        return self.first_difference(other, up_to=up_to) is None

    def __eq__(self, other):
        if not isinstance(other, AnchoredSeries):
            return NotImplemented
        return (self.spec == other.spec and self.anchor == other.anchor
                and self.depth == other.depth
                and self.terms == other.terms)

    # -- evaluation and serialization -------------------------------------

    def evaluate_v(self, q):
        """Substitute v := q exactly; returns {beta: Fraction}, zeros dropped."""
        from fractions import Fraction  # on first use: slow to import

        q = Fraction(q)
        out = {}
        for beta, cf in self.terms.items():
            val = cf.evaluate(q)
            if val:
                out[beta] = val
        return out

    def to_json_dict(self):
        return {
            "spec": str(self.spec),
            "anchor_labels": list(self.anchor),
            "depth": self.depth,
            "exact": self.exact,
            "terms": [
                {"beta": list(beta), "coeff": [[d, n] for d, n in cf.pairs()]}
                for beta, cf in sorted(self.terms.items())
            ],
        }


def mul_maps(t1, t2, depth):
    """Raw sparse product of two term maps, dropping ht > depth products.

    The one general product.  Coefficients may be VPolys or packed ints
    of one width and var (PackedSeries; the lows add): only *, +, truthiness
    and == 1 are used.  The smaller map runs in the outer loop, and a
    coefficient equal to 1 shares the other factor's coefficient instead
    of multiplying, which is safe because no VPoly is mutated in place;
    so a first outer term 1 at beta = 0, as the 1 of every factor of
    times_factors, makes out a copy of the other map, within the depth.

    The larger map's keys are transposed into columns once per call.  An
    outer term b1 shifts only the columns where b1 is nonzero and zips the
    columns back into its keys; with a depth, it keeps the keys whose
    height fits, read from one column of heights computed once.  Its
    products are then one map over the kept coefficients.  Keys have rank
    at least 1, as a rank-0 map has no column to zip.
    """
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    out = {}
    rank = len(next(iter(t2), ()))
    cols = [list(map(itemgetter(j), t2)) for j in range(rank)]
    coeffs = list(t2.values())
    # ht by the builtin sum, without a Python call per key
    heights = None if depth is None else list(map(sum, t2))
    for b1, c1 in t1.items():
        unit = c1 == 1
        if unit and not out and not any(b1):
            out = dict(t2) if depth is None else {
                b2: c2 for b2, c2, h in zip(t2, coeffs, heights)
                if h <= depth}
            continue
        keys = zip(*[map(add, col, itertools.repeat(d)) if d else col
                     for col, d in zip(cols, b1)])
        cs = coeffs
        if depth is not None:
            room = depth - ht(b1)
            kept = [h <= room for h in heights]
            keys = itertools.compress(keys, kept)
            cs = itertools.compress(cs, kept)
        if not unit:
            cs = map(mul, cs, itertools.repeat(c1))
        for beta, c in zip(keys, cs):
            prev = out.get(beta)
            if prev is None:
                out[beta] = c
            else:
                s = prev + c
                if s:
                    out[beta] = s
                else:
                    del out[beta]
    return out


def add_maps(t1, t2):
    out = dict(t1)
    for beta, cf in t2.items():
        prev = out.get(beta)
        if prev is None:
            out[beta] = cf
        else:
            s = prev + cf
            if s:
                out[beta] = s
            else:
                del out[beta]
    return out


def times_factors(terms, factors, depth):
    """The raw map terms * prod (1 - u e^{-beta})^power over the
    (beta, u, power) of factors (u and the coefficients VPolys, or packed
    ints with u = 2^width), dropping terms and factors (which are 1)
    beyond ht = depth (None: exact).  A positive power multiplies by
    {0: 1, beta: -u} through mul_maps, the 1 of u's form; a negative one
    divides by a running sum up each beta-string from its shallow end,
    Q_gamma = F_gamma + u Q_{gamma - beta}, which needs a finite depth
    and ht(beta) >= 1 (else SeriesError)."""
    if depth is not None:
        terms = {b: c for b, c in terms.items() if ht(b) <= depth}
    for beta, u, power in factors:
        beta = tuple(beta)
        if depth is not None and ht(beta) > depth:
            continue
        one = 1 if isinstance(u, int) else VP_ONE
        factor = {(0,) * len(beta): one, beta: -u}
        for _ in range(power):
            terms = mul_maps(terms, factor, depth)
        for _ in range(-power):
            terms = _divide_factor(terms, beta, u, depth)
    return terms


def _divide_factor(terms, beta, u, depth):
    """terms / (1 - u e^{-beta}) to the depth; a beta-string is keyed by
    its member gamma - t beta, t = floor(gamma_j / beta_j), beta_j != 0."""
    h = ht(beta)
    if depth is None or h < 1:
        raise SeriesError(f"dividing by (1 - u e^(-{list(beta)})) needs a "
                          "finite depth and ht(beta) >= 1")
    j = next(k for k, b in enumerate(beta) if b)
    strings = {}
    for gamma, cf in terms.items():
        t = gamma[j] // beta[j]
        base = tuple(g - t * b for g, b in zip(gamma, beta))
        strings.setdefault(base, {})[t] = cf
    out = {}
    for base, string in strings.items():
        q = 0
        for t in range(min(string), (depth - ht(base)) // h + 1):
            q = string.get(t, 0) + q * u
            if q:
                out[tuple(g + t * b for g, b in zip(base, beta))] = q
    return out


def _digits(x, width):
    """The balanced base-2^width digits of x, lowest first, each in
    [-2^(width-1), 2^(width-1))."""
    full = 1 << width
    half, mask = full >> 1, full - 1
    out = []
    while x:
        d = x & mask
        if d >= half:
            d -= full
        out.append(d)
        x = (x >> width) + (d < 0)
    return out


def _check_width(bound, width):
    """SeriesError unless bound < 2^(width-1): a packed coefficient whose
    v-coefficients all lie within bound then decodes uniquely (_digits),
    and is 0 only if they all are."""
    if bound >> (width - 1):
        raise SeriesError(f"coefficient bound {bound} does not fit "
                          f"packed width {width}")


class PackedSeries:
    """A term map {beta: int} of packed coefficients, the one form in which
    the T_i kernel, the walker and the exact divisions hold them.

    With u = v^var (var = +-1), u -> 2^width is a ring map Z[u] -> Z
    (Kronecker substitution): sum_d c_d v^d packs to the int
    sum_d c_d 2^(width*(var*d - low)), sums are int sums and a factor u is
    x << width.  bound >= every |c_d| of every term; below 2^(width-1)
    (_check_width) it makes decoding and the zero test exact.  anchor is
    None for a bare map."""

    __slots__ = ("anchor", "terms", "width", "bound", "low", "var")

    def __init__(self, anchor, terms, width, bound, low, var):
        self.anchor, self.terms, self.var = anchor, terms, var
        self.width, self.bound, self.low = width, bound, low

    @classmethod
    def pack(cls, anchor, terms, var, width=64):
        """terms {beta: VPoly} packed at width, or wider if their bound
        does not fit it (width_for)."""
        cs = [cf.c for cf in terms.values()]
        low = min((var * d for c in cs for d in c), default=0)
        bound = max((abs(n) for c in cs for n in c.values()), default=0)
        width = cls.width_for(bound, width)
        return cls(anchor, {beta: sum(n << (width * (var * d - low))
                                      for d, n in c.items())
                            for beta, c in zip(terms, cs)},
                   width, bound, low, var)

    def unpack(self):
        """The map {beta: VPoly}, zeros dropped; a run of equal ints shares
        one VPoly (VPolys are never mutated in place)."""
        width = self.width
        _check_width(self.bound, width)
        # one int object per degree, shared by every coefficient
        top = max(map(abs, self.terms.values()),
                  default=0).bit_length() // width
        degrees = [self.var * (self.low + j) for j in range(top + 1)]
        out = {}
        last = q = None
        for beta, x in self.terms.items():
            if x != last:
                last = x
                q = VPoly()
                q.c = {degrees[j]: d
                       for j, d in enumerate(_digits(x, width)) if d}
            if x:
                out[beta] = q
        return out

    @staticmethod
    def width_for(bound, width):
        """The one widening rule: width if bound fits it, else the larger
        of 2 * width and the least width that bound fits."""
        if bound >> (width - 1):
            width = max(2 * width, bound.bit_length() + 1)
        return width

    def repacked(self, terms, width):
        """terms {key: x}, packed as this series is and within its bound,
        at a width that the bound fits (the same terms at this width)."""
        _check_width(self.bound, self.width)
        if width == self.width:
            return terms
        return {key: sum(d << (width * j)
                         for j, d in enumerate(_digits(x, self.width)))
                for key, x in terms.items()}

    def times_factors(self, factors, depth):
        """This series times prod (1 - u e^{-beta})^power over the
        (beta, u, power) of factors, each u a VPoly, to the depth (None:
        exact), as a PackedSeries of this anchor, low and var: the
        module-level times_factors on the ints, each u packed as the
        terms are (u -> 2^width; a degree d of u is a shift by
        width * var * d).  A u with var * d < 0 for a degree d (for T's
        packing, a u outside Z[v^-1]) would shift by a negative count and
        raises SeriesError.

        The bound: with M = self.bound and U the sum of the
        |v-coefficients| of a factor's u (1 for a monomial u), a factor
        that multiplies maps F to F_g - u F_{g-beta}, so it multiplies the
        per-degree bound by 1 + U, and one that divides sums at most T + 1
        terms u^t F_{g - t beta} of a beta-string, T = floor((depth - lo)
        / ht(beta)) and lo the least height of a term (0 on the cone), so
        it multiplies the bound by 1 + U + ... + U^T.  For U = 1 these are
        the factors 2 and floor(depth / ht(beta)) + 1 of the cone.  The
        terms move to width_for's width for the final bound before the
        pass."""
        var = self.var
        if any(var * d < 0 for _, u, _ in factors for d in u.c):
            raise SeriesError(f"a factor's u is no polynomial in v^{var}, "
                              "so it does not pack")
        bound = self.bound
        lo = min(0, min(map(ht, self.terms), default=0))
        for beta, u, power in factors:
            h = ht(beta)
            if depth is not None and h > depth:
                continue
            spread = sum(map(abs, u.c.values()))
            if power > 0:
                bound *= (1 + spread) ** power
                lo += min(h, 0) * power
            elif power < 0 and depth is not None and h >= 1:
                bound *= sum(spread ** t for t in range((depth - lo) // h + 1)
                             ) ** -power
        width = self.width_for(bound, self.width)
        terms = times_factors(self.repacked(self.terms, width), [
            (beta, sum(n << width * var * d for d, n in u.c.items()), power)
            for beta, u, power in factors], depth)
        return PackedSeries(self.anchor, terms, width, bound, self.low, var)

    def add(self, other, depth=None):
        """Add other's terms (of this low and var; with a depth, those at
        ht <= depth with beta >= 0) in place; True iff any.  The bounds
        add, and both maps first move to width_for's width."""
        terms = other.terms
        if depth is not None:
            terms = {b: x for b, x in terms.items()
                     if sum(b) <= depth and min(b) >= 0}
        if not terms:
            return False
        bound = self.bound + other.bound
        width = self.width_for(bound, max(self.width, other.width))
        self.terms = self.repacked(self.terms, width)
        terms = other.repacked(terms, width)
        self.width, self.bound = width, bound
        acc = self.terms
        for beta, x in terms.items():
            acc[beta] = acc.get(beta, 0) + x
        return True

    def first_difference(self, other):
        """AnchoredSeries.first_difference of the decoded series (of one
        anchor, low and var, else SeriesError), decoding that beta alone.
        Each bound must fit its width (_check_width), so at the wider width
        equal ints are equal coefficients: without the zero ints that an
        accumulator keeps, one dict comparison decides."""
        if (self.anchor, self.low, self.var) != (other.anchor, other.low,
                                                 other.var):
            raise SeriesError("packed series of other anchor, low or var")
        width = max(self.width, other.width)
        mine, theirs = (p.repacked({b: x for b, x in p.terms.items() if x},
                                   width) for p in (self, other))
        if mine == theirs:
            return None
        beta = min(beta for beta in mine.keys() | theirs.keys()
                   if mine.get(beta) != theirs.get(beta))
        return (beta,) + tuple(
            PackedSeries(None, {beta: p.terms.get(beta, 0)}, p.width,
                         p.bound, p.low, p.var).unpack().get(beta, VP_ZERO)
            for p in (self, other))


def divide_exact(terms, alpha, from_deep=False):
    """Exact quotient of a raw term map by (1 - e^{-alpha}).

    alpha is a simple coroot a_i or its negative (any other direction
    raises SeriesError).  Multiplying by e^{-alpha} moves beta to
    beta + alpha, so along each a_i-string (keyed by beta without
    coordinate i, as heckeops keys them) the numerator and quotient
    satisfy N_t = Q_t - Q_{t-1}.  The quotient is summed from the
    shallow end of every string (lower height; the expansion in e^{-alpha}
    for positive alpha) or, with from_deep=True, from the deep end.  The
    two agree exactly when the division is exact; a nonzero remainder on
    any string raises SeriesError.  The map is packed (PackedSeries), and
    its strings divided by _divide_strings: each quotient coefficient sums
    at most the terms of one string, hence the bound, which the strings
    are repacked to fit (width_for) when the packing's width does not.
    """
    pivot, sign = _direction(tuple(alpha))
    p = PackedSeries.pack(None, terms, 1)
    strings = {}
    for beta, x in p.terms.items():
        key = beta[:pivot] + beta[pivot + 1:]
        strings.setdefault(key, {})[beta[pivot] * sign] = x
    bound = p.bound * max(map(len, strings.values()), default=0)
    width = p.width_for(bound, p.width)
    if width != p.width:
        strings = {key: p.repacked(string, width)
                   for key, string in strings.items()}
    p.terms = _divide_strings(strings, pivot, sign, width, bound, from_deep)
    p.width, p.bound = width, bound
    return p.unpack()


def _direction(alpha):
    """(pivot, sign) of alpha = sign * a_{pivot+1}; SeriesError unless
    alpha is a simple coroot or its negative."""
    pivots = [j for j, a in enumerate(alpha) if a]
    if len(pivots) != 1 or abs(alpha[pivots[0]]) != 1:
        raise SeriesError(f"cannot divide along {alpha}: strings run along "
                          "a simple coroot or its negative only")
    return pivots[0], alpha[pivots[0]]


def _divide_strings(strings, pivot, sign, width, bound, from_deep=False,
                    skips=None):
    """The one exact string division behind divide_exact and heckeops'
    T_i kernel, by (1 - e^{-alpha}) with alpha = sign * a_{pivot+1}, over
    packed coefficients of the given width.

    strings maps a string key (beta without the pivot coordinate) to
    {t: x}, the packed numerator coefficient at the beta with
    beta[pivot] = t * sign and the key's entries elsewhere (zeros may
    occur).  Along a string the quotient is constant between neighbouring
    numerator positions: from the low-t end Q_t = sum_{s <= t} N_s, from
    the high-t end Q_t = -sum_{s > t} N_s, and the sum over the whole
    string, the remainder, must vanish (else SeriesError).  bound must
    bound every coefficient of those partial sums and be below
    2^(width-1) (_check_width): only then is a zero packed remainder a
    zero polynomial.  Returns the packed quotient {beta: x}; a run of
    positions with one coefficient shares one int.  skips, if given, maps
    some keys to a range (a, b) of t: the quotient at a <= t < b on that
    string is not written (the remainder is still tested).
    """
    _check_width(bound, width)
    # the shallow end of a string is its low-t end iff alpha is positive
    from_low_t = (sign > 0) != from_deep
    out = {}
    for key, string in strings.items():
        ts = sorted(string, reverse=not from_low_t)
        head, tail = key[:pivot], key[pivot:]
        a, b = skips.get(key, (0, 0)) if skips else (0, 0)
        run = 0
        for t, nxt in zip(ts, ts[1:]):
            run += string[t]
            if run:
                q = run if from_low_t else -run
                lo, hi = (t, nxt) if from_low_t else (nxt, t)
                if a < b and lo < b and a < hi:
                    for u in range(lo, a):
                        out[head + (u * sign,) + tail] = q
                    lo = max(lo, b)
                for u in range(lo, hi):
                    out[head + (u * sign,) + tail] = q
        if run + string[ts[-1]]:
            raise SeriesError(f"nonzero remainder dividing along "
                              f"{'+' if sign > 0 else '-'}a_{pivot + 1}")
    return out
