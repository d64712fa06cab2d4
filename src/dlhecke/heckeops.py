"""Demazure-Lusztig operators in the polynomial representation.

apply_T realizes, per monomial e^mu with k = <a_i, mu>,

    T_i(e^mu)  = [ (1 - v^-1 e^{-a_i}) e^{s_i mu} + (v^-1 - 1) e^mu ] / (1 - e^{a_i})
    T'_i(e^mu) = [ (1 - v    e^{+a_i}) e^{s_i mu} + (v    - 1) e^mu ] / (1 - e^{a_i})

with the division carried out exactly in the Laurent ring.  One kernel,
_kernel, does it on packed coefficients (vseries.PackedSeries: u ->
2^width with u = v^var, Kronecker substitution), so that every
coefficient is one int; a packed value's var fixes the operator, T for
var = -1 (u = v^-1) and T' for var = +1 (u = v).  The kernel groups the
terms by a_i-string, since the three numerator positions of a monomial
lie on its string; a one-term string is a (c, b, x) tuple, and a string
gets a dict only when a second term arrives.  It writes the quotient of
a one-term string in closed form, whose remainder x - u x + (u - 1) x is
0 identically.  It builds the numerator of every longer string, each
position one big-int addition and the factor u a left shift, and hands
those strings to vseries._divide_strings, the same routine behind
vseries.divide_exact, which sums each string from its shallow end and
asserts the zero remainder of every string it divides; that is the one
private name heckeops imports, since the numerator is built straight
into the strings that routine takes.  Every packed value carries a
bound on its coefficients, which the kernel keeps below half its width
(_kernel).  apply_T maps a PackedSeries to a PackedSeries; apply_T_word,
the one boundary and the one function that names a kind, packs an exact
AnchoredSeries once and applies a word to it, and the Hecke relations
take a series so packed.  The relation helpers (quadratic_difference,
word_difference, conjugation_difference) share one image T_i p (of the
kind p is packed for) per generator: they take it as an argument and
never recompute it, and a word's rightmost letter is read from it.
Word operators compose right-to-left, so the first letter of a BFS word
(a left descent) is applied last.

Every sum of T_w(seed) over a Weyl orbit runs through one walker, _walk:
every sum to a depth (symmetrizer_stabilized, at most MAX_LAYERS
layers), which stops once it has stabilized over an affine W and walks
the whole of a finite W, and each coset of the parabolic chain that
sums exactly over a finite W (symmetrizer_chain), whose value stays
packed from coset to coset.  At a depth, the walk passes its list of
string tables (_StringTable, one per generator) to the kernel as its
limit: what each a_i-string's pairings give, its c and its reach, is
computed once per walk, and its skipped range once, on the kernel's
first use of the string; the kernel drops from each value the terms
that the rho-shifted hull shows can no longer feed the sum, one skipped
range per a_i-string.  A sum to a depth walks W/G, G the diagram
automorphisms that fix the seed (_symmetries): weyl.orbit_layers expands
one element per G-orbit of each layer, the walk builds one value per
orbit, and adds the other values of the orbit as relabelled copies of
it.
"""
from __future__ import annotations

from math import isqrt
from operator import add, itemgetter, mul, sub

from . import rootdata, weyl
from .vseries import AnchoredSeries, PackedSeries, V, _divide_strings


class HeckeError(ValueError):
    """Non-exact input or symmetrizer cap overflow."""


T_KIND = "T"
TPRIME_KIND = "Tprime"
# defaults: a stabilized sum's quiet-layer margin, and the largest layer
# of exact values a walk may hold
DEFAULT_MARGIN = 2
DEFAULT_LAYER_CAP = 20000
# the most layers a sum to a depth walks before it reports unstabilized
MAX_LAYERS = 500


def _row(cartan, i):
    """Cartan row i; i must lie in 1..n."""
    if not 1 <= i <= len(cartan):
        raise weyl.WeylError(f"generator index {i} out of range")
    return cartan[i - 1]


def _strings(cartan, anchor, terms, i, limit=None):
    """A term map grouped by a_i-string: {beta without coordinate i:
    (c, b, x)} for a string of one term x at beta_i = b, and
    (c, {beta_i: coefficient}) once a second term arrives, with c =
    <a_i, anchor - beta> at beta_i = 0, so that a term at beta_i = b pairs
    to k = c - 2b (a_ii = 2); a walk's string tables (limit) supply c."""
    ii = i - 1
    row = _row(cartan, i)
    row = row[:ii] + row[ii + 1:]
    label = anchor[ii]
    table = None if limit is None else limit[ii]
    strings = {}
    for beta, x in terms.items():
        key = beta[:ii] + beta[ii + 1:]
        string = strings.get(key)
        if string is None:
            c = (label - sum(map(mul, row, key)) if table is None
                 else table[key][0])
            strings[key] = (c, beta[ii], x)
        elif len(string) == 3:
            c, b, y = string
            strings[key] = (c, {b: y, beta[ii]: x})
        else:
            string[1][beta[ii]] = x
    return strings


def _kernel(p, strings, i, limit=None):
    """T_i (or T'_i, as p.var says) of the a_i-strings of a PackedSeries p
    (all of them, or some, as _strings groups them), as a PackedSeries;
    with a limit (a walk's string tables), without the positions of each
    string that they drop.

    A term x e^{anchor - beta} with b = beta_i and k = <a_i, anchor - beta>
    = c - 2b, c the string's pairing at b = 0, puts x at b + k (its
    reflection), -u x at b + k + s and (u - 1) x at b, where p packs
    u = v^var (var = -1 for T, +1 for T') and s = -var; so u x is
    x << width.  Each string of two or more terms is divided by
    (1 - e^{a_i}), that is by (1 - e^{-alpha}) with alpha = -a_i, from its
    shallow end by vseries._divide_strings, which tests its remainder.
    The quotient of a one-term string, summed the same way, has a closed
    form; with e = b + k + 1 for T and e = b + k for T', it is
    (1 - u) x on b + 1 ... e - 1, then -u x (T) or x (T') at e, if e > b;
    else -x (T) or u x (T') at e, then (u - 1) x on e + 1 ... b.  Its
    remainder x - u x + (u - 1) x is 0 identically.

    The bound: the partial sums of one term's three numerator
    contributions, in any order along its string, are x, -u x, (u - 1) x,
    x - u x, u x or -x, each of absolute value at most 2M per v-degree,
    M = p.bound; the last is 0.  A quotient coefficient of a string, and
    its remainder, are sums of such partial sums, one per input term, so
    they are at most 2 M P, P the most input terms on one string.  If that
    does not fit p's width, the strings, still within M, are first
    repacked at the width of the widening rule (PackedSeries.width_for).
    """
    s, ii = -p.var, i - 1
    # P; the strings hold some of p's terms, so as many strings as terms
    # hold one term each
    longest = min(len(strings), 1)
    if len(strings) < len(p.terms):
        longest = max(map(len, [st[1] for st in strings.values()
                                if len(st) == 2]), default=longest)
    bound = 2 * p.bound * longest
    width = p.width_for(bound, p.width)
    if width != p.width:
        strings = {key: (st[0], p.repacked(st[1], width)) if len(st) == 2
                   else (st[0], st[1], p.repacked({0: st[2]}, width)[0])
                   for key, st in strings.items()}
    table = None if limit is None else limit[ii]
    is_t = s > 0  # T (u = v^-1), not T'
    out, nums, skips = {}, {}, {}
    for key, string in strings.items():
        skip = None
        if table is not None:
            skip = table[key][3]
            if skip is _PENDING:
                skip = table.skip(key)
        if len(string) == 2:
            c, string = string
            if skip:
                skips[key] = skip
            # t = -b is the string coordinate along alpha = -a_i
            nums[key] = num = {}
            for b, x in string.items():
                y = x << width
                t = b - c  # -(b + k)
                num[t] = num.get(t, 0) + x
                num[t - s] = num.get(t - s, 0) - y
                num[-b] = num.get(-b, 0) + y - x
            continue
        c, b, x = string
        if not x:
            continue
        y = x << width
        e = c - b + is_t
        head, tail = key[:ii], key[ii:]
        if e > b:
            z, first, last, run = -y if is_t else x, b + 1, e, x - y
        else:
            z, first, last, run = -x if is_t else y, e + 1, b + 1, y - x
        # the b in [lo, hi) are dropped: the skip's t = -b (none: an empty
        # range at last)
        lo, hi = (last, last) if skip is None else (1 - skip[1], 1 - skip[0])
        if not lo <= e < hi:
            out[head + (e,) + tail] = z
        for b in range(first, min(last, lo)):
            out[head + (b,) + tail] = run
        for b in range(max(first, hi), last):
            out[head + (b,) + tail] = run
    if nums:
        out.update(_divide_strings(nums, ii, -1, width, bound, skips=skips))
    return PackedSeries(p.anchor, out, width, bound, p.low, p.var)


def apply_T(spec, i, s, limit=None):
    """T_i of a PackedSeries, or T'_i if s is packed in v (s.var = 1), as a
    PackedSeries; see the module docstring.  A walk's limit (its string
    tables) drops the terms of the image that can no longer feed its sum.
    A generator outside 1..n raises WeylError."""
    return _kernel(s, _strings(rootdata.build_cartan(spec), s.anchor,
                               s.terms, i, limit), i, limit)


def apply_T_word(spec, word, s, kind=T_KIND):
    """T_w (or T'_w) of an exact AnchoredSeries, rightmost letter first:
    s is packed once for the kind (u = v^-1 for T, v for T') and stays
    packed from letter to letter, and the packed value's var names the
    kind to every later step.  Anything but an exact AnchoredSeries (a
    truncated one, or a value already packed) raises HeckeError."""
    if not isinstance(s, AnchoredSeries) or not s.exact:
        raise HeckeError("the operators need an exact (finite) "
                         "AnchoredSeries")
    if kind not in (T_KIND, TPRIME_KIND):
        raise HeckeError(f"unknown operator kind {kind!r}")
    return _word(spec, word, PackedSeries.pack(
        s.anchor, s.terms, -1 if kind == T_KIND else 1))


def _word(spec, word, p):
    """T_w (or T'_w, as p.var says) of a PackedSeries, rightmost letter
    first."""
    for i in reversed(tuple(word)):
        p = apply_T(spec, i, p)
    return p


def quadratic_difference(spec, i, p, image):
    """First (beta, lhs, rhs) where T_i^2 = (u - 1) T_i + u fails on p, a
    series packed for T (u = v^-1) or T' (u = v) by apply_T_word with the
    empty word, or None, given image = T_i p; compared packed, the right
    side u T_i p - T_i p + u p built in one pass at width_for's width (a
    factor u is x << width)."""
    bound = 2 * image.bound + p.bound
    width = p.width_for(bound, max(p.width, image.width))
    rhs = {b: (x << width) - x
           for b, x in image.repacked(image.terms, width).items()}
    for b, x in p.repacked(p.terms, width).items():
        rhs[b] = rhs.get(b, 0) + (x << width)
    return apply_T(spec, i, image).first_difference(
        PackedSeries(p.anchor, rhs, width, bound, p.low, p.var))


def word_difference(spec, w1, w2, images):
    """First (beta, lhs, rhs) where T_{w1} = T_{w2} fails on a series p
    packed for T (apply_T_word with the empty word), or None, compared
    packed: a braid relation T_i T_j T_i = T_j T_i T_j (adjacent i, j;
    simply-laced) or a commutation T_i T_j = T_j T_i (orthogonal i, j).
    images maps each generator i to T_i p, so the rightmost letter of
    either word is read there, not applied.  T' is conjugate to -v T, so
    these hold for T' as well."""
    return _word(spec, w1[:-1], images[w1[-1]]).first_difference(
        _word(spec, w2[:-1], images[w2[-1]]))


def conjugation_difference(spec, i, image, q):
    """First (beta, lhs, rhs) where e^{-rho} T'_i e^{rho} = -v T_i fails on
    a finite series, or None; image is T_i of that series packed for T,
    and q the series packed for T' (apply_T_word with the empty word).

    The rho-shift acts on the anchored data by raising every pairing
    label by one; exponent displacements are untouched, and so are the
    packed coefficients.  The sides are packed in v and in v^-1, so each
    is decoded once to compare.
    """
    shifted = PackedSeries(tuple(a + 1 for a in q.anchor), q.terms, q.width,
                           q.bound, q.low, q.var)
    lhs, rhs = (AnchoredSeries(spec, image.anchor, t.unpack(), _trusted=True)
                for t in (apply_T(spec, i, shifted), image))
    return lhs.first_difference(rhs.scale(-V))


def symmetrizer_stabilized(spec, anchor_labels, depth, margin=DEFAULT_MARGIN,
                           layer_cap=DEFAULT_LAYER_CAP, seed=None):
    """Partial symmetrizer truncated to `depth`, run until stabilization.

    On an affine spec, layers are added until `margin` consecutive layers
    contribute nothing at ht <= depth, for at most MAX_LAYERS layers.  On
    a finite spec the walk takes every layer of W, margin unread, and
    stabilizes when the orbit ends.  The walk starts at e^anchor, or at a
    seed packed for T (apply_T_word).  Returns (series, achieved_length,
    stabilized); an unstabilized result, MAX_LAYERS run out first, must
    be treated as unverified by callers.
    """
    if depth < 0:
        raise HeckeError(f"depth must be >= 0, got {depth}")
    if not spec.affine:
        margin = None
    elif margin < 1:
        raise HeckeError("margin must be >= 1")
    if seed is None:
        seed = apply_T_word(spec, (), AnchoredSeries.monomial(
            spec, tuple(anchor_labels)))
    n = spec.num_nodes
    total, length, stabilized = _walk(
        spec, tuple(range(1, n + 1)), (1,) * n, seed, layer_cap, depth,
        margin)
    return (AnchoredSeries(spec, seed.anchor, total.unpack(), depth=depth,
                           _trusted=True), length, stabilized)


def symmetrizer_chain(spec, anchor_labels, layer_cap=None):
    """sum_{w in W} T_w(e^anchor) over a finite Weyl group, exactly, by a
    chain of parabolic subgroups J_1 < ... < J_n, J_k the first k nodes of
    _chain_nodes.  Returns (total, l(w0)), total packed.

    Every w in W_{J_k} factors uniquely as w = u x with x in W_{J_{k-1}},
    u a minimal coset representative and l(w) = l(u) + l(x) (Humphreys,
    Reflection Groups and Coxeter Groups, 1.10).  So with X_0 = e^anchor,
    X_k = sum_u T_u(X_{k-1}) over those u, and X_n is the whole sum.  The
    u of step k are the orbit of the fundamental coweight of J_k's last
    node under W_{J_k}, which _walk walks on the principal block of the
    Cartan matrix over J_k with labels (0, ..., 0, 1).  l(w0) is the sum
    of the cosets' lengths, and layer_cap bounds each coset layer, the
    most the chain holds at once.  X_k goes packed from coset to coset
    (_walk), without its zero ints.
    """
    if spec.affine:
        raise HeckeError("the parabolic chain needs a finite spec")
    labels = tuple(anchor_labels)
    nodes = _chain_nodes(rootdata.build_cartan(spec), labels)
    total = apply_T_word(spec, (), AnchoredSeries.monomial(spec, labels))
    length = 0
    for k in range(1, len(nodes) + 1):
        total.terms = {beta: x for beta, x in total.terms.items() if x}
        total, coset_length, _ = _walk(spec, nodes[:k], (0,) * (k - 1) + (1,),
                                       total, layer_cap)
        length += coset_length
    return total, length


def _chain_nodes(cartan, labels):
    """The chain's nodes (1-based), chosen from the back: of the leaves of
    the Dynkin diagram on the nodes S still left, the node x placed last
    is one whose coset W_S / W_{S - x} is smallest, ties going to the
    larger label and then the lower index.  The coset's size is that of
    the orbit of x's fundamental coweight under W_S, which the chain's
    coset walk walks.  A small last coset applies few T_i to the largest
    value X_{k-1}, and a large label put late keeps the early values
    small, as T_i of a term grows with its pairing.  S stays connected,
    as a leaf of a tree is taken each time."""
    left, chosen = list(range(1, len(cartan) + 1)), []
    while left:
        block = _block(cartan, left)

        def cost(k):
            x = left[k]
            orbit = weyl.orbit_layers(block, tuple(
                int(j == k) for j in range(len(left))))
            return (sum(size for _, _, size in orbit), -labels[x - 1], x)

        leaves = [k for k, row in enumerate(block)
                  if sum(1 for a in row if a) <= 2]
        chosen.append(left.pop(min(leaves, key=cost)))
    return tuple(reversed(chosen))


def _block(cartan, nodes):
    """The principal block of the Cartan matrix over nodes (1-based)."""
    return tuple(tuple(cartan[a - 1][b - 1] for b in nodes) for a in nodes)


def _walk(spec, nodes, labels, seed, layer_cap, depth=None, margin=None):
    """Sum T_w(seed) over the w of weyl.orbit_layers(cartan, labels), one
    BFS layer at a time, seed a PackedSeries for T, cartan the principal
    block of spec's matrix over nodes (1-based; all of them, in order,
    when a depth is given); the block's letter i is the generator
    nodes[i - 1], which apply_T applies.

    Returns (total, length, stabilized), length being the number of layers
    walked.  The walk extends by left multiplication: w = s_i w' with the
    length adding, so T_w(seed) = T_i(T_{w'}(seed)), and each layer's
    exact values are built from its parents' and kept until the next layer
    has been built from them.  A layer of more than layer_cap elements
    raises HeckeError.  The values stay packed (PackedSeries; each is
    still built by apply_T), and every value is added straight into one
    packed accumulator, the total.  The bounds certify both:
    a value's bound is 2 M P for a parent's bound M (_kernel), the
    accumulator's is the sum of the bounds added, and each is widened
    before it could reach half its width, the condition for decoding and
    for the zero-remainder test.  A walk to a depth runs at most
    MAX_LAYERS layers (read at each call), and the chain's (depth None)
    has no budget; the end of a finite orbit stabilizes either.  With
    depth None the sum is exact.  With a depth the accumulator takes the
    seed's and each value's terms at ht <= depth with nonnegative
    displacement, and each value drops the terms that can no longer feed
    it (the hull, below); with a margin as well, the walk stops,
    stabilized, after `margin` consecutive quiet layers, whose elements
    each contribute nothing there.  stabilized is False when MAX_LAYERS runs out first.

    The hull.  Let lam = anchor + rho.  T_i(e^mu) lies on the a_i-string
    between mu and s_i(mu + rho) - rho (its numerator does, _kernel), so
    every term that any word of T's makes from e^{anchor - beta} lies in
    conv(W(lam - beta)) - rho.  lam - beta has a dominant conjugate
    lam - beta+ (W is finite, or lam has positive level, so lam - beta
    lies in the Tits cone), and every weight of that hull lies below it
    (Kac, Infinite-Dimensional Lie Algebras, Prop. 3.12 and ch. 11): all
    that beta produces has displacement >= beta+, so height >= ht(beta+).
    Q(beta) = 2<lam, beta> - beta^T A beta = |lam|^2 - |lam - beta|^2 is
    W-invariant, so Q(beta) = Q(beta+).  Every term of the walk descends
    from a term beta0 of the seed, so its beta+ >= beta0+ >= m, the
    componentwise least beta0+ over the seed.  So q_max, the largest
    Q(gamma) over the finite set of gamma >= m with ht(gamma) <= depth and
    lam - gamma dominant (_q_max), bounds Q of every term with
    ht(beta+) <= depth: a term with Q(beta) > q_max, and everything that
    any word of T's makes from it, lies deeper than the depth.  The kernel
    drops those terms of each value, one interval per a_i-string
    (_StringTable).
    T_i is linear, so every value keeps its terms at ht <= depth and those
    of every value built from it: the accumulator, every quiet test, the
    length and the flag are those of the unpruned walk, and the bounds
    still hold, as a coefficient sums fewer terms.

    The string tables.  A walk at a depth keeps one table of a_i-strings
    per generator (_StringTable, built by _hull), and hands the list to
    every apply_T and _loud as their limit: on first sight of a string
    key kappa (beta without coordinate i) the table of i computes every
    pairing <a_j, anchor - kappa> from the nonzero Cartan entries, and
    from them c (_strings) and ht(kappa); the reach test
    (_strings_reaching) reads c, ht(kappa) and the pairings.  Q(kappa)
    and the skipped range (_StringTable.skip) wait for the kernel's first
    use of the string, as the reach test drops many strings, and go into
    its entry; an empty range is stored as None.  None of these depends
    on the value a string belongs to, so each (i, kappa) is computed once
    per walk, however many values and calls meet it.  Without a
    certificate the tables' q_max is None and nothing is skipped.  The
    chain (depth None) has no tables.

    The last layers of a stop are settled without their exact values,
    from the values of the layer before them.  When one more quiet layer
    would stop the walk, layer L is settled: T_i is applied only to the
    a_i-strings of each parent's value that _strings_reaching keeps
    (_loud), and not at all to a value that keeps none.  When two would,
    layers L and L + 1 are settled together: for each child s_j c of
    c = s_i p, that image of p's value is tested in turn with T_j.  If
    every contribution is zero the walk ends there, the settled layers
    counted; otherwise layer L is built exactly.

    This is exact.  T_i is linear and maps each a_i-string (the terms that
    differ only in beta_i) into itself.  A term beta with
    k = <a_i, anchor - beta> has its numerator at beta_i, beta_i + k and
    beta_i + k + 1, the coefficients summing to zero, so the quotient,
    summed from the shallow end of the string, vanishes at and above the
    string's shallowest numerator position b0: T_i of a kept string is
    exact and lies deeper than b0.  Along a string ht rises by one per
    step, and ht + min(0, k_j) rises too for j != i, as k_j changes by
    -a_ji >= 0.  A string is therefore dropped only if, one step deeper
    than b0, ht > depth and ht + min(0, k_j) >= depth for every child j:
    its image then holds no term at ht <= depth and no j-reachable term,
    and only j-reachable terms (ht(beta) + min(0, k) < depth, k =
    <a_j, anchor - beta>, by the same argument) have a T_j image at
    ht <= depth.

    That decision is made term by term.  With e the position one step
    deeper than b0, e = min(least b, c - greatest b) + 1, and that is the
    least over the string's terms of e_b = min(b, c - b) + 1.  Both tests
    fail more as e grows: ht = ht(kappa) + e rises, and so does
    ht + min(0, k_j) for each j.  So the string passes at e iff one of its
    terms passes at its own e_b: a term's pass at e_b >= e carries to e,
    and at e the string's test is the test of the term whose e_b is
    least.  Only the terms of kept strings are grouped into strings
    (_strings_reaching).

    The symmetries.  A walk to a depth holds one value per G-orbit of each
    layer, G the permutations g of the nodes with A[g(j)][g(k)] = A[j][k]
    and anchor[g(k)] = anchor[k] that map the seed's term map onto itself
    (_symmetries); the exact sum (depth None, the chain) passes no
    actions, so G is trivial, every orbit one element.  g moves
    coordinate k of a displacement to g(k), and acts on W by s_k ->
    s_{g(k)}; it fixes rho^vee, so the orbit key of g w g^-1 is g of w's,
    and it keeps lengths, so each layer is a union of G-orbits.  T_i is
    G-equivariant: T_{g(i)}(g f) = g(T_i f).  For mu = anchor - beta,
    g mu = anchor - g beta as the anchor is g-invariant, and
    <a_{g(i)}, g mu> = <a_i, mu> as A is; so the three numerator
    positions of e^{g mu} under T_{g(i)}, with their coefficients, are
    the g-images of those of e^mu under T_i, and so is the division by
    (1 - e^{a_{g(i)}}) = g(1 - e^{a_i}).  With the seed g-invariant,
    T_{g w g^-1}(seed) = g T_w(seed).  So the walk builds the value of the
    first element c of each orbit (in the order of the plain BFS) from its
    parent's, by apply_T, and adds to the accumulator the terms of c's
    value at ht <= depth, then those terms moved by one g per other
    element g c of the orbit; no value is permuted to build a layer.

    The walk over W/G.  weyl.orbit_layers, handed G's actions (_actions),
    expands only the first element it meets of each orbit, and marks the
    whole orbit seen when it meets it.  It finds the first elements of the
    plain BFS, with the same letters and parents, in the same order:
    (a) In the plain BFS, c's parent p is the first of its own orbit, so
    its value is held: were p = h e with e earlier in p's orbit,
    h^-1 c = s_{h^-1(i)} e, of c's orbit and one longer than e, would be
    reached from e or before it (orbit_layers takes every step that
    lengthens), so before c, or be c itself and be recorded with a parent
    earlier than p.
    (b) The plain BFS takes the steps of first elements in the same
    relative order as the walk over W/G.  Both take a layer's parents in
    order, each parent's steps in order of generator index, and, by
    induction on the layer, list the first elements in the same order.
    Now let O be an orbit of layer L + 1, which holds no element of an
    earlier layer.  The plain BFS records each element at the first step
    that reaches it, so O's first element c is the child of the first
    plain step (p, i) that reaches O.  By (a) p is a first element, so the
    walk over W/G takes (p, i), and by (b) every step it takes before
    (p, i) comes before it in the plain BFS too, so reaches no element of
    O.  The walk therefore meets O first at (p, i), records c there with
    letter i and parent p, and records the orbits in the order of their
    first steps, which is the plain order of their first elements.  The
    images of c are those of the plain layer's orbit: one act per element
    g c other than c.

    Nothing else changes.  ht, beta >= 0, Q (lam and A are g-invariant)
    and the string tables are G-invariant: the entry of (g(i), g kappa)
    holds the pairings, c, ht and skipped range of (i, kappa), moved by
    g.  So the hull drops, under the limit, exactly the g-images of the
    terms it drops, the reach test keeps the g-images of the strings it
    keeps, and each relabelled copy is the value the walk over elements
    would build, with its bound and width (2 M P, P the most terms on a
    string).  An element contributes at ht <= depth iff the first of its
    orbit does, so the accumulator, the quiet tests, the settles (run on
    the first steps of the orbits of L and of L + 1, _quiet), the length
    and the flag are those of the walk over elements; _capped reads the
    layer's element count, the sum of its orbits' sizes.
    """
    cartan = _block(rootdata.build_cartan(spec), nodes)
    limit, acts, max_layers, terms = None, (), None, seed.terms
    if depth is not None:
        max_layers = MAX_LAYERS
        limit = _hull(spec, cartan, seed, depth)
        acts = _actions(_symmetries(cartan, seed.anchor, seed.terms))
        terms = {b: x for b, x in terms.items()
                 if sum(b) <= depth and min(b) >= 0}
    acc = PackedSeries(seed.anchor, {}, seed.width, 0, seed.low, seed.var)
    acc.add(PackedSeries(seed.anchor, terms, seed.width, seed.bound,
                         seed.low, seed.var))
    # the first orbit key of each G-orbit of a layer -> its T_w(seed)
    layer = {(0,) * len(cartan): seed}
    # each layer as (the first steps of its G-orbits [(orbit key, letter,
    # parent's key)], their images, its element count), capped
    layers = (_capped(orbits, layer_cap)
              for orbits in weyl.orbit_layers(cartan, labels, acts=acts))
    ahead = None  # the next layer, taken by a look-ahead
    length = quiet = 0
    stabilized = False
    while max_layers is None or length < max_layers:
        orbits = next(layers, None) if ahead is None else ahead
        ahead = None
        if orbits is None:
            stabilized = True  # finite orbit exhausted
            break
        length += 1
        firsts, images, _ = orbits
        if margin is not None and quiet == margin - 1 and _quiet(
                cartan, firsts, (), layer, depth, limit):
            stabilized = True
            break
        if (margin is not None and quiet == margin - 2
                and length != max_layers):
            ahead = next(layers, None)
            if ahead is not None and _quiet(cartan, firsts, ahead[0], layer,
                                            depth, limit):
                length += 1
                stabilized = True
                break
        layer = {child: apply_T(spec, nodes[i - 1], layer[parent],
                                limit=limit)
                 for child, i, parent in firsts}
        loud = False
        for child, value in layer.items():
            terms = value.terms if depth is None else {
                b: x for b, x in value.terms.items()
                if sum(b) <= depth and min(b) >= 0}
            for copy in [terms] + [{act(b): x for b, x in terms.items()}
                                   for act in images[child]]:
                loud = acc.add(PackedSeries(
                    value.anchor, copy, value.width, value.bound, value.low,
                    value.var)) or loud
        quiet = 0 if loud else quiet + 1
        if margin is not None and quiet >= margin:
            stabilized = True
            break
    return acc, length, stabilized


def _symmetries(cartan, anchor, terms):
    """G: the permutations g of the nodes (g[k] the image of node k,
    0-based) with A[g[j]][g[k]] = A[j][k] and anchor[g[k]] = anchor[k]
    that map the term map onto itself, g beta having coordinate beta_k at
    g[k]; the identity first.  A backtracking search places the images of
    nodes 0, 1, ... in turn, each only where its label and its Cartan
    entries against every node already placed agree (a_kk = 2 for all
    k)."""
    n = len(cartan)
    found = []

    def place(image):
        k = len(image)
        if k == n:
            if all(terms.get(act(b)) == x for act in _actions([image])
                   for b, x in terms.items()):
                found.append(tuple(image))
            return
        for q in range(n):
            if (q not in image and anchor[q] == anchor[k]
                    and all(cartan[q][g] == cartan[k][j]
                            and cartan[g][q] == cartan[j][k]
                            for j, g in enumerate(image))):
                place(image + [q])

    place([])
    return found


def _actions(group):
    """beta -> g beta, an itemgetter of g's inverse, for each g other than
    the identity of a group of node permutations, in order."""
    return [itemgetter(*sorted(range(len(g)), key=g.__getitem__))
            for g in group if list(g) != sorted(g)]


def _hull(spec, cartan, seed, depth):
    """The string tables of a walk of seed at depth, [_StringTable of a_i
    for i in 1..n] (see _walk), with the hull's q_max; it is None where
    the certificate is void (an affine anchor + rho of level <= 0, whose
    conjugates have no dominant one) or finds no gamma."""
    lam = tuple(a + 1 for a in seed.anchor)
    q_max = None
    if not spec.affine or sum(map(
            mul, rootdata.minimal_imaginary_coroot(spec).coords, lam)) > 0:
        q_max = _q_max(cartan, lam, seed.terms, depth)
    return [_StringTable(cartan, seed.anchor, ii, q_max)
            for ii in range(len(cartan))]


def _q_max(cartan, lam, betas, depth):
    """The largest Q(gamma) = 2<lam, gamma> - gamma^T A gamma over the
    gamma >= m with ht(gamma) <= depth and lam - gamma dominant, m the
    componentwise least displacement of the dominant conjugates of the
    lam - beta, beta in betas; None if there is no such gamma.

    The search fixes gamma's coordinates in turn, depth-first.  An
    off-diagonal a_jk is <= 0, so a coordinate k != j not yet fixed can
    raise <lam - gamma, a_j> by at most lift_j = max(-a_jk) per unit of
    the height still free; a branch where some pairing stays below 0
    even so holds no dominant gamma, and a larger gamma_m only lowers
    that bound on pairing m, so the loop over gamma_m stops there."""
    tops = []
    for beta in betas:
        # reflect lam - beta to its dominant conjugate lam - beta+
        while j := next((j for j in range(1, len(cartan) + 1)
                         if weyl.pairing(cartan, lam, beta, j) < 0), 0):
            beta = weyl.reflect(cartan, lam, beta, j)
        tops.append(beta)
    low = tuple(map(min, zip(*tops)))
    n = len(low)
    # lifts[m][j]: lift_j while coordinates m, m + 1, ... are free
    lifts = [[max((-cartan[j][k] for k in range(m, n) if k != j), default=0)
              for j in range(n)] for m in range(n + 1)]
    columns = list(zip(*cartan))
    best = None

    def search(m, gamma, pairings, room):
        nonlocal best
        if m == n:
            # Q(gamma) = sum_j gamma_j (lam_j + <lam - gamma, a_j>)
            q = sum(map(mul, gamma, map(add, lam, pairings)))
            best = q if best is None else max(best, q)
            return
        lift, column = lifts[m + 1], columns[m]
        for up in range(room + 1):
            if up:
                pairings = list(map(sub, pairings, column))
            if pairings[m] + lift[m] * (room - up) < 0:
                return
            if all(p + x * (room - up) >= 0
                   for p, x in zip(pairings, lift)):
                search(m + 1, gamma[:m] + (gamma[m] + up,) + gamma[m + 1:],
                       pairings, room - up)

    search(0, low, [x - sum(map(mul, row, low))
                    for x, row in zip(lam, cartan)], depth - sum(low))
    return best


# the skipped range of a table entry that the kernel has not used yet
_PENDING = object()


class _StringTable(dict):
    """{kappa: (c, ht(kappa), (P_1, ..., P_n), skip)} for the a_i-strings
    of a walk (i = ii + 1), kappa being beta without coordinate i (kappa_i
    = 0), each entry computed on its first lookup and kept for the rest of
    the walk: the pairings P_j = <a_j, anchor - kappa>, from the nonzero
    Cartan entries in O(n + edges), and c = P_i.

    With q_max not None, the hull certificate (see _walk) drops each term
    beta with Q(beta) > q_max.  Along a string, beta = kappa + b a_i and
    Q(beta) = Q(kappa) + 2b(c + 1 - b), with Q(kappa) =
    sum_j kappa_j (anchor_j + P_j + 2).  So the dropped b are those with
    (2b - c - 1)^2 < (c + 1)^2 - 2(q_max - Q(kappa)), one interval per
    string, found with isqrt.  skip is that range, (lo, hi) as the
    kernel's division takes it (the terms at beta_i = -t with
    lo <= t < hi are dropped), or None if it drops nothing; it is _PENDING
    until the kernel first divides the string (skip), so strings that
    only the reach test reads never compute Q."""

    __slots__ = ("q_max", "_ii", "_anchor", "_cols", "_lams")

    def __init__(self, cartan, anchor, ii, q_max):
        super().__init__()
        self.q_max, self._ii, self._anchor = q_max, ii, anchor
        # the nonzero entries (j, a_jk) of each column k a key keeps, and
        # anchor_k + 2
        self._cols = [[(j, row[k]) for j, row in enumerate(cartan) if row[k]]
                      for k in range(len(anchor)) if k != ii]
        self._lams = [a + 2 for a in anchor[:ii] + anchor[ii + 1:]]

    def __missing__(self, key):
        ii, pairings = self._ii, list(self._anchor)
        for x, col in zip(key, self._cols):
            if x:
                for j, a in col:
                    pairings[j] -= a * x
        self[key] = found = (pairings[ii], sum(key), tuple(pairings),
                             None if self.q_max is None else _PENDING)
        return found

    def skip(self, key):
        """The skipped range of the string key, stored in its entry."""
        c, h, pairings, _ = self[key]
        ii, skip = self._ii, None
        q = sum(map(mul, key, map(add, self._lams,
                                  pairings[:ii] + pairings[ii + 1:])))
        r = (c + 1) ** 2 - 2 * (self.q_max - q)
        if r > 0:
            r = isqrt(r - 1)  # |2b - c - 1| <= r
            lo, hi = -((c + 1 + r) // 2), (r - c - 1) // 2 + 1
            if lo < hi:
                skip = (lo, hi)
        self[key] = (c, h, pairings, skip)
        return skip


def _capped(orbits, layer_cap):
    """A layer of orbit_layers (steps, images, size), or HeckeError if its
    size is larger than layer_cap."""
    size = orbits[2]
    if layer_cap is not None and size > layer_cap:
        raise HeckeError(f"layer of size {size} exceeds cap {layer_cap}")
    return orbits


def _loud(cartan, p, i, depth, limit, js=()):
    """True iff T_i(p), or T_j T_i(p) for some j in js, has a term at
    ht <= depth with nonnegative displacement, p a PackedSeries; T_i is
    applied to the a_i-strings that _strings_reaching keeps, under the
    walk's limit, and not at all if it keeps none."""
    strings = _strings_reaching(cartan, p, i, js, depth, limit)
    if not strings:
        return False
    out = _kernel(p, strings, i, limit)
    return (any(sum(b) <= depth and min(b) >= 0 for b in out.terms)
            or any(_loud(cartan, out, j, depth, limit) for j in js))


def _strings_reaching(cartan, p, i, js, depth, limit):
    """The a_i-strings of a PackedSeries, grouped as _strings groups them,
    on which T_i can leave a term at ht <= depth, or a term that is
    j-reachable for some j in js (j != i), each tested at the shallowest
    position its image can hold; see _walk.  The strings' c, ht and
    pairings come from the walk's string tables (limit).

    s_i reverses a string, b -> c - b with b = beta_i, where c is
    <a_i, anchor - beta> at b = 0 (a_ii = 2).  So the shallowest numerator
    position on it is the lower of its least b and of its greatest b
    reflected, and the image starts one step deeper, at
    e = min(least b, c - greatest b) + 1: ht there is ht(kappa) + e, and
    the pairing with a_j is P_j(kappa) - a_ji e.  The string is kept iff
    room = depth - ht(kappa) - e >= 0, or P_j - a_ji e < room for some j,
    that is P_j + (1 - a_ji) e < depth - ht(kappa).

    Reach is decided term by term, and only the terms of the kept strings
    are grouped.  e is the least over the string's terms of
    e_b = min(b, c - b) + 1, and the test holds at e iff it holds at some
    e_b.  Proof: both halves are monotone in e.  room falls as e grows,
    and 1 - a_ji >= 1 (a_ji <= 0 for j != i), so P_j + (1 - a_ji) e
    rises with e.  So the test passing at some e_b >= e passes at e, and
    at e it is the test at the e_b of the term where the least is taken.
    A term whose string is already kept is not tested."""
    ii = i - 1
    table = limit[ii]
    column = [(j - 1, cartan[j - 1][ii]) for j in js]
    kept = set()
    for beta in p.terms:
        key = beta[:ii] + beta[ii + 1:]
        if key in kept:
            continue
        c, h, pairings, _ = table[key]
        b = beta[ii]
        e = (b if b + b <= c else c - b) + 1  # min(b, c - b) + 1
        # beyond the depth, ht(end) + min(0, x) < depth iff x < room
        room = depth - h - e
        if room < 0:  # kept only if some j-test passes
            for j, a in column:
                if pairings[j] - a * e < room:
                    break
            else:
                continue
        kept.add(key)
    if not kept:
        return {}
    return _strings(cartan, p.anchor, {
        beta: x for beta, x in p.terms.items()
        if beta[:ii] + beta[ii + 1:] in kept}, i, limit)


def _quiet(cartan, steps, ahead, layer, depth, limit):
    """True iff no element of the layer of steps, nor of the layer ahead
    of it (() for none), contributes at ht <= depth, computed from the
    values of the layer before them (layer[parent]) alone; see _walk.
    The steps are the first steps of each G-orbit (weyl.orbit_layers),
    those ahead from parents that are the first of theirs."""
    children = {}
    for _, j, c in ahead:
        children.setdefault(c, []).append(j)
    return not any(_loud(cartan, layer[p], i, depth, limit,
                         children.get(c, ()))
                   for c, i, p in steps)
