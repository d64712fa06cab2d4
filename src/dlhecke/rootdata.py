"""Simply-laced root data (A_l, D_l, E_6/7/8) and untwisted affinizations.

Everything is carried in simple-coroot integer coordinates; all pairings
go through the Cartan matrix, fixed once and for all as
A[i][j] = <a_i, a_j^vee>.  Finite nodes are numbered 1..l in Bourbaki
order; the affine node, when present, is node l+1.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache


class RootDataError(ValueError):
    """Invalid family/rank combination or malformed spec string."""


_SPEC_RE = re.compile(r"^([ADE])(\d+)(!?)$")


@dataclass(frozen=True)
class RootSystemSpec:
    """A simply-laced finite type, or its untwisted affinization.

    rank is always the finite rank l; an affine spec has l+1 nodes.
    """

    family: str
    rank: int
    affine: bool = False

    def __post_init__(self):
        fam, l = self.family, self.rank
        if fam == "A":
            if l < 1:
                raise RootDataError(f"A{l} needs rank >= 1")
        elif fam == "D":
            if l < 3:
                raise RootDataError(f"D{l} needs rank >= 3")
            if l == 3:
                # D3 = A3; canonicalize so equal root systems compare equal
                object.__setattr__(self, "family", "A")
        elif fam == "E":
            if l not in (6, 7, 8):
                raise RootDataError(f"E{l} is not a root system")
        else:
            raise RootDataError(f"unknown family {fam!r} (simply-laced only)")

    @classmethod
    def parse(cls, text):
        """Parse "A2", "D4!", ... ("!" marks the affinization)."""
        m = _SPEC_RE.match(text.strip())
        if not m:
            raise RootDataError(f"cannot parse spec string {text!r}")
        fam, l, bang = m.groups()
        return cls(fam, int(l), affine=bool(bang))

    def __str__(self):
        return f"{self.family}{self.rank}{'!' if self.affine else ''}"

    @property
    def num_nodes(self):
        return self.rank + 1 if self.affine else self.rank

    @property
    def finite(self):
        """The underlying finite spec."""
        return RootSystemSpec(self.family, self.rank, affine=False)


@dataclass(frozen=True)
class Coroot:
    """A positive coroot in simple-coroot coordinates."""

    coords: tuple
    kind: str  # "real" | "imaginary"
    multiplicity: int

    @property
    def height(self):
        return sum(self.coords)


def _finite_edges(family, rank):
    """Bourbaki Dynkin-diagram edges as 1-based node pairs."""
    if family == "A":
        return [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        edges = [(i, i + 1) for i in range(1, rank - 1)]
        edges.append((rank - 2, rank))
        return edges
    # E: chain 1-3-4-5-6(-7-8) with node 2 hanging off node 4
    chain = [1, 3, 4, 5, 6, 7, 8][:rank - 1]
    edges = [(a, b) for a, b in zip(chain, chain[1:])]
    edges.append((2, 4))
    return edges


@lru_cache(maxsize=None)
def build_cartan(spec):
    """The (generalized) Cartan matrix of the spec as a tuple of tuples."""
    l = spec.rank
    fin = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    for a, b in _finite_edges(spec.family, l):
        fin[a - 1][b - 1] = -1
        fin[b - 1][a - 1] = -1
    if not spec.affine:
        return tuple(tuple(row) for row in fin)
    theta = highest_root(spec.finite).coords
    n = l + 1
    aff = [[0] * n for _ in range(n)]
    for i in range(l):
        for j in range(l):
            aff[i][j] = fin[i][j]
    for j in range(l):
        pair = sum(fin[j][k] * theta[k] for k in range(l))
        aff[l][j] = -pair
        aff[j][l] = -pair
    aff[l][l] = 2
    return tuple(tuple(row) for row in aff)


def spec_hash(spec):
    """Stable content hash of a spec's Cartan matrix (report headers)."""
    import hashlib  # on first use: slow to import

    payload = json.dumps({"spec": str(spec),
                          "cartan": [list(r) for r in build_cartan(spec)]})
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _reflect_coroot(cartan, coords, i):
    """Image of a coroot under the i-th simple reflection (1-based i)."""
    pair = sum(cartan[i - 1][j] * coords[j] for j in range(len(coords)))
    out = list(coords)
    out[i - 1] -= pair
    return tuple(out)


@lru_cache(maxsize=None)
def highest_root(spec):
    """theta^vee of a finite spec (simply-laced: same coords as theta)."""
    if spec.affine:
        raise RootDataError("finite spec required")
    roots = [r.coords for r in positive_coroots_up_to(spec, None)]
    top = max(roots, key=sum)
    # sanity: unique maximum in dominance order
    assert all(all(t - b >= 0 for t, b in zip(top, beta)) for beta in roots)
    return Coroot(top, "real", 1)


@lru_cache(maxsize=None)
def minimal_imaginary_coroot(spec):
    """c = theta^vee + a_{l+1}^vee of an affine spec."""
    if not spec.affine:
        raise RootDataError("affine spec required")
    theta = highest_root(spec.finite).coords
    return Coroot(theta + (1,), "imaginary", spec.rank)


def positive_coroots_up_to(spec, depth):
    """All positive coroots of height <= depth, with multiplicities; with
    depth None, every positive coroot of a finite spec (an affine spec has
    infinitely many, so it needs a depth).

    Real coroots come from a height-bounded BFS orbit of the simples under
    the simple reflections; imaginary coroots (affine only) are the
    multiples j*c, each of multiplicity l = finite rank.
    """
    if depth is None:
        if spec.affine:
            raise RootDataError(f"{spec} has infinitely many positive "
                                "coroots; give a height bound")
    elif depth < 0:
        raise RootDataError("depth must be >= 0")

    def kept(beta):
        return depth is None or sum(beta) <= depth

    cartan = build_cartan(spec)
    n = spec.num_nodes
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(b for b in simples if kept(b))
    frontier = list(seen)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(1, n + 1):
                img = _reflect_coroot(cartan, beta, i)
                if (all(x >= 0 for x in img) and kept(img)
                        and img not in seen):
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    out = [Coroot(b, "real", 1) for b in seen]
    if spec.affine:
        c = minimal_imaginary_coroot(spec)
        j = 1
        while j * c.height <= depth:
            out.append(Coroot(tuple(j * x for x in c.coords), "imaginary",
                              spec.rank))
            j += 1
    out.sort(key=lambda r: (r.height, r.coords))
    return out


@lru_cache(maxsize=None)
def exponents(spec):
    """Exponents of a finite spec via the height-histogram oracle.

    The number of positive roots at each height, read as a partition,
    has conjugate partition equal to the exponent multiset.
    """
    if spec.affine:
        raise RootDataError("finite spec required")
    hist = {}
    for root in positive_coroots_up_to(spec, None):
        hist[root.height] = hist.get(root.height, 0) + 1
    parts = sorted(hist.values(), reverse=True)
    conj = [sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1)]
    return tuple(sorted(conj))
