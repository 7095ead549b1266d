"""Code-based construction: a graph on [1..C]^n covered by flip-class matchings.

Two words a, b are adjacent iff they agree on fewer than d coordinates
(Hamming distance > n - d).  For an adjacent ordered pair with agreement set
S (|S| = r < d), flipping the disagreement coordinates by the codewords of a
proper [n-r, k] code partitions the ordered pairs into classes of size
exactly 2^k; each class, read as 2^(k-1) unordered edges, is an induced
matching, because cross endpoints of two class edges agree on at least
r + (d - r) = d coordinates.  One matching per class covers every edge.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import CodeChain, validate_chain
from .errors import InternalCheckError, ParameterError, check_caps
from .graphs import Graph, MatchingCover, bits_of, doubled_matchings, is_induced_matching
from .lattice import lattice_points, vertex_id

Coords = tuple[int, ...]
OrderedPair = tuple[Coords, Coords]


@dataclass(frozen=True)
class CodeGraphParams:
    """Alphabet size C, length n, agreement threshold d, and the code chain.

    The chain is only needed by the flip-class operations; graph building and
    the counting bounds run with chain=None.
    """

    C: int
    n: int
    d: int
    chain: CodeChain | None = None

    def __post_init__(self):
        if self.C < 2:
            raise ParameterError(f"need C >= 2, got {self.C}")
        if not 0 <= self.d <= self.n:
            raise ParameterError(f"need 0 <= d <= n, got d={self.d}, n={self.n}")
        if self.chain is not None:
            if self.d < 1:
                raise ParameterError("a code chain requires d >= 1")
            validate_chain(self.chain, self.n, self.k, self.d)

    @property
    def k(self) -> int:
        if self.chain is None:
            raise ParameterError("these parameters carry no code chain")
        return self.chain.k

    @property
    def vertex_count(self) -> int:
        return self.C**self.n


def agreement_set(a: Coords, b: Coords) -> tuple[int, ...]:
    """Sorted coordinate indices where a and b agree (0-based)."""
    if len(a) != len(b):
        raise ParameterError("length mismatch")
    return tuple(i for i, (x, y) in enumerate(zip(a, b)) if x == y)


def is_code_edge(a: Coords, b: Coords, p: CodeGraphParams) -> bool:
    return a != b and len(agreement_set(a, b)) < p.d


def build_code_graph(
    p: CodeGraphParams, max_vertices: int | None = None, max_pairs: int | None = None
) -> Graph:
    """Materialize the agreement-threshold graph with mixed-radix vertex ids."""
    N = p.vertex_count
    check_caps(N, max_vertices, max_pairs)
    pts = lattice_points(p.C, p.n)
    rows: list[int] = []
    block = max(1, 2**21 // max(N, 1))
    for start in range(0, N, block):
        stop = min(start + block, N)
        agree = (pts[start:stop, None, :] == pts[None, :, :]).sum(axis=2)
        mask = agree < p.d
        # a vertex agrees with itself on all n >= d coordinates, so the
        # diagonal is already excluded
        packed = np.packbits(mask, axis=1, bitorder="little")
        for r in packed:
            rows.append(int.from_bytes(r.tobytes(), "little"))
    return Graph(N, rows)


def x_flip(pair: OrderedPair, bits) -> OrderedPair:
    """Swap the disagreement coordinates of (a, b) selected by the bit vector.

    bits[j] = 1 swaps the j-th smallest index outside the agreement set; the
    all-ones flip returns (b, a).
    """
    a, b = pair
    free = [i for i in range(len(a)) if a[i] != b[i]]
    bits = list(bits)
    if len(bits) != len(free):
        raise ParameterError(
            f"flip vector must have length {len(free)}, got {len(bits)}"
        )
    c = list(a)
    e = list(b)
    for j, i in enumerate(free):
        if bits[j]:
            c[i], e[i] = b[i], a[i]
    return tuple(c), tuple(e)


def _class_pairs(pair: OrderedPair, p: CodeGraphParams) -> list[OrderedPair]:
    a, b = pair
    s = agreement_set(a, b)
    if a == b or len(s) >= p.d:
        raise ParameterError("pair is not an edge of the code graph")
    code = p.chain.code_for_agreements(len(s))
    free = [i for i in range(len(a)) if a[i] != b[i]]
    out = []
    for w in code.codewords():
        c = list(a)
        e = list(b)
        for j, i in enumerate(free):
            if (w >> j) & 1:
                c[i], e[i] = b[i], a[i]
        out.append((tuple(c), tuple(e)))
    return out


def class_canonical(pair: OrderedPair, p: CodeGraphParams) -> OrderedPair:
    """Lexicographically least ordered pair in the flip class of `pair`."""
    return min(_class_pairs(pair, p))


def enumerate_cover(p: CodeGraphParams, g: Graph | None = None) -> MatchingCover:
    """One induced matching per flip class, in ascending canonical order.

    Ordered pairs are scanned in ascending (a, b) id order; a pair already
    seen in an earlier class is skipped, so each class is built exactly once,
    from its canonical representative.  Every class is required to have 2^k
    ordered pairs, give 2^(k-1) unordered edges, and pass the induced check.
    """
    if g is None:
        g = build_code_graph(p)
    k = p.k
    pts = lattice_points(p.C, p.n)
    coords = [tuple(int(x) for x in row) for row in pts]
    seen: set[tuple[int, int]] = set()
    matchings: list[list[tuple[int, int]]] = []
    for a_id in range(g.n):
        for b_id in bits_of(g.neighbors_mask(a_id)):
            if (a_id, b_id) in seen:
                continue
            cls = _class_pairs((coords[a_id], coords[b_id]), p)
            id_pairs = [(vertex_id(c, p.C), vertex_id(e, p.C)) for c, e in cls]
            if len(set(id_pairs)) != 1 << k:
                raise InternalCheckError("flip class has fewer than 2^k ordered pairs")
            if min(id_pairs) != (a_id, b_id):
                raise InternalCheckError("scan order missed a canonical representative")
            seen.update(id_pairs)
            edges = sorted({(u, v) if u < v else (v, u) for u, v in id_pairs})
            if len(edges) != 1 << (k - 1):
                raise InternalCheckError("flip class has a wrong unordered edge count")
            if not is_induced_matching(g, edges):
                raise InternalCheckError(f"flip class at {(a_id, b_id)} is not induced")
            matchings.append(edges)
    return MatchingCover.from_matchings(matchings)


@dataclass(frozen=True)
class MissingEdgeBound:
    """Exact half-sum bound on missing pairs, and its closed-form relaxation."""

    exact: Fraction
    simplified: int | None
    hypothesis_holds: bool  # d/n >= 2/(C-1), needed for the relaxation


def missing_edge_count_bound(C: int, n: int, d: int) -> MissingEdgeBound:
    """(1/2) C^n sum_{i>=d} C(n,i) (C-1)^(n-i) >= number of non-adjacent pairs.

    The simplified form C(n,d) C^n (C-1)^(n-d) is valid when d/n >= 2/(C-1).
    """
    if C < 2 or not 0 <= d <= n:
        raise ParameterError(f"bad parameters C={C}, n={n}, d={d}")
    total = sum(math.comb(n, i) * (C - 1) ** (n - i) for i in range(d, n + 1))
    exact = Fraction(C**n * total, 2)
    holds = d * (C - 1) >= 2 * n
    simplified = math.comb(n, d) * C**n * (C - 1) ** (n - d) if holds else None
    return MissingEdgeBound(exact, simplified, holds)


def cover_exponents(C: int, n: int, d: int) -> tuple[float, float]:
    """Exponent formulas (e, f): t = O(N^e / r) style matching count and
    missing-pair exponent, with N = C^n.

    e = 1 + (H(d/n) + (1 - d/n) log2(C-1)) / log2(C)
    f = 2 - (1 - H(d/n)) / log2(C)
    """
    if not 0 < d < n:
        raise ParameterError("exponent formulas need 0 < d < n")
    x = d / n
    h = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    e = 1.0 + (h + (1.0 - x) * math.log2(C - 1)) / math.log2(C)
    f = 2.0 - (1.0 - h) / math.log2(C)
    return e, f


@dataclass
class TwoChannelSplit:
    """K_{N,N} on 2N vertices (right station v is vertex N+v), split into the
    bipartite double of the code graph with its doubled cover, and the rest."""

    covered: Graph
    cover: MatchingCover
    remainder: Graph


def two_channel_split(
    p: CodeGraphParams, g: Graph | None = None, cover: MatchingCover | None = None
) -> TwoChannelSplit:
    """Split K_{N,N} into the doubled code graph plus everything else.

    (u, N+v) belongs to the covered part iff uv is a code-graph edge; the
    diagonal and all high-agreement pairs form the remainder.  The doubled
    cover is checked where it is used, by the K_{N,N} gate.
    """
    if g is None:
        g = build_code_graph(p)
    if cover is None:
        cover = enumerate_cover(p, g)
    n = g.n
    full = (1 << n) - 1
    rows = [g.neighbors_mask(u) for u in range(n)]
    covered = Graph.from_bipartite_rows(rows)
    remainder = Graph.from_bipartite_rows([full & ~r for r in rows])
    if covered.edge_count + remainder.edge_count != n * n:
        raise InternalCheckError("split does not partition K_{N,N}")
    return TwoChannelSplit(covered, MatchingCover(doubled_matchings(cover, n)), remainder)
