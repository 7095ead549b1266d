"""Code-based construction: a graph on [1..C]^n covered by flip-class matchings.

Two words a, b are adjacent iff they agree on fewer than d coordinates
(Hamming distance > n - d).  For an adjacent ordered pair with agreement set
S (|S| = r < d), flipping the disagreement coordinates by the codewords of a
proper [n-r, k] code partitions the ordered pairs into classes of size
exactly 2^k; each class, read as 2^(k-1) unordered edges, is an induced
matching, because cross endpoints of two class edges agree on at least
r + (d - r) = d coordinates.  One matching per class covers every edge.

Classes are computed on vertex ids, not coordinate tuples: swapping
coordinate i of (a, b) adds the fixed step (b_i - a_i) C^(n-1-i) to a's id
and subtracts it from b's, so the images of all edges under a codeword are
masked sums of steps, taken for every edge at once in numpy.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .codes import CodeChain, validate_chain
from .errors import InternalCheckError, ParameterError, check_lattice
from .graphs import Graph, MatchingCover, adjacency_matrix, doubled_cover, graph_of_rows
from .graphs import singles_cover
from .lattice import lattice_points

# Edges per chunk that enumerate_cover keys at once; the chunk's per-edge
# arrays stay a few MB.
_CHUNK_PAIRS = 1 << 13


class CodeGraphParams(NamedTuple("CodeGraphParams", [("C", int), ("n", int), ("d", int),
                                                    ("chain", CodeChain | None)])):
    """Alphabet size C, length n, agreement threshold d, and the code chain.

    The chain is only needed by the flip-class operations; graph building and
    the counting bounds run with chain=None.
    """

    __slots__ = ()

    def __new__(cls, C: int, n: int, d: int, chain: CodeChain | None = None):
        if C < 2:
            raise ParameterError(f"need C >= 2, got {C}")
        if not 0 <= d <= n:
            raise ParameterError(f"need 0 <= d <= n, got d={d}, n={n}")
        if chain is not None:
            if d < 1:
                raise ParameterError("a code chain requires d >= 1")
            validate_chain(chain, n, chain.k, d)
        return super().__new__(cls, C, n, d, chain)

    @property
    def k(self) -> int:
        if self.chain is None:
            raise ParameterError("these parameters carry no code chain")
        return self.chain.k

    @property
    def vertex_count(self) -> int:
        return self.C**self.n


def build_code_graph(p: CodeGraphParams, max_vertices: int | None = None) -> Graph:
    """Materialize the agreement-threshold graph with mixed-radix vertex ids."""
    N = check_lattice(p.C, p.n, max_vertices)
    pts = lattice_points(p.C, p.n)
    return graph_of_rows(N, max(1, 2**21 // max(N, 1)),
                         lambda a, b: (pts[a:b, None, :] == pts[None, a:, :]).sum(axis=2) < p.d)


def enumerate_cover(p: CodeGraphParams, g: Graph) -> MatchingCover:
    """One induced matching per flip class, in ascending canonical order.

    Swapping coordinate i of an ordered pair (a, b) moves a's id by the step
    (b_i - a_i) C^(n-1-i) and b's id by minus that step, so the image of
    (a, b) under a codeword w is (a + s, b - s), s the sum of the steps at
    the disagreement coordinates w selects (bit j picks the j-th smallest).
    Its key a'N + b' is aN + b + s(N - 1), and a class's canonical key is the
    least of these over the 2^k codewords of the code for the pair's
    agreement count.  The edges u < v, in ascending order and stably sorted
    by that key, are the classes in ascending canonical order with edges
    ascending within each.  Every class must hold 2^(k-1) edges; the
    classes are induced by the agreement argument, and the cover gates that
    use them (verify_cover, verify_cover_bipartite) check it.
    """
    N, n = g.n, p.n
    size = 1 << (p.k - 1)  # edges per class
    pts = lattice_points(p.C, n)
    place = p.C ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # bits[r][j, c]: bit j of codeword c of the code for pairs agreeing on r coordinates
    bits = [(np.array(c.codewords()) >> np.arange(c.n)[:, None]) & 1 for c in p.chain.codes]
    keys = [np.empty(0, dtype=np.int64)]
    for a in range(0, g.edge_count, _CHUNK_PAIRS):
        u, v = g.pairs[a : a + _CHUNK_PAIRS].T
        step = (pts[v] - pts[u]) * place
        free = step != 0
        agree = n - free.sum(axis=1)
        if (agree >= p.d).any():
            raise ParameterError("pair is not an edge of the code graph")
        shift = np.empty(len(u), dtype=np.int64)
        for r, b in enumerate(bits):
            sel = agree == r
            cols = np.nonzero(free[sel])[1].reshape(-1, n - r)
            shift[sel] = (np.take_along_axis(step[sel], cols, axis=1) @ b).min(axis=1)
        keys.append(u * N + v + (N - 1) * shift)
    key = np.concatenate(keys)
    if (np.unique(key, return_counts=True)[1] != size).any():
        raise InternalCheckError("flip class has a wrong edge count")
    pairs = g.pairs[np.argsort(key, kind="stable")]
    return MatchingCover(pairs, np.arange(0, len(pairs) + 1, size))


class MissingEdgeBound(NamedTuple):
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
    """Exponent formulas (e, f) with N = C^n and x = d/n.

    e = 1 + (H(x) + (1 - x) log2(C-1)) / log2(C) is the missing-pair
    exponent: the code graph misses N^(e + o(1)) vertex pairs.
    f = 2 - (1 - H(x)) / log2(C) is the matching-count exponent: a GV code
    chain gives a cover of t = N^(f + o(1)) induced matchings.
    """
    if not 0 < d < n:
        raise ParameterError("exponent formulas need 0 < d < n")
    x = d / n
    h = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    e = 1.0 + (h + (1.0 - x) * math.log2(C - 1)) / math.log2(C)
    f = 2.0 - (1.0 - h) / math.log2(C)
    return e, f


class CoverCounts(NamedTuple):
    """Exact sizes of the second construction at (C, n, d, k)."""

    edges: int  # code-graph edges
    t: int  # flip classes, each 2^(k-1) edges
    remainder: int  # station pairs (u, v) with uv not an edge, diagonal included


def cover_counts(C: int, n: int, d: int, k: int) -> CoverCounts:
    """edges = (N/2) sum_{r<d} C(n,r) (C-1)^(n-r), t = edges / 2^(k-1) and
    remainder = N^2 - 2 edges, in exact ints (N = C^n).

    Every vertex has sum_{r<d} C(n,r) (C-1)^(n-r) neighbours: the words that
    agree with it on exactly r < d coordinates.  The flip classes split the
    edges into classes of exactly 2^(k-1).
    """
    N = C**n
    edges = N * sum(math.comb(n, r) * (C - 1) ** (n - r) for r in range(d)) // 2
    return CoverCounts(edges, edges >> (k - 1), N * N - 2 * edges)


class TwoChannelSplit:
    """K_{N,N} split into the bipartite double of the code graph with its
    doubled cover, and the rest with its pairs as one-pair matchings; each
    part is a bool (N, N) station matrix.  == is identity."""

    __slots__ = ("covered", "cover", "remainder", "singles")

    def __init__(self, covered: np.ndarray, cover: MatchingCover, remainder: np.ndarray,
                 singles: MatchingCover):
        self.covered, self.cover, self.remainder, self.singles = covered, cover, remainder, singles


def two_channel_split(p: CodeGraphParams) -> TwoChannelSplit:
    """Split K_{N,N} into the doubled code graph plus everything else.

    Station pair (u, v) belongs to the covered part iff uv is a code-graph
    edge: the covered part is the adjacency matrix.  The diagonal and all
    high-agreement pairs form the remainder, whose pairs are its one-pair
    matchings in ascending order.  The doubled cover is checked where it is
    used, by the K_{N,N} gate.
    """
    g = build_code_graph(p)
    cover = enumerate_cover(p, g)
    adj = adjacency_matrix(g)
    rest = ~adj
    return TwoChannelSplit(adj, doubled_cover(cover, g.n), rest, singles_cover(rest))
