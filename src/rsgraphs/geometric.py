"""Geometric construction of a nearly complete graph with an induced-matching cover.

Vertices are the lattice [1..C]^n.  With mu = n(C^2-1)/6 the mean squared
distance between uniform lattice points, xy is an edge iff
|  ||x-y||^2 - mu | <= n.  Around every lattice point z sits the shell
V_z = { x : | ||x-z||^2 - mu/4 | <= 3n/4 }; each edge's midpoint-plus-balance
center lands both endpoints in that shell (guaranteed for n >= 2C).

The cover gives each edge to the shell of its own center (else, when n < 2C,
to the lowest shell holding both endpoints) and each such group of edges a
first-fit induced-matching cover.  Groups are independent, so their
first-fit runs in lockstep in numpy, one edge of every running group per
step, with a per-vertex bitset of blocked matchings in place of a scan over
the matchings.

All band predicates are evaluated in exact integer arithmetic after scaling
away the denominators (6 for mu, 24 for mu/4); no floats ever decide an edge.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import MAX_COVER_WORK, InternalCheckError, ParameterError, ResourceLimitError
from .errors import VerificationError, check_caps
from .graphs import Graph, MatchingCover, adjacency_matrix, graph_of_rows
from .lattice import lattice_points, vertex_coords

# Bytes of temporary arrays a step may hold at once: each block of distance,
# band or edge-by-shell membership rows, and the packed blocked[group,
# matching, vertex] bits of one lockstep chunk of groups (a chunk always
# takes at least one group).
_CHUNK_BYTES = 1 << 22


class GeomParams(NamedTuple("GeomParams", [("C", int), ("n", int)])):
    """Lattice side C >= 2 and dimension n.

    Odd n is accepted (n_even flags it); the shell-coverage guarantee is only
    asserted when n >= 2C.
    """

    __slots__ = ()

    def __new__(cls, C: int, n: int):
        if C < 2:
            raise ParameterError(f"need C >= 2, got {C}")
        if n < 0:
            raise ParameterError(f"need n >= 0, got {n}")
        return super().__new__(cls, C, n)

    @property
    def mu(self) -> Fraction:
        return mean_sq_distance(self.C, self.n)

    @property
    def n_even(self) -> bool:
        return self.n % 2 == 0

    @property
    def vertex_count(self) -> int:
        return self.C**self.n


def mean_sq_distance(C: int, n: int) -> Fraction:
    """E ||x - y||^2 for independent uniform x, y in [1..C]^n, exactly n(C^2-1)/6."""
    if C < 2 or n < 0:
        raise ParameterError(f"need C >= 2 and n >= 0, got C={C}, n={n}")
    return Fraction(n * (C * C - 1), 6)


def in_edge_band(sq_dist, p: GeomParams):
    """Exact test of | sq_dist - mu | <= n, scaled by 6; elementwise on an
    integer array."""
    return abs(6 * sq_dist - p.n * (p.C * p.C - 1)) <= 6 * p.n


def in_shell_band(sq_dist, p: GeomParams):
    """Exact test of | sq_dist - mu/4 | <= 3n/4, scaled by 24; elementwise on
    an integer array."""
    return abs(24 * sq_dist - p.n * (p.C * p.C - 1)) <= 18 * p.n


def _pair_sq_dists(block: np.ndarray, pts: np.ndarray, sq: np.ndarray, sq_block: np.ndarray):
    # Exact despite the float matmul: every intermediate value is an integer
    # bounded by n*(C-1)^2 << 2^53.
    gram = block.astype(np.float64) @ pts.astype(np.float64).T
    return (sq_block[:, None] + sq[None, :] - 2.0 * gram).astype(np.int64)


def build_geometric_graph(p: GeomParams, max_vertices: int | None = None) -> Graph:
    """Materialize the band graph on [1..C]^n with mixed-radix vertex ids."""
    N = p.vertex_count
    check_caps(N, max_vertices)
    pts = lattice_points(p.C, p.n)
    sq = (pts * pts).sum(axis=1)
    block = max(1, _CHUNK_BYTES // (8 * max(N, 1)))  # rows of int64 distances
    return graph_of_rows(N, block, lambda a, b: in_edge_band(
        _pair_sq_dists(pts[a:b], pts[a:], sq[a:], sq[a:b]), p))


def missing_edge_bound(p: GeomParams) -> float:
    """Hoeffding bound C(N,2) * 2 * exp(-n / (2 C^4)) on the number of non-edges."""
    N = p.vertex_count
    return math.comb(N, 2) * 2.0 * math.exp(-p.n / (2.0 * p.C**4))


def _shell_membership(p: GeomParams) -> np.ndarray:
    """Bool (N, N) matrix: entry [z, x] says x lies in the shell V_z.

    Membership depends only on ||x - z||, so the matrix is symmetric and row
    x also lists the shells that contain x.
    """
    pts = lattice_points(p.C, p.n)
    sq = (pts * pts).sum(axis=1)
    member = np.empty((len(pts), len(pts)), dtype=bool)
    block = max(1, _CHUNK_BYTES // (8 * len(pts)))
    for start in range(0, len(pts), block):
        d2 = _pair_sq_dists(pts[start : start + block], pts, sq, sq[start : start + block])
        member[start : start + block] = in_shell_band(d2, p)
    return member


def max_shell_degree(p: GeomParams, g: Graph) -> int:
    """Largest degree of any shell-induced subgraph G_z (by the volume
    argument it is at most (10.5)^n)."""
    member = _shell_membership(p)
    # deg[z, x] = |N(x) & V_z|, the degree of x in G_z when x is a member.
    # The float matmul is exact: every entry is an integer count <= N << 2^53.
    deg = member.astype(np.float64) @ adjacency_matrix(g).astype(np.float64)
    return int(deg.max(where=member, initial=0))


def _first_shells(member: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Lowest shell id containing both endpoints of each edge; -1 for none."""
    first = np.empty(len(eu), dtype=np.int64)
    block = max(1, _CHUNK_BYTES // max(len(member), 1))
    for start in range(0, len(eu), block):
        both = member[eu[start : start + block]] & member[ev[start : start + block]]
        f = both.argmax(axis=1)
        f[~both[np.arange(len(f)), f]] = -1
        first[start : start + block] = f
    return first


def _edge_centers(p: GeomParams, eu: np.ndarray, ev: np.ndarray):
    """Center id of each edge xy, z = (x+y)/2 + w, and whether both
    endpoints lie in its shell V_z; one pass per coordinate.  w_i is 0 where
    a_i = y_i - x_i is even, else +-1/2 opposing the running sum of a_j w_j
    (+1/2 on a tie), which keeps |<a, w>| <= C/2 and z integral in [1..C]^n."""
    pts = lattice_points(p.C, p.n)
    # 2 * sum(a_j w_j), the center id, ||x - z||^2 and ||y - z||^2 so far
    twice, zid, dx, dy = np.zeros((4, len(eu)), dtype=np.int64)
    for i in range(p.n):
        x, y = pts[eu, i], pts[ev, i]
        a = y - x
        h = np.where(twice > 0, -np.sign(a), np.where(twice < 0, np.sign(a), 1))
        h *= a % 2
        twice += a * h
        z = (x + y + h) // 2
        zid *= p.C
        zid += z - 1
        dx += (x - z) ** 2
        dy += (y - z) ** 2
    return zid, in_shell_band(dx, p) & in_shell_band(dy, p)


def _lockstep_first_fit(seqs, eu, ev, closed: np.ndarray, match: np.ndarray) -> None:
    """Write into match the first-fit matching index of every edge of every
    group in one chunk.

    seqs[c] holds group c's edge ids in processing order, longest group
    first.  Step k places the k-th edge of every group still running, so the
    running groups are always a prefix.  blocked[c, :, x] is a bitset over
    group c's matchings: bit i is set once matching i has a vertex in N[x],
    so edge uv fits matching i iff bit i is clear in blocked[c, :, u] and in
    blocked[c, :, v]; placing it ORs the contiguous row blocked[c, j] of its
    word j.
    """
    lengths = np.array([len(s) for s in seqs])
    steps = int(lengths[0])
    at = np.zeros((len(seqs), steps), dtype=np.intp)  # edge ids, padded past each group's end
    for c, s in enumerate(seqs):
        at[c, : len(s)] = s
    running = len(seqs) - np.searchsorted(lengths[::-1], np.arange(steps), side="right")
    # A group never has more matchings than edges, so steps + 1 bits suffice.
    blocked = np.zeros((len(seqs), steps // 64 + 1, len(closed)), dtype=np.uint64)
    rows = np.arange(len(seqs))
    top = -1  # highest matching index used so far in this chunk
    for k in range(steps):
        r = rows[: running[k]]
        e = at[r, k]
        u, v = eu[e], ev[e]
        words = (top + 1) // 64 + 1  # bit top+1 is clear in every group
        free = ~(blocked[r, :words, u] | blocked[r, :words, v])
        j = (free != 0).argmax(axis=1)
        word = free[r, j]
        low = word & (~word + np.uint64(1))  # lowest clear bit of the blocked word
        i = 64 * j + np.frexp(low.astype(np.float64))[1] - 1
        match[e] = i
        top = max(top, int(i.max()))
        blocked[r, j] |= (closed[u] | closed[v]) * low[:, None]


def decompose_geometric(p: GeomParams, g: Graph) -> MatchingCover:
    """Cover E(g) by induced matchings, one first-fit cover per center group.

    Each edge goes to the shell of its center z(e) (see _edge_centers), or,
    if that shell misses an endpoint (which needs n < 2C), to the lowest
    shell holding both.  Each group's first-fit places its edges in
    ascending (u, v) order, each in the lowest-index matching of the group
    that stays induced in all of G.  The cover is ordered by (group id,
    matching index, edge order).

    The groups run in lockstep (see _lockstep_first_fit), each edge updating
    one word per vertex; over MAX_COVER_WORK updates raise ResourceLimitError
    first.  An edge in no shell raises VerificationError.
    """
    eu, ev = g.pairs.T
    if len(eu) * g.n > MAX_COVER_WORK:
        raise ResourceLimitError(f"the shell cover needs {len(eu)} edges x {g.n} vertices "
                                 f"= {len(eu) * g.n} lockstep updates, over {MAX_COVER_WORK}")
    group, inside = _edge_centers(p, eu, ev)
    out = np.flatnonzero(~inside)
    if len(out):
        group[out] = _first_shells(_shell_membership(p), eu[out], ev[out])
    uncovered = out[group[out] < 0]
    if len(uncovered):
        e = (int(eu[uncovered[0]]), int(ev[uncovered[0]]))
        x, y = (vertex_coords(v, p.C, p.n) for v in e)
        raise VerificationError(
            f"edge {e} = {x}-{y} lies in no shell (n >= 2C hypothesis "
            f"{'held' if p.n >= 2 * p.C else 'violated'})"
        )
    sizes = np.bincount(group, minlength=g.n)
    seqs = np.split(np.argsort(group, kind="stable"), np.cumsum(sizes)[:-1])
    order = sorted(np.flatnonzero(sizes), key=lambda z: -sizes[z])
    closed = adjacency_matrix(g)
    np.fill_diagonal(closed, True)
    match = np.empty(len(eu), dtype=np.int64)  # matching index within the group
    start = 0
    while start < len(order):
        per_group = g.n * (sizes[order[start]] // 64 + 1) * 8
        chunk = order[start : start + max(1, _CHUNK_BYTES // per_group)]
        start += len(chunk)
        _lockstep_first_fit([seqs[z] for z in chunk], eu, ev, closed, match)
    # A stable sort on (group, matching index) keeps edge order within a matching.
    key = group * len(eu) + match
    rank = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[rank], prepend=-1))
    cover = MatchingCover(g.pairs[rank], np.append(starts, len(rank)))
    d = g.max_degree()
    if cover.t > g.n * 2 * d * d:
        raise InternalCheckError("cover size exceeded the N * 2 d^2 bound")
    return cover


def exponent_report(p: GeomParams) -> dict:
    """Asymptotic exponent formulas for the construction, reported untested."""
    C = p.C
    return {
        "edge_exponent": 2.0 - 1.0 / (2.0 * C**4 * math.log(C)),
        "matchings_exponent": 1.0 + 2.0 * math.log(10.5) / math.log(C),
        "hoeffding_exponent": "n/(2*C^4)",
        "shell_degree_base": 10.5,
    }
