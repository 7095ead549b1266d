"""Geometric construction of a nearly complete graph with an induced-matching cover.

Vertices are the lattice [1..C]^n.  With mu = n(C^2-1)/6 the mean squared
distance between uniform lattice points, xy is an edge iff
|  ||x-y||^2 - mu | <= n.  Around every lattice point z sits the shell
V_z = { x : | ||x-z||^2 - mu/4 | <= 3n/4 }; each edge's midpoint-plus-balance
center lands both endpoints in that shell (guaranteed for n >= 2C).

The cover gives each edge to the shell of its own center (else, when n < 2C,
to the lowest shell holding both endpoints) and each such group of edges a
first-fit induced-matching cover.  The graph is nearly complete, so for an
edge uv of group z the small set is S_e = V_z minus N[u] and N[v]: every
vertex of a matching uv can join lies in it.  An edge with no edge of its
group inside S_e stands alone, and the packed rows of S_e find nearly all
of them; only the rest are placed in order, every group in lockstep, with
one free set per matching.

All band predicates are evaluated in exact integer arithmetic after scaling
away the denominators (6 for mu, 24 for mu/4); no floats ever decide an edge.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import MAX_COVER_WORK, InternalCheckError, ParameterError, ResourceLimitError
from .errors import VerificationError, check_lattice
from .graphs import Graph, MatchingCover, adjacency_matrix, graph_of_rows
from .lattice import lattice_points, vertex_coords

# Bytes of temporary arrays a step may hold at once: each block of distance,
# band or edge-by-shell membership rows, each block of S_e rows, and the
# free sets of one lockstep chunk of groups (a chunk always takes at least
# one group).
_CHUNK_BYTES = 1 << 22
# The number of set bits of each byte value.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


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
    N = check_lattice(p.C, p.n, max_vertices)
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


def _bit_rows(rows: np.ndarray) -> np.ndarray:
    """Bool rows as little-endian 64-bit words: column x is bit x % 64 of
    word x // 64."""
    bits = np.packbits(rows, axis=1, bitorder="little")
    out = np.zeros((len(rows), -(-rows.shape[1] // 64) * 8), dtype=np.uint8)
    out[:, : bits.shape[1]] = bits
    return out.view("<u8")


def _ordered_edges(group, eu, ev, non: np.ndarray, mem: np.ndarray) -> np.ndarray:
    """Mask of the edges that the first-fit must place in order.

    Row x of non holds the vertices outside N[x], row z of mem the shell
    V_z, so S_e = non[u] & non[v] & mem[z] for edge e = uv of group z.
    Every vertex of a matching that e can join lies in S_e, and the relation
    is symmetric, so an edge with no edge of its group inside S_e can join
    or be joined by nothing: it opens a matching of its own.  That holds
    when |S_e| < 2, and is checked pair by pair when fewer than one group
    edge is expected inside S_e (C(|S_e|, 2) m_z < C(|V_z|, 2) for m_z edges
    in the group); every other edge is placed in order.
    """
    E, N = len(eu), len(non)
    m = np.bincount(group, minlength=N)
    s = _POPCOUNT[mem.view(np.uint8)].sum(axis=1).astype(np.int64)
    gid = np.full((N, N), -1, dtype=np.min_scalar_type(-N))  # group of each edge
    gid[eu, ev] = group
    ordered = np.zeros(E, dtype=bool)
    block = max(1, _CHUNK_BYTES // (8 * non.shape[1]))
    for start in range(0, E, block):
        stop = min(E, start + block)
        z = group[start:stop]
        S = non[eu[start:stop]] & non[ev[start:stop]] & mem[z]
        flat = np.flatnonzero(S.ravel() != 0)
        if not len(flat):
            continue
        r, w = np.divmod(flat, S.shape[1])
        words = S.ravel()[flat]
        ones = _POPCOUNT[words.view(np.uint8)].reshape(-1, 8).sum(axis=1)
        size = np.bincount(r, ones, minlength=stop - start).astype(np.int64)
        likely = size * (size - 1) * m[z] >= s[z] * (s[z] - 1)
        ordered[start:stop] = (size >= 2) & likely
        scan = ((size >= 2) & ~likely)[r]
        if not scan.any():
            continue
        bits = np.unpackbits(words[scan].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        k, j = np.nonzero(bits)
        el, x = r[scan][k], 64 * w[scan][k] + j  # S_e of each scanned edge, ascending
        # every pair x < y inside one S_e: each member pairs with the later ones
        run = np.flatnonzero(np.diff(el, prepend=-1))
        end = np.repeat(np.append(run[1:], len(el)), np.diff(np.append(run, len(el))))
        later = end - np.arange(len(el)) - 1
        a = np.repeat(np.arange(len(el)), later)
        b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
        inside = gid[x[a], x[b]] == z[el[a]]
        ordered[start + el[a[inside]]] = True
    return ordered


def _free_set_first_fit(order, group, eu, ev, non: np.ndarray, mem: np.ndarray) -> np.ndarray:
    """First-fit matching index, within its group, of each edge in `order`
    (edge ids, ascending).

    The free set F_i of matching i holds the vertices of V_z adjacent to
    none of its vertices, so edge e = uv fits matching i iff u and v lie in
    F_i.  A new matching's free set is S_e, and a join intersects it with
    S_e.  Groups are independent, so they run in lockstep, longest first:
    step k places the k-th edge of every group still running, and the
    running groups are always a prefix.  free[c, :, i] holds F_i of group c
    in the words of a row of non.
    """
    N, W = non.shape
    z = group[order]
    sizes = np.bincount(z, minlength=N)
    seqs = np.split(np.argsort(z, kind="stable"), np.cumsum(sizes)[:-1])
    groups = sorted(np.flatnonzero(sizes), key=lambda g: -sizes[g])
    match = np.empty(len(order), dtype=np.int64)
    one = np.uint64(1)
    start = 0
    while start < len(groups):
        chunk = groups[start : start + max(1, _CHUNK_BYTES // (8 * W * sizes[groups[start]]))]
        start += len(chunk)
        lengths = sizes[chunk]
        steps = int(lengths[0])
        at = np.zeros((len(chunk), steps), dtype=np.intp)  # positions in order, padded
        for c, g in enumerate(chunk):
            at[c, : lengths[c]] = seqs[g]
        running = len(chunk) - np.searchsorted(lengths[::-1], np.arange(steps), side="right")
        e = order[at]
        ends = np.stack([eu[e], ev[e]], axis=2)
        rows = np.arange(len(chunk))
        # the row of free2 and the bit that hold each endpoint in a free set of its group
        word = rows[:, None, None] * W + (ends >> 6)
        bit = (ends & 63).astype(np.uint64)[..., None]
        # Columns no matching has used yet are all ones, so the first of them fits any edge.
        free = np.full((len(chunk), W, steps), ~np.uint64(0))
        free2 = free.reshape(-1, steps)
        count = np.zeros(len(chunk), dtype=np.int64)  # matchings of each group so far
        for k in range(steps):
            n = running[k]
            both = free2[word[:n, k], : int(count[:n].max()) + 1]
            both >>= bit[:n, k]
            fits = both[:, 0] & both[:, 1] & one
            i = fits.argmax(axis=1)
            u, v = ends[:n, k].T
            free[rows[:n], :, i] &= non[u] & non[v] & mem[group[e[:n, k]]]
            count[:n] += i == count[:n]
            match[at[:n, k]] = i
    return match


def _check_work(work: int, what: str) -> None:
    if work > MAX_COVER_WORK:
        raise ResourceLimitError(f"the shell cover needs {what} = {work} word operations, "
                                 f"over {MAX_COVER_WORK}")


def decompose_geometric(p: GeomParams, g: Graph) -> MatchingCover:
    """Cover E(g) by induced matchings, one first-fit cover per center group.

    Each edge goes to the shell of its center z(e) (see _edge_centers), or,
    if that shell misses an endpoint (which needs n < 2C), to the lowest
    shell holding both.  Each group's first-fit places its edges in
    ascending (u, v) order, each in the lowest-index matching of the group
    that stays induced in all of G.  The cover is ordered by (group id,
    matching index, edge order).

    An edge that no other edge of its group can share a matching with
    opens one of its own (see _ordered_edges); the rest are placed in order
    (see _free_set_first_fit).  The work counted against MAX_COVER_WORK is
    |E| x ceil(N/64) words for the S_e rows, checked before they are made,
    plus the sum over groups of the squared count of edges placed in order,
    checked before they are placed; over the cap raises ResourceLimitError.
    An edge in no shell raises VerificationError.
    """
    eu, ev = g.pairs.T
    E, W = len(eu), -(-g.n // 64)
    _check_work(E * W, f"{E} edges x {W} row words")
    member = _shell_membership(p)
    group, inside = _edge_centers(p, eu, ev)
    out = np.flatnonzero(~inside)
    if len(out):
        group[out] = _first_shells(member, eu[out], ev[out])
    uncovered = out[group[out] < 0]
    if len(uncovered):
        e = (int(eu[uncovered[0]]), int(ev[uncovered[0]]))
        x, y = (vertex_coords(v, p.C, p.n) for v in e)
        raise VerificationError(
            f"edge {e} = {x}-{y} lies in no shell (n >= 2C hypothesis "
            f"{'held' if p.n >= 2 * p.C else 'violated'})"
        )
    closed = adjacency_matrix(g)
    np.fill_diagonal(closed, True)
    non, mem = _bit_rows(~closed), _bit_rows(member)
    opener = np.arange(E)  # the edge that opened each edge's matching
    order = np.flatnonzero(_ordered_edges(group, eu, ev, non, mem))
    if len(order):
        sizes = np.bincount(group[order])
        reads = int(sizes @ sizes)  # two words per earlier matching of the group, for each edge
        _check_work(E * W + reads, f"{E} edges x {W} row words + {reads} free-set reads "
                                   f"for the {len(order)} edges placed in order")
        match = _free_set_first_fit(order, group, eu, ev, non, mem)
        # a matching's index is its rank among its group's matchings, so its
        # first edge stands for it in the cover's order
        _, first, which = np.unique(group[order] * E + match, return_index=True,
                                    return_inverse=True)
        opener[order] = order[first][which.reshape(-1)]
    # A stable sort on (group, opening edge) keeps edge order within a matching.
    key = group * E + opener
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
