"""Structural limits on induced-matching covers.

Contains the triangle-graph reduction (every edge in exactly one triangle)
with its triangle census, and the complement-minimum-degree obstruction
C(d_v, 2) >= (r-1)(N-1-d_v).
"""

from typing import NamedTuple

import numpy as np

from .errors import InternalCheckError, ParameterError, VerificationError
from .graphs import Graph, MatchingCover, adjacency_matrix, verify_cover, write_rows

# Wedges that edge_triangles checks at once.
_WEDGES = 1 << 15


def greedy_bipartition(g: Graph) -> np.ndarray:
    """Deterministic max-cut bipartition: a bool array, True on the right.

    Vertices are placed in ascending id order, each on the side holding fewer
    of its already-placed neighbors (ties to the left side), so at least half
    of all edges end up crossing.
    """
    adj = adjacency_matrix(g)
    right = np.zeros(g.n, dtype=bool)
    for v in range(g.n):
        placed = adj[v, :v]
        right[v] = 2 * np.count_nonzero(placed & right[:v]) < np.count_nonzero(placed)
    return right


class TriangleGraph:
    """Tripartite graph H on U + V + apexes; every H-edge is in exactly one
    triangle.  == is identity: triangles is an array.

    left and right are the original vertex ids placed on each side, apexes
    one new vertex per surviving matching, and triangles a (T, 3) int64
    array of rows (u, v, apex)."""

    __slots__ = ("graph", "left", "right", "apexes", "triangles", "crossing_edges")

    def __init__(self, graph: Graph, left: tuple[int, ...], right: tuple[int, ...],
                 apexes: tuple[int, ...], triangles: np.ndarray, crossing_edges: int):
        self.graph, self.left, self.right, self.apexes = graph, left, right, apexes
        self.triangles, self.crossing_edges = triangles, crossing_edges


def triangle_graph(g: Graph, c: MatchingCover) -> TriangleGraph:
    """Reduce a uniform induced-matching cover to a triangle graph.

    The bipartition keeps >= |E|/2 crossing edges; each matching restricted
    to crossing edges gets one apex joined to all its endpoints.  Each
    crossing edge plus its apex is one triangle, and the triangle count
    equals the number of crossing edges.
    """
    rep = verify_cover(g, c)
    if not rep.valid:
        raise VerificationError(f"cover is invalid ({len(rep.violations)} violations)")
    if rep.t and rep.r_min != rep.r_max:
        raise ParameterError(
            f"cover is not uniform (sizes {rep.r_min}..{rep.r_max}); the reduction "
            "needs matchings of one size"
        )
    right = greedy_bipartition(g)
    pairs, sizes = c.pairs, np.diff(c.offsets)
    cross = right[pairs[:, 0]] != right[pairs[:, 1]]
    # crossing pairs written (left, right), matching by matching
    u, v = np.where(right[pairs[:, :1]], pairs[:, ::-1], pairs)[cross].T
    mid = np.repeat(np.arange(len(sizes)), sizes)[cross]
    has = np.bincount(mid, minlength=len(sizes)) > 0
    w = g.n + (np.cumsum(has) - 1)[mid]  # one apex per matching with a crossing pair
    crossing = len(u)
    nv = g.n + int(np.count_nonzero(has))
    ends = np.concatenate((np.stack((u, v), 1), np.stack((u, w), 1), np.stack((v, w), 1)))
    if 2 * crossing < g.edge_count:
        raise InternalCheckError("bipartization kept fewer than half the edges")
    return TriangleGraph(
        graph=Graph.from_edges(nv, ends),
        left=tuple(np.flatnonzero(~right).tolist()),
        right=tuple(np.flatnonzero(right).tolist()),
        apexes=tuple(range(g.n, nv)),
        triangles=np.stack((u, v, w), axis=1),
        crossing_edges=crossing,
    )


def triangle_census(g: Graph) -> tuple[int, dict[tuple[int, int], int]]:
    """Exhaustive triangle count plus per-edge triangle membership counts."""
    counts = edge_triangles(g)
    ids = list(range(g.n))  # one int object per vertex, shared by the keys
    keys = ((ids[u], ids[v]) for u, v in g.edges())
    return int(counts.sum()) // 3, dict(zip(keys, counts.tolist()))


def edge_triangles(g: Graph) -> np.ndarray:
    """The number of triangles on each edge of g, in the order of g.pairs.

    Each edge is directed away from its endpoint lower in (degree, id)
    order.  A triangle is then found exactly once, at its lowest vertex x,
    as the wedge of two edges x -> p, x -> q whose closing pair pq is an
    edge: a binary search for its key in the sorted edge keys.  Wedges are
    checked in chunks of about _WEDGES."""
    n, m = g.n, g.edge_count
    u, v = g.pairs.T
    keys = u * n + v  # ascending, as g.pairs is sorted
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(g.degrees(), kind="stable")] = np.arange(n)
    flip = rank[u] > rank[v]
    tail, head = np.where(flip, v, u), np.where(flip, u, v)
    out = np.lexsort((head, tail))  # out-edges by tail, heads ascending
    tail, head = tail[out], head[out]
    # out-edge j makes a wedge with each later out-edge of its tail
    later = np.searchsorted(tail, tail, side="right") - np.arange(1, m + 1)
    ends = np.cumsum(later)
    found = [np.empty(0, dtype=np.int64)]  # edge ids, three per triangle
    a = 0
    while a < m:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - later[a] + _WEDGES, side="right")))
        k = later[a:b]
        first = np.repeat(np.arange(a, b), k)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(k) - k, k)
        key = head[first] * n + head[second]
        at = np.minimum(np.searchsorted(keys, key), m - 1)
        hit = keys[at] == key
        found += [out[first[hit]], out[second[hit]], at[hit]]
        a = b
    return np.bincount(np.concatenate(found), minlength=m)


class MinDegreeReport(NamedTuple):
    r: int
    margins: list[int]  # C(d_v, 2) - (r-1)(N-1-d_v) per vertex
    violations: list[int]  # vertices with negative margin
    min_margin: int


def check_min_degree_bound(g: Graph, r: int, cover: MatchingCover | None = None) -> MinDegreeReport:
    """Necessary condition for a cover by size-r induced matchings.

    Every vertex v with complement degree d_v must satisfy
    C(d_v, 2) >= (r-1)(N-1-d_v).  A negative margin is a certificate that no
    size-r cover exists; if a verified uniform size-r cover is supplied
    anyway, a violation is an internal contradiction and raises.
    """
    if r < 1:
        raise ParameterError(f"need r >= 1, got {r}")
    n = g.n
    margins = [d * (d - 1) // 2 - (r - 1) * (n - 1 - d) for d in (n - 1 - g.degrees()).tolist()]
    violations = [v for v, margin in enumerate(margins) if margin < 0]
    report = MinDegreeReport(
        r=r,
        margins=margins,
        violations=violations,
        min_margin=min(margins, default=0),
    )
    if cover is not None:
        rep = verify_cover(g, cover)
        if rep.valid and rep.t and rep.r_min == rep.r_max == r and violations:
            raise InternalCheckError(
                f"vertices {violations[:5]} violate the minimum-degree bound "
                "although a verified uniform cover exists"
            )
    return report


def write_triangle_graph(tg: TriangleGraph, path: str) -> None:
    """Header "NV NE NT", then NE edge lines "u v", then NT lines "u v w"."""
    g = tg.graph
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.edge_count} {len(tg.triangles)}\n")
        write_rows(fh, g.pairs)
        write_rows(fh, tg.triangles)
