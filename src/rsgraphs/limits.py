"""Structural limits on induced-matching covers.

Contains the triangle-graph reduction (every edge in exactly one triangle),
the complement-minimum-degree obstruction C(d_v, 2) >= (r-1)(N-1-d_v), and
the heuristic lower-bound formulas for the number of missing edges.  The
lower-bound constants are leading-order only and are for reporting, never for
pass/fail decisions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError, ParameterError, VerificationError
from .graphs import Graph, MatchingCover, unpack_rows, verify_cover


def uniformize(c: MatchingCover, r: int) -> tuple[MatchingCover, list[tuple[int, int]]]:
    """Split every matching into blocks of exactly r edges, dropping remainders.

    Edges are taken in ascending order within each matching; the dropped
    leftovers are returned alongside the new cover.
    """
    if r < 1:
        raise ParameterError(f"need r >= 1, got {r}")
    blocks: list[list[tuple[int, int]]] = []
    dropped: list[tuple[int, int]] = []
    for m in c.matchings:
        edges = sorted(m)
        nblocks = len(edges) // r
        for b in range(nblocks):
            blocks.append(edges[b * r : (b + 1) * r])
        dropped.extend(edges[nblocks * r :])
    return MatchingCover.from_matchings(blocks), dropped


def greedy_bipartition(g: Graph) -> tuple[int, int]:
    """Deterministic max-cut bipartition (left mask, right mask).

    Vertices are placed in ascending id order, each on the side holding fewer
    of its already-placed neighbors (ties to the left side), so at least half
    of all edges end up crossing.
    """
    left = right = 0
    for v in range(g.n):
        nm = g.neighbors_mask(v)
        if (nm & left).bit_count() <= (nm & right).bit_count():
            left |= 1 << v
        else:
            right |= 1 << v
    return left, right


@dataclass
class TriangleGraph:
    """Tripartite graph H on U + V + apexes; every H-edge is in exactly one triangle."""

    graph: Graph
    left: tuple[int, ...]  # original vertex ids placed left
    right: tuple[int, ...]
    apexes: tuple[int, ...]  # one new vertex per surviving matching
    triangles: tuple[tuple[int, int, int], ...]  # (u, v, apex)
    crossing_edges: int


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
            f"cover is not uniform (sizes {rep.r_min}..{rep.r_max}); uniformize first"
        )
    right = unpack_rows([greedy_bipartition(g)[1]], g.n)[0]
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
    h = Graph.from_edges(nv, ends.tolist())
    triangles = tuple(zip(u.tolist(), v.tolist(), w.tolist()))
    if 2 * crossing < g.edge_count:
        raise InternalCheckError("bipartization kept fewer than half the edges")
    return TriangleGraph(
        graph=h,
        left=tuple(np.flatnonzero(~right).tolist()),
        right=tuple(np.flatnonzero(right).tolist()),
        apexes=tuple(range(g.n, nv)),
        triangles=triangles,
        crossing_edges=crossing,
    )


def triangle_census(g: Graph) -> tuple[int, dict[tuple[int, int], int]]:
    """Exhaustive triangle count plus per-edge triangle membership counts."""
    per_edge: dict[tuple[int, int], int] = {}
    total = 0
    for u, v in g.edges():
        k = (g.neighbors_mask(u) & g.neighbors_mask(v)).bit_count()
        per_edge[(u, v)] = k
        total += k
    if total % 3:
        raise InternalCheckError("per-edge triangle counts are inconsistent")
    return total // 3, per_edge


@dataclass
class MinDegreeReport:
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
    margins: list[int] = []
    violations: list[int] = []
    for v in range(g.n):
        dv = g.n - 1 - g.degree(v)
        margin = dv * (dv - 1) // 2 - (r - 1) * (g.n - 1 - dv)
        margins.append(margin)
        if margin < 0:
            violations.append(v)
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


def missing_lower_bounds(N: int, r: int):
    """Heuristic lower bounds on the number of missing edges, constants set to 1.

    Returns (general, bipartite_fn): the general bound
    r^(1/2) N^(3/2) / (2 sqrt 2), and a callable (|U|, |V|) ->
    r^(2/3) |U|^(2/3) |V|^(2/3) that requires r >= 3.  Leading-order
    reporting only; never a pass/fail criterion.
    """
    if r < 2:
        raise ParameterError(f"the general bound needs r >= 2, got {r}")
    if N < 1:
        raise ParameterError(f"need N >= 1, got {N}")
    general = (r**0.5) * (N**1.5) / (2.0 * 2.0**0.5)

    def bipartite(u_count: int, v_count: int) -> float:
        if r < 3:
            raise ParameterError(f"the bipartite bound needs r >= 3, got {r}")
        if u_count < 1 or v_count < 1:
            raise ParameterError("part sizes must be >= 1")
        return (r ** (2.0 / 3.0)) * (u_count ** (2.0 / 3.0)) * (v_count ** (2.0 / 3.0))

    return general, bipartite


def write_triangle_graph(tg: TriangleGraph, path: str) -> None:
    """Header "NV NE NT", then NE edge lines "u v", then NT lines "u v w"."""
    g = tg.graph
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.edge_count} {len(tg.triangles)}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
        for u, v, w in tg.triangles:
            fh.write(f"{u} {v} {w}\n")
