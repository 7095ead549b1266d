"""The edge-array Graph against the bitmask graph it replaced.

BitGraph is the earlier Graph: a Python-int bitmask of neighbours per
vertex, built by a loop over the edges, held here only for the vertices
that have edges, so that a huge vertex count costs nothing.  It is the
oracle of the properties below (from_edges, triangle_census,
greedy_bipartition) and of the other bitmask oracles in tests/, first_fit
among them, which take an edge-array Graph and read it through bit_graph.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsgraphs import graphs, limits
from rsgraphs.errors import InternalCheckError, ParameterError
from rsgraphs.graphs import Graph, MatchingCover, adjacency_matrix
from rsgraphs.limits import greedy_bipartition, triangle_census, triangle_graph


def bits_of(mask: int):
    """Yield set-bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cover_from_matchings(matchings) -> MatchingCover:
    """The cover of the given matchings with each pair written (u, v), u <= v."""
    c = MatchingCover(list(matchings))
    c.pairs.sort(axis=1)
    return c


def complement_degree(g: Graph, v: int) -> int:
    """Degree of v in the complement graph: n - 1 - deg(v)."""
    if not 0 <= v < g.n:
        raise ParameterError(f"vertex {v} out of range")
    return g.n - 1 - int(g.degrees()[v])


def uniformize(c: MatchingCover, r: int) -> tuple[MatchingCover, list[tuple[int, int]]]:
    """Split every matching into blocks of exactly r edges, dropping remainders.

    Edges are taken in ascending order within each matching; the dropped
    leftovers are returned alongside the new cover.  It makes the uniform
    covers that the triangle reduction takes.
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
    return cover_from_matchings(blocks), dropped


def unpack_rows(masks: list[int], width: int) -> np.ndarray:
    """Bool (len(masks), width) matrix whose entry [u, v] is bit v of masks[u]."""
    mat = np.zeros((len(masks), width), dtype=bool)
    for u, mask in enumerate(masks):
        mat[u, list(bits_of(mask))] = True
    return mat


class BitGraph:
    """Undirected graph on vertex ids 0..n-1 with bitmask adjacency rows:
    rows[u] for each vertex u with edges."""

    __slots__ = ("n", "_rows", "_m")

    def __init__(self, n: int, rows: dict[int, int]):
        self.n = n
        self._rows = rows
        self._m = sum(r.bit_count() for r in rows.values()) // 2

    @classmethod
    def from_edges(cls, n: int, edges) -> "BitGraph":
        if n < 0:
            raise ParameterError("vertex count must be nonnegative")
        rows: dict[int, int] = {}
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            rows[u] = rows.get(u, 0) | 1 << v
            rows[v] = rows.get(v, 0) | 1 << u
        return cls(n, rows)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool((self.neighbors_mask(u) >> v) & 1)

    def neighbors_mask(self, u: int) -> int:
        return self._rows.get(u, 0)

    def degree(self, u: int) -> int:
        return self.neighbors_mask(u).bit_count()

    def max_degree(self) -> int:
        return max((r.bit_count() for r in self._rows.values()), default=0)

    @property
    def edge_count(self) -> int:
        return self._m

    def edges(self):
        """Yield edges (u, v) with u < v in ascending lexicographic order."""
        for u in sorted(self._rows):
            for v in bits_of(self._rows[u] >> (u + 1)):
                yield (u, u + 1 + v)


def bit_graph(g) -> BitGraph:
    """g as a BitGraph (g itself if it is one)."""
    return g if isinstance(g, BitGraph) else BitGraph.from_edges(g.n, g.edges())


def first_fit(g, edges) -> list[list[tuple[int, int]]]:
    """First-fit induced-matching cover of the given edges of g, in order:
    each edge joins the first matching with no vertex in N[u] | N[v]."""
    g = bit_graph(g)
    matchings: list[list[tuple[int, int]]] = []
    masks: list[int] = []
    for u, v in edges:
        conflict = g.neighbors_mask(u) | g.neighbors_mask(v) | (1 << u) | (1 << v)
        for i, pm in enumerate(masks):
            if pm & conflict == 0:
                matchings[i].append((u, v))
                masks[i] |= (1 << u) | (1 << v)
                break
        else:
            matchings.append([(u, v)])
            masks.append((1 << u) | (1 << v))
    return matchings


def greedy_cover_within(g, members: int) -> list[list[tuple[int, int]]]:
    """First-fit induced-matching cover of the subgraph induced on `members`
    (its matchings hold members only, so N[u] | N[v] in g decides as well)."""
    g = bit_graph(g)
    return first_fit(g, [
        (u, u + 1 + v)
        for u in bits_of(members)
        for v in bits_of((g.neighbors_mask(u) & members) >> (u + 1))
    ])


def oracle_triangle_census(g) -> tuple[int, dict[tuple[int, int], int]]:
    """The census as it was: per edge, the common neighbours of its ends."""
    g = bit_graph(g)
    per_edge = {}
    total = 0
    for u, v in g.edges():
        k = (g.neighbors_mask(u) & g.neighbors_mask(v)).bit_count()
        per_edge[(u, v)] = k
        total += k
    if total % 3:
        raise InternalCheckError("per-edge triangle counts are inconsistent")
    return total // 3, per_edge


def oracle_greedy_bipartition(g) -> tuple[int, int]:
    """The bipartition as it was: (left mask, right mask), ties to the left."""
    g = bit_graph(g)
    left = right = 0
    for v in range(g.n):
        nm = g.neighbors_mask(v)
        if (nm & left).bit_count() <= (nm & right).bit_count():
            left |= 1 << v
        else:
            right |= 1 << v
    return left, right


def outcome(build, n, edges):
    """The graph's n, edges, degrees and edge count, or the error it raised."""
    try:
        g = build(n, edges)
    except ParameterError as exc:
        return ("raises", str(exc))
    degrees = g.degrees().tolist() if isinstance(g, Graph) else [g.degree(v) for v in range(g.n)]
    return g.n, list(g.edges()), degrees, g.edge_count


@st.composite
def edge_lists(draw):
    """n and a list of vertex pairs, each way round, with repeats, and now
    and then a self-loop or an id outside 0..n-1."""
    n = draw(st.integers(0, 12))
    lo = draw(st.sampled_from([0, -2]))
    ids = st.integers(lo, max(lo, n - 1 + draw(st.sampled_from([0, 2]))))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=40))
    return n, [p for p in pairs if p[0] != p[1] or draw(st.integers(0, 9)) == 0]


@st.composite
def graphs_with_k4s(draw):
    """A random graph with some K4s planted, so that an edge can lie in
    several triangles."""
    n = draw(st.integers(0, 14))
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.floats(0.0, 1.0))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density]
    for _ in range(draw(st.integers(0, 3)) if n >= 4 else 0):
        quad = rnd.sample(range(n), 4)
        edges += [(a, b) for i, a in enumerate(quad) for b in quad[i + 1 :]]
    return Graph.from_edges(n, edges)


@settings(max_examples=400, deadline=None)
@given(edge_lists(), st.integers(1, 4))
def test_from_edges_equals_the_bitmask_graph(case, chunk):
    # the edges (read chunk by chunk), the degrees and the error text,
    # repeats and (v, u) merged
    n, edges = case
    want = outcome(BitGraph.from_edges, n, edges)
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    with mock.patch.object(graphs, "_WRITE_IDS", chunk):
        assert outcome(Graph.from_edges, n, edges) == want
        assert outcome(Graph.from_edges, n, arr) == want


def test_from_edges_checks_in_order():
    with pytest.raises(ParameterError, match="outside vertex range 0..2"):
        Graph.from_edges(3, [(0, 3), (1, 1)])
    with pytest.raises(ParameterError, match="self-loop at vertex 1"):
        Graph.from_edges(3, [(1, 1), (0, 3)])
    with pytest.raises(ParameterError, match="vertex count must be nonnegative"):
        Graph.from_edges(-1, [])


@settings(max_examples=300, deadline=None)
@given(graphs_with_k4s(), st.integers(1, 64))
def test_triangle_census_equals_the_bitmask_census(g, wedges):
    with mock.patch.object(limits, "_WEDGES", wedges):
        total, per_edge = triangle_census(g)
    want_total, want = oracle_triangle_census(g)
    assert total == want_total
    assert list(per_edge.items()) == list(want.items())  # edge by edge, in edge order


@settings(max_examples=150, deadline=None)
@given(graphs_with_k4s(), st.integers(1, 3), st.integers(1, 64))
def test_triangle_census_of_triangle_graphs(g, r, wedges):
    # an r-uniform cover: a first-fit cover cut into blocks of r, on the
    # subgraph of the edges it keeps
    cover, _ = uniformize(cover_from_matchings(greedy_cover_within(g, (1 << g.n) - 1)), r)
    kept = Graph.from_edges(g.n, cover.pairs)
    tg = triangle_graph(kept, cover)
    with mock.patch.object(limits, "_WEDGES", wedges):
        total, per_edge = triangle_census(tg.graph)
    want_total, want = oracle_triangle_census(tg.graph)
    assert (total, list(per_edge.items())) == (want_total, list(want.items()))
    assert total == len(tg.triangles) and set(per_edge.values()) <= {1}


@settings(max_examples=300, deadline=None)
@given(graphs_with_k4s())
def test_greedy_bipartition_equals_the_bitmask_bipartition(g):
    _, right_mask = oracle_greedy_bipartition(g)
    assert greedy_bipartition(g).tolist() == [bool(right_mask >> v & 1) for v in range(g.n)]


def test_greedy_bipartition_ties_go_left():
    # 0 left; 1 has one left neighbour and none right: right; 2 sees 0 and
    # 1, one on each side: a tie, so left; 3 sees 2 alone: right
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert greedy_bipartition(g).tolist() == [False, True, False, True]
    assert oracle_greedy_bipartition(g) == (0b0101, 0b1010)


def test_adjacency_matrix_equals_the_bitmask_rows():
    g = Graph.from_edges(5, [(0, 4), (3, 1), (1, 2)])
    rows = [bit_graph(g).neighbors_mask(u) for u in range(g.n)]
    assert (adjacency_matrix(g) == unpack_rows(rows, g.n)).all()
