"""Core graph containers, induced-matching checks, cover verification, IO."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsgraphs.errors import ParameterError
from rsgraphs.graphs import (
    Graph,
    MatchingCover,
    adjacency_matrix,
    doubled_cover,
    read_cover,
    read_edge_list,
    verify_cover,
    verify_cover_bipartite,
    write_cover,
    write_edge_list,
)
from test_cover_oracle import doubled_matchings, is_induced_matching, station_matrix, two_sided
from test_graph_oracle import complement_degree, cover_from_matchings, greedy_cover_within


def naive_is_induced_matching(edges, m):
    """Oracle: direct pairwise definition, no bitmasks."""
    eset = {frozenset(e) for e in edges}
    ends = [x for e in m for x in e]
    if len(ends) != len(set(ends)):
        return False
    for (a, b), (c, d) in itertools.combinations(m, 2):
        for x, y in ((a, c), (a, d), (b, c), (b, d)):
            if frozenset((x, y)) in eset:
                return False
    return True


def greedy_cover(g):
    """First-fit induced-matching cover of all of g, held to the 2 d^2 bound."""
    ms = greedy_cover_within(g, (1 << g.n) - 1)
    d = g.max_degree()
    assert len(ms) <= 2 * d * d
    return cover_from_matchings(ms)


def random_graph(n, p, rng):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges), edges


def test_graph_basics():
    g = Graph.from_edges(4, [(2, 1), (0, 1), (2, 3)])
    assert g.n == 4
    assert g.edge_count == 3
    assert g.pairs.dtype == np.int64 and g.pairs.tolist() == [[0, 1], [1, 2], [2, 3]]
    adj = adjacency_matrix(g)
    assert adj[1, 0] and adj[2, 3] and not adj[0, 2]
    assert adj[1].tolist() == [True, False, True, False]
    assert g.degrees().tolist() == [1, 2, 2, 1]
    assert g.max_degree() == 2
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_graph_rejects_bad_input():
    with pytest.raises(ParameterError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ParameterError):
        Graph.from_edges(3, [(0, 5)])


def test_duplicate_edges_collapse():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_induced_matching_frozen_cases():
    single = Graph.from_edges(2, [(0, 1)])
    assert is_induced_matching(single, [(0, 1)])

    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert not is_induced_matching(path3, [(0, 1), (1, 2)])  # shared endpoint

    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert not is_induced_matching(path4, [(0, 1), (2, 3)])  # cross edge 1-2

    p5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert is_induced_matching(p5, [(0, 1), (3, 4)])


def test_induced_matching_rejects_non_edge():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ParameterError):
        is_induced_matching(g, [(0, 2)])


def test_induced_matching_matches_oracle():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(3, 12)
        g, edges = random_graph(n, 0.3, rng)
        if not edges:
            continue
        k = rng.randrange(1, 4)
        m = [edges[rng.randrange(len(edges))] for _ in range(k)]
        m = list(dict.fromkeys(m))
        assert is_induced_matching(g, m) == naive_is_induced_matching(edges, m)


def test_verify_cover_valid_and_kinds():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    ok = cover_from_matchings([[(0, 1), (2, 3)]])
    rep = verify_cover(g, ok)
    assert rep.valid and rep.t == 1 and rep.r_min == rep.r_max == 2

    # multiply covered + uncovered
    bad = cover_from_matchings([[(0, 1)], [(0, 1)]])
    rep = verify_cover(g, bad)
    kinds = {k for k, _ in rep.violations}
    assert not rep.valid
    assert kinds == {"multiply-covered", "uncovered-edge"}

    # edge not in graph
    rep = verify_cover(g, cover_from_matchings([[(0, 1), (2, 3)], [(0, 2)]]))
    assert ("edge-not-in-graph", (1, (0, 2))) in rep.violations

    # ids outside the graph, negative or past the last vertex, beside an edge
    for e in ((-1, 2), (2, 4), (-2, -1)):
        rep = verify_cover(g, MatchingCover([[(0, 1), e], [(2, 3)]]))
        assert rep.violations == [("edge-not-in-graph", (0, e))]

    # shared endpoint
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    rep = verify_cover(path3, cover_from_matchings([[(0, 1), (1, 2)]]))
    assert any(k == "shared-endpoint" for k, _ in rep.violations)

    # cross edge
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    rep = verify_cover(path4, cover_from_matchings([[(0, 1), (2, 3)], [(1, 2)]]))
    assert any(k == "cross-edge" for k, _ in rep.violations)


def test_verify_cover_empty():
    g = Graph.from_edges(3, [])
    rep = verify_cover(g, cover_from_matchings([]))
    assert rep.valid and rep.t == 0 and rep.r_min == 0 and rep.r_max == 0


def test_greedy_cover_k4_all_singletons():
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    c = greedy_cover(k4)
    assert c.t == 6
    assert all(len(m) == 1 for m in c.matchings)
    assert verify_cover(k4, c).valid


def test_greedy_cover_random_always_valid():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(2, 16)
        g, _ = random_graph(n, rng.random() * 0.8, rng)
        c = greedy_cover(g)
        rep = verify_cover(g, c)
        assert rep.valid
        assert c.t <= g.n * g.n  # far below the 2 d^2 gate at these sizes


def test_greedy_cover_disjoint_edges_one_matching():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    c = greedy_cover(g)
    assert c.t == 1 and len(c.matchings[0]) == 3


def test_complement_degree():
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert complement_degree(k4, 0) == 0
    g = Graph.from_edges(4, [(0, 1)])
    assert complement_degree(g, 0) == 2
    assert complement_degree(g, 2) == 3


def test_bipartite_graph_and_double():
    # station matrix entry [u, v] joins left station u to right station v;
    # on 2N vertices, right station v is vertex N+v
    mat = station_matrix([0b001, 0b100, 0b000])
    assert mat.shape == (3, 3) and np.count_nonzero(mat) == 2
    assert mat[0, 0] and mat[1, 2] and not mat[0, 2]
    bg, _ = two_sided(mat)
    assert bg.n == 6 and list(bg.edges()) == [(0, 3), (1, 5)]

    # the bipartite double of a graph is its adjacency matrix
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    d = adjacency_matrix(g)
    assert np.count_nonzero(d) == 2 * g.edge_count
    assert d[0, 1] and d[1, 0] and not d[0, 0]


def test_doubled_matchings_are_bipartite_induced():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5), (1, 2)])
    d = adjacency_matrix(g)
    c = cover_from_matchings([[(0, 1), (4, 5)]])
    dg, dms = two_sided(d, doubled_matchings(c))
    for dm in dms:
        assert is_induced_matching(dg, dm)
    assert doubled_matchings(c)[0] == [(0, 1), (1, 0), (4, 5), (5, 4)]
    assert doubled_cover(c, g.n).matchings == doubled_matchings(c)
    assert verify_cover_bipartite(d, doubled_cover(c, g.n)).r_max == 4


@st.composite
def mixed_covers(draw):
    """(cover, n): matchings on n <= 16 vertices of sizes drawn from 0, 1,
    2, 3 and 7, so a cover mixes empty and one-pair matchings with sizes
    that leave gaps, each pair written either way round."""
    n = draw(st.integers(2, 16))
    sizes = st.sampled_from([0, 1, 2, 3, 7]).filter(lambda s: 2 * s <= n)
    matchings = []
    for size in draw(st.lists(sizes, max_size=12)):
        ends = draw(st.permutations(range(n)))[: 2 * size]
        matchings.append(list(zip(ends[0::2], ends[1::2])))
    return MatchingCover(matchings), n


@settings(max_examples=200, deadline=None)
@given(mixed_covers())
def test_doubled_cover_equals_the_oracle(drawn):
    c, n = drawn
    d = doubled_cover(c, n)
    assert d.matchings == doubled_matchings(c)
    assert d.sizes() == [2 * s for s in c.sizes()]


def test_verify_cover_bipartite_kinds():
    k22 = station_matrix([0b11, 0b11])
    c = MatchingCover([[(0, 0), (1, 1)], [(0, 1), (1, 0)]])
    rep = verify_cover_bipartite(k22, c)
    # (0,0) and (1,1) are joined by the pair (0,1); not induced
    assert not rep.valid
    assert any(k == "cross-edge" for k, _ in rep.violations)

    path = station_matrix([0b01, 0b11])
    c = MatchingCover([[(0, 0)], [(1, 0)], [(1, 1)]])
    assert verify_cover_bipartite(path, c).valid
    # (0, 2) and (2, 0) are no station pairs of N = 2, though the key
    # 0 * 2 + 2 of the first is that of (1, 0); on 2N vertices they are
    # (0, 4) and (2, 4), each with an id past the last vertex
    for pair, outside in (((0, 2), (0, 4)), ((2, 0), (2, 4))):
        rep = verify_cover_bipartite(path, MatchingCover([[(0, 0)], [pair], [(1, 1)]]))
        assert rep.violations == [("edge-not-in-graph", (1, outside)), ("uncovered-edge", (1, 2))]
    # (1, -1) of N = 1 would be (1, 0) on 2N vertices, the edge of the pair
    # (0, 0), if its ids were not kept off the 2N vertices
    rep = verify_cover_bipartite(station_matrix([0b1]), MatchingCover([[(1, -1)]]))
    assert rep.violations == [("edge-not-in-graph", (0, (-1, 2))), ("uncovered-edge", (0, 1))]


def test_cover_normalization_and_sizes():
    c = cover_from_matchings([[(3, 1)], [(0, 2), (4, 5)]])
    assert c.matchings[0] == [(1, 3)]
    assert c.sizes() == [1, 2]
    assert c.t == 2


def test_edge_list_roundtrip(tmp_path):
    g = Graph.from_edges(5, [(0, 4), (1, 2), (2, 3)])
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    assert read_edge_list(path) == g
    text = path.read_text()
    assert text.splitlines()[0] == "5 3"


def test_edge_list_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n1 0\n")  # u >= v
    with pytest.raises(ParameterError):
        read_edge_list(path)
    path.write_text("2 2\n0 1\n")  # count mismatch
    with pytest.raises(ParameterError):
        read_edge_list(path)


def test_cover_roundtrip(tmp_path):
    c = cover_from_matchings([[(0, 1), (2, 3)], [(4, 5)]])
    path = tmp_path / "cover.txt"
    write_cover(c, path)
    back = read_cover(path)
    assert back.matchings == c.matchings
    path.write_text("1: 0-1\n")  # ordinals must start at 0
    with pytest.raises(ParameterError):
        read_cover(path)
