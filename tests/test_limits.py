"""Triangle reduction, complement-degree obstruction, missing-edge bounds.

missing_lower_bounds, the leading-order bounds on missing edges, lives here:
no command reports it.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsgraphs.codegraph import CodeGraphParams, build_code_graph, enumerate_cover
from rsgraphs.codes import LinearCode, build_chain, gv_search
from rsgraphs.errors import (
    InternalCheckError,
    ParameterError,
    SearchFailureError,
    VerificationError,
)
from rsgraphs.graphs import Graph, MatchingCover, verify_cover
from rsgraphs.limits import (
    TriangleGraph,
    check_min_degree_bound,
    greedy_bipartition,
    triangle_census,
    triangle_graph,
    write_triangle_graph,
)
from test_graph_oracle import bit_graph, oracle_greedy_bipartition, uniformize

PINNED = LinearCode(4, 2, cols=(0b1111, 0b0011), claimed_d=2)


def brute_triangles(g):
    """Oracle: all vertex triples."""
    g = bit_graph(g)
    return {
        (u, v, w)
        for u, v, w in itertools.combinations(range(g.n), 3)
        if g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w)
    }


def oracle_triangle_graph(g, c):
    """Oracle: the matching-by-matching loop over bitmask sides."""
    rep = verify_cover(g, c)
    if not rep.valid:
        raise VerificationError(f"cover is invalid ({len(rep.violations)} violations)")
    if rep.t and rep.r_min != rep.r_max:
        raise ParameterError(
            f"cover is not uniform (sizes {rep.r_min}..{rep.r_max}); the reduction "
            "needs matchings of one size"
        )
    left, right = oracle_greedy_bipartition(g)
    edges, triangles, apexes = [], [], []
    next_id = g.n
    for m in c.matchings:
        rest = []
        for u, v in m:
            if (left >> u) & 1 and (right >> v) & 1:
                rest.append((u, v))
            elif (left >> v) & 1 and (right >> u) & 1:
                rest.append((v, u))
        if not rest:
            continue
        w = next_id
        next_id += 1
        apexes.append(w)
        for u, v in rest:
            edges += [(min(u, v), max(u, v)), (u, w), (v, w)]
            triangles.append((u, v, w))
    return TriangleGraph(
        graph=Graph.from_edges(next_id, edges),
        left=tuple(v for v in range(g.n) if (left >> v) & 1),
        right=tuple(v for v in range(g.n) if (right >> v) & 1),
        apexes=tuple(apexes),
        triangles=np.array(triangles, dtype=np.int64).reshape(-1, 3),
        crossing_edges=len(triangles),
    )


def fields(tg: TriangleGraph):
    """Everything that makes two triangle graphs equal."""
    return (tg.graph, tg.left, tg.right, tg.apexes, tg.triangles.tolist(), tg.crossing_edges)


def test_uniformize():
    c = MatchingCover.from_matchings([[(0, 1), (2, 3), (4, 5)], [(6, 7)]])
    u, dropped = uniformize(c, 2)
    assert [len(m) for m in u.matchings] == [2]
    assert u.matchings[0] == [(0, 1), (2, 3)]
    assert dropped == [(4, 5), (6, 7)]
    u, dropped = uniformize(c, 1)
    assert [len(m) for m in u.matchings] == [1, 1, 1, 1]
    assert not dropped
    with pytest.raises(ParameterError):
        uniformize(c, 0)


def test_greedy_bipartition_covers_everything():
    import random

    rng = random.Random(17)
    for _ in range(100):
        n = rng.randrange(1, 14)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph.from_edges(n, edges)
        right = greedy_bipartition(g)
        assert right.dtype == bool and right.shape == (n,)
        crossing = sum(1 for u, v in g.edges() if right[u] != right[v])
        assert 2 * crossing >= g.edge_count


def test_greedy_bipartition_frozen_path():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    right = greedy_bipartition(g)
    # 0 left; 1 sees one left neighbor, goes right; 2 sees one right, goes
    # left; 3 sees one left, goes right: alternating sides, all edges cross
    assert right.tolist() == [False, True, False, True]


def test_triangle_graph_small_hand_instance():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    c = MatchingCover.from_matchings([[(0, 1), (2, 3)]])
    tg = triangle_graph(g, c)
    assert tg.crossing_edges == 2
    assert len(tg.apexes) == 1
    assert tg.graph.n == 5
    total, per_edge = triangle_census(tg.graph)
    assert total == len(tg.triangles) == 2
    assert all(k == 1 for k in per_edge.values())
    assert brute_triangles(tg.graph) == {tuple(sorted(t)) for t in tg.triangles.tolist()}


def test_triangle_census_matches_oracle():
    import random

    rng = random.Random(23)
    for _ in range(80):
        n = rng.randrange(3, 12)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        total, per_edge = triangle_census(g)
        want = brute_triangles(g)
        assert total == len(want)
        for (u, v), k in per_edge.items():
            assert k == sum(1 for t in want if u in t and v in t)


def test_triangle_graph_desk_instance():
    p = CodeGraphParams(3, 4, 2, build_chain(PINNED, 2))
    g = build_code_graph(p)
    cover = enumerate_cover(p, g)
    tg = triangle_graph(g, cover)
    assert fields(tg) == fields(oracle_triangle_graph(g, cover))
    assert 2 * tg.crossing_edges >= g.edge_count
    total, per_edge = triangle_census(tg.graph)
    assert total == len(tg.triangles) == tg.crossing_edges
    assert all(k == 1 for k in per_edge.values())
    assert tg.graph.edge_count == 3 * tg.crossing_edges


def test_triangle_graph_rejects_bad_covers():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(VerificationError):
        triangle_graph(g, MatchingCover.from_matchings([[(0, 1)]]))  # uncovered
    gd = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    nonuniform = MatchingCover.from_matchings([[(0, 1), (2, 3)], [(4, 5)]])
    with pytest.raises(ParameterError):
        triangle_graph(gd, nonuniform)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(C, n) for C in (2, 3, 4) for n in range(2, 9) if C**n <= 256]),
    st.data(),
    st.randoms(use_true_random=False),
)
def test_triangle_graph_matches_oracle_on_gv_covers(cn, data, rnd):
    C, n = cn
    d = data.draw(st.integers(1, n - 1), label="d")
    k = data.draw(st.integers(1, n - 1), label="k")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    try:
        root = gv_search(n, k, d - 1, seed)
    except (ParameterError, SearchFailureError):
        assume(False)
    p = CodeGraphParams(C, n, d, build_chain(root, d))
    g = build_code_graph(p)
    cover = enumerate_cover(p, g)
    # the same cover with some pairs written larger end first
    flipped = MatchingCover([[e[::-1] if rnd.random() < 0.3 else e for e in m]
                             for m in cover.matchings])
    for c in (cover, flipped):
        assert fields(triangle_graph(g, c)) == fields(oracle_triangle_graph(g, c))


def test_min_degree_margins():
    # complete graph: complement degree 0, margin -(r-1)(N-1)
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    rep = check_min_degree_bound(k4, 2)
    assert rep.margins == [-3, -3, -3, -3]
    assert rep.violations == [0, 1, 2, 3]

    # edgeless graph: complement degree N-1, margin C(N-1,2) >= 0
    e = Graph.from_edges(5, [])
    rep = check_min_degree_bound(e, 3)
    assert rep.min_margin == math.comb(4, 2)
    assert not rep.violations


def test_min_degree_desk_instance():
    p = CodeGraphParams(3, 4, 2, build_chain(PINNED, 2))
    g = build_code_graph(p)
    cover = enumerate_cover(p, g)
    rep = check_min_degree_bound(g, 2, cover=cover)
    # every complement degree is 32: margin C(32,2) - 1*(80-32) = 496 - 48
    assert rep.margins == [496 - 48] * 81
    assert not rep.violations


def test_min_degree_contradiction_raises():
    # a fake "verified" situation cannot arise from real data; force the
    # guard with a complete graph plus its (valid, size-1) cover re-labeled
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    singles = MatchingCover.from_matchings([[e] for e in k4.edges()])
    rep = verify_cover(k4, singles)
    assert rep.valid and rep.r_min == rep.r_max == 1
    # r=1 margins are all >= 0, so no contradiction there
    assert not check_min_degree_bound(k4, 1, cover=singles).violations
    # K4 has a valid cover by 2-matchings? it does not; but the guard only
    # fires when the supplied cover is uniform of size r, so feed r=2 with
    # the size-1 cover and expect a plain report instead of a raise
    rep2 = check_min_degree_bound(k4, 2, cover=singles)
    assert rep2.violations == [0, 1, 2, 3]


def test_min_degree_guard_fires_on_inconsistency():
    # path 0-1: complement degree 0 each, r=2 margin -(1)(0) = 0; extend to
    # a 4-cycle whose complement is a perfect matching: d_v = 1, margin
    # C(1,2) - (r-1)(N-1-1) = 0 - 2 = -2 < 0, while the 4-cycle has a valid
    # uniform cover by two size-... it does not (adjacent edges); skip cover
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    rep = check_min_degree_bound(c4, 2)
    assert rep.min_margin < 0 and rep.violations == [0, 1, 2, 3]
    diag = MatchingCover.from_matchings(
        [[(0, 1), (2, 3)], [(1, 2), (0, 3)]]
    )
    # this cover is NOT induced (cross edges exist), so the guard must not fire
    got = check_min_degree_bound(c4, 2, cover=diag)
    assert got.violations == [0, 1, 2, 3]


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


def test_missing_lower_bounds_frozen():
    general, bipartite = missing_lower_bounds(100, 2)
    assert general == pytest.approx(500.0)
    with pytest.raises(ParameterError):
        bipartite(10, 10)  # needs r >= 3
    general3, bipartite3 = missing_lower_bounds(100, 3)
    assert bipartite3(8, 27) == pytest.approx((3**2 * 8**2 * 27**2) ** (1 / 3))
    with pytest.raises(ParameterError):
        missing_lower_bounds(100, 1)


def test_missing_lower_bounds_monotone():
    prev = 0.0
    for r in range(2, 8):
        general, _ = missing_lower_bounds(64, r)
        assert general > prev
        prev = general


def test_write_triangle_graph(tmp_path):
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    c = MatchingCover.from_matchings([[(0, 1), (2, 3)]])
    tg = triangle_graph(g, c)
    path = tmp_path / "tri.txt"
    write_triangle_graph(tg, path)
    lines = path.read_text().splitlines()
    nv, ne, nt = map(int, lines[0].split())
    assert (nv, ne, nt) == (tg.graph.n, tg.graph.edge_count, len(tg.triangles))
    assert len(lines) == 1 + ne + nt
