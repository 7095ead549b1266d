"""Hamming-band graph on [C]^n, flip classes, split into two channels."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from rsgraphs.codegraph import (
    CodeGraphParams,
    CoverCounts,
    build_code_graph,
    cover_counts,
    cover_exponents,
    enumerate_cover,
    missing_edge_count_bound,
    two_channel_split,
)
from rsgraphs.codes import LinearCode, build_chain, gv_search
from rsgraphs.errors import ParameterError
from rsgraphs.graphs import verify_cover
from rsgraphs.lattice import lattice_points
from test_codegraph_oracle import agreement_set, class_canonical, is_code_edge, vertex_id, x_flip
from test_cover_oracle import is_induced_matching, two_sided

PINNED = LinearCode(4, 2, cols=(0b1111, 0b0011), claimed_d=2)


def desk_params():
    return CodeGraphParams(3, 4, 2, build_chain(PINNED, 2))


def brute_code_graph(C, n, d):
    """Oracle: all-pairs agreement counting from the raw definition."""
    pts = list(itertools.product(range(1, C + 1), repeat=n))
    edges = set()
    for i, a in enumerate(pts):
        for j in range(i + 1, len(pts)):
            b = pts[j]
            agree = sum(1 for x, y in zip(a, b) if x == y)
            if agree < d:
                edges.add((i, j))
    return edges


def test_agreement_set():
    assert agreement_set((1, 2, 1, 2), (2, 1, 1, 3)) == (2,)
    assert agreement_set((1, 1), (1, 1)) == (0, 1)
    assert agreement_set((1, 2), (2, 1)) == ()
    with pytest.raises(ParameterError):
        agreement_set((1,), (1, 2))


def test_small_graph_frozen():
    p = CodeGraphParams(2, 2, 1)
    g = build_code_graph(p)
    # vertices 0..3 are (1,1),(1,2),(2,1),(2,2); zero-agreement pairs only
    assert set(g.edges()) == {(0, 3), (1, 2)}


def test_graph_matches_brute_force():
    for C, n, d in ((2, 2, 1), (2, 3, 2), (3, 2, 1), (3, 3, 2), (2, 4, 4)):
        g = build_code_graph(CodeGraphParams(C, n, d))
        assert set(g.edges()) == brute_code_graph(C, n, d)


def test_degenerate_thresholds():
    # d = 0: no pair has negative agreement, so no edges
    g = build_code_graph(CodeGraphParams(2, 2, 0))
    assert g.edge_count == 0
    # d = n: any disagreement is an edge, complete graph
    g = build_code_graph(CodeGraphParams(2, 2, 2))
    assert g.edge_count == math.comb(4, 2)


def test_desk_graph_counts():
    g = build_code_graph(desk_params())
    assert g.n == 81
    assert g.edge_count == 1944
    # per-vertex neighbor count: sum over agreements j < 2 of C(4,j) 2^(4-j)
    assert g.degrees().tolist() == [16 + 32] * 81


def test_x_flip_frozen_trace():
    a, b = (1, 2, 1, 2), (2, 1, 1, 3)
    assert x_flip((a, b), (0, 0, 0)) == (a, b)
    assert x_flip((a, b), (1, 1, 1)) == (b, a)
    assert x_flip((a, b), (1, 1, 0)) == ((2, 1, 1, 2), (1, 2, 1, 3))
    with pytest.raises(ParameterError):
        x_flip((a, b), (1, 0))


def test_class_canonical_small():
    p = CodeGraphParams(2, 2, 1, build_chain(LinearCode(2, 1, (0b11,), claimed_d=2), 1))
    pair = ((1, 1), (2, 2))
    assert class_canonical(pair, p) == ((1, 1), (2, 2))
    assert class_canonical((pair[1], pair[0]), p) == ((1, 1), (2, 2))
    with pytest.raises(ParameterError):
        class_canonical(((1, 1), (1, 2)), p)  # one agreement, not an edge


def test_class_transitivity_witness():
    p = desk_params()
    pair = ((1, 2, 1, 2), (2, 1, 2, 3))  # zero agreements
    code = p.chain.codes[0]
    for w1 in code.codewords():
        for w2 in code.codewords():
            bits1 = [(w1 >> j) & 1 for j in range(4)]
            bits2 = [(w2 >> j) & 1 for j in range(4)]
            moved = x_flip(x_flip(pair, bits1), bits2)
            assert class_canonical(moved, p) == class_canonical(pair, p)


def test_enumerate_cover_small():
    p = CodeGraphParams(2, 2, 1, build_chain(LinearCode(2, 1, (0b11,), claimed_d=2), 1))
    g = build_code_graph(p)
    cover = enumerate_cover(p, g)
    assert cover.t == 2
    assert cover.sizes() == [1, 1]
    assert verify_cover(g, cover).valid


def test_enumerate_cover_desk():
    p = desk_params()
    g = build_code_graph(p)
    cover = enumerate_cover(p, g)
    rep = verify_cover(g, cover)
    assert rep.valid
    assert rep.t == 972
    assert rep.r_min == rep.r_max == 2  # 2^(k-1) with k = 2


def test_missing_bound_exact_formula():
    # half-sum over high-agreement counts, straight from the census
    for C, n, d in ((3, 4, 2), (2, 3, 2), (4, 2, 1)):
        b = missing_edge_count_bound(C, n, d)
        want = Fraction(
            C**n * sum(math.comb(n, i) * (C - 1) ** (n - i) for i in range(d, n + 1)),
            2,
        )
        assert b.exact == want


def test_missing_bound_desk_value_and_coverage():
    b = missing_edge_count_bound(3, 4, 2)
    assert b.exact == Fraction(2673, 2)
    assert b.hypothesis_holds is False  # 2*(3-1) = 4 < 8 = 2n
    assert b.simplified is None
    g = build_code_graph(desk_params())
    missing = math.comb(81, 2) - g.edge_count
    assert missing <= b.exact


def test_missing_bound_simplified_regime():
    # d(C-1) >= 2n lets the sum collapse to its first term times C(n,d)
    b = missing_edge_count_bound(5, 2, 1)
    assert b.hypothesis_holds is True
    assert b.simplified == math.comb(2, 1) * 5**2 * 4**1
    assert b.exact <= b.simplified


def test_cover_exponents_headline_regime():
    e, f = cover_exponents(34, 100, 19)
    assert e == pytest.approx(1.94103, abs=5e-6)
    assert f == pytest.approx(1.94132, abs=5e-6)
    assert e < 1.942 and f < 1.942


def test_two_channel_split_desk():
    p = desk_params()
    g = build_code_graph(p)
    (covered, _), (remainder, _) = two_channel_split(p)
    assert np.count_nonzero(covered) == 2 * 1944
    assert np.count_nonzero(remainder) == 81 * 81 - 2 * 1944
    assert np.count_nonzero(remainder) == 2673
    # remainder holds the diagonal and every high-agreement pair; station
    # pair (u, v) is covered iff uv is a code-graph edge
    assert remainder.shape == covered.shape == (81, 81)
    assert remainder[0, 0]
    assert not covered[0, 0]
    for u, v in itertools.islice(g.edges(), 200):
        assert covered[u, v] and covered[v, u]
        assert not remainder[u, v]


@pytest.mark.parametrize("params,want", [
    (desk_params, CoverCounts(edges=1944, t=972, remainder=2673)),
    # C=3 n=5 d=2 with the GV root the CLI picks: the largest k, k=2
    (lambda: CodeGraphParams(3, 5, 2, build_chain(gv_search(5, 2, 1, 0), 2)),
     CoverCounts(edges=13608, t=6804, remainder=31833)),
])
def test_cover_counts_equal_the_built_split(params, want):
    p = params()
    assert cover_counts(p.C, p.n, p.d, p.k) == want
    g = build_code_graph(p)
    cover = enumerate_cover(p, g)
    (covered, _), (remainder, singles) = two_channel_split(p)
    assert (g.edge_count, cover.t, np.count_nonzero(remainder)) == (want.edges, want.t,
                                                                   want.remainder)
    assert np.count_nonzero(covered) == 2 * want.edges
    assert singles.t == want.remainder


def test_two_channel_split_matchings_stay_induced():
    p = desk_params()
    (covered, cover), _ = two_channel_split(p)
    g, ms = two_sided(covered, cover.matchings[:40])
    for m in ms:
        assert is_induced_matching(g, m)
    assert cover.t == 972
    assert all(len(m) == 4 for m in cover.matchings)  # doubled pairs


def test_chain_validation_happens_at_params():
    short = build_chain(PINNED, 1)  # only length 4; d=2 needs down to 3
    with pytest.raises(ParameterError):
        CodeGraphParams(3, 4, 2, short)
    with pytest.raises(ParameterError):
        CodeGraphParams(3, 4, 5)  # d beyond n


def test_k_requires_chain():
    p = CodeGraphParams(2, 2, 1)
    with pytest.raises(ParameterError):
        _ = p.k


def test_is_code_edge_matches_ids():
    p = desk_params()
    pts = lattice_points(3, 4)
    g = build_code_graph(p)
    coords = [tuple(int(x) for x in row) for row in pts]
    for u, v in itertools.islice(g.edges(), 300):
        assert is_code_edge(coords[u], coords[v], p)
        assert vertex_id(coords[u], 3) == u
