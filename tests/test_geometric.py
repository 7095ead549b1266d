"""Band-graph construction on [C]^n and its shell decomposition."""

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from rsgraphs.errors import ParameterError
from rsgraphs.geometric import (
    GeomParams,
    _pair_sq_dists,
    build_geometric_graph,
    decompose_geometric,
    exponent_report,
    in_edge_band,
    in_shell_band,
    max_shell_degree,
    mean_sq_distance,
    missing_edge_bound,
)
from rsgraphs.graphs import verify_cover
from rsgraphs.lattice import lattice_points, vertex_coords
from test_codegraph_oracle import vertex_id
from test_geometric_oracle import balance_vector, center_for_edge, shell


class ShellGapScan(NamedTuple):
    shells_checked: int
    pairs_checked: int
    max_gap: int
    violations: list[tuple[int, int, int]]  # (z_id, x_id, y_id) with gap > 4n


def scan_shell_antipodal_gaps(p: GeomParams, z_ids) -> ShellGapScan:
    """For each center z, check the antipodal gap ||y - x'||^2 <= 4n, x' = 2z - x
    the antipode of x through z, over all adjacent shell pairs x, y.

    Uses the parallelogram form 2||x-z||^2 + 2||y-z||^2 - ||x-y||^2, computed
    in exact integers (vectorized), so large shells stay tractable.
    """
    z_ids = list(z_ids)
    pts = lattice_points(p.C, p.n)
    sq = (pts * pts).sum(axis=1)
    pairs = 0
    max_gap = -1
    violations: list[tuple[int, int, int]] = []
    for z_id in z_ids:
        dz = _pair_sq_dists(pts[z_id : z_id + 1], pts, sq, sq[z_id : z_id + 1])[0]
        member_ids = np.flatnonzero(in_shell_band(dz, p))
        spts = pts[member_ids]
        ssq = sq[member_ids]
        sdz = dz[member_ids]
        block = max(1, 2**21 // max(len(member_ids), 1))
        for start in range(0, len(member_ids), block):
            stop = min(start + block, len(member_ids))
            d2 = _pair_sq_dists(spts[start:stop], spts, ssq, ssq[start:stop])
            adj = in_edge_band(d2, p)
            idx = np.arange(start, stop)
            adj[idx - start, idx] = False
            gap = 2 * sdz[start:stop, None] + 2 * sdz[None, :] - d2
            pairs += int(adj.sum())  # ordered pairs; each edge seen twice per shell
            gmax = gap[adj].max(initial=-1)
            if gmax > max_gap:
                max_gap = int(gmax)
            bad = adj & (gap > 4 * p.n)
            for bi, bj in zip(*np.nonzero(bad)):
                violations.append(
                    (z_id, int(member_ids[start + bi]), int(member_ids[bj]))
                )
    return ShellGapScan(len(z_ids), pairs, max_gap, violations)


def brute_band_graph(C, n):
    """Oracle: all-pairs Fraction comparison straight from the definitions."""
    pts = list(itertools.product(range(1, C + 1), repeat=n))
    mu = Fraction(n * (C * C - 1), 6)
    edges = set()
    for i, x in enumerate(pts):
        for j in range(i + 1, len(pts)):
            y = pts[j]
            d2 = sum((a - b) ** 2 for a, b in zip(x, y))
            if abs(Fraction(d2) - mu) <= n:
                edges.add((i, j))
    return pts, edges


def test_lattice_points_order_and_ids():
    pts = lattice_points(3, 2)
    assert pts.shape == (9, 2)
    assert tuple(pts[0]) == (1, 1)
    assert tuple(pts[1]) == (1, 2)
    assert tuple(pts[3]) == (2, 1)
    for i in range(9):
        coords = tuple(int(c) for c in pts[i])
        assert vertex_id(coords, 3) == i
        assert vertex_coords(i, 3, 2) == coords


def test_mu_exact():
    assert mean_sq_distance(3, 2) == Fraction(8, 3)
    assert mean_sq_distance(2, 4) == 2
    assert GeomParams(3, 2).mu == Fraction(8, 3)
    assert GeomParams(3, 3).n_even is False
    assert GeomParams(2, 4).n_even is True


def test_params_rejected():
    with pytest.raises(ParameterError):
        GeomParams(1, 2)
    with pytest.raises(ParameterError):
        GeomParams(3, -1)


def test_band_predicates_match_fraction_oracle():
    for C, n in ((2, 3), (3, 2), (4, 2), (3, 4)):
        p = GeomParams(C, n)
        mu = p.mu
        for d2 in range(0, n * (C - 1) ** 2 + 1):
            assert in_edge_band(d2, p) == (abs(Fraction(d2) - mu) <= n)
            assert in_shell_band(d2, p) == (
                abs(Fraction(d2) - mu / 4) <= Fraction(3 * n, 4)
            )


def test_toy_graph_matches_brute_force():
    p = GeomParams(3, 2)
    g = build_geometric_graph(p)
    _, oracle = brute_band_graph(3, 2)
    assert g.n == 9
    assert set(g.edges()) == oracle
    assert g.edge_count == 26
    assert math.comb(9, 2) - g.edge_count == 10


def test_graph_matches_brute_force_more_instances():
    for C, n in ((2, 3), (2, 4), (4, 2)):
        g = build_geometric_graph(GeomParams(C, n))
        _, oracle = brute_band_graph(C, n)
        assert set(g.edges()) == oracle


def dot(w, a):
    """<a, w> for a balance vector w, exactly."""
    return Fraction(sum(ai * h for ai, h in zip(a, w.halves)), 2)


def test_balance_vector_frozen():
    assert balance_vector((0, 0, 0), 3).halves == (0, 0, 0)
    w = balance_vector((2, -2), 5)
    assert w.entries == (Fraction(1, 2), Fraction(1, 2))
    assert dot(w, (2, -2)) == 0


def test_balance_vector_bound_property():
    rng = random.Random(5)
    C = 5
    for _ in range(10_000):
        n = rng.randrange(1, 9)
        a = tuple(rng.randrange(-C, C + 1) for _ in range(n))
        w = balance_vector(a, C)
        assert abs(dot(w, a)) <= Fraction(C, 2)
        for ai, h in zip(a, w.halves):
            assert (h == 0) == (ai == 0)
            assert h in (-1, 0, 1)


def test_balance_vector_rejects_out_of_range():
    with pytest.raises(ParameterError):
        balance_vector((4,), 3)


def test_center_frozen_example():
    # not an edge at these parameters, so only the arithmetic is exercised
    p = GeomParams(3, 2)
    z = center_for_edge((1, 1), (2, 3), p, require_edge=False)
    assert z == (2, 2)
    for w in ((1, 1), (2, 3)):
        d2 = sum((a - b) ** 2 for a, b in zip(w, z))
        assert in_shell_band(d2, p)


def test_center_even_difference_is_midpoint():
    p = GeomParams(3, 2)
    assert center_for_edge((1, 1), (3, 3), p, require_edge=False) == (2, 2)


def test_center_rejects_non_edges_and_bad_coords():
    p = GeomParams(3, 2)
    with pytest.raises(ParameterError):
        center_for_edge((1, 1), (2, 3), p)
    with pytest.raises(ParameterError):
        center_for_edge((1, 1), (1, 1), p, require_edge=False)
    with pytest.raises(ParameterError):
        center_for_edge((0, 1), (2, 2), p, require_edge=False)


def test_center_membership_where_hypothesis_holds():
    # n >= 2C: every edge's center contains both endpoints in its shell
    p = GeomParams(2, 4)
    g = build_geometric_graph(p)
    pts = lattice_points(2, 4)
    for u, v in g.edges():
        x = tuple(int(c) for c in pts[u])
        y = tuple(int(c) for c in pts[v])
        z = center_for_edge(x, y, p)
        for w in (x, y):
            assert in_shell_band(sum((a - b) ** 2 for a, b in zip(w, z)), p)


def test_shell_matches_fraction_oracle():
    p = GeomParams(3, 2)
    pts = list(itertools.product(range(1, 4), repeat=2))
    for z in ((1, 1), (2, 2), (3, 1)):
        got = shell(z, p)
        want = [
            i
            for i, x in enumerate(pts)
            if abs(
                Fraction(sum((a - b) ** 2 for a, b in zip(x, z))) - p.mu / 4
            )
            <= Fraction(3 * p.n, 4)
        ]
        assert got == want


def antipodal_gap(x, y, z) -> int:
    """||y - x'||^2 for the antipode x' = 2z - x of x through z, checked
    against 2||x-z||^2 + 2||y-z||^2 - ||x-y||^2 (the parallelogram law),
    the form scan_shell_antipodal_gaps computes."""
    direct = sum((yi - (2 * zi - xi)) ** 2 for xi, yi, zi in zip(x, y, z))
    dx = sum((xi - zi) ** 2 for xi, zi in zip(x, z))
    dy = sum((yi - zi) ** 2 for yi, zi in zip(y, z))
    dxy = sum((xi - yi) ** 2 for xi, yi in zip(x, y))
    assert direct == 2 * dx + 2 * dy - dxy
    return direct


def test_antipodal_gap_parallelogram():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randrange(1, 6)
        x = tuple(rng.randrange(1, 5) for _ in range(n))
        y = tuple(rng.randrange(1, 5) for _ in range(n))
        z = tuple(rng.randrange(1, 5) for _ in range(n))
        xp = tuple(2 * c - a for a, c in zip(x, z))
        want = sum((b - a) ** 2 for a, b in zip(xp, y))
        assert antipodal_gap(x, y, z) == want


def test_decompose_small_instances():
    for C, n in ((2, 4), (3, 2), (2, 3)):
        p = GeomParams(C, n)
        g = build_geometric_graph(p)
        cover = decompose_geometric(p, g)
        rep = verify_cover(g, cover)
        assert rep.valid
        dmax = g.max_degree()
        assert rep.t <= g.n * 2 * dmax * dmax


def test_max_shell_degree_within_growth_cap():
    for C, n in ((2, 4), (3, 2)):
        p = GeomParams(C, n)
        assert max_shell_degree(p) <= 10.5**n


def test_scan_gaps_zero_violations_small():
    p = GeomParams(2, 4)
    scan = scan_shell_antipodal_gaps(p, range(p.vertex_count))
    assert scan.shells_checked == 16
    assert not scan.violations
    assert scan.max_gap <= 4 * p.n


def test_missing_edge_bound_formula():
    p = GeomParams(3, 2)
    want = math.comb(9, 2) * 2 * math.exp(-2 / (2 * 81))
    assert missing_edge_bound(p) == pytest.approx(want)


def test_exponent_report_values():
    rep = exponent_report(GeomParams(3, 2))
    assert rep["edge_exponent"] == pytest.approx(2 - 1 / (2 * 81 * math.log(3)))
    assert rep["matchings_exponent"] == pytest.approx(
        1 + 2 * math.log(10.5) / math.log(3)
    )
    assert rep["shell_degree_base"] == 10.5
