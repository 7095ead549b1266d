"""End-to-end acceptance checks, one per headline property of the toolkit.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line
per criterion.  Every criterion builds its own objects from fixed seeds and
emits a canonical JSON report; the final criterion re-runs all of them and
requires byte-identical reports.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

from rsgraphs.channels import build_schedule, partition_two, simulate, validate_partition
from rsgraphs.cli import _jsonable
from rsgraphs.codegraph import (
    CodeGraphParams,
    build_code_graph,
    enumerate_cover,
)
from rsgraphs.codes import LinearCode, build_chain, gv_search, sample_parity_check, verify_code
from rsgraphs.geometric import GeomParams, build_geometric_graph, decompose_geometric, in_shell_band
from rsgraphs.graphs import verify_cover
from rsgraphs.lattice import lattice_points
from rsgraphs.limits import check_min_degree_bound, triangle_census, triangle_graph
from rsgraphs.lintest import (
    and_function,
    estimate_soundness,
    hw_bound,
    linear_function,
    walsh_correlation,
)
from rsgraphs.vempala import (
    conjecture_verdict,
    counterexample_partition,
    per_part_identity,
    vempala_sum,
)
from test_geometric import scan_shell_antipodal_gaps
from test_geometric_oracle import center_for_edge
from test_graph_oracle import complement_degree, schedule_of as Schedule

SEED = 0
PARITY_SEED = 20260814
PINNED = LinearCode(4, 2, cols=(0b1111, 0b0011), claimed_d=2)

_CACHE: dict[int, tuple[str, float]] = {}


def desk_instance():
    p = CodeGraphParams(3, 4, 2, build_chain(PINNED, 2))
    g = build_code_graph(p)
    cover = enumerate_cover(p, g)
    return p, g, cover


def serialize(report: dict) -> str:
    return json.dumps(_jsonable(report), indent=2, sort_keys=True)


def run_criterion(num: int, fresh: bool = False) -> tuple[dict, float]:
    """Compute (or replay) a criterion report; caches (bytes, elapsed)."""
    if not fresh and num in _CACHE:
        text, elapsed = _CACHE[num]
        return json.loads(text), elapsed
    fn = globals()[f"_criterion_{num}"]
    start = time.perf_counter()
    report = fn()
    elapsed = time.perf_counter() - start
    if not fresh:
        _CACHE[num] = (serialize(report), elapsed)
    return report, elapsed


class mark:
    """Prints the one-line verdict for a criterion, pass or fail."""

    def __init__(self, num: int, label: str):
        self.num = num
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, et, ev, tb):
        status = "PASS" if et is None else "FAIL"
        print(f"criterion {self.num:02d} {status}  {self.label}")
        return False


# ---------------------------------------------------------------------------
# criterion computations (pure: fixed seeds in, report dict out)

def _criterion_1() -> dict:
    p = GeomParams(3, 2)
    g = build_geometric_graph(p)
    pts = list(itertools.product(range(1, 4), repeat=2))
    oracle = set()
    for i, x in enumerate(pts):
        for j in range(i + 1, 9):
            d2 = sum((a - b) ** 2 for a, b in zip(x, pts[j]))
            if abs(Fraction(d2) - p.mu) <= 2:
                oracle.add((i, j))
    return {
        "edges": g.edge_count,
        "missing": math.comb(9, 2) - g.edge_count,
        "mu": p.mu,
        "matches_36_pair_oracle": set(g.edges()) == oracle,
        "oracle_edges": len(oracle),
    }


def _criterion_2() -> dict:
    p = GeomParams(2, 4)
    g = build_geometric_graph(p)
    cover = decompose_geometric(p, g)
    rep = verify_cover(g, cover)
    pts = lattice_points(2, 4)
    centers_ok = 0
    for u, v in g.edges():
        x = tuple(int(c) for c in pts[u])
        y = tuple(int(c) for c in pts[v])
        z = center_for_edge(x, y, p)
        if all(
            in_shell_band(sum((a - b) ** 2 for a, b in zip(w, z)), p)
            for w in (x, y)
        ):
            centers_ok += 1
    dmax = g.max_degree()
    return {
        "N": g.n,
        "edges": g.edge_count,
        "cover_valid": rep.valid,
        "t": rep.t,
        "centers_with_membership": centers_ok,
        "t_cap": g.n * 2 * dmax * dmax,
        "t_within_cap": rep.t <= g.n * 2 * dmax * dmax,
    }


def _criterion_3() -> dict:
    p = GeomParams(3, 8)
    z_ids = random.Random(SEED).sample(range(p.vertex_count), 50)
    scan = scan_shell_antipodal_gaps(p, z_ids)
    return {
        "shells": scan.shells_checked,
        "adjacent_pairs": scan.pairs_checked,
        "max_gap": scan.max_gap,
        "gap_cap": 4 * p.n,
        "violations": len(scan.violations),
    }


def _criterion_4() -> dict:
    p, g, cover = desk_instance()
    rep = verify_cover(g, cover)
    pts = lattice_points(3, 4)
    coords = [tuple(int(x) for x in row) for row in pts]
    certified = 0
    for m in cover.matchings:
        ok = True
        for (a, b), (c, d) in itertools.combinations(m, 2):
            for x, y in ((a, c), (a, d), (b, c), (b, d)):
                agree = sum(1 for s, t in zip(coords[x], coords[y]) if s == t)
                if agree < p.d:
                    ok = False
        certified += ok
    return {
        "edges": g.edge_count,
        "t": rep.t,
        "sizes": sorted(set(cover.sizes())),
        "cover_valid": rep.valid,
        "classes_with_agreement_certificate": certified,
    }


def _criterion_5() -> dict:
    code = gv_search(8, 2, 2, SEED)
    v = verify_code(code)
    chain = build_chain(code, 2)
    slots = []
    for c in chain.codes:
        cv = verify_code(c)
        slots.append({"n": c.n, "k": c.k, "proper": cv.is_proper, "rank": cv.rank})
    trials = 10_000
    prob = 2.0 ** -(8 - 2)
    sigma = math.sqrt(trials * prob * (1 - prob))
    subsets = [
        sum(1 << i for i in comb)
        for size in (1, 2)
        for comb in itertools.combinations(range(8), size)
    ]
    rng = random.Random(PARITY_SEED)
    hits = dict.fromkeys(subsets, 0)
    for _ in range(trials):
        rows = sample_parity_check(8, 2, rng)
        for mask in subsets:
            if all(not (r & mask).bit_count() & 1 for r in rows):
                hits[mask] += 1
    worst = max(abs(h - trials * prob) for h in hits.values())
    return {
        "code": {"n": code.n, "k": code.k, "distance": v.distance,
                 "proper": v.is_proper, "rank": v.rank},
        "chain": slots,
        "parity_subsets": len(subsets),
        "parity_expected_hits": trials * prob,
        "parity_worst_deviation": worst,
        "parity_tolerance_4sigma": 4 * sigma,
    }


def _criterion_6() -> dict:
    _, g, cover = desk_instance()
    tg = triangle_graph(g, cover)
    total, per_edge = triangle_census(tg.graph)
    return {
        "triangle_graph_vertices": tg.graph.n,
        "triangle_graph_edges": tg.graph.edge_count,
        "triangles": total,
        "crossing_edges": tg.crossing_edges,
        "edges_in_exactly_one_triangle": sum(1 for k in per_edge.values() if k == 1),
        "count_matches_crossing": total == len(tg.triangles) == tg.crossing_edges,
    }


def _criterion_7() -> dict:
    _, g, cover = desk_instance()
    degs = sorted({complement_degree(g, v) for v in range(g.n)})
    rep = check_min_degree_bound(g, 2, cover=cover)

    # the other r-uniform cover built by this suite: the C=2, n=4 pipeline
    p2 = GeomParams(2, 4)
    g2 = build_geometric_graph(p2)
    c2 = decompose_geometric(p2, g2)
    rep2 = check_min_degree_bound(g2, 1, cover=c2)
    return {
        "complement_degrees": degs,
        "pairs_per_vertex": math.comb(32, 2),
        "degree_requirement": 48,
        "requirement_met": math.comb(32, 2) >= 48,
        "violations": len(rep.violations),
        "min_margin": rep.min_margin,
        "secondary_cover_violations": len(rep2.violations),
    }


def _criterion_8() -> dict:
    p, _, _ = desk_instance()
    cp = partition_two(p)
    validate_partition(cp)
    schedule = build_schedule(cp)
    rep = simulate(schedule)

    # mutation: move one remainder pair into a later round with the same receiver
    rounds = [(i, list(m)) for i, m in schedule.rounds]
    src = next(
        a for a, (i, m) in enumerate(rounds) if i == 1 and len(m) == 1
    )
    (u, v) = rounds[src][1][0]
    dst = next(
        b
        for b, (i, m) in enumerate(rounds)
        if b != src and i == 1 and any(w == v for _, w in m)
    )
    rounds[dst][1].append(rounds[src][1].pop())
    moved = Schedule(
        schedule.n_stations,
        schedule.num_subchannels,
        [(i, m) for i, m in rounds if m],
    )
    mrep = simulate(moved)

    # mutation: the same pair scheduled in two rounds
    rounds2 = [(i, list(m)) for i, m in schedule.rounds]
    rounds2.append((rounds2[-1][0], list(rounds2[-1][1])))
    dup = Schedule(schedule.n_stations, schedule.num_subchannels, rounds2)
    drep = simulate(dup)
    return {
        "delivered": rep.delivered,
        "expected": 81 * 81,
        "garbled": len(rep.garbled_events),
        "rounds": rep.rounds_used,
        "moved_edge_flags": len(mrep.garbled_events) + len(mrep.double_deliveries),
        "duplicated_edge_flags": len(drep.garbled_events) + len(drep.double_deliveries),
    }


def _criterion_9() -> dict:
    _, g, cover = desk_instance()
    rep = verify_cover(g, cover)
    coeffs = random.Random(SEED).getrandbits(8)
    f_lin = linear_function(8, coeffs)
    p_lin, _ = estimate_soundness(g, f_lin, 100_000, seed=SEED)

    f_and = and_function(8)
    d_f = walsh_correlation(f_and)
    # independent cross-check of d(f): agreement bias against all 2^m characters
    best = 0
    for a in range(256):
        agree = sum(
            1 if ((a & x).bit_count() & 1) == f_and(x) else -1 for x in range(256)
        )
        best = max(best, abs(agree))
    p_and, stderr = estimate_soundness(g, f_and, 100_000, seed=SEED)
    bound = hw_bound(rep.r_max, rep.t, d_f)
    return {
        "linear_coeffs": coeffs,
        "linear_acceptance": p_lin,
        "and_d_f": d_f,
        "and_d_f_bruteforce": Fraction(best, 256),
        "and_acceptance": p_and,
        "and_stderr": stderr,
        "hw_bound": bound,
        "within_bound": p_and <= bound + 4 * stderr + 1e-12,
    }


def _criterion_10() -> dict:
    p, _, _ = desk_instance()
    parts = counterexample_partition(p)
    idents = per_part_identity(parts.partition, parts.h)
    matching = idents[: parts.matching_parts]
    total = vempala_sum(parts.partition)  # the cell-by-cell sum, independent of the count
    assert total == parts.total
    verdict = conjecture_verdict(total, parts.partition.left_n, parts.partition.right_n)
    return {
        "matching_parts": parts.matching_parts,
        "missing_pairs": parts.missing_pairs,
        "unit_identity_parts": sum(1 for s in matching if s == 1),
        "sum": verdict.total,
        "bound": parts.matching_parts + parts.missing_pairs,
        "within_bound": verdict.total <= parts.matching_parts + parts.missing_pairs,
    }


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_geometric_toy_counts():
    with mark(1, "geometric toy counts (C=3, n=2)"):
        rep, elapsed = run_criterion(1)
        assert rep["edges"] == 26
        assert rep["missing"] == 10
        assert rep["mu"] == Fraction(8, 3)
        assert rep["matches_36_pair_oracle"]
        assert elapsed < 1


def test_criterion_02_geometric_pipeline():
    with mark(2, "geometric decomposition pipeline (C=2, n=4)"):
        rep, elapsed = run_criterion(2)
        assert rep["cover_valid"]
        assert rep["centers_with_membership"] == rep["edges"]
        assert rep["t_within_cap"]
        assert elapsed < 10


def test_criterion_03_antipodal_gaps():
    with mark(3, "antipodal gap <= 4n over 50 shells (C=3, n=8)"):
        rep, elapsed = run_criterion(3)
        assert rep["shells"] == 50
        assert rep["violations"] == 0
        assert rep["max_gap"] <= rep["gap_cap"]
        assert elapsed < 60


def test_criterion_04_code_pipeline_exact():
    with mark(4, "flip-class cover of the pinned [4,2,2] instance"):
        rep, elapsed = run_criterion(4)
        assert rep["edges"] == 1944
        assert rep["t"] == 972
        assert rep["sizes"] == [2]
        assert rep["cover_valid"]
        assert rep["classes_with_agreement_certificate"] == 972
        assert elapsed < 30


def test_criterion_05_gv_search_and_parity():
    with mark(5, "GV search [8,2,>2], chain to length 7, parity statistic"):
        rep, elapsed = run_criterion(5)
        assert rep["code"]["proper"] and rep["code"]["rank"] == 2
        assert rep["code"]["distance"] > 2
        assert [s["n"] for s in rep["chain"]] == [8, 7]
        assert all(s["proper"] and s["rank"] == 2 for s in rep["chain"])
        assert rep["parity_worst_deviation"] <= rep["parity_tolerance_4sigma"]
        assert elapsed < 30


def test_criterion_06_triangle_property():
    with mark(6, "every triangle-graph edge in exactly one triangle"):
        rep, elapsed = run_criterion(6)
        assert rep["edges_in_exactly_one_triangle"] == rep["triangle_graph_edges"]
        assert rep["count_matches_crossing"]
        assert rep["triangles"] == rep["crossing_edges"]
        assert elapsed < 60


def test_criterion_07_min_degree_bound():
    with mark(7, "complement min-degree bound on the pinned instance"):
        rep, elapsed = run_criterion(7)
        assert rep["complement_degrees"] == [32]
        assert rep["requirement_met"]
        assert rep["violations"] == 0
        assert rep["secondary_cover_violations"] == 0
        assert elapsed < 10


def test_criterion_08_channel_end_to_end():
    with mark(8, "two-channel schedule delivers all messages; mutations flagged"):
        rep, elapsed = run_criterion(8)
        assert rep["delivered"] == rep["expected"] == 81 * 81
        assert rep["garbled"] == 0
        assert rep["moved_edge_flags"] >= 1
        assert rep["duplicated_edge_flags"] >= 1
        assert elapsed < 60


def test_criterion_09_linearity():
    with mark(9, "graph linearity test: linear accepted, AND within bound"):
        rep, elapsed = run_criterion(9)
        assert rep["linear_acceptance"] == 1.0
        assert rep["and_d_f"] == Fraction(1, 2)
        assert rep["and_d_f"] == rep["and_d_f_bruteforce"]
        assert rep["within_bound"]
        assert elapsed < 120


def test_criterion_10_vempala_identity():
    with mark(10, "unit contribution per matching part; sum under t + missing"):
        rep, elapsed = run_criterion(10)
        assert rep["unit_identity_parts"] == rep["matching_parts"] == 972
        assert rep["missing_pairs"] == 2673
        assert rep["within_bound"]
        assert elapsed < 60


def test_criterion_11_determinism():
    with mark(11, "byte-identical reports on re-run"):
        for num in range(1, 11):
            first, _ = run_criterion(num)
            again, _ = run_criterion(num, fresh=True)
            assert serialize(again) == serialize(first), f"criterion {num} drifted"
