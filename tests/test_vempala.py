"""Exact evaluation of the bipartite local-density sum and its counterexample."""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsgraphs.channels import partition_two
from rsgraphs.cli import run
from rsgraphs.codegraph import CodeGraphParams
from rsgraphs.codes import LinearCode, build_chain, gv_condition, gv_search
from rsgraphs.errors import ParameterError, SearchFailureError
from rsgraphs import vempala
from rsgraphs.vempala import (
    conjecture_threshold,
    conjecture_verdict,
    counterexample_partition,
    per_part_identity,
    vempala_sum,
    write_partition,
)
from test_graph_oracle import cover_of

PINNED = LinearCode(4, 2, cols=(0b1111, 0b0011), claimed_d=2)


def brute_vempala_sum(cover, n, k):
    """Oracle: literal double sum over the cells of [n] x [k] with per-part
    degree recounts."""
    total = Fraction(0)
    for i in range(n):
        for j in range(k):
            s = Fraction(0)
            for part in cover.matchings:
                di = sum(1 for a, _ in part if a == i)
                dj = sum(1 for _, b in part if b == j)
                s += Fraction(di * dj, len(part))
            total += min(Fraction(1), s)
    return total


def degree_tables(cover):
    """Per-part sparse degree tables: (left: {i: deg}, right: {j: deg})."""
    tables = []
    for part in cover.matchings:
        ld: dict[int, int] = {}
        rd: dict[int, int] = {}
        for i, j in part:
            ld[i] = ld.get(i, 0) + 1
            rd[j] = rd.get(j, 0) + 1
        tables.append((ld, rd))
    return tables


def oracle_per_part_identity(cover, h):
    """Oracle: sum_{(i,j) in H} deg_p(i) deg_p(j) / |p| per part, one
    Fraction term at a time over the part's degree tables."""
    out = []
    for part, (ld, rd) in zip(cover.matchings, degree_tables(cover)):
        s = Fraction(0)
        for i, deg_i in ld.items():
            for j, deg_j in rd.items():
                if h[i, j]:
                    s += Fraction(deg_i * deg_j, len(part))
        out.append(s)
    return out


def pair_terms(part):
    """(i, j, deg_p(i) * deg_p(j)) over the left vertices i and right
    vertices j of the part p."""
    left = Counter(i for i, _ in part)
    right = Counter(j for _, j in part)
    return [(i, j, di * dj) for i, di in left.items() for j, dj in right.items()]


def oracle_vempala_sum(cover, n, k):
    """Oracle: L * S_ij summed part by part in Python ints, L the lcm of the
    part sizes."""
    L = math.lcm(*(len(part) for part in cover.matchings))
    scaled = [0] * (n * k)
    for part in cover.matchings:
        w = L // len(part)
        for i, j, d in pair_terms(part):
            scaled[i * k + j] += d * w
    return Fraction(sum(min(L, s) for s in scaled), L)


def pair_terms_per_part_identity(cover, h):
    """Oracle: per part, the sum of its pair terms on H edges over |p|."""
    return [
        Fraction(sum(d for i, j, d in pair_terms(part) if h[i, j]), len(part))
        for part in cover.matchings
    ]


def all_pairs(n, k):
    return [(i, j) for i in range(n) for j in range(k)]


@st.composite
def partitions_with_h(draw):
    """The cover of a random partition of [n] x [k] (n, k <= 5) and a random
    H, a bool (n, k) matrix whose set entries are a random subset of the
    pairs."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 5))
    pairs = draw(st.permutations(all_pairs(n, k)))
    cut_after = draw(st.lists(st.booleans(), min_size=len(pairs) - 1, max_size=len(pairs) - 1))
    bounds = [0] + [a + 1 for a, cut in enumerate(cut_after) if cut] + [len(pairs)]
    parts = [pairs[a:b] for a, b in zip(bounds, bounds[1:])]
    in_h = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    h = np.array(in_h, dtype=bool).reshape(n, k)
    return cover_of(parts), h


@settings(max_examples=300, deadline=None)
@given(partitions_with_h(), st.integers(1, 30))
def test_kernels_match_oracles_on_random_partitions(case, chunk_pairs):
    cover, h = case
    n, k = h.shape
    with mock.patch.object(vempala, "_CHUNK_PAIRS", chunk_pairs):
        total = vempala_sum(cover, n, k)
        idents = per_part_identity(cover, h)
    assert isinstance(total, Fraction)
    assert total == brute_vempala_sum(cover, n, k) == oracle_vempala_sum(cover, n, k)
    assert all(isinstance(v, Fraction) for v in idents)
    assert idents == oracle_per_part_identity(cover, h) == pair_terms_per_part_identity(cover, h)
    for parts in {0, 1, len(idents) // 2, len(idents)}:
        assert per_part_identity(cover, h, parts) == idents[:parts]


# Parts of every prime size up to 47 have lcm L ~ 6.1e17, so L * 328 passes
# 2^63 and the sum accumulates in Python ints; with 53, L itself does.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 2), st.sampled_from((PRIMES, PRIMES + (53,))), st.data())
def test_vempala_sum_past_int64_matches_oracle(n, primes, data):
    k = sum(primes)
    assert math.lcm(*primes) * k >= 2**63
    pairs = data.draw(st.permutations(all_pairs(n, k)))
    sizes = data.draw(st.permutations(primes * n))
    bounds = [0, *itertools.accumulate(sizes)]
    cover = cover_of([pairs[a:b] for a, b in zip(bounds, bounds[1:])])
    assert vempala_sum(cover, n, k) == oracle_vempala_sum(cover, n, k)
    in_h = data.draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k))
    h = np.array(in_h, dtype=bool).reshape(n, k)
    assert per_part_identity(cover, h) == pair_terms_per_part_identity(cover, h)


def test_vempala_sum_past_int64_brute_force():
    k = sum(PRIMES)
    bounds = [0, *itertools.accumulate(PRIMES)]
    cover = cover_of([all_pairs(1, k)[a:b] for a, b in zip(bounds, bounds[1:])])
    # a part of q cells in the one row has deg(0) = q, so each cell gets S = 1
    assert vempala_sum(cover, 1, k) == brute_vempala_sum(cover, 1, k) == k


def test_singleton_partition_sum_is_nk():
    for n, k in ((2, 3), (3, 3), (4, 2)):
        cover = cover_of([[e] for e in all_pairs(n, k)])
        assert vempala_sum(cover, n, k) == n * k


def test_one_part_partition_sum_is_nk():
    for n, k in ((2, 3), (3, 3), (4, 2)):
        cover = cover_of([all_pairs(n, k)])
        assert vempala_sum(cover, n, k) == n * k


def test_vempala_sum_matches_brute_force():
    import random

    rng = random.Random(19)
    for _ in range(40):
        n = rng.randrange(2, 5)
        k = rng.randrange(1, 5)
        pairs = all_pairs(n, k)
        rng.shuffle(pairs)
        parts = []
        while pairs:
            take = rng.randrange(1, len(pairs) + 1)
            parts.append(pairs[:take])
            pairs = pairs[take:]
        cover = cover_of(parts)
        assert vempala_sum(cover, n, k) == brute_vempala_sum(cover, n, k)


def test_threshold_guard_and_value():
    import math

    assert conjecture_threshold(81, 81) == pytest.approx(81 * 81 / math.log(81))
    with pytest.raises(ParameterError):
        conjecture_threshold(1, 1)  # log 1 degenerate
    with pytest.raises(ParameterError):
        conjecture_threshold(4, 0)


def counterexample(p):
    """The parts of p's partition (counterexample_partition), H, and the
    counts of matching parts and fill parts."""
    cp = partition_two(p)
    (h, cover), (_, fill) = cp.subchannels
    return counterexample_partition(cp), h, cover.t, fill.t


def unit_identity(parts, h, matching_parts):
    """Whether per_part_identity is 1 on every matching part and 0 on every
    singleton fill part."""
    idents = per_part_identity(parts, h)
    return (all(v == 1 for v in idents[:matching_parts])
            and all(v == 0 for v in idents[matching_parts:]))


def test_counterexample_small_instance():
    p = CodeGraphParams(2, 2, 1, build_chain(LinearCode(2, 1, (0b11,), claimed_d=2), 1))
    parts, h, matching_parts, missing_pairs = counterexample(p)
    assert h.shape == (4, 4)
    assert matching_parts == 2
    assert missing_pairs == 12
    assert parts.t == matching_parts + missing_pairs
    idents = per_part_identity(parts, h)
    assert idents == oracle_per_part_identity(parts, h)
    # matching parts contribute 1 and singleton non-H parts 0 to the H-restricted sum
    assert unit_identity(parts, h, matching_parts)
    assert vempala_sum(parts, 4, 4) == parts.t


def test_counterexample_desk_counts():
    p = CodeGraphParams(3, 4, 2, build_chain(PINNED, 2))
    parts, h, matching_parts, missing_pairs = counterexample(p)
    assert per_part_identity(parts, h) == oracle_per_part_identity(parts, h)
    assert matching_parts == 972
    assert missing_pairs == 2673
    assert h.shape == (81, 81)
    assert parts.t == vempala_sum(parts, 81, 81) == 3645


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2, n) for n in range(2, 9)] + [(3, n) for n in range(2, 6)]
                    + [(4, n) for n in range(2, 5)]),
    st.data(),
)
def test_total_equals_the_cell_sum_on_gv_chains(cn, data):
    C, n = cn
    d = data.draw(st.integers(1, n - 1), label="d")
    k = data.draw(st.integers(1, n - 1), label="k")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    try:
        root = gv_search(n, k, d - 1, seed)
    except (ParameterError, SearchFailureError):
        assume(False)
    parts, h, matching_parts, _ = counterexample(CodeGraphParams(C, n, d, build_chain(root, d)))
    assert parts.t == vempala_sum(parts, *h.shape)
    assert unit_identity(parts, h, matching_parts)


# (C, n, d) of the command's instances with N <= 729, each rooted by the GV
# search at --seed 1 (the desk instance by PINNED).
CLI_INSTANCES = [(3, 4, 2), (3, 5, 2), (4, 4, 2), (3, 6, 2), (3, 6, 3), (5, 4, 2)]


def instance_argv(tmp_path, c, n, d):
    """The instance options of a CLI_INSTANCES entry, and its chain root."""
    argv = ["--c", str(c), "--n", str(n), "--d", str(d)]
    if (c, n, d) == (3, 4, 2):
        gen = tmp_path / "gen.txt"
        gen.write_text("4 2\n11\n11\n10\n10\n")
        return argv + ["--gen", str(gen)], PINNED
    k = max(k for k in range(1, n) if gv_condition(n, k, d - 1))  # the command's k
    return argv + ["--seed", "1"], gv_search(n, k, d - 1, 1)


@pytest.mark.parametrize("c,n,d", CLI_INSTANCES)
def test_command_sum_equals_the_oracle(tmp_path, capsys, c, n, d):
    argv, root = instance_argv(tmp_path, c, n, d)
    assert run(["vempala", *argv]) == 0
    rep = json.loads(capsys.readouterr().out)
    parts, h, matching_parts, missing_pairs = counterexample(
        CodeGraphParams(c, n, d, build_chain(root, d)))
    total = vempala_sum(parts, *h.shape)
    assert rep["sum"] == f"{total.numerator}/{total.denominator}"
    assert (rep["matching_parts"], rep["missing_pairs"]) == (matching_parts, missing_pairs)
    assert rep["per_part_identity_ok"] is True
    assert unit_identity(parts, h, matching_parts)


@pytest.mark.parametrize("c,n,d", CLI_INSTANCES)
def test_vempala_reads_the_partition_channel_two_schedules(tmp_path, capsys, c, n, d):
    # one partition of K_{N,N} answers both: its parts are the rounds
    argv, _ = instance_argv(tmp_path, c, n, d)
    assert run(["vempala", *argv, "--out-partition", str(tmp_path / "p.txt")]) == 0
    parts = json.loads(capsys.readouterr().out)
    assert run(["channel", "two", *argv, "--out-schedule", str(tmp_path / "s.txt")]) == 0
    rounds = json.loads(capsys.readouterr().out)
    assert parts["sum"] == f"{rounds['rounds_sequential']}/1"
    assert [parts["matching_parts"], parts["missing_pairs"]] == rounds["per_subchannel_rounds"]

    def pair_text(name):
        return [line.split(":", 1)[1] for line in (tmp_path / name).read_text().splitlines()]

    assert pair_text("p.txt") == pair_text("s.txt")


def test_verdict_definitions():
    v = conjecture_verdict(vempala_sum(cover_of([[e] for e in all_pairs(3, 3)]), 3, 3), 3, 3)
    assert v.total == 9
    assert v.refutes is (v.total < v.threshold)
    assert v.refutes is False  # 9 >= 9/ln 3


def test_verdict_requires_square():
    total = vempala_sum(cover_of([[e] for e in all_pairs(2, 3)]), 2, 3)
    with pytest.raises(ParameterError):
        conjecture_verdict(total, 2, 3)


def test_write_partition(tmp_path):
    path = tmp_path / "parts.txt"
    write_partition(cover_of([[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]]), path)
    assert path.read_text().splitlines() == [
        "part 0: 0>0 1>1",
        "part 1: 0>1",
        "part 2: 1>0",
    ]
