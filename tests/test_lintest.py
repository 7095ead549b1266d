"""Linearity testing: Walsh correlation, graph test, soundness bounds."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsgraphs import lintest
from rsgraphs.errors import ParameterError
from rsgraphs.graphs import Graph
from rsgraphs.lintest import (
    BooleanFunction,
    and_function,
    estimate_soundness,
    hw_bound,
    linear_function,
    load_table,
    min_bound,
    random_function,
    walsh_correlation,
)


def blr_trial(f, x, y):
    """Oracle: one additivity probe f(x) + f(y) == f(x + y)."""
    size = 1 << f.m
    if not (0 <= x < size and 0 <= y < size):
        raise ParameterError("probe points outside the domain")
    return (f(x) ^ f(y)) == f(x ^ y)


def oracle_estimate_soundness(g, f, trials, seed):
    """Oracle: the same (trials, N) draw, checked one edge at a time, with an
    exit after the first edge that leaves no trial accepting."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 1 << f.m, size=(trials, g.n), dtype=np.int64)
    acc = np.ones(trials, dtype=bool)
    table = f.table
    for u, v in g.edges():
        xu = pts[:, u]
        xv = pts[:, v]
        acc &= (table[xu] ^ table[xv]) == table[xu ^ xv]
        if not acc.any():
            break
    p_hat = float(acc.sum()) / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return p_hat, stderr


@st.composite
def soundness_cases(draw):
    """A random graph, a random, linear or AND table with m <= 12, trials,
    seed, and the edge-by-trial cells per chunk."""
    n = draw(st.integers(1, 24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e, keep in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    m = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("random", "linear", "and")))
    if kind == "random":
        f = random_function(m, draw(st.integers(0, 2**16)))
    elif kind == "linear":
        f = linear_function(m, draw(st.integers(0, (1 << m) - 1)))
    else:  # the AND of the low `arity` coordinates
        mask = (1 << draw(st.integers(1, m), label="arity")) - 1
        f = BooleanFunction(m, [(x & mask) == mask for x in range(1 << m)])
    trials = draw(st.integers(1, 500))
    cells = draw(st.integers(1, 4 * trials))
    return Graph.from_edges(n, edges), f, trials, draw(st.integers(0, 2**32)), cells


@settings(max_examples=300, deadline=None)
@given(soundness_cases())
def test_estimate_soundness_matches_oracle(case):
    g, f, trials, seed, cells = case
    with mock.patch.object(lintest, "_CHUNK_CELLS", cells):
        assert estimate_soundness(g, f, trials, seed) == oracle_estimate_soundness(
            g, f, trials, seed
        )


@st.composite
def point_draws(draw):
    """m, N, a block of trials and a trial count that is often not a
    multiple of it, a seed, and the cells per block that give that block."""
    m, n, step = draw(st.integers(1, 32)), draw(st.integers(0, 40)), draw(st.integers(1, 16))
    trials = draw(st.integers(0, 8)) * step + draw(st.integers(0, step - 1))
    return m, n, max(1, trials), draw(st.integers(0, 2**32)), step * max(1, n)


@settings(max_examples=200, deadline=None)
@given(point_draws())
def test_points_drawn_in_blocks_equal_the_one_shot_draw(case):
    m, n, trials, seed, cells = case
    want = np.random.default_rng(seed).integers(0, 1 << m, size=(trials, n), dtype=np.int64)
    with mock.patch.object(lintest, "_CHUNK_CELLS", cells):
        got = lintest._points(n, m, trials, seed)
    assert got.dtype == np.min_scalar_type((1 << m) - 1)
    assert np.array_equal(got, want.T)


def brute_correlation(f):
    """Oracle: max agreement bias against every linear function, exactly."""
    size = 1 << f.m
    best = 0
    for a in range(size):
        agree = 0
        for x in range(size):
            lin = (a & x).bit_count() & 1
            agree += 1 if lin == f(x) else -1
        best = max(best, abs(agree))
    return Fraction(best, size)


def test_boolean_function_validation():
    f = BooleanFunction(2, [0, 1, 1, 0])
    assert [f(x) for x in range(4)] == [0, 1, 1, 0]
    with pytest.raises(ParameterError):
        BooleanFunction(2, [0, 1, 1])
    with pytest.raises(ParameterError):
        BooleanFunction(2, [0, 1, 2, 0])


def test_linear_and_constant_tables():
    f = linear_function(3, 0b101)
    for x in range(8):
        assert f(x) == ((x & 0b101).bit_count() & 1)
    zero = linear_function(3, 0)
    assert sum(zero.table) == 0


def test_and_function_table():
    f = and_function(2)
    assert list(f.table) == [0, 0, 0, 1]
    padded = and_function(4)
    for x in range(16):
        assert padded(x) == (1 if (x & 0b11) == 0b11 else 0)
    with pytest.raises(ParameterError):
        and_function(1)  # one coordinate has no AND of two


def test_walsh_correlation_matches_brute_force():
    rng = random.Random(31)
    for m in (1, 2, 3, 4):
        for _ in range(10):
            f = random_function(m, rng.randrange(10_000))
            assert walsh_correlation(f) == brute_correlation(f)


def test_walsh_correlation_frozen():
    assert walsh_correlation(and_function(2)) == Fraction(1, 2)
    assert walsh_correlation(and_function(8)) == Fraction(1, 2)
    assert walsh_correlation(linear_function(5, 0b10011)) == 1
    assert walsh_correlation(BooleanFunction(2, [1, 1, 1, 1])) == 1  # constant


def test_blr_trial_exhaustive_and():
    f = and_function(2)
    hits = sum(blr_trial(f, x, y) for x in range(4) for y in range(4))
    assert hits == 10  # acceptance 10/16 for the 2-variable AND
    with pytest.raises(ParameterError):
        blr_trial(f, 4, 0)


def test_graph_test_single_edge_is_one_blr_trial():
    g = Graph.from_edges(2, [(0, 1)])
    f = and_function(2)
    for seed in range(200):
        x, y = np.random.default_rng(seed).integers(0, 4, size=(1, 2))[0]
        p_hat, _ = estimate_soundness(g, f, trials=1, seed=seed)
        assert (p_hat == 1.0) == blr_trial(f, int(x), int(y))


def test_graph_test_linear_always_accepts():
    g = Graph.from_edges(4, [(0, 1), (2, 3), (0, 2)])
    f = linear_function(6, 0b110010)
    assert estimate_soundness(g, f, trials=100, seed=0)[0] == 1.0


def test_graph_test_edgeless_vacuous():
    g = Graph.from_edges(3, [])
    assert estimate_soundness(g, random_function(3, 1), trials=1, seed=0) == (1.0, 0.0)


def test_estimate_soundness_rejects_a_negative_seed():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ParameterError, match="nonnegative seed"):
        estimate_soundness(g, and_function(2), trials=1, seed=-1)


def test_estimate_soundness_matches_scalar_rate():
    g = Graph.from_edges(2, [(0, 1)])
    f = and_function(2)
    p_hat, stderr = estimate_soundness(g, f, 20_000, seed=5)
    assert stderr > 0
    assert abs(p_hat - 10 / 16) <= 5 * stderr


def test_estimate_soundness_linear_exact_one():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    f = linear_function(4, 0b1011)
    p_hat, stderr = estimate_soundness(g, f, 5000, seed=1)
    assert p_hat == 1.0 and stderr == 0.0


def test_estimate_soundness_deterministic():
    g = Graph.from_edges(2, [(0, 1)])
    f = random_function(4, 2)
    assert estimate_soundness(g, f, 1000, seed=9) == estimate_soundness(
        g, f, 1000, seed=9
    )
    with pytest.raises(ParameterError):
        estimate_soundness(g, f, 0, seed=9)


def test_hw_bound_formula():
    assert hw_bound(2, 972, Fraction(1, 2)) == pytest.approx(
        math.exp(-2 * 972 / 8) + 0.5**0.5
    )
    assert hw_bound(4, 1, 0) == pytest.approx(math.exp(-0.5))
    with pytest.raises(ParameterError):
        hw_bound(0, 5, 0.5)
    with pytest.raises(ParameterError):
        hw_bound(2, 2, 1.5)


def test_min_bound_picks_smaller_term():
    # tiny N: the complete-graph term dominates from below
    small = min_bound(2, Fraction(1, 2), 1, 1)
    assert small == pytest.approx(2.0**-1 + 0.5)
    # r = 2 keeps d_f below d_f^(1/2), so the complete-graph term still wins
    big = min_bound(81, Fraction(1, 2), 2, 972)
    assert big == pytest.approx(0.5)
    # r >= 4 pushes d_f^(r/4) below d_f and the matching-graph term takes over
    hw = min_bound(4, Fraction(9, 10), 8, 4)
    assert hw == pytest.approx(hw_bound(8, 4, Fraction(9, 10)))
    assert hw < 2.0 ** -float(math.comb(4, 2)) + 0.9


def test_load_table(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("0110\n")
    f = load_table(path, 2)
    assert list(f.table) == [0, 1, 1, 0]
    path.write_text("01\n")
    with pytest.raises(ParameterError):
        load_table(path, 2)


def test_random_function_deterministic():
    assert list(random_function(5, 77).table) == list(random_function(5, 77).table)
