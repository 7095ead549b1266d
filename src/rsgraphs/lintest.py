"""Graph-based linearity testing for Boolean functions on F_2^m.

One uniform point is drawn per vertex of a test graph; the test accepts iff
f(x_u) + f(x_v) = f(x_u + x_v) over every edge.  With the test graph an
(r, t)-induced-matching-cover graph, the acceptance probability of a function
at correlation d(f) from the linear functions is at most
exp(-r t / 8) + d(f)^(r/4).
"""

import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ResourceLimitError, numbered_lines
from .graphs import Graph

MAX_TRANSFORM_DIM = 24
# Edge-by-trial cells that estimate_soundness checks per chunk of edges, and
# vertex-by-trial points that it draws per block of trials.
_CHUNK_CELLS = 1 << 17


class BooleanFunction(NamedTuple("BooleanFunction", [("m", int), ("table", np.ndarray)])):
    """Truth table over F_2^m; table[x] is f at the point with bit i = x_i."""

    __slots__ = ()

    def __new__(cls, m: int, table):
        if m < 1:
            raise ParameterError(f"need m >= 1, got {m}")
        t = np.asarray(table, dtype=np.uint8)
        if t.shape != (1 << m,):
            raise ParameterError(f"table must have 2^{m} entries")
        if not np.isin(t, (0, 1)).all():
            raise ParameterError("table entries must be 0 or 1")
        return super().__new__(cls, m, t)

    def __call__(self, x: int) -> int:
        return int(self.table[x])


def linear_function(m: int, coeffs: int) -> BooleanFunction:
    """f(x) = <coeffs, x> over F_2 (coeffs = 0 gives the zero function)."""
    xs = np.arange(1 << m, dtype=np.int64)
    table = np.zeros(1 << m, dtype=np.uint8)
    for i in range(m):
        if (coeffs >> i) & 1:
            table ^= ((xs >> i) & 1).astype(np.uint8)
    return BooleanFunction(m, table)


def and_function(m: int, arity: int = 2) -> BooleanFunction:
    """AND of the first `arity` coordinates, padded to m variables."""
    if not 1 <= arity <= m:
        raise ParameterError(f"need 1 <= arity <= m, got arity={arity}")
    xs = np.arange(1 << m, dtype=np.int64)
    mask = (1 << arity) - 1
    return BooleanFunction(m, ((xs & mask) == mask).astype(np.uint8))


def random_function(m: int, seed: int) -> BooleanFunction:
    rng = random.Random(seed)
    return BooleanFunction(
        m, np.array([rng.getrandbits(1) for _ in range(1 << m)], dtype=np.uint8)
    )


def walsh_correlation(f: BooleanFunction) -> Fraction:
    """d(f): the largest |correlation| of f with any linear function, exactly.

    Computed by a fast Walsh-Hadamard transform of (-1)^f; the result is
    max_a |W[a]| / 2^m as an exact rational.
    """
    if f.m > MAX_TRANSFORM_DIM:
        raise ResourceLimitError(f"m={f.m} exceeds the transform gate {MAX_TRANSFORM_DIM}")
    w = 1 - 2 * f.table.astype(np.int64)
    h = 1
    size = 1 << f.m
    while h < size:
        w = w.reshape(-1, 2 * h)
        a = w[:, :h].copy()
        b = w[:, h:].copy()
        w[:, :h] = a + b
        w[:, h:] = a - b
        h *= 2
    return Fraction(int(np.abs(w).max()), size)


def estimate_soundness(
    g: Graph, f: BooleanFunction, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo acceptance frequency of the graph test, with binomial stderr.

    Vectorized over trials with numpy's seeded PCG64 stream; results replay
    bit-exact for a fixed (graph, f, trials, seed).  The points (see _points)
    are checked over chunks of edges at a time, in buffers made once, so
    the walk's memory does not churn; it stops after the first chunk that
    leaves no trial accepting.
    """
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    x = _points(g.n, f.m, trials, seed)
    table = f.table
    fx = table[x]
    acc = np.ones(trials, dtype=bool)
    per_chunk = max(1, _CHUNK_CELLS // trials)
    xu, xv = (np.empty((per_chunk, trials), dtype=x.dtype) for _ in range(2))
    fu, fv = (np.empty((per_chunk, trials), dtype=fx.dtype) for _ in range(2))
    for a in range(0, g.edge_count, per_chunk):
        if not acc.any():
            break
        u, v = g.pairs[a : a + per_chunk].T
        k = len(u)
        # mode="clip" skips the bounds checks: u, v < n, and x[u] ^ x[v] < 2^m
        # indexes the table
        np.bitwise_xor(x.take(u, axis=0, mode="clip", out=xu[:k]),
                       x.take(v, axis=0, mode="clip", out=xv[:k]), out=xu[:k])
        np.bitwise_xor(fx.take(u, axis=0, mode="clip", out=fu[:k]),
                       fx.take(v, axis=0, mode="clip", out=fv[:k]), out=fu[:k])
        fu[:k] ^= table.take(xu[:k], mode="clip", out=fv[:k])
        acc &= ~fu[:k].any(axis=0)
    p_hat = float(acc.sum()) / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return p_hat, stderr


def _points(n: int, m: int, trials: int, seed: int) -> np.ndarray:
    """The points of the trials, one row per vertex, in the narrowest dtype
    that holds them: column i is row i of one (trials, n) int64 draw of
    integers below 2^m from default_rng(seed).  The draw is made in blocks
    of trials of about _CHUNK_CELLS points, which continue the same stream."""
    rng = np.random.default_rng(seed)
    x = np.empty((n, trials), dtype=np.min_scalar_type((1 << m) - 1))
    step = max(1, _CHUNK_CELLS // max(1, n))
    for a in range(0, trials, step):
        block = rng.integers(0, 1 << m, size=(min(step, trials - a), n), dtype=np.int64)
        x[:, a : a + step] = block.T
    return x


def hw_bound(r: int, t: int, d_f) -> float:
    """Soundness bound exp(-r t / 8) + d_f^(r/4) for an (r, t) test graph.

    Floating point; comparisons against it should allow ~1e-12 slack.
    """
    if r < 1 or t < 1:
        raise ParameterError(f"need r, t >= 1, got r={r}, t={t}")
    d = float(d_f)
    if not 0.0 <= d <= 1.0:
        raise ParameterError(f"correlation must lie in [0, 1], got {d}")
    return math.exp(-r * t / 8.0) + d ** (r / 4.0)


def min_bound(N: int, d_f, r: int, t: int) -> float:
    """Best available soundness bound at concrete parameters.

    Minimum of the complete-graph term 2^(-C(N,2)) + d_f and the
    induced-matching-graph term hw_bound(r, t, d_f).  (With concrete r, t
    substituted for their asymptotic exponents, the two graph-based terms
    coincide.)
    """
    if N < 2:
        raise ParameterError(f"need N >= 2, got {N}")
    d = float(d_f)
    if not 0.0 <= d <= 1.0:
        raise ParameterError(f"correlation must lie in [0, 1], got {d}")
    complete = 2.0 ** -float(math.comb(N, 2)) + d
    return min(complete, hw_bound(r, t, d_f))


def load_table(path: str, m: int) -> BooleanFunction:
    """Read a truth table of 2^m characters '0'/'1' (whitespace ignored); a
    line with any other character raises ParameterError naming it."""
    bits = []
    for lineno, line in numbered_lines(path):
        bits.append("".join(line.split()))
        if bits[-1].strip("01"):
            raise ParameterError(f"{path}:{lineno}: expected 2^{m} characters of 0/1")
    text = "".join(bits)
    if len(text) != 1 << m:
        raise ParameterError(f"{path}: expected 2^{m} characters of 0/1")
    return BooleanFunction(m, np.frombuffer(text.encode(), dtype=np.uint8) - ord("0"))
