"""Evaluation of a local-density sum against the N k / log N conjecture threshold.

For a partition P of the complete bipartite N x k edge set, with p_i the
degree of vertex i inside part p, the quantity

    sum_{i in U, j in V} min(1, sum_p p_i p_j / |p|)

is conjectured to be Omega(N k / log N).  Duplicating the code-based graph
into a bipartite graph H and taking its induced-matching cover plus singleton
parts for all non-H pairs keeps the sum near t + |non-H pairs|, far below the
threshold for good parameters: every induced-matching part contributes
exactly 1 to the H-restricted sum.

H is the bool (N, N) station matrix of the bipartite double, entry [i, j]
set iff ij is a code-graph edge.  counterexample_partition takes the (i, j)
station pairs of the split's doubled cover and singleton remainder as the
EdgePartition's pairs, array to array.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .codegraph import CodeGraphParams, two_channel_split
from .errors import InternalCheckError, ParameterError
from .graphs import (
    group_arrays,
    offsets_of,
    pair_groups,
    verify_cover_bipartite,
    write_groups,
)

# Pairs of whole parts whose left x right blocks are expanded at a time.
_CHUNK_PAIRS = 1 << 12


class EdgePartition:
    """Partition of the complete bipartite edge set [N] x [k] into parts,
    held flattened: the part sizes, and the (i, j) pairs part after part.

    EdgePartition(n, k, parts) takes a list of parts, each a list of (i, j)
    pairs; .parts gives them back as such.
    """

    __slots__ = ("left_n", "right_n", "_sizes", "_pairs")

    def __init__(self, left_n: int, right_n: int, parts: list[list[tuple[int, int]]]):
        offsets, pairs = group_arrays(parts)
        self._set(left_n, right_n, np.diff(offsets), pairs)

    @classmethod
    def from_arrays(cls, left_n: int, right_n: int, sizes, pairs) -> "EdgePartition":
        ep = cls.__new__(cls)
        ep._set(left_n, right_n, sizes, pairs)
        return ep

    def _set(self, n: int, k: int, sizes: np.ndarray, pairs: np.ndarray) -> None:
        i, j = pairs[:, 0], pairs[:, 1]
        outside = (i < 0) | (i >= n) | (j < 0) | (j >= k)
        if len(pairs) == n * k and sizes.all() and not outside.any():
            # n * k pairs inside the n x k cells, none twice iff every cell is hit
            hit = np.zeros(n * k, dtype=bool)
            hit[i * k + j] = True
            if hit.all():
                self.left_n, self.right_n = n, k
                self._sizes, self._pairs = sizes, pairs
                return
        # Name the defect: the slow path, only for parts that fail.
        repeated = np.ones(len(pairs), dtype=bool)
        repeated[np.unique(i * k + j, return_index=True)[1]] = False
        # Report the defect a scan over the parts meets first; an empty part
        # is met before the pairs of the parts after it.
        bad = np.flatnonzero(outside | repeated)
        empty = np.flatnonzero(sizes == 0)
        if empty.size and (not bad.size or (np.cumsum(sizes) - sizes)[empty[0]] <= bad[0]):
            raise ParameterError("empty parts are not allowed")
        if bad.size:
            a, b = pairs[bad[0]].tolist()
            if outside[bad[0]]:
                raise ParameterError(f"pair ({a},{b}) outside {n}x{k}")
            raise ParameterError(f"pair ({a},{b}) appears in two parts")
        raise ParameterError(f"parts cover {len(pairs)} of {n * k} pairs")

    @property
    def parts(self) -> list[list[tuple[int, int]]]:
        return pair_groups(self._pairs, offsets_of(self._sizes))


def _block_terms(ep: EdgePartition, parts: int | None = None):
    """Yield arrays (p, i, j, deg_p(i), deg_p(j)) over each of the first
    `parts` parts p (all by default), left vertex i of p and right vertex j
    of p, parts ascending, for chunks of whole parts that hold up to
    _CHUNK_PAIRS pairs (or one larger part)."""
    sizes, pairs = ep._sizes[:parts], ep._pairs
    ends = np.cumsum(sizes)
    a = 0
    while a < len(sizes):
        lo = ends[a] - sizes[a]
        b = max(a + 1, int(np.searchsorted(ends, lo + _CHUNK_PAIRS, side="right")))
        part = np.repeat(np.arange(a, b), sizes[a:b])
        chunk = pairs[lo : ends[b - 1]]
        lkey, ldeg = np.unique(part * ep.left_n + chunk[:, 0], return_counts=True)
        rkey, rdeg = np.unique(part * ep.right_n + chunk[:, 1], return_counts=True)
        lp, li = np.divmod(lkey, ep.left_n)
        rp, rj = np.divmod(rkey, ep.right_n)
        # Each left entry of part p meets the block of p's right entries.
        width = np.bincount(rp - a, minlength=b - a)[lp - a]
        left = np.repeat(np.arange(len(lkey)), width)
        start = np.cumsum(width) - width
        right = np.repeat(np.searchsorted(rp, lp) - start, width) + np.arange(len(left))
        yield lp[left], li[left], rj[right], ldeg[left], rdeg[right]
        a = b


def vempala_sum(ep: EdgePartition) -> Fraction:
    """sum_{i,j} min(1, sum_p deg_p(i) deg_p(j) / |p|) in exact rationals.

    With L the lcm of the part sizes, L * S_ij is the integer
    sum_p deg_p(i) deg_p(j) (L / |p|), so the sum is sum min(L, L S_ij) / L.
    S_ij <= min(N, k), so every term and entry is below L max(N, k): they
    add up in int64 when that is below 2^63, and in Python ints otherwise.
    """
    n, k = ep.left_n, ep.right_n
    L = math.lcm(*ep._sizes.tolist())
    dtype = np.int64 if L * max(n, k) < 2**63 else object
    weight = L // ep._sizes.astype(dtype)
    scaled = np.zeros(n * k, dtype=dtype)  # L * S_ij at i * k + j
    for p, i, j, di, dj in _block_terms(ep):
        np.add.at(scaled, i * k + j, di.astype(dtype) * dj.astype(dtype) * weight[p])
    np.minimum(scaled, L, out=scaled)
    return Fraction(int(scaled.sum(dtype=object)), L)


def conjecture_threshold(N: int, k: int) -> float:
    """Threshold N k / ln N (leading constant set to 1, natural log; heuristic)."""
    if N < 2 or k < 1:
        raise ParameterError(f"need N >= 2 and k >= 1, got N={N}, k={k}")
    return N * k / math.log(N)


class CounterexampleParts:
    """Duplication graph H as its bool (N, N) station matrix, its
    matching-derived parts, and singleton fill.  == is identity."""

    __slots__ = ("partition", "h", "matching_parts", "missing_pairs")

    def __init__(self, partition: EdgePartition, h: np.ndarray, matching_parts: int,
                 missing_pairs: int):
        self.partition, self.h = partition, h
        self.matching_parts, self.missing_pairs = matching_parts, missing_pairs


def counterexample_partition(p: CodeGraphParams) -> CounterexampleParts:
    """Parts = doubled flip-class matchings of the code graph + singleton non-H pairs."""
    split = two_channel_split(p)
    h = split.covered
    if not verify_cover_bipartite(h, split.cover).valid:
        raise InternalCheckError("matching part lost inducedness in H")
    n = len(h)
    covers = (split.cover, split.singles)
    pairs = np.concatenate([c.pairs for c in covers])
    sizes = np.concatenate([np.diff(c.offsets) for c in covers])
    return CounterexampleParts(
        partition=EdgePartition.from_arrays(n, n, sizes, pairs),
        h=h,
        matching_parts=split.cover.t,
        missing_pairs=split.singles.t,
    )


def per_part_identity(ep: EdgePartition, h: np.ndarray, parts: int | None = None) -> list[Fraction]:
    """H-restricted contribution sum_{(i,j) in H} deg_p(i) deg_p(j) / |p| of
    each of the first `parts` parts (all by default).

    H is a bool (left_n, right_n) matrix, entry [i, j] set iff (i, j) is in H.
    For a part that is an induced matching of H this is exactly 1.  A part's
    sum is at most |p|^2, so int64 holds it; one Fraction is made per
    distinct (sum, |p|) pair.
    """
    sizes = ep._sizes[:parts]
    sums = np.zeros(len(sizes), dtype=np.int64)
    for p, i, j, di, dj in _block_terms(ep, len(sizes)):
        hit = h[i, j]
        np.add.at(sums, p[hit], di[hit] * dj[hit])
    ratios = list(zip(sums.tolist(), sizes.tolist()))
    fractions = {r: Fraction(*r) for r in set(ratios)}  # few distinct values
    return [fractions[r] for r in ratios]


class ConjectureVerdict(NamedTuple):
    total: Fraction
    threshold: float
    refutes: bool  # total < threshold: the partition beats the conjectured bound


def conjecture_verdict(ep: EdgePartition) -> ConjectureVerdict:
    """Compare the exact sum against N k / ln N; requires square instances."""
    if ep.left_n != ep.right_n:
        raise ParameterError("the verdict is defined for N = k instances")
    thr = conjecture_threshold(ep.left_n, ep.right_n)
    total = vempala_sum(ep)
    return ConjectureVerdict(total=total, threshold=thr, refutes=total < thr)


def write_partition(ep: EdgePartition, path: str) -> None:
    """One line per part: "part <id>: u>v u>v ..."."""
    write_groups(path, ("part %d:", " %d>%d"), [], ep._pairs, offsets_of(ep._sizes))
