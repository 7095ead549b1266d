"""Evaluation of a local-density sum against the N k / log N conjecture threshold.

For a partition P of the complete bipartite N x k edge set, with p_i the
degree of vertex i inside part p, the quantity

    sum_{i in U, j in V} min(1, sum_p p_i p_j / |p|)

is conjectured to be Omega(N k / log N).  Duplicating the code-based graph
into a bipartite graph H and taking its induced-matching cover plus singleton
parts for all non-H pairs makes the sum exactly t + |non-H pairs|, far below
the threshold for good parameters: every induced-matching part contributes
exactly 1 and every singleton part 1 (see CounterexampleParts.total).

H is the bool (N, N) station matrix of the bipartite double, entry [i, j]
set iff ij is a code-graph edge.  counterexample_partition takes the (i, j)
station pairs of the split's doubled cover and singleton remainder as the
EdgePartition's pairs, array to array.

_block_terms, vempala_sum and per_part_identity evaluate the sum and the
per-part identity cell by cell for any partition.  No command calls them;
they are the tests' oracle for the total.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .codegraph import CodeGraphParams, two_channel_split
from .errors import InternalCheckError, ParameterError
from .graphs import offsets_of, verify_cover_bipartite, write_groups

# Pairs of whole parts whose left x right blocks are expanded at a time.
_CHUNK_PAIRS = 1 << 12


class EdgePartition:
    """Partition of the complete bipartite edge set [N] x [k] into parts,
    held flattened: the part sizes, and the (i, j) pairs part after part."""

    __slots__ = ("left_n", "right_n", "_sizes", "_pairs")

    def __init__(self, n: int, k: int, sizes: np.ndarray, pairs: np.ndarray):
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


def _block_terms(ep: EdgePartition, parts: int | None = None):
    """Yield arrays (p, i, j, deg_p(i), deg_p(j)) over each of the first
    `parts` parts p (all by default), left vertex i of p and right vertex j
    of p, parts ascending, for chunks of whole parts that hold up to
    _CHUNK_PAIRS pairs (or one larger part).  Oracle only, like vempala_sum."""
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

    The tests' oracle for CounterexampleParts.total; no command calls it.
    It stays in src/ while perfbench/spans.py LAYERS names it, and moves
    into tests/ with per_part_identity once the benchmark drops those names.
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

    @property
    def total(self) -> Fraction:
        """The partition's local-density sum, matching_parts + missing_pairs.

        counterexample_partition has checked that the matching parts are
        induced matchings of H holding each H pair once (the K_{N,N} gate),
        that each fill part holds one pair, and that all parts tile the
        N x N cells (EdgePartition).  Then:
        - a cell outside H is its own singleton part, so its term is 1;
        - a cell (i, j) of H lies in the left x right block of its own
          matching part p only: another part with i on its left and j on its
          right would hold ij as a cross pair, which inducedness forbids.
          Its term is 1/|p|, and the |p| cells of p add up to 1.
        """
        return Fraction(self.matching_parts + self.missing_pairs)


def counterexample_partition(p: CodeGraphParams) -> CounterexampleParts:
    """Parts = doubled flip-class matchings of the code graph + singleton non-H pairs.

    Every check that CounterexampleParts.total rests on runs here; a failed
    one is a verification failure (InternalCheckError), not a bad input.
    """
    split = two_channel_split(p)
    h = split.covered
    if not verify_cover_bipartite(h, split.cover).valid:
        raise InternalCheckError("matching part lost inducedness in H")
    fill = split.singles
    if fill.t != len(fill.pairs):
        raise InternalCheckError(f"fill parts hold {len(fill.pairs)} pairs in {fill.t} parts")
    n = len(h)
    covers = (split.cover, fill)
    pairs = np.concatenate([c.pairs for c in covers])
    sizes = np.concatenate([np.diff(c.offsets) for c in covers])
    try:
        partition = EdgePartition(n, n, sizes, pairs)
    except ParameterError as exc:
        raise InternalCheckError(str(exc)) from None
    return CounterexampleParts(
        partition=partition,
        h=h,
        matching_parts=split.cover.t,
        missing_pairs=fill.t,
    )


def per_part_identity(ep: EdgePartition, h: np.ndarray, parts: int | None = None) -> list[Fraction]:
    """H-restricted contribution sum_{(i,j) in H} deg_p(i) deg_p(j) / |p| of
    each of the first `parts` parts (all by default).

    H is a bool (left_n, right_n) matrix, entry [i, j] set iff (i, j) is in H.
    For a part that is an induced matching of H this is exactly 1.  A part's
    sum is at most |p|^2, so int64 holds it; one Fraction is made per
    distinct (sum, |p|) pair.  An oracle only, kept with vempala_sum.
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


def conjecture_verdict(total: Fraction, n: int, k: int) -> ConjectureVerdict:
    """Compare an exact sum over [n] x [k] against n k / ln n; requires n = k."""
    if n != k:
        raise ParameterError("the verdict is defined for N = k instances")
    thr = conjecture_threshold(n, k)
    return ConjectureVerdict(total=total, threshold=thr, refutes=total < thr)


def write_partition(ep: EdgePartition, path: str) -> None:
    """One line per part: "part <id>: u>v u>v ..."."""
    write_groups(path, ("part %d:", " %d>%d"), [], ep._pairs, offsets_of(ep._sizes))
