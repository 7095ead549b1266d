"""Evaluation of a local-density sum against the N k / log N conjecture threshold.

For a partition P of the complete bipartite N x k edge set, with p_i the
degree of vertex i inside part p, the quantity

    sum_{i in U, j in V} min(1, sum_p p_i p_j / |p|)

is conjectured to be Omega(N k / log N).  The second construction's
partition of K_{N,N} (channels.partition_two), the bipartite double H of the
code graph covered by its flip-class matchings plus every non-H pair as a
singleton part, has sum exactly its part count t + |non-H pairs|, far below
the threshold for good parameters (see counterexample_partition).  A
partition is a MatchingCover of (i, j) pairs, part after part.

_block_terms, vempala_sum and per_part_identity evaluate the sum and the
per-part identity cell by cell for any partition.  No command calls them;
they are the tests' oracle for the part count.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .channels import ChannelPartition, joined_cover
from .errors import InternalCheckError, ParameterError
from .graphs import MatchingCover, write_groups

# Pairs of whole parts whose left x right blocks are expanded at a time.
_CHUNK_PAIRS = 1 << 12


def _block_terms(cover: MatchingCover, n: int, k: int, parts: int | None = None):
    """Yield arrays (p, i, j, deg_p(i), deg_p(j)) over each of the first
    `parts` parts p (all by default) of a partition of [n] x [k], left
    vertex i of p and right vertex j of p, parts ascending, for chunks of
    whole parts that hold up to _CHUNK_PAIRS pairs (or one larger part).
    Oracle only, like vempala_sum."""
    sizes, pairs = np.diff(cover.offsets)[:parts], cover.pairs
    ends = np.cumsum(sizes)
    a = 0
    while a < len(sizes):
        lo = ends[a] - sizes[a]
        b = max(a + 1, int(np.searchsorted(ends, lo + _CHUNK_PAIRS, side="right")))
        part = np.repeat(np.arange(a, b), sizes[a:b])
        chunk = pairs[lo : ends[b - 1]]
        lkey, ldeg = np.unique(part * n + chunk[:, 0], return_counts=True)
        rkey, rdeg = np.unique(part * k + chunk[:, 1], return_counts=True)
        lp, li = np.divmod(lkey, n)
        rp, rj = np.divmod(rkey, k)
        # Each left entry of part p meets the block of p's right entries.
        width = np.bincount(rp - a, minlength=b - a)[lp - a]
        left = np.repeat(np.arange(len(lkey)), width)
        start = np.cumsum(width) - width
        right = np.repeat(np.searchsorted(rp, lp) - start, width) + np.arange(len(left))
        yield lp[left], li[left], rj[right], ldeg[left], rdeg[right]
        a = b


def vempala_sum(cover: MatchingCover, n: int, k: int) -> Fraction:
    """sum_{i,j} min(1, sum_p deg_p(i) deg_p(j) / |p|) in exact rationals,
    for the partition of [n] x [k] into the parts of cover.

    With L the lcm of the part sizes, L * S_ij is the integer
    sum_p deg_p(i) deg_p(j) (L / |p|), so the sum is sum min(L, L S_ij) / L.
    S_ij <= min(N, k), so every term and entry is below L max(N, k): they
    add up in int64 when that is below 2^63, and in Python ints otherwise.

    The tests' oracle for counterexample_partition's part count; no
    command calls it.  It stays in src/ while perfbench/spans.py LAYERS
    names it, and moves into tests/ with per_part_identity once the
    benchmark drops those names.
    """
    sizes = np.diff(cover.offsets)
    L = math.lcm(*sizes.tolist())
    dtype = np.int64 if L * max(n, k) < 2**63 else object
    weight = L // sizes.astype(dtype)
    scaled = np.zeros(n * k, dtype=dtype)  # L * S_ij at i * k + j
    for p, i, j, di, dj in _block_terms(cover, n, k):
        np.add.at(scaled, i * k + j, di.astype(dtype) * dj.astype(dtype) * weight[p])
    np.minimum(scaled, L, out=scaled)
    return Fraction(int(scaled.sum(dtype=object)), L)


def conjecture_threshold(N: int, k: int) -> float:
    """Threshold N k / ln N (leading constant set to 1, natural log; heuristic)."""
    if N < 2 or k < 1:
        raise ParameterError(f"need N >= 2 and k >= 1, got N={N}, k={k}")
    return N * k / math.log(N)


def counterexample_partition(cp: ChannelPartition) -> MatchingCover:
    """The parts of partition_two's partition of K_{N,N}: the doubled
    flip-class matchings of H, then the non-H pairs one per part, laid end
    to end as channel two lays out its rounds (channels.joined_cover).

    validate_partition has gated cp: each subchannel cover holds its
    subchannel's pairs once each in induced matchings, none empty, and the
    two subchannels tile the N x N cells.  Here each fill part must hold
    one pair; a failed check is a verification failure
    (InternalCheckError), not a bad input.  The local-density sum is then
    the part count, t + missing pairs:
    - a cell outside H is its own singleton part, so its term is 1;
    - a cell (i, j) of H lies in the left x right block of its own matching
      part p only: another matching part with i on its left and j on its
      right would hold ij as a cross pair, which inducedness forbids, and a
      one-pair fill part with that block would be ij itself, which is p's.
      Its term is 1/|p|, and the |p| cells of p add up to 1;
    - no part is empty, so each part adds exactly 1.
    """
    fill = cp.subchannels[1][1]
    if fill.t != len(fill.pairs):
        raise InternalCheckError(f"fill parts hold {len(fill.pairs)} pairs in {fill.t} parts")
    return joined_cover(cp)


def per_part_identity(cover: MatchingCover, h: np.ndarray,
                      parts: int | None = None) -> list[Fraction]:
    """H-restricted contribution sum_{(i,j) in H} deg_p(i) deg_p(j) / |p| of
    each of the first `parts` parts (all by default).

    H is a bool (n, k) matrix, entry [i, j] set iff (i, j) is in H, and
    the parts of cover partition [n] x [k].  For a part that is an induced
    matching of H this is exactly 1.  A part's sum is at most |p|^2, so
    int64 holds it; one Fraction is made per distinct (sum, |p|) pair.  An
    oracle only, kept with vempala_sum.
    """
    sizes = np.diff(cover.offsets)[:parts]
    sums = np.zeros(len(sizes), dtype=np.int64)
    for p, i, j, di, dj in _block_terms(cover, *h.shape, len(sizes)):
        hit = h[i, j]
        np.add.at(sums, p[hit], di[hit] * dj[hit])
    ratios = list(zip(sums.tolist(), sizes.tolist()))
    fractions = {r: Fraction(*r) for r in set(ratios)}  # few distinct values
    return [fractions[r] for r in ratios]


class ConjectureVerdict(NamedTuple):
    total: Fraction
    threshold: float
    refutes: bool  # total < threshold: the partition beats the conjectured bound


def conjecture_verdict(total: int | Fraction, n: int, k: int) -> ConjectureVerdict:
    """Compare an exact sum over [n] x [k] against n k / ln n; requires n = k."""
    if n != k:
        raise ParameterError("the verdict is defined for N = k instances")
    thr = conjecture_threshold(n, k)
    return ConjectureVerdict(total=Fraction(total), threshold=thr, refutes=total < thr)


def write_partition(cover: MatchingCover, path: str) -> None:
    """One line per part: "part <id>: u>v u>v ..."."""
    write_groups(path, ("part %d:", " %d>%d"), [], cover.pairs, cover.offsets)
