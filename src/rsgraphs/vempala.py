"""Evaluation of a local-density sum against the N k / log N conjecture threshold.

For a partition P of the complete bipartite N x k edge set, with p_i the
degree of vertex i inside part p, the quantity

    sum_{i in U, j in V} min(1, sum_p p_i p_j / |p|)

is conjectured to be Omega(N k / log N).  Duplicating the code-based graph
into a bipartite graph H and taking its induced-matching cover plus singleton
parts for all non-H pairs keeps the sum near t + |non-H pairs|, far below the
threshold for good parameters: every induced-matching part contributes
exactly 1 to the H-restricted sum.

H is a Graph on 2N vertices: left station i is vertex i and right station j
is vertex N+j.  counterexample_partition turns its (i, N+j) edges into the
(i, j) station pairs of the EdgePartition.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .codegraph import CodeGraphParams, two_channel_split
from .errors import InternalCheckError, ParameterError
from .graphs import Graph, verify_cover_bipartite


@dataclass
class EdgePartition:
    """Partition of the complete bipartite edge set [N] x [k] into parts."""

    left_n: int
    right_n: int
    parts: list[list[tuple[int, int]]]

    def __post_init__(self):
        seen = set()
        for part in self.parts:
            if not part:
                raise ParameterError("empty parts are not allowed")
            for i, j in part:
                if not (0 <= i < self.left_n and 0 <= j < self.right_n):
                    raise ParameterError(f"pair ({i},{j}) outside {self.left_n}x{self.right_n}")
                if (i, j) in seen:
                    raise ParameterError(f"pair ({i},{j}) appears in two parts")
                seen.add((i, j))
        if len(seen) != self.left_n * self.right_n:
            raise ParameterError(
                f"parts cover {len(seen)} of {self.left_n * self.right_n} pairs"
            )


def _pair_terms(part):
    """(i, j, deg_p(i) * deg_p(j)) over the left vertices i and right
    vertices j of the part p."""
    left = Counter(i for i, _ in part)
    right = Counter(j for _, j in part)
    return [(i, j, di * dj) for i, di in left.items() for j, dj in right.items()]


def vempala_sum(ep: EdgePartition) -> Fraction:
    """sum_{i,j} min(1, sum_p deg_p(i) deg_p(j) / |p|) in exact rationals.

    With L the lcm of the part sizes, L * S_ij is the integer
    sum_p deg_p(i) deg_p(j) (L / |p|), so the sum is sum min(L, L S_ij) / L.
    """
    L = math.lcm(*(len(part) for part in ep.parts))
    scaled = [0] * (ep.left_n * ep.right_n)  # L * S_ij at i * right_n + j
    for part in ep.parts:
        w = L // len(part)
        for i, j, d in _pair_terms(part):
            scaled[i * ep.right_n + j] += d * w
    return Fraction(sum(min(L, s) for s in scaled), L)


def conjecture_threshold(N: int, k: int) -> float:
    """Threshold N k / ln N (leading constant set to 1, natural log; heuristic)."""
    if N < 2 or k < 1:
        raise ParameterError(f"need N >= 2 and k >= 1, got N={N}, k={k}")
    return N * k / math.log(N)


@dataclass
class CounterexampleParts:
    """Duplication graph H on 2N vertices, its matching-derived parts, and
    singleton fill."""

    partition: EdgePartition
    h: Graph
    matching_parts: int
    missing_pairs: int


def counterexample_partition(p: CodeGraphParams) -> CounterexampleParts:
    """Parts = doubled flip-class matchings of the code graph + singleton non-H pairs."""
    split = two_channel_split(p)
    h = split.covered
    if not verify_cover_bipartite(h, split.cover).valid:
        raise InternalCheckError("matching part lost inducedness in H")
    n = h.n // 2
    parts = [[(i, w - n) for i, w in m] for m in split.cover.matchings]
    singles = [[(i, w - n)] for i, w in split.remainder.edges()]
    ep = EdgePartition(n, n, parts + singles)
    return CounterexampleParts(
        partition=ep,
        h=h,
        matching_parts=len(parts),
        missing_pairs=len(singles),
    )


def per_part_identity(ep: EdgePartition, h: Graph) -> list[Fraction]:
    """H-restricted contribution sum_{(i,j) in H} deg_p(i) deg_p(j) / |p| per part.

    H is on left_n + right_n vertices, right station j being vertex left_n + j.
    For a part that is an induced matching of H this is exactly 1.
    """
    off = ep.left_n
    return [
        Fraction(sum(d for i, j, d in _pair_terms(part) if h.has_edge(i, off + j)), len(part))
        for part in ep.parts
    ]


@dataclass
class ConjectureVerdict:
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
    with open(path, "w") as fh:
        for pid, part in enumerate(ep.parts):
            fh.write(f"part {pid}:" + "".join(f" {u}>{v}" for u, v in part) + "\n")
