"""Binary linear codes: Gilbert-Varshamov search, verification, row deletion.

A code is held as the k generator columns of an n x k binary matrix, each
column an n-bit integer (bit i = row i).  "Proper" means the all-ones word is
a codeword.  Codewords are enumerated Gray-code style, so verification costs
O(2^k) XORs; the dimension gate k <= 24 keeps that honest.
"""

import math
import random
from typing import NamedTuple

from .errors import (
    DEFAULT_MAX_PAIR_CHECKS,
    InternalCheckError,
    ParameterError,
    ResourceLimitError,
    SearchFailureError,
    numbered_lines,
    parse_int,
)

MAX_ENUM_DIM = 24
# Parity-check draws gv_search makes before it gives up.
GV_TRIES = 100


class LinearCode(NamedTuple("LinearCode", [("n", int), ("k", int), ("cols", tuple[int, ...]),
                                            ("claimed_d", int)])):
    """[n, k] code spanned by `cols`; claimed_d is a verified distance lower bound."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, cols: tuple[int, ...], claimed_d: int = 0):
        if n < 1 or k < 1:
            raise ParameterError(f"need n, k >= 1, got n={n}, k={k}")
        if len(cols) != k:
            raise ParameterError(f"expected {k} generator columns, got {len(cols)}")
        full = (1 << n) - 1
        for c in cols:
            if c & ~full:
                raise ParameterError("generator column has bits beyond row n-1")
        return super().__new__(cls, n, k, cols, claimed_d)

    def codewords(self) -> list[int]:
        """All 2^k codewords as n-bit ints (Gray-code order)."""
        if self.k > MAX_ENUM_DIM:
            raise ResourceLimitError(f"k={self.k} exceeds the enumeration gate {MAX_ENUM_DIM}")
        words = [0]
        w = 0
        for i in range(1, 1 << self.k):
            w ^= self.cols[(i & -i).bit_length() - 1]
            words.append(w)
        return words

    def rows(self) -> list[int]:
        """Row bitmasks (bit j = column j), for file output."""
        return [
            sum(((c >> i) & 1) << j for j, c in enumerate(self.cols))
            for i in range(self.n)
        ]


class CodeVerification(NamedTuple):
    is_proper: bool
    distance: int
    rank: int


def rref(rows: list[int], width: int):
    """Reduced row echelon form over GF(2); returns (rows, pivot columns)."""
    rows = [r for r in rows]
    out: list[int] = []
    pivots: list[int] = []
    for col in range(width):
        src = None
        for i, r in enumerate(rows):
            if (r >> col) & 1:
                src = i
                break
        if src is None:
            continue
        piv = rows.pop(src)
        rows = [r ^ piv if (r >> col) & 1 else r for r in rows]
        out = [r ^ piv if (r >> col) & 1 else r for r in out]
        out.append(piv)
        pivots.append(col)
    return out, pivots


def kernel_basis(rows: list[int], width: int) -> list[int]:
    """Canonical basis of {x : every row r has parity(r & x) = 0}."""
    reduced, pivots = rref(rows, width)
    pivot_set = set(pivots)
    free = [c for c in range(width) if c not in pivot_set]
    basis = []
    for f in free:
        v = 1 << f
        for r, p in zip(reduced, pivots):
            if (r >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def canonical_columns(vectors: list[int], width: int) -> tuple[int, ...]:
    """Canonical generator columns: RREF applied to the span (column-echelon form)."""
    reduced, _ = rref(list(vectors), width)
    return tuple(reduced)


def verify_code(c: LinearCode) -> CodeVerification:
    """Exhaustively verify properness, true minimum distance, and column rank."""
    words = c.codewords()
    all_ones = (1 << c.n) - 1
    dist = min((w.bit_count() for w in words if w), default=0)
    return CodeVerification(
        is_proper=all_ones in words,
        distance=dist,
        rank=len(rref(c.cols, c.n)[1]),
    )


def gv_condition(n: int, k: int, d: int) -> bool:
    """Gilbert-Varshamov existence gate: sum_{i<=d} C(n,i) < 2^(n-k)."""
    return sum(math.comb(n, i) for i in range(d + 1)) < 1 << (n - k)


def gv_rate(n: int, d: int) -> float:
    """Informational GV rate point (1 - H(d/n)) * n."""
    x = d / n
    if x in (0.0, 1.0):
        h = 0.0
    else:
        h = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    return (1.0 - h) * n


def sample_parity_check(n: int, k: int, rng: random.Random) -> list[int]:
    """(n-k) random parity-check rows whose last column is the parity of the rest.

    Every row's bit n-1 equals the XOR of its first n-1 bits, so the all-ones
    vector always lies in the kernel.  For any fixed nonempty proper column
    subset, the subset's columns sum to zero with probability exactly 2^-(n-k).
    """
    return [_even_weight_row(n, rng) for _ in range(n - k)]


def _even_weight_row(n: int, rng: random.Random) -> int:
    """Random n-bit row whose bit n-1 is the parity of its first n-1 bits."""
    low = rng.getrandbits(n - 1) if n > 1 else 0
    return low | ((low.bit_count() & 1) << (n - 1))


def gv_search(n: int, k: int, d: int, seed: int) -> LinearCode:
    """Search for a verified proper [n, k] code of distance > d.

    Each try draws a parity-check matrix via sample_parity_check, pads it with
    further even-weight rows until the kernel has dimension exactly k (even
    weight keeps the all-ones word in the kernel), and verifies the kernel
    code exhaustively.  claimed_d is set to the verified true distance.  The
    rows all have even weight, so they span at most n - 1 dimensions: k >= 1.
    """
    if not 1 <= k < n:
        raise ParameterError(f"need 1 <= k < n, got n={n}, k={k}")
    if d < 0:
        raise ParameterError(f"need d >= 0, got d={d}")
    if (n - k) * n > DEFAULT_MAX_PAIR_CHECKS:  # before the GV sum, which is n bits wide
        raise ResourceLimitError(f"{n - k} parity-check rows x {n} bits exceed the cap of "
                                 f"{DEFAULT_MAX_PAIR_CHECKS} pair checks")
    if not gv_condition(n, k, d):
        raise ParameterError(
            f"Gilbert-Varshamov condition fails: sum_i<= {d} C({n},i) >= 2^({n}-{k})"
        )
    rng = random.Random(seed)
    for _ in range(GV_TRIES):
        rows = sample_parity_check(n, k, rng)
        while n - len(rref(rows, n)[1]) > k:  # a dependent row leaves the kernel as it is
            rows.append(_even_weight_row(n, rng))
        basis = kernel_basis(rows, n)
        if len(basis) != k:
            raise InternalCheckError("kernel dimension drifted from k")
        code = LinearCode(n, k, canonical_columns(basis, n))
        v = verify_code(code)
        if v.is_proper and v.rank == k and v.distance > d:
            return code._replace(claimed_d=v.distance)
    raise SearchFailureError(
        f"no proper [{n},{k},>{d}] code found in {GV_TRIES} tries (seed {seed})"
    )


def delete_row(c: LinearCode, row: int) -> LinearCode:
    """Remove generator row `row`; distance drops by at most 1, properness survives.

    Requires claimed_d > 1 so no codeword can collapse to zero.  The result is
    re-verified and carries its own verified distance.
    """
    if c.claimed_d <= 1:
        raise ParameterError("row deletion needs a verified distance > 1")
    if not 0 <= row < c.n:
        raise ParameterError(f"row {row} out of range 0..{c.n - 1}")
    low_mask = (1 << row) - 1
    cols = tuple((col & low_mask) | ((col >> (row + 1)) << row) for col in c.cols)
    out = LinearCode(c.n - 1, c.k, cols)
    v = verify_code(out)
    if v.rank != c.k:
        raise InternalCheckError("row deletion dropped the dimension")
    if not v.is_proper:
        raise InternalCheckError("row deletion broke properness")
    if v.distance < c.claimed_d - 1:
        raise InternalCheckError("row deletion lost more than 1 of the distance")
    return out._replace(claimed_d=v.distance)


class CodeChain(NamedTuple):
    """Codes of lengths n, n-1, ..., n-d+1, all dimension k, distances >= d, d-1, ..., 1."""

    codes: tuple[LinearCode, ...]

    @property
    def k(self) -> int:
        return self.codes[0].k


def build_chain(c: LinearCode, d: int) -> CodeChain:
    """Chain c down to length n-d+1 by repeatedly deleting the last row.

    The starting code is re-verified against distance >= d before any
    deletion.
    """
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    v = verify_code(c)
    if not v.is_proper or v.rank != c.k:
        raise ParameterError("chain root must be a verified proper code of full rank")
    if v.distance < d:
        raise ParameterError(f"chain root distance {v.distance} below required {d}")
    cur = c._replace(claimed_d=v.distance)
    chain = [cur]
    for step in range(d - 1):
        cur = delete_row(cur, cur.n - 1)
        if cur.claimed_d < d - 1 - step:
            raise InternalCheckError("chain slot lost its distance guarantee")
        chain.append(cur)
    return CodeChain(tuple(chain))


def validate_chain(chain: CodeChain, n: int, k: int, d: int) -> None:
    """Re-verify that `chain` fits the length/dimension/distance slots for (n, k, d)."""
    if len(chain.codes) != d:
        raise ParameterError(f"chain must hold {d} codes, got {len(chain.codes)}")
    for r, code in enumerate(chain.codes):
        if code.n != n - r or code.k != k:
            raise ParameterError(
                f"chain slot {r} must be a [{n - r},{k}] code, got [{code.n},{code.k}]"
            )
        v = verify_code(code)
        if not v.is_proper or v.rank != k or v.distance < d - r:
            raise ParameterError(
                f"chain slot {r} fails verification (proper={v.is_proper}, "
                f"rank={v.rank}, distance={v.distance} < {d - r})"
            )


def write_generator(c: LinearCode, path: str) -> None:
    """First line "n k", then n lines of k unseparated bits (row-major)."""
    with open(path, "w") as fh:
        fh.write(f"{c.n} {c.k}\n")
        for r in c.rows():
            fh.write("".join(str((r >> j) & 1) for j in range(c.k)) + "\n")


def read_generator(path: str) -> LinearCode:
    """Load a generator matrix; claimed_d is set to the verified true distance."""
    lines = numbered_lines(path)
    header = next(lines, (1, ""))[1].split()
    if len(header) != 2:
        raise ParameterError(f"{path}:1: malformed header, expected 'n k'")
    n, k = (parse_int(t, path, 1) for t in header)
    if n < 1 or k < 1:
        raise ParameterError(f"{path}:1: need n, k >= 1, got n={n}, k={k}")
    rows = []
    for lineno, line in lines:
        line = line.strip()
        if not line:
            continue
        if len(line) != k or set(line) - {"0", "1"}:
            raise ParameterError(f"{path}:{lineno}: row {line!r} is not {k} bits")
        rows.append(line)
    if len(rows) != n:
        raise ParameterError(f"{path}: expected {n} rows, found {len(rows)}")
    cols = tuple(
        sum(int(rows[i][j]) << i for i in range(n)) for j in range(k)
    )
    code = LinearCode(n, k, cols)
    v = verify_code(code)
    return code._replace(claimed_d=v.distance)
