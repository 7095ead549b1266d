"""Mixed-radix indexing of the lattice [1..C]^n.

Vertex ids enumerate lattice points with coordinate 0 most significant:
id(x) = sum_i (x[i] - 1) * C**(n - 1 - i).  Both graph constructions share
this numbering so edge lists and covers written by one pipeline can be read
by another.
"""

import numpy as np

from .errors import ParameterError


def lattice_points(C: int, n: int) -> np.ndarray:
    """All points of [1..C]^n as an int64 array of shape (C**n, n), row i = coords of id i."""
    if C < 2 or n < 0:
        raise ParameterError(f"need C >= 2 and n >= 0, got C={C}, n={n}")
    count = C**n
    ids = np.arange(count, dtype=np.int64)
    pts = np.empty((count, n), dtype=np.int64)
    for i in range(n):
        pts[:, i] = (ids // C ** (n - 1 - i)) % C + 1
    return pts


def vertex_coords(idx: int, C: int, n: int) -> tuple[int, ...]:
    if not 0 <= idx < C**n:
        raise ParameterError(f"vertex id {idx} outside [0..{C ** n})")
    out = []
    for _ in range(n):
        out.append(idx % C + 1)
        idx //= C
    return tuple(reversed(out))
