"""Graphs, induced matchings, matching covers, and their verifier.

Adjacency is stored as one Python-int bitmask per vertex, which keeps all
set algebra exact.  An induced matching M in G is a matching such that no
edge of G joins endpoints of two distinct edges of M; a cover is a list of
matchings that partitions E(G).

A cover is held in columns: one (M, 2) int64 array of edges, matching after
matching, and the t + 1 offsets that cut it into matchings.  verify_cover
decides validity on these arrays, with one gather of endpoint blocks per
matching size, and searches pair by pair for witnesses only when that check
fails.

A subgraph of K_{N,N} (a shared-channel subchannel, or the bipartite double
of a graph) is a Graph on 2N vertices: left station u is vertex u and right
station v is vertex N+v, so its covers hold (u, N+v) edges and go through
the same verifier; verify_cover_bipartite adds the check that every edge
joins the two sides.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ParameterError

Edge = tuple[int, int]
Matching = list[Edge]

# Endpoint-block entries that verify_cover gathers at once.
_CHUNK_CELLS = 1 << 18
# Pairs that write_groups formats at once.
_WRITE_PAIRS = 1 << 16


def bits_of(mask: int):
    """Yield set-bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Undirected graph on vertex ids 0..n-1 with bitmask adjacency rows."""

    __slots__ = ("n", "_rows", "_m")

    def __init__(self, n: int, rows: list[int], edge_count: int | None = None):
        # Internal constructor; rows are trusted.  Use from_edges / from_bipartite_matrix.
        self.n = n
        self._rows = rows
        if edge_count is None:
            edge_count = sum(r.bit_count() for r in rows) // 2
        self._m = edge_count

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 0:
            raise ParameterError("vertex count must be nonnegative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @classmethod
    def from_bipartite_matrix(cls, mat: np.ndarray) -> "Graph":
        """Subgraph of K_{N,N} on 2N vertices from a bool (N, N) matrix:
        mat[u, v] joins left station u to right station v, vertex N+v."""
        n = len(mat)
        rows = [r << n for r in _row_masks(mat)]
        return cls(2 * n, rows + _row_masks(mat.T), int(np.count_nonzero(mat)))

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool((self._rows[u] >> v) & 1)

    def neighbors_mask(self, u: int) -> int:
        return self._rows[u]

    def degree(self, u: int) -> int:
        return self._rows[u].bit_count()

    def max_degree(self) -> int:
        return max((r.bit_count() for r in self._rows), default=0)

    @property
    def edge_count(self) -> int:
        return self._m

    def edges(self):
        """Yield edges (u, v) with u < v in ascending lexicographic order."""
        for u in range(self.n):
            for v in bits_of(self._rows[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self._rows == other._rows
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={self._m})"


def unpack_rows(masks: list[int], width: int) -> np.ndarray:
    """Bool (len(masks), width) matrix whose entry [u, v] is bit v of masks[u]."""
    nbytes = (width + 7) // 8
    buf = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little").view(bool)


def _row_masks(mat: np.ndarray) -> list[int]:
    """Each row of a bool matrix as an int bitmask, column v being bit v."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Bool (N, N) adjacency matrix of g."""
    return unpack_rows(g._rows, g.n)


def offsets_of(sizes) -> np.ndarray:
    """Offsets of consecutive groups of the given sizes: 0, then the running sums."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.asarray(sizes, dtype=np.int64), out=offsets[1:])
    return offsets


def group_arrays(groups: list) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and pairs of a list of groups of int pairs: group i is
    pairs[offsets[i]:offsets[i + 1]] of the (M, 2) int64 pair array."""
    offsets = offsets_of(np.fromiter(map(len, groups), dtype=np.int64, count=len(groups)))
    flat = chain.from_iterable(chain.from_iterable(groups))
    pairs = np.fromiter(flat, dtype=np.int64, count=2 * int(offsets[-1])).reshape(-1, 2)
    return offsets, pairs


def pair_groups(pairs: np.ndarray, offsets: np.ndarray) -> list[list[Edge]]:
    """The groups of (u, v) tuples that offsets cut pairs into."""
    flat = list(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))
    cuts = offsets.tolist()
    return [flat[a:b] for a, b in zip(cuts, cuts[1:])]


class MatchingCover:
    """Matchings in columns: pairs is an (M, 2) int64 array of edges,
    matching after matching, and matching i is pairs[offsets[i]:offsets[i+1]].

    MatchingCover(matchings) takes a list of matchings, each a list of
    (u, v) pairs; .matchings gives them back as such lists.
    """

    __slots__ = ("pairs", "offsets")

    def __init__(self, matchings: list[Matching]):
        self.offsets, self.pairs = group_arrays(matchings)

    @classmethod
    def from_arrays(cls, pairs: np.ndarray, offsets: np.ndarray) -> "MatchingCover":
        c = cls.__new__(cls)
        c.pairs, c.offsets = pairs, offsets
        return c

    @classmethod
    def from_matchings(cls, matchings) -> "MatchingCover":
        """The cover of the given matchings with each pair written (u, v), u <= v."""
        c = cls(list(matchings))
        c.pairs.sort(axis=1)
        return c

    @property
    def matchings(self) -> list[Matching]:
        return pair_groups(self.pairs, self.offsets)

    @property
    def t(self) -> int:
        return len(self.offsets) - 1

    def sizes(self) -> list[int]:
        return np.diff(self.offsets).tolist()

    def __eq__(self, other):
        return (
            isinstance(other, MatchingCover)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.pairs, other.pairs)
        )

    def __repr__(self):
        return f"MatchingCover(t={self.t}, pairs={len(self.pairs)})"


@dataclass
class CoverReport:
    valid: bool
    violations: list[tuple]
    r_min: int
    r_max: int
    t: int


def _matching_violations(g: Graph, i: int, m: Matching, violations):
    """Collect shared-endpoint and cross-edge defects of matching i."""
    owner: dict[int, Edge] = {}
    pmask = 0
    for e in m:
        for x in e:
            if x in owner and owner[x] != e:
                violations.append(("shared-endpoint", (i, x)))
            owner.setdefault(x, e)
            pmask |= 1 << x
    if any(e[0] == e[1] for e in m):  # self-pairs never arise from valid graphs
        return
    reported = set()
    for u, v in m:
        if not g.has_edge(u, v):
            continue
        for a, b in ((u, v), (v, u)):
            stray = g.neighbors_mask(a) & pmask & ~(1 << b) & ~(1 << a)
            for c in bits_of(stray):
                other = owner[c]
                if other == (u, v):
                    continue
                key = (i, min((u, v), other), max((u, v), other))
                if key not in reported:
                    reported.add(key)
                    violations.append(("cross-edge", (i, key[1], key[2])))


def verify_cover(g: Graph, c: MatchingCover) -> CoverReport:
    """Check that c's matchings are induced in g and partition E(g) exactly.

    All defects are reported as (kind, witness) tuples; nothing raises.
    Kinds: shared-endpoint, cross-edge, multiply-covered, uncovered-edge,
    edge-not-in-graph.  Validity is decided on the cover's arrays (see
    _is_valid); only a cover that fails there is searched pair by pair for
    its witnesses.
    """
    sizes = c.sizes()
    violations = [] if _is_valid(g, c) else _violations(g, c)
    return CoverReport(
        valid=not violations,
        violations=violations,
        r_min=min(sizes, default=0),
        r_max=max(sizes, default=0),
        t=c.t,
    )


def _is_valid(g: Graph, c: MatchingCover) -> bool:
    """Whether c is an induced-matching cover of g: as many pairs as edges,
    every pair an edge, no edge twice, every matching induced."""
    n, pairs = g.n, c.pairs
    if len(pairs) != g.edge_count:
        return False
    if not len(pairs):
        return True
    key = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    if key.min() < 0 or hi.max() >= n:
        return False
    key *= n
    key += hi
    del hi
    adj = adjacency_matrix(g).ravel()
    if not adj[key].all():  # the diagonal is empty, so self-pairs fail too
        return False
    seen = np.zeros(n * n, dtype=bool)
    seen[key] = True
    return np.count_nonzero(seen) == len(key) and _all_induced(adj, n, c)


def _all_induced(adj: np.ndarray, n: int, c: MatchingCover) -> bool:
    """Whether every matching of c, whose pairs are edges of the graph with
    flat adjacency matrix adj, is induced.

    A matching of r edges is induced iff its 2r endpoints are distinct and
    the graph has exactly r edges among them.  Counted over the 2r endpoint
    positions, r edges also imply distinct endpoints: a vertex x in two
    pairs (x, y) and (x, z) adds the edge xz between those two pairs.  One
    gather of the endpoint blocks per matching size, in chunks of whole
    matchings; one-edge matchings need none.
    """
    sizes = np.diff(c.offsets)
    for r in np.unique(sizes[sizes > 1]).tolist():
        first = c.offsets[:-1][sizes == r]
        a, b = np.triu_indices(2 * r, 1)
        step = max(1, _CHUNK_CELLS // len(a))
        for s in range(0, len(first), step):
            ends = c.pairs[first[s : s + step, None] + np.arange(r)].reshape(-1, 2 * r)
            if (adj[ends[:, a] * n + ends[:, b]].sum(axis=1) != r).any():
                return False
    return True


def _violations(g: Graph, c: MatchingCover) -> list[tuple]:
    """Every defect of c, found pair by pair: per matching its pairs outside
    g, then its shared endpoints and cross edges; then the edges covered
    more than once, then the uncovered edges."""
    violations: list[tuple] = []
    covered: set[Edge] = set()
    placed = 0
    matchings = c.matchings
    for i, m in enumerate(matchings):
        for u, v in m:
            e = (u, v) if u <= v else (v, u)
            if g.has_edge(*e):
                covered.add(e)
                placed += 1
            else:
                violations.append(("edge-not-in-graph", (i, e)))
        _matching_violations(g, i, m, violations)
    if placed != len(covered):
        locs: dict[Edge, list[int]] = {}
        for i, m in enumerate(matchings):
            for u, v in m:
                e = (u, v) if u <= v else (v, u)
                if e in covered:
                    locs.setdefault(e, []).append(i)
        for e, where in sorted(locs.items()):
            if len(where) > 1:
                violations.append(("multiply-covered", (e, tuple(where))))
    if len(covered) != g.edge_count:
        violations.extend(("uncovered-edge", e) for e in g.edges() if e not in covered)
    return violations


def verify_cover_bipartite(g: Graph, c: MatchingCover) -> CoverReport:
    """The K_{N,N} gate: verify_cover for a graph on 2N vertices whose every
    edge joins a left station u < N to a right station N+v.

    A graph with an edge inside one side is malformed and raises ParameterError.
    """
    half = g.n // 2
    low = (1 << half) - 1
    if g.n % 2 or any(
        g.neighbors_mask(u) & low if u < half else g.neighbors_mask(u) >> half
        for u in range(g.n)
    ):
        raise ParameterError(f"graph on {g.n} vertices is not a subgraph of K_{{N,N}}")
    return verify_cover(g, c)


def complement_degree(g: Graph, v: int) -> int:
    """Degree of v in the complement graph: n - 1 - deg(v)."""
    if not 0 <= v < g.n:
        raise ParameterError(f"vertex {v} out of range")
    return g.n - 1 - g.degree(v)


def singles_cover(mat: np.ndarray) -> MatchingCover:
    """The cover of Graph.from_bipartite_matrix(mat) by one-pair matchings:
    (u, N+v) for each set mat[u, v], in ascending order."""
    n = len(mat)
    at = np.flatnonzero(mat)
    pairs = np.empty((len(at), 2), dtype=np.int64)
    np.divmod(at, n, out=(pairs[:, 0], pairs[:, 1]))
    pairs[:, 1] += n
    return MatchingCover.from_arrays(pairs, np.arange(len(at) + 1))


def doubled_cover(c: MatchingCover, n: int) -> MatchingCover:
    """Image of a cover of a graph on n vertices in its bipartite double:
    the edge uv of a matching becomes the pairs (u, n+v) and (v, n+u), and
    each matching's pairs are sorted."""
    u, v = c.pairs[:, 0], c.pairs[:, 1]
    pairs = np.empty((2 * len(u), 2), dtype=np.int64)
    pairs[0::2, 0], pairs[0::2, 1] = u, n + v
    pairs[1::2, 0], pairs[1::2, 1] = v, n + u
    offsets = 2 * c.offsets
    sizes = np.diff(offsets)
    key = pairs[:, 0] * (2 * n) + pairs[:, 1]
    order = np.arange(len(pairs))
    for size in np.unique(sizes[sizes > 1]).tolist():
        pos = offsets[:-1][sizes == size, None] + np.arange(size)
        order[pos] = np.take_along_axis(pos, key[pos].argsort(axis=1), axis=1)
    return MatchingCover.from_arrays(pairs[order], offsets)


# ---------------------------------------------------------------------------
# text formats

def numbered_lines(path):
    """Yield (line number, line) over the text file at `path`, counting from
    1; bytes that do not decode as text raise ParameterError naming the path."""
    with open(path) as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path}: not a text file ({exc.reason})") from None


def parse_int(token: str, path, lineno: int) -> int:
    """The integer that a token of ASCII decimal digits on line `lineno` of
    `path` spells; any other token raises ParameterError naming path:line."""
    if token.isascii() and token.isdigit():
        return int(token)
    raise ParameterError(f"{path}:{lineno}: expected an integer, got {token!r}")


def write_edge_list(g: Graph, path: str) -> None:
    """First line "N M", then one "u v" line per edge with u < v, ascending."""
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.edge_count}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def read_edge_list(path: str) -> Graph:
    edges: dict[Edge, None] = {}  # an ordered set: from_edges sees file order
    lines = numbered_lines(path)
    header = next(lines, (1, ""))[1].split()
    if len(header) != 2:
        raise ParameterError(f"{path}:1: malformed header, expected 'N M'")
    n, m = (parse_int(t, path, 1) for t in header)
    for lineno, line in lines:
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ParameterError(f"{path}:{lineno}: malformed edge line {line!r}")
        u, v = parse_int(parts[0], path, lineno), parse_int(parts[1], path, lineno)
        if not u < v:
            raise ParameterError(f"{path}:{lineno}: edge ({u},{v}) must satisfy u < v")
        if (u, v) in edges:
            raise ParameterError(f"{path}:{lineno}: edge ({u},{v}) repeats an earlier line")
        edges[(u, v)] = None
    if len(edges) != m:
        raise ParameterError(f"{path}: header claims {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def write_groups(path: str, heads, pairs: np.ndarray, offsets: np.ndarray, sep: str) -> None:
    """Write one line per group of pairs: the group's head, then " u{sep}v"
    per pair.  heads(a, b) lists the heads of groups a..b-1.  Lines are
    formatted and written in chunks of whole groups of about _WRITE_PAIRS
    pairs, so memory stays flat however long the file."""
    t = len(offsets) - 1
    with open(path, "w") as fh:
        a = 0
        while a < t:
            b = int(np.searchsorted(offsets, offsets[a] + _WRITE_PAIRS, side="right")) - 1
            b = min(max(a + 1, b), a + _WRITE_PAIRS)
            lo = int(offsets[a])
            chunk = pairs[lo : offsets[b]]
            toks = [f" {u}{sep}{v}" for u, v in zip(chunk[:, 0].tolist(), chunk[:, 1].tolist())]
            cuts = (offsets[a : b + 1] - lo).tolist()
            fh.write("".join([
                f"{head}{''.join(toks[x:y])}\n" for head, x, y in zip(heads(a, b), cuts, cuts[1:])
            ]))
            a = b


def parse_pairs(tokens: list[str], sep: str, path, lineno: int) -> list[int]:
    """The ints u, v of each "u{sep}v" token on line `lineno` of `path`,
    flattened; an id of 2^63 or more raises ParameterError naming path:line."""
    ids = [parse_int(x, path, lineno) for tok in tokens for x in tok.partition(sep)[::2]]
    if ids and max(ids) >> 63:
        raise ParameterError(f"{path}:{lineno}: id {max(ids)} does not fit in 64 bits")
    return ids


def write_cover(c: MatchingCover, path: str) -> None:
    """One line per matching: "i: u1-v1 u2-v2 ..." with i the ordinal."""
    write_groups(path, lambda a, b: [f"{i}:" for i in range(a, b)], c.pairs, c.offsets, "-")


def read_cover(path: str) -> MatchingCover:
    sizes: list[int] = []
    flat: list[int] = []
    for lineno, line in numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        if parse_int(head, path, lineno) != len(sizes):
            raise ParameterError(f"{path}:{lineno}: matching ordinals must be sequential")
        ids = parse_pairs(rest.split(), "-", path, lineno)
        flat.extend(ids)
        sizes.append(len(ids) // 2)
    pairs = np.array(flat, dtype=np.int64).reshape(-1, 2)
    return MatchingCover.from_arrays(pairs, offsets_of(sizes))
