"""Graphs, induced matchings, matching covers, and their verifiers.

Adjacency is stored as one Python-int bitmask per vertex, which keeps all
set algebra exact and makes the induced-matching checks O(|M| * N/64)
instead of O(|M|^2).  An induced matching M in G is a matching such that no
edge of G joins endpoints of two distinct edges of M; a cover is a list of
matchings that partitions E(G).

A subgraph of K_{N,N} (a shared-channel subchannel, or the bipartite double
of a graph) is a Graph on 2N vertices: left station u is vertex u and right
station v is vertex N+v, so its covers hold (u, N+v) edges and go through
the same verifier; verify_cover_bipartite adds the check that every edge
joins the two sides.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

Edge = tuple[int, int]
Matching = list[Edge]


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
        # Internal constructor; rows are trusted.  Use from_edges / from_adjacency_rows.
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
    def from_adjacency_rows(cls, rows: list[int]) -> "Graph":
        n = len(rows)
        full = (1 << n) - 1
        for u, r in enumerate(rows):
            if r & ~full:
                raise ParameterError(f"adjacency row {u} has bits outside 0..{n - 1}")
            if (r >> u) & 1:
                raise ParameterError(f"self-loop at vertex {u}")
        for u in range(n):
            for v in bits_of(rows[u]):
                if not (rows[v] >> u) & 1:
                    raise ParameterError(f"asymmetric adjacency between {u} and {v}")
        return cls(n, list(rows))

    @classmethod
    def from_bipartite_rows(cls, rows: list[int]) -> "Graph":
        """Subgraph of K_{N,N} on 2N vertices, N = len(rows): rows[u] is the
        bitmask of the right stations v joined to left station u, and v
        becomes vertex N+v."""
        n = len(rows)
        cols = [0] * n
        for u, r in enumerate(rows):
            if r >> n:
                raise ParameterError(f"row {u} has right stations outside 0..{n - 1}")
            for v in bits_of(r):
                cols[v] |= 1 << u
        return cls(2 * n, [r << n for r in rows] + cols, sum(r.bit_count() for r in rows))

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool((self._rows[u] >> v) & 1)

    def neighbors_mask(self, u: int) -> int:
        return self._rows[u]

    def neighbors(self, u: int) -> list[int]:
        return list(bits_of(self._rows[u]))

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


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Bool (N, N) adjacency matrix of g."""
    nbytes = (g.n + 7) // 8
    buf = b"".join(g.neighbors_mask(u).to_bytes(nbytes, "little") for u in range(g.n))
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(g.n, nbytes)
    return np.unpackbits(packed, axis=1, count=g.n, bitorder="little").astype(bool)


@dataclass
class MatchingCover:
    """A list of matchings, each a list of edges."""

    matchings: list[Matching]

    @classmethod
    def from_matchings(cls, matchings, normalize: bool = True) -> "MatchingCover":
        ms = []
        for m in matchings:
            if normalize:
                ms.append([(u, v) if u <= v else (v, u) for u, v in m])
            else:
                ms.append([(u, v) for u, v in m])
        return cls(ms)

    @property
    def t(self) -> int:
        return len(self.matchings)

    def sizes(self) -> list[int]:
        return [len(m) for m in self.matchings]


@dataclass
class CoverReport:
    valid: bool
    violations: list[tuple]
    r_min: int
    r_max: int
    t: int


def is_induced_matching(g: Graph, m: Matching) -> bool:
    """True iff m is a matching in g and no g-edge joins distinct edges of m.

    Every listed edge must be an edge of g; anything else signals a malformed
    cover and raises ParameterError rather than returning False.
    """
    seen = 0
    for u, v in m:
        if not g.has_edge(u, v):
            raise ParameterError(f"pair ({u},{v}) is not an edge of the graph")
        if (seen >> u) & 1 or (seen >> v) & 1:
            return False
        seen |= (1 << u) | (1 << v)
    for u, v in m:
        # Within the endpoint set, each endpoint may see only its partner.
        if g.neighbors_mask(u) & seen != 1 << v:
            return False
        if g.neighbors_mask(v) & seen != 1 << u:
            return False
    return True


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
    edge-not-in-graph.  A valid cover takes the fast path: one
    is_induced_matching call per matching and two counts for the partition;
    the witness searches run only where those checks fail.
    """
    violations: list[tuple] = []
    covered: set[Edge] = set()
    placed = 0
    for i, m in enumerate(c.matchings):
        in_graph = True
        for u, v in m:
            e = (u, v) if u <= v else (v, u)
            if g.has_edge(*e):
                covered.add(e)
                placed += 1
            else:
                violations.append(("edge-not-in-graph", (i, e)))
                in_graph = False
        if not (in_graph and is_induced_matching(g, m)):
            _matching_violations(g, i, m, violations)
    if placed != len(covered):
        locs: dict[Edge, list[int]] = {}
        for i, m in enumerate(c.matchings):
            for u, v in m:
                e = (u, v) if u <= v else (v, u)
                if e in covered:
                    locs.setdefault(e, []).append(i)
        for e, where in sorted(locs.items()):
            if len(where) > 1:
                violations.append(("multiply-covered", (e, tuple(where))))
    if len(covered) != g.edge_count:
        violations.extend(("uncovered-edge", e) for e in g.edges() if e not in covered)
    sizes = c.sizes()
    return CoverReport(
        valid=not violations,
        violations=violations,
        r_min=min(sizes, default=0),
        r_max=max(sizes, default=0),
        t=c.t,
    )


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


def doubled_matchings(c: MatchingCover, n: int) -> list[Matching]:
    """Image of each matching of a graph on n vertices in its bipartite double:
    uv becomes the pairs (u, n+v) and (v, n+u)."""
    return [sorted(p for u, v in m for p in ((u, n + v), (v, n + u))) for m in c.matchings]


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


def write_cover(c: MatchingCover, path: str) -> None:
    """One line per matching: "i: u1-v1 u2-v2 ..." with i the ordinal."""
    with open(path, "w") as fh:
        for i, m in enumerate(c.matchings):
            fh.write(f"{i}:" + "".join(f" {u}-{v}" for u, v in m) + "\n")


def read_cover(path: str) -> MatchingCover:
    matchings = []
    for lineno, line in numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        if parse_int(head, path, lineno) != len(matchings):
            raise ParameterError(f"{path}:{lineno}: matching ordinals must be sequential")
        m = []
        for tok in rest.split():
            us, _, vs = tok.partition("-")
            m.append((parse_int(us, path, lineno), parse_int(vs, path, lineno)))
        matchings.append(m)
    return MatchingCover.from_matchings(matchings, normalize=False)
