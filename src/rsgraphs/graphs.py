"""Graphs, induced matchings, matching covers, and their verifier.

A graph is its vertex count n and one sorted, duplicate-free (M, 2) int64
array of its edges (u, v), u < v; adjacency_matrix scatters it into a bool
(N, N) matrix for the kernels that need one.  An induced matching M in G is
a matching such that no edge of G joins endpoints of two distinct edges of
M; a cover is a list of matchings that partitions E(G).

A cover is held in columns: one (M, 2) int64 array of edges, matching after
matching, and the t + 1 offsets that cut it into matchings.  verify_cover
decides validity on these arrays, and searches pair by pair for witnesses
only when that check fails.

A subgraph of K_{N,N} (a shared-channel subchannel, or the bipartite double
of a graph) is its bool (N, N) station matrix, entry [u, v] joining left
station u to right station v, and its covers hold (u, v) station pairs.
induced_groups is the one induced-block kernel: verify_cover_bipartite
decides on it, and so does verify_cover, through the bipartite double.
"""

from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

Edge = tuple[int, int]
Matching = list[Edge]

# Block cells (group x pair x pair) that induced_groups gathers at once.
_BLOCK_CELLS = 1 << 16
# Ids that the writers format, and Graph.edges converts, at once: a line
# costs its head columns plus two ids per pair.
_WRITE_IDS = 1 << 13


class Graph:
    """Undirected graph on vertex ids 0..n-1: pairs is the sorted,
    duplicate-free (M, 2) int64 array of its edges (u, v), u < v."""

    __slots__ = ("n", "pairs")

    def __init__(self, n: int, pairs: np.ndarray):
        # Internal constructor; pairs are trusted.  Use from_edges.
        self.n = n
        self.pairs = pairs

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """The graph of the given edges, each (u, v) or (v, u); repeats
        merge.  The first edge with an end outside 0..n-1, else the first
        self-loop, raises ParameterError."""
        if n < 0:
            raise ParameterError("vertex count must be nonnegative")
        e = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        e = e.reshape(-1, 2)
        outside = ((e < 0) | (e >= n)).any(axis=1)
        bad = outside | (e[:, 0] == e[:, 1])
        if bad.any():
            i = int(bad.argmax())
            u, v = e[i].tolist()
            if outside[i]:
                raise ParameterError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            raise ParameterError(f"self-loop at vertex {u}")
        e.sort(axis=1)
        e = e[np.lexsort((e[:, 1], e[:, 0]))]
        new = np.ones(len(e), dtype=bool)
        new[1:] = (e[1:] != e[:-1]).any(axis=1)
        return cls(n, e[new])

    def degrees(self) -> np.ndarray:
        return np.bincount(self.pairs.ravel(), minlength=self.n)

    def max_degree(self) -> int:
        return int(self.degrees().max(initial=0))

    @property
    def edge_count(self) -> int:
        return len(self.pairs)

    def edges(self):
        """Yield edges (u, v) with u < v in ascending lexicographic order,
        converted to Python ints in chunks of about _WRITE_IDS ids (two per
        edge)."""
        step = max(1, _WRITE_IDS // 2)
        for a in range(0, len(self.pairs), step):
            yield from zip(*self.pairs[a : a + step].T.tolist())

    def __eq__(self, other):
        same_n = isinstance(other, Graph) and self.n == other.n
        return same_n and np.array_equal(self.pairs, other.pairs)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


def key_pairs(keys: np.ndarray, n: int) -> np.ndarray:
    """The (M, 2) int64 array of the pairs (u, v) with keys u * n + v."""
    pairs = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def graph_of_rows(n: int, block: int, rows) -> Graph:
    """The graph on n vertices whose edges are the set entries above the
    diagonal of a bool (n, n) matrix, made `block` rows at a time: rows(a, b)
    is the matrix's rows a..b-1 by its columns a..n-1."""
    keys = [np.empty(0, dtype=np.int64)]
    for a in range(0, n, block):
        u, v = np.nonzero(np.triu(rows(a, a + block), 1))
        keys.append((u + a) * n + (v + a))
    keys = np.concatenate(keys)  # frees the blocks' keys before the pairs are made
    return Graph(n, key_pairs(keys, n))


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Bool (N, N) adjacency matrix of g."""
    adj = np.zeros((g.n, g.n), dtype=bool)
    u, v = g.pairs.T
    adj[u, v] = adj[v, u] = True
    return adj


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


class CoverReport(NamedTuple):
    valid: bool
    violations: list[tuple]
    r_min: int
    r_max: int
    t: int


def _has_edge(adj: np.ndarray, u: int, v: int) -> bool:
    return 0 <= u < len(adj) and 0 <= v < len(adj) and bool(adj[u, v])


def _matching_violations(adj: np.ndarray, i: int, m: Matching, violations):
    """Collect shared-endpoint and cross-edge defects of matching i in the
    graph with adjacency matrix adj."""
    owner: dict[int, Edge] = {}
    for e in m:
        for x in e:
            if x in owner and owner[x] != e:
                violations.append(("shared-endpoint", (i, x)))
            owner.setdefault(x, e)
    if any(e[0] == e[1] for e in m):  # self-pairs never arise from valid graphs
        return
    ends = np.array(sorted(x for x in owner if 0 <= x < len(adj)), dtype=np.int64)
    reported = set()
    for u, v in m:
        if not _has_edge(adj, u, v):
            continue
        for a, b in ((u, v), (v, u)):
            for c in ends[adj[a, ends]].tolist():
                other = owner[c]
                if c == b or other == (u, v):
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
    return _report(c, [] if _is_valid(g, c) else _violations(g, c))


def _report(c: MatchingCover, violations: list[tuple]) -> CoverReport:
    sizes = np.diff(c.offsets)
    r_min, r_max = (int(sizes.min()), int(sizes.max())) if len(sizes) else (0, 0)
    return CoverReport(not violations, violations, r_min, r_max, c.t)


def _is_valid(g: Graph, c: MatchingCover) -> bool:
    """Whether c is an induced-matching cover of g: its pairs, low end
    first, are the entries of g's adjacency matrix above the diagonal, each
    once, and every matching is induced.  A matching is induced in g iff
    its double, each edge uv read as the station pairs (u, v) and (v, u),
    is induced in the adjacency matrix read as a station matrix."""
    adj = adjacency_matrix(g)
    pairs = c.pairs
    return _covers_once(adj, pairs.min(axis=1), pairs.max(axis=1), g.edge_count) and (
        induced_groups(2 * c.offsets, pairs.ravel(), pairs[:, ::-1].ravel(), adj[None]).all()
    )


def _covers_once(mat: np.ndarray, a: np.ndarray, b: np.ndarray, m: int) -> bool:
    """Whether the pairs (a[i], b[i]) are m distinct set entries of the
    square bool matrix mat: m pairs, each in range and set, none twice.
    The diagonal of an adjacency matrix is empty, so self-pairs fail."""
    n = len(mat)
    if len(a) != m:
        return False
    if not m:
        return True
    if min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= n:
        return False
    key = a * n
    key += b
    if not mat.ravel()[key].all():
        return False
    seen = np.zeros(n * n, dtype=bool)
    seen[key] = True
    return np.count_nonzero(seen) == m


def induced_groups(offsets, us, vs, mats: np.ndarray, chan=None) -> np.ndarray:
    """Per group i of station pairs (us[j], vs[j]), j from offsets[i] to
    offsets[i + 1] - 1, whether it is induced in the bool (N, N) station
    matrix mats[chan[i]] (mats[0] when chan is None), given that its pairs
    are set entries there: its s x s block, rows us by columns vs, holds
    just its own s entries.  (Two pairs with a station in common put an
    entry off the diagonal.)  One gather per group size, in chunks of about
    _BLOCK_CELLS cells; empty and one-pair groups are induced."""
    n = mats.shape[-1]
    flat = mats.reshape(len(mats), n * n)
    sizes = np.diff(offsets)
    induced = sizes <= 1
    for size in np.flatnonzero(np.bincount(sizes[sizes > 1])).tolist():
        groups = np.flatnonzero(sizes == size)
        step = max(1, _BLOCK_CELLS // (size * size))
        for a in range(0, len(groups), step):
            r = groups[a : a + step]
            at = offsets[r, None] + np.arange(size)
            cells = us[at][:, :, None] * n + vs[at][:, None, :]
            block = flat[0 if chan is None else chan[r, None, None], cells]
            induced[r] = block.sum(axis=(1, 2)) == size
    return induced


def _violations(g: Graph, c: MatchingCover) -> list[tuple]:
    """Every defect of c, found pair by pair: per matching its pairs outside
    g, then its shared endpoints and cross edges; then the edges covered
    more than once, then the uncovered edges."""
    adj = adjacency_matrix(g)
    violations: list[tuple] = []
    covered: set[Edge] = set()
    placed = 0
    matchings = c.matchings
    for i, m in enumerate(matchings):
        for u, v in m:
            e = (u, v) if u <= v else (v, u)
            if _has_edge(adj, *e):
                covered.add(e)
                placed += 1
            else:
                violations.append(("edge-not-in-graph", (i, e)))
        _matching_violations(adj, i, m, violations)
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


def verify_cover_bipartite(mat: np.ndarray, c: MatchingCover) -> CoverReport:
    """The K_{N,N} gate: verify_cover for the subgraph of K_{N,N} with the
    bool (N, N) station matrix mat and a cover c of its (u, v) station pairs.

    Validity is decided on mat: the pairs are its set entries, each once,
    and every matching is induced (see induced_groups).  Only a cover that
    fails goes, for its witnesses, to verify_cover on the same graph on 2N
    vertices, right station v being vertex N+v.  An id outside 0..N-1 is
    kept off the 2N vertices (a left u >= N is u+N, a right v < 0 is v), so
    no pair of a failed cover turns into an edge there.
    """
    n, m = len(mat), int(np.count_nonzero(mat))
    us, vs = c.pairs[:, 0], c.pairs[:, 1]
    if _covers_once(mat, us, vs, m) and induced_groups(c.offsets, us, vs, mat[None]).all():
        return _report(c, [])
    g = Graph(2 * n, key_pairs(np.flatnonzero(mat), n) + (0, n))  # row-major: sorted
    two = np.column_stack([us + n * (us >= n), vs + n * (vs >= 0)])
    return verify_cover(g, MatchingCover.from_arrays(two, c.offsets))


def singles_cover(mat: np.ndarray) -> MatchingCover:
    """The cover of the station matrix mat by one-pair matchings: (u, v)
    for each set mat[u, v], in ascending order."""
    pairs = key_pairs(np.flatnonzero(mat), len(mat))
    return MatchingCover.from_arrays(pairs, np.arange(len(pairs) + 1))


def doubled_cover(c: MatchingCover, n: int) -> MatchingCover:
    """Image of a cover of a graph on n vertices in its bipartite double:
    the edge uv of a matching becomes the station pairs (u, v) and (v, u),
    and each matching's pairs are sorted."""
    pairs = np.empty((2 * len(c.pairs), 2), dtype=np.int64)
    pairs[0::2], pairs[1::2] = c.pairs, c.pairs[:, ::-1]
    offsets = 2 * c.offsets
    sizes = np.diff(offsets)
    key = pairs[:, 0] * n + pairs[:, 1]
    order = np.arange(len(pairs))
    for size in np.flatnonzero(np.bincount(sizes[sizes > 1])).tolist():
        pos = offsets[:-1][sizes == size, None] + np.arange(size)
        order[pos] = np.take_along_axis(pos, key[pos].argsort(axis=1), axis=1)
    return MatchingCover.from_arrays(pairs[order], offsets)


# ---------------------------------------------------------------------------
# text formats
#
# A format's lines are written from a template (head, pair) of two %d
# strings: head is filled from a line's leading ids, the first its ordinal,
# and pair from each of its pairs.  The edge list's "u v" lines have no
# head and one pair each.  The readers module reads them back.
_EDGE_TEMPLATE = ("", "%d %d")
_COVER_TEMPLATE = ("%d:", " %d-%d")


def write_rows(fh, rows: np.ndarray) -> None:
    """Write each row of the int array rows to the text file fh as one line
    of ids separated by spaces, one % format per chunk of whole rows of
    about _WRITE_IDS ids (one row if it is longer), so memory stays flat
    however long the file."""
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    step = max(1, _WRITE_IDS // rows.shape[1])
    for a in range(0, len(rows), step):
        chunk = rows[a : a + step]
        fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def write_edge_list(g: Graph, path: str) -> None:
    """First line "N M", then one "u v" line per edge with u < v, ascending."""
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.edge_count}\n")
        write_rows(fh, g.pairs)


def write_groups(path: str, template: tuple[str, str], cols, pairs: np.ndarray,
                 offsets: np.ndarray) -> None:
    """Write one line per group of pairs from template (head, pair): head
    with its %d fields filled from the line's ordinal and then the group's
    entries of the int arrays cols, then pair filled from each of its
    pairs.  A line costs 1 + len(cols) ids plus two per pair.  Lines are
    formatted and written in chunks of whole groups of at most _WRITE_IDS
    ids (one group if it is longer), one % format per chunk, so memory
    stays flat however long the file; a chunk's ordinals are made from its
    bounds.  A chunk's format repeats one line per run of groups of equal
    size."""
    head, pair = template
    h, t = 1 + len(cols), len(offsets) - 1
    span = max(1, _WRITE_IDS // h)  # groups a chunk can hold: each costs h ids or more
    heads = h * np.arange(span + 1)
    with open(path, "w") as fh:
        a = 0
        while a < t:
            window = offsets[a : a + span + 1]
            starts = 2 * (window - window[0]) + heads[: len(window)]  # of each line, in ids
            n = max(1, int(starts.searchsorted(_WRITE_IDS, side="right")) - 1)
            b = a + n
            at = starts[:n] + np.arange(h)[:, None]
            vals = np.empty(int(starts[n]), dtype=np.int64)
            in_pairs = np.ones(len(vals), dtype=bool)
            in_pairs[at] = False
            vals[at] = [np.arange(a, b), *(col[a:b] for col in cols)]
            vals[in_pairs] = pairs[window[0] : window[n]].ravel()
            sizes = window[1 : n + 1] - window[:n]
            cuts = [0, *((sizes[1:] != sizes[:-1]).nonzero()[0] + 1).tolist(), n]
            lines = "".join([(head + pair * int(sizes[i]) + "\n") * (j - i)
                             for i, j in zip(cuts, cuts[1:])])
            fh.write(lines % tuple(vals.tolist()))
            a = b


def write_cover(c: MatchingCover, path: str) -> None:
    """One line per matching: "i: u1-v1 u2-v2 ..." with i the ordinal."""
    write_groups(path, _COVER_TEMPLATE, [], c.pairs, c.offsets)


def __getattr__(name: str):
    # read_edge_list and read_cover are the readers module's, imported when
    # first asked for, so that a command that only writes never compiles
    # it.  The name is then held here like an imported one, so that a
    # wrapper set on it here (as perfbench's spans set) sees every call.
    if name not in ("read_edge_list", "read_cover"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import readers

    globals()[name] = value = getattr(readers, name)
    return value
