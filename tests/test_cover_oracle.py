"""Differential tests of the one cover verifier against the code it replaced.

The oracles are earlier implementations: verify_cover searching every
matching and every edge pair by pair, with is_induced_matching, the
bitmask induced-matching check the array verifier replaced, and the
bipartite verifier that read (left, right) station pairs off N receiver
bitmasks.  verify_cover must return the same CoverReport as the first.  The
K_{N,N} gate verify_cover_bipartite, run on a station matrix and (u, v)
station pairs, must return the first oracle's report on the same graph on
2N vertices with (u, N+v) edges, and agree with the second on validity and
on the multiset of violation kinds.
"""

from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rsgraphs import graphs
from rsgraphs.errors import ParameterError
from rsgraphs.graphs import (
    CoverReport,
    Graph,
    MatchingCover,
    verify_cover,
    verify_cover_bipartite,
)
from test_graph_oracle import bit_graph, bits_of, cover_of, greedy_cover_within, unpack_rows


def station_matrix(rows: list[int]) -> np.ndarray:
    """Bool (N, N) station matrix, N = len(rows): rows[u] is the bitmask
    of the right stations v joined to left station u."""
    return unpack_rows(rows, len(rows))


def two_sided(mat: np.ndarray, ms=()):
    """The subgraph of K_{N,N} with station matrix mat as a graph on 2N
    vertices, right station v being vertex N+v, and the matchings ms of
    station pairs (u, v) as matchings of its (u, N+v) pairs.  An id outside
    0..N-1 stays off the 2N vertices: a left u >= N is u+N, a right v < 0
    is v."""
    n = len(mat)
    g = Graph.from_edges(2 * n, [(u, n + v) for u, v in np.argwhere(mat).tolist()])
    return g, [[(u + n * (u >= n), v + n * (v >= 0)) for u, v in m] for m in ms]


def is_induced_matching(g: Graph, m) -> bool:
    """True iff m is a matching in g and no g-edge joins distinct edges of m.

    Every listed edge must be an edge of g; anything else signals a malformed
    cover and raises ParameterError rather than returning False.
    """
    g = bit_graph(g)
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


def doubled_matchings(c: MatchingCover):
    """Image of each matching of a graph in its bipartite double: uv
    becomes the station pairs (u, v) and (v, u)."""
    return [sorted(p for u, v in m for p in ((u, v), (v, u))) for m in c.matchings]


def _report(violations, c: MatchingCover) -> CoverReport:
    sizes = c.sizes()
    return CoverReport(
        valid=not violations,
        violations=violations,
        r_min=min(sizes, default=0),
        r_max=max(sizes, default=0),
        t=c.t,
    )


def oracle_matching_violations(i, m, neighbor_mask, has_edge, violations):
    owner = {}
    pmask = 0
    for e in m:
        for x in e:
            if x in owner and owner[x] != e:
                violations.append(("shared-endpoint", (i, x)))
            owner.setdefault(x, e)
            if x >= 0:
                pmask |= 1 << x
    if any(e[0] == e[1] for e in m):
        return
    reported = set()
    for u, v in m:
        if not has_edge(u, v):
            continue
        for a, b in ((u, v), (v, u)):
            stray = neighbor_mask(a) & pmask & ~(1 << b) & ~(1 << a)
            for c in bits_of(stray):
                other = owner[c]
                if other == (u, v):
                    continue
                key = (i, min((u, v), other), max((u, v), other))
                if key not in reported:
                    reported.add(key)
                    violations.append(("cross-edge", (i, key[1], key[2])))


def oracle_verify_cover(g: Graph, c: MatchingCover) -> CoverReport:
    """verify_cover as it was: every matching and every edge searched in full."""
    g = bit_graph(g)
    violations = []
    locs = {}
    for i, m in enumerate(c.matchings):
        for u, v in m:
            e = (u, v) if u <= v else (v, u)
            if not g.has_edge(*e):
                violations.append(("edge-not-in-graph", (i, e)))
            else:
                locs.setdefault(e, []).append(i)
        oracle_matching_violations(i, m, g.neighbors_mask, g.has_edge, violations)
    for e, where in sorted(locs.items()):
        if len(where) > 1:
            violations.append(("multiply-covered", (e, tuple(where))))
    for e in g.edges():
        if e not in locs:
            violations.append(("uncovered-edge", e))
    return _report(violations, c)


def oracle_verify_cover_bipartite(rows: list[int], c: MatchingCover) -> CoverReport:
    """The bipartite verifier as it was, on N x N rows (rows[u] = right
    neighbours of left u) and a cover of ordered (left, right) pairs."""
    n = len(rows)
    cols = [0] * n
    for u, r in enumerate(rows):
        for v in bits_of(r):
            cols[v] |= 1 << u

    def has_edge(u, v):
        return 0 <= u < n and 0 <= v < n and bool((rows[u] >> v) & 1)

    violations = []
    locs = {}
    for i, m in enumerate(c.matchings):
        owner_l, owner_r = {}, {}
        lmask = rmask = 0
        for e in m:
            u, v = e
            if not has_edge(u, v):
                violations.append(("edge-not-in-graph", (i, e)))
            else:
                locs.setdefault(e, []).append(i)
            if u in owner_l and owner_l[u] != e:
                violations.append(("shared-endpoint", (i, ("left", u))))
            if v in owner_r and owner_r[v] != e:
                violations.append(("shared-endpoint", (i, ("right", v))))
            owner_l.setdefault(u, e)
            owner_r.setdefault(v, e)
            lmask |= 1 << u
            rmask |= 1 << v
        reported = set()
        for u, v in m:
            if not has_edge(u, v):
                continue
            strays = [owner_r[x] for x in bits_of(rows[u] & rmask & ~(1 << v))]
            strays += [owner_l[x] for x in bits_of(cols[v] & lmask & ~(1 << u))]
            for other in strays:
                key = (i, min((u, v), other), max((u, v), other))
                if key not in reported:
                    reported.add(key)
                    violations.append(("cross-edge", (i, key[1], key[2])))
    for e, where in sorted(locs.items()):
        if len(where) > 1:
            violations.append(("multiply-covered", (e, tuple(where))))
    for u in range(n):
        for v in bits_of(rows[u]):
            if (u, v) not in locs:
                violations.append(("uncovered-edge", (u, v)))
    return _report(violations, c)


# Damage kinds that keep every pair an edge and each edge covered once, so
# that only the matchings' inducedness can fail.
SAME_PAIRS = (3, 4, 5, 6, 7)


def damage(rnd, ms, edges, pairs, kinds=range(8)):
    """Apply one random defect of the given kinds to the matchings ms in place.

    edges are the graph's edges, pairs every vertex pair a cover may name
    (edges, non-edges and, for graphs, self-pairs and out-of-range ids).
    """
    kind = rnd.choice(kinds)
    if kind == 0 and any(ms):  # drop an edge: uncovered
        m = rnd.choice([m for m in ms if m])
        m.pop(rnd.randrange(len(m)))
    elif kind == 1 and edges:  # repeat an edge: multiply covered, maybe not induced
        target = rnd.choice(ms) if ms and rnd.random() < 0.7 else None
        e = rnd.choice(edges)
        if target is None:
            ms.append([e])
        else:
            target.insert(rnd.randrange(len(target) + 1), e)
    elif kind == 2 and pairs:  # any pair, in or out of the graph
        if not ms:
            ms.append([])
        rnd.choice(ms).append(rnd.choice(pairs))
    elif kind == 3 and len(ms) > 1:  # merge two matchings: shared endpoints, cross edges
        a = ms.pop(rnd.randrange(len(ms)))
        ms[rnd.randrange(len(ms))].extend(a)
    elif kind == 4 and any(len(m) > 1 for m in ms):  # move an edge elsewhere
        src = rnd.choice([m for m in ms if len(m) > 1])
        e = src.pop(rnd.randrange(len(src)))
        rnd.choice(ms).append(e)
    elif kind == 5:
        ms.insert(rnd.randrange(len(ms) + 1), [])
    elif kind == 6 and ms:
        rnd.shuffle(ms)
    elif kind == 7 and any(ms):  # write a pair as v-u
        m = rnd.choice([m for m in ms if m])
        i = rnd.randrange(len(m))
        m[i] = m[i][::-1]


@st.composite
def graphs_with_covers(draw):
    n = draw(st.integers(0, 9))
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.floats(0.0, 1.0))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density]
    g = Graph.from_edges(n, edges)
    ms = [list(m) for m in greedy_cover_within(g, (1 << n) - 1)]
    both = edges + [(v, u) for u, v in edges]
    ids = range(-1, n + 2)  # self-pairs, negative ids, ids >= n
    pairs = [(u, v) for u in ids for v in ids]
    kinds = draw(st.sampled_from([range(8), SAME_PAIRS]))
    for _ in range(draw(st.integers(0, 6))):
        damage(rnd, ms, both, pairs, kinds)
    return g, cover_of(ms)


@st.composite
def rows_with_covers(draw):
    n = draw(st.integers(0, 6))
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.floats(0.0, 1.0))
    rows = [sum(1 << v for v in range(n) if rnd.random() < density) for _ in range(n)]
    edges = [(u, v) for u in range(n) for v in bits_of(rows[u])]
    g, _ = two_sided(station_matrix(rows))
    # a valid cover of the 2N-vertex graph, read back as station pairs
    ms = [[(u, w - n) for u, w in m] for m in greedy_cover_within(g, (1 << g.n) - 1)]
    # station pairs in range, or with an id of -1 or of N (each half the time)
    ids = range(-draw(st.booleans()), n + draw(st.booleans()))
    pairs = [(u, v) for u in ids for v in ids]
    kinds = draw(st.sampled_from([range(8), SAME_PAIRS]))
    for _ in range(draw(st.integers(0, 6))):
        damage(rnd, ms, edges, pairs, kinds)
    return rows, ms


@settings(max_examples=400, deadline=None)
@given(graphs_with_covers(), st.integers(1, 64))
def test_verify_cover_equals_oracle(gc, block_cells):
    g, c = gc
    with mock.patch.object(graphs, "_BLOCK_CELLS", block_cells):
        assert verify_cover(g, c) == oracle_verify_cover(g, c)


@settings(max_examples=400, deadline=None)
@given(rows_with_covers(), st.randoms(use_true_random=False), st.integers(1, 64))
def test_bipartite_gate_agrees_with_oracle(rc, rnd, block_cells):
    rows, ms = rc
    n = len(rows)
    mat = station_matrix(rows)
    # the same cover with some pairs swapped: (v, u) is another station pair
    swapped = [[e[::-1] if rnd.random() < 0.3 else e for e in m] for m in ms]
    for cover in (ms, swapped):
        g, two_sided_cover = two_sided(mat, cover)
        with mock.patch.object(graphs, "_BLOCK_CELLS", block_cells), \
                mock.patch.object(graphs, "verify_cover", wraps=graphs.verify_cover) as search:
            got = verify_cover_bipartite(mat, cover_of(cover))
        # the report, witnesses included, of the graph on 2N vertices; only
        # an invalid cover is searched there
        assert got == oracle_verify_cover(g, cover_of(two_sided_cover))
        assert search.called == (not got.valid)
        if all(0 <= x < n for m in cover for e in m for x in e):
            want = oracle_verify_cover_bipartite(rows, cover_of(cover))
            assert got.valid == want.valid
            assert Counter(k for k, _ in got.violations) == Counter(k for k, _ in want.violations)
            assert (got.t, got.r_min, got.r_max) == (want.t, want.r_min, want.r_max)
