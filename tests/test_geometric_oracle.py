"""Differential tests of the shell cover against plain bitmask oracles.

center_cover is the rule decompose_geometric implements: each edge goes to
the shell of its center (center_for_edge), or, when that shell misses an
endpoint, to the lowest shell holding both; each group, in ascending id, is
covered by first-fit in edge order.  decompose_geometric must return exactly
its matchings, in the same order.  lockstep_cover is the same rule run as
decompose_geometric ran it before the free-set first-fit: every group's
first-fit in lockstep, with a per-vertex bitset of blocked matchings over all
N vertices.  reference_cover is the earlier rule (every shell covered in
full, each edge kept at its first shell), kept as a second valid cover to
compare against; its first-fit, bitset_first_fit, gives greedy_cover_within's
cover from a bool matrix of blocked matchings.
"""

import json
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsgraphs import geometric
from rsgraphs.cli import run
from rsgraphs.errors import InternalCheckError, ParameterError, VerificationError
from rsgraphs.geometric import (
    GeomParams,
    build_geometric_graph,
    decompose_geometric,
    in_edge_band,
    in_shell_band,
    max_shell_degree,
)
from rsgraphs.graphs import Graph, MatchingCover, adjacency_matrix, verify_cover
from rsgraphs.lattice import lattice_points, vertex_coords
from test_graph_oracle import bit_graph, bits_of, cover_of, first_fit, greedy_cover_within


class BalanceVector(NamedTuple):
    """Sign vector with entries in {-1/2, 0, +1/2}, stored doubled as ints."""

    halves: tuple[int, ...]

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(h, 2) for h in self.halves)


def balance_vector(a, C: int) -> BalanceVector:
    """Signs w_i in {+-1/2} on the support of a with |<a, w>| <= C/2.

    Inductively, each w_i opposes the running partial sum of a_j w_j; on a
    tie the sign is +1/2.  Entries are |a_i| <= C, and w_i = 0 exactly where
    a_i = 0.
    """
    halves = []
    twice_sum = 0  # 2 * sum(a_j w_j), always an integer
    for ai in a:
        if abs(ai) > C:
            raise ParameterError(f"entry {ai} exceeds the bound {C}")
        if ai == 0:
            halves.append(0)
            continue
        if twice_sum > 0:
            h = -1 if ai > 0 else 1
        elif twice_sum < 0:
            h = 1 if ai > 0 else -1
        else:
            h = 1
        halves.append(h)
        twice_sum += ai * h
        if abs(twice_sum) > C:
            raise InternalCheckError("balance invariant |2 sum| <= C broken")
    return BalanceVector(tuple(halves))


def center_for_edge(x, y, p: GeomParams, require_edge: bool = True) -> tuple[int, ...]:
    """Lattice center z = (x+y)/2 + w for the edge xy.

    w balances the odd-difference coordinates, so z is integral and stays in
    [1..C]^n.  For n >= 2C both endpoints then lie in the shell V_z.
    require_edge=False skips the adjacency gate and just builds the center.
    """
    x, y = tuple(x), tuple(y)
    if len(x) != p.n or len(y) != p.n:
        raise ParameterError("coordinate length mismatch")
    for coords in (x, y):
        for c in coords:
            if not 1 <= c <= p.C:
                raise ParameterError(f"coordinate {c} outside [1..{p.C}]")
    d2 = sum((xi - yi) ** 2 for xi, yi in zip(x, y))
    if x == y or (require_edge and not in_edge_band(d2, p)):
        raise ParameterError("x and y are not adjacent in the band graph")
    a = [yi - xi if (yi - xi) % 2 else 0 for xi, yi in zip(x, y)]
    w = balance_vector(a, p.C)
    z = []
    for xi, yi, h in zip(x, y, w.halves):
        num = xi + yi + h
        if num % 2:
            raise InternalCheckError("center coordinate is not integral")
        zi = num // 2
        if not 1 <= zi <= p.C:
            raise InternalCheckError("center left the lattice")
        z.append(zi)
    return tuple(z)


def shell(z, p: GeomParams) -> list[int]:
    """Vertex ids x with | ||x-z||^2 - mu/4 | <= 3n/4, ascending."""
    pts = lattice_points(p.C, p.n)
    d2 = ((pts - np.asarray(z, dtype=np.int64)) ** 2).sum(axis=1)
    return [int(i) for i in np.flatnonzero(in_shell_band(d2, p))]


def shell_masks(p: GeomParams):
    """Member bitmask of every shell V_z, ascending z."""
    masks = []
    for z in range(p.vertex_count):
        mask = 0
        for x in shell(vertex_coords(z, p.C, p.n), p):
            mask |= 1 << x
        masks.append(mask)
    return masks


def vertex_id(x, C: int) -> int:
    return sum((c - 1) * C ** (len(x) - 1 - i) for i, c in enumerate(x))


def no_shell_error(e, p: GeomParams) -> VerificationError:
    x = vertex_coords(e[0], p.C, p.n)
    y = vertex_coords(e[1], p.C, p.n)
    return VerificationError(
        f"edge {e} = {x}-{y} lies in no shell (n >= 2C hypothesis "
        f"{'held' if p.n >= 2 * p.C else 'violated'})"
    )


def center_cover(p: GeomParams, g: Graph) -> list[list[tuple[int, int]]]:
    """Group each edge by its center's shell (else its lowest shell holding
    both endpoints), then first-fit every group in ascending group id."""
    g = bit_graph(g)
    masks = shell_masks(p)
    groups: dict[int, list[tuple[int, int]]] = {}
    for u, v in g.edges():
        both = (1 << u) | (1 << v)
        z = center_for_edge(vertex_coords(u, p.C, p.n), vertex_coords(v, p.C, p.n), p)
        z = vertex_id(z, p.C)
        if masks[z] & both != both:
            z = next((s for s, m in enumerate(masks) if m & both == both), None)
            if z is None:
                raise no_shell_error((u, v), p)
        groups.setdefault(z, []).append((u, v))
    return [m for z in sorted(groups) for m in first_fit(g, groups[z])]


def bitset_first_fit(closed: np.ndarray, members: list[int]) -> list[list[tuple[int, int]]]:
    """greedy_cover_within on the vertices `members`, ascending, of the graph
    whose closed neighbourhoods N[x] are the rows of the bool matrix closed.
    Matching i is blocked at x once it holds a vertex of N[x], and each edge
    uv, in ascending order, joins the first matching blocked at neither end:
    the first whose vertices avoid N[u] | N[v], as in first_fit."""
    ids = np.array(members, dtype=np.int64)
    us, vs = np.nonzero(np.triu(closed[np.ix_(ids, ids)], 1))
    blocked = np.zeros((len(closed), len(us) + 1), dtype=bool)
    matchings: list[list[tuple[int, int]]] = []
    for u, v in zip(ids[us].tolist(), ids[vs].tolist()):
        i = int((blocked[u] | blocked[v]).argmin())
        if i == len(matchings):
            matchings.append([])
        matchings[i].append((u, v))
        blocked[closed[u] | closed[v], i] = True
    return matchings


def reference_cover(p: GeomParams, g: Graph) -> list[list[tuple[int, int]]]:
    """Cover every shell in full, then keep each edge at its first occurrence."""
    closed = adjacency_matrix(g) | np.eye(g.n, dtype=bool)
    collected: list[list[tuple[int, int]]] = []
    for members in shell_masks(p):
        collected.extend(bitset_first_fit(closed, list(bits_of(members))))
    seen: set[tuple[int, int]] = set()
    deduped: list[list[tuple[int, int]]] = []
    for m in collected:
        kept = [e for e in m if e not in seen]
        seen.update(kept)
        if kept:
            deduped.append(kept)
    for e in g.edges():
        if e not in seen:
            raise no_shell_error(e, p)
    return deduped


def _lockstep_first_fit(seqs, eu, ev, closed: np.ndarray, match: np.ndarray) -> None:
    """Write into match the first-fit matching index of every edge of every
    group in one chunk.

    seqs[c] holds group c's edge ids in processing order, longest group
    first.  Step k places the k-th edge of every group still running, so the
    running groups are always a prefix.  blocked[c, :, x] is a bitset over
    group c's matchings: bit i is set once matching i has a vertex in N[x],
    so edge uv fits matching i iff bit i is clear in blocked[c, :, u] and in
    blocked[c, :, v]; placing it ORs the contiguous row blocked[c, j] of its
    word j.
    """
    lengths = np.array([len(s) for s in seqs])
    steps = int(lengths[0])
    at = np.zeros((len(seqs), steps), dtype=np.intp)  # edge ids, padded past each group's end
    for c, s in enumerate(seqs):
        at[c, : len(s)] = s
    running = len(seqs) - np.searchsorted(lengths[::-1], np.arange(steps), side="right")
    # A group never has more matchings than edges, so steps + 1 bits suffice.
    blocked = np.zeros((len(seqs), steps // 64 + 1, len(closed)), dtype=np.uint64)
    rows = np.arange(len(seqs))
    top = -1  # highest matching index used so far in this chunk
    for k in range(steps):
        r = rows[: running[k]]
        e = at[r, k]
        u, v = eu[e], ev[e]
        words = (top + 1) // 64 + 1  # bit top+1 is clear in every group
        free = ~(blocked[r, :words, u] | blocked[r, :words, v])
        j = (free != 0).argmax(axis=1)
        word = free[r, j]
        low = word & (~word + np.uint64(1))  # lowest clear bit of the blocked word
        i = 64 * j + np.frexp(low.astype(np.float64))[1] - 1
        match[e] = i
        top = max(top, int(i.max()))
        blocked[r, j] |= (closed[u] | closed[v]) * low[:, None]


def lockstep_cover(p: GeomParams, g: Graph) -> MatchingCover:
    """The center-group first-fit cover by _lockstep_first_fit, in
    decompose_geometric's order, with no work cap."""
    eu, ev = g.pairs.T
    group, inside = geometric._edge_centers(p, eu, ev)
    out = np.flatnonzero(~inside)
    if len(out):
        group[out] = geometric._first_shells(geometric._shell_membership(p), eu[out], ev[out])
    uncovered = out[group[out] < 0]
    if len(uncovered):
        raise no_shell_error((int(eu[uncovered[0]]), int(ev[uncovered[0]])), p)
    sizes = np.bincount(group, minlength=g.n)
    seqs = np.split(np.argsort(group, kind="stable"), np.cumsum(sizes)[:-1])
    closed = adjacency_matrix(g)
    np.fill_diagonal(closed, True)
    match = np.empty(len(eu), dtype=np.int64)
    order = sorted(np.flatnonzero(sizes), key=lambda z: -sizes[z])
    if order:
        _lockstep_first_fit([seqs[z] for z in order], eu, ev, closed, match)
    key = group * len(eu) + match
    rank = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[rank], prepend=-1))
    return MatchingCover(g.pairs[rank], np.append(starts, len(rank)))


def reference_max_shell_degree(p: GeomParams, g: Graph) -> int:
    g = bit_graph(g)
    best = 0
    for members in shell_masks(p):
        for u in bits_of(members):
            best = max(best, (g.neighbors_mask(u) & members).bit_count())
    return best


def outcome(fn, *args):
    """fn's return value, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except VerificationError as exc:
        return ("VerificationError", str(exc))


# Every (C, n) with n >= 2 and C^n <= 81; n = 1 has its own test.  (5, 2),
# (6, 2) and (9, 2) have n < 2C and edges whose center shell misses an
# endpoint; each also has an edge in no shell at all.
SMALL = [(C, n) for C in range(2, 10) for n in range(2, 7) if C**n <= 81]


@pytest.mark.parametrize("C,n", SMALL)
def test_cover_equals_reference(C, n):
    p = GeomParams(C, n)
    g = build_geometric_graph(p)
    got = outcome(lambda: decompose_geometric(p, g).matchings)
    assert got == outcome(center_cover, p, g)


def test_cover_equals_reference_on_a_line():
    for C in range(2, 82):
        p = GeomParams(C, 1)
        g = build_geometric_graph(p)
        got = outcome(lambda: decompose_geometric(p, g).matchings)
        assert got == outcome(center_cover, p, g), C


@pytest.mark.parametrize("C,n", SMALL)
def test_center_and_first_shell_covers_are_both_valid(C, n):
    p = GeomParams(C, n)
    g = build_geometric_graph(p)
    center = outcome(center_cover, p, g)
    first = outcome(reference_cover, p, g)
    if isinstance(center, tuple):  # an edge in no shell: both rules say which
        assert center == first
        return
    for ms in (center, first):
        assert verify_cover(g, cover_of(ms)).valid
    if C == 2:  # the band graph is complete, so every matching is one edge
        assert sorted(center) == sorted(first)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 24), data=st.data())
def test_bitset_first_fit_equals_greedy_cover_within(n, data):
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    g = Graph.from_edges(n, data.draw(st.lists(pairs, max_size=3 * n)))
    members = data.draw(st.integers(0, (1 << n) - 1))
    closed = adjacency_matrix(g) | np.eye(n, dtype=bool)
    assert bitset_first_fit(closed, list(bits_of(members))) == greedy_cover_within(g, members)


@settings(max_examples=200, deadline=None)
@given(
    cn=st.tuples(st.integers(2, 9), st.integers(1, 7)).filter(lambda cn: cn[0] ** cn[1] <= 4096),
    picks=st.lists(st.tuples(st.integers(0, 4095), st.integers(0, 4095)), min_size=1, max_size=40),
)
def test_edge_centers_equal_center_for_edge(cn, picks):
    # Any two distinct lattice points, edge or not, have a center; n < 2C
    # is drawn too, where the center shell can miss an endpoint.
    p = GeomParams(*cn)
    N = p.vertex_count
    pairs = [(a % N, b % N) for a, b in picks if a % N != b % N]
    eu = np.array([a for a, _ in pairs], dtype=np.int64)
    ev = np.array([b for _, b in pairs], dtype=np.int64)
    zid, inside = geometric._edge_centers(p, eu, ev)
    for k, (a, b) in enumerate(pairs):
        z = center_for_edge(vertex_coords(a, p.C, p.n), vertex_coords(b, p.C, p.n), p,
                            require_edge=False)
        members = set(shell(z, p))
        assert zid[k] == vertex_id(z, p.C)
        assert inside[k] == (a in members and b in members)


@pytest.mark.parametrize("C,n", SMALL + [(2, 1), (3, 1), (7, 1)])
def test_max_shell_degree_equals_reference(C, n):
    p = GeomParams(C, n)
    g = build_geometric_graph(p)
    got = max_shell_degree(p, g)
    assert got == reference_max_shell_degree(p, g)
    assert got <= 10.5**n


def test_fallback_edges_go_to_their_lowest_shell():
    # Every fallback edge of SMALL lies in no shell at all.  At C=8 n=3 the
    # center shell misses an endpoint of 3024 of the 13680 edges, and each of
    # them lies in some other shell.
    p = GeomParams(8, 3)
    g = build_geometric_graph(p)
    eu, ev = np.array(list(g.edges())).T
    _, inside = geometric._edge_centers(p, eu, ev)
    assert np.count_nonzero(~inside) == 3024
    cover = decompose_geometric(p, g)
    assert cover.matchings == center_cover(p, g)
    assert verify_cover(g, cover).valid


@settings(max_examples=80, deadline=None)
@given(
    cn=st.sampled_from([(2, 4), (3, 3), (4, 3), (7, 2), (8, 3)]),
    drop=st.floats(0.0, 1.0),
    rnd=st.randoms(use_true_random=False),
)
def test_cover_equals_reference_after_edge_deletions(cn, drop, rnd):
    # Deleting edges makes the shells irregular, so first-fit takes paths
    # the full band graph never does.  (7, 2) and (8, 3) have n < 2C, and
    # (8, 3) has fallback edges.
    p = GeomParams(*cn)
    full = build_geometric_graph(p)
    g = Graph.from_edges(full.n, [e for e in full.edges() if rnd.random() >= drop])
    cover = decompose_geometric(p, g)
    assert cover.matchings == center_cover(p, g)
    assert verify_cover(g, cover).valid


# Every (C, n) with 2 <= C <= 5 and C^n <= 300; n < 2C for all but C=2 n >= 4.
LOCKSTEP_SIZES = [(C, n) for C in range(2, 6) for n in range(1, 9) if C**n <= 300]


@settings(max_examples=60, deadline=None)
@given(cn=st.sampled_from(LOCKSTEP_SIZES), drop=st.sampled_from([0.0, 0.05, 0.3, 0.7]),
       rnd=st.randoms(use_true_random=False))
def test_cover_equals_the_lockstep_oracle(cn, drop, rnd):
    # Byte for byte the cover of the kernel it replaced, on the band graph and
    # with random edges deleted, edges in no shell included.
    p = GeomParams(*cn)
    g = build_geometric_graph(p)
    if drop:
        g = Graph.from_edges(g.n, [e for e in g.edges() if rnd.random() >= drop])

    def pairs(cover):
        return cover.pairs.tolist(), cover.offsets.tolist()

    assert outcome(lambda: pairs(decompose_geometric(p, g))) == \
        outcome(lambda: pairs(lockstep_cover(p, g)))


def test_empty_lattice_dimension(capsys):
    p = GeomParams(2, 0)
    assert decompose_geometric(p, build_geometric_graph(p)).matchings == []
    assert run(["construct", "geometric", "--c", "2", "--n", "0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["N"], rep["edges"], rep["t"]) == (1, 0, 0)
    assert rep["r_mean"] is rep["t_over_edges"] is rep["singleton_fraction"] is None


def test_uncovered_edge_is_reported(capsys):
    with pytest.raises(VerificationError) as exc:
        decompose_geometric(GeomParams(2, 1), build_geometric_graph(GeomParams(2, 1)))
    assert "(0, 1)" in str(exc.value)
    assert "violated" in str(exc.value)
    assert run(["construct", "geometric", "--c", "2", "--n", "1"]) == 2
    assert "edge (0, 1)" in capsys.readouterr().err
