"""Differential tests of the shell cover against the shell-by-shell reference.

The reference is the original implementation: a bitmask first-fit cover of
every shell subgraph in full, in ascending center id, followed by a dedupe
that keeps each edge at its first occurrence.  decompose_geometric must
return exactly its matchings, in the same order.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsgraphs.cli import run
from rsgraphs.errors import VerificationError
from rsgraphs.geometric import (
    GeomParams,
    build_geometric_graph,
    decompose_geometric,
    max_shell_degree,
    shell,
)
from rsgraphs.graphs import Graph, bits_of, verify_cover
from rsgraphs.lattice import vertex_coords


def shell_masks(p: GeomParams):
    """Member bitmask of every shell V_z, ascending z."""
    masks = []
    for z in range(p.vertex_count):
        mask = 0
        for x in shell(vertex_coords(z, p.C, p.n), p):
            mask |= 1 << x
        masks.append(mask)
    return masks


def greedy_cover_within(g: Graph, members: int) -> list[list[tuple[int, int]]]:
    """First-fit induced-matching cover of the subgraph induced on `members`."""
    matchings: list[list[tuple[int, int]]] = []
    masks: list[int] = []
    for u in bits_of(members):
        row = g.neighbors_mask(u) & members
        for v in bits_of(row >> (u + 1)):
            v += u + 1
            conflict = (
                ((g.neighbors_mask(u) | g.neighbors_mask(v)) & members)
                | (1 << u)
                | (1 << v)
            )
            for i, pm in enumerate(masks):
                if pm & conflict == 0:
                    matchings[i].append((u, v))
                    masks[i] |= (1 << u) | (1 << v)
                    break
            else:
                matchings.append([(u, v)])
                masks.append((1 << u) | (1 << v))
    return matchings


def reference_cover(p: GeomParams, g: Graph) -> list[list[tuple[int, int]]]:
    """Cover every shell in full, then keep each edge at its first occurrence."""
    collected: list[list[tuple[int, int]]] = []
    for members in shell_masks(p):
        collected.extend(greedy_cover_within(g, members))
    seen: set[tuple[int, int]] = set()
    deduped: list[list[tuple[int, int]]] = []
    for m in collected:
        kept = [e for e in m if e not in seen]
        seen.update(kept)
        if kept:
            deduped.append(kept)
    for e in g.edges():
        if e not in seen:
            x = vertex_coords(e[0], p.C, p.n)
            y = vertex_coords(e[1], p.C, p.n)
            raise VerificationError(
                f"edge {e} = {x}-{y} lies in no shell (n >= 2C hypothesis "
                f"{'held' if p.n >= 2 * p.C else 'violated'})"
            )
    return deduped


def reference_max_shell_degree(p: GeomParams, g: Graph) -> int:
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


# Every (C, n) with n >= 2 and C^n <= 81; n = 1 has its own test.
SMALL = [(C, n) for C in range(2, 10) for n in range(2, 7) if C**n <= 81]


@pytest.mark.parametrize("C,n", SMALL)
def test_cover_equals_reference(C, n):
    p = GeomParams(C, n)
    g = build_geometric_graph(p)
    got = outcome(lambda: decompose_geometric(p, g).matchings)
    assert got == outcome(reference_cover, p, g)


def test_cover_equals_reference_on_a_line():
    for C in range(2, 82):
        p = GeomParams(C, 1)
        g = build_geometric_graph(p)
        got = outcome(lambda: decompose_geometric(p, g).matchings)
        assert got == outcome(reference_cover, p, g), C


@pytest.mark.parametrize("C,n", SMALL + [(2, 1), (3, 1), (7, 1)])
def test_max_shell_degree_equals_reference(C, n):
    p = GeomParams(C, n)
    g = build_geometric_graph(p)
    got = max_shell_degree(p, g)
    assert got == reference_max_shell_degree(p, g)
    assert got <= 10.5**n


@settings(max_examples=60, deadline=None)
@given(
    cn=st.sampled_from([(2, 4), (3, 3)]),
    drop=st.floats(0.0, 1.0),
    rnd=st.randoms(use_true_random=False),
)
def test_cover_equals_reference_after_edge_deletions(cn, drop, rnd):
    # Deleting edges makes the shells irregular, so first-fit takes paths
    # the full band graph never does.
    p = GeomParams(*cn)
    full = build_geometric_graph(p)
    g = Graph.from_edges(full.n, [e for e in full.edges() if rnd.random() >= drop])
    cover = decompose_geometric(p, g)
    assert cover.matchings == reference_cover(p, g)
    assert verify_cover(g, cover).valid


def test_empty_lattice_dimension(capsys):
    assert decompose_geometric(GeomParams(2, 0)).matchings == []
    assert run(["construct", "geometric", "--c", "2", "--n", "0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["N"], rep["edges"], rep["t"]) == (1, 0, 0)


def test_uncovered_edge_is_reported(capsys):
    with pytest.raises(VerificationError) as exc:
        decompose_geometric(GeomParams(2, 1))
    assert "(0, 1)" in str(exc.value)
    assert "violated" in str(exc.value)
    assert run(["construct", "geometric", "--c", "2", "--n", "1"]) == 2
    assert "edge (0, 1)" in capsys.readouterr().err
