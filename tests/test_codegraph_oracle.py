"""Differential tests of the flip-class cover against the per-class reference.

The reference is the original implementation: scan the ordered pairs (a, b)
of the code graph in ascending id order, build each unseen pair's flip class
by swapping coordinate tuples, turn the images back into ids with
vertex_id, and keep a seen set so each class is built once, from its
canonical representative.  enumerate_cover must return exactly its
matchings, in the same order.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsgraphs.codegraph import CodeGraphParams, build_code_graph, enumerate_cover
from rsgraphs.codes import LinearCode, build_chain, gv_search
from rsgraphs.errors import InternalCheckError, ParameterError, SearchFailureError
from rsgraphs.graphs import Graph, MatchingCover
from rsgraphs.lattice import lattice_points
from test_cover_oracle import is_induced_matching
from test_graph_oracle import bit_graph, bits_of, cover_from_matchings

Coords = tuple[int, ...]
OrderedPair = tuple[Coords, Coords]

PINNED = LinearCode(4, 2, cols=(0b1111, 0b0011), claimed_d=2)


def vertex_id(coords, C: int) -> int:
    """Mixed-radix id of a lattice point of [1..C]^n, coordinate 0 most significant."""
    idx = 0
    for c in coords:
        if not 1 <= c <= C:
            raise ParameterError(f"coordinate {c} outside [1..{C}]")
        idx = idx * C + (c - 1)
    return idx


def agreement_set(a: Coords, b: Coords) -> tuple[int, ...]:
    """Sorted coordinate indices where a and b agree (0-based)."""
    if len(a) != len(b):
        raise ParameterError("length mismatch")
    return tuple(i for i, (x, y) in enumerate(zip(a, b)) if x == y)


def is_code_edge(a: Coords, b: Coords, p: CodeGraphParams) -> bool:
    return a != b and len(agreement_set(a, b)) < p.d


def x_flip(pair: OrderedPair, bits) -> OrderedPair:
    """Swap the disagreement coordinates of (a, b) selected by the bit vector.

    bits[j] = 1 swaps the j-th smallest index outside the agreement set; the
    all-ones flip returns (b, a).
    """
    a, b = pair
    free = [i for i in range(len(a)) if a[i] != b[i]]
    bits = list(bits)
    if len(bits) != len(free):
        raise ParameterError(
            f"flip vector must have length {len(free)}, got {len(bits)}"
        )
    c = list(a)
    e = list(b)
    for j, i in enumerate(free):
        if bits[j]:
            c[i], e[i] = b[i], a[i]
    return tuple(c), tuple(e)


def class_pairs(pair: OrderedPair, p: CodeGraphParams) -> list[OrderedPair]:
    """Every image of the ordered pair under the codewords of its code."""
    a, b = pair
    s = agreement_set(a, b)
    if a == b or len(s) >= p.d:
        raise ParameterError("pair is not an edge of the code graph")
    code = p.chain.codes[len(s)]
    free = [i for i in range(len(a)) if a[i] != b[i]]
    return [x_flip(pair, [(w >> j) & 1 for j in range(len(free))]) for w in code.codewords()]


def class_canonical(pair: OrderedPair, p: CodeGraphParams) -> OrderedPair:
    """Lexicographically least ordered pair in the flip class of `pair`."""
    return min(class_pairs(pair, p))


def oracle_enumerate_cover(p: CodeGraphParams, g: Graph) -> MatchingCover:
    """One induced matching per flip class, built from its canonical pair."""
    g = bit_graph(g)
    k = p.k
    coords = [tuple(int(x) for x in row) for row in lattice_points(p.C, p.n)]
    seen: set[tuple[int, int]] = set()
    matchings: list[list[tuple[int, int]]] = []
    for a_id in range(g.n):
        for b_id in bits_of(g.neighbors_mask(a_id)):
            if (a_id, b_id) in seen:
                continue
            cls = class_pairs((coords[a_id], coords[b_id]), p)
            id_pairs = [(vertex_id(c, p.C), vertex_id(e, p.C)) for c, e in cls]
            if len(set(id_pairs)) != 1 << k:
                raise InternalCheckError("flip class has fewer than 2^k ordered pairs")
            if min(id_pairs) != (a_id, b_id):
                raise InternalCheckError("scan order missed a canonical representative")
            seen.update(id_pairs)
            edges = sorted({(u, v) if u < v else (v, u) for u, v in id_pairs})
            if len(edges) != 1 << (k - 1):
                raise InternalCheckError("flip class has a wrong unordered edge count")
            if not is_induced_matching(g, edges):
                raise InternalCheckError(f"flip class at {(a_id, b_id)} is not induced")
            matchings.append(edges)
    return cover_from_matchings(matchings)


def assert_same_cover(p: CodeGraphParams) -> None:
    g = build_code_graph(p)
    assert enumerate_cover(p, g) == oracle_enumerate_cover(p, g)


def test_desk_cover_equals_oracle():
    assert_same_cover(CodeGraphParams(3, 4, 2, build_chain(PINNED, 2)))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(2, n) for n in range(2, 9)] + [(3, n) for n in range(2, 6)]
                    + [(4, n) for n in range(2, 5)]),
    st.data(),
)
def test_cover_equals_oracle_on_gv_chains(cn, data):
    C, n = cn
    d = data.draw(st.integers(1, n - 1), label="d")
    k = data.draw(st.integers(1, n - 1), label="k")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    try:
        root = gv_search(n, k, d - 1, seed)
    except (ParameterError, SearchFailureError):
        assume(False)
    assert_same_cover(CodeGraphParams(C, n, d, build_chain(root, d)))
