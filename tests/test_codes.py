"""GF(2) linear codes: verification, GV-style search, deletion chains, IO."""

import itertools
import math
import random
from unittest import mock

import pytest

from rsgraphs import codes
from rsgraphs.codes import (
    CodeChain,
    LinearCode,
    build_chain,
    canonical_columns,
    delete_row,
    gv_condition,
    gv_rate,
    gv_search,
    kernel_basis,
    read_generator,
    rref,
    sample_parity_check,
    validate_chain,
    verify_code,
    write_generator,
)
from rsgraphs.errors import ParameterError, SearchFailureError

PINNED = LinearCode(4, 2, cols=(0b1111, 0b0011), claimed_d=2)


def brute_verify(code):
    """Oracle: span the columns by explicit subset XOR, then scan weights."""
    words = set()
    for take in itertools.product((0, 1), repeat=code.k):
        w = 0
        for bit, col in zip(take, code.cols):
            if bit:
                w ^= col
        words.add(w)
    all_ones = (1 << code.n) - 1
    dist = min((w.bit_count() for w in words if w), default=0)
    rank = int(math.log2(len(words)))
    return all_ones in words, dist, rank


def test_codewords_match_subset_xor_oracle():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randrange(2, 10)
        k = rng.randrange(1, min(n, 5) + 1)
        code = LinearCode(n, k, tuple(rng.getrandbits(n) for _ in range(k)))
        want = set()
        for take in itertools.product((0, 1), repeat=k):
            w = 0
            for bit, col in zip(take, code.cols):
                if bit:
                    w ^= col
            want.add(w)
        assert set(code.codewords()) == want
        assert len(code.codewords()) == 1 << k  # list keeps multiplicity


def test_verify_code_matches_oracle():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randrange(2, 10)
        k = rng.randrange(1, min(n, 5) + 1)
        code = LinearCode(n, k, tuple(rng.getrandbits(n) for _ in range(k)))
        v = verify_code(code)
        proper, dist, rank = brute_verify(code)
        assert (v.is_proper, v.distance, v.rank) == (proper, dist, rank)


def test_pinned_code_is_proper_4_2_2():
    v = verify_code(PINNED)
    assert v.is_proper and v.distance == 2 and v.rank == 2


def test_repetition_code():
    rep = LinearCode(6, 1, ((1 << 6) - 1,))
    v = verify_code(rep)
    assert v.is_proper and v.distance == 6 and v.rank == 1


def test_rref_and_kernel():
    rng = random.Random(9)
    for _ in range(200):
        width = rng.randrange(2, 12)
        rows = [rng.getrandbits(width) for _ in range(rng.randrange(1, 8))]
        red, pivots = rref(rows, width)
        assert len(red) == len(pivots)
        assert pivots == sorted(pivots)
        for r, p in zip(red, pivots):
            assert (r >> p) & 1
            for q in pivots:
                if q != p:
                    assert not (r >> q) & 1
        ker = kernel_basis(rows, width)
        assert len(ker) == width - len(pivots)
        for v in ker:
            for r in rows:
                assert (r & v).bit_count() % 2 == 0


def test_canonical_columns_is_basis_invariant():
    rng = random.Random(13)
    for _ in range(100):
        width = rng.randrange(2, 10)
        vecs = [rng.getrandbits(width) for _ in range(rng.randrange(1, 5))]
        # random invertible recombination spans the same space
        mixed = list(vecs)
        for _ in range(10):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            if i != j:
                mixed[i] ^= mixed[j]
        assert canonical_columns(vecs, width) == canonical_columns(mixed, width)


def test_gv_condition_frozen():
    assert gv_condition(8, 2, 2)  # 1 + 8 + 28 = 37 < 64
    assert not gv_condition(8, 7, 2)  # 37 >= 2
    assert not gv_condition(3, 1, 1)  # 4 !< 4
    assert gv_condition(4, 1, 1)  # 5 < 8
    x = 0.25
    h = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    assert gv_rate(8, 2) == pytest.approx((1 - h) * 8)


def test_gv_search_returns_verified_code():
    for seed in range(4):
        code = gv_search(8, 2, 2, seed)
        v = verify_code(code)
        assert v.is_proper and v.rank == 2 and v.distance > 2
        assert code.n == 8 and code.k == 2
        assert code.claimed_d == v.distance


def test_gv_search_deterministic():
    a = gv_search(8, 2, 2, 42)
    b = gv_search(8, 2, 2, 42)
    assert a == b


def test_gv_search_gate_rejections():
    with pytest.raises(ParameterError):
        gv_search(8, 7, 2, 0)  # GV sum not below 2^(n-k)
    with pytest.raises(ParameterError):
        gv_search(4, 4, 0, 0)  # no parity row left


def test_gv_search_repetition_case():
    # n=4, k=1, d=1: the repetition code is a valid output shape
    code = gv_search(4, 1, 1, 0)
    v = verify_code(code)
    assert v.is_proper and v.rank == 1 and v.distance >= 2


def test_sample_parity_check_shape():
    rng = random.Random(0)
    rows = sample_parity_check(8, 2, rng)
    assert len(rows) == 6
    for r in rows:
        assert r < (1 << 8)
        # last column is the parity of the first n-1
        expect = (r & ((1 << 7) - 1)).bit_count() & 1
        assert (r >> 7) & 1 == expect


def test_parity_kernel_always_proper():
    # every row has even weight, so the all-ones vector lies in the kernel
    rng = random.Random(21)
    for _ in range(100):
        rows = sample_parity_check(8, 2, rng)
        for r in rows:
            assert r.bit_count() % 2 == 0
        ones = (1 << 8) - 1
        for r in rows:
            assert (r & ones).bit_count() % 2 == 0


def test_delete_row_distance_drop_at_most_one():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randrange(3, 9)
        k = rng.randrange(1, 3)
        code = LinearCode(n, k, tuple(rng.getrandbits(n) for _ in range(k)))
        v = verify_code(code)
        if not v.is_proper or v.rank != k or v.distance < 2:
            continue
        code = LinearCode(n, k, code.cols, claimed_d=v.distance)
        row = rng.randrange(n)
        smaller = delete_row(code, row)
        sv = verify_code(smaller)
        assert smaller.n == n - 1
        assert sv.rank == k and sv.is_proper
        assert sv.distance >= v.distance - 1


def test_delete_row_rejects_when_unsafe():
    code = LinearCode(3, 1, (0b111,), claimed_d=1)
    with pytest.raises(ParameterError):
        delete_row(code, 0)  # distance may hit zero
    code = LinearCode(3, 1, (0b111,), claimed_d=3)
    with pytest.raises(ParameterError):
        delete_row(code, 5)  # row out of range


def test_build_chain_frozen_cases():
    chain = build_chain(LinearCode(4, 2, PINNED.cols, claimed_d=2), 2)
    assert [c.n for c in chain.codes] == [4, 3]
    assert [verify_code(c).distance for c in chain.codes] == [2, 1]
    assert chain.k == 2
    assert chain.codes[0].n == 4
    assert chain.codes[1].n == 3

    rep = LinearCode(6, 1, ((1 << 6) - 1,), claimed_d=6)
    chain = build_chain(rep, 3)
    assert [c.n for c in chain.codes] == [6, 5, 4]
    assert [verify_code(c).distance for c in chain.codes] == [6, 5, 4]


def test_validate_chain():
    chain = build_chain(LinearCode(4, 2, PINNED.cols, claimed_d=2), 2)
    validate_chain(chain, 4, 2, 2)
    with pytest.raises(ParameterError):
        validate_chain(chain, 4, 2, 3)
    with pytest.raises(ParameterError):
        validate_chain(CodeChain(chain.codes[:1]), 4, 2, 2)


def test_chain_every_slot_proper_full_rank():
    code = gv_search(8, 2, 2, 1)
    chain = build_chain(code, 3)
    assert [c.n for c in chain.codes] == [8, 7, 6]
    for j, c in enumerate(chain.codes):
        v = verify_code(c)
        assert v.is_proper and v.rank == 2
        assert v.distance >= code.claimed_d - j


def test_generator_roundtrip(tmp_path):
    path = tmp_path / "gen.txt"
    write_generator(PINNED, path)
    text = path.read_text()
    assert text.splitlines()[0] == "4 2"
    assert text.splitlines()[1:] == ["11", "11", "10", "10"]
    back = read_generator(path)
    assert (back.n, back.k, back.cols) == (4, 2, PINNED.cols)
    assert back.claimed_d == 2  # reader verifies and records the true distance


def test_read_generator_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4 2\n11\n11\n10\n")  # missing a row
    with pytest.raises(ParameterError):
        read_generator(path)
    path.write_text("4 2\n11\n11\n10\n12\n")  # non-binary digit
    with pytest.raises(ParameterError):
        read_generator(path)


def test_search_failure_is_distinct():
    # forcing k to exceed what even-weight padding can reach is awkward;
    # instead allow zero tries
    with mock.patch.object(codes, "GV_TRIES", 0), pytest.raises(SearchFailureError):
        gv_search(8, 2, 2, 0)
