"""Subchannel partitions of K_{N,N} and the round-by-round delivery simulation."""

import copy
import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsgraphs import graphs
from rsgraphs.channels import (
    ChannelPartition,
    SimReport,
    build_schedule,
    meshulam_lower_bound,
    partition_shifts,
    partition_two,
    read_schedule,
    simulate,
    validate_partition,
    write_schedule,
)
from rsgraphs.codegraph import (
    CodeGraphParams,
    build_code_graph,
    enumerate_cover,
    two_channel_split,
)
from rsgraphs.codes import LinearCode, build_chain, gv_search
from rsgraphs.errors import ParameterError, SearchFailureError, VerificationError
from rsgraphs.geometric import GeomParams, build_geometric_graph, decompose_geometric
from rsgraphs.graphs import write_cover
from rsgraphs.vempala import counterexample_partition
from test_codegraph_oracle import oracle_enumerate_cover
from test_cover_oracle import doubled_matchings, station_matrix
from test_graph_oracle import bit_graph, bits_of, cover_of, schedule_of

PINNED = LinearCode(4, 2, cols=(0b1111, 0b0011), claimed_d=2)


def round_counts(cp):
    return [cover.t for _, cover in cp.subchannels]


def singles(mat):
    """The one-pair matchings of the station pairs of mat, ascending."""
    return cover_of([[(u, v)] for u, v in np.argwhere(mat).tolist()])


def small_params():
    return CodeGraphParams(2, 2, 1, build_chain(LinearCode(2, 1, (0b11,), claimed_d=2), 1))


def oracle_simulate(s):
    """Oracle: replay round by round with bitmask columns per channel and a
    delivered flag per station pair."""
    n = s.n_stations
    chan_cols = {}
    for i, m in s.rounds:
        cols = chan_cols.setdefault(i, [0] * n)
        for u, v in m:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"scheduled pair ({u},{v}) outside {n} stations")
            cols[v] |= 1 << u
    delivered = bytearray(n * n)
    garbled = []
    doubles = []
    for rnd, (i, m) in enumerate(s.rounds):
        cols = chan_cols[i]
        targets = {}
        tmask = 0
        for u, v in m:
            targets.setdefault(v, set()).add(u)
            tmask |= 1 << u
        for v in sorted(targets):
            us = sorted(targets[v])
            if len(us) > 1:
                garbled.append((rnd, i, v, tuple(us)))
                continue
            u = us[0]
            interferers = tmask & cols[v] & ~(1 << u)
            if interferers:
                garbled.append((rnd, i, v, (u, *bits_of(interferers))))
                continue
            if delivered[u * n + v]:
                doubles.append((rnd, u, v))
            else:
                delivered[u * n + v] = 1
    return SimReport(
        delivered=delivered.count(1),
        garbled_events=garbled,
        rounds_used=len(s.rounds),
        per_subchannel_rounds=s.per_subchannel_rounds(),
        double_deliveries=doubles,
    )


@st.composite
def schedules(draw):
    """Random rounds over up to 4 channels (ids with gaps): rounds with
    repeated receivers, transmitters and pairs or with distinct ones, pairs
    repeated across rounds, empty rounds, and a station count that may
    leave pairs out of range."""
    n = draw(st.integers(1, 10))
    chans = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
    station = st.integers(0, n - 1)
    pair = st.tuples(station, station)
    any_pairs = st.lists(pair, max_size=5)
    distinct = st.lists(pair, max_size=5, unique_by=(lambda p: p[0], lambda p: p[1]))
    rounds = draw(st.lists(
        st.tuples(st.sampled_from(chans), any_pairs | distinct), max_size=25,
    ))
    for _ in range(draw(st.integers(0, 4))):  # repeat earlier rounds
        if rounds:
            rounds.append(rounds[draw(st.integers(0, len(rounds) - 1))])
    n_stations = draw(st.integers(1, n))
    return schedule_of(n_stations, max(chans) + 1, rounds)


@settings(max_examples=400, deadline=None)
@given(schedules(), st.integers(1, 64))
def test_simulate_matches_oracle_on_random_schedules(s, block_cells):
    with mock.patch.object(graphs, "_BLOCK_CELLS", block_cells):
        try:
            want = oracle_simulate(s)
        except ParameterError as exc:
            with pytest.raises(ParameterError) as got:
                simulate(s)
            assert str(got.value) == str(exc)
            return
        assert simulate(s) == want


def naive_delivery(schedule):
    """Oracle: literal restatement of the channel semantics with dict edge sets."""
    chan_edges = {}
    for i, m in schedule.rounds:
        chan_edges.setdefault(i, set()).update(m)
    delivered = set()
    garbles = 0
    doubles = 0
    for i, m in schedule.rounds:
        edges = chan_edges[i]
        transmitters = {u for u, _ in m}
        for v in {v for _, v in m}:
            shooters = {u for u, w in m if w == v}
            hears = {u for u in transmitters if (u, v) in edges}
            if len(shooters) == 1 and hears <= shooters:
                pair = (next(iter(shooters)), v)
                if pair in delivered:
                    doubles += 1
                else:
                    delivered.add(pair)
            elif shooters:
                garbles += 1
    return delivered, garbles, doubles


def test_partition_two_small():
    cp = partition_two(small_params())
    assert cp.n_stations == 4
    assert len(cp.subchannels) == 2
    assert cp.overflow_index == 1
    covered, cover = cp.subchannels[0]
    assert np.count_nonzero(covered) == 4  # both zero-agreement edges, doubled
    remainder, _ = cp.subchannels[1]
    assert np.count_nonzero(remainder) == 12
    assert remainder.shape == (4, 4) and remainder[0, 0]  # station pair (0, 0)
    assert round_counts(cp) == [2, 12]


def test_partition_two_desk_counts():
    p = CodeGraphParams(3, 4, 2, build_chain(PINNED, 2))
    cp = partition_two(p)
    assert cp.n_stations == 81
    assert np.count_nonzero(cp.subchannels[0][0]) == 3888
    assert np.count_nonzero(cp.subchannels[1][0]) == 2673
    assert round_counts(cp) == [972, 2673]


def test_validate_partition_rejects_overlap_and_gap():
    full = station_matrix([0b11, 0b11])
    ok = ChannelPartition(2, [(full, singles(full))])
    validate_partition(ok)

    half = station_matrix([0b01, 0b10])
    with pytest.raises(VerificationError):
        validate_partition(ChannelPartition(2, [(half, singles(half))]))  # gap
    with pytest.raises(VerificationError):
        validate_partition(
            ChannelPartition(2, [(full, singles(full)), (half, singles(half))])
        )  # overlap


def test_build_schedule_policies():
    cp = partition_two(small_params())
    seq = build_schedule(cp)
    assert [i for i, _ in seq.rounds[:2]] == [0, 0]
    assert seq.per_subchannel_rounds() == [2, 12]
    assert seq.parallel_round_count() == 12
    assert len(seq.rounds) == 14


def test_simulate_small_end_to_end():
    cp = partition_two(small_params())
    s = build_schedule(cp)
    rep = simulate(s)
    assert rep.delivered == 16
    assert not rep.garbled_events and not rep.double_deliveries
    assert rep.rounds_used == 14
    want_delivered, want_garbles, want_doubles = naive_delivery(s)
    assert (len(want_delivered), want_garbles, want_doubles) == (16, 0, 0)


def test_simulate_matches_oracle_on_mutations():
    # the small instance, then the desk instance of acceptance criterion 8
    for params in (small_params(), CodeGraphParams(3, 4, 2, build_chain(PINNED, 2))):
        check_mutations(build_schedule(partition_two(params)))


def check_mutations(base):
    assert simulate(base) == oracle_simulate(base)

    # move one remainder pair into another round with the same receiver
    rounds = [(i, list(m)) for i, m in base.rounds]
    moved = None
    for a in range(len(rounds)):
        ia, ma = rounds[a]
        if ia != 1 or len(ma) != 1:
            continue
        (u, v) = ma[0]
        for b in range(len(rounds)):
            if b != a and rounds[b][0] == 1 and any(w == v for _, w in rounds[b][1]):
                moved = (a, b)
                break
        if moved:
            break
    a, b = moved
    pair = rounds[a][1].pop(0)
    rounds[b][1].append(pair)
    rounds = [(i, m) for i, m in rounds if m]
    mutated = schedule_of(base.n_stations, base.num_subchannels, rounds)
    rep = simulate(mutated)
    assert rep == oracle_simulate(mutated)
    _, want_garbles, want_doubles = naive_delivery(mutated)
    assert len(rep.garbled_events) == want_garbles >= 1

    # duplicate a pair into a fresh round: a double delivery or a garble
    rounds2 = [(i, list(m)) for i, m in base.rounds]
    i0, m0 = rounds2[-1]
    rounds2.append((i0, list(m0)))
    dup = schedule_of(base.n_stations, base.num_subchannels, rounds2)
    rep2 = simulate(dup)
    assert rep2 == oracle_simulate(dup)
    _, want_garbles2, want_doubles2 = naive_delivery(dup)
    assert len(rep2.garbled_events) == want_garbles2
    assert len(rep2.double_deliveries) == want_doubles2
    assert want_garbles2 + want_doubles2 >= 1


def test_simulate_rejects_out_of_range():
    s = schedule_of(2, 1, [(0, [(0, 5)])])
    with pytest.raises(ParameterError):
        simulate(s)


def test_partition_shifts_geometric_toy():
    p = GeomParams(2, 2)
    cp = partition_shifts(p, 3, seed=1, max_attempts=20)
    assert cp.n_stations == 4
    assert cp.attempts_used is not None and 1 <= cp.attempts_used <= 20
    rep = simulate(build_schedule(cp))
    assert rep.delivered == 16
    assert not rep.garbled_events


def test_partition_shifts_deterministic():
    p = GeomParams(2, 2)
    a = partition_shifts(p, 2, seed=9, max_attempts=5)
    b = partition_shifts(p, 2, seed=9, max_attempts=5)
    # the subchannel matrices carry the drawn permutations
    assert len(a.subchannels) == len(b.subchannels)
    assert all(np.array_equal(x, y) for (x, _), (y, _) in zip(a.subchannels, b.subchannels))
    assert round_counts(a) == round_counts(b)
    sa = build_schedule(a)
    sb = build_schedule(b)
    assert sa.rounds == sb.rounds


def test_partition_shifts_single_channel_overflow():
    # one shift of the doubled band graph can never hold the diagonal, so a
    # single-channel draw always leaves overflow singletons
    p = GeomParams(2, 2)
    cp = partition_shifts(p, 1, seed=0, max_attempts=3)
    assert cp.overflow_index is not None
    rep = simulate(build_schedule(cp))
    assert rep.delivered == 16 and not rep.garbled_events


def test_partition_shifts_larger_instance():
    p = GeomParams(2, 4)
    cp = partition_shifts(p, 4, seed=7, max_attempts=10)
    rep = simulate(build_schedule(cp))
    assert rep.delivered == 256
    assert not rep.garbled_events


def oracle_partition_shifts(p, num_channels, seed, max_attempts=1):
    """Oracle: the bitmask-row shift partition, matchings rebuilt as lists
    of tuples from the doubled cover."""
    g = build_geometric_graph(p)
    n = g.n
    base = doubled_matchings(decompose_geometric(p, g))
    g = bit_graph(g)
    full = (1 << n) - 1
    rng = random.Random(seed)
    best = None  # (overflow_size, attempt_index, perms, assigned, overflow)
    for attempt in range(max_attempts):
        perms = []
        for _ in range(num_channels):
            perm = list(range(n))
            rng.shuffle(perm)
            perms.append(perm)
        taken = [0] * n
        assigned = []
        for perm in perms:
            rows = []
            for u in range(n):
                row = 0
                for v in bits_of(g.neighbors_mask(u)):
                    row |= 1 << perm[v]
                rows.append(row & ~taken[u])
                taken[u] |= rows[-1]
            assigned.append(rows)
        overflow = [full & ~taken[u] for u in range(n)]
        ov_size = sum(r.bit_count() for r in overflow)
        if best is None or ov_size < best[0]:
            best = (ov_size, attempt, perms, assigned, overflow)
        if ov_size == 0:
            break
    ov_size, attempt, perms, assigned, overflow = best
    subchannels = []
    for rows, perm in zip(assigned, perms):
        matchings = []
        for m in base:
            rest = [(u, perm[w]) for u, w in m if (rows[u] >> perm[w]) & 1]
            if rest:
                matchings.append(sorted(rest))
        subchannels.append((station_matrix(rows), cover_of(matchings)))
    overflow_index = None
    if ov_size:
        overflow_index = len(subchannels)
        subchannels.append((station_matrix(overflow), singles(station_matrix(overflow))))
    return ChannelPartition(n, subchannels, overflow_index, attempt + 1)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(C, n) for C in (2, 3, 4) for n in range(1, 7) if C**n <= 81]),
    st.integers(1, 4),
    st.integers(0, 2**16),
    st.integers(1, 4),
)
def test_partition_shifts_matches_oracle(cn, num_channels, seed, attempts):
    p = GeomParams(*cn)
    try:
        want = oracle_partition_shifts(p, num_channels, seed, attempts)
    except VerificationError:
        assume(False)
    got = partition_shifts(p, num_channels, seed, max_attempts=attempts)
    fields = ("n_stations", "overflow_index", "attempts_used")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert len(got.subchannels) == len(want.subchannels)
    # the subchannel matrices carry the drawn permutations
    for (mat, cover), (want_mat, want_cover) in zip(got.subchannels, want.subchannels):
        assert np.array_equal(mat, want_mat) and cover == want_cover
    a, b = build_schedule(got), build_schedule(want)
    assert (a.n_stations, a.num_subchannels) == (b.n_stations, b.num_subchannels)
    for name in ("chans", "offsets", "pairs"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_partition_parts_compare_by_identity():
    # each holds station matrices; == must answer, not raise on the arrays,
    # and a copy holding the same arrays is another object
    p = small_params()
    for make in (partition_two, two_channel_split, counterexample_partition):
        a = make(p)
        assert a == a and a != make(p) and a != copy.copy(a)


def test_meshulam_bound():
    assert meshulam_lower_bound(16, 2) == pytest.approx(16.0 ** (4.0 / 3.0))
    assert meshulam_lower_bound(81, 1) == pytest.approx(81.0**2)
    with pytest.raises(ParameterError):
        meshulam_lower_bound(0, 2)


def test_schedule_roundtrip(tmp_path):
    cp = partition_two(small_params())
    s = build_schedule(cp)
    path = tmp_path / "sched.txt"
    write_schedule(s, path)
    back = read_schedule(path)
    assert back.n_stations == s.n_stations
    assert back.rounds == [(i, list(m)) for i, m in s.rounds]
    text = path.read_text().splitlines()
    assert text[0].startswith("round 0 chan 0:")

    path.write_text("round 1 chan 0: 0>1\n")
    with pytest.raises(ParameterError):
        read_schedule(path)


def oracle_cover_text(cover) -> str:
    """The cover file as the tuple writer wrote it."""
    return "".join(
        f"{i}:" + "".join(f" {u}-{v}" for u, v in m) + "\n" for i, m in enumerate(cover.matchings)
    )


def oracle_schedule_text(g, cover) -> str:
    """The two-channel schedule file as the tuple path wrote it: the doubled
    matchings of the cover, then one round per remainder pair (u, v), read
    off the complement of g's bitmask rows."""
    g = bit_graph(g)
    n = g.n
    full = (1 << n) - 1
    rounds = [(0, m) for m in doubled_matchings(cover)]
    rounds += [(1, [(u, v)]) for u in range(n) for v in bits_of(full & ~g.neighbors_mask(u))]
    return "".join(
        f"round {idx} chan {i}:" + "".join(f" {u}>{v}" for u, v in m) + "\n"
        for idx, (i, m) in enumerate(rounds)
    )


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(C, n) for C in (2, 3, 4) for n in range(2, 9) if C**n <= 256]),
    st.data(),
    st.integers(1, 64),
)
def test_written_cover_and_schedule_equal_the_tuple_path(cn, data, write_ids):
    C, n = cn
    d = data.draw(st.integers(1, n - 1), label="d")
    k = data.draw(st.integers(1, n - 1), label="k")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    try:
        root = gv_search(n, k, d - 1, seed)
    except (ParameterError, SearchFailureError):
        assume(False)
    p = CodeGraphParams(C, n, d, build_chain(root, d))
    g = build_code_graph(p)
    oracle = oracle_enumerate_cover(p, g)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(graphs, "_WRITE_IDS", write_ids):
        cover_path, schedule_path = Path(tmp) / "cover.txt", Path(tmp) / "schedule.txt"
        write_cover(enumerate_cover(p, g), cover_path)
        write_schedule(build_schedule(partition_two(p)), schedule_path)
        assert cover_path.read_text() == oracle_cover_text(oracle)
        assert schedule_path.read_text() == oracle_schedule_text(g, oracle)
