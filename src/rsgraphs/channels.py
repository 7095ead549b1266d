"""Shared-channel scheduling: N stations must deliver all N^2 directed messages.

K_{N,N} is partitioned into subchannels, each subchannel's edges covered by
induced matchings; one matching is broadcast per round.  A subchannel is its
bool (N, N) station matrix, entry [u, v] joining transmitter u to receiver
v, and its cover holds (u, v) station pairs; build_schedule lays the covers
out as rounds.  Like a cover, a schedule is held in columns, and simulate
and the schedule files work on those arrays.  A receiver hears cleanly iff
exactly one scheduled transmitter targets it this round and no other
scheduled transmitter is its in-neighbor within the subchannel, which is
exactly what inducedness guarantees; the K_{N,N} gate and simulate decide
it with the same block kernel, graphs.induced_groups.
"""

import random
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ParameterError, VerificationError
from .graphs import (
    Matching,
    MatchingCover,
    adjacency_matrix,
    doubled_cover,
    induced_groups,
    offsets_of,
    pair_groups,
    singles_cover,
    verify_cover_bipartite,
    write_groups,
)

if TYPE_CHECKING:
    from .codegraph import CodeGraphParams
    from .geometric import GeomParams


class ChannelPartition:
    """Subchannels (bool (N, N) station matrix, cover) whose pairs
    partition K_{N,N} exactly.  == is identity: the fields hold arrays.

    overflow_index is the subchannel holding unassigned pairs, if any, and
    graph_cover the cover the shift channels are made from."""

    __slots__ = ("n_stations", "subchannels", "overflow_index", "attempts_used", "graph_cover")

    def __init__(self, n_stations: int, subchannels: list[tuple[np.ndarray, MatchingCover]],
                 overflow_index: int | None = None, attempts_used: int | None = None,
                 graph_cover: MatchingCover | None = None):
        self.n_stations, self.subchannels = n_stations, subchannels
        self.overflow_index, self.attempts_used = overflow_index, attempts_used
        self.graph_cover = graph_cover


def validate_partition(cp: ChannelPartition) -> None:
    """Each subchannel cover must be valid and the pair sets must tile K_{N,N};
    a defect raises VerificationError."""
    n = cp.n_stations
    acc = np.zeros((n, n), dtype=bool)
    for idx, (mat, cover) in enumerate(cp.subchannels):
        if mat.shape != (n, n):
            raise VerificationError(f"subchannel {idx} is not on {n}x{n} stations")
        rep = verify_cover_bipartite(mat, cover)
        if not rep.valid:
            raise VerificationError(
                f"subchannel {idx} cover invalid ({len(rep.violations)} violations)"
            )
        clash = (acc & mat).any(axis=1)
        if clash.any():
            left = clash.argmax()
            raise VerificationError(f"subchannel {idx} overlaps an earlier one at left {left}")
        acc |= mat
    gap = ~acc.all(axis=1)
    if gap.any():
        raise VerificationError(f"left station {gap.argmax()} is missing pairs; not a partition")


def partition_two(p: "CodeGraphParams") -> ChannelPartition:
    """Two subchannels: the doubled code graph with its flip-class cover, and
    the remainder (diagonal plus high-agreement pairs) as singleton rounds."""
    from . import codegraph

    split = codegraph.two_channel_split(p)
    cp = ChannelPartition(
        n_stations=len(split.covered),
        subchannels=[(split.covered, split.cover), (split.remainder, split.singles)],
        overflow_index=1,
    )
    validate_partition(cp)
    return cp


def partition_shifts(
    p: "GeomParams", num_channels: int, seed: int, max_attempts: int = 1
) -> ChannelPartition:
    """Partition K_{N,N} by random right-label shifts of the doubled band graph.

    Each channel is an independently drawn permutation of the right labels;
    pairs go to the lowest-index shift that contains them, and the shifted
    matchings of the geometric cover, restricted to each channel's assigned
    pairs, cover it.  Pairs in no shift go to a trailing overflow subchannel
    of singleton rounds.  Full draws are retried up to max_attempts seeking an
    empty overflow; on exhaustion the draw with the fewest overflow pairs is
    returned with overflow flagged.
    """
    if num_channels < 1:
        raise ParameterError(f"need num_channels >= 1, got {num_channels}")
    if max_attempts < 1:
        raise ParameterError(f"need max_attempts >= 1, got {max_attempts}")
    from . import geometric

    g = geometric.build_geometric_graph(p)
    cover = geometric.decompose_geometric(p, g)
    n = g.n
    adj = adjacency_matrix(g)
    rng = random.Random(seed)
    best = None  # (overflow_size, attempt_index, perms, shifts, taken)
    for attempt in range(max_attempts):
        perms, shifts = [], []
        taken = np.zeros_like(adj)  # pairs assigned so far
        for _ in range(num_channels):
            perm = list(range(n))
            rng.shuffle(perm)
            # pair (u, perm[v]) is in this shift iff uv is an edge; it goes
            # to the lowest-index shift that holds it
            shift = np.zeros_like(adj)
            shift[:, perm] = adj
            shift &= ~taken
            taken |= shift
            perms.append(perm)
            shifts.append(shift)
        ov_size = n * n - int(np.count_nonzero(taken))
        if best is None or ov_size < best[0]:
            best = (ov_size, attempt, perms, shifts, taken)
        if ov_size == 0:
            break
    ov_size, attempt, perms, shifts, taken = best
    base = doubled_cover(cover, n)
    subchannels = [
        (shift, _shifted_cover(base, shift, np.array(perm)))
        for shift, perm in zip(shifts, perms)
    ]
    overflow_index = None
    if ov_size:
        rest = ~taken
        overflow_index = len(subchannels)
        subchannels.append((rest, singles_cover(rest)))
    cp = ChannelPartition(
        n_stations=n,
        subchannels=subchannels,
        overflow_index=overflow_index,
        attempts_used=attempt + 1,
        graph_cover=cover,
    )
    validate_partition(cp)
    return cp


def _shifted_cover(base: MatchingCover, shift: np.ndarray, perm: np.ndarray) -> MatchingCover:
    """The doubled cover with right station w sent to perm[w], restricted
    to the pairs of shift: each matching's pairs sorted, and the matchings
    left empty dropped."""
    sizes = np.diff(base.offsets)
    u = base.pairs[:, 0]
    right = perm[base.pairs[:, 1]]
    keep = shift[u, right]
    mid = np.repeat(np.arange(len(sizes)), sizes)[keep]
    u, right = u[keep], right[keep]
    order = np.lexsort((right, u, mid))
    pairs = np.stack((u[order], right[order]), axis=1)
    counts = np.bincount(mid, minlength=len(sizes))
    return MatchingCover(pairs, offsets_of(counts[counts > 0]))


class Schedule:
    """Ordered rounds in columns: round r broadcasts on subchannel chans[r]
    the (transmitter, receiver) pairs pairs[offsets[r]:offsets[r + 1]].
    .rounds gives the rounds back as (subchannel id, matching) tuples.
    """

    __slots__ = ("n_stations", "num_subchannels", "chans", "offsets", "pairs")

    def __init__(self, n_stations: int, num_subchannels: int, chans: np.ndarray,
                 offsets: np.ndarray, pairs: np.ndarray):
        self.n_stations, self.num_subchannels = n_stations, num_subchannels
        self.chans, self.offsets, self.pairs = chans, offsets, pairs

    @property
    def rounds(self) -> list[tuple[int, Matching]]:
        return list(zip(self.chans.tolist(), pair_groups(self.pairs, self.offsets)))

    def per_subchannel_rounds(self) -> list[int]:
        return np.bincount(self.chans, minlength=self.num_subchannels).tolist()

    def parallel_round_count(self) -> int:
        """Rounds needed if distinct subchannels may broadcast concurrently."""
        return max(self.per_subchannel_rounds(), default=0)


def build_schedule(cp: ChannelPartition) -> Schedule:
    """Flatten a partition into rounds of (transmitter, receiver) station
    pairs, subchannel by subchannel; total rounds = sum of cover sizes."""
    covers = [cover for _, cover in cp.subchannels]
    chans = np.repeat(np.arange(len(covers)), [c.t for c in covers])
    sizes = np.concatenate([np.diff(c.offsets) for c in covers])
    pairs = np.concatenate([c.pairs for c in covers])
    return Schedule(cp.n_stations, len(covers), chans, offsets_of(sizes), pairs)


class SimReport(NamedTuple):
    delivered: int
    garbled_events: list[tuple]  # (round, subchannel, receiver, transmitters)
    rounds_used: int
    per_subchannel_rounds: list[int]
    double_deliveries: list[tuple]  # (round, u, v)


def simulate(s: Schedule) -> SimReport:
    """Replay a schedule and count clean deliveries.

    Each subchannel's edge set is taken to be the union of its own rounds
    (for a valid partition schedule that is exactly the subchannel graph).
    Within a round, receiver v hears cleanly iff exactly one scheduled
    transmitter targets v and no other scheduled transmitter u' has (u', v)
    in the subchannel's edge set.  A round whose block of its channel's
    edge set, transmitters by receivers, holds just the round's own pairs
    delivers every pair; only the other rounds are replayed receiver by
    receiver.
    """
    n = s.n_stations
    offsets, pairs = s.offsets, s.pairs
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= n):
        u, v = pairs[((pairs < 0) | (pairs >= n)).any(axis=1).argmax()].tolist()
        raise ParameterError(f"scheduled pair ({u},{v}) outside {n} stations")
    sizes = np.diff(offsets)
    key = pairs[:, 0] * n
    key += pairs[:, 1]
    ids, chan = np.unique(s.chans, return_inverse=True)
    edges = np.zeros((len(ids), n, n), dtype=bool)  # per channel, transmitters by receivers
    edges[np.repeat(chan, sizes), pairs[:, 0], pairs[:, 1]] = True
    clean = induced_groups(offsets, pairs[:, 0], pairs[:, 1], edges, chan)
    garbled: list[tuple] = []
    replayed: list[tuple[int, int]] = []  # (round, u * n + v) heard in a replay
    for r in np.flatnonzero(~clean).tolist():
        m = pairs[s.offsets[r] : s.offsets[r + 1]].tolist()
        events, heard = _replay_round(m, edges[chan[r]])
        garbled.extend((r, int(s.chans[r]), v, us) for v, us in events)
        replayed.extend((r, u * n + v) for u, v in heard)
    extra = np.array(replayed, dtype=np.int64).reshape(-1, 2)
    key = key[np.repeat(clean, sizes)]  # every pair of a clean round is heard
    seen = np.zeros(n * n, dtype=bool)
    seen[key] = True
    seen[extra[:, 1]] = True
    delivered = int(np.count_nonzero(seen))
    doubles = []
    if delivered < len(key) + len(extra):
        rnd = np.concatenate((np.repeat(np.flatnonzero(clean), sizes[clean]), extra[:, 0]))
        doubles = _double_deliveries(rnd, np.concatenate((key, extra[:, 1])), n)
    return SimReport(
        delivered=delivered,
        garbled_events=garbled,
        rounds_used=len(s.chans),
        per_subchannel_rounds=s.per_subchannel_rounds(),
        double_deliveries=doubles,
    )


def _double_deliveries(rnd, key, n: int) -> list[tuple]:
    """(round, u, v) of every delivery of a pair heard earlier, in replay
    order: by round, then receiver."""
    order = np.lexsort((key % n, rnd))
    rnd, key = rnd[order], key[order]
    repeat = np.ones(len(key), dtype=bool)
    repeat[np.unique(key, return_index=True)[1]] = False
    u, v = np.divmod(key[repeat], n)
    return list(zip(rnd[repeat].tolist(), u.tolist(), v.tolist()))


def _replay_round(m: Matching, edges: np.ndarray):
    """Replay one round against its channel's transmitter x receiver edge
    matrix, receivers ascending: the garbled receivers with their
    transmitters, and the (u, v) pairs heard cleanly."""
    targets: dict[int, set[int]] = {}
    for u, v in m:
        targets.setdefault(v, set()).add(u)
    senders = sorted({u for u, _ in m})
    events, heard = [], []
    for v in sorted(targets):
        us = sorted(targets[v])
        if len(us) > 1:
            events.append((v, tuple(us)))
            continue
        u = us[0]
        others = [w for w in senders if w != u and edges[w, v]]
        if others:
            events.append((v, (u, *others)))
        else:
            heard.append((u, v))
    return events, heard


def meshulam_lower_bound(N: int, C: int) -> float:
    """Round lower bound N^(1 + 1/(2^C - 1)) for C channels (constant set to 1)."""
    if N < 1 or C < 1:
        raise ParameterError(f"need N, C >= 1, got N={N}, C={C}")
    return float(N) ** (1.0 + 1.0 / (2.0**C - 1.0))


_SCHEDULE_TEMPLATE = ("round %d chan %d:", " %d>%d")


def write_schedule(s: Schedule, path: str) -> None:
    """One line per round: "round <idx> chan <i>: u1>v1 u2>v2 ..."."""
    write_groups(path, _SCHEDULE_TEMPLATE, [s.chans], s.pairs, s.offsets)


def __getattr__(name: str):
    # read_schedule is the readers module's and two_channel_split codegraph's,
    # imported when first asked for, so that importing channels imports
    # neither.  The name is then held here like an imported one, so that a
    # wrapper set on it here (as perfbench's spans set) sees every call.
    if name == "read_schedule":
        from .readers import read_schedule as value
    elif name == "two_channel_split":
        from .codegraph import two_channel_split as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
