"""File formats: the bulk edge-list, cover and schedule readers against the
per-token readers they replaced, kept here as oracles, and the generator and
truth-table readers against a line-by-line reading of their grammar.

Round trips write an object and read it back.  Mutations edit a written
file (whitespace, newlines, blank lines, digits, long ids, repeated,
swapped and truncated lines) and require the reader to return the
oracle's object or raise the oracle's exact error.  canonical_only and
lines_only hold a reader to one of its two paths.
"""

import io
import os
import re
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rsgraphs import errors, graphs, readers
from rsgraphs.channels import _SCHEDULE_TEMPLATE, Schedule, write_schedule
from rsgraphs.codes import LinearCode, read_generator, write_generator
from rsgraphs.errors import ParameterError, numbered_lines, parse_int
from rsgraphs.graphs import Graph, MatchingCover, offsets_of, write_cover, write_edge_list
from rsgraphs.lintest import load_table
from rsgraphs.readers import parse_pairs, read_cover, read_edge_list, read_schedule
from rsgraphs.vempala import write_partition
from test_graph_oracle import cover_of, schedule_of

# ---------------------------------------------------------------------------
# oracles: the per-token readers


class EdgeSet:
    """The edge-list oracle's graph: N and its edges as Python ints.  A
    bitmask row cannot stand in: an edge list whose header N is 2^63 or
    more may hold an id near 2^63, and 1 << id does not fit in memory."""

    def __init__(self, n: int, edges):
        self.n = n
        self._edges = sorted(edges)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def edges(self):
        return iter(self._edges)

    def degree(self, u: int) -> int:
        return sum(u in e for e in self._edges)


def oracle_read_edge_list(path) -> EdgeSet:
    """One parse_int call per token, checks line by line.  Like the bulk
    reader, it refuses an id of 2^63 or more in an edge line; the earlier
    reader took it as a Python int and failed later on the vertex range."""
    edges: dict = {}  # an ordered set: from_edges sees file order
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
        if v >> 63:
            raise ParameterError(f"{path}:{lineno}: id {v} does not fit in 64 bits")
        if (u, v) in edges:
            raise ParameterError(f"{path}:{lineno}: edge ({u},{v}) repeats an earlier line")
        edges[(u, v)] = None
    if len(edges) != m:
        raise ParameterError(f"{path}: header claims {m} edges, found {len(edges)}")
    for u, v in edges:
        if v >= n:
            raise ParameterError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
    return EdgeSet(n, edges)


def oracle_read_cover(path) -> MatchingCover:
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
    return MatchingCover(pairs, offsets_of(sizes))


def oracle_read_schedule(path, n_stations=None) -> Schedule:
    if n_stations is not None and n_stations < 0:
        raise ParameterError(f"need a nonnegative station count, got {n_stations}")
    chans: list[int] = []
    sizes: list[int] = []
    flat: list[int] = []
    for lineno, line in numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        parts = head.split()
        if len(parts) != 4 or parts[0] != "round" or parts[2] != "chan":
            raise ParameterError(f"{path}:{lineno}: malformed round header")
        if parse_int(parts[1], path, lineno) != len(chans):
            raise ParameterError(f"{path}:{lineno}: round indices must be sequential")
        chan = parse_int(parts[3], path, lineno)
        if chan >> 63:
            raise ParameterError(f"{path}:{lineno}: channel {chan} does not fit in 64 bits")
        chans.append(chan)
        ids = parse_pairs(rest.split(), ">", path, lineno)
        flat.extend(ids)
        sizes.append(len(ids) // 2)
    pairs = np.array(flat, dtype=np.int64).reshape(-1, 2)
    if n_stations is None:
        n_stations = int(pairs.max()) + 1 if len(pairs) else 0
    k = max(chans, default=-1) + 1
    chan_ids = np.array(chans, dtype=np.int64)
    return Schedule(n_stations, k, chan_ids, offsets_of(sizes), pairs)


# ---------------------------------------------------------------------------
# helpers


def key(obj):
    """Everything that makes two read objects equal."""
    if isinstance(obj, (Graph, EdgeSet)):
        return ("graph", obj.n, obj.edge_count, list(obj.edges()))
    if isinstance(obj, MatchingCover):
        return ("cover", obj.pairs.dtype, obj.pairs.tolist(), obj.offsets.tolist())
    return ("schedule", obj.n_stations, obj.num_subchannels, obj.chans.dtype,
            obj.chans.tolist(), obj.offsets.tolist(), obj.pairs.tolist())


def outcome(read, path):
    try:
        return key(read(path))
    except Exception as exc:  # noqa: BLE001 - the oracle's failure, whatever it is
        return ("raises", type(exc).__name__, str(exc))


def canonical_only():
    """Within it, a file that is not canonical fails the read: the line
    parse is not called."""
    fail = AssertionError("read by the line parse")
    return mock.patch.multiple(readers, _edge_lines=mock.Mock(side_effect=fail),
                               _group_lines=mock.Mock(side_effect=fail))


def lines_only():
    """Within it, every file is read by the format's line parse."""
    return mock.patch.object(readers, "_canonical_rows", return_value=None)


small_pairs = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=4)


@st.composite
def graphs_(draw):
    n = draw(st.integers(1, 12))
    cells = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return Graph.from_edges(n, [e for e, k in zip(cells, keep) if k])


@st.composite
def covers(draw):
    return cover_of(draw(st.lists(small_pairs, max_size=6)))


@st.composite
def schedules(draw):
    rounds = draw(st.lists(st.tuples(st.integers(0, 3), small_pairs), max_size=6))
    return schedule_of(41, 4, rounds)


FORMATS = {
    "edges": (graphs_(), write_edge_list, read_edge_list, oracle_read_edge_list),
    "cover": (covers(), write_cover, read_cover, oracle_read_cover),
    "schedule": (schedules(), write_schedule, read_schedule, oracle_read_schedule),
}

# Replacements for one run of digits: the largest int64, 2^63 (19 digits),
# 2^64 (20 digits), and a small id padded past 19 digits with zeros.
LONG_IDS = ("9223372036854775807", "9223372036854775808", "18446744073709551616",
            "0000000000000000000000017")
SPACES = (" ", "  ", "\t", "\x0b", "\x0c", "\x1f", "\x85", "\xa0", "\u2009", "\u2028",
          "\u3000")
CHARS = (":", "-", ">", " ", "x", "0", "7", "+", "_", "\u0661", "\uff13", "\n")


def mutate(text: str, draw) -> str:
    """One edit of a written file, chosen by draw.  copy-id writes one run
    of digits of a line over another, copy-first the file's first run over
    any; pad-mark puts whitespace just before or after a ":", "-" or ">"."""
    op = draw(st.sampled_from((
        "space", "crlf", "cr", "blank", "surround", "unicode-digit", "long-id",
        "copy-id", "copy-first", "repeat-line", "swap-lines", "truncate", "delete",
        "insert", "drop-space", "pad-mark",
    )))
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    pos = draw(st.integers(0, len(text)))
    spaces = [k for k, c in enumerate(text) if c == " "]
    marks = [k for k, c in enumerate(text) if c in ":->"]
    digits = [k for k, c in enumerate(text) if "0" <= c <= "9"]
    runs = [m.span() for m in re.finditer("[0-9]+", text)]
    if op == "space" and spaces:
        k = draw(st.sampled_from(spaces))
        return text[:k] + draw(st.sampled_from(SPACES)) + text[k + 1:]
    if op == "drop-space" and spaces:
        k = draw(st.sampled_from(spaces))
        return text[:k] + text[k + 1:]
    if op == "pad-mark" and marks:
        k = draw(st.sampled_from(marks)) + draw(st.integers(0, 1))
        return text[:k] + draw(st.sampled_from(SPACES)) + text[k:]
    if op == "unicode-digit" and digits:
        k = draw(st.sampled_from(digits))
        return text[:k] + draw(st.sampled_from(("\u0661", "\uff13", "\xb2"))) + text[k + 1:]
    if op == "long-id" and runs:
        a, b = draw(st.sampled_from(runs))
        return text[:a] + draw(st.sampled_from(LONG_IDS)) + text[b:]
    if op == "copy-first" and runs:  # the edge list's N as an id, ...
        a, b = draw(st.sampled_from(runs))
        return text[:a] + text[slice(*runs[0])] + text[b:]
    if op == "crlf":
        return text.replace("\n", "\r\n")
    if op == "cr":
        return text.replace("\n", "\r")
    if op == "truncate":
        return text[:pos]
    if op == "delete":
        return text[:pos] + text[pos + 1:]
    if op == "insert":
        return text[:pos] + draw(st.sampled_from(CHARS)) + text[pos:]
    line_runs = [m.span() for m in re.finditer("[0-9]+", lines[i])]
    if op == "copy-id" and line_runs:  # u u, an ordinal written as an id, ...
        (a, b), (c, d) = draw(st.sampled_from(line_runs)), draw(st.sampled_from(line_runs))
        lines[i] = lines[i][:a] + lines[i][c:d] + lines[i][b:]
    elif op == "blank":
        lines.insert(i, draw(st.sampled_from(("", " ", "\t", "\xa0"))))
    elif op == "surround":
        lines[i] = draw(st.sampled_from(SPACES)) + lines[i] + draw(st.sampled_from(SPACES))
    elif op == "repeat-line":
        lines.insert(i, lines[i])
    elif op == "swap-lines":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# properties


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_round_trip(tmp_path, fmt, data):
    objects, write, read, oracle = FORMATS[fmt]
    obj = data.draw(objects)
    path = tmp_path / "file.txt"
    write(obj, path)
    if fmt == "schedule":  # the station count is not written; read it as given
        got = read(path, obj.n_stations)
        assert key(got) == key(oracle(path, obj.n_stations))
        assert key(got)[3:] == key(obj)[3:]
        return
    got = read(path)
    assert key(got) == key(oracle(path))
    assert got == obj


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_written_files_are_read_without_the_line_grammar(tmp_path, fmt, data):
    # what the writers emit is canonical: it reads in one pass over its
    # bytes, at any chunk budget, as the oracle reads it
    objects, write, read, oracle = FORMATS[fmt]
    path = tmp_path / "file.txt"
    write(data.draw(objects), path)
    with mock.patch.object(readers, "_READ_CHARS", data.draw(st.sampled_from([1, 5, 1 << 18]))):
        with canonical_only():
            got = outcome(read, path)
    assert got[0] != "raises"
    assert got == outcome(oracle, path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_written_files_read_by_the_line_parse_as_the_oracle_reads_them(tmp_path, fmt, data):
    # the mirror of the property above: the line parse alone reads what the
    # writers emit as the oracle reads it
    objects, write, read, oracle = FORMATS[fmt]
    path = tmp_path / "file.txt"
    write(data.draw(objects), path)
    with lines_only():
        got = outcome(read, path)
    assert got[0] != "raises"
    assert got == outcome(oracle, path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_file_reads_as_the_oracle_reads_it(tmp_path, fmt, data):
    objects, write, read, oracle = FORMATS[fmt]
    path = tmp_path / "file.txt"
    write(data.draw(objects), path)
    text = path.read_text()
    for _ in range(data.draw(st.integers(1, 3))):
        text = mutate(text, data.draw)
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read, path) == outcome(oracle, path)


# Files at the edges of each format, read by the reader and the oracle.
LISTED = {
    "edges": [
        "3 2\r\n0 1\r\n1 2\r\n", "3 2\r0 1\r1 2", "3 2\n\t0\t1 \n\n  1   2\n",
        "3 2\n0\u30001\n1 2 \n", "3 2\n0 1 2\n", "3 2\n0\u30001 2\n", "3 2\n1 0\n",
        "3 2\n1 1\n", "3 3\n0 1\n", "3 2\n0 1\n1 3\n", "0 1\n0 1\n", "3 1\n0 3\n",
        "3 1\n0 9223372036854775807\n", "3 1\n0 9223372036854775808\n", "3\n0 1\n", "",
        "9223372036854775808 1\n6 9223372036854775807\n",
        "\n3 1\n0 1\n", "3 2\n0 1\n1", "3 2\n000 0000000000000000000000001\n1 2\n",
        "3 2\n0 1\n0 01\n", "3 0\n\n \n", "9223372036854775807 1\n0 1\n",
    ],
    "cover": [
        "0: 0-1\n2: 1-0\n", "0 : 0-1\n", "0:0-1\n", "0\n", "0:\n1\n", "0: 0-1-2\n",
        "0: 0-1 2\n", "0: 0-12-3\n", "0: 0-1: 2-3\n", "0: 0-1\n1: 0-18446744073709551615\n",
        "99999999999999999999999: 0-1\n", "0000000000000000000000000: 0-1\n", " 0:\t1-2 \n",
        "0: 1-2\n\n\n1: 3-4", "0: 1 -2\n", "0: -1\n", ":\n",
    ],
    "schedule": [
        "  round\t0   chan 0 :0>1 1>0\n\nround 1 chan 1\n", "round 0 chan: 0>1\n",
        "Round 0 chan 0: 0>1\n", "round 0 chan 0: 0>1\nround 0 chan 0: 1>0\n",
        "round 0 chan 9223372036854775808: 0>1\n", "round 0 chan 9223372036854775807\n",
        "round 0 chan 0 0>1\n", "round 0 chan 0: 0>\u0661\n", "round 0 chan 0: 0-1\n",
        "round\xa00 chan 0:\xa00>1\n", "round0 chan 0:\n", "round 0 chan 0 1: 0>1\n",
        "round 0 chan 0:: 0>1\n",
    ],
}


@pytest.mark.parametrize("fmt,text", [(f, t) for f, ts in LISTED.items() for t in ts])
def test_listed_files_read_as_the_oracle_reads_them(tmp_path, fmt, text):
    _, _, read, oracle = FORMATS[fmt]
    path = tmp_path / "file.txt"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read, path) == outcome(oracle, path)


# Canonical files that break one check across or within lines, and files
# that differ from canonical ones only in an id's length or a final
# newline: (format, text, whether its bytes are canonical).
SEMANTIC = [
    ("edges", "3 2\n0 1\n0 1\n", True), ("edges", "3 1\n1 0\n", True),
    ("edges", "3 1\n1 1\n", True), ("edges", "3 1\n0 3\n", True),
    ("edges", "3 2\n0 1\n", True), ("edges", "3 1\n0 1\n1 2\n", True),
    ("edges", "3 2\n1 2\n0 1\n", True), ("edges", "3 3\n0 2\n1 2\n0 2\n", True),
    ("edges", "3 1\n0 1000000000000000000\n", False), ("edges", "3 1\n0 1", False),
    ("edges", "3 1\n0 999999999999999999\n", True), ("edges", "3 1\n0 123456789012345678\n", True),
    ("edges", "3 1\n0 01\n", False), ("edges", "3 1\r0 1\n", False),
    ("cover", "0: 0-1\n2: 1-2\n", True), ("cover", "1: 0-1\n", True),
    ("cover", "0: 0-1\n0: 1-2\n", True), ("cover", "0: 0-1 1-2\n1:\n", True),
    ("cover", "0: 0-1\n1: 2-1000000000000000000\n", False), ("cover", "0: 0-1\n1: 2-3", False),
    ("schedule", "round 0 chan 0: 0>1\nround 2 chan 0: 1>0\n", True),
    ("schedule", "round 1 chan 0:\n", True),
    ("schedule", "round 0 chan 0: 0>1\nround 0 chan 1: 1>0\n", True),
    ("schedule", "round 0 chan 1000000000000000000: 0>1\n", False),
    ("schedule", "round 0 chan 0: 0>1", False), ("schedule", "round 0 chan 00: 0>1\n", False),
    ("schedule", "round 0 chan 123456789: 0>1 12345678901234567>987654321\n", True),
]


@pytest.mark.parametrize("fmt,text,canonical", SEMANTIC)
def test_canonical_files_that_fail_a_check_read_as_the_oracle_reads_them(
        tmp_path, fmt, text, canonical):
    _, _, read, oracle = FORMATS[fmt]
    path = tmp_path / "file.txt"
    path.write_bytes(text.encode("ascii"))
    template = {"edges": graphs._EDGE_TEMPLATE, "cover": graphs._COVER_TEMPLATE,
                "schedule": _SCHEDULE_TEMPLATE}[fmt]
    rows = readers._canonical_rows(path, template, int(fmt == "edges"))
    assert (rows is not None) == canonical
    assert outcome(read, path) == outcome(oracle, path)


# Per format, files whose last line fails after a run of 10^5 whitespace
# characters: the text before the run and the text after it.
LONG_RUNS = {
    "edges": [("3 1\n", "x"), ("3 1\n0", "x"), ("3 1\n0 1", "x"), ("3 1\n0 1", "2")],
    "cover": [("", "x"), ("0", "x"), ("0:", "x"), ("0: 0-1", "x"), ("0:0-1 1-2", "-3"),
              ("0: " + "0-1 " * 20000, "x")],
    "schedule": [("", "x"), ("round", "x"), ("round 0 chan 0", "x"),
                 ("round 0 chan 0", ": 0>1 x"), ("round 0 chan 0:", "x"),
                 ("round 0 chan 0 : 0>1", "x")],
}


@pytest.mark.parametrize("fmt,prefix,tail", [(f, p, t) for f, cs in LONG_RUNS.items() for p, t in cs],
                         ids=[f"{f}-{i}" for f, cs in LONG_RUNS.items() for i in range(len(cs))])
def test_a_long_whitespace_run_fails_in_linear_time(tmp_path, fmt, prefix, tail):
    # The line parse splits a line on whitespace once, so a long run costs
    # time linear in its length; a search that tried every split of the
    # run would take about 10^10 / 2 steps here, minutes, not milliseconds.
    _, _, read, oracle = FORMATS[fmt]
    path = tmp_path / "file.txt"
    path.write_text(prefix + (" \t" * 50000) + tail + "\n")
    start = time.perf_counter()
    got = outcome(read, path)
    assert time.perf_counter() - start < 5
    assert got[0] == "raises"
    assert got == outcome(oracle, path)


@pytest.mark.parametrize("read_chars", [8, 1 << 18])
def test_chunk_edges_do_not_change_what_is_read(tmp_path, read_chars):
    # Chunks are cut after a newline; a line longer than a chunk makes its own.
    rounds = [(i % 2, [(i, j) for j in range(i % 5)]) for i in range(40)]
    s = schedule_of(41, 2, rounds)
    path = tmp_path / "s.txt"
    write_schedule(s, path)
    text = path.read_text().replace(": ", ":\t \t", 3)
    path.write_text(text + "\n\n  \n")
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace("round 33", "round 34"))
    with mock.patch.object(readers, "_READ_CHARS", read_chars):
        assert key(read_schedule(path, 41)) == key(oracle_read_schedule(path, 41))
        assert outcome(read_schedule, bad) == outcome(oracle_read_schedule, bad)
        assert "bad.txt:34: round indices must be sequential" in outcome(read_schedule, bad)[2]
    # the same schedule as written, read without the line parse, and with
    # one round index off: a canonical file that fails a check, read again
    # by the line parse for its message
    write_schedule(s, path)
    bad.write_text(path.read_text().replace("round 33", "round 34"))
    with mock.patch.object(readers, "_READ_CHARS", read_chars):
        with canonical_only():
            assert key(read_schedule(path, 41)) == key(oracle_read_schedule(path, 41))
        assert readers._canonical_rows(bad, _SCHEDULE_TEMPLATE) is not None
        assert outcome(read_schedule, bad) == outcome(oracle_read_schedule, bad)
        assert "bad.txt:34: round indices must be sequential" in outcome(read_schedule, bad)[2]


PIPED_SCHEDULES = {
    "valid": "round 0 chan 0: 0>1\nround 1 chan 1: 2>3 4>0\nround 2 chan 0:\n",
    "round index": "round 0 chan 0: 0>1\nround 2 chan 1: 2>3 4>0\n",
    "grammar": "round 0 chan 0: 0>1\nround 1 chan 1: 2>3 4<0\n",
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("case", PIPED_SCHEDULES)
def test_a_pipe_is_read_once_as_a_file_is(tmp_path, case):
    # a named pipe carrying a schedule: it is opened once, by the line
    # parse, and reads as the file it copies, a failing line's message too
    path, fifo = tmp_path / "s.txt", tmp_path / "fifo"
    path.write_text(PIPED_SCHEDULES[case])
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
    writer.start()
    try:
        got = outcome(lambda p: read_schedule(p, 5), fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    want = outcome(lambda p: oracle_read_schedule(p, 5), path)
    if want[0] == "raises":
        want = (*want[:2], want[2].replace(str(path), str(fifo)))
    assert got == want


def test_a_file_that_changes_while_it_is_read(tmp_path):
    # lines added between the counting and the filling pass: the line
    # parse reads the file as it then is
    path = tmp_path / "s.txt"
    path.write_text("round 0 chan 0: 0>1\n")
    fill = readers._canonical_chunks

    def grown(fh, *args):
        with open(path, "a") as out:
            out.write("round 1 chan 1: 2>3 4>0\n" * 3)
        return fill(fh, *args)

    with mock.patch.object(readers, "_canonical_chunks", grown):
        got = outcome(read_schedule, path)
    assert got == outcome(oracle_read_schedule, path)
    assert "s.txt:3: round indices must be sequential" in got[2]
    # a canonical file that fails a check, emptied before the line parse
    # reads it again: the read is the file as it last was
    path.write_text("round 0 chan 0: 0>1\nround 2 chan 0: 1>0\n")
    rows = readers._canonical_rows

    def emptied(*args):
        got = rows(*args)
        path.write_text("")
        return got

    with mock.patch.object(readers, "_canonical_rows", emptied):
        got = outcome(read_schedule, path)
    assert got == outcome(oracle_read_schedule, path)
    assert got[0] == "schedule"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(g=graphs_(), data=st.data())
def test_shuffled_edge_list_reads_as_the_oracle_reads_it(tmp_path, g, data):
    # the edge lines in any order, now and then with a repeated, reversed or
    # out-of-range line, and the header's count kept right: the edges, the
    # degrees and the error text of the oracle
    path = tmp_path / "e.txt"
    write_edge_list(g, path)
    lines = data.draw(st.permutations(path.read_text().splitlines()[1:]))
    if lines and data.draw(st.booleans()):
        u, v = map(int, data.draw(st.sampled_from(lines)).split())
        bad = data.draw(st.sampled_from([f"{u} {v}", f"{v} {u}", f"{u} {g.n}"]))
        lines.insert(data.draw(st.integers(0, len(lines))), bad)
    path.write_text(f"{g.n} {len(lines)}\n" + "".join(line + "\n" for line in lines))
    got, want = outcome(read_edge_list, path), outcome(oracle_read_edge_list, path)
    assert got == want
    if got[0] == "graph":
        assert read_edge_list(path).degrees().tolist() == [
            oracle_read_edge_list(path).degree(v) for v in range(g.n)]


@pytest.mark.parametrize("edges", [[(0, 99999), (5, 7)],
                                   [(i, 99999 - i) for i in range(400)]])
def test_sparse_edge_list_with_a_large_header(tmp_path, edges):
    # the graph is the pairs read: nothing is allocated per vertex
    path = tmp_path / "e.txt"
    path.write_text(f"100000 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    assert read_edge_list(path) == Graph.from_edges(100000, edges)


@pytest.mark.parametrize("write_ids", [1, 3, 1 << 16])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(groups=st.lists(small_pairs, max_size=8),
       chans=st.lists(st.integers(0, 9), min_size=8, max_size=8),
       order=st.permutations(range(12)), cuts=st.sets(st.integers(1, 11)))
def test_writers_match_one_format_per_pair(tmp_path, write_ids, groups, chans, order, cuts):
    # the partition: the cells of a 3 x 4 grid in a drawn order, cut into parts
    cells = [divmod(c, 4) for c in order]
    bounds = [0, *sorted(cuts), 12]
    parts = [cells[a:b] for a, b in zip(bounds, bounds[1:])]
    g = Graph.from_edges(41, [e for m in groups for e in m if e[0] != e[1]])
    with mock.patch.object(graphs, "_WRITE_IDS", write_ids):
        write_edge_list(g, tmp_path / "e.txt")
        write_cover(cover_of(groups), tmp_path / "c.txt")
        write_schedule(schedule_of(41, 10, list(zip(chans, groups))), tmp_path / "s.txt")
        write_partition(cover_of(parts), tmp_path / "p.txt")

    def lines(groups, head, sep):
        return "".join(head(i) + "".join(f" {u}{sep}{v}" for u, v in g) + "\n"
                       for i, g in enumerate(groups))

    assert (tmp_path / "e.txt").read_text() == f"41 {g.edge_count}\n" + "".join(
        f"{u} {v}\n" for u, v in g.pairs.tolist())
    assert (tmp_path / "c.txt").read_text() == lines(groups, lambda i: f"{i}:", "-")
    assert (tmp_path / "s.txt").read_text() == lines(
        groups, lambda i: f"round {i} chan {chans[i]}:", ">")
    assert (tmp_path / "p.txt").read_text() == lines(parts, lambda i: f"part {i}:", ">")


def peak_of(write, obj, path) -> int:
    tracemalloc.start()
    try:
        write(obj, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_long_schedule_is_written_in_flat_memory(tmp_path):
    # 2^16 one-pair rounds, every station pair of 256 stations: the writer
    # holds one chunk of about _WRITE_IDS ids as Python objects at a time
    n = 256
    s = Schedule(n, 2, np.arange(n * n) % 2, np.arange(n * n + 1),
                 graphs.key_pairs(np.arange(n * n), n))
    assert peak_of(write_schedule, s, tmp_path / "s.txt") < 2 << 20
    lines = (tmp_path / "s.txt").read_text().splitlines()
    assert len(lines) == n * n
    assert lines[0] == "round 0 chan 0: 0>0" and lines[-1] == "round 65535 chan 1: 255>255"


def test_many_empty_matchings_are_written_in_flat_memory(tmp_path):
    # 2^18 matchings and no pairs: a column of every ordinal alone would
    # take the 2 MB the writer may use
    t = 1 << 18
    c = MatchingCover(np.empty((0, 2), dtype=np.int64), np.zeros(t + 1, dtype=np.int64))
    assert peak_of(write_cover, c, tmp_path / "c.txt") < 2 << 20
    text = (tmp_path / "c.txt").read_text()
    assert text.startswith("0:\n1:\n") and text.endswith(f"\n{t - 1}:\n") and text.count("\n") == t


# ---------------------------------------------------------------------------
# generator and truth-table files, against a line-by-line reading of their
# grammar: ("code", n, k, cols) or ("table", bits) for a file that follows
# it, else ("line", number) for its first line that breaks it, or ("count",)
# when only the number of rows or characters is wrong.


def file_lines(path) -> list[str]:
    with open(path) as fh:  # newlines translated, as the readers read them
        return fh.read().split("\n")


def grammar_generator(path):
    lines = file_lines(path)
    header = lines[0].split()
    if len(header) != 2 or not all(t.isascii() and t.isdigit() for t in header):
        return ("line", 1)
    n, k = map(int, header)
    if n < 1 or k < 1:
        return ("line", 1)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        row = line.strip()
        if row and (len(row) != k or row.strip("01")):
            return ("line", lineno)
        rows += [row] if row else []
    if len(rows) != n:
        return ("count",)
    return ("code", n, k, tuple(int("".join(r[j] for r in reversed(rows)), 2) for j in range(k)))


def grammar_table(path, m):
    bits = ""
    for lineno, line in enumerate(file_lines(path), start=1):
        chars = "".join(line.split())
        if chars.strip("01"):
            return ("line", lineno)
        bits += chars
    return ("table", bits) if len(bits) == 1 << m else ("count",)


def read_outcome(read, path):
    """What read(path) returned, as the grammar readings above write it, or
    the line its ParameterError names; any other error is returned as is."""
    try:
        got = read(path)
    except ParameterError as exc:
        named = re.match(rf"{re.escape(str(path))}:([0-9]+): ", str(exc))
        if named:
            return ("line", int(named[1]))
        if str(exc).startswith(f"{path}: expected "):
            return ("count",)
        return ("raises", str(exc))
    if isinstance(got, LinearCode):
        return ("code", got.n, got.k, got.cols)
    return ("table", "".join(map(str, got.table.tolist())))


@st.composite
def generator_files(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    return LinearCode(n, k, tuple(draw(st.lists(st.integers(0, (1 << n) - 1),
                                                min_size=k, max_size=k))))


@st.composite
def table_files(draw):
    """m, the 2^m table bits, and the file: the bits in lines of a drawn width."""
    m = draw(st.integers(1, 6))
    bits = "".join(draw(st.lists(st.sampled_from("01"), min_size=1 << m, max_size=1 << m)))
    width = draw(st.integers(1, 1 << m))
    return m, bits, "".join(bits[a : a + width] + "\n" for a in range(0, len(bits), width))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(code=generator_files(), table=table_files())
def test_generator_and_table_round_trip(tmp_path, code, table):
    path = tmp_path / "gen.txt"
    write_generator(code, path)
    assert read_outcome(read_generator, path) == ("code", code.n, code.k, code.cols)
    assert grammar_generator(path) == ("code", code.n, code.k, code.cols)
    m, bits, text = table
    path.write_text(text)
    assert read_outcome(lambda p: load_table(p, m), path) == ("table", bits)
    assert grammar_table(path, m) == ("table", bits)


@pytest.mark.parametrize("fmt", ["generator", "table"])
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_generator_and_table_read_by_their_grammar(tmp_path, fmt, data):
    # the mutated file reads as the object its grammar gives, or raises a
    # ParameterError naming its first bad line (path:line), or the path
    # alone for a wrong count
    path = tmp_path / "file.txt"
    if fmt == "generator":
        write_generator(data.draw(generator_files()), path)
        read, grammar = read_generator, grammar_generator
    else:
        m, _, text = data.draw(table_files())
        path.write_text(text)
        read, grammar = (lambda p: load_table(p, m)), (lambda p: grammar_table(p, m))
    text = path.read_text()
    for _ in range(data.draw(st.integers(1, 3))):
        text = mutate(text, data.draw)
    path.write_bytes(text.encode("utf-8"))
    assert read_outcome(read, path) == grammar(path)


GRAMMAR_LISTED = {
    "generator": ["0 2\n", "2 0\n\n", "0 0", "", "\n4 2\n", "2 2\n11\n10\n01\n", "2 2\n11\n",
                  "2 2\r\n 10 \r\n\r\n01\r\n", "2 2\n1 0\n01\n", "2 2\n1١\n01\n", "2 2 2\n"],
    "table": ["0110\n", "01\n10", "0 1　1\t0\n", "011\n", "01102\n", "0110\n0\n",
              "\n\n01x0\n", "01١\n", ""],
}


@pytest.mark.parametrize("fmt,text", [(f, t) for f, ts in GRAMMAR_LISTED.items() for t in ts])
def test_listed_generator_and_table_files(tmp_path, fmt, text):
    path = tmp_path / "file.txt"
    path.write_bytes(text.encode("utf-8"))
    if fmt == "generator":
        assert read_outcome(read_generator, path) == grammar_generator(path)
    else:
        assert read_outcome(lambda p: load_table(p, 2), path) == grammar_table(path, 2)


# Every character str.splitlines takes for a line break, beside ordinary text.
BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@settings(max_examples=300, deadline=None)
@given(text=st.text(st.sampled_from(BREAKS + "ab 7")) | st.text())
@example(text="")
@example(text="a\x0bb\x0cc\x1cd\x85e\u2028f\u2029g")
@example(text="a\n\u2028\n")
def test_numbered_lines_splits_as_a_string_stream(text):
    # lines end at "\n" only, numbered as io.StringIO numbers them, with or
    # without a final newline
    with mock.patch.object(errors, "read_text", lambda path: text):
        got = list(numbered_lines("f.txt"))
    assert got == list(enumerate(io.StringIO(text), start=1))
