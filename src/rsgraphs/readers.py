"""The artifact readers: edge lists, covers and schedules read back from
the text formats whose line templates and writers are in graphs and
channels.

Each reader takes one of two paths and gives the same object or the same
error either way.  A canonical file, byte for byte what the writers emit,
is read as bytes in line-aligned chunks: one byte-class pass finds the
runs of digits, the bytes between them are compared with the template's
literals, and the runs are converted by numpy (_canonical_rows); the
checks across lines are then array comparisons.  Any other file, a path
that is not a regular file, such as a pipe, and a canonical file that
fails a check across lines are read by the format's line parse, one line
at a time, which returns the rows or raises the path:line error of the
first line that fails, in file order.

Only the commands that read an artifact import this module; the others
never compile it.  graphs.read_edge_list, graphs.read_cover and
channels.read_schedule name the readers here.
"""

import os
import stat
from array import array
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError, numbered_lines, parse_int
from .graphs import _COVER_TEMPLATE, _EDGE_TEMPLATE, Graph, MatchingCover, offsets_of

if TYPE_CHECKING:
    from .channels import Schedule

# Bytes of a canonical file that _canonical_rows converts at once (see
# _canonical_chunks for the first chunks).
_READ_CHARS = 1 << 16
# The top k bytes of a uint64, k = 0..8.
_TOP_BYTES = np.array([(1 << 64) - (1 << 64 - 8 * k) for k in range(9)], dtype=np.uint64)
# "0" in each byte of a uint64, and the multiply-shift steps that add the
# places of eight digits, a byte each and the first in the low byte, into
# one number: 2561 = 10 * 2^8 + 1 makes 2-digit numbers, 6553601 = 100 *
# 2^16 + 1 4-digit ones, and 10^4 * 2^32 + 1 the 8-digit number.
_ZEROS = np.uint64(0x3030303030303030)
_PLACE_STEPS = [(np.uint64(mask), np.uint64(mul), np.uint64(shift)) for mask, mul, shift in (
    (0x0F0F0F0F0F0F0F0F, 2561, 8), (0x00FF00FF00FF00FF, 6553601, 16),
    (0x0000FFFF0000FFFF, 42949672960001, 32))]


def parse_pairs(tokens: list[str], sep: str, path, lineno: int) -> list[int]:
    """The ints u, v of each "u{sep}v" token on line `lineno` of `path`,
    flattened; an id of 2^63 or more raises ParameterError naming path:line."""
    ids = [parse_int(x, path, lineno) for tok in tokens for x in tok.partition(sep)[::2]]
    if ids and max(ids) >> 63:
        raise ParameterError(f"{path}:{lineno}: id {max(ids)} does not fit in 64 bits")
    return ids


def _gap_literals(template: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """The widths and the values of the bytes before each run of digits in
    a canonical file of the template, by code: code j <= h before the
    line's run j (the line's start for j = 0), h + 1 inside a pair, h + 2
    between pairs, h + 3 and h + 4 across the end of a line with pairs and
    without (a newline and the next line's start), and h + 5 and h + 6 at
    the end of the file, after such lines.  Each literal is at most eight
    bytes, and its value is that of its bytes as the top bytes of a
    little-endian uint64, as a window (see _canonical_chunk) holds them."""
    head, pair = (part.split("%d") for part in template)
    h = len(head) - 1
    lits = [*head[:h], head[h] + pair[0], pair[1], pair[2] + pair[0]]
    ends = [pair[2] + "\n", head[h] + "\n"]
    lits = [lit.encode("ascii") for lit in lits + [end + lits[0] for end in ends] + ends]
    return (np.array([len(lit) for lit in lits]),
            np.array([int.from_bytes(bytes(8 - len(lit)) + lit, "little") for lit in lits],
                     dtype=np.uint64))


def _canonical_rows(path, template: tuple[str, str], skip: int = 0):
    """The header, heads, sizes and pairs of the file at `path` if it is
    canonical for the template, else None: its first `skip` lines as text,
    then per later line the h leading ids (h the %d fields of the
    template's head) as an (h, rows) int64 array, the count of its pairs,
    and the pairs, row after row, as an (M, 2) int64 array.  The file is
    canonical if its first `skip` lines are ASCII with no carriage return
    and each later line is the template's head and then its pair, once per
    pair of the line, filled from ids written without leading zeros in at
    most 18 digits (so below 2^63), and then a newline.  The file is read
    as bytes twice: once in blocks of _READ_CHARS bytes to size the arrays
    from its counts of newlines and of the byte inside a pair, which bound
    the rows and the pairs, and once in chunks of whole lines to fill them
    (see _canonical_chunks); a file that grows in between overfills them
    and gives None.  The text is never whole in memory.  A path that is not
    a regular file, such as a pipe, can be read only once and is left to
    the line parse unopened."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    h = template[0].count("%d")
    lits = _gap_literals(template)
    sep = template[1].split("%d")[1].encode("ascii")[0]
    with open(path, "rb") as fh:
        header = b"".join([fh.readline() for _ in range(skip)])
        if not header.isascii() or b"\r" in header or header.count(b"\n") < skip:
            return None
        body, most, seps = fh.tell(), 0, 0
        while block := fh.read(_READ_CHARS):
            data = np.frombuffer(block, dtype=np.uint8)
            most += np.count_nonzero(data == 10)
            seps += np.count_nonzero(data == sep)
        fh.seek(body)
        rows = _filled(h, most, seps, _canonical_chunks(fh, h, lits))
    return rows and (header.decode("ascii"), *rows)


def _canonical_chunks(fh, h: int, lits: tuple[np.ndarray, np.ndarray]):
    """The rows (see _filled) of the rest of fh, in chunks of whole lines
    (one line if it is longer) read by _canonical_chunk, then None if the
    last line has no newline.  The chunks grow from an eighth of _READ_CHARS
    bytes to _READ_CHARS, so a short file's temporary arrays stay small."""
    rest, step = b"", max(1, _READ_CHARS >> 3)
    while block := fh.read(max(step, len(rest))):
        step = min(2 * step, _READ_CHARS)
        chunk = rest + block
        cut = chunk.rfind(b"\n") + 1
        rest = chunk[cut:]
        if cut:
            yield _canonical_chunk(memoryview(chunk)[:cut], h, lits)
    if rest:
        yield None


def _canonical_chunk(buf, h: int, lits: tuple[np.ndarray, np.ndarray]):
    """heads, sizes and pairs (see _canonical_rows) of buf, whole lines
    that each end in a newline, with h leading ids, if every byte between
    its runs of digits is the literal that _gap_literals gives there and no
    run has a leading zero or more than 18 digits, else None."""
    padded = np.zeros(8 + len(buf), dtype=np.uint8)
    data = padded[8:]
    data[:] = np.frombuffer(buf, dtype=np.uint8)
    # win[i]: the eight bytes before place i of data, as a little-endian
    # int, so the byte just before i is its top byte
    win = np.ndarray(len(data) + 1, dtype="<u8", buffer=padded, strides=(1,))
    digit = (padded[7:] - 48) < 10  # a pad byte, then data's
    bounds = (digit[1:] != digit[:-1]).nonzero()[0]
    starts, stops = bounds[0::2], bounds[1::2]
    lens = stops - starts
    if not len(lens) or lens.max() > 18 or (lens[(data[starts] == 48).nonzero()[0]] > 1).any():
        return None
    ends = starts.searchsorted((data == 10).nonzero()[0])  # runs before each newline
    counts = ends.copy()
    counts[1:] -= ends[:-1]
    if (counts < max(h, 1)).any() or ((counts - h) & 1).any():
        return None
    firsts = ends - counts
    j = np.arange(len(starts)) - firsts.repeat(counts)  # run j of its line
    code = np.empty(len(starts) + 1, dtype=np.int64)  # of the bytes before each run, and the end
    np.minimum(j, (h + 2) - ((j - h) & 1), out=code[:-1])  # j, or h + 1 or h + 2 in pairs
    code[firsts[1:]] = h + 3 + (counts[:-1] == h)
    code[-1] = h + 5 + (counts[-1] == h)
    width, value = lits
    size = width[code]
    at = np.append(starts, len(data))  # where the bytes before each run, and after the last, end
    if (at - np.append(0, stops) != size).any() or (win[at] & _TOP_BYTES[size] != value[code]).any():
        return None
    ids = _run_values(win, stops, lens)
    return ids[firsts + np.arange(h)[:, None]], (counts - h) // 2, ids[j >= h].reshape(-1, 2)


def _run_values(win: np.ndarray, stops: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The int64 value of each run of lens[i] <= 18 ASCII digits that ends
    before stops[i], from the windows win (see _canonical_chunk): its last
    eight places, then the eight before them, then the rest."""
    vals = _eight_digits(win[stops], np.minimum(lens, 8))
    for k in range(1, (int(lens.max()) + 7) // 8):
        at = np.flatnonzero(lens > 8 * k)
        x = _eight_digits(win[stops[at] - 8 * k], np.minimum(lens[at] - 8 * k, 8))
        vals[at] += x * np.uint64(10 ** (8 * k))
    return vals.view(np.int64)


def _eight_digits(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The value of the top n[i] <= 8 bytes of x[i], ASCII digits, the most
    significant lowest: xor takes "0" off each digit, a mask drops the
    other bytes, and three multiply-shift steps add neighbouring places."""
    x = (x ^ _ZEROS) & _TOP_BYTES[n]
    for mask, mul, shift in _PLACE_STEPS:
        x &= mask
        x *= mul
        x >>= shift
    return x


def _filled(h: int, most: int, most_pairs: int, parts):
    """heads, sizes and pairs (see _canonical_rows) of the rows of parts,
    an iterable of such tuples, chunk after chunk, in arrays sized once for
    `most` rows and most_pairs pairs; None if a part is None or the parts
    hold more."""
    heads = np.empty((h, most), dtype=np.int64)
    sizes = np.empty(most, dtype=np.int64)
    pairs = np.empty((most_pairs, 2), dtype=np.int64)
    r = m = 0  # rows and pairs read
    for part in parts:
        if part is None or r + len(part[1]) > most or m + len(part[2]) > most_pairs:
            return None
        k, n = len(part[1]), len(part[2])
        heads[:, r : r + k], sizes[r : r + k], pairs[m : m + n] = part
        r, m = r + k, m + n
    return heads[:, :r], sizes[:r], pairs[:m]


def read_edge_list(path: str, caps=None) -> Graph:
    """The graph of the edge list at `path`: the pairs it read, sorted.
    caps(N), if given, runs on the header's N once the lines, the edge
    count and the vertex range are checked, and may refuse it."""
    rows = _canonical_rows(path, _EDGE_TEMPLATE, skip=1)
    if rows is not None:
        n, m = _edge_header(path, rows[0])
        pairs = rows[3]
        order, valid = _edge_order(pairs)
    if rows is None or not valid:  # the line parse names the first failing line
        n, m, pairs = _edge_lines(path)
        order, _ = _edge_order(pairs)
    if len(pairs) != m:
        raise ParameterError(f"{path}: header claims {m} edges, found {len(pairs)}")
    u, v = pairs.T
    out = np.flatnonzero(v >= n) if n < 1 << 63 else ()
    if len(out):
        raise ParameterError(f"edge ({u[out[0]]},{v[out[0]]}) outside vertex range 0..{n - 1}")
    if caps:
        caps(n)
    return Graph(n, pairs if order is None else pairs[order])


def _edge_header(path, line: str) -> tuple[int, int]:
    header = line.split()
    if len(header) != 2:
        raise ParameterError(f"{path}:1: malformed header, expected 'N M'")
    return parse_int(header[0], path, 1), parse_int(header[1], path, 1)


def _edge_order(pairs: np.ndarray):
    """The stable order that sorts pairs by (u, v), or None if they are
    sorted; and whether they are distinct edges, each with u < v."""
    u, v = pairs.T
    valid = bool((u < v).all())
    du = np.diff(u)
    if ((du > 0) | ((du == 0) & (np.diff(v) > 0))).all():
        return None, valid
    order = np.lexsort((v, u))
    repeats = (np.diff(u[order]) == 0) & (np.diff(v[order]) == 0)
    return order, valid and not repeats.any()


def _edge_lines(path):
    """The edge list at `path` read one line at a time: N and M from its
    header and its edges in file order, as an (M, 2) int64 array.  The
    first line that is not two ids u < v below 2^63 of a new edge raises
    its ParameterError."""
    lines = numbered_lines(path)
    n, m = _edge_header(path, next(lines, (1, ""))[1])
    seen, ids = set(), array("q")
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
        if (u, v) in seen:
            raise ParameterError(f"{path}:{lineno}: edge ({u},{v}) repeats an earlier line")
        seen.add((u, v))
        ids.extend((u, v))
    return n, m, np.frombuffer(ids, dtype=np.int64).reshape(-1, 2)


def _group_lines(path, head, sep: str):
    """The `head: pairs` file at `path` read one line at a time: per
    non-blank line, the int that head(path, lineno, text, index) gives for
    the text before its first ":", index counting the lines before it; the
    count of its pairs "u{sep}v"; and all the pairs, as int64 arrays.  head
    and the pairs raise the ParameterError of the first line that fails."""
    heads, sizes, ids = array("q"), array("q"), array("q")
    for lineno, line in numbered_lines(path):
        if line := line.strip():
            text, _, rest = line.partition(":")
            heads.append(head(path, lineno, text, len(sizes)))
            pairs = parse_pairs(rest.split(), sep, path, lineno)
            ids.extend(pairs)
            sizes.append(len(pairs) // 2)
    return (np.frombuffer(heads, dtype=np.int64), np.frombuffer(sizes, dtype=np.int64),
            np.frombuffer(ids, dtype=np.int64).reshape(-1, 2))


def _groups(path, template: tuple[str, str], head, sep: str):
    """The last head column, sizes and pairs of a `head: pairs` file: its
    canonical rows if their first head column counts 0, 1, ..., else
    _group_lines(path, head, sep)."""
    rows = _canonical_rows(path, template)
    if rows is not None and (rows[1][0] == np.arange(len(rows[2]))).all():
        return rows[1][-1], rows[2], rows[3]
    return _group_lines(path, head, sep)


def read_cover(path: str) -> MatchingCover:
    _, sizes, pairs = _groups(path, _COVER_TEMPLATE, _cover_head, "-")
    return MatchingCover(pairs, offsets_of(sizes))


def _cover_head(path, lineno: int, text: str, index: int) -> int:
    """The ordinal of cover line `lineno`, which follows `index` matchings:
    ParameterError unless it is `index`."""
    if parse_int(text, path, lineno) != index:
        raise ParameterError(f"{path}:{lineno}: matching ordinals must be sequential")
    return index


def read_schedule(path: str, n_stations: int | None = None) -> "Schedule":
    from .channels import _SCHEDULE_TEMPLATE, Schedule

    if n_stations is not None and n_stations < 0:
        raise ParameterError(f"need a nonnegative station count, got {n_stations}")
    chans, sizes, pairs = _groups(path, _SCHEDULE_TEMPLATE, _schedule_head, ">")
    if n_stations is None:
        n_stations = int(pairs.max()) + 1 if len(pairs) else 0
    k = int(chans.max()) + 1 if len(chans) else 0
    return Schedule(n_stations, k, chans.copy(), offsets_of(sizes), pairs)


def _schedule_head(path, lineno: int, text: str, index: int) -> int:
    """The channel of schedule line `lineno`, which follows `index` rounds:
    ParameterError unless it is round `index` on a channel below 2^63."""
    parts = text.split()
    if len(parts) != 4 or parts[0] != "round" or parts[2] != "chan":
        raise ParameterError(f"{path}:{lineno}: malformed round header")
    if parse_int(parts[1], path, lineno) != index:
        raise ParameterError(f"{path}:{lineno}: round indices must be sequential")
    chan = parse_int(parts[3], path, lineno)
    if chan >> 63:
        raise ParameterError(f"{path}:{lineno}: channel {chan} does not fit in 64 bits")
    return chan
