"""The artifact readers: edge lists, covers and schedules read back from
the text formats whose line templates and writers are in graphs and
channels.

The readers share one shape, read_rows, which reads a file in one of two
ways and gives the same rows either way.  A canonical file, byte for byte
what the writers emit, is read as bytes in line-aligned chunks: one
byte-class pass finds the runs of digits, the bytes between them are
compared with the template's literals, and the runs are converted by numpy.
Any other file is read as text: each line is checked against the format's
line grammar, and the ids of the lines that pass are converted the same
way.  The checks across lines are array comparisons on the rows.  At the
first line that fails any check, the format's per-line parse runs on that
line alone and raises its path:line error.

Only the commands that read an artifact import this module; the others
never compile it.  graphs.read_edge_list, graphs.read_cover and
channels.read_schedule name the readers here.
"""

import io
import os
import re
import stat
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import InternalCheckError, ParameterError, parse_int, read_text
from .graphs import _COVER_TEMPLATE, _EDGE_TEMPLATE, Graph, MatchingCover, offsets_of

if TYPE_CHECKING:
    from .channels import Schedule

# What str.split() splits on within a line, in ASCII; read_rows turns the
# other whitespace of a non-ASCII file into spaces before the grammar check.
SPACE = r"[\t\x0b\x0c\x1c-\x1f ]"
# Bytes of a canonical file, or characters of any other, that read_rows
# converts at once (see _canonical_rows for the first chunks).
_READ_CHARS = 1 << 16
# 10^p for the places p = 0..18 of an int64 id.
_POW10 = 10 ** np.arange(19, dtype=np.uint64)
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


def line_grammar(head: str, sep: str | None = None, colon: str = ":") -> str:
    """The regular expression of a search, in a newline and then text, for
    the newline before the first line of the text that is neither blank nor
    the regular expression `head` between optional whitespace.  With sep,
    head may be followed by `colon` and then by pairs "u{sep}v" of ASCII
    digit runs, separated by whitespace.  It checks one line at a time, so
    the regular expression engine's stack grows with the longest line only;
    the search for a literal newline skips to the line starts fast.

    head must neither start nor end with whitespace, and colon must not
    end with it: no two runs of whitespace in the grammar then meet, so a
    line that fails costs time linear in its length."""
    if sep:
        pair = f"[0-9]+{sep}[0-9]+"
        head += f"(?:{colon}(?:{SPACE}*{pair}(?:{SPACE}+{pair})*)?)?"
    return f"(?m)\\n(?!{SPACE}*(?:{head}{SPACE}*)?$)"


class TextRows(NamedTuple):
    """The non-blank lines of a text file after its first `skip` lines, up
    to the first line that fails the format's grammar, as rows of ids: the
    leading ids of every row, then its pairs.  An id of 2^63 or more reads
    as a negative number."""

    path: str
    header: str  # the first `skip` lines
    text: str | None  # the whole text, if the read held it
    skip: int
    heads: np.ndarray  # (h, rows): the h leading ids of each row
    sizes: np.ndarray  # pairs on each row
    pairs: np.ndarray  # (M, 2) int64: the rows' pairs, row after row
    huge: np.ndarray  # per row, whether one of its pair ids is 2^63 or more
    bad: int | None  # number of the line that fails the grammar, if one does

    def raise_first(self, fail: np.ndarray, parse) -> None:
        """Raise the error of the first line that fails a check: the first
        row flagged in `fail` or the line that fails the grammar, whichever
        comes first.  parse(path, lineno, line, index) is the format's
        per-line parse, index counting the rows before the line; it raises
        ParameterError.  If it does not, the bulk checks and the parse
        disagree, and InternalCheckError is raised.  A text that the read
        did not hold is read again, only when a line fails."""
        row = int(fail.argmax()) if fail.any() else None
        if row is None and self.bad is None:
            return
        text = read_text(self.path) if self.text is None else self.text
        index = 0
        for lineno, line in islice(enumerate(io.StringIO(text), start=1), self.skip, None):
            if lineno == self.bad:
                break
            if line.strip():  # a non-blank line before the first failure is a row
                if index == row:
                    break
                index += 1
        else:
            raise ParameterError(f"{self.path}: the file changed while it was read")
        parse(self.path, lineno, line, index)
        raise InternalCheckError(f"{self.path}:{lineno}: line passes its parse but not the bulk checks")


def read_rows(path, grammar: str, template: tuple[str, str], skip: int = 0) -> TextRows:
    """Read the file at `path` into rows (see TextRows) of the format with
    the given line grammar (see line_grammar) and template: the ids are
    read in order from each line's runs of digits, the first h of them the
    leading ids, h the %d fields of the template's head.  A format with
    no head (h = 0) has one pair on each line.  A canonical file goes
    through _canonical_rows, any other through _grammar_rows."""
    rows = _canonical_rows(path, template, skip)
    if rows is None:
        head, pair = template
        h = head.count("%d")
        rows = _grammar_rows(path, grammar, h, pair.split("%d")[1] if h else None, skip)
    return rows


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


def _canonical_rows(path, template: tuple[str, str], skip: int) -> TextRows | None:
    """The rows of the file at `path` if it is canonical for the template,
    else None.  It is canonical if its first `skip` lines are ASCII with no
    carriage return and each later line is the template's head and then
    its pair, once per pair of the line, filled from ids written without
    leading zeros in at most 18 digits, and then a newline.  Such a line
    passes the format's grammar, and its ids are below 2^63.  The file is
    read as bytes twice: once in blocks of _READ_CHARS bytes to size the
    arrays from its counts of newlines and of the byte inside a pair, which
    bound the rows and the pairs, and once in chunks of whole lines to fill
    them (see _canonical_chunks); a file that grows in between overfills
    them and gives None.  The text is never whole in memory.  A path that
    is not a regular file, such as a pipe, can be read only once and is
    left to the grammar path unopened."""
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
    return rows and TextRows(path, header.decode("ascii"), None, skip, *rows, None)


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
    """heads, sizes, pairs and huge (see TextRows) of buf, whole lines that
    each end in a newline, with h leading ids, if every byte between its
    runs of digits is the literal that _gap_literals gives there and no run
    has a leading zero or more than 18 digits, else None."""
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
    return (ids[firsts + np.arange(h)[:, None]], (counts - h) // 2, ids[j >= h].reshape(-1, 2),
            np.zeros(len(counts), dtype=bool))


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


def _grammar_rows(path, grammar: str, h: int, sep: str | None, skip: int) -> TextRows:
    """Read the text file at `path` into rows (see TextRows) of h leading
    ids and then pairs "u{sep}v", or one pair "u v" when sep is None.  The
    lines are checked against `grammar` (see line_grammar) and converted in
    chunks of about _READ_CHARS characters."""
    text = read_text(path)
    search = re.compile(grammar).search  # compiled on first use, then cached by re
    check = text
    if not text.isascii():
        check = text.translate({ord(c): " " for c in set(text) if c.isspace() and c != "\n"})
    a = 0
    for _ in range(skip):
        a = check.find("\n", a) + 1 or len(check)
    bad = None

    def parts(a, lineno):
        nonlocal bad
        while a < len(check) and bad is None:
            b = (check.rfind("\n", a, a + _READ_CHARS) + 1
                 or check.find("\n", a + _READ_CHARS) + 1 or len(check))
            seg = check[a:b]
            found = search("\n" + seg)
            if found:
                seg = seg[: found.start()]
                bad = lineno + seg.count("\n") + 1
            yield _rows_of(seg, h)
            lineno += seg.count("\n")
            a = b

    most = check.count("\n", a) + 1
    rows = _filled(h, most, check.count(sep, a) if sep else most, parts(a, skip))
    return TextRows(path, text[:a], text, skip, *rows, bad)


def _filled(h: int, most: int, most_pairs: int, parts):
    """heads, sizes, pairs and huge (see TextRows) of the rows of parts, an
    iterable of such tuples, chunk after chunk, in arrays sized once for
    `most` rows and most_pairs pairs; None if a part is None or the parts
    hold more."""
    heads = np.empty((h, most), dtype=np.int64)
    sizes = np.empty(most, dtype=np.int64)
    pairs = np.empty((most_pairs, 2), dtype=np.int64)
    huge = np.empty(most, dtype=bool)
    r = m = 0  # rows and pairs read
    for part in parts:
        if part is None or r + len(part[1]) > most or m + len(part[2]) > most_pairs:
            return None
        k, n = len(part[1]), len(part[2])
        heads[:, r : r + k], sizes[r : r + k], pairs[m : m + n], huge[r : r + k] = part
        r, m = r + k, m + n
    return heads[:, :r], sizes[:r], pairs[:m], huge[:r]


def _rows_of(seg: str, h: int):
    """heads, sizes, pairs and huge (see TextRows) of the lines of seg,
    which all pass the grammar and so are ASCII."""
    data = np.frombuffer(seg.encode("ascii"), dtype=np.uint8)
    digit = (data - 48) < 10
    ends = np.flatnonzero(np.diff(np.concatenate(([False], digit, [False])).view(np.int8)))
    starts = ends[0::2]
    ids = _digit_runs(data, starts, ends[1::2])
    # runs per line: the runs that start before each newline, differenced
    count = np.diff(np.searchsorted(starts, np.flatnonzero(data == 10)),
                    prepend=0, append=len(starts))
    count = count[count > 0]  # per non-blank line: a row
    first = np.cumsum(count) - count
    head = first + np.arange(h)[:, None]
    in_pairs = np.ones(len(ids), dtype=bool)
    in_pairs[head] = False
    huge = np.zeros(len(count), dtype=bool)
    huge[np.searchsorted(first, np.flatnonzero(in_pairs & (ids < 0)), side="right") - 1] = True
    return ids[head], (count - h) // 2, ids[in_pairs].reshape(-1, 2), huge


def _digit_runs(data: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The int64 value of each run data[starts[i]:stops[i]] of ASCII
    digits, or a negative number where it is 2^63 or more; one product per
    run length."""
    lens = stops - starts
    vals = np.empty(len(lens), dtype=np.uint64)
    over = np.zeros(len(lens), dtype=bool)
    for size in np.flatnonzero(np.bincount(lens)).tolist():
        at = np.flatnonzero(lens == size)
        digits = data[starts[at, None] + np.arange(size)] - 48
        lead = max(0, size - 19)  # places past 18, which must hold zeros
        vals[at] = digits[:, lead:] @ _POW10[size - lead - 1 :: -1]  # below 10^19 < 2^64
        over[at] = digits[:, :lead].any(axis=1)
    vals = vals.view(np.int64)  # 2^63 and more view as negative
    vals[over] = -1
    return vals


# The line grammar of each format (see read_rows).
_EDGE_LINE = line_grammar(f"[0-9]+{SPACE}+[0-9]+")


def read_edge_list(path: str, caps=None) -> Graph:
    """The graph of the edge list at `path`: the pairs it read, sorted.
    caps(N), if given, runs on the header's N once the lines, the edge
    count and the vertex range are checked, and may refuse it."""
    rows = read_rows(path, _EDGE_LINE, _EDGE_TEMPLATE, skip=1)
    header = rows.header.split()
    if len(header) != 2:
        raise ParameterError(f"{path}:1: malformed header, expected 'N M'")
    n, m = (parse_int(t, path, 1) for t in header)
    u, v = rows.pairs.T
    fail = rows.huge | (u >= v)
    du = np.diff(u)
    order = None  # pairs whose (u, v) strictly increase are sorted and distinct
    if not ((du > 0) | ((du == 0) & (np.diff(v) > 0))).all():
        order = np.lexsort((v, u))  # stable: of equal edges, the earliest line first
        fail[order[1:][(np.diff(u[order]) == 0) & (np.diff(v[order]) == 0)]] = True
    rows.raise_first(fail, partial(_edge_line, pairs=rows.pairs))
    if len(u) != m:
        raise ParameterError(f"{path}: header claims {m} edges, found {len(u)}")
    out = np.flatnonzero(v >= n) if n < 1 << 63 else ()
    if len(out):
        raise ParameterError(f"edge ({u[out[0]]},{v[out[0]]}) outside vertex range 0..{n - 1}")
    if caps:
        caps(n)
    return Graph(n, rows.pairs if order is None else rows.pairs[order])


def _edge_line(path, lineno: int, line: str, index: int, pairs: np.ndarray) -> None:
    """Parse edge line `lineno`, which follows the edges pairs[:index]:
    ParameterError unless it is two ids u < v below 2^63 of a new edge."""
    parts = line.split()
    if len(parts) != 2:
        raise ParameterError(f"{path}:{lineno}: malformed edge line {line!r}")
    u, v = parse_int(parts[0], path, lineno), parse_int(parts[1], path, lineno)
    if not u < v:
        raise ParameterError(f"{path}:{lineno}: edge ({u},{v}) must satisfy u < v")
    if v >> 63:
        raise ParameterError(f"{path}:{lineno}: id {v} does not fit in 64 bits")
    if (pairs[:index] == (u, v)).all(axis=1).any():
        raise ParameterError(f"{path}:{lineno}: edge ({u},{v}) repeats an earlier line")


_COVER_LINE = line_grammar("[0-9]+", "-")


def read_cover(path: str) -> MatchingCover:
    rows = read_rows(path, _COVER_LINE, _COVER_TEMPLATE)
    ordinal = rows.heads[0]
    rows.raise_first(rows.huge | (ordinal != np.arange(len(ordinal))), _cover_line)
    return MatchingCover.from_arrays(rows.pairs, offsets_of(rows.sizes))


def _cover_line(path, lineno: int, line: str, index: int) -> None:
    """Parse cover line `lineno`, which follows `index` matchings:
    ParameterError unless it is matching `index` with ids below 2^63."""
    head, _, rest = line.strip().partition(":")
    if parse_int(head, path, lineno) != index:
        raise ParameterError(f"{path}:{lineno}: matching ordinals must be sequential")
    parse_pairs(rest.split(), "-", path, lineno)


_SCHEDULE_LINE = line_grammar(
    f"round{SPACE}+[0-9]+{SPACE}+chan{SPACE}+[0-9]+", ">", f"{SPACE}*:"
)


def read_schedule(path: str, n_stations: int | None = None) -> "Schedule":
    from .channels import _SCHEDULE_TEMPLATE, Schedule

    if n_stations is not None and n_stations < 0:
        raise ParameterError(f"need a nonnegative station count, got {n_stations}")
    rows = read_rows(path, _SCHEDULE_LINE, _SCHEDULE_TEMPLATE)
    index, chans = rows.heads
    rows.raise_first(rows.huge | (index != np.arange(len(index))) | (chans < 0), _schedule_line)
    pairs = rows.pairs
    if n_stations is None:
        n_stations = int(pairs.max()) + 1 if len(pairs) else 0
    k = int(chans.max()) + 1 if len(chans) else 0
    return Schedule.from_arrays(n_stations, k, chans.copy(), offsets_of(rows.sizes), pairs)


def _schedule_line(path, lineno: int, line: str, index: int) -> None:
    """Parse schedule line `lineno`, which follows `index` rounds:
    ParameterError unless it is round `index` with ids below 2^63."""
    head, _, rest = line.strip().partition(":")
    parts = head.split()
    if len(parts) != 4 or parts[0] != "round" or parts[2] != "chan":
        raise ParameterError(f"{path}:{lineno}: malformed round header")
    if parse_int(parts[1], path, lineno) != index:
        raise ParameterError(f"{path}:{lineno}: round indices must be sequential")
    chan = parse_int(parts[3], path, lineno)
    if chan >> 63:
        raise ParameterError(f"{path}:{lineno}: channel {chan} does not fit in 64 bits")
    parse_pairs(rest.split(), ">", path, lineno)
