"""Exception types, size caps and the text-file helpers shared across the
toolkit.

CLI exit-code mapping: ParameterError and OSError (a missing or unreadable
file) -> 1; VerificationError, InternalCheckError, SearchFailureError -> 2;
ResourceLimitError -> 3.  This module is pure Python, so a command that
reads a text file without array work loads no numpy.
"""


class ParameterError(ValueError):
    """Invalid or out-of-range input parameters."""


class VerificationError(RuntimeError):
    """A constructed object failed its correctness check."""


class InternalCheckError(RuntimeError):
    """A property guaranteed by construction failed; indicates a bug."""


class SearchFailureError(RuntimeError):
    """A randomized search exhausted its retry budget; retry with a new seed."""


class ResourceLimitError(RuntimeError):
    """The requested instance exceeds the configured size caps."""


# Caps for all-pairs work; max_vertices (--max-vertices) overrides the first.
DEFAULT_MAX_VERTICES = 100_000
DEFAULT_MAX_PAIR_CHECKS = 100_000_000
# Word operations of the geometric shell cover (see decompose_geometric):
# C=3 n=7 needs 1.8e8, C=4 n=5 2.3e8.
MAX_COVER_WORK = 500_000_000
# Counts from 10^4300 up are too long for int-to-str's default digit limit,
# so refusals name them as powers.
_PRINTABLE = 10**4300


def check_caps(n_vertices, max_vertices=None):
    """Refuse instances whose vertex count exceeds max_vertices (default
    DEFAULT_MAX_VERTICES) or whose vertex pairs exceed DEFAULT_MAX_PAIR_CHECKS."""
    mv = DEFAULT_MAX_VERTICES if max_vertices is None else max_vertices
    if n_vertices > mv:
        raise ResourceLimitError(
            f"{n_vertices} vertices exceed the cap of {mv}; raise max_vertices to proceed"
        )
    pairs = n_vertices * (n_vertices - 1) // 2
    if pairs > DEFAULT_MAX_PAIR_CHECKS:
        raise ResourceLimitError(
            f"{pairs} vertex pairs exceed the cap of {DEFAULT_MAX_PAIR_CHECKS} pair checks"
        )


def check_lattice(C: int, n: int, max_vertices=None) -> int:
    """The vertex count C^n of [1..C]^n, once check_caps passes it.  A count
    that the bit length of C shows to be past both the cap and 2^65536 is
    refused without forming C^n, and one too long to print is named as the
    power."""
    mv = DEFAULT_MAX_VERTICES if max_vertices is None else max_vertices
    huge = ResourceLimitError(
        f"{C}^{n} vertices exceed the cap of {mv}; raise max_vertices to proceed")
    if n * (C.bit_length() - 1) > max(mv.bit_length(), 1 << 16):
        raise huge
    N = C**n
    if N >= _PRINTABLE and N > mv:
        raise huge
    check_caps(N, max_vertices)
    return N


def read_text(path) -> str:
    """The text of the file at `path`, newlines translated as open() does;
    bytes that do not decode as text raise ParameterError naming the path."""
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path}: not a text file ({exc.reason})") from None


def numbered_lines(path):
    """(line number, line) over the text file at `path`, counting from 1;
    every line but a last unterminated one ends in a newline.  Lines end at
    a newline only, as io.StringIO splits them: str.splitlines also splits
    at form feeds, U+0085, U+2028 and other breaks, which would renumber
    the path:line messages."""
    lines = read_text(path).split("\n")
    last = lines.pop()  # the text after the last newline
    for lineno, line in enumerate(lines, start=1):
        yield lineno, line + "\n"
    if last:
        yield len(lines) + 1, last


def parse_int(token: str, path, lineno: int) -> int:
    """The integer that a token of ASCII decimal digits on line `lineno` of
    `path` spells; any other token raises ParameterError naming path:line."""
    if token.isascii() and token.isdigit():
        return int(token)
    raise ParameterError(f"{path}:{lineno}: expected an integer, got {token!r}")
