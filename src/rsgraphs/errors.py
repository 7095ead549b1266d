"""Exception types and size caps shared across the toolkit.

CLI exit-code mapping: ParameterError and OSError (a missing or unreadable
file) -> 1; VerificationError, InternalCheckError, SearchFailureError -> 2;
ResourceLimitError -> 3.
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
# Word updates of the geometric cover's lockstep first-fit, |E| * N: C=4 n=5 is 2.8e8.
MAX_COVER_WORK = 500_000_000


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
