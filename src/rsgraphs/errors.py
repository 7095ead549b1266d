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


# Defaults for all-pairs work; override per call or with --max-vertices.
DEFAULT_MAX_VERTICES = 100_000
DEFAULT_MAX_PAIR_CHECKS = 100_000_000


def check_caps(n_vertices, max_vertices=None, max_pairs=None):
    """Refuse instances whose vertex or pair counts exceed the caps."""
    mv = DEFAULT_MAX_VERTICES if max_vertices is None else max_vertices
    mp = DEFAULT_MAX_PAIR_CHECKS if max_pairs is None else max_pairs
    if n_vertices > mv:
        raise ResourceLimitError(
            f"{n_vertices} vertices exceed the cap of {mv}; raise max_vertices to proceed"
        )
    pairs = n_vertices * (n_vertices - 1) // 2
    if pairs > mp:
        raise ResourceLimitError(
            f"{pairs} vertex pairs exceed the cap of {mp} pair checks"
        )
