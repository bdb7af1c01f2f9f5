"""pgain's exceptions, and the four input rules of the library and the CLI:
a graph has at least one node, a tolerance is finite and positive, an
iteration or walk-length cap is an integer >= 1 (numpy integers count), and
delta_star, alpha and each sweep grid value lie strictly inside (0, 1) (NaN
fails). Each rule raises ``ParameterError``, the last three in the words
their caller passes: a keyword or an option."""

import math
import numbers


class PgainError(Exception):
    """Base class for all pgain errors."""


class ParseError(PgainError):
    """Malformed edge-list input."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ParameterError(PgainError, ValueError):
    """A parameter is outside its documented domain."""


class UndefinedCorrelationError(PgainError, ValueError):
    """Rank correlation is undefined (zero rank variance)."""


class SeriesOverflowError(PgainError):
    """A walk series overflowed float64: its sum is not representable."""


def check_graph(g) -> int:
    """The node count of ``g``, which every walk-based score needs to be
    at least 1."""
    if g.node_count == 0:
        raise ParameterError("empty graph")
    return g.node_count


def check_tolerance(value) -> None:
    if not 0 < value < math.inf:
        raise ParameterError(
            f"tolerance must be finite and positive, got {value}")


def check_cap(value, name: str) -> None:
    if not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ParameterError(f"{name} must be at least 1")


def check_unit_interval(value, name: str) -> None:
    if not 0 < value < 1:
        raise ParameterError(f"{name} must lie in (0, 1), got {value}")
