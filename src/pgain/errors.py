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
