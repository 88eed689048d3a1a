"""Exception types shared across the toolkit."""


class DiarscoreError(ValueError):
    """Base class for all toolkit errors.

    An error about one line of an input file carries that line's number in
    ``line`` and renders as ``line N: <message>``.  Helpers raise without a
    line; the reader that read the line re-raises the same class with it.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(DiarscoreError):
    """Malformed input file."""


class ValidationError(DiarscoreError):
    """Input parsed but violates a contract (bad value, wrong shape)."""


class SessionMismatchError(DiarscoreError):
    """Two inputs that must describe the same session do not."""


class UndefinedMetricError(DiarscoreError):
    """Metric denominator is zero (no reference speech / characters)."""


class InjectionError(DiarscoreError):
    """Requested corruption cannot be placed without interaction."""
