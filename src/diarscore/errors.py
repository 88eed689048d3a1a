"""Exception types shared across the toolkit, and its one way to warn.

A warning goes through ``_warn``, which imports ``logging`` when it is
called, so a process that warns about nothing never loads it.
"""

# the stderr format cli.main registers; _warn applies it before each record
_stderr_format: str | None = None


def _warn(name: str, message: str, *args: object) -> None:
    """Log ``message % args`` as a warning on the logger called ``name``.

    With a format registered in ``_stderr_format``, ``logging.basicConfig``
    first gives the root logger a stderr handler in that format; that call
    does nothing once the root logger has a handler.  ``stacklevel=2``
    files the record under the caller's function and line.
    """
    import logging

    if _stderr_format is not None:
        logging.basicConfig(level=logging.WARNING, format=_stderr_format)
    logging.getLogger(name).warning(message, *args, stacklevel=2)


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
