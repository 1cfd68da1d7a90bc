"""Exception types shared across the package.

Every failure a caller may want to catch programmatically is one of these.
Anything else escaping the public API is a bug.
"""

from __future__ import annotations

from typing import Any


class IrrStrengthError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(IrrStrengthError):
    """A caller-supplied parameter is out of its valid range."""


class InputFormatError(IrrStrengthError):
    """A graph file or stream does not parse under the declared format."""


class StageFailure(IrrStrengthError):
    """A pipeline stage could not complete on the given random draw.

    Carries enough structure for a driver to decide whether to retry:
    ``stage`` names the phase, ``kind`` the specific check or operation
    that failed, and ``witness`` holds the offending object (a vertex,
    an edge, a measured statistic) when one exists.
    """

    def __init__(self, stage: str, kind: str, message: str, witness: Any = None):
        super().__init__(message)
        self.stage = stage
        self.kind = kind
        self.message = message
        self.witness = witness

    def __repr__(self) -> str:  # keeps witnesses readable in logs
        return (
            f"StageFailure(stage={self.stage!r}, kind={self.kind!r}, "
            f"message={self.args[0]!r}, witness={self.witness!r})"
        )


class RetryExhausted(IrrStrengthError):
    """A retrying driver hit its attempt budget without a success."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts
