"""Exception types shared across the package.

Every failure a caller may want to catch programmatically is one of these.
Anything else escaping the public API is a bug.
"""

from __future__ import annotations


class IrrStrengthError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(IrrStrengthError):
    """A caller-supplied parameter is out of its valid range."""


class InputFormatError(IrrStrengthError):
    """A graph file or stream does not parse under the declared format."""


class StageFailure(IrrStrengthError):
    """A pipeline stage could not complete on the given random draw.

    ``stage`` names the phase and ``kind`` the specific check or
    operation that failed; the message states the failure with its
    numbers (the vertex, edge or measured statistic at fault).
    """

    def __init__(self, stage: str, kind: str, message: str):
        super().__init__(message)
        self.stage = stage
        self.kind = kind


class RetryExhausted(IrrStrengthError):
    """A retrying driver hit its attempt budget without a success."""
