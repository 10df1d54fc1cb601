"""Exception types shared across the package."""


class CoarseError(Exception):
    """Base class for every error raised by this package.

    ``step`` is the 1-based fold step of an error that surfaced inside a fold.
    """

    def __init__(self, *args, step: int | None = None):
        super().__init__(*args)
        self.step = step


class SpecError(CoarseError, ValueError):
    """A partition description or its policy is invalid; the message names the offending field."""


class DomainError(CoarseError, ValueError):
    """A value does not belong to the partition's domain (wrong grid, below origin, ...)."""


class OutOfRangeError(CoarseError):
    """A value or cell index falls outside the partition's covered range."""
