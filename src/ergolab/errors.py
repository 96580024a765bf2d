"""Exception taxonomy shared by every ergolab module.

Domain errors (bad arguments, dimension clashes, violated preconditions) all
derive from InvalidInputError so callers can catch one class. Horizon
exhaustion deliberately does NOT: running out of data is a measurement
outcome, not a caller mistake, and several callers convert it into a verified
lower bound instead of failing.
"""

from __future__ import annotations

__all__ = ["ErgolabError", "InvalidInputError", "DimensionMismatchError", "PreconditionError",
           "HorizonExhaustedError", "CountOverflowError"]


class ErgolabError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(ErgolabError, ValueError):
    """An argument is outside the documented domain."""


class DimensionMismatchError(InvalidInputError):
    """Two objects that must share a dimension do not."""


class PreconditionError(InvalidInputError):
    """A documented hypothesis of an operation fails on the given data."""


class HorizonExhaustedError(ErgolabError):
    """A scan ran out of trajectory before reaching a decision.

    ``verified_lower_bound`` is the least index the answer could still be:
    every smaller candidate was checked and rejected before the horizon ran
    out. ``checked_up_to`` is the last candidate actually decided.
    """

    def __init__(self, message: str, *, checked_up_to: int = 0):
        super().__init__(message)
        self.checked_up_to = int(checked_up_to)

    @property
    def verified_lower_bound(self) -> int:
        return self.checked_up_to + 1


class CountOverflowError(ErgolabError, OverflowError):
    """An iterated count left the supported 64-bit range (> 2**63 - 1)."""
