"""The exception raised when a mathematically guaranteed inequality fails
its numerical check."""

from __future__ import annotations

__all__ = ["InequalityViolation"]


class InequalityViolation(AssertionError):
    """A checked theorem did not hold numerically: a numerical regression.

    Subclasses AssertionError, which these checks raised before the type
    existed; the command line maps it to exit code 2."""
