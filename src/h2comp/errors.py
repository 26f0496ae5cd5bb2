"""The exceptions raised when a mathematically guaranteed inequality fails
its numerical check, and when an iteration does not converge."""

from __future__ import annotations

__all__ = ["InequalityViolation", "NonConvergence"]


class InequalityViolation(AssertionError):
    """A checked theorem did not hold numerically: a numerical regression.

    Subclasses AssertionError, which these checks raised before the type
    existed; the command line maps it to exit code 2."""


class NonConvergence(RuntimeError):
    """The Hermitian eigensolver of the matrix lower bound did not converge.

    Subclasses RuntimeError, which it raised before the type existed;
    the command line maps it to exit code 3."""
