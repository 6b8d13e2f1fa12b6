"""Exception types shared across the package.

Every error raised on purpose by the library derives from PalinfracError,
so callers (in particular the CLI) can distinguish our failures from bugs.
"""

from __future__ import annotations


class PalinfracError(Exception):
    """Base class for all library errors."""


class ParseError(PalinfracError):
    """Input document is malformed or violates a sequence invariant."""


class NotNormalized(PalinfracError):
    """The sequence does not end its preperiodic block with the last periodic pair."""


class IndexOutOfRange(PalinfracError):
    """A split or block length lies outside the valid range."""


class DegenerateRelation(PalinfracError):
    """A quadratic relation has all-zero coefficients or no unique decaying branch."""


class DivisionByZero(PalinfracError, ZeroDivisionError):
    """A denominator vanished at the evaluation point."""


class BranchAmbiguity(PalinfracError):
    """No root of the periodic tail is off the real axis, at the point or just above it."""


class NotAnMFunction(PalinfracError):
    """The decaying branch has c_1 != 1 or a peeled a^2 <= 0."""


class InsufficientOrder(PalinfracError):
    """A pair count, recover order, series order or truncation depth is too small."""
