"""Exception types shared across the package, the shared budget reader, and
the one check of the residue field size q."""

import os


class InvalidRank(ValueError):
    """Rank outside the legal bounds of the requested family."""


class NotARoot(ValueError):
    """A coefficient vector that is not a member of the root system."""


class ProportionalPair(ValueError):
    """Two roots that are equal or opposite where a genuine pair is required."""


class NonIntegralPairing(ValueError):
    """A coweight pairing <v, xi> that came out fractional; raised by
    RootSystem.pairing alone."""


class LevelMismatch(ValueError):
    """Chambers of different levels (or systems) mixed in one operation."""


class NotAWall(ValueError):
    """Affine hyperplane that is not a wall at the chamber's level."""


class NotTypeA2n(ValueError):
    """Operation defined only for type A with even rank."""


class HalfIntegralityViolation(ArithmeticError):
    """A value that should lie in (1/2)Z does not; firing means a broken input."""


class NotApplicable(ValueError):
    """Operation undefined for this type."""


class BudgetExceeded(RuntimeError):
    """Enumeration would exceed the configured budget."""


def read_budget(default):
    """The STEINBERG_BUDGET cap, or default when it is unset.

    One variable caps two sizes with different defaults: orbit images in
    sorth and ball chambers in tree_oracle.
    """
    raw = os.environ.get("STEINBERG_BUDGET")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"STEINBERG_BUDGET must be a positive integer, got {raw!r}")
    return value


def check_q(q):
    """Raise ValueError unless q is odd and >= 3, as the two-scale walls need."""
    if q < 3 or q % 2 == 0:
        raise ValueError("q must be an odd integer >= 3")


class AmbiguousConstraints(ValueError):
    """Sign-character constraints do not span; carries the unspanned quotient."""

    def __init__(self, message, free_vectors):
        super().__init__(message)
        self.free_vectors = free_vectors


class InconsistentConstraints(ValueError):
    """Sign-character constraints contradict; carries a violated combination."""

    def __init__(self, message, combination):
        super().__init__(message)
        self.combination = combination


class NotHarmonicBase(ValueError):
    """Base cochain fails the harmonicity requirement around its facet."""


class UnsupportedPanel(ValueError):
    """Panel sum outside the near/far model: no retraction declaration, chambers
    that are not adjacent, or a panel equidistant from the base."""


class NotInBall(ValueError):
    """Chamber id outside the constructed ball."""


class DomainError(ValueError):
    """Argument outside the convergence domain."""
