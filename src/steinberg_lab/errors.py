"""Exception types shared across the package, and the one check of the residue
field size q; the limits that `verify` and `sigma-a` put on their inputs are
`suites.LIMITS`."""


class InvalidRank(ValueError):
    """Rank outside the legal bounds of the requested family."""


class NotARoot(ValueError):
    """A coefficient vector that is not a member of the root system."""


class ProportionalPair(ValueError):
    """Two roots that are equal or opposite where a genuine pair is required."""


class NonIntegralPairing(ValueError):
    """A coweight row with a fractional entry; raised by RootSystem.coweight alone."""


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
    """Enumeration would exceed its size budget."""


def check_q(q):
    """Raise ValueError unless q is an odd int >= 3, as the two-scale walls need."""
    if type(q) is not int or q < 3 or q % 2 == 0:
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
    """Panel sum outside the near/far model: two chambers that are not adjacent."""


class NotInBall(ValueError):
    """Chamber id outside the constructed ball."""


class DomainError(ValueError):
    """Argument outside the convergence domain."""
