"""Length generating functions of affine Weyl groups and the lambda sums.

The affine Poincaré series is Bott's product over the exponents m of the
finite Weyl group, (1 + x + ... + x^m) / (1 - x^m), taken as coefficients
(`poincare_closed`) or at a rational point (`poincare_value`).  On the
exponents 1..d of A_d the product telescopes to the type-A sum
(1 - x^(d+1)) / (1 - x)^(d+1).  The independent oracle counts alcoves of the
coarse-level apartment by gallery distance.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import apartment, tables
from .errors import BudgetExceeded, DomainError, NotApplicable, check_q
from .rootsys import build

_ALCOVE_BUDGET = 2_000_000


def poincare_closed(sys, n):
    """Coefficients 0..n of Bott's product, by three in-place passes per exponent."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    coeffs = [1] + [0] * n
    for m in sys.exponents:
        for i in range(n, m, -1):  # times 1 - x^(m+1)
            coeffs[i] -= coeffs[i - m - 1]
        for i in range(1, n + 1):  # over 1 - x
            coeffs[i] += coeffs[i - 1]
        for i in range(m, n + 1):  # over 1 - x^m
            coeffs[i] += coeffs[i - m]
    if coeffs[0] != 1 or any(c < 0 for c in coeffs):
        raise AssertionError("length generating function must start at 1 and stay nonnegative")
    return coeffs


def poincare_bfs(sys, n):
    """Alcove counts by gallery distance, from a coarse-level ball.

    The ball's size is read off the closed form before any alcove is visited;
    the walk then counts h tuples and builds no Chamber.
    """
    total = sum(poincare_closed(sys, n))
    if total > _ALCOVE_BUDGET:
        raise BudgetExceeded(f"{total} alcoves exceed the budget of {_ALCOVE_BUDGET}")
    base_f, _ = apartment.base_chambers(sys)
    return [len(s) for s in apartment._h_shells(base_f, n)]


def poincare_value(sys, x):
    """Bott's product at a rational point with |x| < 1."""
    x = Fraction(x)
    if abs(x) >= 1:
        raise DomainError("the series converges only for |x| < 1")
    total = Fraction(1)
    for m in sys.exponents:
        total *= (1 - x ** (m + 1)) / ((1 - x) * (1 - x**m))
    return total


def tail_bound(sys, q, radius):
    """Exact upper bound q^|Φ+| * sum_{l > radius} count(l) q^(-l).

    Evaluates the closed-form series at 1/q and subtracts the prefix, so the
    bound is exact, positive, and monotone decreasing in the radius.  No command
    calls it (they read `_tail_bounds`); it stays because perfbench reads it by name.
    """
    return _tail_bounds(sys, q, radius)[-1]


def _tail_bounds(sys, q, radius):
    """`tail_bound` at every radius 0..radius, from one series value and a running prefix."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    x = Fraction(1, q)
    rest = poincare_value(sys, x)
    bounds = []
    for l, c in enumerate(poincare_closed(sys, radius)):
        rest -= c * x**l
        bounds.append(q ** len(sys.positive_roots) * rest)
    if rest < 0:
        raise AssertionError("tail bound must be nonnegative")
    return bounds


class LambdaReport(namedtuple("LambdaReport", "target partial_sums tail_bounds")):
    """Partial sums of the support-weighted pairing against tail bounds."""

    __slots__ = ()

    def certified_radii(self):
        return [
            r
            for r, (s, t) in enumerate(zip(self.partial_sums, self.tail_bounds))
            if abs(s - self.target) <= t
        ]


def lambda_a2n_partial(n, q, radius):
    """Partial sums of the central-chamber pairing for type A of rank 2n.

    Each coarse chamber within the given coarse radius contributes
    q^(coarse distance) times the fine-level Iwahori value at its central
    chamber.  The slack per coarse step is at most the positive-root count,
    which feeds the tail bound exponent.
    """
    check_q(q)
    sys = build("A", 2 * n)
    base_f, _ = apartment.base_chambers(sys)
    c0 = apartment.central_chamber(sys, base_f)
    shells = apartment.chambers_within(base_f, radius)
    partials = []
    running = Fraction(0)
    for dist, shell in enumerate(shells):
        des = [apartment.distance(c0, apartment.central_chamber(sys, cf)) for cf in shell]
        # sum_cf (-1)^de q^(dist - de) over the shell, as one fraction over q^max(de)
        top = max(des)
        running += Fraction(sum((-1) ** de * q ** (dist + top - de) for de in des), q**top)
        partials.append(running)
    bounds = _tail_bounds(sys, q, radius)
    return LambdaReport(target=Fraction(1), partial_sums=partials, tail_bounds=bounds)


def lambda_tvoth(sys, q, ch_da_count):
    """Closed-form pairing value for types other than A of even rank.

    Full-rank tabled sets (fixed facet a vertex) give the chamber count
    itself; the positive-dimensional cases multiply by the type-A sum, the
    series of A_d' at x = q^(r2 - r1).
    """
    from .cochain import r1_r2

    if tables.is_a2n(sys):
        raise NotApplicable("type A of even rank uses the central-chamber sum")
    if ch_da_count <= 0:
        raise ValueError("the chamber count must be positive")
    # the fixed facet's dimension: the rank less the size of the tabled set
    d_prime = sys.type.rank - len(tables.sigma_a_table(sys))
    if d_prime == 0:
        return Fraction(ch_da_count)
    rr = r1_r2(sys)
    value = ch_da_count * poincare_value(build("A", d_prime), Fraction(q) ** (rr.r2 - rr.r1))
    if value == 0:
        raise AssertionError("the pairing value cannot vanish")
    return value
