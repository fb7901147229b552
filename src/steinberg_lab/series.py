"""Length generating functions of affine Weyl groups and the lambda sums.

The closed form multiplies (1 - x^(m+1)) / ((1 - x)(1 - x^m)) over the
exponents m of the finite Weyl group; the independent oracle counts alcoves
of the coarse-level apartment by gallery distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import apartment, tables
from .errors import BudgetExceeded, DomainError, NotApplicable
from .rootsys import build

_ALCOVE_BUDGET = 2_000_000


def _poly_mul(a, b, n):
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > n:
            continue
        for j, bj in enumerate(b):
            if i + j > n:
                break
            out[i + j] += ai * bj
    return out


def _poly_div(num, den, n):
    """Power-series division num/den to degree n; den[0] must be a unit."""
    out = [0] * (n + 1)
    acc = list(num) + [0] * (n + 1 - len(num))
    for i in range(n + 1):
        c = acc[i] // den[0]
        if c * den[0] != acc[i]:
            raise AssertionError("series division left a remainder")
        out[i] = c
        for j, dj in enumerate(den):
            if i + j <= n:
                acc[i + j] -= c * dj
    return out


def poincare_closed(sys, n):
    """Coefficients 0..n of the affine length generating function."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    num = [1]
    den = [1]
    one_minus = lambda k: [1] + [0] * (k - 1) + [-1]
    for m in sys.exponents:
        num = _poly_mul(num, one_minus(m + 1), n)
        den = _poly_mul(den, _poly_mul(one_minus(1), one_minus(m), n), n)
    coeffs = _poly_div(num, den, n)
    if coeffs[0] != 1 or any(c < 0 for c in coeffs):
        raise AssertionError("length generating function must start at 1 and stay nonnegative")
    return coeffs


def poincare_bfs(sys, n):
    """Alcove counts by gallery distance, from a coarse-level ball."""
    base_f, _ = apartment.base_chambers(sys)
    shells = apartment.chambers_within(base_f, n)
    total = sum(len(s) for s in shells)
    if total > _ALCOVE_BUDGET:
        raise BudgetExceeded(f"{total} alcoves exceed the budget of {_ALCOVE_BUDGET}")
    return [len(s) for s in shells]


def poincare_value(sys, x):
    """The full sum of the series at a rational point with |x| < 1."""
    x = Fraction(x)
    if abs(x) >= 1:
        raise DomainError("the series converges only for |x| < 1")
    total = Fraction(1)
    for m in sys.exponents:
        total *= (1 - x ** (m + 1)) / ((1 - x) * (1 - x**m))
    return total


def s_value(d_prime, x):
    """(1 - x^(d'+1)) / (1 - x)^(d'+1), the type-A affine sum."""
    x = Fraction(x)
    if abs(x) >= 1:
        raise DomainError("|x| must be < 1")
    if d_prime < 0:
        raise ValueError("dimension must be nonnegative")
    val = (1 - x ** (d_prime + 1)) / (1 - x) ** (d_prime + 1)
    if val == 0:
        raise AssertionError("the sum cannot vanish inside the disk")
    return val


def tail_bound(sys, q, radius, n0):
    """Exact upper bound q^n0 * sum_{l > radius} count(l) q^(-l).

    Evaluates the closed-form series at 1/q and subtracts the prefix, so the
    bound is exact, positive, and monotone decreasing in the radius.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    x = Fraction(1, q)
    total = poincare_value(sys, x)
    prefix = sum(c * x**l for l, c in enumerate(poincare_closed(sys, radius)))
    bound = q**n0 * (total - prefix)
    if bound < 0:
        raise AssertionError("tail bound must be nonnegative")
    return bound


@dataclass
class LambdaReport:
    """Partial sums of the support-weighted pairing against tail bounds."""

    q: int
    target: Fraction
    partial_sums: list
    tail_bounds: list

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
    if q < 3 or q % 2 == 0:
        raise ValueError("q must be an odd integer >= 3")
    sys = build("A", 2 * n)
    base_f, _ = apartment.base_chambers(sys)
    c0 = apartment.central_chamber(sys, base_f)
    shells = apartment.chambers_within(base_f, radius)
    n0 = len(sys.positive_roots)
    partials = []
    running = Fraction(0)
    for dist, shell in enumerate(shells):
        for cf in shell:
            central = apartment.central_chamber(sys, cf)
            de = apartment.distance(c0, central)
            running += Fraction(q**dist) * Fraction((-1) ** de, q**de)
        partials.append(running)
    bounds = [tail_bound(sys, q, r, n0) for r in range(radius + 1)]
    return LambdaReport(q=q, target=Fraction(1), partial_sums=partials, tail_bounds=bounds)


def lambda_tvoth(sys, q, ch_da_count):
    """Closed-form pairing value for types other than A of even rank.

    Full-rank tabled sets (fixed facet a vertex) give the chamber count
    itself; the positive-dimensional cases multiply by the type-A sum at
    x = q^(r2 - r1).
    """
    from .cochain import r1_r2

    if tables.is_a2n(sys):
        raise NotApplicable("type A of even rank uses the central-chamber sum")
    if ch_da_count <= 0:
        raise ValueError("the chamber count must be positive")
    # the fixed facet's dimension: the rank less the size of the tabled set
    d_prime = sys.type.rank - tables.expected_sigma_a_size(sys)
    if d_prime == 0:
        return Fraction(ch_da_count)
    rr = r1_r2(sys)
    value = ch_da_count * s_value(d_prime, Fraction(q) ** (rr.r2 - rr.r1))
    if value == 0:
        raise AssertionError("the pairing value cannot vanish")
    return value
