"""The quadratic character built from twice the positive-root half-sum.

Everything here is parity arithmetic: the character is trivial exactly when
the half-sum lies in the root lattice, and its value on a torus parameter is
a sign read off an integer pairing.
"""

from __future__ import annotations

from collections import namedtuple

from .rootsys import build


def prasad_trivial(sys):
    """True iff rho lies in the root lattice: every 2 rho coefficient is even."""
    return not any(c % 2 for c in sys.two_rho)


def chi_on_torus(sys, xi):
    """(-1)^<2 rho, xi>: the value at the torus element xi(u) for a nonsquare unit u,
    for a coweight row xi, checked by `RootSystem.coweight`."""
    return -1 if sys.pairing(sys.two_rho, sys.coweight(xi)) % 2 else 1


D2nIdentity = namedtuple("D2nIdentity", "n skipped holds branch")


def d2n_character_identity(n):
    """Parity identity for type D of rank 2n.

    When n is even the 2 rho coefficients must all be even; when n is odd
    their parity vector must match the indicator of the last two simple
    roots.  n = 1 (a reducible rank-2 configuration) is skipped.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return D2nIdentity(n=1, skipped=True, holds=False, branch="skipped")
    d = 2 * n
    sys = build("D", d)
    # closed form for the coefficients, cross-checked against the computed sum
    expected = [i * (2 * d - 1 - i) for i in range(1, d - 1)]
    expected += [d * (d - 1) // 2, d * (d - 1) // 2]
    if list(sys.two_rho) != expected:
        raise AssertionError("closed form for 2 rho disagrees with the computed half-sum")
    parities = [c % 2 for c in sys.two_rho]
    if n % 2 == 0:
        return D2nIdentity(n=n, skipped=False, holds=not any(parities), branch="all-even")
    target = [0] * (d - 2) + [1, 1]
    return D2nIdentity(n=n, skipped=False, holds=parities == target, branch="parity-match")
