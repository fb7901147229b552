"""Harmonic cochains on apartment chambers and the (Z/2)^r sign calculus.

The sign calculus runs once per type: solved_character returns the sign
basis and the simple-coroot actions on it with the character they solve to.

The building is never materialized above rank one.  A cochain is invariant
under retraction onto the apartment centred at its base chamber, so it is its
profile of values by gallery distance from the base.  A panel is given by two
adjacent apartment chambers.  Panel sums use the near/far model (the chamber
nearer the base carries the near value, the other q chambers of the panel the
far value); the rank-one tree oracle validates it independently.  The harmonic
extension builds its profile from the panel equation near + q * far = 0.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import mul

from . import apartment, tables
from .errors import (
    AmbiguousConstraints,
    InconsistentConstraints,
    NotApplicable,
    UnsupportedPanel,
    check_q,
)
from .rootsys import _neg, _sub, levi_support


# -- sign vectors and characters --------------------------------------------


class SignVector(namedtuple("SignVector", "bits r")):
    """Element of (Z/2)^r; bit i-1 refers to the i-th basis member."""

    __slots__ = ()

    def support(self):
        return [i + 1 for i in range(self.r) if self.bits >> i & 1]

    def __str__(self):
        return "".join(f"e{i}" for i in self.support()) or "1"


def sign_vector(r, indices):
    bits = 0
    for i in indices:
        bits ^= 1 << (i - 1)
    return SignVector(bits, r)


class SignCharacter(namedtuple("SignCharacter", "dual_bits r")):
    """A {+1,-1}-valued character of (Z/2)^r."""

    __slots__ = ()

    def value(self, v: SignVector):
        if v.r != self.r:
            raise ValueError("rank mismatch")
        return -1 if bin(self.dual_bits & v.bits).count("1") % 2 else 1

    def values_on_basis(self):
        return [self.value(sign_vector(self.r, [i])) for i in range(1, self.r + 1)]


def eic_character(sys):
    """The tabled character on the sign basis: -1 on every member, except
    by the B, C and F rules.

    These are the values forced by the generating relations (negated simple
    members give -1; rank-two mixed pairs give -1 on the product; simple
    coroot actions give +1) and they are what the solver reproduces.
    """
    fam, d = sys.type.family, sys.type.rank
    if tables.is_a2n(sys):
        raise NotApplicable("no sign character in type A of even rank")
    # the size of the tabled set, a closed form of the type
    r = {"A": (d + 1) // 2, "D": d - d % 2, "E": d - 2 * (d == 6), "F": 4, "G": 2}.get(fam, d)
    neg = range(1, r + 1)
    if fam == "B":
        neg = [i for i in neg if i % 2 == 0 or i == d]
    elif fam == "C":
        neg = [i for i in neg if (d + 1 - i) % 2 == 1]
    elif fam == "F":
        neg = [2, 4]
    bits = 0
    for i in neg:
        bits |= 1 << (i - 1)
    return SignCharacter(bits, r)


# -- coroot actions and constraint building ----------------------------------


def coroot_action(sys, sigma_members, xi):
    """Sign vector of a coweight row: bit j is the parity of <beta_j, xi>."""
    xi = sys.coweight(xi)
    bits = sum((sys.pairing(beta, xi) % 2) << j for j, beta in enumerate(sigma_members))
    return SignVector(bits, len(sigma_members))


def _is_neg_simple(sys, root):
    return _neg(root) in sys.simples


def _rank_two_b2(sys, beta, alpha):
    """Do beta and alpha span a rank-two subsystem of type B2 (eight roots)?

    <beta, alpha_vee><alpha, beta_vee> is 4 cos^2 of their angle; it is 2
    only at 45 or 135 degrees, which occur in B2 alone.  The converse relies
    on the precondition of build_constraints, beta = beta_a + 2 alpha with
    beta_a a root: in a B2 plane beta and alpha are then neither orthogonal
    (|beta_a|^2 = |beta|^2 + 4 |alpha|^2 would exceed every root length) nor
    proportional (beta_a = -beta is no strongly orthogonal partner).
    """
    return sys.root_pairing(beta, alpha) * sys.root_pairing(alpha, beta) == 2


def canonical_sigma_chamber(sys, members):
    """The distinguished fine chamber attached to the sign basis.

    h is minus a weight, read as one row over the simple roots: all ones (the
    height) when the basis mixes lengths, and the indicator of the long simple
    roots when the system is non-simply-laced with an all-long basis.  The
    resulting f takes integer values on every member, and as both weights are
    linear every sum-triple slack is 0: Shi's alcove test holds (tests run it).
    """
    weight = [int(sys.is_long(s)) for s in sys.simples]
    if all(weight) or not all(map(sys.is_long, members)):
        weight = [1] * sys.type.rank
    h = (-sum(map(mul, r, weight)) for r in sys.positive_roots)
    chamber = apartment.Chamber(sys, apartment.E_LEVEL, h)
    for m in members:
        if chamber.value(m) % 2 != 0:
            raise AssertionError("canonical chamber must be integral on the set")
    return chamber


def build_constraints(sys, members, coroot_actions):
    """Constraints pinning the sign character, from the canonical chamber.

    Emits (e_i, -1) when beta_i is a negated simple root; (e_i e_j, -1) for
    rank-two mixed pairs whose connecting short root is a negated simple
    with integral facet value; and (action, +1) for every simple-coroot
    action on the members.
    """
    r = len(members)
    chamber = canonical_sigma_chamber(sys, members)
    constraints = []
    for i, beta in enumerate(members, start=1):
        if _is_neg_simple(sys, beta):
            constraints.append((sign_vector(r, [i]), -1))
    # beta_b - beta_a = 2 alpha needs equal parity vectors, so only those pairs are
    # tried.  Swapping a and b negates alpha, and alpha and -alpha are never both
    # negated simple roots, so each pair passes in at most one order
    by_parity = {}
    for b, beta_b in enumerate(members, start=1):
        by_parity.setdefault(tuple(c & 1 for c in beta_b), []).append((b, beta_b))
    for a, beta_a in enumerate(members, start=1):
        for b, beta_b in by_parity[tuple(c & 1 for c in beta_a)]:
            if a == b:
                continue
            alpha = tuple(c // 2 for c in _sub(beta_b, beta_a))
            if not _is_neg_simple(sys, alpha):
                continue
            if not _rank_two_b2(sys, beta_b, alpha):
                continue
            # facet value of alpha: half the difference of the chamber values
            if (chamber.value(beta_b) - chamber.value(beta_a)) % 4 != 0:
                continue
            constraints.append((sign_vector(r, [a, b]), -1))
    constraints += [(action, 1) for action in coroot_actions]
    return constraints


def solve_character(r, constraints):
    """GF(2) solve for the character satisfying the given sign constraints.

    Raises AmbiguousConstraints when the constraint vectors do not span,
    InconsistentConstraints when they contradict.
    """
    rows = []
    for vec, sign in constraints:
        if sign not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        rows.append((vec.bits, 1 if sign == -1 else 0, [vec]))
    # Gauss-Jordan on insertion: every pivot row is zero on the other pivot columns
    pivots = {}
    for bits, rhs, origin in rows:
        cur_bits, cur_rhs, cur_origin = bits, rhs, list(origin)
        for col, (pbits, prhs, porigin) in pivots.items():
            if cur_bits >> col & 1:
                cur_bits ^= pbits
                cur_rhs ^= prhs
                cur_origin += porigin
        if cur_bits == 0:
            if cur_rhs != 0:
                raise InconsistentConstraints(
                    "constraints contradict", combination=cur_origin
                )
            continue
        col = cur_bits.bit_length() - 1
        for other, (obits, orhs, oorigin) in pivots.items():
            if obits >> col & 1:
                pivots[other] = (obits ^ cur_bits, orhs ^ cur_rhs, oorigin + cur_origin)
        pivots[col] = (cur_bits, cur_rhs, cur_origin)
    if len(pivots) < r:
        free = [i + 1 for i in range(r) if i not in pivots]
        raise AmbiguousConstraints(
            f"constraints span a proper subgroup; free coordinates {free}", free_vectors=free
        )
    dual = 0
    for col, (_, rhs, _) in pivots.items():
        if rhs:
            dual |= 1 << col
    return SignCharacter(dual, r)


# The sign calculus of one type: the sign basis, the sign vectors of the
# simple coroots on it, and the character the constraints solve to.
SolvedCharacter = namedtuple("SolvedCharacter", "members coroot_actions character")


def solved_character(sys):
    """Look up the sign basis once, act on it by the simple coroots (their
    rows, the rows of sys.cartan), and solve the constraints they pin."""
    members = tuple(tables.sign_basis(sys))
    actions = tuple(coroot_action(sys, members, row) for row in sys.cartan)
    character = solve_character(len(members), build_constraints(sys, members, actions))
    return SolvedCharacter(members, actions, character)


# -- cochains ----------------------------------------------------------------


class Cochain(namedtuple("Cochain", "base q profile")):
    """A chamber function invariant under retraction onto the apartment centred at its
    base: profile[d] is its value at gallery distance d from the base, 0 past the end."""

    __slots__ = ()

    def at(self, d):
        return self.profile[d] if d < len(self.profile) else Fraction(0)

    def value(self, chamber):
        return self.at(apartment.distance(self.base, chamber))


def iwahori_vector(c0, q, radius):
    """The normalized vector C -> (-q)^(-d(C0, C)) within the given radius."""
    check_q(q)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return Cochain(c0, q, tuple(Fraction((-1) ** d, q**d) for d in range(radius + 1)))


def panel_sum(panel, f):
    """Near value + q * far value across one panel.

    panel is a pair of adjacent chambers, in either order.  Crossing one wall
    moves one coordinate of h by the ceiling, so the two chambers lie at
    distances d and d + 1 from the base, never at equal distances.
    """
    a, b = panel
    dist = apartment.distance(a, b)
    if dist != 1:
        raise UnsupportedPanel(f"panel chambers are at distance {dist}, not 1")
    d = min(apartment.distance(f.base, a), apartment.distance(f.base, b))
    return f.at(d) + f.q * f.at(d + 1)


def extend_by_harmonicity(c0, value, q, radius):
    """Extend a value at one chamber outward within the given radius by the panel
    equation near + q * far = 0: each step multiplies the last value by -1/q."""
    check_q(q)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    profile = [Fraction(value)]
    for _ in range(radius):
        profile.append(-profile[-1] / q)
    return Cochain(c0, q, tuple(profile))


# -- class values and wall ratios ---------------------------------------------


def a2n_class_value(k, q, base):
    """Constant value on a class reached after k steps of the support recursion.

    k = 0 is the reference class; one step divides by (1 - q); every later
    step multiplies by 2/(1 - q).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    check_q(q)
    base = Fraction(base)
    return base if k == 0 else base * Fraction(2, 1 - q) ** k / 2


R1R2Result = namedtuple("R1R2Result", "r1 r2")


def r1_r2(sys):
    """Wall counts between adjacent fixed facets, total and even-height.

    Defined when the sign basis does not span, so that its fixed facet is
    positive-dimensional.  Checks independence of the separating direction
    and the doubling relation r1 = 2 r2.
    """
    members = tables.sign_basis(sys)
    levi = set(levi_support(sys, members))
    if len(levi) == sys.type.rank:
        raise NotApplicable(f"{sys.type} has no positive-dimensional fixed subcomplex")
    outside = [i for i in range(sys.type.rank) if i not in levi]
    counts = []
    for i in outside:
        alpha = sys.simples[i]
        cls = [
            beta
            for beta in sys.roots
            if all((beta[k] - alpha[k]) == 0 for k in range(sys.type.rank) if k not in levi)
        ]
        r1 = len(cls)
        r2 = sum(1 for beta in cls if sum(beta) % 2 == 0)
        counts.append((r1, r2))
    if len(set(counts)) != 1:
        raise AssertionError(f"wall counts depend on the direction: {counts}")
    r1, r2 = counts[0]
    if not (r2 < r1 and r1 == 2 * r2):
        raise AssertionError(f"expected r2 < r1 = 2 r2, got {counts[0]}")
    return R1R2Result(r1=r1, r2=r2)
