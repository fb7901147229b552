"""The standard apartment at both levels, encoded by half-unit functions.

A chamber stores h(alpha) = 2 f(alpha) for the positive roots only, so walls
of the fine (E) level sit at integer h and walls of the coarse (F) level at
even h.  The level fixes the negative half: h(-a) = ceiling - h(a), with
ceiling 1 at the fine level and 2 at the coarse level.  A vector is a
chamber iff 0 <= h(a) + h(b) - h(a+b) <= ceiling for positive a, b, a+b
(Shi 1987).  Crossing the wall of a root a raises h(a) by the ceiling, so
one pass over the slacks of those inequalities finds the d+1 facet roots;
the gallery metric, translations, reflections and the special chambers of
type A with even rank all operate on these integer tuples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import (
    HalfIntegralityViolation,
    LevelMismatch,
    NotARoot,
    NotAWall,
    NotTypeA2n,
)
from . import linalg
from .rootsys import _neg

E_LEVEL = "E"
F_LEVEL = "F"


class Chamber:
    """An alcove of the apartment at one level; immutable and hashable.

    h holds h(alpha) for alpha in system.positive_roots, in that order.
    """

    __slots__ = ("system", "level", "h", "_hash")

    def __init__(self, system, level, h):
        self.system = system
        self.level = level
        self.h = tuple(h)
        if len(self.h) != len(system.positive_roots):
            raise ValueError("h must assign a value to every positive root")
        if level == F_LEVEL:
            if any(v % 2 for v in self.h):
                raise ValueError("not a coarse-level chamber: odd h")
        elif level != E_LEVEL:
            raise ValueError(f"level must be {E_LEVEL!r} or {F_LEVEL!r}, not {level!r}")
        self._hash = hash((system.type, level, self.h))

    @property
    def ceiling(self):
        """h(a) + h(-a) for every root a: 1 at the fine level, 2 at the coarse."""
        return 1 if self.level == E_LEVEL else 2

    def value(self, alpha):
        # roots are sorted, so the negatives fill the first half, each at the
        # mirror index of its opposite
        i = self.system.root_index.get(tuple(alpha))
        if i is None:
            raise NotARoot(f"{tuple(alpha)} is not a root of {self.system.type}")
        half = len(self.h)
        if i >= half:
            return self.h[i - half]
        return self.ceiling - self.h[half - 1 - i]

    def __eq__(self, other):
        return (
            isinstance(other, Chamber)
            and self.level == other.level
            and self.system.type == other.system.type
            and self.h == other.h
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Chamber({self.system.type}, {self.level}, {self.h})"


def check_concave(chamber):
    """Shi's alcove test on the positive sum triples; h(-a) = ceiling - h(a) turns
    every other sign and order pattern of a root sum into one of its two bounds."""
    h, top = chamber.h, chamber.ceiling
    return all(0 <= h[i] + h[j] - h[k] <= top for i, j, k in chamber.system.positive_sum_triples)


def base_chambers(system):
    """The reference chambers: h = 0 on positives, 2 (resp. 1) on negatives."""
    zeros = (0,) * len(system.positive_roots)
    return Chamber(system, F_LEVEL, zeros), Chamber(system, E_LEVEL, zeros)


def distance(c1, c2):
    """Gallery distance: separating wall count at the common level."""
    if c1.system.type != c2.system.type:
        raise LevelMismatch("chambers from different systems")
    if c1.level != c2.level:
        raise LevelMismatch("chambers at different levels")
    total = sum(abs(a - b) for a, b in zip(c1.h, c2.h))
    return total if c1.level == E_LEVEL else total // 2


def translate(chamber, xi):
    """Translate by an integral coweight row xi: h(alpha) += 2 <alpha, xi>."""
    sys = chamber.system
    h = (v + 2 * sys.pairing(r, xi) for v, r in zip(chamber.h, sys.positive_roots))
    return Chamber(sys, chamber.level, h)


def reflect(chamber, wall):
    """Reflect across the wall alpha = c/2 (c in half-units).

    h'(beta) = h(s_alpha beta) + c <beta, alpha_vee>.  The tests' reference for the
    wall step; no command runs it, and it stays because perfbench reads it by name.
    """
    alpha, c = wall
    sys = chamber.system
    alpha = sys.check_root(alpha)
    if chamber.level == F_LEVEL and c % 2 != 0:
        raise NotAWall("coarse-level walls sit at even half-units")
    h = (
        chamber.value(sys.reflect_root(alpha, r)) + c * sys.root_pairing(r, alpha)
        for r in sys.positive_roots
    )
    return Chamber(sys, chamber.level, h)


def wall_neighbors(chamber):
    """The neighbours of a chamber (the input must be one), keyed by its facet roots in
    root order.  Crossing the wall of r moves h(r) by the ceiling.  On a chamber each sum
    triple's slack h(i) + h(j) - h(k) is 0 or the ceiling, so one pass over the slacks finds
    the facet roots: raising h(p) keeps Shi's test iff the slack is the ceiling where k = p
    and 0 where p is i or j, lowering iff the reverse."""
    sys, h, top = chamber.system, chamber.h, chamber.ceiling
    half = len(h)
    no_raise, no_lower = bytearray(half), bytearray(half)
    for i, j, k in sys.positive_sum_triples:
        if h[i] + h[j] - h[k]:
            no_raise[i] = no_raise[j] = no_lower[k] = 1
        else:
            no_lower[i] = no_lower[j] = no_raise[k] = 1
    out = {}
    for i, r in enumerate(sys.roots):
        # negatives fill the first half of the sorted roots, at the mirror
        # index of their opposites; raising h(-a) lowers h(a)
        p, step, blocked = (i - half, top, no_raise) if i >= half else (half - 1 - i, -top, no_lower)
        if not blocked[p]:
            out[r] = Chamber(sys, chamber.level, h[:p] + (h[p] + step,) + h[p + 1 :])
    return out


def extended_simple_roots(chamber):
    """The d+1 facet roots of the chamber, sorted."""
    return sorted(wall_neighbors(chamber))


def chambers_within(c0, radius):
    """All chambers at gallery distance <= radius, grouped by distance."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    shells = [[c0]]
    seen = {c0}
    for _ in range(radius):
        nxt = []
        for c in shells[-1]:
            for cand in wall_neighbors(c).values():
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        nxt.sort(key=lambda ch: ch.h)
        shells.append(nxt)
    return shells


def affine_relation(chamber):
    """Minimal positive integer relation among the facet roots.

    Returns (roots, coefficients) with sum_i coeff_i * root_i = 0.
    """
    ext = extended_simple_roots(chamber)
    # every mark is nonzero, so the other d facet roots are a basis
    coords = linalg.solve_exact(ext[1:], ext[0])
    if coords is None:
        raise AssertionError("facet roots are not affinely related")
    den = lcm(*(c.denominator for c in coords))
    rel = [den, *(int(-c * den) for c in coords)]
    g = gcd(*rel)
    rel = [c // g for c in rel]
    if any(c <= 0 for c in rel):
        raise AssertionError("facet relation is not positive")
    return ext, rel


def e_chambers_in_f_chamber(cf):
    """The 2^d fine-level chambers inside a coarse chamber, sorted by h: each fine
    value is the coarse value or one less, fixed root by root in ascending order,
    and a prefix is pruned once a sum triple (i, j, k) ending at the new k fails."""
    if cf.level != F_LEVEL:
        raise LevelMismatch("expected a coarse-level chamber")
    sys = cf.system
    pairs_by_sum = [[] for _ in cf.h]
    for i, j, k in sys.positive_sum_triples:
        pairs_by_sum[k].append((i, j))
    prefixes = [()]
    for v, pairs in zip(cf.h, pairs_by_sum):
        prefixes = [
            p + (x,) for p in prefixes for x in (v - 1, v)
            if all(0 <= p[i] + p[j] - x <= 1 for i, j in pairs)
        ]
    if len(prefixes) != 2 ** sys.type.rank:
        raise AssertionError(f"expected {2 ** sys.type.rank} fine chambers, got {len(prefixes)}")
    return [Chamber(sys, E_LEVEL, h) for h in prefixes]


def is_central(chamber):
    """No wall of the chamber lies inside a coarse wall: all facet values odd."""
    return all(chamber.value(r) % 2 == 1 for r in extended_simple_roots(chamber))


def central_chamber(sys, cf):
    """The unique fine chamber of cf with no wall in a coarse wall (type A, even rank)."""
    if not (sys.type.family == "A" and sys.type.rank % 2 == 0):
        raise NotTypeA2n(f"central chambers exist only in type A of even rank, not {sys.type}")
    hits = [c for c in e_chambers_in_f_chamber(cf) if is_central(c)]
    if len(hits) != 1:
        raise AssertionError(f"expected exactly one central chamber, found {len(hits)}")
    return hits[0]


def central_chamber_sigma(sys):
    """Closed-form central chamber of the base coarse chamber of A_{2n}.

    Builds the interleaving permutation sigma (even slots to 1..n, odd slots
    to n+1..2n+1) and reads off f from the slot parities: for slots i < j,
    2 f(eps_sigma(i) - eps_sigma(j)) = i%2 - j%2, and the opposite root adds
    the fine ceiling 1.
    """
    if not (sys.type.family == "A" and sys.type.rank % 2 == 0):
        raise NotTypeA2n(str(sys.type))
    n = sys.type.rank // 2

    def slot(k):  # sigma^-1(k)
        return 2 * k if k <= n else 2 * (k - n) - 1

    h = []
    for r in sys.positive_roots:
        # r = eps_k - eps_l = alpha_k + ... + alpha_{l-1}
        k = r.index(1) + 1
        i, j = slot(k), slot(k + sum(r))
        h.append((i > j) + i % 2 - j % 2)
    return Chamber(sys, E_LEVEL, h)


def facet_functional(sys, members, values):
    """The facet functional f' with the given values on a full-rank set of
    pairwise orthogonal roots, as the dict from every root to 2 f'(root), in
    half-units like chambers.

    values maps each member to f'(beta_i), which must lie in Z + 1/2 (the
    walls of a fixed facet sit strictly between the coarse wall positions).
    Over an orthogonal basis twice the coordinates of a root alpha are its
    coroot pairings <alpha, beta_i_vee> (Humphreys, Lie Algebras, 9.4), so
    2 f'(alpha) = sum_i <alpha, beta_i_vee> f'(beta_i).  Raises
    HalfIntegralityViolation at the first positive root whose value is not
    a half-integer; f' is linear, so the negative half is the negated
    positive half.
    """
    members = tuple(sys.check_root(m) for m in members)
    if len(members) != sys.type.rank:
        raise ValueError("facet functionals need a full-rank set")
    for a, b in combinations(members, 2):
        if sys.root_pairing(a, b):
            raise ValueError(f"members {a} and {b} are not orthogonal")
    vals2 = []
    for m in members:
        v = Fraction(values[m])
        if (2 * v).denominator != 1 or (2 * v).numerator % 2 == 0:
            raise ValueError(f"value {v} at {m} must be a proper half-integer")
        vals2.append(int(2 * v))
    out = {}
    for alpha in sys.positive_roots:
        v2, odd = divmod(sum(sys.root_pairing(alpha, m) * v for m, v in zip(members, vals2)), 2)
        if odd:
            raise HalfIntegralityViolation(f"functional value at {alpha} is not a half-integer")
        out[alpha] = v2
        out[_neg(alpha)] = -v2
    return out
