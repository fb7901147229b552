"""The standard apartment at both levels, encoded by half-unit functions.

A chamber stores h(alpha) = 2 f(alpha) for the positive roots only, so walls
of the fine (E) level sit at integer h and walls of the coarse (F) level at
even h.  The level fixes the negative half: h(-a) = ceiling - h(a), with
ceiling 1 at the fine level and 2 at the coarse level.  A vector is a
chamber iff 0 <= h(a) + h(b) - h(a+b) <= ceiling for positive a, b, a+b
(Shi 1987).  Crossing the wall of a root a raises h(a) by the ceiling, so
one pass over the slacks of those inequalities finds the d+1 facet roots.
The gallery distance is the sum of |h - h'| over the ceiling, so each wall
step moves the distance from any fixed chamber by exactly one: a ball is
walked outward on the tuples alone, shell n + 1 being the steps out of
shell n that move h away from the centre.  The gallery metric, translations,
reflections and the special chambers of type A with even rank all operate
on these integer tuples.  Central chambers are a closed form, checked
against the brute filter over 2^d fine chambers.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul, sub

from .errors import (
    HalfIntegralityViolation,
    LevelMismatch,
    NotARoot,
    NotAWall,
    NotTypeA2n,
)
from .rootsys import _neg

E_LEVEL = "E"
F_LEVEL = "F"


class Chamber(namedtuple("Chamber", "system level h")):
    """An alcove of the apartment at one level.

    h holds h(alpha) for alpha in system.positive_roots, in that order.  Equal
    chambers share their system object, which `rootsys.build` caches per type.
    """

    __slots__ = ()

    def __new__(cls, system, level, h):
        h = tuple(h)
        if len(h) != len(system.positive_roots):
            raise ValueError("h must assign a value to every positive root")
        if level == F_LEVEL:
            if any(v % 2 for v in h):
                raise ValueError("not a coarse-level chamber: odd h")
        elif level != E_LEVEL:
            raise ValueError(f"level must be {E_LEVEL!r} or {F_LEVEL!r}, not {level!r}")
        return super().__new__(cls, system, level, h)

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


def check_concave(chamber):
    """Shi's alcove test on the positive sum triples; h(-a) = ceiling - h(a) turns
    every other sign and order pattern of a root sum into one of its two bounds.
    The tests' alcove test; no command runs it, and perfbench reads it by name."""
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
    total = sum(map(abs, map(sub, c1.h, c2.h)))
    return total if c1.level == E_LEVEL else total // 2


def translate(chamber, xi):
    """Translate by a coweight row xi: h(alpha) += 2 <alpha, xi>, one integer pairing
    per root once `RootSystem.coweight` has checked xi, which raises for a fractional
    or a wrong-length row."""
    sys = chamber.system
    xi = sys.coweight(xi)
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


def _facet_steps(sys, h, top):
    """(root index, position p, step) for each facet root of the chamber h at ceiling
    top, in root order: crossing that root's wall moves h[p] by step.  On a chamber
    each sum triple's slack h(i) + h(j) - h(k) is 0 or the ceiling, so one pass over
    the slacks finds the facet roots: raising h(p) keeps Shi's test iff the slack is
    the ceiling where k = p and 0 where p is i or j, lowering iff the reverse."""
    half = len(h)
    no_raise, no_lower = bytearray(half), bytearray(half)
    for i, j, k in sys.positive_sum_triples:
        if h[i] + h[j] - h[k]:
            no_raise[i] = no_raise[j] = no_lower[k] = 1
        else:
            no_lower[i] = no_lower[j] = no_raise[k] = 1
    # negatives fill the first half of the sorted roots, at the mirror index of
    # their opposites; raising h(-a) lowers h(a)
    for p in reversed(range(half)):
        if not no_lower[p]:
            yield half - 1 - p, p, -top
    for p in range(half):
        if not no_raise[p]:
            yield half + p, p, top


def wall_neighbors(chamber):
    """The neighbours of a chamber (the input must be one), keyed by its facet roots in
    root order.  Crossing the wall of r moves h(r) by the ceiling."""
    sys, level, h = chamber.system, chamber.level, chamber.h
    return {
        sys.roots[i]: Chamber(sys, level, h[:p] + (h[p] + step,) + h[p + 1 :])
        for i, p, step in _facet_steps(sys, h, chamber.ceiling)
    }


def extended_simple_roots(chamber):
    """The d+1 facet roots of the chamber, read off the slack pass in root order."""
    sys = chamber.system
    return [sys.roots[i] for i, _, _ in _facet_steps(sys, chamber.h, chamber.ceiling)]


def _h_shells(c0, radius):
    """The h tuples of the shells of `chambers_within`, each shell sorted."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    sys, h0, top = c0.system, c0.h, c0.ceiling
    shells = [[h0]]
    for _ in range(radius):
        nxt = set()
        for h in shells[-1]:
            for _, p, step in _facet_steps(sys, h, top):
                v = h[p] + step
                if abs(v - h0[p]) > abs(h[p] - h0[p]):
                    nxt.add(h[:p] + (v,) + h[p + 1 :])
        shells.append(sorted(nxt))
    return shells


def chambers_within(c0, radius):
    """All chambers at gallery distance <= radius, grouped by distance, each shell
    sorted by h.  Crossing a wall moves one coordinate of h by the ceiling, so it
    moves the distance from c0 by exactly one: shell n + 1 is the steps out of shell
    n that move h away from c0.h.  The walk runs on h tuples with no visited set
    (`_h_shells`) and builds one Chamber per chamber it returns."""
    sys, level = c0.system, c0.level
    return [[c0]] + [[Chamber(sys, level, h) for h in shell] for shell in _h_shells(c0, radius)[1:]]


def _det(rows):
    """Determinant of a square integer matrix by Bareiss's fraction-free elimination
    (every division is exact)."""
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        swap = next((i for i in range(k, len(m)) if m[i][k]), None)
        if swap is None:
            return 0
        if swap != k:
            m[k], m[swap], sign = m[swap], m[k], -sign
        top = m[k]
        for row in m[k + 1 :]:
            f = row[k]
            for j in range(k + 1, len(m)):
                row[j] = (row[j] * top[k] - f * top[j]) // prev
        prev = top[k]
    return sign * m[-1][-1]


def affine_relation(chamber):
    """Minimal positive integer relation among the facet roots.

    Returns (roots, coefficients) with sum_i coeff_i * root_i = 0.  The d + 1 facet
    roots span a d-dimensional space, so the relation is the integer null vector
    of their matrix: the signed d x d cofactors (-1)^i det(the roots but root_i),
    divided by their gcd and made positive.
    """
    ext = extended_simple_roots(chamber)
    rel = [(-1) ** i * _det(ext[:i] + ext[i + 1 :]) for i in range(len(ext))]
    g = gcd(*rel)
    if not g:
        raise AssertionError("facet roots are not affinely related")
    if rel[0] < 0:
        g = -g
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


def central_chamber(cf):
    """The unique fine chamber of cf with no wall in a coarse wall (type A, rank 2n): the
    one holding cf's barycentre.  Start from s[k] = k over the 0-indexed coordinates; each
    positive root eps_k - eps_l of coarse value v moves v // 2 from s[l] to s[k].  The
    barycentre orders the coordinates cyclically by s mod 2n + 1, which is odd, so it lies
    on no fine wall: the fine value on eps_k - eps_l is v less one iff (s[k] - s[l]) mod
    (2n + 1) <= n.  At the base this is the interleaving sigma, whose slot of coordinate k
    (counted from 1) is 2k mod 2n + 1.  The brute filter (e_chambers_in_f_chamber with
    is_central) is the reference; Humphreys, Reflection Groups and Coxeter Groups, ch. 4."""
    sys = cf.system
    if not (sys.type.family == "A" and sys.type.rank % 2 == 0):
        raise NotTypeA2n(f"central chambers exist only in type A of even rank, not {sys.type}")
    if cf.level != F_LEVEL:
        raise LevelMismatch("expected a coarse-level chamber")
    n = sys.type.rank // 2
    s = list(range(2 * n + 1))
    ends = [(r.index(1), r.index(1) + sum(r)) for r in sys.positive_roots]
    for (k, l), v in zip(ends, cf.h):
        s[k] += v // 2
        s[l] -= v // 2
    h = (v - ((s[k] - s[l]) % (2 * n + 1) <= n) for (k, l), v in zip(ends, cf.h))
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
    # sum_i v_i <alpha, beta_i_vee> is alpha's dot product with one row
    row = [sum(map(mul, vals2, col)) for col in zip(*map(sys.coroot, members))]
    out = {}
    for alpha in sys.positive_roots:
        v2, odd = divmod(sum(map(mul, alpha, row)), 2)
        if odd:
            raise HalfIntegralityViolation(f"functional value at {alpha} is not a half-integer")
        out[alpha] = v2
        out[_neg(alpha)] = -v2
    return out
