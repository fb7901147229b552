"""Exact rank-one building: a (q+1)-regular tree of chambers.

Chambers are edges of the infinite rooted (q+1)-regular vertex tree and
panels are vertices.  The tree is addressed arithmetically (level-order
ids), so balls of a million chambers need no adjacency storage.

Vertex ids: 0 is the root; level n >= 1 holds (q+1) q^(n-1) vertices in
level order, children of earlier parents first.  Every vertex v >= 1 names
the chamber {v, parent(v)}.  The base chamber is vertex 1; the embedded
apartment runs through vertices 1 and 2 by repeated first children.
The chambers within r of the base are the ids 1 up to the q^r chambers
under vertex 1 at depth r + 1, which begin their level, so a ball is one
id range (`TreeBall.chambers`).

The panel checks walk the interior panels level by level (`panel_levels`).
Each reference chamber gets one table of chamber distances
(`_chamber_distances`), mapped through a power table to exact scaled ints;
the Iwahori check is the base chamber's table, and the extension check
lays its values out as one block per depth-one subtree.  A level of panels
then sums as q strided slices of the level below (`_panel_failures`).
The shell counts count the base chamber's table over the ball's range.
`chamber_distance` is the pairwise definition tests compare with.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction

from .errors import BudgetExceeded, NotHarmonicBase, NotInBall, check_q, read_budget

MAX_RADIUS = 12
_CHAMBER_BUDGET = 3_000_000


class TreeBall:
    """The chambers within radius of the base, addressed by level-order ids."""

    def __init__(self, q, radius):
        self.q = q
        self.radius = radius
        # starts[n] is the first id at depth n, one level beyond the chamber
        # ball so every star is addressable
        self.starts = [0, 1]
        for n in range(1, radius + 3):
            self.starts.append(self.starts[-1] + (q + 1) * q ** (n - 1))
        self.qpow = [q**n for n in range(radius + 4)]

    # -- arithmetic addressing ------------------------------------------

    def depth(self, v):
        if v < 0:
            raise NotInBall(f"vertex {v} is not a vertex id (ids start at 0)")
        n = bisect_right(self.starts, v) - 1
        if n >= len(self.starts) - 1:
            raise NotInBall(f"vertex {v} beyond the constructed ball")
        return n

    def parent(self, v):
        n = self.depth(v)
        if n == 0:
            raise ValueError("the root has no parent")
        if n == 1:
            return 0
        return self.starts[n - 1] + (v - self.starts[n]) // self.q

    def children(self, v):
        n = self.depth(v)
        if n == 0:
            return list(range(1, self.q + 2))
        base = self.starts[n + 1] + (v - self.starts[n]) * self.q
        return list(range(base, base + self.q))

    def vertex_distance(self, a, b):
        da, db = self.depth(a), self.depth(b)
        dist = 0
        while da > db:
            a = self.parent(a)
            da -= 1
            dist += 1
        while db > da:
            b = self.parent(b)
            db -= 1
            dist += 1
        while a != b:
            a = self.parent(a)
            b = self.parent(b)
            dist += 2
        return dist

    # -- chambers ---------------------------------------------------------

    def chamber_distance(self, c1, c2):
        """One more than the least distance between an end of c1 and an end of c2."""
        if c1 == c2:
            return 0
        a, b = (c1, self.parent(c1)), (c2, self.parent(c2))
        return 1 + min(self.vertex_distance(x, y) for x in a for y in b)

    def chambers(self, radius=None):
        """The ids of the chambers within radius (at most the ball's, its
        default) of the base, as one range.

        Depth n <= radius is entirely inside; at depth radius + 1 only the
        q^radius chambers under vertex 1 (distance exactly radius) belong,
        and they begin their level.
        """
        r = self.radius if radius is None else radius
        if not 0 <= r <= self.radius:
            raise ValueError(f"radius {r} outside the ball's 0 to {self.radius}")
        return range(1, self.starts[r + 1] + self.qpow[r])

    def panel_chambers(self, w):
        """The q+1 chambers incident to the panel (vertex) w."""
        if w == 0:
            return self.children(0)
        return [w] + self.children(w)

    def panel_levels(self, max_depth=None):
        """Vertices whose full star lies inside the ball, as (depth, first, stop) ranges.

        These are all vertices of depth < radius plus, at depth radius, the
        ones under vertex 1 (whose child chambers sit at distance radius).
        Every range begins its level, so the children of a range are the
        first ids of the next level.
        """
        r, s = self.radius, self.starts
        top = r - 1 if max_depth is None else min(r - 1, max_depth)
        levels = [(n, s[n], s[n + 1]) for n in range(top + 1)]
        if r and (max_depth is None or max_depth >= r):
            levels.append((r, s[r], s[r] + self.qpow[r - 1]))
        return levels

    def axis_chamber(self, offset):
        """Apartment chamber at the given signed offset from the base."""
        if offset == 0:
            return 1
        v = 1 if offset > 0 else 2
        steps = offset if offset > 0 else -offset - 1
        for _ in range(steps):
            v = self.children(v)[0]
        return v


def build_ball(q, radius):
    """Construct the ball of the given radius around the base chamber."""
    check_q(q)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius > MAX_RADIUS:
        raise BudgetExceeded(f"radius {radius} beyond the supported {MAX_RADIUS}")
    total = 1 + sum(2 * q**n for n in range(1, radius + 1))
    budget = read_budget(_CHAMBER_BUDGET)
    if total > budget:
        raise BudgetExceeded(f"{total} chambers exceed the budget of {budget}")
    return TreeBall(q, radius)


def tree_distance(ball, c1, c2):
    inside = ball.chambers()
    for c in (c1, c2):
        if c < 1:
            raise NotInBall(f"{c} names no chamber (vertex 0 is the root, chambers start at 1)")
        if c not in inside:
            raise NotInBall(
                f"chamber {c} outside the ball of radius {ball.radius}"
                f" (chamber ids {inside.start} to {inside.stop - 1})"
            )
    return ball.chamber_distance(c1, c2)


def chamber_count_by_distance(ball):
    """Exact shell counts: the base chamber's distance table, counted over
    the ball's ids (E[0], the root's dummy, is no chamber)."""
    inside = ball.chambers()
    # at radius 0 no panel is interior, but the root's star still holds the base
    E = _chamber_distances(ball, 1, ball.panel_levels() or [(0, 0, 1)])
    shells = E[inside.start : inside.stop]
    return [shells.count(d) for d in range(ball.radius + 1)]


HctestReport = namedtuple("HctestReport", "q panels_checked references_checked failures")


def _chamber_distances(ball, ref, levels):
    """E[v] = the distance from chamber v to the chamber ref, for every
    chamber in the stars of levels (ranges as `panel_levels` gives them).

    A chamber is one step further from ref than its parent chamber, except
    where the path from the root to ref enters vertex v at depth n + 1:
    v and its siblings share the path vertex at depth n, so the siblings
    sit at m - n and v at m - n - 1 (m = depth(ref)), which is 0 at ref.
    E[0] = m - 1 is a dummy for the root, whose q + 1 children are
    mutually adjacent.
    """
    q, s = ball.q, ball.starts
    m = ball.depth(ref)
    E = [m - 1]
    for n, first, stop in levels:
        width, down = (q + 1 if n == 0 else q), len(E)
        grown = [e + 1 for e in E[first:stop]]
        E += [0] * (width * len(grown))
        for j in range(width):
            E[down + j :: width] = grown
        if n < m:
            v = s[n + 1] + (ref - s[m]) // ball.qpow[m - n - 1]
            if v < len(E):
                block = v - (v - down) % width
                E[block : block + width] = [m - n] * width
                E[v] = m - n - 1
    return E


def _panel_failures(ball, levels, X):
    """How many panels in levels have a nonzero sum of X over their star.

    A panel w at depth n >= 1 has the star w plus its q children, which
    sit at stride q in the next level; so a level of panels sums as its
    own slice of X plus q strided slices of the level below.
    """
    q, s = ball.q, ball.starts
    failures = 0
    for n, first, stop in levels:
        if n == 0:
            failures += sum(X[1 : q + 2]) != 0
            continue
        down = s[n + 1]
        end = down + q * (stop - first)
        sums = X[first:stop]
        for j in range(q):
            sums = list(map(operator.add, sums, X[down + j : end : q]))
        failures += len(sums) - sums.count(0)
    return failures


def _hctest(ball, refs, panel_depth):
    """Panel failures of (-q)^(-d(C, ref)) over the interior panels (down
    to panel_depth), summed over the refs, as a report.

    Scaled by q^top, top the depth of the deepest reference plus that of
    the deepest star chamber, every term is an int: no distance reaches top.
    """
    if panel_depth is not None and panel_depth < 0:
        raise ValueError(f"panel_depth {panel_depth} is negative")
    q = ball.q
    levels = ball.panel_levels(panel_depth)
    top = ball.depth(max(refs)) + len(levels)
    power = [(-1) ** d * q ** (top - d) for d in range(top + 1)].__getitem__
    failures = sum(
        _panel_failures(ball, levels, list(map(power, _chamber_distances(ball, ref, levels))))
        for ref in refs
    )
    panels = sum(stop - first for _, first, stop in levels)
    return HctestReport(q=q, panels_checked=panels, references_checked=len(refs), failures=failures)


def star_distances(ball, w, ref):
    """Distances from every chamber of the panel star of w to the chamber ref.

    Reads the distance table of `verify_hctest`, built down to the children
    of w, so one call costs as much as the ball there.  Agrees with
    chamber_distance (cross-checked in tests).  No command runs it; perfbench names it.
    """
    n, s = ball.depth(w), ball.starts
    levels = [(k, s[k], s[k + 1]) for k in range(n)] + [(n, s[n], w + 1)]
    E = _chamber_distances(ball, ref, levels)
    return [E[c] for c in ball.panel_chambers(w)]


def verify_hctest(ball, r_inner, panel_depth=None):
    """Sum of (-q)^(-d(C, C')) over each panel's chambers, for many C'.

    Every sum must vanish exactly; sums are evaluated in scaled integers.
    The references C' are the chambers within r_inner of the base; each
    gets one distance table over the interior panels (down to panel_depth).
    """
    if not 0 <= r_inner < ball.radius:
        raise ValueError("need 0 <= r_inner and r_inner + 1 <= radius")
    return _hctest(ball, ball.chambers(r_inner), panel_depth)


def legendre_base(ball):
    """The sign cochain on the q+1 chambers at the root panel.

    The two apartment chambers get 0; the remaining q-1 get +/-1 split
    evenly, by quadratic-residue labels when q is prime (Euler's criterion:
    i is a residue iff i^((q-1)/2) = 1 mod q), by alternating signs otherwise.
    """
    q = ball.q
    values = {1: Fraction(0), 2: Fraction(0)}
    others = [c for c in ball.panel_chambers(0) if c not in (1, 2)]
    prime = all(q % f for f in range(2, math.isqrt(q) + 1))
    for i, c in enumerate(others, start=1):
        residue = pow(i, (q - 1) // 2, q) == 1 if prime else i % 2
        values[c] = Fraction(1 if residue else -1)
    if sum(values.values()) != 0:
        raise AssertionError("panel sum of the base cochain must vanish")
    return values


def _integer_base(base_values):
    """The base values times their common denominator, as ints.

    Raises NotHarmonicBase unless they sum to zero at the root panel.
    """
    if sum(base_values.values(), Fraction(0)) != 0:
        raise NotHarmonicBase("base values do not sum to zero at the root panel")
    den = math.lcm(*(Fraction(v).denominator for v in base_values.values()))
    return {a: int(Fraction(v) * den) for a, v in base_values.items()}


ExtensionReport = namedtuple("ExtensionReport", "q panels_checked failures")


def _extension_values(ball, b, depth):
    """q^(depth-1) times the harmonic extension of the integer base b, over
    every vertex id of depth <= depth (the root, no chamber, gets 0).

    A chamber at depth k under the depth-one chamber a has the value
    b[a] (-q)^(1-k).  Depth-one subtrees fill contiguous blocks of q^(k-1)
    ids on each level, so a level is q + 1 repeated blocks.
    """
    q = ball.q
    X = [0]
    for k in range(1, depth + 1):
        scale = (-1) ** (k - 1) * q ** (depth - k)
        for a in range(1, q + 2):
            X += [b[a] * scale] * q ** (k - 1)
    return X


def verify_extension(ball, base_values):
    """Panel sums of the harmonic extension vanish at every interior panel."""
    b = _integer_base(base_values)
    for a in range(1, ball.q + 2):
        if a not in b:
            raise NotInBall(f"chamber {a} does not resolve to the root panel")
    levels = ball.panel_levels()
    X = _extension_values(ball, b, len(levels))
    failures = _panel_failures(ball, levels, X)
    panels = sum(stop - first for _, first, stop in levels)
    return ExtensionReport(q=ball.q, panels_checked=panels, failures=failures)


def verify_iwahori_harmonic(ball, panel_depth=None):
    """Interior panel sums of the base Iwahori vector vanish: the hctest
    panel sums with the base chamber as the only reference."""
    return _hctest(ball, [1], panel_depth)


def shell_abs_sums(q, counts):
    """Per-shell sums of |base Iwahori values| from the shell counts
    (`chamber_count_by_distance`); constant 2 beyond the base."""
    return [Fraction(c, q**n) for n, c in enumerate(counts)]
