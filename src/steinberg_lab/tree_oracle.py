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

The panel checks walk the interior panels level by level (`panel_levels`)
and build each depth's chamber values once, as constant runs, never as a
table.  The distances to a reference chamber are at most 2m + 1 runs per
level (`_level_runs`): the nested id ranges of the reference's m + 1
ancestors.  The hctest maps each run through a power table to an exact
scaled int, the Iwahori check is the hctest with the base chamber as its
one reference, and the harmonic extension is one exact `Fraction` run per
depth-one subtree (`_extension_runs`).  A level folds its children's runs,
q ids to a panel, into runs of star sums, and the next level reads the same
runs as its own (`_panel_failures`): panels over constant runs pass or fail
at once.  The shell counts add up the base chamber's runs over the ball's
range, and one chamber's distance is the last run of its level cut at it
(`_run_distance`), which the axis check reads along the apartment.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction

from .errors import NotHarmonicBase, NotInBall, check_q


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

    def children(self, v):
        n = self.depth(v)
        if n == len(self.starts) - 2:
            raise NotInBall(f"vertex {v} at the last constructed depth {n} has no addressable children")
        if n == 0:
            return list(range(1, self.q + 2))
        base = self.starts[n + 1] + (v - self.starts[n]) * self.q
        return list(range(base, base + self.q))

    # -- chambers ---------------------------------------------------------

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
        """Vertices whose full star lies inside the ball, as (depth, width)
        levels from the root down, each the first width ids of its depth.

        These are all vertices of depth < radius plus, at depth radius, the
        ones under vertex 1 (whose child chambers sit at distance radius).
        """
        r, s = self.radius, self.starts
        top = r - 1 if max_depth is None else min(r - 1, max_depth)
        levels = [(n, s[n + 1] - s[n]) for n in range(top + 1)]
        if r and (max_depth is None or max_depth >= r):
            levels.append((r, self.qpow[r - 1]))
        return levels

    def axis_chamber(self, offset):
        """Apartment chamber at the given signed offset from the base, on the
        first-child chains below vertex 1 (offset >= 0) and vertex 2."""
        n = offset + 1 if offset >= 0 else -offset
        if n > len(self.starts) - 2:
            raise NotInBall(f"axis offset {offset} beyond the constructed ball")
        return self.starts[n] if offset >= 0 else self.starts[n] + self.qpow[n - 1]


def build_ball(q, radius):
    """Construct the ball of the given radius around the base chamber."""
    check_q(q)
    if type(radius) is not int or radius < 0:
        raise ValueError(f"radius must be a nonnegative int, not {radius!r}")
    return TreeBall(q, radius)


def chamber_count_by_distance(ball):
    """Exact shell counts: the base chamber's level runs (`_level_runs`) added up
    by distance over the ball's ids, depths 1 to r and the first q^r at r + 1."""
    r, s = ball.radius, ball.starts
    counts = [0] * (r + 1)
    for n in range(1, r + 2):
        width = s[n + 1] - s[n] if n <= r else ball.qpow[r]
        for d, length in _level_runs(ball, 1, n, width):
            counts[d] += length
    return counts


HctestReport = namedtuple("HctestReport", "q panels_checked references_checked failures")


def _level_runs(ball, ref, depth, count):
    """The distances to the chamber ref of the first count chambers at depth
    (>= 1), as (distance, length) runs in id order: at most 2m + 1 runs,
    m = depth(ref), none empty.

    ref's ancestors a_0 (the root), ..., a_m = ref each cover one id range
    of the level, nested: a_k (k >= 1) covers the q^(depth-k) ids from
    s[depth] + (a_k - s[k]) q^(depth-k) on, where a_k - s[k] is
    (ref - s[m]) // q^(m-k), and the root all of them.  With K = min(depth, m),
    the chambers under a_k but not under a_(k+1) (k < K) sit at
    m + depth - 2k - 1, on both sides of the range of a_K, which sits at
    m - depth (the one vertex a_depth) or depth - m (under ref).  The hctest
    maps each run through its power table, and `_panel_failures` sums them.
    """
    s, qpow = ball.starts, ball.qpow
    m = ball.depth(ref)
    K = min(depth, m)
    # lo[k], hi[k]: the range of a_k, relative to the level's first id
    lo, hi = [0], [s[depth + 1] - s[depth]]
    for k in range(1, K + 1):
        lo.append((ref - s[m]) // qpow[m - k] * qpow[depth - k])
        hi.append(lo[k] + qpow[depth - k])
    runs = [(m + depth - 2 * k - 1, lo[k + 1] - lo[k]) for k in range(K)]
    runs.append((abs(m - depth), hi[K] - lo[K]))
    runs += [(m + depth - 2 * k - 1, hi[k] - hi[k + 1]) for k in reversed(range(K))]
    cut = []
    for d, length in runs:
        length = min(length, count)
        if length:
            cut.append((d, length))
            count -= length
    return cut


def _run_distance(ball, ref, c):
    """The distance from chamber c to the chamber ref: the runs of c's level,
    cut to the prefix that ends at c, end with c's run."""
    n = ball.depth(c)
    return _level_runs(ball, ref, n, c - ball.starts[n] + 1)[-1][0]


def _panel_failures(ball, levels, runs):
    """How many panels in levels have a nonzero sum over their star, where
    runs(n, count) gives the values of the first count chambers at depth n
    as (value, length) runs in id order; each depth is asked once.

    The root's star is the q + 1 chambers at depth 1.  A panel w at depth
    n >= 1 has the star w plus the next q ids of depth n + 1, so the runs
    of depth n + 1 fold into runs of per-panel sums (`_child_sums`) and are
    then the next level's own runs.  Both values are constant over each
    stretch of the merge, which fails as a whole or not at all.
    """
    if not levels:
        return 0
    q = ball.q
    children = runs(1, q + 1)
    failures = int(sum(x * length for x, length in children) != 0)
    for n, width in levels[1:]:
        own = iter(children)
        children = runs(n + 1, q * width)
        left = 0
        for total, panels in _child_sums(children, q):
            while panels:
                if not left:
                    x, left = next(own)
                step = min(left, panels)
                if x + total:
                    failures += step
                left -= step
                panels -= step
    return failures


def _child_sums(children, q):
    """The runs of a level's children, q ids to a panel, folded into
    (sum, panels) runs; a panel whose children straddle a run boundary gets
    a run of its own."""
    total = filled = 0
    for x, length in children:
        if filled:
            step = min(q - filled, length)
            total, filled, length = total + x * step, filled + step, length - step
            if filled < q:
                continue
            yield total, 1
        if length >= q:
            yield x * q, length // q
        total, filled = x * (length % q), length % q


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
    power = [(-1) ** d * q ** (top - d) for d in range(top + 1)]

    def power_runs(ref):
        return lambda n, count: [(power[d], length) for d, length in _level_runs(ball, ref, n, count)]

    failures = sum(_panel_failures(ball, levels, power_runs(ref)) for ref in refs)
    panels = sum(width for _, width in levels)
    return HctestReport(q=q, panels_checked=panels, references_checked=len(refs), failures=failures)


def star_distances(ball, w, ref):
    """Distances from every chamber of the panel star of w to the chamber ref,
    each the last of its level's runs (`_run_distance`).  Agrees with the
    pairwise distance (cross-checked in tests).  No command runs it; perfbench names it.
    """
    return [_run_distance(ball, ref, c) for c in ball.panel_chambers(w)]


def verify_hctest(ball, r_inner, panel_depth=None):
    """Sum of (-q)^(-d(C, C')) over each panel's chambers, for many C'.

    Every sum must vanish exactly; sums are evaluated in scaled integers.
    The references C' are the chambers within r_inner of the base; their
    distance runs are summed over the interior panels (down to panel_depth).
    """
    if not 0 <= r_inner < ball.radius:
        raise ValueError(f"r_inner {r_inner} at radius {ball.radius}: need 0 <= r_inner < radius")
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


ExtensionReport = namedtuple("ExtensionReport", "q panels_checked failures")


def _extension_runs(ball, base, depth, count):
    """The harmonic extension of base over the first count chambers at depth
    (>= 1), as (value, length) runs: a chamber under the depth-one chamber a
    has the value base[a] (-1/q)^(depth-1), and depth-one subtrees fill
    contiguous blocks of q^(depth-1) ids."""
    decay = Fraction(-1, ball.q) ** (depth - 1)
    full, rest = divmod(count, ball.qpow[depth - 1])
    runs = [(base[a] * decay, ball.qpow[depth - 1]) for a in range(1, full + 1)]
    return runs + [(base[full + 1] * decay, rest)] if rest else runs


def verify_extension(ball, base_values):
    """Panel sums of the harmonic extension vanish at every interior panel."""
    if sum(base_values.values(), Fraction(0)) != 0:
        raise NotHarmonicBase("base values do not sum to zero at the root panel")
    for a in range(1, ball.q + 2):
        if a not in base_values:
            raise NotInBall(f"chamber {a} does not resolve to the root panel")
    levels = ball.panel_levels()
    failures = _panel_failures(ball, levels, lambda n, k: _extension_runs(ball, base_values, n, k))
    panels = sum(width for _, width in levels)
    return ExtensionReport(q=ball.q, panels_checked=panels, failures=failures)


def verify_iwahori_harmonic(ball, panel_depth=None):
    """Interior panel sums of the base Iwahori vector vanish: the hctest
    panel sums with the base chamber as the only reference."""
    return _hctest(ball, [1], panel_depth)


def shell_abs_sums(q, counts):
    """Per-shell sums of |base Iwahori values| from the shell counts
    (`chamber_count_by_distance`); constant 2 beyond the base."""
    return [Fraction(c, q**n) for n, c in enumerate(counts)]
