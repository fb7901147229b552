"""Exact rank-one building: a (q+1)-regular tree of chambers.

Chambers are edges of the infinite rooted (q+1)-regular vertex tree and
panels are vertices.  The tree is addressed arithmetically (level-order
ids), so balls of a million chambers need no adjacency storage; a fully
materialized graph cross-checks the arithmetic at small q.

Vertex ids: 0 is the root; level n >= 1 holds (q+1) q^(n-1) vertices in
level order, children of earlier parents first.  Every vertex v >= 1 names
the chamber {v, parent(v)}.  The base chamber is vertex 1; the embedded
apartment runs through vertices 1 and 2 by repeated first children.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceeded, NotHarmonicBase, NotInBall, read_budget

MAX_RADIUS = 12
_CHAMBER_BUDGET = 3_000_000


def _legendre(a, p):
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def _is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


@dataclass
class TreeBall:
    q: int
    radius: int
    starts: list = field(default_factory=list)
    qpow: list = field(default_factory=list)

    # -- arithmetic addressing ------------------------------------------

    def level_size(self, n):
        return 1 if n == 0 else (self.q + 1) * self.q ** (n - 1)

    def depth(self, v):
        from bisect import bisect_right

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

    def anc_at_depth_one(self, v):
        # depth-1 subtrees occupy contiguous index ranges on every level
        n = self.depth(v)
        if n == 0:
            raise ValueError("the root has no depth-one ancestor")
        return 1 + (v - self.starts[n]) // self.qpow[n - 1]

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

    def chamber_endpoints(self, c):
        return c, self.parent(c)

    def chamber_distance(self, c1, c2):
        if c1 == c2:
            return 0
        a, pa = self.chamber_endpoints(c1)
        b, pb = self.chamber_endpoints(c2)
        m = min(
            self.vertex_distance(a, b),
            self.vertex_distance(a, pb),
            self.vertex_distance(pa, b),
            self.vertex_distance(pa, pb),
        )
        return m + 1

    def base_distance(self, c):
        """Distance to the base chamber (vertex 1), in O(depth)."""
        if c == 1:
            return 0
        n = self.depth(c)
        return n - 1 if self.anc_at_depth_one(c) == 1 else n

    def chambers(self):
        """All chamber ids in the ball, level by level.

        Depth n <= radius is entirely inside; at depth radius + 1 only the
        chambers under vertex 1 (distance exactly radius) belong.
        """
        for n in range(1, self.radius + 1):
            yield from range(self.starts[n], self.starts[n + 1])
        n = self.radius + 1
        yield from range(self.starts[n], self.starts[n] + self.qpow[n - 1])

    def panel_chambers(self, w):
        """The q+1 chambers incident to the panel (vertex) w."""
        if w == 0:
            return self.children(0)
        return [w] + self.children(w)

    def interior_panels(self, max_depth=None):
        """Vertices whose full star lies inside the ball.

        These are all vertices of depth < radius plus, at depth radius, the
        ones under vertex 1 (whose child chambers sit at distance radius).
        """
        top = self.radius - 1
        if max_depth is not None:
            top = min(top, max_depth)
        yield 0
        for n in range(1, top + 1):
            yield from range(self.starts[n], self.starts[n + 1])
        if max_depth is None or max_depth >= self.radius:
            n = self.radius
            yield from range(self.starts[n], self.starts[n] + self.qpow[n - 1])

    def axis_chamber(self, offset):
        """Apartment chamber at the given signed offset from the base."""
        if offset == 0:
            return 1
        v = 1 if offset > 0 else 2
        steps = offset if offset > 0 else -offset - 1
        for _ in range(steps):
            v = self.children(v)[0]
        return v

    def in_subtree(self, x, v):
        """Is vertex x in the subtree rooted at v (inclusive)?  O(1)."""
        if v == 0:
            return True
        dv_ = self.depth(v)
        dx = self.depth(x)
        if dx < dv_:
            return False
        return (x - self.starts[dx]) // self.qpow[dx - dv_] == v - self.starts[dv_]

    # -- explicit cross-check graph ----------------------------------------

    def explicit_adjacency(self):
        """Chamber adjacency lists, materialized; small balls only."""
        ids = list(self.chambers())
        if len(ids) > 100_000:
            raise BudgetExceeded(f"explicit graph of {len(ids)} chambers, over the limit of 100000")
        idset = set(ids)
        adj = {c: [] for c in ids}
        for w in [0] + ids:
            star = [c for c in self.panel_chambers(w) if c in idset]
            for i, a in enumerate(star):
                for b in star[i + 1 :]:
                    adj[a].append(b)
                    adj[b].append(a)
        return adj


def build_ball(q, radius):
    """Construct the ball of the given radius around the base chamber."""
    if q < 3 or q % 2 == 0:
        raise ValueError("q must be an odd integer >= 3")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius > MAX_RADIUS:
        raise BudgetExceeded(f"radius {radius} beyond the supported {MAX_RADIUS}")
    total = 1 + sum(2 * q**n for n in range(1, radius + 1))
    budget = read_budget(_CHAMBER_BUDGET)
    if total > budget:
        raise BudgetExceeded(f"{total} chambers exceed the budget of {budget}")
    ball = TreeBall(q=q, radius=radius)
    starts = [0, 1]
    # keep one level beyond the chamber ball so every star is addressable
    for n in range(1, radius + 3):
        starts.append(starts[-1] + ball.level_size(n))
    ball.starts = starts
    ball.qpow = [q**n for n in range(radius + 4)]
    return ball


def tree_distance(ball, c1, c2):
    for c in (c1, c2):
        if ball.base_distance(c) > ball.radius:
            raise NotInBall(f"chamber {c} outside the ball")
    return ball.chamber_distance(c1, c2)


def chamber_count_by_distance(ball):
    """Exact shell counts, by enumeration."""
    counts = [0] * (ball.radius + 1)
    for c in ball.chambers():
        counts[ball.base_distance(c)] += 1
    return counts


@dataclass
class HctestReport:
    q: int
    panels_checked: int
    references_checked: int
    failures: int


def star_distances(ball, w, ref):
    """Distances from every chamber of the panel star of w to the chamber ref.

    One ancestor walk for the panel vertex, then O(1) per star chamber via
    subtree tests; agrees with chamber_distance (cross-checked in tests).

    Shift rules in a rooted tree, for a vertex u and targets x, parent(x):
    dv(u, parent(x)) = dv(u, x) + 1 iff u lies in the subtree of x;
    dv(parent(u), x) = dv(u, x) + 1 iff x lies in the subtree of u;
    dv(child c of u, x) = dv(u, x) - 1 iff x lies in the subtree of c.
    """
    a = ref
    pa = ball.parent(a)
    dv_w_a = ball.vertex_distance(w, a)
    dv_w_pa = dv_w_a + 1 if ball.in_subtree(w, a) else dv_w_a - 1
    out = []
    for v in ball.panel_chambers(w):
        if v == a:
            out.append(0)
            continue
        if v == w:
            dva, dvpa = dv_w_a, dv_w_pa
            dpa = dv_w_a + 1 if ball.in_subtree(a, w) else dv_w_a - 1
            dppa = dv_w_pa + 1 if ball.in_subtree(pa, w) else dv_w_pa - 1
        else:  # v is a child of w, and parent(v) = w
            dva = dv_w_a - 1 if ball.in_subtree(a, v) else dv_w_a + 1
            dvpa = dv_w_pa - 1 if ball.in_subtree(pa, v) else dv_w_pa + 1
            dpa, dppa = dv_w_a, dv_w_pa
        out.append(min(dva, dvpa, dpa, dppa) + 1)
    return out


def verify_hctest(ball, r_inner, panel_depth=None):
    """Sum of (-q)^(-d(C, C')) over each panel's chambers, for many C'.

    Every sum must vanish exactly; sums are evaluated in scaled integers.
    """
    if r_inner + 1 > ball.radius:
        raise ValueError("need r_inner + 1 <= radius")
    refs = [c for c in ball.chambers() if ball.base_distance(c) <= r_inner]
    q = ball.q
    failures = 0
    panels = 0
    for w in ball.interior_panels(max_depth=panel_depth):
        panels += 1
        for ref in refs:
            dists = star_distances(ball, w, ref)
            top = max(dists)
            total = sum((-1) ** d * q ** (top - d) for d in dists)
            if total != 0:
                failures += 1
    return HctestReport(q=q, panels_checked=panels, references_checked=len(refs), failures=failures)


def legendre_base(ball):
    """The sign cochain on the q+1 chambers at the root panel.

    The two apartment chambers get 0; the remaining q-1 get +/-1 split
    evenly, by quadratic-residue labels when q is prime.
    """
    q = ball.q
    values = {1: Fraction(0), 2: Fraction(0)}
    others = [c for c in ball.panel_chambers(0) if c not in (1, 2)]
    if _is_prime(q):
        for i, c in enumerate(others, start=1):
            values[c] = Fraction(_legendre(i, q))
    else:
        for i, c in enumerate(others):
            values[c] = Fraction(1 if i % 2 == 0 else -1)
    if sum(values.values()) != 0:
        raise AssertionError("panel sum of the base cochain must vanish")
    return values


def extend_base(ball, base_values):
    """Value of the harmonic extension at any chamber of the ball."""
    if sum(base_values.values(), Fraction(0)) != 0:
        raise NotHarmonicBase("base values do not sum to zero at the root panel")

    def value(c):
        a = ball.anc_at_depth_one(c)
        if a not in base_values:
            raise NotInBall(f"chamber {c} does not resolve to the root panel")
        dist = ball.depth(c) - 1
        return base_values[a] * Fraction((-1) ** dist, ball.q**dist)

    return value


@dataclass
class ExtensionReport:
    q: int
    panels_checked: int
    failures: int


def verify_extension(ball, base_values):
    """Panel sums of the harmonic extension vanish at every interior panel."""
    value = extend_base(ball, base_values)
    q = ball.q
    failures = 0
    panels = 0
    for w in ball.interior_panels():
        panels += 1
        total = sum(value(c) for c in ball.panel_chambers(w))
        if total != 0:
            failures += 1
    return ExtensionReport(q=q, panels_checked=panels, failures=failures)


def iwahori_values(ball):
    """The normalized base-chamber vector as a value function."""

    def value(c):
        d = ball.base_distance(c)
        return Fraction((-1) ** d, ball.q**d)

    return value


def verify_iwahori_harmonic(ball, panel_depth=None):
    """Interior panel sums of the base Iwahori vector vanish."""
    value = iwahori_values(ball)
    failures = 0
    panels = 0
    for w in ball.interior_panels(max_depth=panel_depth):
        panels += 1
        if sum(value(c) for c in ball.panel_chambers(w)) != 0:
            failures += 1
    return ExtensionReport(q=ball.q, panels_checked=panels, failures=failures)


def shell_abs_sums(ball):
    """Per-shell sums of |base Iwahori values|; constant 2 beyond the base."""
    counts = chamber_count_by_distance(ball)
    return [Fraction(c, ball.q**n) for n, c in enumerate(counts)]
