"""References the tests compare the package against, which no command runs: exact
solves for many right-hand sides at once, the ambient image of a lattice vector and
the ambient table of every root's image, the affine relation among facet roots by a
Fraction solve, translation with one pairing per root, the long height of a vector,
the sign constraints over all ordered pairs of members, the closed-form pairing
value for the types other than A of even rank, the Cartan-matrix classifier of a
closed subsystem, the visited-set gallery BFS of an apartment ball, the parent of a
tree vertex, the root paths of a tree ball's vertices with the pairwise chamber
distance read off them, the materialized chamber graph of a tree ball, and the
harmonic extension evaluated chamber by chamber."""

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import mul
from weakref import WeakKeyDictionary

from steinberg_lab import tables
from steinberg_lab.apartment import Chamber, E_LEVEL, extended_simple_roots, wall_neighbors
from steinberg_lab.cochain import _is_neg_simple, _rank_two_b2, r1_r2, sign_vector
from steinberg_lab.errors import BudgetExceeded, NonIntegralPairing, NotApplicable, NotHarmonicBase, NotInBall
from steinberg_lab.linalg import _rref, solve_exact
from steinberg_lab.rootsys import _RANK_BOUNDS, _ambient_all_roots, _sub, build, subsystem_components
from steinberg_lab.series import poincare_value


def solve_many(columns, rhss):
    """`linalg.solve_exact` for every rhs in rhss from one Fraction reduction of
    [columns | rhss]: a coefficient list per rhs, or None where it is inconsistent.
    Raises ValueError when the columns are linearly dependent."""
    k, n = len(columns), len(columns[0])
    rows = [[Fraction(c[i]) for c in columns] + [Fraction(v[i]) for v in rhss] for i in range(n)]
    if len(_rref(rows, k)) < k:
        raise ValueError("columns are linearly dependent")
    # full column rank puts pivot j in row j; a nonzero entry below row k is inconsistent
    return [
        None if any(row[t] for row in rows[k:]) else [row[t] for row in rows[:k]]
        for t in range(k, k + len(rhss))
    ]


def to_ambient(sys, v):
    """Twice the ambient coordinates of a lattice vector, as ints: the integer
    combination of the doubled simple roots.  The reference for the ambient table,
    which the program builds by height."""
    return tuple(sum(map(mul, v, column)) for column in zip(*sys._ambient_simples))


def ambient_table(sys):
    """`RootSystem.ambient_root_table` from every root's doubled image, each one
    `to_ambient` (a dim x rank dot product), negatives included."""
    index = {to_ambient(sys, r): r for r in sys.roots}
    return sorted(index[v] for v in _ambient_all_roots(sys.type.family, sys.type.rank))


def solved_affine_relation(chamber):
    """`apartment.affine_relation` by a Fraction solve of the first facet root over
    the other d, its coordinates cleared of denominators and divided by their gcd."""
    ext = extended_simple_roots(chamber)
    coords = solve_exact(ext[1:], ext[0])
    if coords is None:
        raise AssertionError("facet roots are not affinely related")
    den = lcm(*(c.denominator for c in coords))
    rel = [den, *(int(-c * den) for c in coords)]
    g = gcd(*rel)
    rel = [c // g for c in rel]
    if any(c <= 0 for c in rel):
        raise AssertionError("facet relation is not positive")
    return ext, rel


def translate_by_pairings(chamber, xi):
    """`apartment.translate` with one pairing <r, xi>, and its integrality check,
    per positive root r: the first fractional pairing raises NonIntegralPairing,
    naming r and the value, and a row of the wrong length a ValueError."""
    sys = chamber.system
    h = []
    for v, r in zip(chamber.h, sys.positive_roots):
        val = sum(a * x for a, x in zip(r, xi, strict=True))
        if val.denominator != 1:
            raise NonIntegralPairing(f"<{r}, xi> = {val}")
        h.append(v + 2 * int(val))
    return Chamber(sys, chamber.level, h)


def long_height(sys, v):
    """Number of long simple roots in v, counted with multiplicity."""
    long_len = 2 * sys.gram_denominator
    return sum(c for i, c in enumerate(v) if sys.gram[i][i] == long_len)


def sigma_chamber_by_heights(sys, members):
    """`cochain.canonical_sigma_chamber`'s chamber from the weight functions
    `sum` (the height) and `long_height`, root by root."""
    simply_laced = all(sys.is_long(s) for s in sys.simples)
    if not simply_laced and all(sys.is_long(m) for m in members):
        weight = partial(long_height, sys)
    else:
        weight = sum
    return Chamber(sys, E_LEVEL, (-weight(r) for r in sys.positive_roots))


def all_pairs_constraints(sys, members, coroot_actions):
    """`cochain.build_constraints` over every ordered pair of members, a pair
    skipped when the difference is odd somewhere, on the chamber of
    `sigma_chamber_by_heights`."""
    r = len(members)
    chamber = sigma_chamber_by_heights(sys, members)
    constraints = []
    for i, beta in enumerate(members, start=1):
        if _is_neg_simple(sys, beta):
            constraints.append((sign_vector(r, [i]), -1))
    for a, beta_a in enumerate(members, start=1):
        for b, beta_b in enumerate(members, start=1):
            diff = _sub(beta_b, beta_a)
            if a == b or any(c % 2 for c in diff):
                continue
            alpha = tuple(c // 2 for c in diff)
            if not sys.is_root(alpha) or not _is_neg_simple(sys, alpha):
                continue
            if not _rank_two_b2(sys, beta_b, alpha):
                continue
            if (chamber.value(beta_b) - chamber.value(beta_a)) % 4 != 0:
                continue
            constraints.append((sign_vector(r, [a, b]), -1))
    return constraints + [(action, 1) for action in coroot_actions]


def lambda_tvoth(sys, q, ch_da_count):
    """Closed-form pairing value for types other than A of even rank.

    Full-rank tabled sets (fixed facet a vertex) give the chamber count
    itself; the positive-dimensional cases multiply by the type-A sum, the
    series of A_d' at x = q^(r2 - r1).
    """
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


def subsystem_simples(sys, roots):
    """Indecomposable positive members of a closed symmetric subset; a test oracle."""
    pos = [r for r in roots if sys.is_positive(r)]
    pos_set = set(pos)
    simples = []
    for r in pos:
        decomposable = False
        for a in pos:
            if a != r:
                diff = _sub(r, a)
                if diff in pos_set:
                    decomposable = True
                    break
        if not decomposable:
            simples.append(r)
    return sorted(simples)


def _cartan_of(sys, simples):
    return [[sys.root_pairing(b, a) for b in simples] for a in simples]


def _permutation_equivalent(m1, m2):
    n = len(m1)
    if len(m2) != n:
        return False
    used = [False] * n
    assign = [-1] * n

    def backtrack(i):
        if i == n:
            return True
        for j in range(n):
            if used[j] or m1[i][i] != m2[j][j]:
                continue
            ok = True
            for k in range(i):
                if m1[i][k] != m2[j][assign[k]] or m1[k][i] != m2[assign[k]][j]:
                    ok = False
                    break
            if ok:
                used[j] = True
                assign[i] = j
                if backtrack(i + 1):
                    return True
                used[j] = False
                assign[i] = -1
        return False

    return backtrack(0)


def classify_subsystem(sys, roots):
    """Isomorphism types of the components of a closed subsystem.

    Returns a sorted list of (family, rank) pairs, canonicalized so that
    coincidences use the earliest family letter (D3 reports as A3, C2 as B2).
    A test oracle: it names the types of so_complement output.
    """
    out = []
    for comp in subsystem_components(sys, roots):
        simples = subsystem_simples(sys, comp)
        cartan = _cartan_of(sys, simples)
        rank = len(simples)
        found = None
        for fam in ("A", "B", "C", "D", "E", "F", "G"):
            lo, hi = _RANK_BOUNDS[fam]
            if rank < lo or (hi is not None and rank > hi):
                continue
            candidate = build(fam, rank)
            if len(candidate.roots) != len(comp):
                continue
            ref = [list(row) for row in candidate.cartan]
            if _permutation_equivalent(cartan, ref):
                found = (fam, rank)
                break
        if found is None:
            raise AssertionError("unclassifiable component")
        out.append(found)
    return sorted(out)


def bfs_shells(c0, radius):
    """`apartment.chambers_within` as a breadth-first search over `wall_neighbors`: each
    shell is the neighbours of the last that no earlier shell holds, sorted by h."""
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


def interior_panels(ball, max_depth=None):
    """The vertices of `TreeBall.panel_levels`, as one list."""
    s = ball.starts
    return [w for n, width in ball.panel_levels(max_depth) for w in range(s[n], s[n] + width)]


def parent(ball, v):
    """The vertex one level above v, by level-order arithmetic."""
    n = ball.depth(v)
    if n == 0:
        raise ValueError("the root has no parent")
    if n == 1:
        return 0
    return ball.starts[n - 1] + (v - ball.starts[n]) // ball.q


_CHAINS = WeakKeyDictionary()


def ancestor_chains(ball):
    """The root path (0, ..., parent(v), v) of every vertex v down to depth radius + 1,
    the deepest chambers of the ball's stars, as one list indexed by v; built once per
    ball, each path from its parent's."""
    chains = _CHAINS.get(ball)
    if chains is None:
        chains = [(0,)]
        for v in range(1, ball.starts[-2]):
            chains.append(chains[parent(ball, v)] + (v,))
        _CHAINS[ball] = chains
    return chains


def chamber_distance(ball, c1, c2):
    """One more than the least distance between an end of c1 and an end of c2 (a
    chamber's ends are its vertex and its parent), read off their root paths.  When
    one chamber lies on the other's path, that is from the upper one's vertex down to
    the lower one's parent; otherwise from parent to parent through the last vertex
    the two paths share."""
    if c1 == c2:
        return 0
    chains = ancestor_chains(ball)
    a, b = chains[c1], chains[c2]
    common = 0
    for x, y in zip(a, b):
        if x != y:
            break
        common += 1
    if common == min(len(a), len(b)):
        return abs(len(a) - len(b))
    return len(a) + len(b) - 2 * common - 1


def tree_distance(ball, c1, c2):
    """chamber_distance, for two chambers of the ball only."""
    inside = ball.chambers()
    for c in (c1, c2):
        if c < 1:
            raise NotInBall(f"{c} names no chamber (vertex 0 is the root, chambers start at 1)")
        if c not in inside:
            raise NotInBall(
                f"chamber {c} outside the ball of radius {ball.radius}"
                f" (chamber ids {inside.start} to {inside.stop - 1})"
            )
    return chamber_distance(ball, c1, c2)


def explicit_adjacency(ball):
    """Chamber adjacency lists, materialized; small balls only."""
    ids = ball.chambers()
    if len(ids) > 100_000:
        raise BudgetExceeded(f"explicit graph of {len(ids)} chambers, over the limit of 100000")
    adj = {c: [] for c in ids}
    for w in [0, *ids]:
        star = [c for c in ball.panel_chambers(w) if c in ids]
        for i, a in enumerate(star):
            for b in star[i + 1 :]:
                adj[a].append(b)
                adj[b].append(a)
    return adj


def extend_base(ball, base_values):
    """Value of the harmonic extension at any chamber of the ball; a chamber walks its
    parents to its depth-one ancestor, not the subtree blocks `_extension_runs` reads."""
    if sum(base_values.values(), Fraction(0)) != 0:
        raise NotHarmonicBase("base values do not sum to zero at the root panel")

    def value(c):
        a, dist = c, 0
        while ball.depth(a) > 1:
            a, dist = parent(ball, a), dist + 1
        if a not in base_values:
            raise NotInBall(f"chamber {c} does not resolve to the root panel")
        return base_values[a] * Fraction((-1) ** dist, ball.q**dist)

    return value
