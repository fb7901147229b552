"""References the tests compare the package against, which no command runs: the
Cartan-matrix classifier of a closed subsystem, the materialized chamber graph of a
tree ball, and the harmonic extension evaluated chamber by chamber."""

from fractions import Fraction

from steinberg_lab.errors import BudgetExceeded, NotInBall
from steinberg_lab.rootsys import _RANK_BOUNDS, _sub, build, subsystem_components
from steinberg_lab.tree_oracle import _integer_base


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


def interior_panels(ball, max_depth=None):
    """The vertices of `TreeBall.panel_levels`, as one list."""
    return [w for _, first, stop in ball.panel_levels(max_depth) for w in range(first, stop)]


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
    parents to its depth-one ancestor, not the block layout `_extension_values` reads."""
    _integer_base(base_values)  # raises NotHarmonicBase on an unbalanced base

    def value(c):
        a, dist = c, 0
        while ball.depth(a) > 1:
            a, dist = ball.parent(a), dist + 1
        if a not in base_values:
            raise NotInBall(f"chamber {c} does not resolve to the root panel")
        return base_values[a] * Fraction((-1) ** dist, ball.q**dist)

    return value
