"""Irreducible root systems of types A-G with exact integer/rational arithmetic.

Roots are stored as integer coefficient vectors over the simple roots
(Bourbaki numbering).  Euclidean data comes from the classical ambient
realizations, held doubled so that every plate vector is integral, and
rescaled so that long roots have squared length 2.  The map between the
coordinate systems (`to_ambient`) is linear, so the positive roots' doubled
images are the whole table: built by height, each is the image of a root one
step lower plus one doubled simple root, and `from_ambient` and the plate table
look a vector up as v or -v, so nothing is solved.  The Gram
matrix is kept as integers, scaled by its single denominator (1 for A/B/D/E
and C2, 2 for C of rank at least 3 and F4, 3 for G2).  A coweight xi is its
row of values (<alpha_j, xi>)_j on the simple roots, integers on P_vee =
Hom(Q, Z).  Each root beta gets one such coroot row (<alpha_j, beta_vee>)_j,
computed once; the Cartan matrix is the simple roots' rows, and every pairing
and reflection is a dot product with a row, so none needs rational arithmetic.
Orthogonality is held the same way: `orthogonal_row` gives each root, once and
only when something reads it, two bitmasks over the indices of `roots`, its
orthogonal roots and its strongly orthogonal ones, so a test over all pairs
of roots ANDs rows instead of testing pairs.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product, starmap
from math import gcd, prod
from operator import add, mul, neg, sub

from .errors import BudgetExceeded, InvalidRank, NonIntegralPairing, NotARoot, ProportionalPair

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

class RootSystemType(namedtuple("RootSystemType", "family rank")):
    """A family letter and a rank, validated against the classical bounds."""

    __slots__ = ()

    def __new__(cls, family, rank):
        if family not in _RANK_BOUNDS:
            raise InvalidRank(f"unknown family {family!r}")
        lo, hi = _RANK_BOUNDS[family]
        if type(rank) is not int:
            raise InvalidRank(f"rank {rank!r} of family {family} is not an int")
        if rank < lo or (hi is not None and rank > hi):
            raise InvalidRank(f"rank {rank} out of bounds for family {family}")
        return super().__new__(cls, family, rank)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and _replace through it, would skip the bounds check
        return cls(*iterable)

    def __str__(self):
        return f"{self.family}{self.rank}"


def _basis(dim, i):
    return (0,) * i + (1,) + (0,) * (dim - i - 1)


def _add(u, v):
    return tuple(map(add, u, v))


def _sub(u, v):
    return tuple(map(sub, u, v))


def _neg(u):
    return tuple(map(neg, u))


def _scale(c, u):
    return tuple(c * a for a in u)


def _root_key(r):
    """A positive root as one int, a byte per coefficient.  No coefficient exceeds
    6 (E8's highest root), so key sums never carry, and a key less a simple root's
    key where that coefficient is 0 borrows into a 255 byte, the key of no root."""
    return int.from_bytes(bytes(r), "big")


def _positive_roots(cartan):
    """Sorted positive roots by height layers (Humphreys, Lie Algebras, 10.2):
    beta + alpha_i is a root exactly when the alpha_i-string below beta is longer
    than <beta, alpha_i_vee> (9.4), so a negative pairing needs no walk and a
    pairing p needs at most p + 1 steps down the string.  Each root carries its
    pairings with the simple coroots, and a step by alpha_i adds Cartan column i
    to them, once per root: a key already reached from another root is skipped."""
    d = len(cartan)
    units = [_root_key(_basis(d, i)) for i in range(d)]
    columns = list(zip(*cartan))
    layer = dict(zip(units, columns))  # key -> pairings, one height at a time
    found = set(layer)
    while layer:
        up = {}
        for key, pairings in layer.items():
            for unit, pair, column in zip(units, pairings, columns):
                if key + unit in up:
                    continue
                p, below = 0, key - unit
                while p <= pair and below in found:
                    p, below = p + 1, below - unit
                if p > pair:
                    up[key + unit] = tuple(map(add, pairings, column))
        found.update(up)
        if len(found) > d * (6 * d + 1) // 2:  # |Phi+| = d h / 2, and h <= 6 d + 1
            raise AssertionError(f"over {d * (6 * d + 1) // 2} positive roots")
        layer = up
    return tuple(tuple(key.to_bytes(d, "big")) for key in sorted(found))


def _ambient_simples(family, d):
    """Twice the simple roots in the classical ambient coordinates (Bourbaki
    plates), as ints; doubled, the half-vector simple root of E and F is a sign tuple."""
    if family == "E":
        e = [_basis(8, i) for i in range(8)]
        rest = [_add(e[0], e[1])] + [_sub(e[i], e[i - 1]) for i in range(1, d - 1)]
        return [(1, -1, -1, -1, -1, -1, -1, 1)] + [_scale(2, v) for v in rest]
    if family == "F":
        e = [_basis(4, i) for i in range(4)]
        return [_scale(2, v) for v in (_sub(e[1], e[2]), _sub(e[2], e[3]), e[3])] + [(1, -1, -1, -1)]
    dim = {"A": d + 1, "G": 3}.get(family, d)
    e = [_basis(dim, i) for i in range(dim)]
    if family == "A":
        last = _sub(e[d - 1], e[d])
    elif family == "B":
        last = e[d - 1]
    elif family == "C":
        last = _scale(2, e[d - 1])
    elif family == "D":
        last = _add(e[d - 2], e[d - 1])
    else:  # G; RootSystemType admits no other family
        last = _sub(_add(e[1], e[2]), _scale(2, e[0]))
    return [_scale(2, v) for v in [_sub(e[i], e[i + 1]) for i in range(d - 1)] + [last]]


def _ambient_all_roots(family, d):
    """Twice every root in the coordinates of `_ambient_simples`, as ints: the
    plates that cross-check the generated roots.

    F4 is B4 and the sixteen half-vectors; E8 is D8 and the half-vectors
    with an even number of minus signs.  Doubled, a half-vector is its sign
    tuple.  E7 keeps the E8 roots orthogonal to e7 + e8, and E6 those also
    orthogonal to e6 - e7: the realization of the E simple roots (Bourbaki,
    Lie VI, Plates V-VII).
    """
    if family == "F":
        return _ambient_all_roots("B", 4) + list(product((1, -1), repeat=4))
    if family == "E":
        def kept(v):
            return d == 8 or (v[6] == -v[7] and (d == 7 or v[5] == v[6]))

        signs = [s for s in product((1, -1), repeat=8) if s.count(-1) % 2 == 0 and kept(s)]
        return [v for v in _ambient_all_roots("D", 8) if kept(v)] + signs
    if family == "A":
        dim = d + 1
        roots = [_sub(_basis(dim, i), _basis(dim, j)) for i in range(dim) for j in range(dim) if i != j]
    elif family == "G":
        e = [_basis(3, i) for i in range(3)]
        base = [
            _sub(e[0], e[1]),
            _sub(e[1], e[2]),
            _sub(e[0], e[2]),
            _sub(_scale(2, e[0]), _add(e[1], e[2])),
            _sub(_scale(2, e[1]), _add(e[0], e[2])),
            _sub(_scale(2, e[2]), _add(e[0], e[1])),
        ]
        roots = base + [_neg(v) for v in base]
    else:
        roots = []
        for i in range(d):
            for j in range(i + 1, d):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.append(_add(_scale(si, _basis(d, i)), _scale(sj, _basis(d, j))))
        if family == "B":
            for i in range(d):
                roots.append(_basis(d, i))
                roots.append(_neg(_basis(d, i)))
        if family == "C":
            for i in range(d):
                roots.append(_scale(2, _basis(d, i)))
                roots.append(_scale(-2, _basis(d, i)))
    return [_scale(2, v) for v in roots]


class RootSystem:
    """Immutable tables for one irreducible root system.

    Attributes
    ----------
    type:  RootSystemType
    roots: all roots as integer tuples over the simple basis, sorted
    gram: integer Gram matrix of the simple roots, scaled by gram_denominator
    gram_denominator: 1, 2 or 3; long roots have gram length 2 * gram_denominator
    cartan: C[i][j] = <alpha_j, alpha_i_vee>; row i is coroot(simples[i])
    highest_root: the dominant long root
    exponents: exponents of the Weyl group, increasing
    two_rho: sum of the positive roots over the simple basis (integers)
    """

    def __init__(self, type_: RootSystemType):
        self.type = type_
        d = type_.rank
        doubled = self._ambient_simples = _ambient_simples(type_.family, d)
        # long roots at length 2 make x into 2 x / top
        raw = [[sum(map(mul, a, b)) for b in doubled] for a in doubled]
        top = max(raw[i][i] for i in range(d))
        g = gcd(top, *(2 * x for row in raw for x in row))
        self.gram_denominator = top // g
        self.gram = tuple(tuple(2 * x // g for x in row) for row in raw)
        self.simples = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        # coroot(alpha_i) is 2 G_ij / G_ii, read straight off the Gram matrix
        if any(2 * x % row[i] for i, row in enumerate(self.gram) for x in row):
            raise AssertionError("non-integral root pairing")
        self.cartan = tuple(tuple(2 * x // row[i] for x in row) for i, row in enumerate(self.gram))
        self._coroots = dict(zip(self.simples, self.cartan))
        self._orthogonal_rows = {}
        # negation reverses lexicographic order, and negatives sort before positives
        self.positive_roots = _positive_roots(self.cartan)
        self.roots = tuple(map(_neg, reversed(self.positive_roots))) + self.positive_roots
        self.root_index = {r: i for i, r in enumerate(self.roots)}
        # the highest root dominates every positive root: it is their column max
        self.highest_root = tuple(map(max, zip(*self.positive_roots)))
        if self.highest_root not in self.root_index:
            raise AssertionError("highest root fails to dominate")
        # the exponents are the partition conjugate to the numbers of roots by height (d of height 1)
        counts = Counter(map(sum, self.positive_roots)).values()
        self.exponents = tuple(sorted(sum(c >= k for c in counts) for k in range(1, d + 1)))
        self.two_rho = tuple(map(sum, zip(*self.positive_roots)))

    # -- membership and signs ------------------------------------------

    def is_root(self, v):
        return tuple(v) in self.root_index

    def check_root(self, v):
        v = tuple(v)
        if v not in self.root_index:
            raise NotARoot(f"{v} is not a root of {self.type}")
        return v

    @staticmethod
    def is_positive(v):
        for c in v:
            if c > 0:
                return True
            if c < 0:
                return False
        raise NotARoot("zero vector")

    def pos_rep(self, v):
        """Representative of {v, -v} with nonnegative leading sign."""
        return v if self.is_positive(v) else _neg(v)

    # -- exact euclidean data -------------------------------------------

    def _gram_dot(self, u, v):
        """gram_denominator * <u, v>, an integer for lattice vectors."""
        return sum(map(mul, u, (sum(map(mul, row, v)) for row in self.gram)))

    def inner(self, u, v):
        """<u, v> as a Fraction; a test oracle for the integer pairings.  No
        command runs it; it stays here because perfbench's tracer wraps it by name."""
        return Fraction(self._gram_dot(u, v), self.gram_denominator)

    def is_long(self, v):
        return self._gram_dot(v, v) == 2 * self.gram_denominator

    def long_height(self, v):
        """Number of long simple roots in v, counted with multiplicity."""
        long_len = 2 * self.gram_denominator
        return sum(c for i, c in enumerate(v) if self.gram[i][i] == long_len)

    def coroot(self, beta):
        """The integer row (<alpha_j, beta_vee>)_j = 2 (G beta)_j / (beta, beta) of a
        root beta (Humphreys, Lie Algebras, 9.4), computed once per root."""
        row = self._coroots.get(beta)
        if row is None:
            g_beta = [sum(map(mul, g, beta)) for g in self.gram]
            bb = sum(map(mul, beta, g_beta))
            if any(2 * x % bb for x in g_beta):
                raise AssertionError("non-integral root pairing")
            row = self._coroots[beta] = tuple(2 * x // bb for x in g_beta)
        return row

    def orthogonal_row(self, beta):
        """(orth, strong) for a root beta, two bitmasks over the indices of `roots`:
        bit j of orth is set when (beta, roots[j]) = 0, and bit j of strong when
        also beta + roots[j] is not a root.  Neither has a bit for +/- beta.  Built
        once per root, from one Gram row of beta."""
        row = self._orthogonal_rows.get(beta)
        if row is None:
            g_beta = [sum(map(mul, g, beta)) for g in self.gram]
            index = self.root_index
            orth = strong = 0
            for j, r in enumerate(self.roots):
                if sum(map(mul, r, g_beta)) == 0:
                    orth |= 1 << j
                    if tuple(map(add, beta, r)) not in index:
                        strong |= 1 << j
            row = self._orthogonal_rows[beta] = (orth, strong)
        return row

    def root_pairing(self, alpha, beta):
        """<alpha, beta_vee> for a root beta and any lattice vector alpha, an integer."""
        return sum(map(mul, alpha, self.coroot(beta)))

    def pairing(self, v, xi):
        """<v, xi> as an int, for any lattice vector v and a coweight xi given as
        its row of values on the simple roots.  The one integrality check of a
        coweight pairing: raises NonIntegralPairing, naming v and the value,
        when a fractional row makes it a fraction."""
        val = sum(starmap(mul, zip(v, xi, strict=True)))
        if val.denominator != 1:
            raise NonIntegralPairing(f"<{tuple(v)}, xi> = {val}")
        return int(val)

    @cached_property
    def positive_sum_triples(self):
        """Index triples (i, j, k) with positive roots i + j = k, i < j < k (a sum sorts
        last), found as sums of root keys."""
        keys = list(map(_root_key, self.positive_roots))
        index = {key: k for k, key in enumerate(keys)}
        pairs = combinations(range(len(keys)), 2)
        return tuple((i, j, index[s]) for i, j in pairs if (s := keys[i] + keys[j]) in index)

    # -- reflections -----------------------------------------------------

    def reflect_root(self, beta, v):
        """s_beta(v) = v - <v, beta_vee> beta for a root beta and any lattice vector v."""
        p = self.root_pairing(v, beta)
        return tuple(a - p * b for a, b in zip(v, beta))

    # -- classical quantities ---------------------------------------------

    def coxeter_number(self):
        """1 + sum of the highest-root coefficients."""
        return 1 + sum(self.highest_root)

    def weyl_order(self):
        """|W| as the product of the degrees m + 1 over the exponents m
        (Chevalley; Humphreys, Reflection Groups and Coxeter Groups, 3.9)."""
        return prod(m + 1 for m in self.exponents)

    # -- ambient translation -----------------------------------------------

    def to_ambient(self, v):
        """Twice the ambient coordinates of a lattice vector, as ints: the integer
        combination of the doubled simple roots.  The tests' reference for the
        ambient table, which is built by height and calls it for no root."""
        return tuple(sum(map(mul, v, column)) for column in zip(*self._ambient_simples))

    @cached_property
    def _roots_by_ambient(self):
        # positive roots only, by height: a root one step lower plus a simple root
        # alpha_i has that root's image plus the doubled alpha_i
        doubled, index = self._ambient_simples, {}
        images = {(0,) * len(doubled): (0,) * len(doubled[0])}  # root -> image, from height 0
        for r in sorted(self.positive_roots, key=sum):
            for i, c in enumerate(r):
                if c:
                    lower = r[:i] + (c - 1,) + r[i + 1 :]
                    if lower in images:
                        break
            images[r] = image = tuple(map(add, images[lower], doubled[i]))
            index[image] = r
        return index

    def _lookup(self, v):
        """The root with doubled image v, or None: the image of -r is -v."""
        index = self._roots_by_ambient
        if v in index:
            return index[v]
        root = index.get(_neg(v))
        return None if root is None else _neg(root)

    def from_ambient(self, vec):
        """The root with ambient coordinates vec, looked up by its doubled image;
        raises NotARoot, naming vec, for any other vector."""
        root = self._lookup(tuple(2 * x for x in vec))
        if root is None:
            raise NotARoot(f"{tuple(vec)} is not a root of {self.type}")
        return root

    @cached_property
    def _ambient_roots(self):
        roots = []
        for v in _ambient_all_roots(self.type.family, self.type.rank):
            root = self._lookup(v)
            if root is None:
                raise NotARoot(f"doubled plate vector {v} is not a root of {self.type}")
            roots.append(root)
        return tuple(sorted(roots))

    def ambient_root_table(self):
        """Sorted roots from the classical plate descriptions; a fresh list, built once."""
        return list(self._ambient_roots)

    def __repr__(self):
        return f"RootSystem({self.type})"


@lru_cache(maxsize=None, typed=True)  # typed: build("A", True) is refused, not served build("A", 1)
def build(family, rank):
    """Construct (and cache) the root system of the given type."""
    return RootSystem(RootSystemType(family, rank))


def strongly_orthogonal(sys, alpha, beta):
    """True iff <alpha, beta_vee> = 0 and alpha + beta is not a root."""
    alpha = sys.check_root(alpha)
    beta = sys.check_root(beta)
    if alpha == beta or alpha == _neg(beta):
        raise ProportionalPair(f"{alpha} and {beta} are proportional")
    if sys.root_pairing(alpha, beta) != 0:
        return False
    return not sys.is_root(_add(alpha, beta))


def canonical_set(sys, members):
    """Canonical hashable image of a set of roots, member signs ignored."""
    return tuple(sorted(sys.pos_rep(m) for m in members))


def weyl_orbit(sys, members, budget, target=None):
    """BFS over the canonical images of a root set under the simple reflections.

    Without a target, returns the orbit as a set of canonical images.  With
    a target (a test on canonical images), returns (image, word) for the
    first image that passes, tested as it is inserted, or None once the
    orbit is exhausted; the word lists simple roots whose reflections,
    applied left to right, carry the set onto that image.  Raises
    BudgetExceeded when the orbit outgrows the budget.
    """
    start = canonical_set(sys, members)
    if target is not None and target(start):
        return start, ()
    parents = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for cur in frontier:
            for s in sys.simples:
                img = canonical_set(sys, [sys.reflect_root(s, m) for m in cur])
                if img in parents:
                    continue
                if len(parents) >= budget:
                    raise BudgetExceeded(
                        f"orbit in {sys.type} reached {len(parents) + 1} images,"
                        f" over the budget of {budget}"
                    )
                parents[img] = (cur, s)
                if target is not None and target(img):
                    word = []
                    node = img
                    while parents[node] is not None:
                        node, step = parents[node]
                        word.append(step)
                    word.reverse()
                    return img, tuple(word)
                nxt.append(img)
        frontier = nxt
    return None if target is not None else set(parents)


# -- closed subsystems ----------------------------------------------------


def support_components(sys, support):
    """Components of the Dynkin diagram on a set of simple-root indices, each
    sorted, by smallest index: the components of the parabolic subsystem."""
    comps = []
    for i in support:
        linked = [c for c in comps if any(sys.cartan[i][j] for j in c)]
        merged = sorted([i] + [j for c in linked for j in c])
        comps = [c for c in comps if c not in linked] + [merged]
    return sorted(comps)


def parabolic_roots(sys, support):
    """Roots supported on a set of simple-root indices, sorted."""
    outside = [i for i in range(sys.type.rank) if i not in support]
    return [r for r in sys.roots if not any(r[i] for i in outside)]


def levi_support(sys, members):
    """Simple-root indices appearing in the members (the standard Levi hull)."""
    return sorted({i for m in members for i, c in enumerate(m) if c})


def subsystem_components(sys, roots):
    """Split a symmetric set of roots into irreducible components.

    Components are sorted by their lexicographically smallest member.  The
    pairwise test oracle for support_components; no command runs it, and it
    stays here because perfbench reports on it by name.
    """
    roots = sorted(roots)
    parent = list(range(len(roots)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(roots):
        for j in range(i + 1, len(roots)):
            b = roots[j]
            if sys.root_pairing(a, b) != 0:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[ra] = rb
        # +/- pairs always join through the pairing -2
    groups = {}
    for i, r in enumerate(roots):
        groups.setdefault(find(i), []).append(r)
    comps = [sorted(g) for g in groups.values()]
    comps.sort(key=lambda g: g[0])
    return comps


# -- dominance walks -------------------------------------------------------


def word_to_dominant(sys, simples, root):
    """Reflections (simple roots of a subsystem, tried in the given order)
    taking root to the dominant representative of its length class there.

    Returns (dominant, word); applying s_{word[0]}, s_{word[1]}, ... to root,
    in that order, yields dominant.
    """
    cur = root
    word = []
    moved = True
    while moved:
        moved = False
        for s in simples:
            if sys.root_pairing(cur, s) < 0:
                cur = sys.reflect_root(s, cur)
                word.append(s)
                moved = True
                break
    return cur, word


def apply_word(sys, word, v):
    """Apply reflections left to right."""
    for beta in word:
        v = sys.reflect_root(beta, v)
    return v
