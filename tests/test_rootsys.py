import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm
from operator import add, mul

import pytest

from oracles import ambient_table, classify_subsystem, long_height, to_ambient, translate_by_pairings
from steinberg_lab import apartment, rootsys, tables
from steinberg_lab.errors import BudgetExceeded, InvalidRank, NonIntegralPairing, NotARoot, ProportionalPair
from steinberg_lab.linalg import solve_exact
from steinberg_lab.rootsys import (
    RootSystem,
    RootSystemType,
    parabolic_roots,
    subsystem_components,
    support_components,
    _add,
    _neg,
    build,
    apply_word,
    strongly_orthogonal,
    weyl_orbit,
)
from steinberg_lab.suites import ACCEPTANCE_TYPES, SIGN_CALCULUS_TYPES, TRICHOTOMY_TYPES


def a2():
    return build("A", 2)


def test_build_counts():
    assert len(a2().roots) == 6
    assert len(build("E", 8).roots) == 240
    assert len(build("A", 1).roots) == 2


def test_invalid_ranks():
    with pytest.raises(InvalidRank):
        RootSystemType("D", 2)
    with pytest.raises(InvalidRank):
        RootSystemType("E", 9)
    with pytest.raises(InvalidRank):
        RootSystemType("F", 3)
    with pytest.raises(InvalidRank):
        RootSystemType("A", 0)
    # namedtuple's _make and _replace go round __new__ unless _make is routed through it
    assert RootSystemType("B", 3)._replace(rank=4) == RootSystemType._make(("B", 4))
    with pytest.raises(InvalidRank, match="unknown family 'Z'"):
        RootSystemType._make(("Z", 0))
    with pytest.raises(InvalidRank, match="rank 9 out of bounds for family E"):
        RootSystemType("E", 8)._replace(rank=9)


def test_rank_must_be_an_int():
    # True once built a system named ATrue, which the cache then served for
    # ("A", 1); 2.0 and "3" raised a TypeError from the bounds comparison
    assert str(build("A", 1).type) == "A1"
    for rank in (True, 2.0, "3"):
        with pytest.raises(InvalidRank, match=f"rank {rank!r} of family A is not an int"):
            build("A", rank)
    assert str(build("A", 1).type) == "A1"


# every type a suite builds, the benchmark's A7, B6-B8, C5-C8 and D7-D8 among them
SUITE_TYPES = sorted(set(ACCEPTANCE_TYPES) | set(SIGN_CALCULUS_TYPES) | set(TRICHOTOMY_TYPES))
ORACLE_TYPES = SUITE_TYPES + [("A", 8), ("B", 12), ("D", 16)]


def test_closure_matches_plates():
    for fam, rank in SUITE_TYPES:
        sys = build(fam, rank)
        assert list(sys.roots) == sys.ambient_root_table()


def _reflection_orbit(sys):
    # The orbit of the simple roots under the simple reflections is every
    # root: each root is W-conjugate to a simple root, and s_i(alpha_i) =
    # -alpha_i brings in the negatives (Bourbaki, Lie VI, 1.5).
    seen = frontier = set(sys.simples)
    while frontier:
        frontier = {sys.reflect_root(s, r) for r in frontier for s in sys.simples} - seen
        seen |= frontier
    return seen


def _fraction_gram(sys):
    """Gram matrix of the ambient simples over Fractions, rescaled so long roots
    have squared length 2: the integer Gram, its one denominator and the Cartan
    matrix C[i][j] = 2 g_ij / g_ii."""
    amb = sys._ambient_simples
    raw = [[sum(map(mul, a, b)) for b in amb] for a in amb]
    maxlen = max(raw[i][i] for i in range(len(amb)))
    scaled = [[Fraction(2) * x / maxlen for x in row] for row in raw]
    den = lcm(*(x.denominator for row in scaled for x in row))
    gram = tuple(tuple(int(x * den) for x in row) for row in scaled)
    cartan = tuple(tuple(2 * x / row[i] for x in row) for i, row in enumerate(scaled))
    return gram, den, cartan


@pytest.mark.parametrize("fam, rank", ORACLE_TYPES)
def test_height_layers_match_the_reflection_orbit(fam, rank):
    sys = build(fam, rank)
    gram, den, cartan = _fraction_gram(sys)
    assert (sys.gram, sys.gram_denominator, sys.cartan) == (gram, den, cartan)
    assert all(type(x) is int for m in (sys.gram, sys.cartan) for row in m for x in row)
    # the orbit reflects by the simple roots' coroot rows, which are sys.cartan,
    # just checked against the Fraction recipe
    roots = sorted(_reflection_orbit(sys))
    assert list(sys.roots) == roots and list(sys.root_index) == roots
    positive = [r for r in roots if sys.is_positive(r)]
    assert list(sys.positive_roots) == positive
    assert sys.highest_root == max(positive, key=lambda r: (sum(r), r))
    assert sys.two_rho == tuple(sum(r[i] for r in positive) for i in range(rank))
    # the exponents are the partition conjugate to the number of roots of each height
    counts = Counter(map(sum, positive)).values()
    assert sys.exponents == tuple(sorted(sum(c >= k for c in counts) for k in range(1, max(counts) + 1)))
    index = {r: k for k, r in enumerate(positive)}
    sums = ((i, j, tuple(map(add, a, b))) for (i, a), (j, b) in combinations(enumerate(positive), 2))
    assert sys.positive_sum_triples == tuple((i, j, index[s]) for i, j, s in sums if s in index)


def test_root_keys_hold_a_byte_per_coefficient():
    for fam, rank in ORACLE_TYPES:
        sys = build(fam, rank)
        assert max(map(max, sys.positive_roots)) <= 6
        keys = set(map(rootsys._root_key, sys.positive_roots))
        units = list(map(rootsys._root_key, sys.simples))
        for r in sys.positive_roots:
            # where a coefficient is 0, key - unit borrows into a 255 byte
            misses = [rootsys._root_key(r) - unit for c, unit in zip(r, units) if c == 0]
            assert keys.isdisjoint(misses)
    assert max(build("E", 8).highest_root) == 6


def test_height_layers_stop_on_an_infinite_root_system():
    # the affine Cartan matrix of A1~ has roots of every height
    with pytest.raises(AssertionError, match=r"over 13 positive roots"):
        rootsys._positive_roots(((2, -2), (-2, 2)))


def test_long_height_counts_long_simple_roots():
    for fam, rank in SUITE_TYPES:
        sys = build(fam, rank)
        long_simples = [sys.is_long(s) for s in sys.simples]
        for r in sys.positive_roots:
            assert long_height(sys, r) == sum(c for c, long in zip(r, long_simples) if long)


def test_weyl_order_matches_the_classical_orders():
    exceptional = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600, ("F", 4): 1152, ("G", 2): 12}
    for fam, d in sorted(set(SUITE_TYPES) | {("A", d) for d in range(9, 14)}):
        classical = {
            "A": factorial(d + 1),
            "B": 2**d * factorial(d),
            "C": 2**d * factorial(d),
            "D": 2 ** (d - 1) * factorial(d),
        }
        expected = classical[fam] if fam in classical else exceptional[fam, d]
        assert build(fam, d).weyl_order() == expected


def test_plate_table_is_integer_and_built_once(monkeypatch):
    # held doubled, the plates of every family are integral, the E and F halves included
    for fam, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("E", 6), ("E", 8), ("F", 4), ("G", 2)]:
        assert all(type(x) is int for v in rootsys._ambient_all_roots(fam, rank) for x in v)
        assert all(type(x) is int for v in rootsys._ambient_simples(fam, rank) for x in v)
    sys = RootSystem(RootSystemType("F", 4))
    table = sys.ambient_root_table()
    assert all(type(c) is int for r in table for c in r)
    monkeypatch.setattr(rootsys, "_ambient_all_roots", None)  # a second build would fail
    table.clear()  # callers get a fresh list, not the stored one
    assert sys.ambient_root_table() == list(sys.roots)


AMBIENT_TYPES = (
    [("A", d) for d in range(1, 9)]
    + [(fam, d) for fam in "BC" for d in range(2, 9)]
    + [("D", d) for d in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("fam, rank", AMBIENT_TYPES)
def test_positive_half_ambient_table_matches_every_image(fam, rank):
    # the table holds the positive roots' images only, built by height; every root,
    # negatives included, is found again from its image, and the plate table is
    # the one read off all images
    sys = RootSystem(RootSystemType(fam, rank))
    assert sys._roots_by_ambient == {to_ambient(sys, r): r for r in sys.positive_roots}
    for r in sys.roots:
        assert sys.from_ambient([Fraction(x, 2) for x in to_ambient(sys, r)]) == r
    assert sys.ambient_root_table() == ambient_table(sys) == list(sys.roots)
    dim = len(sys._ambient_simples[0])
    for vec in [(0,) * dim, to_ambient(sys, sys.highest_root), to_ambient(sys, _neg(sys.simples[0]))]:
        with pytest.raises(NotARoot, match=re.escape(f"{vec} is not a root of {fam}{rank}")):
            sys.from_ambient(vec)  # 0, or twice a root


@pytest.mark.parametrize("fam, rank", [("A", 4), ("B", 3), ("C", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)])
def test_support_components_match_pairwise_on_every_subset(fam, rank):
    sys = build(fam, rank)
    for bits in range(1 << rank):
        support = [i for i in range(rank) if bits >> i & 1]
        roots = parabolic_roots(sys, support)
        assert roots == [r for r in sys.roots if all(r[i] == 0 or i in support for i in range(rank))]
        split = [parabolic_roots(sys, comp) for comp in support_components(sys, support)]
        assert split == subsystem_components(sys, roots)


def test_cartan_entries():
    sys = a2()
    # <alpha_1, alpha_1_vee> = 2, <alpha_1, alpha_2_vee> = -1
    assert sys.cartan[0][0] == 2
    assert sys.cartan[1][0] == -1
    g2 = build("G", 2)
    # <alpha_2, alpha_1_vee> = -3
    assert g2.cartan[0][1] == -3
    assert g2.cartan[1][0] == -1


def test_pairing_with_coweights():
    sys = a2()
    a1 = sys.simples[0]
    # coweights are rows of values on the simple roots: alpha_k_vee is cartan[k];
    # a Fraction row enters through coweight, which checks it and returns ints
    assert sys.pairing(a1, sys.coweight([Fraction(2), Fraction(-1)])) == 2
    assert sys.pairing(a1, sys.coweight([Fraction(-1), Fraction(2)])) == -1
    assert type(sys.pairing(a1, sys.cartan[0])) is int
    assert type(sys.pairing(a1, sys.coweight([Fraction(2), Fraction(-1)]))) is int
    with pytest.raises(ValueError, match=re.escape("coweight row of length 3 for rank 2")):
        sys.coweight([1, 0, 0])
    with pytest.raises(NonIntegralPairing, match=re.escape("<(0, 1), xi> = -1/3")):
        sys.coweight([Fraction(2, 3), Fraction(-1, 3)])


@pytest.mark.parametrize("fam, rank", sorted(set(ACCEPTANCE_TYPES) | set(SIGN_CALCULUS_TYPES)))
def test_coweight_raises_as_the_first_checked_pairing_per_positive_root(fam, rank):
    # every simple root in a positive root's support sorts before it, and the simple
    # roots sort alpha_d < ... < alpha_1, so the first positive root with a fractional
    # pairing is alpha_j for the largest fractional xi_j: coweight raises what one
    # checked pairing per positive root raises first, on rows with one or two
    # fractional entries over an integer row
    sys = build(fam, rank)
    _, ce = apartment.base_chambers(sys)
    base = [(-1) ** j * (j % 3) for j in range(rank)]
    fracs = [Fraction(1, 2), Fraction(1, 3), Fraction(-1, 3)]
    spots = [[(i, a)] for i in range(rank) for a in fracs]
    spots += [[(i, a), (j, b)] for i, j in combinations(range(rank), 2) for a in fracs for b in fracs]
    for spot in spots:
        xi = list(base)
        for i, a in spot:
            xi[i] += a
        with pytest.raises(NonIntegralPairing) as first:
            translate_by_pairings(ce, xi)
        with pytest.raises(NonIntegralPairing) as checked:
            sys.coweight(xi)
        assert str(checked.value) == str(first.value)
        assert str(first.value).startswith(f"<{sys.simples[max(i for i, _ in spot)]}, xi> = ")


def test_pairing_is_int_on_integral_coweights_and_matches_inner():
    for fam, rank in sorted(set(ACCEPTANCE_TYPES) | set(SIGN_CALCULUS_TYPES)):
        sys = build(fam, rank)
        units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        # the chi test coweights over the simple coroots, in Fractions
        chi = [(xi, solve_exact(sys.cartan, xi)) for xi in tables.chi_test_coweights(sys)]
        for alpha in sys.roots:
            # <alpha, alpha_j_vee> = 2 <alpha, alpha_j> / <alpha_j, alpha_j>, in Fractions
            coroots = [2 * sys.inner(alpha, s) / sys.inner(s, s) for s in sys.simples]
            for x, row in zip(units, sys.cartan):
                val = sys.pairing(alpha, row)
                assert type(val) is int
                assert val == sum(map(mul, x, coroots))
            for xi, x in chi:
                assert sys.pairing(alpha, xi) == sum(map(mul, x, coroots))


def test_chi_test_coweights_are_integer_rows():
    # the E6 and E7 rows over the simple coroots (1-based), as the paper writes them
    third, half = Fraction(1, 3), Fraction(1, 2)
    paper = {
        ("E", 6): {1: third, 3: -third, 5: third, 6: -third},
        ("E", 7): {2: half, 5: half, 7: half},
    }
    for fam, rank in SIGN_CALCULUS_TYPES:
        sys = build(fam, rank)
        for xi in tables.chi_test_coweights(sys):
            assert len(xi) == rank and all(type(x) is int for x in xi)
            if (fam, rank) in paper:
                combo = [sum(x * sys.cartan[k - 1][j] for k, x in paper[fam, rank].items()) for j in range(rank)]
                assert list(xi) == combo
            else:
                # a fundamental coweight: <alpha_j, omega_i_vee> = delta_ij
                (i,) = [j for j, x in enumerate(xi) if x]
                for j, s in enumerate(sys.simples):
                    assert sys.pairing(s, xi) == (1 if i == j else 0)


def test_strongly_orthogonal_examples():
    sys = a2()
    assert not strongly_orthogonal(sys, (1, 0), (0, 1))  # sum is a root
    b2 = build("B", 2)
    eps1_minus = b2.simples[0]  # e1 - e2
    eps1_plus = b2.from_ambient([1, 1])
    assert strongly_orthogonal(b2, eps1_minus, eps1_plus)
    eps1 = b2.from_ambient([1, 0])
    eps2 = b2.from_ambient([0, 1])
    assert b2.root_pairing(eps1, eps2) == 0
    assert not strongly_orthogonal(b2, eps1, eps2)
    with pytest.raises(ProportionalPair):
        strongly_orthogonal(sys, (1, 0), (-1, 0))


def test_orthogonal_rows_match_the_pairwise_tests():
    for fam, rank in TRICHOTOMY_TYPES + [("B", 4), ("C", 4), ("D", 5), ("E", 6)]:
        sys = build(fam, rank)
        for a in sys.roots:
            row = orth, strong = sys.orthogonal_row(a)
            assert sys.orthogonal_row(a) is row
            for j, b in enumerate(sys.roots):
                is_orth = sys.root_pairing(a, b) == 0
                assert orth >> j & 1 == is_orth
                assert strong >> j & 1 == (is_orth and _add(a, b) not in sys.root_index)
                if a not in (b, _neg(b)):
                    assert strong >> j & 1 == strongly_orthogonal(sys, a, b)


def test_negation_preserves_strong_orthogonality():
    """The pairwise reference for the negation-stability check, which reads
    orthogonal rows."""
    for fam, rank in [("B", 3), ("C", 3), ("D", 4), ("G", 2)]:
        sys = build(fam, rank)
        for a in sys.roots:
            for b in sys.roots:
                if a in (b, _neg(b)):
                    continue
                if strongly_orthogonal(sys, a, b):
                    assert strongly_orthogonal(sys, _neg(a), b)


def test_orthogonal_plus_long_is_strong():
    """The pairwise reference for the orthogonal-long check, which reads
    orthogonal rows."""
    for fam, rank in [("B", 2), ("C", 3), ("F", 4), ("G", 2)]:
        sys = build(fam, rank)
        for a in sys.roots:
            for b in sys.roots:
                if a in (b, _neg(b)) or sys.root_pairing(a, b) != 0:
                    continue
                if sys.is_long(a) or sys.is_long(b):
                    assert strongly_orthogonal(sys, a, b)


def test_coxeter_numbers():
    assert a2().coxeter_number() == 3
    assert build("A", 3).coxeter_number() == 4
    assert build("G", 2).coxeter_number() == 6


def test_coxeter_parity_characterizes_even_a():
    for fam, rank in [("A", 2), ("A", 4), ("A", 6), ("A", 8)]:
        assert build(fam, rank).coxeter_number() % 2 == 1
    for fam, rank in [("A", 3), ("B", 4), ("C", 3), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]:
        assert build(fam, rank).coxeter_number() % 2 == 0


def test_two_rho_pairings_even():
    for fam, rank in [("A", 3), ("B", 3), ("C", 4), ("G", 2), ("F", 4)]:
        sys = build(fam, rank)
        for alpha in sys.roots:
            val = 2 * sys.inner(sys.two_rho, alpha) / sys.inner(alpha, alpha)
            assert val.denominator == 1 and int(val) % 2 == 0


def test_weyl_orbit_examples():
    sys = a2()
    # images are sign-insensitive: the six roots of A2 give three images
    assert weyl_orbit(sys, [(1, 0)], 100) == {((0, 1),), ((1, 0),), ((1, 1),)}
    assert weyl_orbit(sys, [(-1, -1)], 100) == weyl_orbit(sys, [(1, 0)], 100)
    assert weyl_orbit(sys, [], 100) == {()}
    b2 = build("B", 2)
    pair = [b2.simples[0], b2.from_ambient([1, 1])]
    assert len(weyl_orbit(b2, pair, 100)) == 1
    # an orbit that fits its budget exactly is returned whole
    assert len(weyl_orbit(sys, [(1, 0)], 3)) == 3


def test_weyl_orbit_budget_names_limit_and_size():
    with pytest.raises(BudgetExceeded, match=r"reached 3 images, over the budget of 2"):
        weyl_orbit(a2(), [(1, 0)], 2)
    f4 = build("F", 4)
    with pytest.raises(BudgetExceeded, match=r"budget of 5\b"):
        weyl_orbit(f4, [f4.highest_root], 5, target=lambda canon: False)


def test_weyl_orbit_of_highest_root_counts_positive_long_roots():
    for fam, rank in [("A", 2), ("B", 3), ("F", 4), ("G", 2)]:
        sys = build(fam, rank)
        long_pos = [r for r in sys.positive_roots if sys.is_long(r)]
        orbit = weyl_orbit(sys, [sys.highest_root], 10_000)
        assert orbit == {(r,) for r in long_pos}


def test_weyl_orbit_target_mode():
    sys = build("B", 3)
    start = [sys.highest_root]
    assert weyl_orbit(sys, start, 100, target=lambda canon: canon == (sys.highest_root,)) == (
        (sys.highest_root,),
        (),
    )
    short = sys.simples[2]
    # a long root never reaches a short one: the orbit is exhausted
    assert weyl_orbit(sys, start, 100, target=lambda canon: canon == (short,)) is None
    found, word = weyl_orbit(sys, start, 100, target=lambda canon: canon == (sys.simples[0],))
    assert found == (sys.simples[0],)
    assert sys.pos_rep(apply_word(sys, word, sys.highest_root)) == sys.simples[0]


def _reference_reflection(sys, beta, v):
    pair = 2 * sys.inner(v, beta) / sys.inner(beta, beta)
    return tuple(a - pair * b for a, b in zip(v, beta))


def test_reflect_root_matches_reference_reflection():
    types = sorted({t for t in ACCEPTANCE_TYPES + TRICHOTOMY_TYPES if t[1] <= 4})
    for fam, rank in types:
        sys = build(fam, rank)
        for beta in sys.roots:
            for v in sys.roots:
                img = sys.reflect_root(beta, v)
                assert img == _reference_reflection(sys, beta, v)
                assert sys.reflect_root(beta, img) == v


@pytest.mark.parametrize("fam, rank", sorted(set(ACCEPTANCE_TYPES) | set(SIGN_CALCULUS_TYPES)))
def test_positive_sum_triples_match_a_scan_of_all_root_pairs(fam, rank):
    sys = build(fam, rank)
    pos = {r: i for i, r in enumerate(sys.positive_roots)}
    scan = set()
    for a in sys.roots:
        for b in sys.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if a in pos and b in pos and pos[a] < pos[b] and s in pos:
                scan.add((pos[a], pos[b], pos[s]))
    triples = sys.positive_sum_triples
    assert len(triples) == len(scan) and set(triples) == scan
    # the packed keys against tuple sums, order included
    pairs = combinations(enumerate(sys.positive_roots), 2)
    sums = ((i, j, tuple(map(add, a, b))) for (i, a), (j, b) in pairs)
    assert triples == tuple((i, j, pos[s]) for i, j, s in sums if s in pos)
    assert all(i < j < k for i, j, k in triples)
    assert sys.positive_sum_triples is triples  # built once


def test_positive_sum_triples_count_in_type_a():
    # (e_i - e_j) + (e_j - e_k) for i < j < k
    for n in range(1, 9):
        assert len(build("A", n).positive_sum_triples) == comb(n + 1, 3)


def test_extended_simple_set():
    # the facet roots of the base fine chamber: the simple roots and the lowest root
    def facets(fam, rank):
        return apartment.extended_simple_roots(apartment.base_chambers(build(fam, rank))[1])

    assert facets("A", 2) == [(-1, -1), (0, 1), (1, 0)]
    assert facets("A", 1) == [(-1,), (1,)]
    assert facets("G", 2) == [(-3, -2), (0, 1), (1, 0)]


def test_highest_root_dominates():
    for fam, rank in [("B", 4), ("F", 4), ("E", 7)]:
        sys = build(fam, rank)
        for r in sys.positive_roots:
            assert all(c <= h for c, h in zip(r, sys.highest_root))


def test_classify_subsystem_canonical_names():
    d5 = build("D", 5)
    # D3 inside D5 reports as A3
    sub = [r for r in d5.roots if all(c == 0 for c in r[:2])]
    assert classify_subsystem(d5, sub) == [("A", 3)]


def _ambient_oracle(sys):
    """<a, b_vee> and squared lengths from ambient coordinates.

    The ratio is scale-invariant and never reads the Gram matrix.
    """
    amb = {r: to_ambient(sys, r) for r in sys.roots}

    def dot(a, b):
        return sum(x * y for x, y in zip(amb[a], amb[b]))

    return (lambda a, b: Fraction(2 * dot(a, b), dot(b, b))), (lambda a: dot(a, a))


def test_root_pairing_matches_ambient_oracle_small_ranks():
    types = sorted({t for t in ACCEPTANCE_TYPES + TRICHOTOMY_TYPES if t[1] <= 4})
    for fam, rank in types:
        sys = build(fam, rank)
        pairing, _ = _ambient_oracle(sys)
        for a in sys.roots:
            for b in sys.roots:
                assert sys.root_pairing(a, b) == pairing(a, b)


def test_root_pairing_simples_and_highest_match_ambient_oracle():
    for fam, rank in ACCEPTANCE_TYPES:
        sys = build(fam, rank)
        pairing, _ = _ambient_oracle(sys)
        for b in list(sys.simples) + [sys.highest_root]:
            for a in sys.roots:
                assert sys.root_pairing(a, b) == pairing(a, b)
                assert sys.root_pairing(b, a) == pairing(b, a)


def test_is_long_and_cartan_match_ambient():
    for fam, rank in ACCEPTANCE_TYPES + TRICHOTOMY_TYPES:
        sys = build(fam, rank)
        pairing, len_sq = _ambient_oracle(sys)
        longest = max(len_sq(r) for r in sys.roots)
        for r in sys.roots:
            assert sys.is_long(r) == (len_sq(r) == longest)
            assert sys.inner(r, r) == Fraction(2 * len_sq(r), longest)
        for i, ai in enumerate(sys.simples):
            for j, aj in enumerate(sys.simples):
                assert sys.cartan[i][j] == pairing(aj, ai)


def test_gram_is_integral_with_family_denominator():
    # two joined short simple roots pair to -1/2 (C of rank >= 3, F4);
    # C2 has one short simple root, so its Gram is integral
    expected = {"A": 1, "B": 1, "C": 2, "D": 1, "E": 1, "F": 2, "G": 3}
    for fam, rank in ACCEPTANCE_TYPES + TRICHOTOMY_TYPES:
        sys = build(fam, rank)
        assert sys.gram_denominator == (1 if (fam, rank) == ("C", 2) else expected[fam])
        assert all(type(x) is int for row in sys.gram for x in row)
        _, len_sq = _ambient_oracle(sys)
        longest = max(len_sq(r) for r in sys.roots)
        amb = [to_ambient(sys, s) for s in sys.simples]
        for i, u in enumerate(amb):
            for j, v in enumerate(amb):
                # inner keeps its exact Fraction value, long roots at length 2
                ref = Fraction(2 * sum(x * y for x, y in zip(u, v)), longest)
                assert sys.inner(sys.simples[i], sys.simples[j]) == ref
                assert sys.gram[i][j] == ref * sys.gram_denominator


def test_non_integral_pairing_raises():
    # (3, 0) is not a root of A2: 2<a1, 3a1> / <3a1, 3a1> = 2/3
    with pytest.raises(AssertionError, match="non-integral root pairing"):
        a2().root_pairing((1, 0), (3, 0))
    with pytest.raises(AssertionError, match="non-integral root pairing"):
        a2().coroot((3, 0))
