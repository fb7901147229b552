import re
from fractions import Fraction
from itertools import product

import pytest
from oracles import bfs_shells, solved_affine_relation, translate_by_pairings

from steinberg_lab import apartment, linalg, tables
from steinberg_lab.apartment import (
    E_LEVEL,
    F_LEVEL,
    Chamber,
    base_chambers,
    central_chamber,
    chambers_within,
    check_concave,
    distance,
    e_chambers_in_f_chamber,
    extended_simple_roots,
    facet_functional,
    is_central,
    reflect,
    translate,
    wall_neighbors,
)
from steinberg_lab.errors import (
    HalfIntegralityViolation,
    LevelMismatch,
    NonIntegralPairing,
    NotARoot,
    NotAWall,
    NotTypeA2n,
)
from steinberg_lab.rootsys import RootSystem, _neg, build
from steinberg_lab.suites import ACCEPTANCE_TYPES


def test_base_chambers_a1():
    sys = build("A", 1)
    cf, ce = base_chambers(sys)
    assert cf.value((1,)) == 0 and cf.value((-1,)) == 2
    assert ce.value((1,)) == 0 and ce.value((-1,)) == 1


def test_distance_basics():
    sys = build("A", 1)
    cf, ce = base_chambers(sys)
    assert distance(ce, ce) == 0
    adjacent = reflect(ce, ((1,), 0))
    assert distance(ce, adjacent) == 1
    moved = translate(ce, (2,))  # by alpha_vee
    assert distance(ce, moved) == 4
    moved_f = translate(cf, (2,))
    assert distance(cf, moved_f) == 2
    with pytest.raises(LevelMismatch):
        distance(ce, cf)


def test_translate_identity_and_parity():
    sys = build("A", 2)
    _, ce = base_chambers(sys)
    assert translate(ce, [0, 0]) == ce
    for xi in ([1, 0], [2, -1], [1, 1]):
        assert distance(ce, translate(ce, xi)) % 2 == 0


def test_translation_by_a_coroot_is_two_parallel_reflections():
    # t_{beta_vee} = s_{beta, 1} s_{beta, 0}: h(alpha) moves by 2 <alpha, beta_vee>,
    # so the coroot rows agree with reflect
    cases = 0
    for fam, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        sys = build(fam, rank)
        for c0 in base_chambers(sys):
            for c in (c for shell in chambers_within(c0, 2) for c in shell):
                for b in sys.roots:
                    assert translate(c, sys.coroot(b)) == reflect(reflect(c, (b, 0)), (b, 2))
                    cases += 1
    assert cases == 500


def test_chamber_rejects_an_unknown_level():
    sys = build("A", 1)
    with pytest.raises(ValueError, match="level must be 'E' or 'F', not 'f'"):
        Chamber(sys, "f", (1,))
    assert Chamber(sys, E_LEVEL, (1,)).ceiling == 1


def test_translate_rejects_a_non_integral_coweight():
    _, ce = base_chambers(build("A", 2))
    with pytest.raises(NonIntegralPairing, match=re.escape("<(0, 1), xi> = -1/3")):
        translate(ce, [Fraction(2, 3), Fraction(-1, 3)])  # alpha_1_vee / 3


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NonIntegralPairing, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fam, rank", [("A", 2), ("B", 3), ("G", 2)])
def test_translate_matches_one_pairing_per_root(fam, rank, monkeypatch):
    # xi is checked once and each root read as one row: the same chambers, the
    # same exception and message for a fractional or a wrong-length row, int h
    # for a Fraction row with integral entries, and no pairing on an integral row
    sys = build(fam, rank)
    third = [Fraction(1, 3)] * rank
    rows = [
        [1] * rank,
        [Fraction(2 * i - 1) for i in range(rank)],
        [*third[:-1], Fraction(-1)],
        [*[0] * (rank - 1), Fraction(1, 2)],
        [1] * (rank - 1),
        [1] * (rank + 1),
        third[:-1],
    ]
    cf, ce = base_chambers(sys)
    for c in (cf, ce):
        for xi in rows:
            expected = _outcome(translate_by_pairings, c, xi)
            assert _outcome(translate, c, xi) == expected
            if isinstance(expected, Chamber):
                assert all(type(v) is int for v in translate(c, xi).h)
    assert [type(_outcome(translate, ce, xi)) for xi in rows] == [Chamber] * 2 + [tuple] * 5
    pairings = []
    pairing = RootSystem.pairing
    monkeypatch.setattr(RootSystem, "pairing", lambda *args: pairings.append(args) or pairing(*args))
    translate(ce, rows[1])
    assert pairings == []


def test_reflect_involution_and_walls():
    sys = build("A", 2)
    cf, ce = base_chambers(sys)
    wall = ((1, 0), ce.value((1, 0)))
    assert reflect(reflect(ce, wall), wall) == ce
    with pytest.raises(NotAWall):
        reflect(cf, ((1, 0), 1))  # odd wall at the coarse level


def test_chambers_within_counts():
    a1 = build("A", 1)
    _, ce = base_chambers(a1)
    shells = chambers_within(ce, 2)
    assert [len(s) for s in shells] == [1, 2, 2]
    with pytest.raises(ValueError, match="radius must be nonnegative"):  # once read as 0
        chambers_within(ce, -1)
    a2 = build("A", 2)
    cf, _ = base_chambers(a2)
    shells = chambers_within(cf, 3)
    assert [len(s) for s in shells] == [1, 3, 6, 9]


WALK_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4), ("G", 2)]


@pytest.mark.parametrize("fam, rank", WALK_TYPES)
def test_outward_walk_matches_visited_set_bfs(fam, rank):
    # shell by shell, as Chamber lists, from the base and from a chamber off it
    # (the last of shell 2), at both levels
    sys = build(fam, rank)
    for c0 in base_chambers(sys):
        off = bfs_shells(c0, 2)[2][-1]
        for centre in (c0, off):
            for radius in range(5):
                assert chambers_within(centre, radius) == bfs_shells(centre, radius)


def test_distance_formula_matches_bfs_gallery():
    # gallery BFS depth equals the separating-wall count
    sys = build("B", 2)
    _, ce = base_chambers(sys)
    for dist, shell in enumerate(chambers_within(ce, 4)):
        for c in shell:
            assert distance(ce, c) == dist


def test_fine_chambers_inside_coarse():
    for fam, rank, count in [("A", 1, 2), ("A", 2, 4), ("A", 4, 16)]:
        sys = build(fam, rank)
        cf, _ = base_chambers(sys)
        assert len(e_chambers_in_f_chamber(cf)) == count
    with pytest.raises(LevelMismatch):
        _, ce = base_chambers(build("A", 1))
        e_chambers_in_f_chamber(ce)


@pytest.mark.parametrize(
    "fam, rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("C", 2), ("G", 2), ("B", 3)],
)
def test_fine_chambers_walk_matches_every_drop_pattern(fam, rank):
    # the pruned walk against the brute force: lower a coarse chamber by 0 or 1
    # on every positive root, keep the concave results, sort by h
    sys = build(fam, rank)
    cf, _ = base_chambers(sys)
    for coarse in [c for shell in chambers_within(cf, 2) for c in shell]:
        brute = [
            ch
            for drop in product((0, 1), repeat=len(coarse.h))
            if check_concave(ch := Chamber(sys, E_LEVEL, (v - d for v, d in zip(coarse.h, drop))))
        ]
        assert e_chambers_in_f_chamber(coarse) == sorted(brute, key=lambda ch: ch.h)


def brute_central(cf):
    """The one fine chamber of cf that is_central accepts, by the brute filter."""
    hits = [c for c in e_chambers_in_f_chamber(cf) if is_central(c)]
    assert len(hits) == 1
    return hits[0]


def test_central_chamber_a2_values():
    sys = build("A", 2)
    cf, _ = base_chambers(sys)
    c = central_chamber(sys, cf)
    assert c.value((-1, 0)) == 1
    assert c.value((0, -1)) == 1
    assert c.value((1, 1)) == -1
    assert brute_central(cf) == c


def test_central_chamber_counts():
    a4 = build("A", 4)
    cf, _ = base_chambers(a4)
    cells = e_chambers_in_f_chamber(cf)
    assert sum(1 for c in cells if is_central(c)) == 1
    assert central_chamber(a4, cf) == brute_central(cf)
    a3 = build("A", 3)
    cf3, _ = base_chambers(a3)
    assert sum(1 for c in e_chambers_in_f_chamber(cf3) if is_central(c)) == 0
    with pytest.raises(NotTypeA2n):
        central_chamber(a3, cf3)
    b2 = build("B", 2)
    with pytest.raises(NotTypeA2n):
        central_chamber(b2, base_chambers(b2)[0])


@pytest.mark.parametrize("rank, radius", [(2, 12), (4, 5), (6, 2)])
def test_central_chamber_closed_form_matches_brute_filter(rank, radius):
    # every coarse chamber of the ball, against the filter over its 2^d fine chambers
    sys = build("A", rank)
    cf, ce = base_chambers(sys)
    for shell in chambers_within(cf, radius):
        for coarse in shell:
            assert central_chamber(sys, coarse) == brute_central(coarse)
    with pytest.raises(LevelMismatch):
        central_chamber(sys, ce)


def test_central_distance_three_across_walls():
    sys = build("A", 2)
    cf, _ = base_chambers(sys)
    c0 = central_chamber(sys, cf)
    neighbors = wall_neighbors(cf)
    assert len(neighbors) == 3
    for nb in neighbors.values():
        assert distance(c0, central_chamber(sys, nb)) == 3


def test_distance_doubling_on_translations():
    for fam, rank in [("A", 2), ("C", 2), ("G", 2)]:
        sys = build(fam, rank)
        cf, ce = base_chambers(sys)
        for xi in ([1, 0], [0, 1], [2, 1], [-1, 3]):
            de = distance(ce, translate(ce, xi))
            df = distance(cf, translate(cf, xi))
            assert de == 2 * df


def containing_f_chamber(chamber):
    """The coarse chamber whose closure contains the given fine chamber; a test oracle.

    Per root, the coarse bound is the smallest even half-unit at or above
    the fine bound; exactly one of h(a), h(-a) is odd, so the sums stay 2.
    """
    if chamber.level != E_LEVEL:
        raise LevelMismatch("expected a fine-level chamber")
    return Chamber(chamber.system, F_LEVEL, (v + v % 2 for v in chamber.h))


def test_distance_doubling_from_arbitrary_chambers():
    sys = build("A", 2)
    _, ce = base_chambers(sys)
    sample = [c for shell in chambers_within(ce, 2) for c in shell]
    for c in sample:
        cf = containing_f_chamber(c)
        assert c in e_chambers_in_f_chamber(cf)
        for xi in ([1, 0], [1, -2], [0, 3]):
            de = distance(c, translate(c, xi))
            df = distance(cf, translate(cf, xi))
            assert de == 2 * df


def test_extended_simple_roots_of_base():
    sys = build("A", 2)
    _, ce = base_chambers(sys)
    assert extended_simple_roots(ce) == sorted([*sys.simples, _neg(sys.highest_root)])


FACET_BALLS = [
    ("A", 1, 3),
    ("A", 2, 3),
    ("B", 2, 3),
    ("C", 2, 3),
    ("G", 2, 3),
    ("A", 3, 2),
    ("B", 3, 2),
    ("C", 3, 2),
    ("D", 4, 1),
    ("F", 4, 1),
    ("E", 6, 1),
]


def _ball(fam, rank, radius, level):
    sys = build(fam, rank)
    cf, ce = base_chambers(sys)
    c0 = ce if level == E_LEVEL else cf
    return sys, [c for shell in chambers_within(c0, radius) for c in shell]


@pytest.mark.parametrize("level", [E_LEVEL, F_LEVEL])
@pytest.mark.parametrize("fam, rank, radius", FACET_BALLS)
def test_facet_roots_match_reflect_every_root(fam, rank, radius, level):
    # the definition: a facet root's wall leads to a chamber at distance 1
    sys, ball = _ball(fam, rank, radius, level)
    for ch in ball:
        oracle = {}
        for r in sys.roots:
            other = reflect(ch, (r, ch.value(r)))
            if distance(ch, other) == 1:
                oracle[r] = other
        assert len(oracle) == rank + 1
        assert extended_simple_roots(ch) == sorted(oracle)
        assert wall_neighbors(ch) == oracle


def _raise_and_test_neighbors(chamber):
    # the definition of a facet root, move by move: crossing the wall of r
    # raises h(r) by the ceiling, and r is a facet root exactly when the
    # raised vector passes Shi's test
    sys, h, top = chamber.system, chamber.h, chamber.ceiling
    half = len(h)
    out = {}
    for i, r in enumerate(sys.roots):
        # negatives fill the first half of the sorted roots, at the mirror
        # index of their opposites; raising h(-a) lowers h(a)
        p, step = (i - half, top) if i >= half else (half - 1 - i, -top)
        other = Chamber(sys, chamber.level, h[:p] + (h[p] + step,) + h[p + 1 :])
        if check_concave(other):
            out[r] = other
    return out


@pytest.mark.parametrize("level", [E_LEVEL, F_LEVEL])
@pytest.mark.parametrize("fam, rank, radius", FACET_BALLS + [("E", 8, 1)])
def test_slack_pass_matches_raise_and_test(fam, rank, radius, level):
    # same neighbours in the same key order
    _, ball = _ball(fam, rank, radius, level)
    for ch in ball:
        oracle = _raise_and_test_neighbors(ch)
        assert list(wall_neighbors(ch).items()) == list(oracle.items())


@pytest.mark.parametrize("level", [E_LEVEL, F_LEVEL])
@pytest.mark.parametrize("fam, rank, radius", FACET_BALLS)
def test_positive_half_encoding(fam, rank, radius, level):
    sys, ball = _ball(fam, rank, radius, level)
    ceiling = 1 if level == E_LEVEL else 2
    for ch in ball:
        assert len(ch.h) == len(sys.positive_roots)
        assert ch.ceiling == ceiling
        for a in sys.roots:
            assert ch.value(a) + ch.value(_neg(a)) == ceiling


def _concave_oracle(ch):
    # the definition: h(a) + h(b) >= h(a+b) for every pair of roots, of any
    # signs, whose sum is a root
    h = {r: ch.value(r) for r in ch.system.roots}
    for a in h:
        for b in h:
            s = tuple(x + y for x, y in zip(a, b))
            if s in h and h[a] + h[b] < h[s]:
                return False
    return True


@pytest.mark.parametrize("level", [E_LEVEL, F_LEVEL])
@pytest.mark.parametrize("fam, rank, radius", FACET_BALLS)
def test_check_concave_on_balls_matches_all_root_pairs(fam, rank, radius, level):
    _, ball = _ball(fam, rank, radius, level)
    for ch in ball:
        assert check_concave(ch) and _concave_oracle(ch)


@pytest.mark.parametrize("fam, rank", [("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_check_concave_on_drop_patterns_matches_all_root_pairs(fam, rank):
    # every way of lowering the base coarse chamber by 0 or 1 on each
    # positive root: the 2^rank fine chambers inside it, and non-chambers
    sys = build(fam, rank)
    cf, _ = base_chambers(sys)
    answers = []
    for drop in product((0, 1), repeat=len(cf.h)):
        ch = Chamber(sys, E_LEVEL, (v - d for v, d in zip(cf.h, drop)))
        answers.append(check_concave(ch))
        assert answers[-1] == _concave_oracle(ch)
    assert answers.count(True) == 2**rank and False in answers


def test_chamber_rejects_bad_tuples():
    sys = build("A", 2)
    with pytest.raises(ValueError):
        Chamber(sys, E_LEVEL, (0, 0, 0, 1, 1, 1))  # one value per root
    with pytest.raises(ValueError):
        Chamber(sys, F_LEVEL, (0, 0))
    with pytest.raises(ValueError):
        Chamber(sys, F_LEVEL, (0, 1, 0))  # odd at the coarse level
    # positive roots in order: (0, 1), (1, 0), (1, 1)
    ch = Chamber(sys, E_LEVEL, (0, 1, 0))
    assert (ch.value((1, 0)), ch.value((-1, 0)), ch.value((0, -1))) == (1, 0, 1)


def test_chamber_value_rejects_non_roots():
    _, ce = base_chambers(build("A", 2))
    for v in [(2, 0), (0, 0), [1, -1]]:
        with pytest.raises(NotARoot, match=re.escape(f"{tuple(v)} is not a root of A2")):
            ce.value(v)


def test_facet_functional_examples():
    a1 = build("A", 1)
    m = tables.sigma_a_table(a1)
    fn = facet_functional(a1, m, {m[0]: Fraction(3, 2)})
    assert fn[m[0]] == 3
    g2 = build("G", 2)
    members = tables.sigma_a_table(g2)
    fn2 = facet_functional(g2, members, {members[0]: Fraction(1, 2), members[1]: Fraction(-1, 2)})
    for alpha in g2.roots:
        assert isinstance(fn2[alpha], int)


def test_facet_functional_requires_proper_half_integers():
    a1 = build("A", 1)
    m = tables.sigma_a_table(a1)
    with pytest.raises(ValueError):
        facet_functional(a1, m, {m[0]: Fraction(1)})


def test_facet_functional_violation_guard():
    # over 2 eps1, eps2 + eps3 and eps2 - eps3 the root alpha_1 = eps1 - eps2 has
    # coroot pairings (1, -1, -1): with every value 1/2 its doubled value is
    # -1/2, so f'(alpha_1) is a quarter-integer
    c3 = build("C", 3)
    members = [c3.from_ambient(v) for v in ([2, 0, 0], [0, 1, 1], [0, 1, -1])]
    with pytest.raises(HalfIntegralityViolation, match=re.escape("value at (1, 0, 0) is not a half-integer")):
        facet_functional(c3, members, {m: Fraction(1, 2) for m in members})


def test_full_rank_facet_functionals_half_integral():
    for fam, rank in [("B", 4), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]:
        sys = build(fam, rank)
        members = tables.sigma_a_table(sys)
        values = {m: Fraction(2 * i + 1, 2) for i, m in enumerate(members)}
        fn = facet_functional(sys, members, values)
        for alpha in sys.roots:
            assert fn[alpha] + fn[tuple(-c for c in alpha)] == 0


def _spy(monkeypatch, owner, name):
    """Record the arguments of every call of owner.name."""
    calls = []
    fn = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_facet_functional_expands_each_positive_root_once(monkeypatch):
    # no solve and no pairing per positive root: each pair of members is paired once
    # to check orthogonality (reading the second member's coroot row), and each
    # member's coroot row is read once more to build the one row every positive root
    # is dotted with, on the 14 full-rank classified sets
    solves = _spy(monkeypatch, linalg, "solve_exact")
    pairings = _spy(monkeypatch, RootSystem, "root_pairing")
    rows = _spy(monkeypatch, RootSystem, "coroot")
    sets = expected_pairings = expected_rows = 0
    for fam, rank in ACCEPTANCE_TYPES:
        sys = build(fam, rank)
        members = tables.sigma_a_table(sys)
        if len(members) == rank:
            facet_functional(sys, members, {m: Fraction(1, 2) for m in members})
            assert rows[-rank:] == [(sys, m) for m in members]
            sets += 1
            expected_pairings += rank * (rank - 1) // 2
            expected_rows += rank * (rank - 1) // 2 + rank
    assert (sets, len(solves)) == (14, 0)
    assert len(pairings) == expected_pairings == len(set(pairings))
    assert len(rows) == expected_rows


def test_affine_relation_identity(monkeypatch):
    # at the base chamber the facet roots sort as -theta, alpha_d, ..., alpha_1
    # and the relation is the marks: 1 on -theta, the highest root's coefficients;
    # the relation is read off integer cofactors, with no solve
    solves = _spy(monkeypatch, linalg, "solve_exact")
    chambers = 0
    for fam, rank in ACCEPTANCE_TYPES:
        sys = build(fam, rank)
        _, ce = base_chambers(sys)
        ext, rel = apartment.affine_relation(ce)
        assert ext == [_neg(sys.highest_root), *reversed(sys.simples)]
        assert rel == [1, *reversed(sys.highest_root)]
        chambers += 1
    for fam, rank in [("A", 2), ("G", 2), ("B", 2)]:
        sys = build(fam, rank)
        marks = sorted([1, *sys.highest_root])
        _, ce = base_chambers(sys)
        for shell in chambers_within(ce, 2):
            for ch in shell:
                ext, rel = apartment.affine_relation(ch)
                assert sum(c * ch.value(r) for c, r in zip(rel, ext)) == 1
                assert sorted(rel) == marks
                chambers += 1
    assert (chambers, len(solves)) == (46, 0)


RELATION_BALLS = [("A", 2, 3), ("B", 2, 3), ("G", 2, 3), ("A", 3, 2), ("B", 3, 2), ("C", 3, 2)]


def test_affine_relation_matches_the_fraction_solve():
    # integer cofactors against the solve of the first facet root over the others,
    # at both levels of each ball and at the base chamber of every acceptance type
    chambers = [base_chambers(build(fam, rank))[1] for fam, rank in ACCEPTANCE_TYPES]
    for fam, rank, radius in RELATION_BALLS:
        for c0 in base_chambers(build(fam, rank)):
            chambers += [c for shell in chambers_within(c0, radius) for c in shell]
    for ch in chambers:
        assert apartment.affine_relation(ch) == solved_affine_relation(ch)
    assert len(chambers) == 208


def test_triangle_inequality_sampled():
    sys = build("A", 2)
    _, ce = base_chambers(sys)
    ball = [c for shell in chambers_within(ce, 3) for c in shell]
    sample = ball[::3]
    for a in sample:
        for b in sample:
            for c in sample:
                assert distance(a, c) <= distance(a, b) + distance(b, c)
