import itertools
from fractions import Fraction
from functools import lru_cache

import pytest
from oracles import all_pairs_constraints, sigma_chamber_by_heights

from steinberg_lab import apartment, cochain, linalg, prasad, rootsys, suites, tables
from steinberg_lab.cochain import (
    SignCharacter,
    a2n_class_value,
    build_constraints,
    canonical_sigma_chamber,
    coroot_action,
    eic_character,
    extend_by_harmonicity,
    iwahori_vector,
    panel_sum,
    r1_r2,
    sign_vector,
    solve_character,
    solved_character,
)
from steinberg_lab.errors import (
    AmbiguousConstraints,
    InconsistentConstraints,
    NonIntegralPairing,
    NotApplicable,
    UnsupportedPanel,
)
from steinberg_lab.linalg import solve_exact
from steinberg_lab.rootsys import build
from steinberg_lab.suites import SIGN_CALCULUS_TYPES


def test_sign_vector_and_character_basics():
    v = sign_vector(3, [1, 3])
    w = sign_vector(3, [3])
    vw = sign_vector(3, [1, 3, 3])  # the indices XOR, so this is v + w in (Z/2)^3
    assert vw.support() == [1]
    chi = SignCharacter(0b101, 3)
    assert chi.value(v) == 1  # bits 1 and 3 both flip: (-1)^2
    assert chi.value(w) == -1
    assert chi.value(vw) == chi.value(v) * chi.value(w) == -1


def test_eic_values_per_family():
    assert eic_character(build("A", 3)).values_on_basis() == [-1, -1]
    assert eic_character(build("C", 3)).values_on_basis() == [-1, 1, -1]
    assert eic_character(build("B", 4)).values_on_basis() == [1, -1, 1, -1]
    assert eic_character(build("B", 3)).values_on_basis() == [1, -1, -1]
    assert eic_character(build("G", 2)).values_on_basis() == [-1, -1]
    assert eic_character(build("D", 5)).values_on_basis() == [-1, -1, -1, -1]
    with pytest.raises(NotApplicable):
        eic_character(build("A", 2))
    with pytest.raises(NotApplicable):  # no sign basis in type A of even rank
        solved_character(build("A", 4))


def test_coroot_action_examples():
    e6 = build("E", 6)
    members = tables.sign_basis(e6)
    act = coroot_action(e6, members, e6.cartan[3])  # alpha_4_vee
    assert act.support() == [1, 2, 3, 4]
    assert solved_character(e6).coroot_actions[3] == act
    b4 = build("B", 4)
    members4 = tables.sign_basis(b4)
    act4 = coroot_action(b4, members4, b4.cartan[1])  # alpha_2_vee
    assert act4.support() == [1, 2, 3, 4]
    # a member's own coroot acts trivially
    a3 = build("A", 3)
    membersa = tables.sign_basis(a3)
    beta_co = [-x for x in a3.cartan[0]]  # coroot of beta_1 = -alpha_1
    assert coroot_action(a3, membersa, beta_co).bits == 0
    with pytest.raises(NonIntegralPairing):
        coroot_action(a3, membersa, [Fraction(2, 3), Fraction(-1, 3), 0])  # alpha_1_vee / 3


def test_solve_character_unique():
    chi = solve_character(2, [(sign_vector(2, [1]), -1), (sign_vector(2, [1, 2]), 1)])
    assert chi.values_on_basis() == [-1, -1]


def test_solve_character_ambiguous():
    with pytest.raises(AmbiguousConstraints) as info:
        solve_character(2, [(sign_vector(2, [1, 2]), 1)])
    assert info.value.free_vectors


def test_solve_character_inconsistent():
    constraints = [
        (sign_vector(2, [1]), -1),
        (sign_vector(2, [2]), -1),
        (sign_vector(2, [1, 2]), -1),
    ]
    sign_of = dict(constraints)
    # every order, so that some contradiction runs through a pivot row cleared later
    for order in itertools.permutations(constraints):
        with pytest.raises(InconsistentConstraints) as info:
            solve_character(2, list(order))
        combination = info.value.combination
        assert combination
        # the violated combination: its vectors cancel while its signs multiply to -1
        bits, sign = 0, 1
        for vec in combination:
            bits ^= vec.bits
            sign *= sign_of[vec]
        assert (bits, sign) == (0, -1)


def _constraints(sys):
    solved = solved_character(sys)
    return build_constraints(sys, solved.members, solved.coroot_actions)


def test_build_constraints_a1():
    a1 = build("A", 1)
    cons = _constraints(a1)
    assert (sign_vector(1, [1]), -1) in cons


def test_build_constraints_cd_pairs():
    c3 = build("C", 3)
    cons = _constraints(c3)
    pairs = {tuple(v.support()) for v, s in cons if s == -1 and len(v.support()) == 2}
    assert (1, 2) in pairs and (2, 3) in pairs


def test_build_constraints_b4():
    b4 = build("B", 4)
    cons = _constraints(b4)
    singles = {tuple(v.support()) for v, s in cons if s == -1 and len(v.support()) == 1}
    assert (2,) in singles and (4,) in singles
    quads = {tuple(v.support()) for v, s in cons if s == 1 and len(v.support()) == 4}
    assert (1, 2, 3, 4) in quads
    pairs = {tuple(v.support()) for v, s in cons if s == -1 and len(v.support()) == 2}
    assert (3, 4) in pairs


def test_pair_constraints_are_distinct():
    # swapping a pair negates its connecting root, so no pair is emitted twice
    total = 0
    for fam, rank in SIGN_CALCULUS_TYPES:
        cons = _constraints(build(fam, rank))
        pairs = [v for v, s in cons if s == -1 and len(v.support()) == 2]
        assert len(pairs) == len(set(pairs)), f"{fam}{rank}"
        total += len(pairs)
    assert total > 0


def test_build_constraints_match_the_all_pairs_oracle():
    # pairing only members of equal parity keeps every entry in the same order, and
    # the weight row gives the chamber the height functions give, in both branches
    branches = set()
    for fam, rank in SIGN_CALCULUS_TYPES:
        sys = build(fam, rank)
        solved = solved_character(sys)
        chamber = canonical_sigma_chamber(sys, solved.members)
        assert chamber == sigma_chamber_by_heights(sys, solved.members), f"{fam}{rank}"
        branches.add(chamber.h == tuple(-sum(r) for r in sys.positive_roots))
        expected = all_pairs_constraints(sys, solved.members, solved.coroot_actions)
        assert _constraints(sys) == expected, f"{fam}{rank}"
    assert branches == {True, False}


def test_canonical_chamber_a1():
    sys = build("A", 1)
    members = tables.sign_basis(sys)
    ch = canonical_sigma_chamber(sys, members)
    assert Fraction(ch.value((1,)), 2) == Fraction(-1, 2)
    assert Fraction(ch.value((-1,)), 2) == 1


def test_canonical_chamber_c2_long_weights():
    sys = build("C", 2)
    members = tables.sign_basis(sys)
    ch = canonical_sigma_chamber(sys, members)
    for m in members:
        assert ch.value(m) % 2 == 0  # integer values on the set
    for alpha in sys.roots:
        assert ch.value(alpha) + ch.value(tuple(-c for c in alpha)) == 1


def test_canonical_chamber_is_concave_on_every_sign_calculus_type():
    # h = -weight is linear, so every slack is 0; the program itself never runs this test
    for fam, rank in SIGN_CALCULUS_TYPES:
        sys = build(fam, rank)
        chamber = canonical_sigma_chamber(sys, tables.sign_basis(sys))
        assert apartment.check_concave(chamber), f"{fam}{rank}"


def test_suite_cochain_looks_up_each_sign_basis_once(monkeypatch):
    looked_up = []
    sign_basis = tables.sign_basis

    def counting(sys):
        looked_up.append(sys.type)
        return sign_basis(sys)

    monkeypatch.setattr(tables, "sign_basis", counting)
    suites.suite_cochain()
    # one per solve of the sign-calculus types, one per r1_r2 of A3, D5 and E6
    assert len(SIGN_CALCULUS_TYPES) == 28
    assert len(looked_up) == 31


def test_suite_cochain_inverts_no_cartan_matrix(monkeypatch):
    # coweights are integer rows, so no Cartan matrix is inverted, and the sign
    # bases written in epsilon coordinates are read through the forward ambient
    # map: the suite solves nothing.  Systems come from a fresh cache so no
    # table is inherited
    monkeypatch.setattr(rootsys, "build", lru_cache(maxsize=None)(rootsys.build.__wrapped__))
    solves = []
    solve = linalg.solve_exact
    monkeypatch.setattr(linalg, "solve_exact", lambda *args: solves.append(args) or solve(*args))
    suites.suite_cochain()
    assert solves == []


def test_solved_equals_tabled_everywhere():
    for fam, rank in [("A", 5), ("B", 5), ("C", 4), ("D", 6), ("E", 6), ("F", 4), ("G", 2)]:
        sys = build(fam, rank)
        assert solved_character(sys).character == eic_character(sys)


def test_solved_character_chi_compatibility():
    for fam, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("D", 5), ("E", 6), ("E", 7)]:
        sys = build(fam, rank)
        solved = solved_character(sys)
        chi = solved.character
        for xi in tables.chi_test_coweights(sys):
            assert chi.value(coroot_action(sys, solved.members, xi)) == prasad.chi_on_torus(sys, xi)


def test_iwahori_vector_values():
    sys = build("A", 1)
    _, ce = apartment.base_chambers(sys)
    vec = iwahori_vector(ce, 3, 4)
    assert vec.value(ce) == 1
    adj = apartment.reflect(ce, ((1,), 0))
    assert vec.value(adj) == Fraction(-1, 3)
    moved = apartment.translate(ce, (2,))  # by alpha_vee
    assert vec.value(moved) == Fraction(1, 81)
    with pytest.raises(ValueError):
        iwahori_vector(ce, 4, 2)
    with pytest.raises(ValueError, match="radius must be nonnegative"):  # once read as 0
        iwahori_vector(ce, 3, -2)
    with pytest.raises(ValueError, match="q must be an odd integer >= 3"):  # once a TypeError
        iwahori_vector(ce, 5.0, 1)


def test_panel_sums_vanish_for_iwahori():
    # every panel of a radius-6 ball, against many reference chambers
    for fam, rank in [("A", 1), ("A", 2)]:
        sys = build(fam, rank)
        _, ce = apartment.base_chambers(sys)
        ball = [c for shell in apartment.chambers_within(ce, 6) for c in shell]
        # the pairs come from the general wall reflection, not from wall_neighbors
        panels = {
            frozenset((ch, apartment.reflect(ch, (root, ch.value(root)))))
            for ch in ball
            for root in apartment.extended_simple_roots(ch)
        }
        refs = [c for shell in apartment.chambers_within(ce, 2) for c in shell]
        for ref in refs:
            vec = iwahori_vector(ref, 3, 9)
            for panel in panels:
                assert panel_sum(panel, vec) == 0


def test_panel_sum_requires_adjacent_chambers():
    sys = build("A", 2)
    _, ce = apartment.base_chambers(sys)
    vec = iwahori_vector(ce, 3, 4)
    far = apartment.chambers_within(ce, 2)[2][0]
    with pytest.raises(UnsupportedPanel, match="distance 2"):
        panel_sum((ce, far), vec)
    with pytest.raises(UnsupportedPanel, match="distance 0"):
        panel_sum((ce, ce), vec)


def test_panel_sum_examples():
    sys = build("A", 1)
    _, ce = apartment.base_chambers(sys)
    other = apartment.reflect(ce, ((1,), 0))
    near_indicator = cochain.Cochain(base=ce, q=3, profile=(Fraction(1),))
    assert panel_sum((ce, other), near_indicator) == 1
    assert panel_sum((other, ce), near_indicator) == 1
    balanced = cochain.Cochain(base=ce, q=3, profile=(Fraction(1), Fraction(-1, 3)))
    assert panel_sum((ce, other), balanced) == 0


def test_extension_from_single_chamber():
    sys = build("A", 2)
    _, ce = apartment.base_chambers(sys)
    ball = [c for shell in apartment.chambers_within(ce, 3) for c in shell]
    ext = extend_by_harmonicity(ce, Fraction(5), 3, 3)
    vec = iwahori_vector(ce, 3, 3)
    for c in ball:
        assert ext.value(c) == 5 * vec.value(c)
    # the panels whose two chambers both carry a value: both within the radius
    inside = set(ball)
    for c in ball:
        for root in apartment.extended_simple_roots(c):
            other = apartment.reflect(c, (root, c.value(root)))
            if other in inside:
                assert panel_sum((c, other), ext) == 0


def test_extension_zero_base():
    sys = build("A", 1)
    _, ce = apartment.base_chambers(sys)
    ball = [c for shell in apartment.chambers_within(ce, 3) for c in shell]
    ext = extend_by_harmonicity(ce, Fraction(0), 3, 3)
    assert ext.profile == (0, 0, 0, 0)
    assert all(ext.value(c) == 0 for c in ball)
    with pytest.raises(ValueError, match="q must be an odd integer >= 3"):  # q = 2 once extended
        extend_by_harmonicity(ce, Fraction(1), 2, 3)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        extend_by_harmonicity(ce, Fraction(1), 3, -1)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_extension_profile_is_the_closed_form(q):
    # built step by step from the panel equation, compared with value * (-1/q)^d
    _, ce = apartment.base_chambers(build("A", 2))
    for value in (Fraction(1), Fraction(-2, 7)):
        ext = extend_by_harmonicity(ce, value, q, 9)
        assert len(ext.profile) == 10
        assert all(ext.at(d) == value * Fraction(-1, q) ** d for d in range(10))
        assert ext.at(10) == 0


@pytest.mark.parametrize("fam, rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_adjacent_chambers_are_one_apart_from_every_chamber(fam, rank):
    # why panel_sum needs no equidistant case: a panel's two chambers differ in one
    # coordinate of h by the ceiling, so their distances to any chamber differ by 1
    for base in apartment.base_chambers(build(fam, rank)):
        ball = [c for shell in apartment.chambers_within(base, 4) for c in shell]
        panels = {frozenset((c, other)) for c in ball for other in apartment.wall_neighbors(c).values()}
        assert len(panels) > len(ball)
        for a, b in panels:
            assert all(abs(apartment.distance(a, c) - apartment.distance(b, c)) == 1 for c in ball)


def test_a2n_class_values():
    assert a2n_class_value(0, 3, 7) == 7
    assert a2n_class_value(1, 3, 1) == Fraction(-1, 2)
    assert a2n_class_value(2, 3, 1) == Fraction(1, 2)
    assert a2n_class_value(3, 5, 1) == Fraction(1, -4) * Fraction(2, -4) * Fraction(2, -4)
    with pytest.raises(ValueError, match="q must be an odd integer >= 3"):  # was a ZeroDivisionError
        a2n_class_value(1, 1, 1)


def test_r1_r2_values():
    for fam, rank, expect in [("A", 3, (4, 2)), ("D", 5, (8, 4)), ("E", 6, (8, 4))]:
        rr = r1_r2(build(fam, rank))
        assert (rr.r1, rr.r2) == expect
        assert rr.r2 < rr.r1 and rr.r1 == 2 * rr.r2


def test_r1_r2_more_ranks():
    for fam, rank in [("A", 5), ("A", 7), ("D", 7)]:
        rr = r1_r2(build(fam, rank))
        assert rr.r1 == 2 * rr.r2


def test_r1_r2_not_applicable():
    # a sign basis supported on every simple root fixes a vertex: no wall counts
    applicable = []
    for fam, rank in SIGN_CALCULUS_TYPES + [("A", 2), ("A", 4)]:
        try:
            r1_r2(build(fam, rank))
        except NotApplicable:
            continue
        applicable.append(f"{fam}{rank}")
    assert applicable == ["A3", "A5", "A7", "D5", "D7", "E6"]


def _b2_by_root_count(sys, beta, alpha):
    """Reference: the roots in the rational span of beta and alpha number eight."""
    cols = [list(beta), list(alpha)]
    try:
        span = [r for r in sys.roots if solve_exact(cols, [Fraction(c) for c in r]) is not None]
    except ValueError:  # proportional columns span no plane
        return False
    return len(span) == 8


def test_rank_two_b2_matches_root_count(monkeypatch):
    reached = []
    pairing_test = cochain._rank_two_b2

    def recording(sys, beta, alpha):
        reached.append((sys, beta, alpha))
        return pairing_test(sys, beta, alpha)

    monkeypatch.setattr(cochain, "_rank_two_b2", recording)
    for fam, rank in SIGN_CALCULUS_TYPES:
        solved_character(build(fam, rank))
    assert len(reached) == 34
    for sys, beta, alpha in reached:
        assert pairing_test(sys, beta, alpha) == _b2_by_root_count(sys, beta, alpha)
