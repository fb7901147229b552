"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All comparisons are exact (integer or reduced-fraction equality); the only
tolerances that appear are the exact rational tail bounds of the partial-sum
criterion, which are themselves part of the statement.
"""

from fractions import Fraction

import pytest

from steinberg_lab import apartment, cochain, prasad, series, sorth, tables, tree_oracle
from steinberg_lab.rootsys import apply_word, build
from steinberg_lab.suites import ACCEPTANCE_TYPES, SIGN_CALCULUS_TYPES, TRICHOTOMY_TYPES

FULL_RANK_TYPES = [
    ("A", 1),
    ("B", 2), ("B", 3), ("B", 4), ("B", 5),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 6),
    ("E", 7), ("E", 8),
    ("F", 4), ("G", 2),
]


def _report(criterion, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}")
    assert ok, criterion


def test_criterion_01_sigma_tables():
    ok = True
    for fam, rank in ACCEPTANCE_TYPES:
        sys = build(fam, rank)
        sa = sorth.sigma_a(sys)
        table = sorth.so_set(sys, tables.sigma_a_table(sys))
        res = sorth.is_conjugate_subset_of(sys, sa, table)
        if res.status != "yes" or len(sa) != len(table):
            ok = False
            continue
        target = {sys.pos_rep(t) for t in table}
        if not all(sys.pos_rep(apply_word(sys, res.word, m)) in target for m in sa):
            ok = False
    _report("criterion 1: classified sets match the tables with certificates", ok)


def test_criterion_02_trichotomy():
    ok = True
    for fam, rank in TRICHOTOMY_TYPES:
        sys = build(fam, rank)
        if not sorth.verify_anismax(sys).ok:
            ok = False
        if fam == "A" and rank % 2 == 0:
            reps = sorth.enumerate_so_sets(sys)
            if not all(sorth.satisfies_c1(sys, rep) for rep in reps if len(rep) > 0):
                ok = False
    _report("criterion 2: exhaustive trichotomy over conjugacy classes", ok)


def test_criterion_03_coxeter_parity():
    ok = all(build(f, r).coxeter_number() % 2 == 0 for f, r in ACCEPTANCE_TYPES)
    ok = ok and all(build("A", r).coxeter_number() % 2 == 1 for r in (2, 4, 6, 8))
    _report("criterion 3: coxeter number odd exactly in type A of even rank", ok)


def test_criterion_04_central_chambers():
    ok = True
    for rank, cells in [(2, 4), (4, 16)]:
        sys = build("A", rank)
        cf, _ = apartment.base_chambers(sys)
        inside = apartment.e_chambers_in_f_chamber(cf)
        central = [c for c in inside if apartment.is_central(c)]
        if len(inside) != cells or len(central) != 1:
            ok = False
        if apartment.central_chamber(cf) != central[0]:
            ok = False
    sys3 = build("A", 3)
    cf3, _ = apartment.base_chambers(sys3)
    if any(apartment.is_central(c) for c in apartment.e_chambers_in_f_chamber(cf3)):
        ok = False
    _report("criterion 4: central chamber counts and formula agreement", ok)


def test_criterion_05_distance_doubling():
    import random

    rng = random.Random(20240817)
    ok = True
    for fam, rank in [("A", 2), ("C", 2), ("G", 2)]:
        sys = build(fam, rank)
        cf, ce = apartment.base_chambers(sys)
        for _ in range(100):
            xi = [rng.randint(-3, 3) for _ in range(rank)]
            de = apartment.distance(ce, apartment.translate(ce, xi))
            df = apartment.distance(cf, apartment.translate(cf, xi))
            if de != 2 * df:
                ok = False
    _report("criterion 5: fine distance doubles the coarse distance", ok)


def test_criterion_06_adjacent_central_distance():
    sys = build("A", 2)
    cf, _ = apartment.base_chambers(sys)
    c0 = apartment.central_chamber(cf)
    neighbors = apartment.wall_neighbors(cf)
    ok = len(neighbors) == 3 and all(
        apartment.distance(c0, apartment.central_chamber(nb)) == 3
        for nb in neighbors.values()
    )
    _report("criterion 6: adjacent central chambers at distance three", ok)


def test_criterion_07_poincare_crosscheck():
    ok = True
    for fam, rank in [("A", 1), ("A", 2), ("C", 2), ("G", 2), ("A", 3)]:
        sys = build(fam, rank)
        if series.poincare_closed(sys, 10) != series.poincare_bfs(sys, 10):
            ok = False
    _report("criterion 7: closed-form series equals alcove counts to degree 10", ok)


def test_criterion_08_lambda_certification():
    ok = True
    for q in (3, 5, 7):
        lam = series.lambda_a2n_partial(1, q, 12)
        for r in range(6, 13):
            if abs(lam.partial_sums[r] - 1) > lam.tail_bounds[r]:
                ok = False
        if not lam.tail_bounds[12] < Fraction(1, 100):
            ok = False
    _report("criterion 8: partial sums certified against 1 within tail bounds", ok)


def test_criterion_09_sign_calculus():
    ok = True
    for fam, rank in SIGN_CALCULUS_TYPES:
        sys = build(fam, rank)
        solved = cochain.solved_character(sys)
        chi = solved.character
        if chi != cochain.eic_character(sys):
            ok = False
        if len(solved.coroot_actions) != rank:
            ok = False
        for act in solved.coroot_actions:
            if chi.value(act) != 1:
                ok = False
        for xi in tables.chi_test_coweights(sys):
            lhs = chi.value(cochain.coroot_action(sys, solved.members, xi))
            if lhs != prasad.chi_on_torus(sys, xi):
                ok = False
    _report("criterion 9: sign characters solve uniquely and compatibly", ok)


def test_criterion_10_wall_count_ratios():
    expected = {("A", 3): (4, 2), ("D", 5): (8, 4), ("E", 6): (8, 4)}
    ok = True
    for (fam, rank), pair in expected.items():
        rr = cochain.r1_r2(build(fam, rank))
        if (rr.r1, rr.r2) != pair or rr.r2 >= rr.r1 or rr.r1 != 2 * rr.r2:
            ok = False
    _report("criterion 10: wall-count pairs (4,2), (8,4), (8,4)", ok)


def test_criterion_11_half_integrality():
    ok = True
    for fam, rank in FULL_RANK_TYPES:
        sys = build(fam, rank)
        members = tables.sigma_a_table(sys)
        assert len(members) == rank
        values = {m: Fraction(2 * i + 1, 2) for i, m in enumerate(members)}
        try:
            apartment.facet_functional(sys, members, values)
        except Exception:
            ok = False
    _report("criterion 11: facet functionals half-integral on full-rank sets", ok)


@pytest.mark.parametrize("q", [3, 5])
def test_criterion_12_tree_oracle(q):
    ball = tree_oracle.build_ball(q, 8)
    ok = tree_oracle.chamber_count_by_distance(ball) == [1] + [
        2 * q**n for n in range(1, 9)
    ]
    sums = tree_oracle.shell_abs_sums(q, tree_oracle.chamber_count_by_distance(ball))
    ok = ok and all(s == 2 for s in sums[1:])
    if q == 3:
        hc = tree_oracle.verify_hctest(ball, 3)
    else:
        hc = tree_oracle.verify_hctest(ball, 1, panel_depth=5)
    ok = ok and hc.failures == 0
    base = tree_oracle.legendre_base(ball)
    ok = ok and sum(1 for v in base.values() if v == 0) == 2
    ok = ok and sum(v * v for v in base.values()) == q - 1
    ext = tree_oracle.verify_extension(ball, base)
    ok = ok and ext.failures == 0
    _report(f"criterion 12: tree oracle exact at q={q}", ok)


def test_criterion_13_prasad_character():
    ok = True
    for fam, rank in ACCEPTANCE_TYPES:
        sys = build(fam, rank)
        two_rho = [0] * rank
        for r in sys.ambient_root_table():
            if sys.is_positive(r):
                for i, c in enumerate(r):
                    two_rho[i] += c
        if prasad.prasad_trivial(sys) != all(c % 2 == 0 for c in two_rho):
            ok = False
    sys7 = build("E", 7)
    xi = tables.chi_test_coweights(sys7)[0]
    if prasad.chi_on_torus(sys7, xi) != -1:
        ok = False
    for n in (2, 3, 4):
        out = prasad.d2n_character_identity(n)
        if out.skipped or not out.holds:
            ok = False
    _report("criterion 13: character triviality, torus value, parity identity", ok)
