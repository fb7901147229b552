import random

import pytest

from oracles import classify_subsystem, subsystem_simples
from steinberg_lab import linalg, sorth, suites, tables
from steinberg_lab.errors import BudgetExceeded, NotApplicable, NotARoot, ProportionalPair
from steinberg_lab.rootsys import (
    RootSystem,
    _neg,
    apply_word,
    build,
    parabolic_roots,
    strongly_orthogonal,
    subsystem_components,
    support_components,
    weyl_orbit,
    word_to_dominant,
)
from steinberg_lab.suites import ACCEPTANCE_TYPES, TRICHOTOMY_TYPES


def _conjugate_ok(sys, a, b):
    res = sorth.is_conjugate_subset_of(sys, a, b)
    if res.status != "yes":
        return False
    target = {sys.pos_rep(t) for t in b}
    return all(sys.pos_rep(apply_word(sys, res.word, m)) in target for m in a)


def test_sigma_a_g2():
    sys = build("G", 2)
    sa = sorth.sigma_a(sys)
    assert len(sa) == 2
    assert _conjugate_ok(sys, sa, sorth.so_set(sys, tables.sigma_a_table(sys)))


def test_sigma_a_c3():
    sys = build("C", 3)
    sa = sorth.sigma_a(sys)
    table = sorth.so_set(sys, tables.sigma_a_table(sys))
    # the tabled set is the long roots -2e_i
    assert {sys.pos_rep(m) for m in table} == {
        sys.from_ambient([2, 0, 0]),
        sys.from_ambient([0, 2, 0]),
        sys.from_ambient([0, 0, 2]),
    }
    assert _conjugate_ok(sys, sa, table)


def test_sigma_a_a3_both_tables():
    sys = build("A", 3)
    sa = sorth.sigma_a(sys)
    assert len(sa) == 2
    first = sorth.so_set(sys, tables.sigma_a_table(sys))
    second = sorth.so_set(sys, tables.sigma_a_alt_table(sys))
    assert _conjugate_ok(sys, sa, first)
    assert _conjugate_ok(sys, first, second)
    assert _conjugate_ok(sys, second, first)


def test_sigma_a_sizes():
    for fam, rank, size in [
        ("A", 5, 3),
        ("A", 2, 1),
        ("A", 4, 2),
        ("D", 5, 4),
        ("D", 7, 6),
        ("E", 6, 4),
        ("B", 5, 5),
        ("C", 4, 4),
    ]:
        assert len(sorth.sigma_a(build(fam, rank))) == size


def test_c1_witness_examples():
    sys = build("A", 2)
    w = sorth.satisfies_c1(sys, sorth.so_set(sys, [sys.highest_root]))
    assert w is not None
    assert sys.root_pairing(w.alpha, w.beta) % 2 == 1
    g2 = build("G", 2)
    assert sorth.satisfies_c1(g2, sorth.sigma_a(g2)) is None
    assert sorth.satisfies_c1(sys, sorth.so_set(sys, [])) is None


def test_so_set_checks_its_members():
    b2 = build("B", 2)
    with pytest.raises(NotARoot):
        sorth.so_set(b2, [(5, 5)])
    # the short roots e1 and e2 are orthogonal, but e1 + e2 is a root
    with pytest.raises(ValueError, match="not strongly orthogonal"):
        sorth.so_set(b2, [(1, 1), (0, 1)])
    with pytest.raises(ProportionalPair):
        sorth.so_set(b2, [(1, 1), (1, 1)])
    # e1 + e2 and e1 - e2, as a tuple of root tuples
    assert sorth.so_set(b2, [[1, 2], (1, 0)]) == ((1, 2), (1, 0))


def test_so_complement_types():
    a4 = build("A", 4)
    comp = sorth.so_complement(a4, [a4.highest_root])
    assert classify_subsystem(a4, comp) == [("A", 2)]
    e8 = build("E", 8)
    comp8 = sorth.so_complement(e8, [e8.highest_root])
    assert classify_subsystem(e8, comp8) == [("E", 7)]
    d5 = build("D", 5)
    sigma_11 = [d5.from_ambient([1, 1, 0, 0, 0]), d5.from_ambient([1, -1, 0, 0, 0])]
    comp5 = sorth.so_complement(d5, sigma_11)
    # type D3 = A3 on the last three coordinates
    assert classify_subsystem(d5, comp5) == [("A", 3)]


def test_conjugacy_invariant_screen():
    b2 = build("B", 2)
    short = sorth.so_set(b2, [b2.from_ambient([1, 0])])
    table = sorth.so_set(b2, tables.sigma_a_table(b2))
    res = sorth.is_conjugate_subset_of(b2, short, table)
    assert (res.status, res.method) == ("no", "length screen")
    long_ = [b2.from_ambient([1, 1])]
    res = sorth.is_conjugate_subset_of(b2, short, long_)
    assert (res.status, res.method) == ("no", "length screen")


def test_conjugacy_identity_and_random_words():
    rng = random.Random(5)
    for fam, rank in [("B", 3), ("D", 4), ("F", 4)]:
        sys = build(fam, rank)
        table = sorth.so_set(sys, tables.sigma_a_table(sys))
        assert _conjugate_ok(sys, table, table)
        members = list(table)
        for _ in range(3):
            word = [sys.simples[rng.randrange(rank)] for _ in range(6)]
            moved = [apply_word(sys, word, m) for m in members]
            assert _conjugate_ok(sys, sorth.so_set(sys, moved), table)


def test_target_mode_words_pass_certificate():
    rng = random.Random(11)
    for fam, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]:
        sys = build(fam, rank)
        table = tables.sigma_a_table(sys)
        target = {sys.pos_rep(t) for t in table}
        for size in range(len(table) + 1):
            word = [sys.simples[rng.randrange(rank)] for _ in range(5)]
            moved = [apply_word(sys, word, m) for m in table[:size]]
            found = weyl_orbit(sys, moved, 10_000, target=lambda canon: set(canon) <= target)
            assert found is not None
            assert sorth.verify_certificate(sys, moved, found[1], table)
            res = sorth.is_conjugate_subset_of(sys, moved, table)
            assert res.status == "yes" and res.method in ("orbit", "normal form")
            assert sorth.verify_certificate(sys, moved, res.word, table)


def test_verify_certificate_rejects_wrong_word():
    sys = build("B", 2)
    long_root, short_root = sys.highest_root, sys.simples[1]
    assert sorth.verify_certificate(sys, [long_root], (), [long_root])
    assert not sorth.verify_certificate(sys, [long_root], (), [short_root])
    assert not sorth.verify_certificate(sys, [short_root], (sys.simples[0],), [long_root])


def test_subset_conjugacy():
    d4 = build("D", 4)
    table = sorth.so_set(d4, tables.sigma_a_table(d4))
    single = sorth.so_set(d4, [d4.highest_root])
    assert _conjugate_ok(d4, single, table)


def test_enumeration_counts():
    assert len(sorth.enumerate_so_sets(build("A", 2))) == 2
    assert len(sorth.enumerate_so_sets(build("B", 2))) == 4
    assert len(sorth.enumerate_so_sets(build("D", 5))) == 6


def test_enumeration_budget(monkeypatch):
    a12 = build("A", 12)
    with pytest.raises(BudgetExceeded, match=r"\|W\(A12\)\| = 6227020800 exceeds the budget of 1000000$"):
        sorth.enumerate_so_sets(a12)
    # sizes differ, so the normal forms cannot settle it and |W| decides the orbit search
    res = sorth.is_conjugate_subset_of(a12, [a12.simples[0]], [a12.simples[0], a12.simples[2]])
    assert (res.status, res.method) == ("unknown", "budget")
    monkeypatch.setenv("STEINBERG_BUDGET", "10")
    with pytest.raises(BudgetExceeded, match=r"1152 exceeds the budget of 10\b"):
        sorth.enumerate_so_sets(build("F", 4))


def test_verify_anismax_reports():
    assert sorth.verify_anismax(build("B", 2)).ok
    assert sorth.verify_anismax(build("G", 2)).ok
    a4 = sorth.verify_anismax(build("A", 4))
    assert a4.ok and "every nonempty class satisfies (C1)" in a4.clauses
    assert a4.classes == sorth.enumerate_so_sets(build("A", 4))


def test_two_short_members_only_in_large_c():
    for fam, rank in [("B", 3), ("F", 4), ("C", 3)]:
        sys = build(fam, rank)
        for rep in sorth.enumerate_so_sets(sys):
            shorts = [m for m in rep if not sys.is_long(m)]
            assert len(shorts) <= 1
    c4 = build("C", 4)
    reps = sorth.enumerate_so_sets(c4)
    assert any(
        sum(1 for m in rep if not c4.is_long(m)) >= 2 for rep in reps
    )


def test_two_short_support_disjoint_in_c4():
    c4 = build("C", 4)
    for rep in sorth.enumerate_so_sets(c4):
        shorts = [m for m in rep if not c4.is_long(m)]
        for i, a in enumerate(shorts):
            for b in shorts[i + 1 :]:
                sup_a = {k for k, c in enumerate(c4.to_ambient(a)) if c != 0}
                sup_b = {k for k, c in enumerate(c4.to_ambient(b)) if c != 0}
                assert not (sup_a & sup_b)


def test_tabled_members_odd_height():
    for fam, rank in [("B", 4), ("C", 3), ("D", 5), ("E", 7), ("F", 4), ("G", 2)]:
        sys = build(fam, rank)
        for m in tables.sigma_a_table(sys):
            assert sum(_neg(m)) % 2 == 1


def test_long_roots_have_even_short_coefficients():
    for fam, rank in [("B", 4), ("C", 4), ("F", 4)]:
        sys = build(fam, rank)
        for r in sys.positive_roots:
            if sys.is_long(r):
                for c, s in zip(r, sys.simples):
                    if not sys.is_long(s):
                        assert c % 2 == 0


def test_no_table_for_even_a():
    with pytest.raises(NotApplicable):
        tables.sigma_a_table(build("A", 4))


def test_sign_basis_matches_table_class():
    for fam, rank in [("A", 5), ("D", 5), ("E", 6)]:
        sys = build(fam, rank)
        basis = sorth.so_set(sys, tables.sign_basis(sys))
        table = sorth.so_set(sys, tables.sigma_a_table(sys))
        assert _conjugate_ok(sys, basis, table)


def _pairwise_sigma(sys, roots):
    """The highest-root recursion on root lists, split by pairwise pairings."""
    out = []
    for comp in subsystem_components(sys, roots):
        top = max((r for r in comp if sys.is_positive(r)), key=lambda r: (sum(r), r))
        rest = [r for r in comp if r not in (top, _neg(top)) and strongly_orthogonal(sys, r, top)]
        out += [top] + _pairwise_sigma(sys, rest)
    return out


def test_cascade_split_matches_pairwise_components(monkeypatch):
    calls = []

    def recording(sys, support):
        calls.append((sys.type.family, sys.type.rank, tuple(support)))
        return support_components(sys, support)

    monkeypatch.setattr(sorth, "support_components", recording)
    for fam, rank in sorted(set(ACCEPTANCE_TYPES) | set(TRICHOTOMY_TYPES)):
        sys = build(fam, rank)
        sa = sorth.sigma_a(sys)
        assert list(sa) == _pairwise_sigma(sys, sys.roots)
        if not tables.is_a2n(sys):
            assert _conjugate_ok(sys, sa, sorth.so_set(sys, tables.sigma_a_table(sys)))
    for fam, rank in TRICHOTOMY_TYPES:
        assert sorth.verify_anismax(build(fam, rank)).ok
    assert len(calls) == 290 and len(set(calls)) == 75  # recursion calls, distinct supports
    for fam, rank, support in set(calls):
        sys = build(fam, rank)
        split = [parabolic_roots(sys, comp) for comp in support_components(sys, support)]
        assert split == subsystem_components(sys, parabolic_roots(sys, support))


def _pairwise_normal_form(sys, members):
    """The normal-form recursion on root lists, split by pairwise pairings."""
    word, result = [], []

    def rec(sub_roots, items):
        if not items:
            return
        for comp in subsystem_components(sys, sub_roots):
            local = [m for m in items if m in comp]
            if not local:
                continue
            longest = max(sys.inner(m, m) for m in local)
            target = max(m for m in local if sys.inner(m, m) == longest)
            dom, w = word_to_dominant(sys, subsystem_simples(sys, comp), target)
            word.extend(w)
            result.append(dom)
            imgs = [sys.pos_rep(apply_word(sys, w, m)) for m in local]
            rest = [r for r in comp if r not in (dom, _neg(dom)) and strongly_orthogonal(sys, r, dom)]
            rec(rest, [m for m in imgs if m != dom])

    rec(sys.roots, [sys.pos_rep(m) for m in members])
    return frozenset(result), tuple(word)


@pytest.mark.parametrize("fam, rank", [("B", 3), ("B", 4), ("B", 5), ("C", 4), ("C", 5), ("F", 4)])
def test_normal_form_certified_and_weyl_invariant(fam, rank):
    sys = build(fam, rank)
    rng = random.Random(rank)
    for rep in sorth.enumerate_so_sets(sys):
        nf, word = sorth._normal_form(sys, rep)
        assert (nf, word) == _pairwise_normal_form(sys, rep)
        assert sorth.verify_certificate(sys, rep, word, nf)
        moved_word = [sys.simples[rng.randrange(rank)] for _ in range(8)]
        moved = [apply_word(sys, moved_word, m) for m in rep]
        assert sorth._normal_form(sys, moved)[0] == nf


def test_normal_form_two_short_members_in_c4(monkeypatch):
    c4 = build("C", 4)
    members = [c4.from_ambient([1, 1, 0, 0]), c4.from_ambient([0, 0, 1, -1])]
    remainders = []

    def recording(sys, support):
        remainders.append(tuple(support))
        return parabolic_roots(sys, support)

    monkeypatch.setattr(sorth, "parabolic_roots", recording)
    nf, word = sorth._normal_form(c4, members)
    # the short dominant root e1 + e2 leaves the parabolic C2 on e3, e4
    assert (0, 2, 3) in remainders and (2, 3) in remainders
    assert nf == {c4.from_ambient([1, 1, 0, 0]), c4.from_ambient([0, 0, 1, 1])}
    assert sorth.verify_certificate(c4, members, word, nf)


def test_suite_sorth_expands_each_positive_root_once(monkeypatch):
    # the half-integral-expansion checks pair each positive root with each
    # member of the 14 full-rank classified sets, and solve nothing
    solves = []
    solve = linalg.solve_exact
    monkeypatch.setattr(linalg, "solve_exact", lambda *args: solves.append(args) or solve(*args))
    pairs = set()
    pairing = RootSystem.root_pairing

    def spy(sys, alpha, beta):
        pairs.add((sys.type, alpha, beta))
        return pairing(sys, alpha, beta)

    monkeypatch.setattr(RootSystem, "root_pairing", spy)
    rep = suites.suite_sorth()
    checks = [c for c in rep.checks if c["id"].startswith("half-integral-expansion-")]
    assert len(checks) == 14 and all(c["status"] == "pass" for c in checks)
    assert solves == []
    for c in checks:
        fam, rank = c["id"][-2], int(c["id"][-1])
        sys = build(fam, rank)
        table = tables.sigma_a_table(sys)
        assert all((sys.type, a, b) in pairs for a in sys.positive_roots for b in table)
