import random
from collections import deque
from fractions import Fraction

import pytest

from oracles import explicit_adjacency, extend_base, interior_panels
from steinberg_lab import tree_oracle as T
from steinberg_lab.errors import BudgetExceeded, NotHarmonicBase, NotInBall


def test_build_ball_counts():
    ball = T.build_ball(3, 2)
    counts = T.chamber_count_by_distance(ball)
    assert counts == [1, 6, 18]
    assert sum(counts) == 25
    assert T.chamber_count_by_distance(T.build_ball(3, 1)) == [1, 6]
    assert T.chamber_count_by_distance(T.build_ball(5, 0)) == [1]


def test_build_ball_validation():
    with pytest.raises(ValueError):
        T.build_ball(4, 3)
    with pytest.raises(ValueError):
        T.build_ball(2, 3)
    with pytest.raises(BudgetExceeded):
        T.build_ball(3, 13)


def test_axis_matches_apartment_line():
    ball = T.build_ball(3, 6)
    for i in range(-5, 6):
        for j in range(-5, 6):
            d = T.tree_distance(ball, ball.axis_chamber(i), ball.axis_chamber(j))
            assert d == abs(i - j)


def test_distance_is_symmetric():
    ball = T.build_ball(3, 4)
    rng = random.Random(3)
    ids = list(ball.chambers())
    for _ in range(50):
        a, b = rng.choice(ids), rng.choice(ids)
        assert ball.chamber_distance(a, b) == ball.chamber_distance(b, a)
    assert ball.chamber_distance(ids[0], ids[0]) == 0


@pytest.mark.parametrize("q", [3, 5, 7])
def test_shell_counts_count_walk_distances(q):
    for radius in range(5):
        ball = T.build_ball(q, radius)
        walk = [ball.chamber_distance(1, c) for c in ball.chambers()]
        assert T.chamber_count_by_distance(ball) == [walk.count(d) for d in range(radius + 1)]


@pytest.mark.parametrize("q, radius", [(3, 4), (5, 3)])
def test_ball_range_is_the_chambers_within_each_radius(q, radius):
    # a chamber at depth n is at least n - 1 from the base
    ball = T.build_ball(q, radius)
    for r in range(radius + 1):
        within = [c for c in range(1, ball.starts[r + 2]) if ball.chamber_distance(1, c) <= r]
        assert list(ball.chambers(r)) == within
    assert ball.chambers() == ball.chambers(radius)


def test_ball_range_and_hctest_reject_radii_outside_the_ball():
    # unchecked, chambers(5) ran to id 727 past the 241 chambers, and a
    # negative r_inner wrapped round the level tables
    ball = T.build_ball(3, 4)
    assert len(ball.chambers(4)) == 241
    for r in (-1, 5):
        with pytest.raises(ValueError, match="outside the ball"):
            ball.chambers(r)
    for r_inner in (-5, -1, 4):
        with pytest.raises(ValueError, match="0 <= r_inner"):
            T.verify_hctest(ball, r_inner)


def test_not_in_ball():
    ball = T.build_ball(3, 2)
    outside = ball.starts[4]
    with pytest.raises(NotInBall):
        T.tree_distance(ball, 1, outside + 10**6)
    # the ball is the ids 1 to 1 + 6 + 18
    inside = ball.chambers()
    assert T.tree_distance(ball, 1, inside[-1]) == ball.chamber_distance(1, inside[-1]) == 2
    with pytest.raises(NotInBall, match=r"radius 2 \(chamber ids 1 to 25\)"):
        T.tree_distance(ball, inside.stop, 1)


@pytest.mark.parametrize("c", [0, -1, -5])
def test_ids_below_one_name_no_chamber(c):
    # vertex 0 is the root and negative ids address nothing
    ball = T.build_ball(3, 2)
    with pytest.raises(NotInBall):
        T.tree_distance(ball, c, 1)
    with pytest.raises(NotInBall):
        T.tree_distance(ball, 1, c)
    if c < 0:
        with pytest.raises(NotInBall):
            ball.depth(c)


def _bfs(adj, start):
    dist = {start: 0}
    dq = deque([start])
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                dq.append(w)
    return dist


def test_distances_match_explicit_bfs():
    ball = T.build_ball(3, 4)
    adj = explicit_adjacency(ball)
    from_base = _bfs(adj, 1)
    for c in ball.chambers():
        assert from_base[c] == ball.chamber_distance(1, c)
    rng = random.Random(9)
    ids = list(ball.chambers())
    for _ in range(20):
        a = rng.choice(ids)
        table = _bfs(adj, a)
        b = rng.choice(ids)
        assert table[b] == ball.chamber_distance(a, b)


def test_star_distances_agree_with_pairwise():
    ball = T.build_ball(5, 4)
    rng = random.Random(17)
    panels = interior_panels(ball)
    ids = list(ball.chambers())
    for _ in range(200):
        w = rng.choice(panels)
        ref = rng.choice(ids)
        assert T.star_distances(ball, w, ref) == [
            ball.chamber_distance(c, ref) for c in ball.panel_chambers(w)
        ]


@pytest.mark.parametrize("q, radius", [(3, 4), (5, 3)])
def test_chamber_distances_agree_with_pairwise_and_bfs(q, radius):
    ball = T.build_ball(q, radius)
    levels = ball.panel_levels()
    star_chambers = sorted({c for w in interior_panels(ball) for c in ball.panel_chambers(w)})
    ids = list(ball.chambers())
    for ref in ids:
        E = T._chamber_distances(ball, ref, levels)
        assert all(E[c] == ball.chamber_distance(c, ref) for c in star_chambers)
    adj = explicit_adjacency(ball)
    rng = random.Random(q * 100 + radius)
    for ref in rng.sample(ids, 8):
        table = _bfs(adj, ref)
        E = T._chamber_distances(ball, ref, levels)
        assert all(E[c] == table[c] for c in star_chambers)


@pytest.mark.parametrize("q, radius, r_inner", [(3, 5, 2), (5, 4, 1)])
def test_strided_panel_sums_match_pairwise_star_sums(q, radius, r_inner):
    # A star has one chamber at some distance d and q at d + 1, so adding
    # 1 at odd and -q at even distances keeps a panel sum 0 exactly when d
    # is even: the counts compared mix vanishing and failing panels.
    ball = T.build_ball(q, radius)
    levels = ball.panel_levels()
    refs = ball.chambers(r_inner)
    top = ball.depth(max(refs)) + len(levels)
    P = [(-1) ** d * q ** (top - d) + (1 if d % 2 else -q) for d in range(top + 1)]
    stars = [ball.panel_chambers(w) for w in interior_panels(ball)]
    total = 0
    for ref in refs:
        X = [P[e] for e in T._chamber_distances(ball, ref, levels)]
        pairwise = sum(1 for star in stars if sum(P[ball.chamber_distance(c, ref)] for c in star))
        assert T._panel_failures(ball, levels, X) == pairwise
        total += pairwise
    assert 0 < total < len(refs) * len(stars)


def test_panel_levels_cut_at_max_depth():
    ball = T.build_ball(3, 4)
    assert [n for n, _, _ in ball.panel_levels()] == [0, 1, 2, 3, 4]
    assert [n for n, _, _ in ball.panel_levels(2)] == [0, 1, 2]
    # at depth radius only the panels under vertex 1 are interior
    n, first, stop = ball.panel_levels()[-1]
    assert (first, stop - first) == (ball.starts[4], 27)
    assert T.build_ball(3, 0).panel_levels() == []


def test_hctest_small():
    ball = T.build_ball(3, 6)
    report = T.verify_hctest(ball, 4)
    assert report.failures == 0
    report5 = T.verify_hctest(T.build_ball(5, 4), 1)
    assert report5.failures == 0
    # the references are the chambers within r_inner: 1 + 2 (3 + 9 + 27 + 81) and 1 + 2 * 5
    assert (report.references_checked, report5.references_checked) == (241, 11)


def test_negative_panel_depth_is_refused():
    # depth 0 checks the one panel at the root; below it there is no panel to check
    ball = T.build_ball(3, 4)
    assert T.verify_hctest(ball, 1, panel_depth=0).panels_checked == 1
    assert T.verify_iwahori_harmonic(ball, panel_depth=0).panels_checked == 1
    with pytest.raises(ValueError, match="panel_depth -1 is negative"):
        T.verify_hctest(ball, 1, panel_depth=-1)
    with pytest.raises(ValueError, match="panel_depth -2 is negative"):
        T.verify_iwahori_harmonic(ball, panel_depth=-2)


def test_hctest_near_far_pattern():
    # one panel with an adjacent reference: 1 + q * (-1/q) = 0
    ball = T.build_ball(3, 3)
    dists = T.star_distances(ball, 0, 1)
    assert sorted(dists) == [0] + [1] * ball.q
    total = sum(Fraction((-1) ** d, ball.q**d) for d in dists)
    assert total == 0


def test_legendre_base():
    ball3 = T.build_ball(3, 3)
    base3 = T.legendre_base(ball3)
    vals = sorted(base3.values())
    assert vals == [Fraction(-1), Fraction(0), Fraction(0), Fraction(1)]
    ball5 = T.build_ball(5, 3)
    base5 = T.legendre_base(ball5)
    assert sorted(base5.values()).count(Fraction(0)) == 2
    assert sum(v * v for v in base5.values()) == 4
    assert sum(base5.values()) == 0
    assert [T.legendre_base(T.build_ball(9, 1))[c] for c in range(3, 11)] == [1, -1] * 4  # 9 is no prime


def test_extension_harmonic():
    ball = T.build_ball(3, 6)
    base = T.legendre_base(ball)
    report = T.verify_extension(ball, base)
    assert report.failures == 0
    iwa = T.verify_iwahori_harmonic(ball)
    assert (iwa.failures, iwa.references_checked) == (0, 1)


@pytest.mark.parametrize("q, radius", [(3, 2), (3, 5), (5, 2), (5, 4)])
def test_integer_panel_sums_match_fraction_sums(q, radius):
    ball = T.build_ball(q, radius)
    levels = ball.panel_levels()
    depth = len(levels)
    stars = [ball.panel_chambers(w) for w in interior_panels(ball)]
    # a balanced base over the common denominator 6 (q - 1), to exercise the scaling
    others = list(range(3, q + 2))
    base = {1: Fraction(1, 2), 2: Fraction(-1, 3)}
    base.update({c: Fraction(-1, 6 * len(others)) for c in others})
    b = T._integer_base(base)
    den = 6 * len(others)
    assert all(Fraction(b[a], den) == base[a] for a in base)
    value = extend_base(ball, base)
    X = T._extension_values(ball, b, depth)
    scale = den * q ** (depth - 1)
    for star in stars:
        assert [X[c] for c in star] == [value(c) * scale for c in star]
        assert Fraction(sum(X[c] for c in star), scale) == sum(value(c) for c in star)
    # the Iwahori check is the hctest with the base chamber as its one reference
    top = 1 + depth
    E = T._chamber_distances(ball, 1, levels)
    for star in stars:
        terms = [(-1) ** E[c] * q ** (top - E[c]) for c in star]
        iwahori = [Fraction(-1, q) ** ball.chamber_distance(1, c) for c in star]
        assert terms == [v * q**top for v in iwahori]
        assert Fraction(sum(terms), q**top) == sum(iwahori)


def test_extension_decay_along_branches():
    ball = T.build_ball(3, 5)
    base = T.legendre_base(ball)
    value = extend_base(ball, base)
    for c in ball.panel_chambers(0):
        for child in ball.children(c):
            assert value(child) == value(c) * Fraction(-1, 3)


def test_extension_rejects_unbalanced_base():
    ball = T.build_ball(3, 3)
    bad = {c: Fraction(1) for c in ball.panel_chambers(0)}
    with pytest.raises(NotHarmonicBase):
        T.verify_extension(ball, bad)


def test_zero_base_extends_to_zero():
    ball = T.build_ball(3, 3)
    zero = {c: Fraction(0) for c in ball.panel_chambers(0)}
    value = extend_base(ball, zero)
    assert all(value(c) == 0 for c in ball.chambers())


def test_shell_abs_sums_constant():
    ball = T.build_ball(3, 6)
    sums = T.shell_abs_sums(ball.q, T.chamber_count_by_distance(ball))
    assert sums[0] == 1
    assert all(s == 2 for s in sums[1:])
    # the total over all chambers grows linearly with the radius: summing the
    # base vector over the whole building diverges, orbit restriction is real
    assert sum(sums) == 1 + 2 * ball.radius
