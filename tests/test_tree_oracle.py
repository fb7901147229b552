import random
from collections import deque
from fractions import Fraction
from functools import partial

import pytest

from oracles import chamber_distance, explicit_adjacency, extend_base, interior_panels, tree_distance
from steinberg_lab import suites
from steinberg_lab import tree_oracle as T
from steinberg_lab.errors import NotHarmonicBase, NotInBall


def _expanded(ball, runs, levels):
    """E[c] for every chamber c in the stars of levels, runs(n, count) expanded
    level by level (each level of stars begins its depth); E[0] stands for the root."""
    E = [None]
    for n, width in levels:
        for value, length in runs(n + 1, (ball.q + 1 if n == 0 else ball.q) * width):
            E += [value] * length
    return E


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
    assert T.build_ball(3, 13).radius == 13  # the size limits are verify's (suites.LIMITS)
    with pytest.raises(ValueError, match="q must be an odd integer >= 3"):  # once built a float ball
        T.build_ball(5.0, 2)
    for radius in (2.0, True, -1):  # 2.0 once raised a TypeError from range, True built a ball
        with pytest.raises(ValueError, match="radius must be a nonnegative int"):
            T.build_ball(3, radius)


def test_axis_matches_apartment_line():
    ball = T.build_ball(3, 6)
    for i in range(-5, 6):
        for j in range(-5, 6):
            d = tree_distance(ball, ball.axis_chamber(i), ball.axis_chamber(j))
            assert d == abs(i - j)
    for i in range(-5, 6):
        E = _expanded(ball, partial(T._level_runs, ball, ball.axis_chamber(i)), ball.panel_levels())
        assert [E[ball.axis_chamber(j)] for j in range(-6, 7)] == [abs(i - j) for j in range(-6, 7)]


def test_children_stop_at_the_last_addressable_depth():
    # at q = 3, r = 2, children(53) once handed out 161 to 163, which depth() refuses
    ball = T.build_ball(3, 2)
    r, s = ball.radius, ball.starts
    assert ball.children(s[r + 1]) == [s[r + 2], s[r + 2] + 1, s[r + 2] + 2]
    assert ball.depth(ball.children(s[r + 2] - 1)[-1]) == r + 2
    for v in (s[r + 2], s[r + 3] - 1):
        with pytest.raises(NotInBall, match=f"vertex {v} at the last constructed depth {r + 2}"):
            ball.children(v)


@pytest.mark.parametrize("q, radius", [(3, 12), (7, 7), (9, 6)])
def test_largest_accepted_balls_pass_the_tree_suite(q, radius):
    # the tree radius limit of suites.LIMITS at q = 3, and balls of 1.9 M and 1.2 M
    # chambers at q = 7 and 9
    report = suites.run_suite("tree", q=q, radius=radius)
    assert [c["id"] for c in report.checks if c["status"] != "pass"] == []


def test_axis_chamber_is_the_first_child_chain_in_the_addressable_ball():
    # the chain once ran on past the last addressable depth, r + 2: to 161 and 242 at q = 3, r = 2
    ball = T.build_ball(3, 2)
    r = ball.radius
    for k in range(r + 1):
        assert ball.axis_chamber(k + 1) == ball.children(ball.axis_chamber(k))[0]
    for k in range(-1, -(r + 2), -1):
        assert ball.axis_chamber(k - 1) == ball.children(ball.axis_chamber(k))[0]
    assert (ball.axis_chamber(0), ball.axis_chamber(-1)) == (1, 2)
    assert ball.depth(ball.axis_chamber(r + 1)) == ball.depth(ball.axis_chamber(-(r + 2))) == r + 2
    for k in (r + 2, -(r + 3)):
        with pytest.raises(NotInBall, match=f"axis offset {k} beyond"):
            ball.axis_chamber(k)


def test_distance_is_symmetric():
    ball = T.build_ball(3, 4)
    rng = random.Random(3)
    ids = list(ball.chambers())
    for _ in range(50):
        a, b = rng.choice(ids), rng.choice(ids)
        assert chamber_distance(ball, a, b) == chamber_distance(ball, b, a)
    assert chamber_distance(ball, ids[0], ids[0]) == 0


@pytest.mark.parametrize("q", [3, 5, 7])
def test_shell_counts_count_walk_distances(q):
    for radius in range(5):
        ball = T.build_ball(q, radius)
        walk = [chamber_distance(ball, 1, c) for c in ball.chambers()]
        assert T.chamber_count_by_distance(ball) == [walk.count(d) for d in range(radius + 1)]


@pytest.mark.parametrize("q, radius", [(3, 4), (5, 3)])
def test_ball_range_is_the_chambers_within_each_radius(q, radius):
    # a chamber at depth n is at least n - 1 from the base
    ball = T.build_ball(q, radius)
    for r in range(radius + 1):
        within = [c for c in range(1, ball.starts[r + 2]) if chamber_distance(ball, 1, c) <= r]
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
        tree_distance(ball, 1, outside + 10**6)
    # the ball is the ids 1 to 1 + 6 + 18
    inside = ball.chambers()
    assert tree_distance(ball, 1, inside[-1]) == chamber_distance(ball, 1, inside[-1]) == 2
    with pytest.raises(NotInBall, match=r"radius 2 \(chamber ids 1 to 25\)"):
        tree_distance(ball, inside.stop, 1)


@pytest.mark.parametrize("c", [0, -1, -5])
def test_ids_below_one_name_no_chamber(c):
    # vertex 0 is the root and negative ids address nothing
    ball = T.build_ball(3, 2)
    with pytest.raises(NotInBall):
        tree_distance(ball, c, 1)
    with pytest.raises(NotInBall):
        tree_distance(ball, 1, c)
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
        assert from_base[c] == chamber_distance(ball, 1, c)
    rng = random.Random(9)
    ids = list(ball.chambers())
    for _ in range(20):
        a = rng.choice(ids)
        table = _bfs(adj, a)
        b = rng.choice(ids)
        assert table[b] == chamber_distance(ball, a, b)


def test_star_distances_agree_with_pairwise():
    ball = T.build_ball(5, 4)
    rng = random.Random(17)
    panels = interior_panels(ball)
    ids = list(ball.chambers())
    for _ in range(200):
        w = rng.choice(panels)
        ref = rng.choice(ids)
        assert T.star_distances(ball, w, ref) == [
            chamber_distance(ball, c, ref) for c in ball.panel_chambers(w)
        ]


@pytest.mark.parametrize("q, radius", [(3, 4), (5, 3), (7, 2)])
def test_chamber_distances_agree_with_pairwise_and_bfs(q, radius):
    # panel_levels(d) ends on a full level for d < radius, and at d = radius
    # on the partial one under vertex 1
    ball = T.build_ball(q, radius)
    cuts = [ball.panel_levels(d) for d in range(radius + 1)]
    stars = [
        sorted({c for w in interior_panels(ball, d) for c in ball.panel_chambers(w)})
        for d in range(radius + 1)
    ]
    ids = list(ball.chambers())
    for ref in ids:
        pairwise = {c: chamber_distance(ball, c, ref) for c in stars[-1]}
        assert all(T._run_distance(ball, ref, c) == pairwise[c] for c in stars[-1])
        for levels, star_chambers in zip(cuts, stars):
            E = _expanded(ball, partial(T._level_runs, ball, ref), levels)
            assert len(E) == star_chambers[-1] + 1
            assert all(E[c] == pairwise[c] for c in star_chambers)
    adj = explicit_adjacency(ball)
    rng = random.Random(q * 100 + radius)
    for ref in rng.sample(ids, 8):
        table = _bfs(adj, ref)
        E = _expanded(ball, partial(T._level_runs, ball, ref), cuts[-1])
        assert all(E[c] == table[c] for c in stars[-1])


@pytest.mark.parametrize("q, radius", [(3, 4), (5, 3), (7, 2)])
def test_level_runs_are_at_most_2m_plus_1(q, radius):
    # a level's runs cover the stars' prefix of it exactly, nothing empty
    ball = T.build_ball(q, radius)
    for ref in ball.chambers():
        m = ball.depth(ref)
        for n, width in ball.panel_levels():
            count = (q + 1 if n == 0 else q) * width
            runs = T._level_runs(ball, ref, n + 1, count)
            assert len(runs) <= 2 * m + 1
            assert all(length > 0 for _, length in runs)
            assert sum(length for _, length in runs) == count


@pytest.mark.parametrize("q, radius, r_inner", [(3, 5, 2), (5, 4, 1), (3, 4, 3), (7, 2, 1)])
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

        def runs(n, count):
            return [(P[d], length) for d, length in T._level_runs(ball, ref, n, count)]

        pairwise = sum(1 for star in stars if sum(P[chamber_distance(ball, c, ref)] for c in star))
        assert T._panel_failures(ball, levels, runs) == pairwise
        total += pairwise
    assert 0 < total < len(refs) * len(stars)
    # Distance runs split at most one panel's children per level; values
    # drawn per chamber, one run each, split every panel's children.
    rng = random.Random(q * 100 + radius)
    s = ball.starts
    X = [rng.choice((-1, 0, 1)) for _ in range(s[radius + 2])]

    def runs(n, count):
        return [(X[c], 1) for c in range(s[n], s[n] + count)]

    pairwise = sum(1 for star in stars if sum(X[c] for c in star))
    assert T._panel_failures(ball, levels, runs) == pairwise
    assert 0 < pairwise < len(stars)


def _depths_asked(ball, levels, runs):
    """The depths _panel_failures asks runs for, in order, and its count."""
    asked = []

    def recorded(n, count):
        asked.append(n)
        return runs(n, count)

    return asked, T._panel_failures(ball, levels, recorded)


@pytest.mark.parametrize("q, radius", [(3, 5), (5, 3)])
def test_panel_walk_asks_each_depth_once(q, radius):
    # the runs built for depth n + 1 are level n's children and then level
    # n + 1's own chambers, so no depth is built twice
    ball = T.build_ball(q, radius)
    levels = ball.panel_levels()
    depths = list(range(1, len(levels) + 1))
    asked, _ = _depths_asked(ball, levels, partial(T._level_runs, ball, ball.axis_chamber(-2)))
    assert asked == depths
    asked, failures = _depths_asked(ball, levels, partial(T._extension_runs, ball, T.legendre_base(ball)))
    assert (asked, failures) == (depths, 0)


def test_panel_levels_cut_at_max_depth():
    ball = T.build_ball(3, 4)
    assert [n for n, _ in ball.panel_levels()] == [0, 1, 2, 3, 4]
    assert [n for n, _ in ball.panel_levels(2)] == [0, 1, 2]
    # at depth radius only the panels under vertex 1 are interior
    assert ball.panel_levels()[-1] == (4, 27)
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
    # a balanced base over the common denominator 6 (q - 1), so the runs carry fractions
    others = list(range(3, q + 2))
    base = {1: Fraction(1, 2), 2: Fraction(-1, 3)}
    base.update({c: Fraction(-1, 6 * len(others)) for c in others})
    value = extend_base(ball, base)
    X = _expanded(ball, partial(T._extension_runs, ball, base), levels)
    for star in stars:
        assert [X[c] for c in star] == [value(c) for c in star]
        assert sum(X[c] for c in star) == sum(value(c) for c in star)
    # a prefix ending inside a subtree's block, which no level of panels reads
    s = ball.starts
    for n in range(2, depth + 1):
        count = s[n + 1] - s[n] - 1
        flat = [x for x, length in T._extension_runs(ball, base, n, count) for _ in range(length)]
        assert flat == [value(c) for c in range(s[n], s[n] + count)]
    # the Iwahori check is the hctest with the base chamber as its one reference
    top = 1 + depth
    E = _expanded(ball, partial(T._level_runs, ball, 1), levels)
    for star in stars:
        terms = [(-1) ** E[c] * q ** (top - E[c]) for c in star]
        iwahori = [Fraction(-1, q) ** chamber_distance(ball, 1, c) for c in star]
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
    with pytest.raises(NotHarmonicBase):
        extend_base(ball, bad)
    # the balance is checked first, then that every depth-one chamber has a value
    with pytest.raises(NotHarmonicBase):
        T.verify_extension(ball, {1: Fraction(1)})
    with pytest.raises(NotInBall, match="chamber 3 does not resolve"):
        T.verify_extension(ball, {1: Fraction(1), 2: Fraction(-1)})


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
