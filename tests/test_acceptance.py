"""Acceptance gate: the thirteen criteria, each a set of suite runs and check families.

A criterion holds when every one of its CHECKS families shows up in its runs and
every check of those families passes.  The suites do the exact computations;
tests/reports.json pins each check's value and expected bytes, and
test_cli.py's test_every_check_family_can_fail shows that each family can fail.
Each test prints one pass/fail line.
"""

import functools
import re

import pytest

from reports import family_of
from steinberg_lab import suites
from test_cli import BREAKS

# criterion: (statement, suite runs as (suite, q, radius), CHECKS families)
CRITERIA = {
    1: ("criterion 1: classified sets match the tables with certificates",
        [("sorth", 3, None)], ["sigma-size", "sigma-table"]),
    # verify_anismax also holds the A2n clause: every nonempty class satisfies (C1)
    2: ("criterion 2: exhaustive trichotomy over conjugacy classes",
        [("sorth", 3, None)], ["trichotomy"]),
    3: ("criterion 3: coxeter number odd exactly in type A of even rank",
        [("rootsys", 3, None)], ["coxeter-parity"]),
    4: ("criterion 4: central chamber counts and formula agreement",
        [("apartment", 3, None)], ["central-count", "central-formula", "central-count-A3"]),
    5: ("criterion 5: fine distance doubles the coarse distance",
        [("apartment", 3, None)], ["distance-doubling"]),
    6: ("criterion 6: adjacent central chambers at distance three",
        [("apartment", 3, None)], ["central-distance-A2"]),
    7: ("criterion 7: closed-form series equals alcove counts to degree 10",
        [("series", 3, None)], ["poincare"]),
    8: ("criterion 8: partial sums certified against 1 within tail bounds",
        [("series", q, 12) for q in (3, 5, 7)], ["lambda-A2", "lambda-tail"]),
    9: ("criterion 9: sign characters solve uniquely and compatibly",
        [("cochain", 3, None)], ["character", "coroot-trivial", "chi-compat"]),
    10: ("criterion 10: wall-count pairs (4,2), (8,4), (8,4)",
         [("cochain", 3, None)], ["wall-counts"]),
    11: ("criterion 11: facet functionals half-integral on full-rank sets",
         [("apartment", 3, None)], ["facet-functional"]),
    12: ("criterion 12: tree oracle exact",
         [("tree", q, 8) for q in (3, 5)],
         ["shell-counts", "shell-sums", "hctest", "legendre-support", "extension"]),
    13: ("criterion 13: character triviality, torus value, parity identity",
         [("prasad", 3, None)], ["triviality", "torus-value-E7", "d2n-identity"]),
}

# the types whose classified set has full rank, where facet-functional runs
FULL_RANK_TYPES = [
    ("A", 1),
    ("B", 2), ("B", 3), ("B", 4), ("B", 5),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 6),
    ("E", 7), ("E", 8),
    ("F", 4), ("G", 2),
]

_run = functools.cache(suites.run_suite)


def _gate(number, runs=None, where=""):
    """Print and assert criterion number over its runs, or over the given ones; return
    the checks of its families."""
    statement, all_runs, families = CRITERIA[number]
    checks = [c for run in runs or all_runs for c in _run(*run).checks if family_of(c["id"]) in families]
    ok = {family_of(c["id"]) for c in checks} == set(families)
    ok = ok and all(c["status"] == "pass" for c in checks)
    print(f"{'PASS' if ok else 'FAIL'}  {statement}{where}")
    assert ok, statement
    return checks


def test_criterion_01_sigma_tables():
    _gate(1)


def test_criterion_02_trichotomy():
    _gate(2)


def test_criterion_03_coxeter_parity():
    _gate(3)


def test_criterion_04_central_chambers():
    _gate(4)


def test_criterion_05_distance_doubling():
    _gate(5)


def test_criterion_06_adjacent_central_distance():
    _gate(6)


def test_criterion_07_poincare_crosscheck():
    _gate(7)


def test_criterion_08_lambda_certification():
    _gate(8)


def test_criterion_09_sign_calculus():
    _gate(9)


def test_criterion_10_wall_count_ratios():
    _gate(10)


def test_criterion_11_half_integrality():
    ids = [c["id"] for c in _gate(11)]
    assert sorted(ids) == sorted(f"facet-functional-{fam}{rank}" for fam, rank in FULL_RANK_TYPES)


@pytest.mark.parametrize("run", CRITERIA[12][1], ids=lambda run: str(run[1]))
def test_criterion_12_tree_oracle(run):
    _gate(12, [run], f" at q={run[1]}")


def test_criterion_13_prasad_character():
    _gate(13)


def test_a_broken_distance_fails_criterion_5(monkeypatch):
    _, owner, name, broken = BREAKS["distance-doubling"]  # squares apartment.distance
    monkeypatch.setattr(owner, name, broken(getattr(owner, name)))
    _run.cache_clear()
    try:
        with pytest.raises(AssertionError, match=re.escape(CRITERIA[5][0])):
            _gate(5)
    finally:
        _run.cache_clear()


def test_a_criterion_fails_when_a_family_is_missing(monkeypatch):
    monkeypatch.setitem(CRITERIA, 10, (*CRITERIA[10][:2], ["wall-counts", "poincare"]))
    with pytest.raises(AssertionError, match="criterion 10"):
        _gate(10)
