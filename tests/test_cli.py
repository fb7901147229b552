import csv
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import pytest

from steinberg_lab import apartment, cli, cochain, prasad, rootsys, suites, tree_oracle
from steinberg_lab.errors import HalfIntegralityViolation


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "steinberg_lab.cli", *args],
        capture_output=True,
        text=True,
        env=None if env is None else {**os.environ, **env},
    )


@pytest.fixture
def main_cli(capsys, monkeypatch):
    """cli.main in process, returning what run_cli returns for the same arguments."""

    def run(*args, env=None):
        for key, value in (env or {}).items():
            monkeypatch.setenv(key, value)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(list(args))
        out = capsys.readouterr()
        return subprocess.CompletedProcess(args, exit_info.value.code, out.out, out.err)

    return run


def test_sigma_a_g2():
    out = run_cli("sigma-a", "G", "2", "--format", "json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["size"] == 2
    assert payload["matches_table"] is True


def test_sigma_a_a4_notes_no_table(main_cli):
    out = main_cli("sigma-a", "A", "4", "--format", "json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert "no classified set exists" in payload["note"]
    assert payload["c1_witness"]


def test_sigma_a_invalid_rank_exits_2(main_cli):
    out = main_cli("sigma-a", "D", "2")
    assert out.returncode == 2


def test_verify_even_q_exits_2(main_cli):
    out = main_cli("verify", "tree", "--q", "4")
    assert out.returncode == 2


def test_verify_unknown_suite_exits_2(main_cli):
    out = main_cli("verify", "nonsense")
    assert out.returncode == 2


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "args",
    [("tables", "--eic", "--format", "csv"), ("verify", "rootsys"), ("sigma-a", "E", "8")],
    ids=["tables-eic-csv", "verify-rootsys", "sigma-a-E8"],
)
def test_closed_stdout_ends_quietly_with_the_computed_status(args, unbuffered):
    # the pipe has no reader before the command starts, so every write to it fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        out = subprocess.run(
            [sys.executable, "-m", "steinberg_lab.cli", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert out.stderr == ""  # no traceback, no "Exception ignored" from the exit flush
    assert out.returncode == 0


def test_closed_stdout_keeps_the_status_of_a_failed_check(monkeypatch):
    suite, owner, name, broken = BREAKS["negation-stability"]
    monkeypatch.setattr(owner, name, broken(getattr(owner, name)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", suite])
    assert exit_info.value.code == 1


def test_verify_prasad_deterministic(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    out1 = run_cli("verify", "prasad", "--json", str(p1))
    out2 = run_cli("verify", "prasad", "--json", str(p2))
    assert out1.returncode == 0 and out2.returncode == 0
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["reports"][0]["suite"] == "prasad"
    statuses = {c["status"] for c in payload["reports"][0]["checks"]}
    assert statuses == {"pass"}


# sha256 of each suite's default `verify --json` report; a change to any
# check, value or formatting shows up here
REPORT_SHA256 = {
    "apartment": "a12445b4eb4dc280e28c92f1f34c0f635e9f4ef845848dcc4651ea54741d1288",
    "cochain": "73845e9e2554959f131accb51c07086e8c1371b9e30914fd8e7509b377f8c944",
    "prasad": "18327d14c151d21111815c01008c5dad59e910a91fb5f812bef3d4f434ad709d",
    "rootsys": "18f28d62ece438ab3e0d95308cbc3d92ea2023ca7543d344d922a2f3c228e1e3",
    "series": "0464f8882d0c0b045c49c5321af728b5af12190b1383b3cfb8ce175ab5302adc",
    "sorth": "ba5ee37cdd3e551166fa68be63ce77b712bd1798a076bacce9ee689536d3cd6e",
    "tree": "44563172a2676701fd462ec5dfd62c4a3d55e3f739788d9620406056c7c01f4f",
}
# the one non-default report of the chambers benchmark workload: radius 12
# makes the lambda-tail check non-vacuous (236 central_chamber calls, each one
# closed-form pass over the three positive roots of A2: about 1 ms in all, warm,
# on a 2-vCPU VM)
SERIES_Q5_R12_SHA256 = "23c31e62f3eb630a8bd45fa29f1e0fb7f07b457fdb440d3caa2115012b492a9f"
# the q > 3 branch of the tree suite (r_inner 1, panel depth 5), which the
# default q = 3 report does not reach; the tree benchmark workload runs it
TREE_Q5_R6_SHA256 = "a198abd0ed63aaf81049c944b8ea30089b8316caa1b90f10dfc3f36c850a2626"
# sha256 of the stdout of `tables --<table> --format json`
TABLES_JSON_SHA256 = {
    "eic": "b6b5da511a9d5e3cf0529c356b1b3149eb570a71e392e4b8dba35e2a34b8503c",
    "sract": "4bf45474a77353b36439e3251bdb3ba5ecfd3a97ecd0140df309acf2288b8e21",
    "r1r2": "cff784444dac8ce899ba10f71eff8e6ddf7c9d893da0f75cd53151189808a6ed",
}
# sha256 of the stdout of `sigma-a F R --format json`, concatenated over the
# acceptance types and then A2 and A4 (the two without a classified set)
SIGMA_A_JSON_SHA256 = "866528dab9187b826be4ae36081364ad0c30b5ce006e284a2bb8e0b899e85f13"


@pytest.mark.parametrize("suite", sorted(suites.SUITES))
def test_verify_reports_identical_across_hash_seeds(tmp_path, suite):
    # set and dict iteration order follows PYTHONHASHSEED; the report must not.
    # The two seeds run as concurrent processes.
    def verify(seed):
        path = tmp_path / f"{suite}-{seed}.json"
        out = run_cli("verify", suite, "--json", str(path), env={"PYTHONHASHSEED": seed})
        assert out.returncode == 0, out.stderr
        return path.read_bytes()

    with ThreadPoolExecutor(2) as pool:
        reports = list(pool.map(verify, ("0", "1")))
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["reports"][0]["suite"] == suite
    assert hashlib.sha256(reports[0]).hexdigest() == REPORT_SHA256[suite]


def test_verify_series_q5_radius12_report_digest(tmp_path):
    path = tmp_path / "series.json"
    out = run_cli("verify", "series", "--q", "5", "--radius", "12", "--json", str(path))
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SERIES_Q5_R12_SHA256


def test_verify_tree_q5_radius6_report_digest(tmp_path):
    path = tmp_path / "tree.json"
    out = run_cli("verify", "tree", "--q", "5", "--radius", "6", "--json", str(path))
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TREE_Q5_R6_SHA256


@pytest.mark.parametrize("table", sorted(TABLES_JSON_SHA256))
def test_tables_json_digest(table, main_cli):
    out = main_cli("tables", f"--{table}", "--format", "json")
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == TABLES_JSON_SHA256[table]


def test_sigma_a_json_digest(main_cli):
    digest = hashlib.sha256()
    for fam, rank in suites.PLATE_TYPES:
        out = main_cli("sigma-a", fam, str(rank), "--format", "json")
        assert out.returncode == 0
        digest.update(out.stdout.encode())
    assert digest.hexdigest() == SIGMA_A_JSON_SHA256


def test_tables_without_a_table_exits_2(main_cli):
    out = main_cli("tables")
    assert out.returncode == 2
    assert out.stdout == ""


def test_tables_r1r2():
    out = run_cli("tables", "--r1r2", "--format", "json")
    assert out.returncode == 0
    rows = json.loads(out.stdout)
    by_type = {row["type"]: (row["r1"], row["r2"]) for row in rows}
    assert by_type["A3"] == (4, 2)
    assert by_type["D5"] == (8, 4)
    assert by_type["E6"] == (8, 4)
    assert all(row["match"] for row in rows)


def test_tables_eic_markdown(main_cli):
    out = main_cli("tables", "--eic", "--format", "markdown")
    assert out.returncode == 0
    assert out.stdout.startswith("| type |")
    assert "False" not in out.stdout


def test_warning_for_non_prime_power_q(main_cli):
    out = main_cli("verify", "series", "--q", "15", "--radius", "4")
    assert "not a prime power" in out.stderr


def test_large_prime_q_exits_0_without_a_warning(main_cli):
    # 2^61 - 1 is prime; trial division up to its square root once ran for minutes
    start = time.perf_counter()
    out = main_cli("verify", "prasad", "--q", str(2**61 - 1))
    assert (out.returncode, out.stderr) == (0, "")
    assert time.perf_counter() - start < 10


def test_is_prime_power_matches_trial_division():
    def by_trial_division(n):
        p = next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)
        while n % p == 0:
            n //= p
        return n == 1

    assert all(cli._is_prime_power(n) == by_trial_division(n) for n in range(3, 20000, 2))
    big_prime = 2**61 - 1
    assert cli._is_prime_power(big_prime**3)
    assert not cli._is_prime_power(big_prime * (2**31 - 1))
    assert not cli._is_prime_power(3215031751)  # a strong pseudoprime to bases 2, 3, 5 and 7


@pytest.mark.parametrize("table", ["--eic", "--sract", "--r1r2"])
def test_tables_csv_rows_as_wide_as_header(table, main_cli):
    out = main_cli("tables", table, "--format", "csv")
    assert out.returncode == 0
    header, *rows = list(csv.reader(io.StringIO(out.stdout)))
    assert rows
    assert all(len(row) == len(header) for row in rows)
    assert all(row[-1] == "True" for row in rows)


@pytest.mark.parametrize(
    "args",
    [
        ["series", "--radius", "-1"],
        ["tree", "--radius", "13"],
        ["all", "--radius", "13"],
        ["prasad", "--radius", "3"],
    ],
)
def test_verify_bad_radius_exits_2(args, main_cli):
    out = main_cli("verify", *args)
    assert out.returncode == 2
    assert "radius" in out.stderr
    assert out.stdout == ""


@pytest.mark.parametrize(
    "args, minimum",
    [
        (["tree", "--radius", "0"], 4),
        (["tree", "--radius", "3"], 4),
        (["tree", "--q", "5", "--radius", "1"], 2),
        (["all", "--radius", "2"], 4),
    ],
)
def test_verify_radius_below_tree_minimum_exits_2(args, minimum, main_cli):
    # the hctest compares chambers within r_inner of the base, so the ball needs r_inner + 1
    out = main_cli("verify", *args)
    assert out.returncode == 2
    assert f"below the tree minimum {minimum}" in out.stderr
    assert out.stdout == ""


def test_verify_unwritable_json_path_exits_2(tmp_path, monkeypatch, main_cli):
    # once ran every suite first, then ended in a FileNotFoundError traceback and exit 1
    def no_suite(name, **kwargs):
        raise AssertionError(f"suite {name} ran before the --json path was checked")

    monkeypatch.setattr(suites, "run_suite", no_suite)
    path = tmp_path / "missing" / "x.json"
    out = main_cli("verify", "tree", "--q", "3", "--radius", "4", "--json", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and str(path) in out.stderr
    assert not path.parent.exists()


def test_verify_cochain_radius_over_limit_exits_2(monkeypatch, main_cli):
    # once unbounded: verify cochain --radius 80 ran for about 4 s
    def no_suite(name, **kwargs):
        raise AssertionError(f"suite {name} ran before --radius was checked")

    monkeypatch.setattr(suites, "run_suite", no_suite)
    limit = suites.LIMITS["cochain", "radius"]
    out = main_cli("verify", "cochain", "--radius", str(limit + 1))
    assert out.returncode == 2
    assert "radius" in out.stderr
    assert f"--radius {limit + 1} is above the cochain limit {limit}" in out.stderr
    assert out.stdout == ""


def test_verify_series_radius_over_limit_exits_2(monkeypatch, main_cli):
    # once clamped in silence: verify series --radius 20 ran the lambda check at 12
    def no_suite(name, **kwargs):
        raise AssertionError(f"suite {name} ran before --radius was checked")

    monkeypatch.setattr(suites, "run_suite", no_suite)
    limit = suites.LIMITS["series", "radius"]
    out = main_cli("verify", "series", "--radius", str(limit + 1))
    assert out.returncode == 2
    assert f"--radius {limit + 1} is above the series limit {limit}" in out.stderr
    assert out.stdout == ""


@pytest.mark.parametrize(
    "option, past, more",
    [("q", 2, ["--radius", "2"]), ("q", 2, []), ("radius", 1, [])],
    ids=["q-r2", "q", "radius"],
)
def test_verify_tree_over_limit_exits_2(option, past, more, monkeypatch, main_cli):
    # past: the step to the next value verify could take, the next odd q or the next radius
    def no_suite(name, **kwargs):
        raise AssertionError(f"suite {name} ran before --{option} was checked")

    monkeypatch.setattr(suites, "run_suite", no_suite)
    limit = suites.LIMITS["tree", option]
    out = main_cli("verify", "tree", f"--{option}", str(limit + past), *more)
    assert out.returncode == 2
    assert f"error: --{option} {limit + past} is above the tree limit {limit}\n" in out.stderr
    assert out.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["tree", "--q", "7"],
        ["all", "--q", "7"],
        ["tree", "--q", "5", "--radius", "9"],
        ["tree", "--q", "1223", "--radius", "2"],
    ],
    ids=["tree-q7", "all-q7", "tree-q5-r9", "tree-q1223-r2"],
)
def test_verify_passes_on_balls_of_millions_of_chambers(args, main_cli):
    # once refused: a ball over 3,000,000 chambers exited 2 (13,451,201 at q = 7, radius 8),
    # though the tree suite works on id runs and enumerates no chamber
    out = main_cli("verify", *args)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.endswith("all checks passed\n")
    assert out.stderr == ""


@pytest.mark.parametrize("q, radius", [(3, 4), (5, 2)])
def test_verify_tree_at_minimum_radius_passes(q, radius):
    out = run_cli("verify", "tree", "--q", str(q), "--radius", str(radius))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "all checks passed" in out.stdout


def test_run_suite_forwards_radius_to_cochain(monkeypatch):
    calls = []

    @functools.wraps(suites.suite_cochain)
    def traced(**kwargs):
        calls.append(kwargs)
        return suites.SuiteReport("cochain")

    monkeypatch.setitem(suites.SUITES, "cochain", traced)
    suites.run_suite("cochain", q=5, radius=2)
    suites.run_suite("cochain")
    assert calls == [{"q": 5, "radius": 2}, {"q": 3}]


@pytest.mark.parametrize(
    "error, failing",
    [
        (HalfIntegralityViolation("not half-integral"), "facet-functional-"),
        (RuntimeError("unexpected"), "suite-crashed"),
    ],
)
def test_facet_functional_check_catches_only_half_integrality(monkeypatch, tmp_path, error, failing):
    def broken(*args):
        raise error

    monkeypatch.setattr(apartment, "facet_functional", broken)
    path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "apartment", "--json", str(path)])
    assert exit_info.value.code == 1
    checks = json.loads(path.read_text())["reports"][0]["checks"]
    failed = [c for c in checks if c["status"] == "fail"]
    assert failed and all(c["id"].startswith(failing) for c in failed)
    if failing == "suite-crashed":
        assert failed[0]["description"] == "RuntimeError: unexpected"


def test_verify_rootsys_names_a_plate_vector_that_is_no_root(monkeypatch, tmp_path, main_cli):
    # twice 2 eps1 replaces the first B3 plate root; systems come from a fresh
    # cache so the patched plates are read
    monkeypatch.setattr(rootsys, "build", lru_cache(maxsize=None)(rootsys.build.__wrapped__))
    plates = rootsys._ambient_all_roots

    def patched(family, rank):
        roots = plates(family, rank)
        return [(4, 0, 0)] + roots[1:] if (family, rank) == ("B", 3) else roots

    monkeypatch.setattr(rootsys, "_ambient_all_roots", patched)
    path = tmp_path / "report.json"
    result = main_cli("verify", "rootsys", "--json", str(path))
    assert result.returncode == 1
    assert "rootsys    fail suite-crashed: false (expected true)" in result.stdout
    (crashed,) = [c for c in json.loads(path.read_text())["reports"][0]["checks"] if c["status"] == "fail"]
    assert crashed["description"] == "NotARoot: doubled plate vector (4, 0, 0) is not a root of B3"


def _first_run_off_by_one(runs):
    """The first distance run at depth 1, which holds the base chamber's panel, one step too far."""
    def broken(ball, ref, depth, count):
        (d, length), *rest = runs(ball, ref, depth, count)
        return [(d + (depth == 1), length), *rest]

    return broken


def _last_run_doubled_at_depth_two(runs):
    """The extension's last run at depth 2, under chamber q + 1, doubled; chamber 1,
    under the first run, has the base value 0, where doubling changes nothing."""
    def broken(ball, base, depth, count):
        *rest, (x, length) = runs(ball, base, depth, count)
        return [*rest, (x * (1 + (depth == 2)), length)]

    return broken


def _top_shell_short_by_one(walk):
    """The apartment walk without the last chamber of its top shell."""
    def broken(c0, radius):
        *inner, top = walk(c0, radius)
        return [*inner, top[:-1]]

    return broken


def _signs_flipped_at_odd_distance(extend):
    """The extension's profile times (-1)^d: still +1 at the base, wrong at odd distance."""
    def broken(c0, value, q, radius):
        f = extend(c0, value, q, radius)
        return f._replace(profile=tuple(v * (-1) ** d for d, v in enumerate(f.profile)))

    return broken


# A break of the layer function each check family reads, made from the original, for
# the families that no other test drives to a fail: a check that cannot fail checks nothing.
BREAKS = {
    "negation-stability": ("rootsys", rootsys.RootSystem, "orthogonal_row",
                           lambda row: lambda sys, b: (row(sys, b)[0], row(sys, b)[1] * sys.is_positive(b))),
    "orthogonal-long": ("rootsys", rootsys.RootSystem, "orthogonal_row",
                        lambda row: lambda sys, beta: (row(sys, beta)[0], 0)),
    "short-coeff-even": ("sorth", rootsys.RootSystem, "is_long", lambda _: lambda sys, v: sum(v) > 1),
    "two-short": ("sorth", rootsys.RootSystem, "is_long", lambda _: lambda sys, v: False),
    "distance-doubling": ("apartment", apartment, "distance", lambda d: lambda a, b: d(a, b) ** 2),
    "facet-relation": ("apartment", apartment, "affine_relation",
                       lambda rel: lambda ch: (rel(ch)[0], [2 * c for c in rel(ch)[1]])),
    "triangle-A2": ("apartment", apartment, "distance", lambda d: lambda a, b: d(a, b) ** 2),
    # a corner chamber of cf, the last of its 2^d fine chambers, is never the central one
    "central-formula": ("apartment", apartment, "central_chamber",
                        lambda _: lambda cf: apartment.e_chambers_in_f_chamber(cf)[-1]),
    "central-distance-A2": ("apartment", apartment, "central_chamber",
                            lambda _: lambda cf: apartment.e_chambers_in_f_chamber(cf)[-1]),
    "lambda-A2": ("series", apartment, "central_chamber",
                  lambda _: lambda cf: apartment.e_chambers_in_f_chamber(cf)[-1]),
    "poincare": ("series", apartment, "_h_shells", _top_shell_short_by_one),
    "chi-compat": ("cochain", prasad, "chi_on_torus", lambda chi: lambda sys, xi: -chi(sys, xi)),
    "panel-zeros": ("cochain", cochain, "panel_sum", lambda _: lambda panel, f: 1),
    "extension-matches-iwahori": ("cochain", cochain, "extend_by_harmonicity",
                                  _signs_flipped_at_odd_distance),
    "hctest": ("tree", tree_oracle, "_level_runs", _first_run_off_by_one),
    "iwahori-harmonic": ("tree", tree_oracle, "_level_runs", _first_run_off_by_one),
    "shell-counts": ("tree", tree_oracle, "_level_runs", _first_run_off_by_one),
    "axis-distance": ("tree", tree_oracle, "_level_runs", _first_run_off_by_one),
    "extension": ("tree", tree_oracle, "_extension_runs", _last_run_doubled_at_depth_two),
}


# A case's test id is the id stem its family's checks share: the family, then "-" and,
# where the suite tags the family by q, "q"; an untagged family is its own id.
CASE_IDS = {
    "negation-stability": "negation-stability-", "orthogonal-long": "orthogonal-long-",
    "short-coeff-even": "short-coeff-even-", "two-short": "two-short-",
    "distance-doubling": "distance-doubling-", "facet-relation": "facet-relation-",
    "central-formula": "central-formula-", "lambda-A2": "lambda-A2-q", "poincare": "poincare-",
    "chi-compat": "chi-compat-", "panel-zeros": "panel-zeros-", "hctest": "hctest-q",
    "iwahori-harmonic": "iwahori-harmonic-q", "shell-counts": "shell-counts-q",
    "axis-distance": "axis-distance-q", "extension": "extension-q",
}


def family_of(check_id):
    """The CHECKS family of a check id: the longest family that is the id, or the id's
    stem before "-" and a tag; None when no family is."""
    stems = [f for f in suites.CHECKS if check_id == f or check_id.startswith(f + "-")]
    return max(stems, key=len, default=None)


@pytest.mark.parametrize("family", BREAKS, ids=lambda family: CASE_IDS.get(family, family))
def test_every_check_family_can_fail(family, monkeypatch, tmp_path, main_cli):
    assert family in suites.CHECKS
    suite, owner, name, broken = BREAKS[family]
    monkeypatch.setattr(owner, name, broken(getattr(owner, name)))
    path = tmp_path / "report.json"
    assert main_cli("verify", suite, "--json", str(path)).returncode == 1
    checks = json.loads(path.read_text())["reports"][0]["checks"]
    assert "fail" in {c["status"] for c in checks if family_of(c["id"]) == family}


def test_verify_all_runs_every_check_family_and_no_other(tmp_path, main_cli):
    path = tmp_path / "all.json"
    assert main_cli("verify", "all", "--json", str(path)).returncode == 0
    ids = [c["id"] for rep in json.loads(path.read_text())["reports"] for c in rep["checks"]]
    assert [i for i in ids if family_of(i) is None] == []
    assert sorted(set(suites.CHECKS) - {family_of(i) for i in ids}) == []
