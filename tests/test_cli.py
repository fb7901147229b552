import csv
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import pytest

from steinberg_lab import apartment, cli, cochain, prasad, rootsys, suites
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
# makes the lambda-tail check non-vacuous (236 central_chamber calls)
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
    for fam, rank in suites.ACCEPTANCE_TYPES + [("A", 2), ("A", 4)]:
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


@pytest.mark.parametrize("table", ["--eic", "--sract", "--r1r2"])
def test_tables_csv_rows_as_wide_as_header(table, main_cli):
    out = main_cli("tables", table, "--format", "csv")
    assert out.returncode == 0
    header, *rows = list(csv.reader(io.StringIO(out.stdout)))
    assert rows
    assert all(len(row) == len(header) for row in rows)
    assert all(row[-1] == "True" for row in rows)


@pytest.mark.parametrize("value", ["lots", "1.5", "0", "-3"])
def test_verify_bad_budget_exits_2(value, main_cli):
    out = main_cli("verify", "prasad", env={"STEINBERG_BUDGET": value})
    assert out.returncode == 2
    assert "STEINBERG_BUDGET" in out.stderr
    assert "suite-crashed" not in out.stdout


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


@pytest.mark.parametrize(
    "args, env, count, budget",
    [
        (["--q", "5", "--radius", "9"], None, 4882811, 3000000),
        (["--q", "7"], None, 13451201, 3000000),
        (["--radius", "4"], {"STEINBERG_BUDGET": "100"}, 241, 100),
    ],
)
def test_verify_tree_over_chamber_budget_exits_2(args, env, count, budget, main_cli):
    out = main_cli("verify", "tree", *args, env=env)
    assert out.returncode == 2
    assert f"{count} chambers exceed the budget of {budget}" in out.stderr
    assert out.stdout == ""


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


# A break of the layer function each check family reads, made from the original, for
# the families that no other test drives to a fail: a check that cannot fail checks nothing.
BREAKS = {
    "negation-stability-": ("rootsys", rootsys, "strongly_orthogonal",
                            lambda so: lambda sys, a, b: so(sys, a, b) and sys.is_positive(a)),
    "orthogonal-long-": ("rootsys", rootsys, "strongly_orthogonal", lambda so: lambda *args: False),
    "short-coeff-even-": ("sorth", rootsys.RootSystem, "is_long", lambda _: lambda sys, v: sum(v) > 1),
    "two-short-": ("sorth", rootsys.RootSystem, "is_long", lambda _: lambda sys, v: False),
    "distance-doubling-": ("apartment", apartment, "distance", lambda d: lambda a, b: d(a, b) ** 2),
    "facet-relation-": ("apartment", apartment, "affine_relation",
                        lambda rel: lambda ch: (rel(ch)[0], [2 * c for c in rel(ch)[1]])),
    "triangle-A2": ("apartment", apartment, "distance", lambda d: lambda a, b: d(a, b) ** 2),
    "chi-compat-": ("cochain", prasad, "chi_on_torus", lambda chi: lambda sys, xi: -chi(sys, xi)),
    "panel-zeros-": ("cochain", cochain, "panel_sum", lambda _: lambda panel, f: 1),
}


@pytest.mark.parametrize("family", BREAKS)
def test_every_check_family_can_fail(family, monkeypatch, tmp_path, main_cli):
    suite, owner, name, broken = BREAKS[family]
    monkeypatch.setattr(owner, name, broken(getattr(owner, name)))
    path = tmp_path / "report.json"
    assert main_cli("verify", suite, "--json", str(path)).returncode == 1
    checks = json.loads(path.read_text())["reports"][0]["checks"]
    assert "fail" in {c["status"] for c in checks if c["id"].startswith(family)}
