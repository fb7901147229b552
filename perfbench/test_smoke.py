"""Smoke test of the benchmark itself, on its reduced (--smoke) suite lists.

    python3 -m pytest perfbench/test_smoke.py -q

Runs from a checkout root that holds src/, perfbench/ and BENCHMARK.json.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import read_trace  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(root, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def copy_checkout(dest, with_src=True):
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_are_declared(workload, trace, section):
    code, out = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                      "--trace", str(trace), "--smoke")
    assert code == 0 and out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {name: m["unit"] for name, m in out["metrics"].items()}
    assert printed == declared


def test_altered_report_is_a_mismatch(tmp_path):
    copy_checkout(tmp_path)
    suites_py = tmp_path / "src" / "steinberg_lab" / "suites.py"
    text = suites_py.read_text()
    altered = text.replace("axis distances agree with the apartment line",
                           "axis distances agree with the apartment line!")
    assert altered != text
    suites_py.write_text(altered)
    code, out = bench(tmp_path, "--workload", "tree", "--seed", "1", "--seconds", "1",
                      "--trace", "0", "--smoke")
    assert code == 1
    assert out["correct"] is False and out["failed"] >= 1


def test_seed_reaches_apartment_without_changing_bytes(tmp_path):
    digests = set()
    for seed in (3, 11):
        out_dir = tmp_path / str(seed)
        out_dir.mkdir()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--src", os.path.join(ROOT, "src"),
             "--workload", "chambers", "--seed", str(seed), "--out", str(out_dir),
             "--smoke", "--trace"],
            check=True, stdout=subprocess.DEVNULL, timeout=170,
        )
        header, _ = read_trace(out_dir / "trace.bin")
        assert header["seeds"] == [seed]
        digests.add(hashlib.sha256((out_dir / "report-0.json").read_bytes()).hexdigest())
    assert digests == {run.load_workloads()["chambers"]["smoke"]["reference"]["sha256"]}


def test_fails_without_sources(tmp_path):
    copy_checkout(tmp_path, with_src=False)
    code, out = bench(tmp_path, "--workload", "tree", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert code != 0 and out is None
