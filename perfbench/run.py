"""Cold-process benchmark of `steinberg-lab verify`.

    python3 perfbench/run.py --workload {classify,chambers,tree} --seed N
                             --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the program is imported from ./src.
Every sample is a fresh Python process (child.py) that runs the
workload's suites in order, so each one pays the cold cost a user of the
command pays.  Processes run one at a time.

--trace 0: a few set-up runs (fresh interpreters that import
steinberg_lab.cli and exit), then workload processes back to back while
the next one is expected to end within S seconds (at least one).  Prints
the end-to-end metrics: medians of wall time, CPU time and peak RSS over
the workload processes, and of set-up time over the set-up runs.

Times are reported at a reference CPU speed.  On a shared host the CPU
speed a process gets can halve for seconds at a time, so raw times of
the same process spread by a third from run to run.  Each process times
a fixed probe (child.py) right after its import and every 50 ms after
that; a time t with probe durations c_i is reported as
t * mean(PROBE_REF_S / c_i), i.e. in seconds of a CPU that runs the probe
in PROBE_REF_S.  Probe time itself is subtracted first.  The raw times
are printed on the lines before the result.

--trace 1: one untraced and one traced workload process.  Prints the
per-layer metrics of the traced one (tracer.py) and the tracing overhead.
Self times are raw seconds; trace.wall_s and trace.overhead_s are at the
reference speed.

Every process's report bytes are checked against the workload's
reference sha256 in workloads.json; a mismatch, a check that is not
`pass` or a suite that exits non-zero makes the run exit 1.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
CHILD = os.path.join(HERE, "child.py")
SETUP_RUNS = 11
# about the probe's duration when the 2-vCPU Xeon host the bounds were set
# on ran at full speed; slower CPU time is scaled down towards it
PROBE_REF_S = 0.0005

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_CALLS_AND_SELF = [
    "rootsys.build", "rootsys.inner", "rootsys.root_pairing", "rootsys.reflect_root",
    "rootsys.subsystem_components", "linalg.solve_exact", "apartment.reflect",
    "apartment.wall_neighbors", "apartment.distance", "cochain.panel_sum",
    "tree_oracle.star_distances",
]
_SELF_ONLY = [
    "rootsys", "linalg", "tables", "sorth", "prasad", "apartment", "cochain", "series",
    "tree_oracle", "suites", "cli",
    "sorth.sigma_a", "sorth.is_conjugate_subset_of", "sorth.enumerate_so_sets",
    "sorth.verify_anismax", "apartment.check_concave", "cochain.solved_character",
    "cochain.iwahori_vector", "cochain.extend_by_harmonicity", "series.poincare_bfs",
    "series.lambda_a2n_partial", "series.tail_bound", "tree_oracle.verify_hctest",
    "tree_oracle.verify_extension", "tree_oracle.verify_iwahori_harmonic",
    "tree_oracle.chamber_count_by_distance",
]
PER_LAYER = {
    **{f"{n}.{k}": u for n in _CALLS_AND_SELF for k, u in (("calls", "count"), ("self_s", "s"))},
    **{f"{n}.self_s": "s" for n in _SELF_ONLY},
    "rootsys.pairs_touched": "count",
    "rootsys.pair_density": "ratio",
    "rootsys.roots_built": "count",
    "sorth.classes": "count",
    "apartment.chambers_within.chambers": "count",
    "apartment.wall_neighbors.yield": "ratio",
    "series.alcoves": "count",
    "tree_oracle.hctest.star_evals": "count",
    "tree_oracle.ball_chambers": "count",
    "cli.report_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_share": "ratio",
    "trace.spans": "count",
    "check_fail_ratio": "ratio",
    "report_mismatch_ratio": "ratio",
}


def load_workloads():
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def spawn(args, out_dir):
    """Run child.py once and wait for it: wall seconds, rusage, exit code, start stamp."""
    os.makedirs(out_dir)
    argv = [sys.executable, CHILD, "--src", SRC, "--out", out_dir, *args]
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.monotonic() - start
    return wall, usage, os.waitstatus_to_exitcode(status), start


def read_result(out_dir):
    try:
        with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def speed(result):
    """Mean CPU speed a child got, relative to the reference speed."""
    return statistics.fmean(PROBE_REF_S / c for c in result["probes"])


def check_reports(reports, reference):
    """Digest, size and check counts of one process's report bytes, in suite order."""
    digest = hashlib.sha256()
    checks = not_pass = size = 0
    for data in reports:
        digest.update(data)
        size += len(data)
        for rep in json.loads(data)["reports"]:
            checks += len(rep["checks"])
            not_pass += sum(1 for c in rep["checks"] if c["status"] != "pass")
    sha = digest.hexdigest()
    return {
        "sha256": sha,
        "bytes": size,
        "checks": checks,
        "not_pass": not_pass,
        "mismatch": sha != reference["sha256"],
    }


def run_workload(name, seed, smoke, out_dir, reference, trace=False):
    args = ["--workload", name, "--seed", str(seed)]
    args += ["--smoke"] if smoke else []
    args += ["--trace"] if trace else []
    wall, usage, code, _ = spawn(args, out_dir)
    cpu = usage.ru_utime + usage.ru_stime
    result = read_result(out_dir)
    sample = {"raw_wall_s": wall, "raw_cpu_s": cpu, "peak_rss_mb": usage.ru_maxrss / 1024}
    if code != 0 or result is None:
        print(f"error: workload process exited with {code}", file=sys.stderr)
        return sample | {"wall_s": wall, "cpu_s": cpu, "checks": 0, "not_pass": 1,
                         "mismatch": True, "bytes": 0}
    probing, rate = sum(result["probes"]), speed(result)
    sample |= {"wall_s": (wall - probing) * rate, "cpu_s": (cpu - probing) * rate}
    reports = []
    for i in range(len(result["exit_codes"])):
        with open(os.path.join(out_dir, f"report-{i}.json"), "rb") as fh:
            reports.append(fh.read())
    sample |= check_reports(reports, reference)
    if any(result["exit_codes"]):
        sample["not_pass"] = max(sample["not_pass"], 1)
    return sample


def setup_run(out_dir):
    """Raw and reference-speed seconds from spawn until steinberg_lab.cli is imported."""
    _, _, code, start = spawn(["--workload", "-", "--seed", "0", "--setup-only"], out_dir)
    result = read_result(out_dir)
    if code != 0 or result is None:
        raise SystemExit(f"error: set-up run exited with {code}")
    raw = result["ready"] - start
    return raw, raw * speed(result)


def timed_run(name, seed, seconds, smoke, tmp, reference):
    setup_run(os.path.join(tmp, "warm"))  # compiles bytecode once; not timed
    setups = [setup_run(os.path.join(tmp, f"setup-{i}")) for i in range(SETUP_RUNS)]
    samples = []
    begin = time.monotonic()
    while True:
        samples.append(run_workload(name, seed, smoke, os.path.join(tmp, f"run-{len(samples)}"), reference))
        longest = max(s["raw_wall_s"] for s in samples)
        if time.monotonic() - begin + longest > seconds:
            break
    print(f"raw setup_s = {statistics.median(raw for raw, _ in setups)} s (n={len(setups)})")
    metrics = {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "setup_s": statistics.median(ref for _, ref in setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    counts = {"wall_s": len(samples), "cpu_s": len(samples), "setup_s": len(setups),
              "peak_rss_mb": len(samples)}
    return samples, {k: (metrics[k], END_TO_END[k], counts[k]) for k in END_TO_END}


def traced_run(name, seed, smoke, tmp, reference):
    sys.path.insert(0, HERE)
    from tracer import layer_metrics

    plain = run_workload(name, seed, smoke, os.path.join(tmp, "plain"), reference)
    traced_dir = os.path.join(tmp, "traced")
    traced = run_workload(name, seed, smoke, traced_dir, reference, trace=True)
    samples = [plain, traced]
    values = layer_metrics(os.path.join(traced_dir, "trace.bin"), traced["raw_wall_s"])
    values.update({
        "cli.report_bytes": traced["bytes"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "check_fail_ratio": sum(s["not_pass"] for s in samples) / max(1, sum(s["checks"] for s in samples)),
        "report_mismatch_ratio": sum(s["mismatch"] for s in samples) / len(samples),
    })
    return samples, {k: (values[k], unit, 1) for k, unit in PER_LAYER.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the shorter suite list")
    args = parser.parse_args()

    workloads = load_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    if not os.path.isfile(os.path.join(SRC, "steinberg_lab", "cli.py")):
        print(f"error: no steinberg_lab sources under {SRC}", file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    reference = (spec["smoke"] if args.smoke else spec)["reference"]

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(TMP, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP)
    try:
        if args.trace:
            samples, metrics = traced_run(args.workload, args.seed, args.smoke, tmp, reference)
        else:
            samples, metrics = timed_run(args.workload, args.seed, args.seconds, args.smoke, tmp, reference)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(s["checks"] for s in samples)
    failed = sum(s["not_pass"] for s in samples)
    mismatched = sum(s["mismatch"] for s in samples)
    correct = failed == 0 and mismatched == 0
    for s in samples:
        print(f"report sha256={s.get('sha256')} bytes={s['bytes']} checks={s['checks']} "
              f"not_pass={s['not_pass']} raw wall_s={s['raw_wall_s']:.3f} "
              f"raw cpu_s={s['raw_cpu_s']:.3f} wall_s={s['wall_s']:.3f}")
    print(f"reference sha256={reference['sha256']} mismatched={mismatched}/{len(samples)}")
    for key, (value, unit, n) in metrics.items():
        print(f"{key} = {value} {unit} (n={n})")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed + mismatched,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
