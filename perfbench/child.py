"""One cold run of a benchmark workload, in its own Python process.

    python child.py --src SRC --workload NAME --seed N --out DIR [--smoke] [--trace] [--setup-only]

Imports `steinberg_lab` from SRC and notes when the import finished (the
end of set-up, on the system-wide monotonic clock).  Then it runs the
workload's suites in order through their public entry points, writing
suite i's JSON report to DIR/report-i.json exactly as `verify --json`
writes it.  With --trace, every public layer function is wrapped first
and the spans are written to DIR/trace.bin when the workload ends.

Speed probes: a burst of PROBE_BURST probes right after the import, then
one probe every PROBE_INTERVAL_S seconds of the workload (SIGALRM).  A
probe times a fixed piece of pure-Python work, so the probe durations
sample the CPU speed the process got, on its own CPU and at the same
moments; run.py uses them to put times on one reference speed.  In a
traced process the probes' time (1-2%) falls inside whichever span is open.
DIR/result.json gets the set-up stamp, the exit codes and the probe
durations.
"""

import argparse
import json
import os
import signal
import sys
import time
from fractions import Fraction

PROBE_BURST = 10
PROBE_INTERVAL_S = 0.05


def probe():
    """Seconds taken by fixed work like the program's hot paths: Fractions, tuple keys."""
    start = time.perf_counter()
    total = Fraction(0)
    table = {}
    for i in range(1, 100):
        total += Fraction(i % 7, 3) * Fraction(2, i % 5 + 1)
        table[(i, i % 13)] = total
    return time.perf_counter() - start


def run_entry(entry, seed, path, cli, suites):
    """Write one suite's report to path; return the exit code `verify` would give."""
    if "cli" in entry:
        try:
            cli.main(entry["cli"] + ["--json", path])
        except SystemExit as exc:
            return exc.code
        return 0
    name = entry["suite"]
    kwargs = {"seed": seed} if entry.get("seeded") else {}
    try:
        report = getattr(suites, name)(**kwargs)
    except Exception as exc:  # mirror the command line: report the crash, keep going
        report = suites.SuiteReport(name.removeprefix("suite_"))
        report.add("suite-crashed", f"{type(exc).__name__}: {exc}", False, True, "derived")
    text = json.dumps({"reports": [report.to_dict()]}, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return 0 if report.ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from steinberg_lab import cli, suites

    ready = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"steinberg_lab imported from {cli.__file__}, not from {args.src}")
    probes = [probe() for _ in range(PROBE_BURST)]
    result = {"ready": ready, "exit_codes": [], "probes": probes}
    if not args.setup_only:
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "workloads.json"), encoding="utf-8") as fh:
            workload = json.load(fh)["workloads"][args.workload]
        entries = (workload["smoke"] if args.smoke else workload)["suites"]
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        signal.signal(signal.SIGALRM, lambda *_: probes.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        for i, entry in enumerate(entries):
            path = os.path.join(args.out, f"report-{i}.json")
            result["exit_codes"].append(run_entry(entry, args.seed, path, cli, suites))
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.write(os.path.join(args.out, "trace.bin"))
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
