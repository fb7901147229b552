"""Spans around the public functions of each steinberg_lab module.

A span records (name, start, end, parent) for one call.  Spans live in
compact arrays while the workload runs and are written out once at the
end; `layer_metrics` turns a written trace into per-layer calls, self
times and work counters.  Self time is a span's duration minus the time
its direct children cover (calls run on one thread, so children nest).

Only module-level public functions and three `RootSystem` methods are
wrapped.  The per-vertex `TreeBall` addressing methods stay unwrapped:
`depth` alone runs about 16 M times per tree workload.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array

LAYERS = (
    "rootsys", "linalg", "tables", "sorth", "prasad", "apartment",
    "cochain", "series", "tree_oracle", "suites", "cli",
)
ROOTSYS_METHODS = ("inner", "root_pairing", "reflect_root")
GLUE = ("suites", "cli")
COUNTERS = (
    "apartment.wall_neighbors.neighbors",
    "apartment.chambers_within.chambers",
    "sorth.classes",
    "series.alcoves",
    "tree_oracle.hctest.star_evals",
    "tree_oracle.ball_chambers",
)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack = [-1]
        self.pairs = set()
        self.systems = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.seeds = []

    def wrap(self, name, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self.stack,
        )
        clock = time.perf_counter

        def span(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            stack.append(i)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def _observers(self):
        def built(args, kwargs, system):
            self.systems[str(system.type)] = len(system.roots)

        def paired(args, kwargs, result):
            system, alpha, beta = args
            self.pairs.add((id(system), alpha, beta))

        def adder(key, measure):
            def add(args, kwargs, result):
                self.counters[key] += measure(result)

            return add

        def seeded(args, kwargs, result):
            self.seeds.append(kwargs.get("seed"))

        return {
            "rootsys.build": built,
            "rootsys.root_pairing": paired,
            "apartment.wall_neighbors": adder("apartment.wall_neighbors.neighbors", len),
            "apartment.chambers_within": adder(
                "apartment.chambers_within.chambers", lambda shells: sum(map(len, shells))
            ),
            "sorth.enumerate_so_sets": adder("sorth.classes", len),
            "series.poincare_bfs": adder("series.alcoves", sum),
            "tree_oracle.verify_hctest": adder(
                "tree_oracle.hctest.star_evals",
                lambda rep: rep.panels_checked * rep.references_checked,
            ),
            "tree_oracle.chamber_count_by_distance": adder("tree_oracle.ball_chambers", sum),
            "suites.suite_apartment": seeded,
        }

    def install(self):
        """Wrap every public function of the layers, in place, everywhere it is bound."""
        modules = [importlib.import_module(f"steinberg_lab.{m}") for m in LAYERS]
        observers = self._observers()
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if inspect.isgeneratorfunction(obj):
                    raise TypeError(f"{layer}.{attr} is a generator; spans would not nest")
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = self.wrap(name, obj, observers.get(name))
        rootsys_cls = modules[0].RootSystem
        for attr in ROOTSYS_METHODS:
            name = f"rootsys.{attr}"
            setattr(rootsys_cls, attr, self.wrap(name, getattr(rootsys_cls, attr), observers.get(name)))
        # rebind every alias: `from .rootsys import build` copies the original
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])
        suites = modules[LAYERS.index("suites")]
        for key, fn in suites.SUITES.items():
            suites.SUITES[key] = wrapped.get(id(fn), fn)

    def write(self, path):
        """Header JSON on the first line, then the four span arrays."""
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "counters": self.counters,
            "pairs_touched": len(self.pairs),
            "systems": self.systems,
            "seeds": self.seeds,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.starts, self.ends, self.parents):
                arr.tofile(fh)


def read_trace(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("H", "d", "d", "i"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


def self_times(name_ids, starts, ends, parents, n_names):
    """Calls and self seconds per name id."""
    child_cover = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child_cover[p] += ends[i] - starts[i]
    calls = [0] * n_names
    self_s = [0.0] * n_names
    for i, nid in enumerate(name_ids):
        calls[nid] += 1
        self_s[nid] += ends[i] - starts[i] - child_cover[i]
    return calls, self_s


def layer_metrics(path, traced_wall_s):
    """Per-layer metrics of one written trace, keyed by metric name."""
    header, (name_ids, starts, ends, parents) = read_trace(path)
    names = header["names"]
    calls, self_s = self_times(name_ids, starts, ends, parents, len(names))
    by_name = {n: (calls[i], self_s[i]) for i, n in enumerate(names)}
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s for n, (_, s) in by_name.items() if n.split(".")[0] == layer)
    for name, (c, s) in by_name.items():
        out[f"{name}.calls"] = c
        out[f"{name}.self_s"] = s
    out.update(header["counters"])
    systems = header["systems"]
    out["rootsys.pairs_touched"] = header["pairs_touched"]
    out["rootsys.roots_built"] = sum(systems.values())
    square_sum = sum(n * n for n in systems.values())
    out["rootsys.pair_density"] = header["pairs_touched"] / square_sum if square_sum else 0.0
    wn = names.index("apartment.wall_neighbors")
    reflect = names.index("apartment.reflect")
    inner_reflects = sum(
        1 for i, p in enumerate(parents) if name_ids[i] == reflect and p >= 0 and name_ids[p] == wn
    )
    neighbors = header["counters"]["apartment.wall_neighbors.neighbors"]
    out["apartment.wall_neighbors.yield"] = neighbors / inner_reflects if inner_reflects else 0.0
    layer_self = sum(out[f"{layer}.self_s"] for layer in LAYERS if layer not in GLUE)
    out["trace.layer_share"] = layer_self / traced_wall_s
    out["trace.spans"] = header["spans"]
    return out
