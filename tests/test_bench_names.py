"""The names the benchmark reports on still exist in the package.

perfbench/run.py and perfbench/tracer.py are imported read-only.  A span
name that no longer resolves shows up there only as a KeyError under
`--trace 1`; here it fails tier-1.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from steinberg_lab.rootsys import RootSystem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
tracer = _load("tracer")


def _layer(name):
    return importlib.import_module(f"steinberg_lab.{name}")


def test_reported_names_resolve_to_public_attributes():
    for name in run._CALLS_AND_SELF + run._SELF_ONLY:
        layer, _, attr = name.partition(".")
        assert layer in tracer.LAYERS, name
        if not attr:
            continue
        assert not attr.startswith("_"), name
        if layer == "rootsys" and attr in tracer.ROOTSYS_METHODS:
            continue
        obj = getattr(_layer(layer), attr, None)
        assert callable(obj), f"{name} is not a function of steinberg_lab.{layer}"
    for attr in tracer.ROOTSYS_METHODS:
        assert not attr.startswith("_") and callable(getattr(RootSystem, attr, None)), attr


def test_no_public_layer_function_is_a_generator():
    for layer in tracer.LAYERS:
        module = _layer(layer)
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            assert not inspect.isgeneratorfunction(obj), f"{layer}.{attr}"
