"""Each command loads only the layers it runs; checked in fresh processes."""

import json
import subprocess
import sys

import pytest

import steinberg_lab
from steinberg_lab import rootsys

PROBE = """
import contextlib, io, json, sys
from steinberg_lab import cli, suites

def loaded():
    return sorted(m for m in sys.modules if m.startswith("steinberg_lab"))

before = loaded()
code = None
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(json.loads(sys.argv[1]))
    except SystemExit as exc:
        code = exc.code
print(json.dumps([before, loaded(), code]))
"""


def _modules_loaded(*argv):
    """Package modules loaded by the cli import, then by `cli.main(argv)`, and its exit code."""
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)], capture_output=True, text=True, check=True
    )
    before, after, code = json.loads(out.stdout)
    return set(before), set(after), code


def test_cli_import_loads_only_the_glue():
    before, after, code = _modules_loaded("--help")
    glue = {"steinberg_lab", "steinberg_lab.cli", "steinberg_lab.errors", "steinberg_lab.suites"}
    assert before == glue
    assert after == glue and code == 0


def test_verify_tree_adds_only_the_tree_oracle():
    before, after, code = _modules_loaded("verify", "tree", "--radius", "4")
    assert code == 0
    assert after - before == {"steinberg_lab.tree_oracle"}


def test_verify_rootsys_loads_no_apartment_layer():
    _, after, code = _modules_loaded("verify", "rootsys")
    assert code == 0
    for layer in ("apartment", "cochain", "series", "tree_oracle"):
        assert f"steinberg_lab.{layer}" not in after


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "rootsys"],
        ["verify", "prasad"],
        ["verify", "sorth"],
        ["sigma-a", "E", "8"],
        ["verify", "apartment"],
        ["verify", "cochain"],
        ["verify", "series"],
    ],
    ids=" ".join,
)
def test_root_system_commands_load_no_solver(argv):
    # plates and orthogonal expansions are read forward, through integer maps, and
    # the affine relation among facet roots off integer cofactors
    _, after, code = _modules_loaded(*argv)
    assert code == 0
    assert "steinberg_lab.linalg" not in after


def test_verify_cochain_loads_no_sorth():
    # the wall counts read the Levi hull from rootsys, not from sorth
    _, after, code = _modules_loaded("verify", "cochain", "--radius", "1")
    assert code == 0
    assert "steinberg_lab.sorth" not in after


def test_package_still_exports_the_root_system_layer():
    from steinberg_lab import RootSystem, RootSystemType, build

    assert (build, RootSystem, RootSystemType) == (
        rootsys.build,
        rootsys.RootSystem,
        rootsys.RootSystemType,
    )
    assert isinstance(build("A", 2), RootSystem)
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        steinberg_lab.nothing


COLD_PROBE = """
import contextlib, io, json, sys
start = set(sys.modules)
from steinberg_lab import cli

code = None
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(json.loads(sys.argv[1]))
    except SystemExit as exc:
        code = exc.code
print(json.dumps([sorted(set(sys.modules) - start), code]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["verify", "rootsys"],
        ["verify", "prasad"],
        ["verify", "sorth"],
        ["verify", "apartment"],
        ["verify", "cochain", "--radius", "1"],
        ["verify", "series", "--radius", "4"],
        ["verify", "tree", "--radius", "4"],
        ["verify", "all", "--radius", "4"],
        ["sigma-a", "E", "8"],
        ["tables", "--eic"],
    ],
    ids=" ".join,
)
def test_commands_load_neither_dataclasses_nor_inspect(argv):
    # the module set is taken before steinberg_lab is imported: the
    # interpreter's own start-up may load other modules
    out = subprocess.run(
        [sys.executable, "-c", COLD_PROBE, json.dumps(argv)], capture_output=True, text=True, check=True
    )
    added, code = json.loads(out.stdout)
    assert code == 0
    assert "steinberg_lab.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)
