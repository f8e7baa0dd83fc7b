"""What each entry point loads: the lazy package root and per-subcommand imports.

Every import-set case runs in a fresh interpreter, since this process has
long since loaded every module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nefkit
from nefkit import chern, cones, diagonal

SRC = Path(nefkit.__file__).resolve().parents[1]

# Runs cli.main on argv with its output discarded, then prints the exit
# status, the loaded nefkit submodules, and which of the costly standard
# library modules dataclasses and inspect, and fractions and decimal, are
# loaded, as one JSON line.
PROBE = """
import contextlib, io, json, sys
from nefkit import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("nefkit.")),
                  [m for m in ("dataclasses", "inspect") if m in sys.modules],
                  [m for m in ("fractions", "decimal") if m in sys.modules]]))
"""


def fresh(code: str, *argv: str) -> str:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          check=True, env=env)
    return proc.stdout


def test_import_nefkit_loads_no_layer() -> None:
    out = fresh("import sys, nefkit; print([m for m in sys.modules if m.startswith('nefkit.')])")
    assert out == "[]\n"


CHERN = ["nefkit.chern", "nefkit.cli", "nefkit.exactnum"]
CONES = ["nefkit.cli", "nefkit.cones", "nefkit.exactnum"]
BAD_DATASET = str(Path(__file__).resolve().parents[1] / "bench" / "data" / "bad_dataset.json")


@pytest.mark.parametrize("argv, exit_status, loaded", [
    (["euler", "ci", "--dim", "3", "--degrees", "2,2"], 0, CHERN),
    (["verdict", "ci", "--dim", "4", "--degrees", "3"], 0, sorted([*CHERN, "nefkit.diagonal"])),
    (["cone", "check", "--dataset", "gw2c5"], 0,
     sorted([*CHERN, "nefkit.cones", "nefkit.diagonal"])),
    (["cone", "dual", "--dataset", "gw2c5", "--codim", "2"], 0, CONES),
    # the dataset fails to load before the check would import diagonal
    (["cone", "check", "--dataset", BAD_DATASET], 3, CONES),
    (["euler", "ci", "--dim", "x"], 2, ["nefkit.cli"]),
], ids=["euler", "verdict", "cone", "cone-dual", "bad-dataset", "usage-error"])
def test_subcommand_loads_only_its_layer(argv, exit_status, loaded) -> None:
    assert json.loads(fresh(PROBE, *argv)) == [exit_status, loaded, [], []]


def test_only_the_series_route_loads_fractions() -> None:
    # chern ci expands a series of Fractions, the one subcommand that does
    out = fresh(PROBE, "chern", "ci", "--dim", "2", "--degrees", "3")
    assert json.loads(out) == [0, CHERN, [], ["fractions", "decimal"]]


# every name the package root exports, with the module that defines it
EXPORTS = {"__version__": nefkit, "CIType": chern, "euler_ci_formula": chern,
           "betti_ci": chern, "verdict_ci": diagonal, "delpezzo5_cones": cones}


def test_root_exports_exactly_the_readme_names() -> None:
    assert sorted(nefkit.__all__) == sorted(EXPORTS)


@pytest.mark.parametrize("name", EXPORTS)
def test_root_name_is_its_module_attribute(name) -> None:
    assert getattr(nefkit, name) is getattr(EXPORTS[name], name)
    assert name in dir(nefkit)


def test_unknown_root_attribute_raises() -> None:
    with pytest.raises(AttributeError, match="no_such_name"):
        nefkit.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from nefkit import no_such_name  # noqa: F401
