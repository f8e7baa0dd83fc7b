"""What each entry point loads and how it exits: the lazy package root,
per-subcommand imports, and the collector freeze of the process entry point;
and that the tests' oracles load the standard library alone.

Every import-set and exit case runs in a fresh interpreter, since this process
has long since loaded every module.
"""

from __future__ import annotations

import ast
import gc
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest

import nefkit
from nefkit import chern, cli, cones, diagonal

SRC = Path(nefkit.__file__).resolve().parents[1]

# Runs cli.main on argv with its output discarded, then prints the exit
# status, the loaded nefkit submodules, and which of the costly standard
# library modules dataclasses and inspect, fractions and decimal, and
# argparse, gettext and locale are loaded, as one JSON line.
PROBE = """
import contextlib, io, json, sys
from nefkit import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("nefkit.")),
                  [m for m in ("dataclasses", "inspect") if m in sys.modules],
                  [m for m in ("fractions", "decimal") if m in sys.modules],
                  [m for m in ("argparse", "gettext", "locale") if m in sys.modules]]))
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


INVARIANTS = ["nefkit.chern", "nefkit.cli", "nefkit.exactnum"]
VERDICT = ["nefkit.chern", "nefkit.cli", "nefkit.diagonal", "nefkit.exactnum"]
CONES = ["nefkit.chern", "nefkit.cli", "nefkit.cones", "nefkit.diagonal", "nefkit.exactnum"]
CONE_DUAL = ["nefkit.cli", "nefkit.cones", "nefkit.exactnum"]
BAD_DATASET = str(Path(__file__).resolve().parent / "golden" / "bad_pairing.json")


# what argparse loads: gettext for its messages, and locale on its first lookup
ARGPARSE = ["argparse", "gettext", "locale"]


@pytest.mark.parametrize("argv, exit_status, loaded, parser", [
    (["euler", "ci", "--dim", "3", "--degrees", "2,2"], 0, INVARIANTS, []),
    (["euler", "weighted", "--weights", "3,2,1,1,1,1", "--degree", "6"], 0, INVARIANTS, []),
    (["betti", "ci", "--dim", "3", "--degrees", "2,2"], 0, INVARIANTS, []),
    (["verdict", "ci", "--dim", "4", "--degrees", "3"], 0, VERDICT, []),
    (["verdict", "delpezzo", "--dim", "4", "--degree", "5"], 0, VERDICT, []),
    (["verdict", "delpezzo", "--dim", "3", "--degree", "1"], 0, VERDICT, []),
    (["verdict", "delpezzo", "--dim", "3", "--degree", "3"], 0, VERDICT, []),
    (["verdict", "curve", "--genus", "2"], 0, VERDICT, []),
    (["--format", "json", "scan", "ci", "--max-dim", "4", "--max-degree", "3", "--max-r", "2",
      "--quadrics-max-r", "3"], 0, VERDICT, []),
    (["table", "delpezzo"], 0, VERDICT, []),
    (["cone", "check", "--dataset", "gw2c5"], 0, CONES, []),
    (["--format", "json", "cone", "check", "--dataset", "gw2c5"], 0, CONES, []),
    (["cone", "dual", "--dataset", "gw2c5", "--codim", "2"], 0, CONE_DUAL, []),
    (["cone", "dual", "--dataset", "no-such-dataset", "--codim", "2"], 3, CONE_DUAL, []),
    (["cone", "check", "--dataset", BAD_DATASET], 3, CONES, []),
    (["euler", "ci", "--dim", "x"], 2, ["nefkit.cli"], ARGPARSE),
    (["--help"], 0, ["nefkit.cli"], ARGPARSE),
], ids=["euler", "euler-weighted", "betti", "verdict", "verdict-delpezzo",
        "verdict-delpezzo-cover", "verdict-delpezzo-ci", "verdict-curve", "scan", "table", "cone",
        "cone-json", "cone-dual", "cone-dual-no-dataset", "bad-dataset", "usage-error", "help"])
def test_subcommand_loads_only_its_layer(argv, exit_status, loaded, parser) -> None:
    # a well-formed command is read from cli.COMMANDS; argparse loads only for
    # help and usage errors, and a handler imports only its kind's layers
    assert json.loads(fresh(PROBE, *argv)) == [exit_status, loaded, [], [], parser]


# Runs the package as __main__, as `python -m nefkit` does, with its output
# discarded, then prints its exit status and whether the collector's freeze
# count grew, as one JSON line. It need not start at 0: Python 3.12 freezes
# some objects of its own at start-up.
MAIN_PROBE = """
import contextlib, gc, io, json, runpy
before = gc.get_freeze_count()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("nefkit", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, gc.get_freeze_count() > before]))
"""

EXITS = pytest.mark.parametrize("argv, exit_status", [
    (["euler", "ci", "--dim", "7"], 0),
    (["euler", "ci", "--dim", "x"], 2),
    (["cone", "check", "--dataset", "no-such-dataset"], 3),
], ids=["success", "usage-error", "dataset-error"])


@EXITS
def test_package_main_freezes_the_collector_on_exit(argv, exit_status) -> None:
    assert json.loads(fresh(MAIN_PROBE, *argv)) == [exit_status, True]


@EXITS
def test_in_process_main_leaves_the_collector_alone(argv, exit_status, capsys) -> None:
    before = gc.get_freeze_count()
    code = cli.main(argv)
    assert (code, gc.get_freeze_count()) == (exit_status, before)


def test_console_script_runs_the_package_entry() -> None:
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'nefkit = "nefkit.__main__:run"' in pyproject.read_text("utf-8").splitlines()


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def imports(tree: ast.Module) -> Iterator[tuple[str | None, str]]:
    """(function, module) for each nefkit module, named as under nefkit (chern
    for nefkit.chern), that the tree imports: by an import statement,
    relative or absolute, or by importlib.import_module, whose module is then
    named "importlib". The function is the innermost one that runs the
    import, or None for an import that runs when the module loads; an import
    in an `if TYPE_CHECKING:` block never runs and is skipped."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nefkit")):
            package = (node.module or "").removeprefix("nefkit").lstrip(".")
            modules = [package] if package else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name.removeprefix("nefkit.") for alias in node.names
                       if alias.name.startswith("nefkit.")]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "import_module":
            modules = ["importlib"]
        else:
            continue
        scope = node
        while scope in parents and not isinstance(scope, FUNCTIONS):
            if isinstance(scope, ast.If) and getattr(scope.test, "id", None) == "TYPE_CHECKING":
                break
            scope = parents[scope]
        if isinstance(scope, FUNCTIONS):
            yield from ((scope.name, module) for module in modules)
        elif scope is tree:
            yield from ((None, module) for module in modules)


def test_only_cli_imports_layers_inside_functions() -> None:
    # The PEP 562 root is the one lazy import outside cli's handlers; ROADMAP
    # direction 16 keeps a new one only if it saves more, with a bytecode
    # cache, than the interquartile range of its parent.
    found = [(path.stem, function, module)
             for path in sorted(SRC.joinpath("nefkit").glob("*.py")) if path.stem != "cli"
             for function, module in imports(ast.parse(path.read_text("utf-8"))) if function]
    assert found == [("__init__", "__getattr__", "importlib")]


def test_module_level_imports_form_the_layer_graph() -> None:
    # exactnum <- chern <- diagonal and exactnum <- cones; cli loads its layers
    # only inside its handlers, and __main__ stands on cli
    graph = {path.stem: sorted({module for function, module
                                in imports(ast.parse(path.read_text("utf-8"))) if not function})
             for path in sorted(SRC.joinpath("nefkit").glob("*.py"))}
    assert graph == {"exactnum": [], "chern": ["exactnum"],
                     "diagonal": ["chern", "exactnum"], "cones": ["exactnum"], "cli": [],
                     "__main__": ["cli"], "__init__": []}


def test_module_import_walk_sees_every_form() -> None:
    tree = ast.parse("from .chern import CIType\nfrom . import cones\nimport nefkit.cli, json\n"
                     "from nefkit.diagonal import x\nfrom nefkit import exactnum\n"
                     "from json import dumps\n"
                     "if TYPE_CHECKING:\n    from .diagonal import Verdict\n"
                     "def f():\n    from . import diagonal\n"
                     "class C:\n    def g(self):\n        from . import diagonal\n"
                     "try:\n    from . import __main__\nexcept ImportError:\n    pass\n")
    found = sorted(imports(tree), key=lambda pair: (pair[0] or "", pair[1]))
    assert found == [(None, "__main__"), (None, "chern"), (None, "cli"), (None, "cones"),
                     (None, "diagonal"), (None, "exactnum"), ("f", "diagonal"), ("g", "diagonal")]


def test_lazy_import_walk_sees_every_form() -> None:
    tree = ast.parse("from .chern import CIType\n"
                     "def f():\n    from . import cones, cli\n    import nefkit.cli, json\n"
                     "    from json import dumps\n"
                     "class C:\n    def g(self):\n"
                     "        importlib.import_module('.x', 'nefkit')\n")
    assert list(imports(tree)) == [(None, "chern"), ("f", "cones"), ("f", "cli"), ("f", "cli"),
                                   ("g", "importlib")]


def test_only_the_series_route_loads_fractions() -> None:
    # chern ci expands a series of Fractions, the one subcommand that builds
    # one; no case of test_subcommand_loads_only_its_layer loads fractions
    out = fresh(PROBE, "chern", "ci", "--dim", "2", "--degrees", "3")
    assert json.loads(out) == [0, INVARIANTS, [], ["fractions", "decimal"], []]


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


def test_oracles_import_only_the_standard_library() -> None:
    # a reference that loaded nefkit could share the fault it is meant to catch
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text("utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert [module for module in modules
            if module.split(".")[0] not in sys.stdlib_module_names] == []
