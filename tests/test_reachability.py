"""Every library definition is reached from what runs it, and every name the
benchmark loads exists.

The reachability pass reads src/nefkit with ast. It starts from what the
library does not call itself: cli.main and the handlers its COMMANDS table
names, __main__.run, the names nefkit._HOMES re-exports with the package's
__getattr__ and __dir__, the names tests/test_acceptance.py imports, and
every module-level statement. It follows every name and attribute that a
reached definition mentions. A reached class also reaches its dunder
methods, which Python calls by itself. A mention matches every definition of
that name, in any module or class, so the pass can only over-count what is
reached: a definition it reports unreached has no caller in the library.
"""

from __future__ import annotations

import ast
import importlib
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Mapping

import nefkit

SRC = Path(nefkit.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
BENCH_CHILD = ROOT / "bench" / "child.py"

# Definitions that no entry point reaches and that stay, each for a caller
# outside the library: bench/child.py loads them by name, the two symmetric
# functions for their per-layer metrics and contains for the cones workload's
# membership queries. The pass starts from them too, so what they call counts
# as reached.
ALLOWED = {
    "exactnum.complete_homogeneous",
    "exactnum.elementary_symmetric",
    "cones.RationalCone.contains",
}


def library_sources() -> dict[str, str]:
    """Module name (the file's stem) -> source text, for every library module."""
    return {path.stem: path.read_text("utf-8") for path in sorted(SRC.glob("*.py"))}


def entry_points(sources: Mapping[str, str]) -> set[str]:
    """The qualified names the pass starts from, besides module-level statements."""
    roots = {"cli.main", "__main__.run", "__init__.__getattr__", "__init__.__dir__"}
    for node in ast.parse(sources["__init__"]).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["_HOMES"]:
            roots |= {f"{home}.{name}" for name, home in ast.literal_eval(node.value).items()}
    for node in ast.walk(ast.parse(ACCEPTANCE.read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nefkit."):
            roots |= {f"{node.module.removeprefix('nefkit.')}.{alias.name}"
                      for alias in node.names}
    return roots


def mentions(nodes: Iterable[ast.AST]) -> set[str]:
    """Every name, attribute and imported name in the given trees."""
    found = set()
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found |= {alias.name for alias in node.names}
    return found


def unreached(sources: Mapping[str, str], roots: Iterable[str]) -> set[str]:
    """The qualified names, module.function, module.Class and
    module.Class.method, of the definitions in sources that the pass from
    roots and the module-level statements does not reach."""
    definitions: dict[str, ast.AST] = {}
    by_name: dict[str, list[str]] = defaultdict(list)
    todo = list(roots)
    for module, text in sources.items():
        for top in ast.parse(text).body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                todo.append(top)
                continue
            members = [top, *(item for item in getattr(top, "body", ())
                              if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))]
            for node in members:
                qualified = f"{module}.{top.name}" if node is top else (
                    f"{module}.{top.name}.{node.name}")
                definitions[qualified] = node
                by_name[node.name].append(qualified)
    reached: set[str] = set()
    while todo:
        item = todo.pop()
        if isinstance(item, ast.AST):  # a module-level statement
            todo += [q for name in mentions([item]) for q in by_name.get(name, ())]
            continue
        if item in reached or item not in definitions:
            continue
        reached.add(item)
        node = definitions[item]
        if isinstance(node, ast.ClassDef):
            parts = [*node.bases, *node.keywords, *node.decorator_list,
                     *(s for s in node.body if not isinstance(s, ast.FunctionDef))]
            todo += [f"{item}.{s.name}" for s in node.body if isinstance(s, ast.FunctionDef)
                     and s.name.startswith("__") and s.name.endswith("__")]
        else:
            parts = [node]
        todo += [q for name in mentions(parts) for q in by_name.get(name, ())]
    return set(definitions) - reached


def test_every_library_definition_is_reached() -> None:
    sources = library_sources()
    roots = entry_points(sources)
    assert unreached(sources, roots | ALLOWED) == set()
    # an allowed definition that gains a caller in the library leaves the list
    assert ALLOWED <= unreached(sources, roots)


def test_the_pass_reports_a_planted_unreached_definition() -> None:
    # a copy of chern with one function nothing calls, one that a module-level
    # statement names, and a class whose only method outside the dunders is idle
    sources = library_sources()
    sources["chern"] += (
        "\n\ndef _planted_idle():\n    return 1\n"
        "\n\ndef _planted_named():\n    return 2\n"
        "\n\nclass _Planted:\n    def __init__(self):\n        self.x = _planted_named()\n\n"
        "    def idle(self):\n        return 3\n"
        "\n\n_PLANTED = _Planted\n"
    )
    assert unreached(sources, entry_points(sources) | ALLOWED) == {
        "chern._planted_idle", "chern._Planted.idle"}


def benchmark_api() -> dict[str, tuple[str, ...]]:
    """bench/child.py's API table, module -> the names it loads, read with ast."""
    for node in ast.parse(BENCH_CHILD.read_text("utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["API"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/child.py defines no API table")


def test_every_name_the_benchmark_loads_exists() -> None:
    missing = []
    for module, names in benchmark_api().items():
        for name in names:
            value = importlib.import_module(f"nefkit.{module}")
            for part in name.split("."):
                value = getattr(value, part, None)
            if value is None:
                missing.append(f"{module}.{name}")
    assert missing == []


def test_every_allowed_definition_is_one_the_benchmark_loads() -> None:
    loaded = {f"{module}.{name}" for module, names in benchmark_api().items() for name in names}
    assert ALLOWED <= loaded
