"""The README's Python examples run as doctests against the package, and its
Layout block names every library module."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_examples() -> None:
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def test_layout_names_exactly_the_library_modules() -> None:
    layout = README.read_text("utf-8").split("\n## Layout\n", 1)[1].split("```")[1]
    named = re.findall(r"^src/nefkit/(\S+\.py)\s", layout, re.MULTILINE)
    assert sorted(named) == sorted(path.name for path in (ROOT / "src" / "nefkit").glob("*.py"))
