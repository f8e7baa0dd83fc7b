"""The README's Python examples run as doctests against the package."""

from __future__ import annotations

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples() -> None:
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
