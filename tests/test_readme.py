"""The README's Python examples run as doctests against the package, its
command lines run through nefkit.cli.main, and its Layout block names every
library module."""

from __future__ import annotations

import doctest
import re
import shlex
from pathlib import Path

from nefkit import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_examples() -> None:
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def test_layout_names_exactly_the_library_modules() -> None:
    layout = README.read_text("utf-8").split("\n## Layout\n", 1)[1].split("```")[1]
    named = re.findall(r"^src/nefkit/(\S+\.py)\s", layout, re.MULTILINE)
    assert sorted(named) == sorted(path.name for path in (ROOT / "src" / "nefkit").glob("*.py"))


def test_readme_command_lines_run(capsys) -> None:
    # each `nefkit ...` line of the Command line block: its argv and its comment
    block = README.read_text("utf-8").split("\n## Command line\n", 1)[1].split("```")[1]
    lines = [line.partition("#") for line in block.splitlines() if line.startswith("nefkit ")]
    commands = [(shlex.split(command)[1:], comment.strip()) for command, _, comment in lines]
    assert len(commands) == 11
    assert sum(comment.startswith("defaults:") for _, comment in commands) == 1
    for argv, comment in commands:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if comment.startswith("->"):
            assert out.splitlines()[0] == comment[2:].strip(), argv
        elif comment.startswith("defaults:"):
            tokens = comment[len("defaults:"):].split()
            arguments = cli.COMMANDS[argv[0]][1][argv[1]][1]
            assert dict(zip(tokens[::2], tokens[1::2])) == {
                flag: str(options["default"]) for flag, options in arguments
            }
