"""Replay the golden CLI corpus byte for byte.

tests/golden/corpus.json holds recorded invocations of every subcommand in
both formats, the usage, invalid-input and dataset errors (exit 2 and 3) and
the --help texts. Each is replayed in-process through cli.main under the
conditions it was recorded with; stdout, stderr and the exit status must match
exactly. In-process, every library module is already loaded, so each case
with a non-zero exit status is also replayed through `python -m nefkit` in a
fresh interpreter, where main maps exceptions with only the modules the
subcommand loaded. Rewrite the corpus with tests/golden/record.py only when a
change to the output is intended. Exit 4 is covered by
test_scan_violation_exits_4.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from nefkit import cli

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("golden_record",
                                               ROOT / "tests" / "golden" / "record.py")
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)
CORPUS = json.loads(record.CORPUS.read_text("utf-8"))


@pytest.mark.parametrize("case", CORPUS, ids=record.case_id)
def test_golden_invocation(case, capsys, monkeypatch) -> None:
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("NEFKIT_DATA", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    for key, value in case["env"].items():
        monkeypatch.setenv(key, value)
    code = cli.main(case["argv"])
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]
    assert code == case["exit"]


@pytest.mark.parametrize("case", [case for case in CORPUS if case["exit"]], ids=record.case_id)
def test_golden_error_in_fresh_interpreter(case) -> None:
    assert record.record(case["argv"], case["env"]) == case
