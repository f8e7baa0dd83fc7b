"""Replay the golden CLI corpus byte for byte.

tests/golden/corpus.json holds recorded invocations of every subcommand in
both formats, the usage, invalid-input and dataset errors (exit 2 and 3) and
the --help texts. Each is replayed in-process through cli.main under the
conditions it was recorded with; stdout, stderr and the exit status must match
exactly. Rewrite the corpus with tests/golden/record.py only when a change to
the output is intended. Exit 4 is covered by test_scan_violation_exits_4.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from nefkit import cli

ROOT = Path(__file__).resolve().parents[1]
CORPUS = json.loads((ROOT / "tests" / "golden" / "corpus.json").read_text("utf-8"))


def _case_id(case: dict) -> str:
    env = " ".join(f"{k}={v}" for k, v in case["env"].items())
    return " ".join([env, *case["argv"]]).strip() or "(no arguments)"


@pytest.mark.parametrize("case", CORPUS, ids=_case_id)
def test_golden_invocation(case, capsys, monkeypatch) -> None:
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("NEFKIT_DATA", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    for key, value in case["env"].items():
        monkeypatch.setenv(key, value)
    try:
        code = cli.main(case["argv"])
    except SystemExit as exc:  # argparse: --help and usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]
    assert code == case["exit"]

