"""Replay the golden CLI corpus byte for byte.

tests/golden/corpus.json holds recorded invocations of every subcommand in
both formats, the usage, invalid-input and dataset errors (exit 2 and 3),
the --help texts and record.EDGES, the edge of every limit. Each is replayed
in-process through cli.main under the conditions it was recorded with;
stdout, stderr and the exit status must match exactly. In-process, every
library module is already loaded, so each case with a non-zero exit status
is also replayed through `python -m nefkit` in a fresh interpreter, where
main maps exceptions with only the modules the subcommand loaded. Rewrite
the corpus with tests/golden/record.py only when a change to the output is
intended. Exit 4 is covered by test_scan_violation_exits_4.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from nefkit import cli, cones
from test_chern import check_definitions

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("golden_record",
                                               ROOT / "tests" / "golden" / "record.py")
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)
CORPUS = json.loads(record.CORPUS.read_text("utf-8"))
_EDGE_IDS = {record.case_id({"argv": argv, "env": env}) for argv, env, _ in record.EDGES}
EDGES = [case for case in CORPUS if record.case_id(case) in _EDGE_IDS]
# the library's _check_* functions that test a type, not a size
TYPE_CHECKS = {"_check_int", "_check_entries"}


@pytest.fixture(scope="module", autouse=True)
def generated() -> None:
    record.generate()


def replay(case: dict, capsys, monkeypatch) -> tuple[int, str | dict, str | dict]:
    """cli.main on the case's argv under the case's conditions: exit status,
    stdout and stderr as the corpus stores them. PYTHONINTMAXSTRDIGITS is
    read only at interpreter start, so its value is set for the call."""
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("NEFKIT_DATA", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    for key, value in case["env"].items():
        monkeypatch.setenv(key, value)
    digits = sys.get_int_max_str_digits()
    try:
        if "PYTHONINTMAXSTRDIGITS" in case["env"]:
            sys.set_int_max_str_digits(int(case["env"]["PYTHONINTMAXSTRDIGITS"]))
        code = cli.main(case["argv"])
    finally:
        sys.set_int_max_str_digits(digits)
    captured = capsys.readouterr()
    return code, record.pin(captured.out), record.pin(captured.err)


@pytest.mark.parametrize("case", CORPUS, ids=record.case_id)
def test_golden_invocation(case, capsys, monkeypatch) -> None:
    assert replay(case, capsys, monkeypatch) == (case["exit"], case["stdout"], case["stderr"])


@pytest.fixture(scope="module")
def fresh_errors() -> dict[str, dict]:
    """Each case with a non-zero exit status run again through record(), two
    fresh interpreters at a time, by case id."""
    errors = [case for case in CORPUS if case["exit"]]
    with ThreadPoolExecutor(2) as pool:
        runs = pool.map(lambda case: record.record(case["argv"], case["env"], case.get("max_s")),
                        errors)
        return {record.case_id(case): run for case, run in zip(errors, runs)}


@pytest.mark.parametrize("case", [case for case in CORPUS if case["exit"]], ids=record.case_id)
def test_golden_error_in_fresh_interpreter(case, fresh_errors) -> None:
    assert fresh_errors[record.case_id(case)] == case


def test_no_recorded_message_asks_to_raise_the_int_to_str_limit() -> None:
    # an unprintable integer ends in nefkit's own message, never in Python's
    assert [record.case_id(case) for case in CORPUS
            if "set_int_max_str_digits" in case["stderr"]] == []


def test_argparse_fallbacks_print_what_the_canonical_command_prints() -> None:
    by_id = {record.case_id(case): case for case in CORPUS}
    canonical = by_id["--format json euler ci --dim 7"]
    for name in ("--format json euler ci --dim=7", "--format json euler ci --di 7"):
        assert by_id[name]["stdout"] == canonical["stdout"] != ""


def test_every_limit_check_refuses_an_edge_case(capsys, monkeypatch) -> None:
    # each library _check_* that bounds a size raises on at least one EDGES
    # case replayed in-process, so a new limit needs its edge in the table
    checks = {name: modules for name, modules in check_definitions().items()
              if name not in TYPE_CHECKS}
    raised = set()

    def recording(name, check):
        def wrapper(*args):
            try:
                return check(*args)
            except ValueError:
                raised.add(name)
                raise
        return wrapper

    for name, modules in checks.items():
        check = getattr(importlib.import_module(f"nefkit.{modules[0]}"), name)
        for module in [m for m in sys.modules.values() if m.__name__.startswith("nefkit")]:
            if getattr(module, name, None) is check:
                monkeypatch.setattr(module, name, recording(name, check))
    for case in EDGES:
        if case["exit"] == 2:
            replay(case, capsys, monkeypatch)
    assert sorted(checks) == sorted(raised)


def test_a_case_past_its_max_s_differs(tmp_path, monkeypatch, capsys) -> None:
    spec = (["euler", "ci", "--dim", "7"], {}, 1e-6)
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([record.record(*spec)], indent=1) + "\n", "utf-8")
    monkeypatch.setattr(record, "CORPUS", corpus)
    monkeypatch.setattr(record, "cases", lambda: [spec])
    monkeypatch.setattr(record, "generate", lambda: None)
    assert record.main(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("differs: euler ci --dim 7 (took ") and "max_s 1e-06" in out[0]
    assert out[1].startswith("1 of 1 cases differ")


def test_two_cases_with_one_id_stop_the_check(monkeypatch, capsys) -> None:
    spec = (["euler", "ci", "--dim", "7"], {}, None)
    monkeypatch.setattr(record, "cases", lambda: [spec, spec])
    monkeypatch.setattr(record, "generate", lambda: pytest.fail("ran past the id check"))
    assert record.main(["--check"]) == 1
    assert capsys.readouterr().out == "repeated id: euler ci --dim 7\n"


def test_case_ids_shorten_long_tokens() -> None:
    weights = ",".join(["99999"] * 21000)
    name = record.case_id({"argv": ["euler", "weighted", "--weights", weights], "env": {}})
    assert name == "euler weighted --weights 99999,99999,...(125999 chars, 8d272441)"
    assert max(len(record.case_id(case)) for case in CORPUS) < 200


def test_generated_inputs_are_the_same_bytes_on_every_run(tmp_path) -> None:
    record.generate(tmp_path / "first")
    record.generate(tmp_path / "second")
    for name in record.GENERATORS:
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
    assert (tmp_path / "first" / "oversized.json").stat().st_size == cones._DATASET_MAX_BYTES + 1
