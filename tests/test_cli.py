"""End-to-end tests of the command-line interface.

Each subcommand is exercised through main(argv); exit codes follow the
contract 0 = success, 2 = invalid input, 3 = dataset error, 4 = scan
violation, and JSON reports must be byte-reproducible and re-parseable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nefkit import cli, diagonal
from nefkit.cli import main
from nefkit.diagonal import ScanViolation


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Happy paths


def test_euler_ci_text(capsys) -> None:
    code, out, err = run_cli(capsys, "euler", "ci", "--dim", "3", "--degrees", "2,2")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "0"


def test_euler_projective_space_without_degrees(capsys) -> None:
    code, out, _ = run_cli(capsys, "euler", "ci", "--dim", "7")
    assert code == 0
    assert out.splitlines()[0] == "8"


def test_euler_weighted_text(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "euler", "weighted", "--weights", "3,2,1,1,1,1", "--degree", "6"
    )
    assert code == 0
    assert out.splitlines()[0] == "213"


def test_chern_ci_text(capsys) -> None:
    code, out, _ = run_cli(capsys, "chern", "ci", "--dim", "2", "--degrees", "3")
    assert code == 0
    assert out.splitlines()[0] == "3 3 9"


def test_betti_ci_text(capsys) -> None:
    code, out, _ = run_cli(capsys, "betti", "ci", "--dim", "3", "--degrees", "2,2")
    assert code == 0
    lines = out.splitlines()
    assert "betti: 1 0 1 4 1 0 1" in lines
    assert "middle: 4" in lines
    assert "euler: 0" in lines
    assert "poincare: 1 0 1 -4 1 0 1" in lines


def test_verdict_ci_text_carries_witness(capsys) -> None:
    code, out, _ = run_cli(capsys, "verdict", "ci", "--dim", "4", "--degrees", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "NotNef: ProjectionBound"
    assert any(line.startswith("witness: ") and "chi=27" in line for line in lines)
    assert "# criterion: ProjectionBound" in lines


def test_verdict_delpezzo_text(capsys) -> None:
    code, out, _ = run_cli(capsys, "verdict", "delpezzo", "--dim", "4", "--degree", "5")
    assert code == 0
    assert out.splitlines()[0] == "NotNef: NegativeEffectivePair"


def test_verdict_curve_text(capsys) -> None:
    code, out, _ = run_cli(capsys, "verdict", "curve", "--genus", "0")
    assert code == 0
    assert out.splitlines()[0] == "Nef: Homogeneous"


def test_cone_dual_text_matches_known_generators(capsys) -> None:
    code, out, _ = run_cli(capsys, "cone", "dual", "--dataset", "gw2c5.json", "--codim", "2")
    assert code == 0
    lines = out.splitlines()
    assert "ray (1, 0): tau(2,0)" in lines
    assert "ray (1, 1): tau(2,0) + tau(3,-1)" in lines
    assert "full-dimensional: yes" in lines


def test_cone_dual_grassmannian_codim2_is_simplicial(capsys) -> None:
    # the pairing matrix between complementary middle-degree Schubert bases
    # is a permutation matrix, so nef and effective cones coincide
    code, out, _ = run_cli(capsys, "--format", "json", "cone", "dual",
                           "--dataset", "g2c5", "--codim", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["generators"] == [[0, 1], [1, 0]]
    assert payload["result"]["basis"] == ["sigma(2,0)", "sigma(1,1)"]


def test_cone_check_text(capsys) -> None:
    code, out, _ = run_cli(capsys, "cone", "check", "--dataset", "gw2c5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "NotNef: NegativeEffectivePair"
    assert 'witness: classes=["tau(3,-1)","tau(2,1)"] value=-1' in lines


def test_table_delpezzo_rows(capsys) -> None:
    code, out, _ = run_cli(capsys, "table", "delpezzo")
    assert code == 0
    degree_lines = [l for l in out.splitlines() if l.startswith("degree ")]
    assert len(degree_lines) == 7
    assert degree_lines[-1] == "degree 7 (n = 3): the blow-up of P^3 at a point"


def test_scan_ci_small_grid(capsys) -> None:
    code, out, _ = run_cli(capsys, "scan", "ci", "--max-dim", "6", "--max-degree", "4",
                           "--max-r", "2", "--quadrics-max-r", "3")
    assert code == 0
    lines = out.splitlines()
    assert "cases: 60" in lines
    assert any(l.startswith("law verdict_classified: 60 checks") for l in lines)
    assert "verdict Open: 2" in lines


# ---------------------------------------------------------------------------
# Canonicalization and determinism


def test_inputs_echo_canonical_form(capsys) -> None:
    code, out, _ = run_cli(capsys, "--format", "json", "euler", "ci",
                           "--dim", "3", "--degrees", "3,1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"] == {"degrees": [2, 3], "dim": 3}


def test_json_reports_are_byte_identical(capsys) -> None:
    argv = ("--format", "json", "verdict", "ci", "--dim", "5", "--degrees", "2,2")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    # sorted keys, fixed indent, trailing newline: re-serialization is stable
    assert json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n" == first


def test_json_report_round_trips(capsys) -> None:
    _, out, _ = run_cli(capsys, "--format", "json", "euler", "ci",
                        "--dim", "2", "--degrees", "3")
    assert json.loads(out) == {
        "command": "euler ci",
        "inputs": {"degrees": [3], "dim": 2},
        "result": 9,
        "notes": ["Euler characteristic of the complete intersection (3;2)"],
    }


def test_unknown_format_exits_2(capsys) -> None:
    with pytest.raises(SystemExit) as info:
        main(["--format", "xml", "euler", "ci", "--dim", "3"])
    assert info.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Exit codes


def test_usage_errors_exit_2(capsys) -> None:
    with pytest.raises(SystemExit) as info:
        main(["euler", "ci", "--degrees", "2"])  # missing --dim
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["euler", "ci", "--dim", "3", "--degrees", "2,x"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_invalid_input_exits_2(capsys) -> None:
    code, out, err = run_cli(capsys, "euler", "ci", "--dim", "-1")
    assert code == 2 and out == "" and "invalid input" in err
    code, _, err = run_cli(capsys, "verdict", "delpezzo", "--dim", "2", "--degree", "5")
    assert code == 2 and "invalid input" in err
    code, _, err = run_cli(capsys, "euler", "weighted",
                           "--weights", "2,1,1,1,1", "--degree", "3")
    assert code == 2 and "invalid input" in err
    code, _, err = run_cli(capsys, "betti", "ci", "--dim", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "cone", "dual", "--dataset", "gw2c5", "--codim", "9")
    assert code == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unprintable_result_exits_2(capsys, fmt) -> None:
    # chi has more than 4300 digits, past the interpreter's int-to-str limit
    code, out, err = run_cli(capsys, "--format", fmt, "euler", "ci",
                             "--dim", "2300", "--degrees", "99")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("invalid input:")


def test_unprintable_result_under_a_lowered_str_limit_exits_2() -> None:
    # the verdict's detail shortens chi(99; 1000), 1,994 digits; the witness
    # printed in full is past PYTHONINTMAXSTRDIGITS=1000
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-m", "nefkit", "verdict", "ci", "--dim", "1000", "--degrees", "99"],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
             "PYTHONINTMAXSTRDIGITS": "1000"},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("invalid input: the result has an integer of more than 1000"
                           " digits, too many to print\n")


def test_dataset_errors_exit_3(capsys, tmp_path) -> None:
    code, _, err = run_cli(capsys, "cone", "check", "--dataset", "no-such-dataset")
    assert code == 3 and "dataset error" in err

    corrupt = tmp_path / "broken.json"
    corrupt.write_text("{ not json", "utf-8")
    code, _, err = run_cli(capsys, "cone", "check", "--dataset", str(corrupt))
    assert code == 3 and "dataset error" in err

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({
        "variety": "toy",
        "dimension": 2,
        "classes": [
            {"label": "one", "partition": [0, 0], "codim": 0},
            {"label": "h", "partition": [1, 0], "codim": 1},
            {"label": "pt", "partition": [2, 0], "codim": 2},
        ],
        "pairings": [{"a": "one", "b": "pt", "value": 1}],
    }), "utf-8")
    code, _, err = run_cli(capsys, "cone", "check", "--dataset", str(incomplete))
    assert code == 3 and "dataset error" in err


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"variety": "toy", "dimension": ' + "7" * 5_000 + ', "classes": [], "pairings": []}',
], ids=["deep-nesting", "long-dimension"])
def test_unreadable_dataset_exits_3(capsys, tmp_path, text) -> None:
    path = tmp_path / "unreadable.json"
    path.write_text(text, "utf-8")
    code, out, err = run_cli(capsys, "cone", "check", "--dataset", str(path))
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("dataset error: dataset cannot be read: ")


def test_scan_violation_exits_4(capsys, monkeypatch) -> None:
    # the shipped laws hold on every finite grid, so a violation cannot be
    # provoked with real inputs; substitute a failing scan to pin the
    # exit-code contract
    def explode(**kwargs):
        raise ScanViolation("multidegree_sign", "(2,2;4)", "sign flipped")

    # the handler imports scan_ci from its module when it runs
    monkeypatch.setattr(diagonal, "scan_ci", explode)
    code, out, err = run_cli(capsys, "scan", "ci")
    assert code == 4 and out == "" and "scan violation" in err


# ---------------------------------------------------------------------------
# Dataset resolution


def test_nefkit_data_directory_override(capsys, tmp_path, monkeypatch) -> None:
    doc = {
        "variety": "override toy",
        "dimension": 2,
        "classes": [
            {"label": "one", "partition": [0, 0], "codim": 0},
            {"label": "h", "partition": [1, 0], "codim": 1},
            {"label": "pt", "partition": [2, 0], "codim": 2},
        ],
        "pairings": [
            {"a": "one", "b": "pt", "value": 1},
            {"a": "h", "b": "h", "value": 1},
        ],
    }
    (tmp_path / "toy.json").write_text(json.dumps(doc), "utf-8")
    monkeypatch.setenv("NEFKIT_DATA", str(tmp_path))
    code, out, _ = run_cli(capsys, "cone", "check", "--dataset", "toy")
    assert code == 0
    assert out.splitlines()[0] == "Nef: NonNegativePairings"
    assert "override toy" in out

    # builtin names still resolve when not shadowed by the override directory
    code, out, _ = run_cli(capsys, "cone", "check", "--dataset", "g2c5")
    assert code == 0
    assert out.splitlines()[0] == "Nef: NonNegativePairings"


@pytest.mark.parametrize("where", ["missing file", "directory", "relative missing file"])
def test_dataset_path_is_never_a_shipped_name(capsys, tmp_path, where) -> None:
    # a name with a directory part names a file; only a bare name may be shipped data
    name = {"missing file": str(tmp_path / "gw2c5.json"), "directory": str(tmp_path),
            "relative missing file": "./missing.json"}[where]
    code, out, err = run_cli(capsys, "cone", "check", "--dataset", name)
    assert (code, out) == (3, "")
    assert err == f"dataset error: no dataset file named {name!r}\n"


@pytest.mark.parametrize("argv", [
    ["--format", "json", "cone", "dual", "--dataset", "gw2c5", "--codim", "2"],
    ["verdict", "ci", "--help"],
], ids=["command", "help"])
def test_argv_none_parses_sys_argv(argv, capsys, monkeypatch) -> None:
    # main builds the kind parsers only of the groups named in its argv, or in
    # sys.argv when argv is None; the test runner's own sys.argv names none
    def run(args):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    expected = run(argv)
    assert expected[0] == 0 and expected[1]
    monkeypatch.setattr(sys, "argv", ["nefkit", *argv])
    assert run(None) == expected


def test_module_entry_point_runs() -> None:
    # The child imports nefkit from the source tree this process imported,
    # installed or not.
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-m", "nefkit", "euler", "ci", "--dim", "1"],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "2"
