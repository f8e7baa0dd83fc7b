"""End-to-end tests of the command-line interface.

Each subcommand is exercised through main(argv); exit codes follow the
contract 0 = success, 1 = output could not be written, 2 = invalid
input, 3 = dataset error, 4 = scan violation, and JSON reports must be
byte-reproducible and re-parseable.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator, Mapping

import pytest

from nefkit import __main__ as entry
from nefkit import chern, cli, cones, diagonal, exactnum
from nefkit.chern import CIType, WeightedHypersurface
from nefkit.cli import main
from nefkit.diagonal import ScanViolation
from test_golden import EDGES, record, replay


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_to(unbuffered: bool, *argv: str, stdout: int = subprocess.PIPE,
           stderr: int = subprocess.PIPE, env: Mapping[str, str] | None = None,
           preexec: Callable[[], object] | None = None) -> subprocess.CompletedProcess:
    """python -m nefkit on argv in a fresh interpreter, from the source tree
    this process imported, installed or not. Its streams are the given
    descriptors; its environment is this process's, with PYTHONUNBUFFERED
    set only if unbuffered, and the extra variables env, if given; preexec,
    if given, is called in the child before it starts."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    child = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    child["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    if unbuffered:
        child["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "nefkit", *argv], stdout=stdout,
                          stderr=stderr, text=True, check=False, env={**child, **(env or {})},
                          preexec_fn=preexec)


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


@pytest.mark.parametrize(("degrees", "by_table"), [(("--degrees", ""), True),
                                                   (("--degrees=",), False)])
def test_euler_empty_degrees_is_projective_space(capsys, degrees, by_table) -> None:
    argv = ["euler", "ci", "--dim", "3", *degrees]
    # the table parser reads a separate empty value; the = form falls to argparse
    assert (cli.parse_well_formed(argv) is not None) is by_table
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "4"


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


def test_betti_ci_computes_chi_once(capsys, monkeypatch) -> None:
    # the Betti table and its signed Poincare polynomial share one chi
    original, calls = chern.euler_ci_formula, []

    def counted(ci):
        calls.append(ci)
        return original(ci)

    monkeypatch.setattr(chern, "euler_ci_formula", counted)
    code, out, _ = run_cli(capsys, "betti", "ci", "--dim", "5", "--degrees", "5,7")
    assert code == 0 and "poincare: 1 0 1 0 1 " in out
    assert len(calls) == 1


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


@pytest.mark.parametrize("case", [case for case in EDGES if case["exit"] == 2],
                         ids=record.case_id)
def test_inputs_past_a_limit_exit_2_before_any_work(capsys, monkeypatch, case) -> None:
    # each refusal of record.EDGES, with the work stubbed out, prints what
    # the corpus holds within 1 s
    def work(*args):
        raise AssertionError("a limit must be checked before any work")

    monkeypatch.setattr(chern, "chern_degrees_ci", work)
    monkeypatch.setattr(chern, "euler_weighted", work)
    monkeypatch.setattr(chern, "euler_ci_formula", work)
    monkeypatch.setattr(diagonal, "euler_ci_formula", work)
    monkeypatch.setattr(cones, "nef_cone_of_codim", work)
    start = time.perf_counter()
    result = replay(case, capsys, monkeypatch)
    assert time.perf_counter() - start < 1.0
    assert result == (2, "", case["stderr"])
    # a limit refuses in one "invalid input:" line; argparse's own errors print usage
    assert case["stderr"].startswith("usage: ") or (
        case["stderr"].startswith("invalid input: ") and len(case["stderr"].splitlines()) == 1)


def test_chern_limits_bound_the_series_steps_and_the_bits_of_a_result() -> None:
    # the slowest accepted inputs named beside the limits, and one step past
    # each: n (n + 1) / 2 + r n is 200,660 for one degree at n = 632, and (n +
    # r)(b + 2) is 13,981 for two 29-bit degrees at n = 449 and 13,932 for 20
    # degrees of 84 bits at n = 142
    for ci in (CIType((2**20 - 1,), 632), CIType((2**29 - 1,) * 2, 449),
               CIType((2**84 - 1,) * 20, 142), CIType((), 632), CIType((2, 2), 631)):
        chern._check_chern_size(ci)
    for ci, limit in ((CIType((2**21 - 1,), 632), "at most 14000"),
                      (CIType((2**29 - 1,) * 2, 450), "at most 14000"),
                      (CIType((2**30 - 1,) * 2, 447), "at most 14000"),
                      (CIType((2**84 - 1,) * 20, 143), "at most 14000"),
                      (CIType((2**85 - 1,) * 20, 141), "at most 14000"),
                      (CIType((2, 2), 632), "at most 200660"),
                      (CIType((2,), 633), "at most 200660"),
                      (CIType((), 633), "at most 200660")):
        with pytest.raises(ValueError, match=limit):
            chern._check_chern_size(ci)
    # every Chern degree of (d_1..d_r; n), n + r >= 1, is below 2^((n + r)(b
    # + 2)), b the bits of the largest degree, the bound the bit limit checks
    for degrees in ((), (2,), (3,), (2, 2, 2), (5, 7), (2, 3, 4, 5), (255, 2), (2**40 + 1,)):
        for n in (1, 2, 7, 30):
            ci = CIType(degrees, n)
            bits = (n + ci.codimension) * (max(ci.degrees, default=1).bit_length() + 2)
            assert chern._bit_bound(ci) == bits
            assert max(abs(c).bit_length() for c in chern.chern_degrees_ci(ci)) <= bits, ci


@pytest.mark.parametrize(("setting", "max_bits"), [(640, 2126), (4300, 14000), (0, 14000)])
def test_chern_bit_limit_follows_the_int_to_str_limit(capsys, setting, max_bits) -> None:
    # floor(640 log2 10) = 2,126 bits print in 640 digits; the default 4,300
    # digits and no limit at all leave the 14,000-bit cap
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(setting)
        # (447 + 2)(30 + 2) = 14,368 bits is past every cap
        with pytest.raises(ValueError, match=f"must be at most {max_bits}, the most bits"):
            chern._check_chern_size(CIType((2**30 - 1,) * 2, 447))
        # (28 + 1)(71 + 2) = 2,117 bits is accepted and prints at every setting
        code, out, err = run_cli(capsys, "--format", "json", "chern", "ci", "--dim", "28",
                                 "--degrees", str(2**71 - 1))
        assert code == 0 and err == ""
        assert max(abs(c).bit_length() for c in json.loads(out)["result"]) <= 2117
    finally:
        sys.set_int_max_str_digits(limit)


def test_chern_ci_past_a_lowered_str_limit_exits_2_before_any_work(capsys,
                                                                   monkeypatch) -> None:
    # (200 + 1)(29 + 2) = 6,231 bits, accepted by default, needs more than 640
    # digits; (28 + 1)(72 + 2) = 2,146 bits just does not fit in them
    def work(*args):
        raise AssertionError("a limit must be checked before any work")

    monkeypatch.setattr(chern, "chern_degrees_ci", work)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        for dim, degree in (("200", "536870911"), ("28", str(2**72 - 1))):
            code, out, err = run_cli(capsys, "chern", "ci", "--dim", dim, "--degrees", degree)
            assert code == 2 and out == ""
            assert err == ("invalid input: --dim plus the number of degrees other than 1, times"
                           " 2 plus the bits of the largest degree, must be at most 2126, the"
                           " most bits a Chern degree may need\n")
    finally:
        sys.set_int_max_str_digits(limit)


def test_weighted_limit_bounds_every_integer_euler_weighted_computes(monkeypatch) -> None:
    rng = random.Random(4300)
    cases = [((1,) * 131, 2**106 - 1), ((3, 2, 1, 1, 1, 1), 6), ((2, 1, 1, 1, 1), 3)]
    for _ in range(200):
        weights = tuple(rng.randint(1, 2 ** rng.randint(1, 40)) for _ in range(rng.randint(5, 12)))
        cases.append((weights, rng.choice([*weights, rng.randint(1, 2 ** rng.randint(1, 50))])))
    for weights, d in cases:
        # S, the bits of max(a, |a - d|) summed over the weights plus those of d
        # and of the weight count: the check accepts at a cap of S bits, not S - 1
        bits = (sum(max(a, abs(a - d)).bit_length() for a in weights) + d.bit_length()
                + len(weights).bit_length())
        wh = WeightedHypersurface(weights, d)
        monkeypatch.setattr(chern, "_printable_bits", lambda: bits)
        chern._check_weighted_size(wh)
        monkeypatch.setattr(chern, "_printable_bits", lambda: bits - 1)
        with pytest.raises(ValueError, match=f"at most {bits - 1},"):
            chern._check_weighted_size(wh)
        # every integer euler_weighted computes or prints is below 2^S
        product = math.prod(weights)
        shifted = math.prod(a - d for a in weights)
        e_m = sum(product // a for a in weights)
        numerator = shifted + d * e_m - product
        chi = Fraction(numerator // d, product)
        integers = (product, shifted, d * e_m, numerator, chi.numerator, chi.denominator)
        assert max(abs(value).bit_length() for value in integers) <= bits, (weights, d)


@pytest.mark.parametrize(("setting", "max_bits"), [(640, 2126), (4300, 14000)])
def test_weighted_limit_follows_the_int_to_str_limit(capsys, setting, max_bits) -> None:
    # at each setting, unit weights at a degree of S = max_bits answer and
    # print, and at the next power of 2, S = max_bits + 1, exit 2 with the limit
    count, bits = {640: (20, 101), 4300: (131, 106)}[setting]
    weights = ",".join(["1"] * count)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(setting)
        code, out, err = run_cli(capsys, "euler", "weighted", "--weights", weights,
                                 "--degree", str(2**bits - 1))
        assert code == 0 and err == "" and len(out.splitlines()[0]) <= setting + 1
        code, out, err = run_cli(capsys, "euler", "weighted", "--weights", weights,
                                 "--degree", str(2**bits))
        assert code == 2 and out == ""
        assert err.startswith("invalid input: ") and f"at most {max_bits}, the most bits" in err
    finally:
        sys.set_int_max_str_digits(limit)


def test_formula_limit_bounds_the_steps_and_the_bits_of_every_integer() -> None:
    # the largest accepted dimensions named beside the limit, and one past
    # each, with the int-to-str limit off, so the printable bound reads
    # 1,000,000 digits and only the work cap decides
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        for degrees, n in (((2,), 8286), ((3,), 8286), ((7,), 7254), ((5, 7), 6171),
                           ((10**4000,), 63)):
            chern._check_formula_size(CIType(degrees, n))
            with pytest.raises(ValueError, match="at most 100000000000"):
                chern._check_formula_size(CIType(degrees, n + 1))
    finally:
        sys.set_int_max_str_digits(limit)
    # every product C(n + r + 1, i) h_(n-i) that the formula route sums, and
    # chi, is below 2^((n + r)(b + 2)), b the bits of the largest degree
    for degrees in ((), (2,), (3,), (2, 2, 2), (5, 7), (2, 3, 4, 5), (255, 2), (2**40 + 1,)):
        for n in (1, 2, 7, 30):
            ci = CIType(degrees, n)
            r = ci.codimension
            bits = (n + r) * (max(ci.degrees, default=1).bit_length() + 2)
            h = exactnum.complete_homogeneous_prefix(n, ci.degrees)
            terms = [math.comb(n + r + 1, i) * h[n - i] for i in range(n + 1)]
            assert max(t.bit_length() for t in terms) <= bits, ci
            assert abs(chern.euler_ci_formula(ci)).bit_length() <= bits, ci


# The largest dimension each formula-route command accepts, for degrees 7 and
# for the cubic of verdict delpezzo --degree 3, at int-to-str settings 640,
# 4,300 and 0: the printable bound decides, except where the work cap of
# 10^11 comes first (n = 7,254 and 8,286), as with the limit off, which the
# bound reads as 1,000,000 digits.
_FORMULA_EDGES = {640: (813, 2102), 4300: (5515, 8286), 0: (7254, 8286)}


@pytest.mark.parametrize("setting", sorted(_FORMULA_EDGES))
def test_formula_commands_print_at_their_edge_and_refuse_past_it_before_any_work(
        capsys, monkeypatch, setting) -> None:
    def work(*args):
        raise AssertionError("a limit must be checked before any work")

    septic, cubic = _FORMULA_EDGES[setting]
    commands = [(["euler", "ci", "--degrees", "7"], septic),
                (["betti", "ci", "--degrees", "7"], septic),
                (["verdict", "ci", "--degrees", "7"], septic),
                (["verdict", "delpezzo", "--degree", "3"], cubic)]
    digits = setting or 1_000_000
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(setting)
        for argv, n in commands:
            code, out, err = run_cli(capsys, "--format", "json", *argv, "--dim", str(n))
            assert code == 0 and err == "", argv
            assert max(map(len, re.findall(r"\d+", out))) <= digits, argv
        with monkeypatch.context() as patch:
            patch.setattr(chern, "euler_ci_formula", work)
            patch.setattr(diagonal, "euler_ci_formula", work)
            for argv, n in commands:
                code, out, err = run_cli(capsys, *argv, "--dim", str(n + 1))
                assert code == 2 and out == "", argv
                bound = ("at most 100000000000" if n in (7254, 8286) else
                         f"(D - 1)^n below 2^{exactnum._printable_bits(None)}, the most bits")
                assert err.startswith("invalid input: ") and bound in err, argv
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("setting", [640, 4300, 0])
def test_verdict_curve_prints_at_its_edge_and_refuses_past_it_before_any_work(
        capsys, monkeypatch, setting) -> None:
    # the largest genus is 2^(L - 1), L the bits that print, where |2 - 2 g|
    # = 2^L - 2; at 1,000,000 digits a print takes over 10 s on Python 3.11,
    # so with the limit off the witness is compared with 10^1,000,000 instead
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(setting)
        bits = exactnum._printable_bits(None)
        genus = 2 ** (bits - 1)
        if setting:
            code, out, err = run_cli(capsys, "--format", "json", "verdict", "curve",
                                     "--genus", str(genus))
            assert code == 0 and err == ""
            assert json.loads(out)["result"]["witness"] == {"chi": 2 - 2 * genus, "genus": genus}
        else:
            diagonal._check_curve_size(genus)
            assert abs(diagonal.verdict_curve(genus).witness["chi"]) < 2**bits <= 10**1_000_000
        monkeypatch.setattr(diagonal, "verdict_curve", lambda genus: 1 / 0)
        with pytest.raises(ValueError, match=rf"below 2\^{bits}, the most bits"):
            cli.handle_verdict_curve(SimpleNamespace(genus=genus + 1))
        if setting:
            code, out, err = run_cli(capsys, "verdict", "curve", "--genus", str(genus + 1))
            assert (code, out) == (2, "")
            assert err == (f"invalid input: --genus g must have |2 - 2 g| below 2^{bits}, the"
                           " most bits that print under the int-to-str limit in force\n")
    finally:
        sys.set_int_max_str_digits(limit)


def test_cone_check_does_work_in_proportion_to_its_dataset(capsys, tmp_path) -> None:
    # 3,000 classes of codimension 1 and 3,000 of codimension 2 make 9,000,000
    # complementary pairs; the first has no pairing, and the check stops there
    classes = [{"label": f"a{i}", "codim": 1} for i in range(3000)]
    classes += [{"label": f"b{i}", "codim": 2} for i in range(3000)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"variety": "X", "dimension": 3, "classes": classes,
                                "pairings": [{"a": "a1", "b": "b1", "value": 1}]}), "utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "cone", "check", "--dataset", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (3, "", "dataset error: no pairing recorded for (a0, b0)\n")


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
    assert main(["--format", "xml", "euler", "ci", "--dim", "3"]) == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Exit codes


def test_usage_errors_exit_2(capsys) -> None:
    assert main(["euler", "ci", "--degrees", "2"]) == 2  # missing --dim
    assert main(["euler", "ci", "--dim", "3", "--degrees", "2,x"]) == 2
    assert main([]) == 2


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
    # chi(99; 1000) has 1,994 digits, past PYTHONINTMAXSTRDIGITS=1000: the
    # printable bound refuses the witness before any work
    proc = run_to(False, "verdict", "ci", "--dim", "1000", "--degrees", "99",
                  env={"PYTHONINTMAXSTRDIGITS": "1000"})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("invalid input: dimension n and r degrees other than 1, the largest"
                           " D, must have M = prod d (n + 1)^2 C(n + r - 1, r - 1) (D - 1)^n"
                           " below 2^3321, the most bits that print under the int-to-str limit"
                           " in force\n")


def test_result_past_the_memory_limit_exits_2(tmp_path) -> None:
    # every computation of the command line and the size of a dataset file
    # have a limit, so memory runs out only under a lower one: 1,333,301 empty
    # class objects, just under the 4,000,000-byte cap, parse to about 100 MB
    # of dicts, past a 64 MiB address space that start-up fits well within
    resource = pytest.importorskip("resource")
    path = tmp_path / "empty_classes.json"
    path.write_text('{"variety": "X", "dimension": 1, "pairings": [], "classes": ['
                    + "{}," * 1_333_300 + "{}]}", "utf-8")
    assert path.stat().st_size <= cones._DATASET_MAX_BYTES
    limit = 1 << 26
    proc = run_to(False, "cone", "check", "--dataset", str(path),
                  preexec=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "invalid input: too large to compute in the memory available\n"


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

    oversized = tmp_path / "oversized.json"
    oversized.write_bytes(b" " * (cones._DATASET_MAX_BYTES + 1))
    code, out, err = run_cli(capsys, "cone", "check", "--dataset", str(oversized))
    assert code == 3 and out == ""
    assert err == (f"dataset error: dataset file has more than {cones._DATASET_MAX_BYTES}"
                   " bytes, the most a dataset may have\n")


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


UNBUFFERED = pytest.mark.parametrize("unbuffered", [True, False],
                                     ids=["unbuffered", "buffered"])
FULL_DISK = pytest.mark.skipif(not os.path.exists("/dev/full"),
                               reason="no /dev/full on this platform")


@contextlib.contextmanager
def unwritable(sink: str) -> Iterator[int]:
    """A descriptor that fails every write: the write end of a pipe whose
    reader is gone, as in `nefkit ... | true`, or /dev/full, a full disk."""
    if sink == "full disk":
        with open("/dev/full", "wb") as full:
            yield full.fileno()
        return
    read, write = os.pipe()
    os.close(read)
    try:
        yield write
    finally:
        os.close(write)


@UNBUFFERED
def test_closed_pipe_exits_1_without_traceback(unbuffered) -> None:
    # the reader is gone before the report is written
    with unwritable("closed pipe") as fd:
        proc = run_to(unbuffered, "table", "delpezzo", stdout=fd)
    assert proc.returncode == 1
    assert proc.stderr == "output error: [Errno 32] Broken pipe\n"


@FULL_DISK
@UNBUFFERED
def test_full_disk_exits_1_without_traceback(unbuffered) -> None:
    with unwritable("full disk") as fd:
        proc = run_to(unbuffered, "euler", "ci", "--dim", "7", stdout=fd)
    assert proc.returncode == 1
    assert proc.stderr == "output error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("argv, stream, sink, on_the_other_stream", [
    (["--help"], "stdout", "closed pipe", "output error: [Errno 32] Broken pipe\n"),
    pytest.param(["euler", "ci"], "stderr", "full disk", "", marks=FULL_DISK),
    pytest.param(["euler", "ci", "--dim", "-1"], "stderr", "full disk", "", marks=FULL_DISK),
], ids=["help-to-closed-pipe", "usage-error-to-full-disk", "invalid-input-to-full-disk"])
@UNBUFFERED
def test_unwritable_help_or_message_ends_in_a_status(argv, stream, sink, on_the_other_stream,
                                                      unbuffered) -> None:
    # argparse's help and usage errors land in run's buffers like main's own
    # messages, and run's write of them fails: status 1, buffered or not
    with unwritable(sink) as fd:
        proc = run_to(unbuffered, *argv, **{stream: fd})
    assert proc.returncode == 1
    # the other stream gets at most the output error line, never a traceback
    other = proc.stderr if stream == "stdout" else proc.stdout
    assert other == on_the_other_stream


BAD_FD = "output error: [Errno 9] Bad file descriptor\n"


@pytest.mark.parametrize("argv, closed, exit_status, on_the_open_stream", [
    (["euler", "ci", "--dim", "7"], 1, 1, BAD_FD),
    (["--help"], 1, 1, BAD_FD),
    (["euler", "ci", "--dim", "-1"], 2, 1, ""),
    (["euler", "ci", "--dim", "7"], 2, 0,
     "8\n# Euler characteristic of the complete intersection (;7)\n"),
], ids=["report-to-closed-stdout", "help-to-closed-stdout", "message-to-closed-stderr",
        "nothing-to-closed-stderr"])
@UNBUFFERED
def test_closed_stream_ends_in_a_status(argv, closed, exit_status, on_the_open_stream,
                                        unbuffered) -> None:
    # a descriptor closed before start-up leaves its stream None: text for it
    # is output that cannot be written, and never lands on the other stream
    proc = run_to(unbuffered, *argv, preexec=lambda: os.close(closed))
    assert proc.returncode == exit_status
    assert (proc.stderr if closed == 1 else proc.stdout) == on_the_open_stream


@pytest.mark.parametrize("variety, encoding", [
    ("Grassmannian G(2,C^5) \u2014 renamed", "ascii"),
    ("\udc80", "utf-8"),
], ids=["non-ascii-to-ascii", "surrogate-to-strict-utf-8"])
@UNBUFFERED
def test_unencodable_report_ends_in_status_1(variety, encoding, unbuffered, tmp_path) -> None:
    # the text report names the variety, which stdout's encoding cannot hold:
    # output that cannot be written, so nothing reaches stdout
    doc = json.loads((Path(cli.__file__).parent / "data" / "g2c5.json").read_text("utf-8"))
    dataset = tmp_path / "renamed.json"
    dataset.write_text(json.dumps({**doc, "variety": variety}), "ascii")
    proc = run_to(unbuffered, "cone", "check", "--dataset", str(dataset),
                  env={"PYTHONIOENCODING": encoding})
    assert (proc.returncode, proc.stdout) == (1, "")
    assert re.fullmatch(rf"output error: '{encoding}' codec can't encode character "
                        r"'\\u[0-9a-f]{4}' in position \d+: [^\n]*\n", proc.stderr)
    # the JSON report escapes every character past ASCII
    proc = run_to(unbuffered, "--format", "json", "cone", "check", "--dataset", str(dataset),
                  env={"PYTHONIOENCODING": encoding})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["result"]["variety"] == variety


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
    # with argv None, both the table parser and the argparse tree that prints
    # help read sys.argv[1:]
    def run(args):
        return main(args), *capsys.readouterr()

    expected = run(argv)
    assert expected[0] == 0 and expected[1]
    monkeypatch.setattr(sys, "argv", ["nefkit", *argv])
    assert run(None) == expected


def test_module_entry_point_runs() -> None:
    proc = run_to(False, "euler", "ci", "--dim", "1")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "2"


def test_a_bug_escapes_run_with_the_real_streams_back(monkeypatch) -> None:
    # run restores stdout and stderr before the exception leaves it, so the
    # interpreter prints the traceback on the real stderr
    def bug() -> int:
        print("partial report")
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "main", bug)
    streams = sys.stdout, sys.stderr
    try:
        with pytest.raises(RuntimeError, match="bug"):
            entry.run()
    finally:
        gc.unfreeze()
    assert (sys.stdout, sys.stderr) == streams
