"""Property tests: the scan against the verdict chain, the shared-row walk
against the per-type row, the three Euler routes against each other, the
series route's one division against one integer division per factor, the
first Chern degree and the Betti table's Euler characteristic against the
degree and chi, the formula route's printable bound against every number it
prints, the command line's exit-status and determinism contract
on drawn argv and on shipped datasets with one node replaced by a drawn JSON
value, the table parser against argparse on drawn commands and near misses,
and the shipped datasets' verdicts and nef cones with any of their
partitions made null.

Examples are derandomized and no example database is written, so every run
draws the same inputs; the example counts keep the file to a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nefkit import chern, cli
from nefkit.chern import (
    CIType,
    betti_ci,
    chern_degrees_ci,
    euler_ci_formula,
    euler_ci_recursive,
    euler_ci_rows,
    euler_ci_series,
)
from nefkit.cones import load_dataset, nef_cone_of_codim
from nefkit.diagonal import scan_ci, spherical_nef_diagonal_check, verdict_ci
from nefkit.exactnum import complete_homogeneous_prefix


def bounded(examples: int) -> settings:
    """The same examples on every run, at most the given number of them."""
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None)


@bounded(150)
@given(max_dimension=st.integers(1, 8), max_degree=st.integers(1, 5),
       max_codimension=st.integers(1, 4), quadrics_max_codimension=st.integers(1, 5))
def test_scan_counts_the_verdicts_of_its_grid(max_dimension, max_degree, max_codimension,
                                              quadrics_max_codimension):
    report = scan_ci(max_dimension, max_degree, max_codimension, quadrics_max_codimension)
    grid = [
        CIType(degrees, n)
        for r in range(max_codimension + 1)
        for degrees in combinations_with_replacement(range(2, max_degree + 1), r)
        for n in range(1, max_dimension + 1)
    ]
    assert report.cases == len(grid)
    assert Counter(report.verdict_counts) == Counter(verdict_ci(ci).status.value for ci in grid)


@bounded(100)
@given(max_degree=st.integers(1, 7), max_codimension=st.integers(0, 5),
       max_dimension=st.integers(0, 25))
def test_walk_rows_equal_the_row_of_their_type(max_degree, max_codimension, max_dimension):
    seen = []
    for degrees, row, degree_product in euler_ci_rows(max_degree, max_codimension,
                                                      max_dimension):
        ci = CIType(degrees, max_dimension)
        assert row == [euler_ci_recursive(CIType(degrees, m))
                       for m in range(max_dimension + 1)], degrees
        assert degree_product == ci.degree_product
        seen.append(degrees)
    expected = [degrees for r in range(max_codimension + 1)
                for degrees in combinations_with_replacement(range(2, max_degree + 1), r)]
    assert sorted(seen) == sorted(expected)


@bounded(300)
@given(degrees=st.lists(st.integers(1, 9), max_size=5), n=st.integers(0, 12))
def test_three_euler_routes_agree(degrees, n):
    ci = CIType(degrees, n)
    assert euler_ci_formula(ci) == euler_ci_series(ci) == euler_ci_recursive(ci)


@bounded(200)
@given(degrees=st.lists(st.integers(1, 9), max_size=8), n=st.integers(0, 30))
@example(degrees=[1, 9, 2, 9, 1, 3, 3, 2], n=30)
def test_series_route_divides_as_one_factor_at_a_time(degrees, n):
    # dividing by (1 + d t) is c'_k = c_k - d c'_(k-1), in integers
    ci = CIType(degrees, n)
    expected = [math.comb(n + ci.codimension + 1, k) for k in range(n + 1)]
    for d in ci.degrees:
        for k in range(1, n + 1):
            expected[k] -= d * expected[k - 1]
    assert chern_degrees_ci(ci) == [ci.degree_product * c for c in expected]


@bounded(100)
@given(degrees=st.lists(st.integers(1, 9), max_size=5), n=st.integers(0, 12))
def test_first_chern_degree_is_the_degree(degrees, n):
    # entry k is prod d_j * sum_{i<=k} (-1)^(k-i) C(n+r+1, i) h_(k-i)(d), which
    # at k = 0 is the degree and at k = n the formula route's chi
    ci = CIType(degrees, n)
    top = n + ci.codimension + 1
    h = complete_homogeneous_prefix(n, ci.degrees)
    expected = [ci.degree_product * sum((-1) ** (k - i) * math.comb(top, i) * h[k - i]
                                        for i in range(k + 1)) for k in range(n + 1)]
    assert chern_degrees_ci(ci) == expected
    assert expected[0] == ci.degree_product


@bounded(100)
@given(degrees=st.lists(st.integers(1, 9), max_size=5), n=st.integers(1, 12))
def test_betti_table_has_euler_characteristic_chi(degrees, n):
    ci = CIType(degrees, n)
    assert betti_ci(ci).euler_characteristic == euler_ci_formula(ci)


def test_printable_bound_dominates_every_number_the_formula_route_prints():
    # M = prod d (n + 1)^2 C(n + r - 1, r - 1) (D - 1)^n, D the largest degree,
    # bounds chi, the Betti middle and the verdict's (n + 1) prod d, and the
    # formula route's check accepts exactly while M fits the printable bits.
    # Its slack, the digits of M past those of the largest of them, is at most
    # 13 over every type of degrees 2..12, r <= 6 and n <= 120 (an exhaustive
    # count), reached at (2,2,2,2,2,6; 115), which is always drawn.
    slacks = []

    @bounded(300)
    @given(degrees=st.lists(st.integers(2, 12), min_size=1, max_size=6), n=st.integers(1, 120))
    @example(degrees=[2, 2, 2, 2, 2, 6], n=115)
    def check(degrees, n):
        ci = CIType(tuple(degrees), n)
        r, product = ci.codimension, ci.degree_product
        bound = product * (n + 1) ** 2 * math.comb(n + r - 1, r - 1) * (ci.degrees[-1] - 1) ** n
        chi = euler_ci_formula(ci)
        middle = betti_ci(ci).middle
        printed = max(abs(chi), middle, (n + 1) * product)
        assert middle <= abs(chi) + n + 1 and printed <= bound, ci
        with mock.patch.object(chern, "_printable_bits", lambda cap: bound.bit_length()):
            chern._check_formula_size(ci)
        with mock.patch.object(chern, "_printable_bits", lambda cap: bound.bit_length() - 1):
            with pytest.raises(ValueError, match=r"\(D - 1\)\^n below 2\^"):
                chern._check_formula_size(ci)
        slacks.append(len(str(bound)) - len(str(printed)))

    check()
    assert max(slacks) == 13


GOLDEN = Path(__file__).resolve().parent / "golden"
# small or malformed values, by argument; a required argument may be left out
SCAN_BOUND = st.integers(-1, 6).map(str)


def mostly(valid, malformed: list[str]):
    """Three valid draws to one malformed one."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else st.sampled_from(malformed))


INTEGER = mostly(st.integers(0, 30).map(str), ["-1", "x", "", "1.5"])


def comma_ints(min_size: int, max_size: int):
    return mostly(st.lists(st.integers(1, 6), min_size=min_size, max_size=max_size)
                  .map(lambda ds: ",".join(map(str, ds))), ["0", "2,-1", "2,x", ",", "2,,2"])


VALUES = {
    "--dataset": st.sampled_from(["gw2c5", "g2c5", "no-such-dataset",
                                  *(str(path) for path in sorted(GOLDEN.glob("*.json")))]),
    "--variant": st.sampled_from(["P1xP1xP1", "P2xP2", "junk"]),
    "--degree": mostly(st.integers(1, 9).map(str), ["0", "12", "x"]),
    "--codim": st.integers(-1, 7).map(str),
    "--degrees": comma_ints(0, 4),
    "--weights": comma_ints(4, 7),
    **dict.fromkeys(["--max-dim", "--max-degree", "--max-r", "--quadrics-max-r"], SCAN_BOUND),
}


@st.composite
def cli_argv(draw) -> list[str]:
    group = draw(st.sampled_from(sorted(cli.COMMANDS)))
    kinds = cli.COMMANDS[group][1]
    kind = draw(st.sampled_from(sorted(kinds)))
    argv = [*draw(st.sampled_from([[], ["--format", "text"], ["--format", "json"]])),
            group, kind]
    for flag, _ in kinds[kind][1]:
        if draw(st.integers(0, 9)):  # leave one out in ten draws
            argv += [flag, draw(VALUES.get(flag, INTEGER))]
    return argv


def run_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@bounded(150)
@given(argv=cli_argv())
def test_cli_exit_status_and_output_are_contracted(argv):
    code, out = run_main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert run_main(argv) == (code, out)
    if code == 0 and "json" in argv[:2]:
        assert json.loads(out)["command"] == " ".join(argv[2:4])
        # inputs echo every declared flag whose parsed value is not None,
        # keyed by its dest name, with degrees in canonical order
        parsed = argparse_vars(argv)
        dests = [flag[2:].replace("-", "_") for flag, _ in cli.COMMANDS[argv[2]][1][argv[3]][1]]
        echoed = {dest: parsed[dest] for dest in dests if parsed[dest] is not None}
        if "degrees" in echoed:
            echoed["degrees"] = sorted(d for d in echoed["degrees"] if d > 1)
        assert json.loads(out)["inputs"] == json.loads(json.dumps(echoed))


def argparse_vars(argv: list[str] | None) -> dict | None:
    """What build_parser's argparse tree sets for argv, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def table_vars(argv: list[str] | None) -> dict | None:
    parsed = cli.parse_well_formed(argv)
    return None if parsed is None else vars(parsed)


@bounded(200)
@given(argv=cli_argv())
def test_table_parser_reads_every_canonical_command_as_argparse_does(argv):
    # argparse also reads a value starting with "-", which the table declines
    tokens = argv[2:] if argv[0] == "--format" else argv
    dashed = any(value.startswith("-") for value in tokens[3::2])
    assert table_vars(argv) == (None if dashed else argparse_vars(argv))


# token runs that argparse reads or rejects in ways the canonical form has no room for
INSERTED = st.sampled_from([["-h"], ["--help"], ["--"], [""], ["--format", "json"],
                            ["--format", "text"], ["--format", "xml"], ["--format"], ["euler"],
                            ["ci"], ["3"]])


@st.composite
def near_miss_argv(draw) -> list[str]:
    """A drawn command with one to three tokens abbreviated, joined to their
    value with "=", repeated, replaced by one starting with "-" or inserted."""
    argv = draw(cli_argv())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(argv)))
        token, value = (argv + ["", ""])[i:i + 2]
        edit = draw(st.sampled_from(["abbreviate", "join", "repeat", "dash", "insert"]))
        if edit == "abbreviate" and token.startswith("--"):
            argv[i] = token[:draw(st.integers(2, len(token)))]
        elif edit == "join" and token.startswith("--"):
            argv[i:i + 2] = [f"{token}={value}"]
        elif edit == "repeat" and token.startswith("--"):
            argv += [token, value]
        elif edit == "dash" and i < len(argv):
            argv[i] = draw(st.sampled_from(["-1", "-x", "-", "--dim", "--degrees"]))
        else:
            argv[i:i] = draw(INSERTED)
    return argv


@bounded(300)
@example(argv=[], via_sys_argv=False)
@example(argv=[], via_sys_argv=True)
@example(argv=["euler", "ci", "--dim=7"], via_sys_argv=False)
@example(argv=["euler", "ci", "--di", "7"], via_sys_argv=False)
@example(argv=["--form", "json", "euler", "ci", "--dim", "7"], via_sys_argv=False)
@example(argv=["--format=json", "euler", "ci", "--dim", "7"], via_sys_argv=False)
@example(argv=["--format", "xml", "euler", "ci", "--dim", "7"], via_sys_argv=False)
@example(argv=["euler", "ci", "--dim", "7", "--dim", "8"], via_sys_argv=False)
@example(argv=["--format", "json", "--format", "text", "euler", "ci", "--dim", "7"],
         via_sys_argv=False)
@example(argv=["euler", "ci", "--dim", "-1"], via_sys_argv=True)
@example(argv=["euler", "ci", "--dim", "7", "-h"], via_sys_argv=False)
@example(argv=["--", "euler", "ci", "--dim", "7"], via_sys_argv=False)
@example(argv=["euler", "ci", "--dim", ""], via_sys_argv=False)
@example(argv=["euler", "ci", "--degrees", "", "--dim", "3"], via_sys_argv=True)
@example(argv=["euler", "ci", "--dim", "7", "--format", "json"], via_sys_argv=False)
@example(argv=["euler", "--format", "json", "ci", "--dim", "7"], via_sys_argv=False)
@given(argv=near_miss_argv(), via_sys_argv=st.booleans())
def test_table_parser_declines_or_agrees_with_argparse(argv, via_sys_argv):
    # argv None reads sys.argv[1:] on both sides
    with mock.patch.object(sys, "argv", ["nefkit", *argv]):
        table = table_vars(None if via_sys_argv else argv)
        assert table is None or table == argparse_vars(None if via_sys_argv else argv)


SHIPPED = {name: json.loads((Path(cli.__file__).with_name("data") / f"{name}.json")
                            .read_text("utf-8"))
           for name in ("gw2c5", "g2c5")}


def nodes(doc, path=()):
    """The path of every node of a JSON document, the root's () first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from nodes(child, (*path, key))


def replaced(doc, path, value):
    """A copy of doc with the node at path replaced by value."""
    if not path:
        return value
    head, *rest = path
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[head] = replaced(doc[head], rest, value)
    return out


NODES = [(name, path) for name, doc in SHIPPED.items() for path in nodes(doc)]
# small integers and existing labels keep many mutated documents loadable
JSON_VALUE = st.integers(-2, 7) | st.sampled_from(
    sorted({c["label"] for doc in SHIPPED.values() for c in doc["classes"]})
) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "dataset.json"


@bounded(80)
@example(node=("gw2c5", ("classes", 0, "partition")), value={"x": 1, "y": 1}, codim=0,
         fmt="text")
@given(node=st.sampled_from(NODES), value=JSON_VALUE, codim=st.integers(-1, 7),
       fmt=st.sampled_from(["text", "json"]))
def test_cli_contract_holds_on_mutated_datasets(dataset_file, node, value, codim, fmt):
    name, path = node
    dataset_file.write_text(json.dumps(replaced(SHIPPED[name], path, value)), "utf-8")
    for command in (["cone", "check"], ["cone", "dual", "--codim", str(codim)]):
        argv = ["--format", fmt, *command, "--dataset", str(dataset_file)]
        code, out = run_main(argv)
        assert code in (0, 2, 3, 4), (argv, code)
        assert run_main(argv) == (code, out)
        if code == 0 and fmt == "json":
            assert json.loads(out)["command"] == " ".join(command[:2])


def cone_outcomes(doc) -> list:
    """The spherical verdict and the nef cone in every codimension."""
    ds = load_dataset(json.dumps(doc))
    return [spherical_nef_diagonal_check(ds),
            *(nef_cone_of_codim(ds, codim) for codim in range(ds.dimension + 1))]


SHIPPED_OUTCOMES = {name: cone_outcomes(doc) for name, doc in SHIPPED.items()}


@bounded(20)
@example(name="gw2c5", nulled=set(range(8)))
@example(name="g2c5", nulled=set(range(10)))
@given(name=st.sampled_from(sorted(SHIPPED)), nulled=st.sets(st.integers(0, 9)))
def test_partitions_are_metadata_only(name, nulled):
    # nothing reads a partition, so a null one in place of any of them changes no
    # verdict or cone; tests/golden/no_partition.json leaves the field out
    doc = SHIPPED[name]
    classes = [{**c, "partition": None} if i in nulled else c
               for i, c in enumerate(doc["classes"])]
    assert cone_outcomes({**doc, "classes": classes}) == SHIPPED_OUTCOMES[name]
