"""Property tests: the scan against the verdict chain, the shared-row walk
against the per-type row, the three Euler routes against each other, the
first Chern degree and the Betti table's Euler characteristic against the
degree and chi, and the command line's exit-status and determinism contract
on drawn argv and on shipped datasets with one node replaced by a drawn JSON
value, and the shipped datasets' verdicts and nef cones with any of their
partitions made null.

Examples are derandomized and no example database is written, so every run
draws the same inputs; the example counts keep the file to a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nefkit import cli
from nefkit.chern import (
    CIType,
    betti_ci,
    chern_degrees_ci,
    euler_ci_formula,
    euler_ci_recursive,
    euler_ci_row,
    euler_ci_rows,
    euler_ci_series,
)
from nefkit.cones import load_dataset, nef_cone_of_codim, spherical_nef_diagonal_check
from nefkit.diagonal import scan_ci, verdict_ci


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
        assert row == euler_ci_row(ci), degrees
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


@bounded(100)
@given(degrees=st.lists(st.integers(1, 9), max_size=5), n=st.integers(0, 12))
def test_first_chern_degree_is_the_degree(degrees, n):
    ci = CIType(degrees, n)
    assert chern_degrees_ci(ci)[0] == ci.degree_product


@bounded(100)
@given(degrees=st.lists(st.integers(1, 9), max_size=5), n=st.integers(1, 12))
def test_betti_table_has_euler_characteristic_chi(degrees, n):
    ci = CIType(degrees, n)
    assert betti_ci(ci).euler_characteristic == euler_ci_formula(ci)


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


def run_main(argv: list[str]) -> tuple[object, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


@bounded(150)
@given(argv=cli_argv())
def test_cli_exit_status_and_output_are_contracted(argv):
    code, out = run_main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert run_main(argv) == (code, out)
    if code == 0 and "json" in argv[:2]:
        assert json.loads(out)["command"] == " ".join(argv[2:4])


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
