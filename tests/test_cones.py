"""Tests for dataset parsing, exact dual cones, and the nef-diagonal check.

The shipped Grassmannian dataset is re-derived here from scratch with a
Pieri/Giambelli oracle, so the JSON numbers are never trusted blind. Dual
cones are validated against hand-solved examples, by the involution
dual(dual(C)) == C on seeded random pointed cones, and against a brute-force
enumeration of the kernels of all (m-1)-subsets of the normals; their integer
elimination is checked against a reduced row echelon form over Fraction.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import threading
import time
from fractions import Fraction
from importlib import resources
from itertools import combinations, permutations
from math import gcd, lcm

import pytest

from nefkit import cones
from nefkit.cones import (
    CycleClass,
    CycleDataset,
    DelPezzo5Cones,
    InconsistentPairing,
    InvalidPartition,
    MissingPairing,
    RationalCone,
    SchemaError,
    _echelon,
    _rank,
    builtin_dataset,
    delpezzo5_cones,
    dual_cone,
    effective_cone_of_codim,
    load_dataset,
    load_dataset_file,
    resolve_dataset,
)
from nefkit.diagonal import Reason, Status, spherical_nef_diagonal_check, verdict_delpezzo
from nefkit.exactnum import _check_int

# ---------------------------------------------------------------------------
# Independent oracle: Schubert calculus on G(2,5) via Pieri and Giambelli.
# Partitions live in a 2 x 3 box; sigma(3,3) is the point class.

BOX = 3


def pieri_step(p: int, cls: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """Multiply a cycle (partition -> coefficient) by the special class sigma_p."""
    if p < 0 or p > BOX:
        return {}
    if p == 0:
        return dict(cls)
    out: dict[tuple[int, int], int] = {}
    for (a, b), coeff in cls.items():
        for m1 in range(a, BOX + 1):
            m2 = a + b + p - m1
            if m1 >= a >= m2 >= b:
                out[(m1, m2)] = out.get((m1, m2), 0) + coeff
    return out


def schubert_pairing_oracle(lam: tuple[int, int], mu: tuple[int, int]) -> int:
    """Coefficient of the point class in sigma_lam * sigma_mu on G(2,5).

    Giambelli writes sigma_(a,b) = sigma_a*sigma_b - sigma_(a+1)*sigma_(b-1)
    in special classes, which Pieri steps can then multiply onto sigma_mu.
    """
    a, b = lam
    base = {mu: 1}
    plus = pieri_step(a, pieri_step(b, base))
    minus = pieri_step(a + 1, pieri_step(b - 1, base))
    return plus.get((BOX, BOX), 0) - minus.get((BOX, BOX), 0)


def test_oracle_sanity() -> None:
    # sigma_1 * sigma_1 = sigma_2 + sigma_(1,1), the classical first case
    assert pieri_step(1, {(1, 0): 1}) == {(2, 0): 1, (1, 1): 1}
    # and the point class pairs to 1 with the fundamental class
    assert schubert_pairing_oracle((0, 0), (3, 3)) == 1
    assert schubert_pairing_oracle((3, 3), (0, 0)) == 1


def test_g2c5_every_pairing_matches_pieri_oracle() -> None:
    ds = builtin_dataset("g2c5")
    assert ds.dimension == 6
    checked = set()
    for a, b in ds.complementary_pairs():
        stored = ds.pairing_value(a.label, b.label)
        assert stored == schubert_pairing_oracle(a.partition, b.partition), (
            a.label,
            b.label,
        )
        checked.add(tuple(sorted((a.label, b.label))))
    # the dataset carries exactly the complementary pairs, nothing else
    assert checked == set(ds.pairings)


def test_g2c5_inventory() -> None:
    ds = builtin_dataset("g2c5")
    assert len(ds.classes) == 10
    assert sorted(c.codim for c in ds.classes) == [0, 1, 2, 2, 3, 3, 4, 4, 5, 6]
    for c in ds.classes:
        a, b = c.partition
        assert BOX >= a >= b >= 0


def test_gw2c5_inventory() -> None:
    ds = builtin_dataset("gw2c5")
    assert ds.dimension == 5
    assert len(ds.classes) == 8
    assert tuple(c.codim for c in ds.classes) == (0, 1, 2, 2, 3, 3, 4, 5)
    assert {c.label: c for c in ds.classes}["tau(3,-1)"].partition == (3, -1)


def tau_top_pairing(n: int, a: int, b: int) -> int:
    """Pairing of tau(a,b) with the extra class tau(2n-1,-1), for the
    (4n-3)-dimensional odd symplectic Grassmannian of lines in C^(2n+1).

    Defined for ordinary partitions a >= b >= 0 of weight a + b = 2n - 1;
    the value is (-1)^(a-1).
    """
    if _check_int(n, "n") < 1:
        raise ValueError("n must be a positive integer")
    if not _check_int(a, "a") >= _check_int(b, "b") >= 0:
        raise InvalidPartition(f"({a},{b}) is not weakly decreasing and non-negative")
    if a + b != 2 * n - 1:
        raise InvalidPartition(
            f"({a},{b}) has weight {a + b}, complementary weight is {2 * n - 1}"
        )
    return (-1) ** (a - 1)


def test_gw2c5_negative_tail_pairings_match_sign_rule() -> None:
    # the stored pairings against the extra orbit closure follow the
    # closed-form sign (-1)^(a-1) for complementary tau(a,b)
    ds = builtin_dataset("gw2c5")
    tail = {c.label: c for c in ds.classes}["tau(3,-1)"]
    for other in ds.classes_of_codim(ds.dimension - tail.codim):
        a, b = other.partition
        assert ds.pairing_value(tail.label, other.label) == tau_top_pairing(2, a, b)


def test_tau_top_pairing_values_and_errors() -> None:
    assert tau_top_pairing(2, 3, 0) == 1
    assert tau_top_pairing(2, 2, 1) == -1
    assert tau_top_pairing(1, 1, 0) == 1
    assert tau_top_pairing(3, 5, 0) == 1
    assert tau_top_pairing(3, 4, 1) == -1
    assert tau_top_pairing(3, 3, 2) == 1
    with pytest.raises(InvalidPartition):
        tau_top_pairing(2, 1, 2)  # increasing
    with pytest.raises(InvalidPartition):
        tau_top_pairing(2, 2, -1)  # negative part
    with pytest.raises(InvalidPartition):
        tau_top_pairing(2, 2, 0)  # wrong weight
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        tau_top_pairing(0, 1, 0)


def test_delpezzo_fivefold_witness_agrees_with_dataset() -> None:
    ds = builtin_dataset("gw2c5")
    verdict = verdict_delpezzo(5, 5)
    assert verdict.status is Status.NOT_NEF
    first, second = verdict.witness["classes"]
    stored = ds.pairing_value(first, second)
    assert stored == verdict.witness["value"] == -1


# ---------------------------------------------------------------------------
# Class and dataset validation


def test_schubert_class_validation() -> None:
    CycleClass("x", (3, 1), 4)
    CycleClass("tail", (3, -1), 2)
    with pytest.raises(InvalidPartition):
        CycleClass("x", (1, 2), 3)
    with pytest.raises(InvalidPartition):
        CycleClass("x", (2, -2), 0)
    with pytest.raises(InvalidPartition):
        CycleClass("x", (0, -1), -1)
    with pytest.raises(InvalidPartition):
        CycleClass("x", (2, 1), 4)  # codim != weight
    with pytest.raises(InvalidPartition):
        CycleClass("", (1, 0), 1)


def make_doc(**overrides) -> dict:
    doc = {
        "variety": "toy surface",
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
    doc.update(overrides)
    return doc


def test_load_dataset_roundtrip_and_file(tmp_path) -> None:
    text = json.dumps(make_doc())
    ds = load_dataset(text)
    assert ds.variety == "toy surface"
    assert ds.pairing_value("pt", "one") == 1
    path = tmp_path / "toy.json"
    path.write_text(text, "utf-8")
    assert load_dataset_file(path) == ds


def test_load_dataset_file_rejects_text_that_is_not_utf8(tmp_path) -> None:
    path = tmp_path / "utf16.json"
    path.write_text(json.dumps(make_doc()), "utf-16")
    with pytest.raises(SchemaError, match="^dataset cannot be read: 'utf-8' codec can't decode"):
        load_dataset_file(path)


def test_load_dataset_file_reads_at_most_its_byte_cap(tmp_path, monkeypatch) -> None:
    # a document padded with spaces to exactly the cap loads; one byte more is
    # refused before the parser sees it, from a file and from a pipe alike
    cap = cones._DATASET_MAX_BYTES
    text = json.dumps(make_doc())
    path = tmp_path / "padded.json"
    path.write_bytes(text.encode("utf-8") + b" " * (cap - len(text)))
    assert load_dataset_file(path) == load_dataset(text)
    path.write_bytes(path.read_bytes() + b" ")

    def parse(text):
        raise AssertionError("a dataset past the cap must not be parsed")

    monkeypatch.setattr(cones, "load_dataset", parse)
    message = f"^dataset file has more than {cap} bytes, the most a dataset may have$"
    with pytest.raises(SchemaError, match=message):
        load_dataset_file(path)
    if not hasattr(os, "mkfifo"):
        return
    pipe = tmp_path / "pipe.json"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(b" " * (cap + 1),), daemon=True)
    writer.start()
    with pytest.raises(SchemaError, match=message):
        load_dataset_file(pipe)
    writer.join(10)
    assert not writer.is_alive()


def test_load_dataset_file_reads_utf8_with_a_byte_order_mark(tmp_path) -> None:
    text = json.dumps(make_doc())
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_dataset_file(path) == load_dataset(text)


@pytest.mark.parametrize(("text", "key"), [
    # json.loads alone keeps the last value, -1, and the surface would be NotNef
    (json.dumps(make_doc()).replace('"value": 1}]', '"value": 1, "value": -1}]'), "value"),
    (json.dumps(make_doc()).replace("{", '{"dimension": 3, ', 1), "dimension"),
], ids=["pairing-value", "document-field"])
def test_load_dataset_rejects_a_repeated_key(text, key) -> None:
    json.loads(text)  # the plain parser reads it without a word
    with pytest.raises(SchemaError, match=f"^dataset object repeats the key '{key}'$"):
        load_dataset(text)


def test_load_dataset_schema_errors() -> None:
    with pytest.raises(SchemaError):
        load_dataset("not json {")
    with pytest.raises(SchemaError):
        load_dataset(json.dumps([1, 2, 3]))
    doc = make_doc()
    del doc["pairings"]
    with pytest.raises(SchemaError):
        load_dataset(json.dumps(doc))
    bad = make_doc(classes=[{"label": "x", "partition": [1, 2], "codim": 3}])
    with pytest.raises(SchemaError):
        load_dataset(json.dumps(bad))
    bad = make_doc(pairings=[{"a": "one", "b": "ghost", "value": 1}])
    with pytest.raises(SchemaError):
        load_dataset(json.dumps(bad))
    bad = make_doc(pairings=[{"a": "one", "b": "h", "value": 1}])  # codims 0+1 != 2
    with pytest.raises(SchemaError):
        load_dataset(json.dumps(bad))
    bad = make_doc(pairings=[{"a": "one", "b": "pt", "value": 1.5}])
    with pytest.raises(SchemaError):
        load_dataset(json.dumps(bad))
    bad = make_doc(pairings=[{"a": 3, "b": "pt", "value": 1}])
    with pytest.raises(SchemaError):
        load_dataset(json.dumps(bad))


def test_load_dataset_rejects_an_object_partition() -> None:
    # CycleClass names an object partition before any other fault of its entry
    bad = make_doc(classes=[{"label": "a", "partition": {"x": 1, "y": 1}, "codim": 2}])
    with pytest.raises(SchemaError, match="^a partition is a list of parts, not an object$"):
        load_dataset(json.dumps(bad))


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,  # nested past the recursion limit
    json.dumps(make_doc()).replace('"dimension": 2', '"dimension": ' + "7" * 5_000),
], ids=["deep-nesting", "long-dimension"])
def test_load_dataset_rejects_unreadable_documents(text) -> None:
    with pytest.raises(SchemaError, match="^dataset cannot be read: "):
        load_dataset(text)


@pytest.mark.parametrize(("setting", "digits"), [(0, 4_300), (10_000, 4_300), (4_300, 4_300),
                                                 (640, 640)])
def test_load_dataset_reads_no_integer_past_the_digit_cap(setting, digits) -> None:
    # with the int-to-str limit off, or set higher, int() would read any
    # length, in time growing with the square of the digits
    text = json.dumps(make_doc())
    value = text.replace('"value": 1}]', '"value": -N}]')
    dimension = text.replace('"dimension": 2', '"dimension": N')
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(setting)
        ds = load_dataset(value.replace("N", "7" * digits))
        assert ds.pairings[("h", "h")] == -int("7" * digits)
        for doc in (value, dimension):
            with pytest.raises(SchemaError, match=f"^dataset cannot be read: an integer has more"
                                                  f" than {digits} digits, too many to read$"):
                load_dataset(doc.replace("N", "7" * (digits + 1)))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("overrides", [
    {"pairings": {}},
    {"pairings": "one,pt"},
    {"classes": {}},
    {"classes": None},
    {"variety": 7},
    {"variety": ""},
    {"variety": ["toy"]},
])
def test_load_dataset_rejects_wrong_field_types(overrides) -> None:
    with pytest.raises(SchemaError):
        load_dataset(json.dumps(make_doc(**overrides)))


def test_load_dataset_duplicate_pairings() -> None:
    doc = make_doc()
    doc["pairings"].append({"a": "pt", "b": "one", "value": 1})  # agrees, reversed
    load_dataset(json.dumps(doc))
    doc["pairings"].append({"a": "one", "b": "pt", "value": 2})  # conflicts
    with pytest.raises(InconsistentPairing):
        load_dataset(json.dumps(doc))


@pytest.mark.parametrize("value", [True, 1.0])
def test_load_dataset_checks_each_pairing_value(value) -> None:
    # true == 1 == 1.0, so the agreeing entry after it would overwrite the
    # value before CycleDataset sees it: only a check per entry catches it
    doc = make_doc(pairings=[{"a": "one", "b": "pt", "value": value},
                             {"a": "pt", "b": "one", "value": 1},
                             {"a": "h", "b": "h", "value": 1}])
    with pytest.raises(SchemaError, match=r"^pairing \('one', 'pt'\) must be an integer$"):
        load_dataset(json.dumps(doc))


@pytest.mark.parametrize(("field", "value", "message"), [
    ("variety", 7, "variety must be a non-empty string"),
    ("dimension", "2", "dimension must be an integer"),
    ("partition", [1, "x"], "h: partition part must be an integer"),
    ("partition", [1, 0, 0], "h: partition must be a list of two integers"),
    ("codim", True, "h: codim must be an integer"),
    ("partition", [1], "h: partition must be a list of two integers"),
    ("partition", 5, "h: partition must be a list of two integers"),
    ("entry", 5, "each class entry must be an object"),
    ("entry", {"label": "h", "codim": -1}, "h: codim must be >= 0"),
], ids=["variety", "dimension", "partition-part", "partition-length", "codim",
        "partition-one-part", "partition-number", "class-entry", "negative-codim"])
def test_load_dataset_reports_the_constructor_message(field: str, value, message: str) -> None:
    # load_dataset checks that a class entry is an object and leaves the rest
    # to CycleDataset and CycleClass, whose message comes as a SchemaError
    doc = make_doc()
    if field in doc:
        doc[field] = value
    elif field == "entry":
        doc["classes"][1] = value  # in place of the class labeled h
    else:
        doc["classes"][1][field] = value  # the class labeled h
    with pytest.raises(SchemaError) as raised:
        load_dataset(json.dumps(doc))
    assert str(raised.value) == message


def test_dataset_construction_errors() -> None:
    one = CycleClass("one", (0, 0), 0)
    pt = CycleClass("pt", (2, 0), 2)
    with pytest.raises(SchemaError):
        CycleDataset("x", 2, ())
    with pytest.raises(SchemaError):
        CycleDataset("x", 2, (one, one))
    with pytest.raises(SchemaError):
        CycleDataset("x", 1, (one, pt))  # codim exceeds dimension
    with pytest.raises(SchemaError):
        CycleDataset("x", 2, (one, pt), {("one", "one"): 1})  # not complementary
    with pytest.raises(SchemaError):
        CycleDataset("x", 2, (one, pt), {("pt", "one"): 1})  # unsorted key


def test_missing_pairing_lookups() -> None:
    ds = load_dataset(json.dumps(make_doc(pairings=[{"a": "one", "b": "pt", "value": 1}])))
    with pytest.raises(MissingPairing):
        ds.pairing_value("h", "h")
    with pytest.raises(MissingPairing):
        ds.pairing_value("h", "pt")  # codims 1 + 2 != 2, so never stored
    with pytest.raises(MissingPairing):
        spherical_nef_diagonal_check(ds)


@pytest.mark.parametrize(("codim", "message"), [
    (2, "no pairing recorded for (tau(3,-1), tau(2,1))"),
    (3, "no pairing recorded for (tau(2,1), tau(3,-1))"),
    (1, "no pairing recorded for (h, h)"),
])
def test_nef_cone_names_the_missing_pairing(codim: int, message: str) -> None:
    # the message names the first missing entry of the pairing matrix, row
    # class first, in the order nef_cone_of_codim fills the matrix
    if codim == 1:
        doc = make_doc(pairings=[{"a": "one", "b": "pt", "value": 1}])
    else:
        doc = json.loads(resources.files("nefkit").joinpath("data/gw2c5.json").read_text())
        doc["pairings"] = [p for p in doc["pairings"]
                           if {p["a"], p["b"]} != {"tau(3,-1)", "tau(2,1)"}]
    with pytest.raises(MissingPairing) as caught:
        cones.nef_cone_of_codim(load_dataset(json.dumps(doc)), codim)
    assert str(caught.value) == message


def test_complementary_pair_order() -> None:
    ds = builtin_dataset("g2c5")
    labels = [(a.label, b.label) for a, b in ds.complementary_pairs()]
    assert labels[0] == ("sigma(0,0)", "sigma(3,3)")
    assert ("sigma(3,0)", "sigma(3,0)") in labels  # self pair kept once
    assert labels.count(("sigma(3,0)", "sigma(2,1)")) == 1
    assert ("sigma(2,1)", "sigma(3,0)") not in labels  # no reversed duplicate
    assert len(labels) == 9


def test_complementary_pairs_are_every_pair_in_dataset_order_one_at_a_time() -> None:
    rng = random.Random(2718)
    for _ in range(200):
        dimension = rng.randint(0, 5)
        classes = [{"label": f"c{i}", "codim": rng.randint(0, dimension)}
                   for i in range(rng.randint(1, 9))]
        ds = load_dataset(json.dumps(make_doc(dimension=dimension, classes=classes,
                                              pairings=[])))
        # the definition: for k up to dimension / 2, each class of codimension k
        # with each of the complement, a codimension paired with itself once
        expected = [(a, b) for k in range(dimension // 2 + 1)
                    for i, a in enumerate(ds.classes_of_codim(k))
                    for j, b in enumerate(ds.classes_of_codim(dimension - k))
                    if 2 * k != dimension or j >= i]
        if not expected:
            with pytest.raises(MissingPairing, match="^no complementary pair of classes"):
                ds.complementary_pairs()
            continue
        pairs = ds.complementary_pairs()
        assert iter(pairs) is pairs  # an iterator, not a built tuple
        assert list(pairs) == expected


@pytest.mark.parametrize("dimension", [2, 10**12])
def test_complementary_pairs_visit_only_present_codims(dimension: int) -> None:
    # a huge dimension costs nothing: only codims that hold classes are paired
    one = {"label": "one", "partition": [0, 0], "codim": 0}
    pt = {"label": "pt", "partition": [dimension, 0], "codim": dimension}
    lonely = load_dataset(json.dumps(make_doc(dimension=dimension, classes=[one], pairings=[])))
    with pytest.raises(MissingPairing, match="^no complementary pair of classes"):
        lonely.complementary_pairs()
    # no pairing was checked, so nothing certifies a nef diagonal
    with pytest.raises(MissingPairing, match="^no complementary pair of classes"):
        spherical_nef_diagonal_check(lonely)
    ds = load_dataset(json.dumps(make_doc(
        dimension=dimension, classes=[one, pt],
        pairings=[{"a": "one", "b": "pt", "value": -1}],
    )))
    assert [(a.label, b.label) for a, b in ds.complementary_pairs()] == [("one", "pt")]
    verdict = spherical_nef_diagonal_check(ds)
    assert verdict.status is Status.NOT_NEF
    assert verdict.witness == {"classes": ["one", "pt"], "value": -1}


def test_builtin_dataset_unknown_name() -> None:
    with pytest.raises(FileNotFoundError, match="^no shipped dataset named 'no-such-dataset'$"):
        builtin_dataset("no-such-dataset")
    # a name with a directory part names a file, even one the data directory holds
    for name in ("../data/gw2c5", "./gw2c5.json", "data/gw2c5"):
        with pytest.raises(FileNotFoundError, match=f"^no dataset file named '{name}'$"):
            builtin_dataset(name)


def test_resolve_dataset_tries_the_path_then_nefkit_data_then_shipped_data(
        tmp_path, monkeypatch) -> None:
    data_dir = tmp_path / "override"
    data_dir.mkdir()
    (data_dir / "g2c5.json").write_text(json.dumps(make_doc(variety="under NEFKIT_DATA")), "utf-8")
    (tmp_path / "g2c5").write_text(json.dumps(make_doc(variety="at the path")), "utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NEFKIT_DATA", str(data_dir))
    assert resolve_dataset("g2c5").variety == "at the path"
    (tmp_path / "g2c5").unlink()
    assert resolve_dataset("g2c5").variety == "under NEFKIT_DATA"
    assert resolve_dataset("g2c5.json").variety == "under NEFKIT_DATA"
    monkeypatch.delenv("NEFKIT_DATA")
    assert resolve_dataset("g2c5") == builtin_dataset("g2c5")
    monkeypatch.setenv("NEFKIT_DATA", str(tmp_path / "missing"))
    assert resolve_dataset("g2c5") == builtin_dataset("g2c5")


@pytest.mark.parametrize("where", ["absolute", "relative", "directory"])
def test_resolve_dataset_never_reads_a_path_as_a_shipped_name(tmp_path, monkeypatch,
                                                               where) -> None:
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NEFKIT_DATA", raising=False)
    name = {"absolute": str(tmp_path / "gw2c5.json"), "relative": "./gw2c5",
            "directory": str(tmp_path)}[where]
    message = f"no dataset file named {name!r}"
    with pytest.raises(FileNotFoundError, match=f"^{re.escape(message)}$"):
        resolve_dataset(name)


def test_every_dataset_fault_is_a_schema_error() -> None:
    # so a caller, such as the command line, catches dataset faults as one class
    for fault in (InvalidPartition, InconsistentPairing, MissingPairing):
        assert issubclass(fault, SchemaError)
    assert issubclass(MissingPairing, LookupError)


def test_shipped_data_holds_only_pairing_datasets() -> None:
    records = sorted((record for record in resources.files("nefkit").joinpath("data").iterdir()
                      if record.name.endswith(".json")), key=lambda record: record.name)
    assert [record.name for record in records] == ["g2c5.json", "gw2c5.json"]
    for record in records:
        assert load_dataset(record.read_text("utf-8")).pairings, record.name


# ---------------------------------------------------------------------------
# Dual cones


def identity(m: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for j in range(m)) for i in range(m)]


def fraction_echelon(rows: list[list[int]], width: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction, the reference for _echelon."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(width):
        rank = len(pivots)
        pivot_row = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [x / inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
    return mat, pivots


def kernel_line(rows: list[list[int]], width: int) -> tuple[int, ...] | None:
    """Primitive spanning vector of the kernel, of either sign, if it is exactly
    a line: the brute-force oracle's integer kernel, built over _echelon."""
    mat, pivots = _echelon(rows, width)
    if len(pivots) != width - 1:
        return None
    free = next(c for c in range(width) if c not in pivots)
    vec = [0] * width
    vec[free] = mat[0][pivots[0]] if pivots else 1
    for row_index, col in enumerate(pivots):
        vec[col] = -mat[row_index][free]
    return primitive_of(tuple(vec))


def fraction_kernel_line(rows: list[list[int]], width: int) -> tuple[int, ...] | None:
    mat, pivots = fraction_echelon(rows, width)
    if len(pivots) != width - 1:
        return None
    free = next(c for c in range(width) if c not in pivots)
    vec = [Fraction(int(c == free)) for c in range(width)]
    for row_index, col in enumerate(pivots):
        vec[col] = -mat[row_index][free]
    scale = lcm(*(x.denominator for x in vec))
    return primitive_of(tuple(int(x * scale) for x in vec))


def brute_force_dual_cone(effective_generators, pairing_matrix) -> tuple[tuple[int, ...], ...]:
    """Generators of the dual cone by enumeration, the reference for dual_cone.

    Every (m-1)-subset of the normals whose kernel is a line gives a candidate
    ray of either sign, kept when it pairs non-negatively with every normal:
    C(k, m-1) eliminations. Inputs are taken as well formed; the two errors
    for a dual that is all of space or not pointed follow dual_cone.
    """
    m = len(pairing_matrix)
    normals: list[tuple[int, ...]] = []
    for g in effective_generators:
        normal = tuple(sum(x * y for x, y in zip(row, g)) for row in pairing_matrix)
        if any(normal) and normal not in normals:
            normals.append(normal)
    if not normals:
        raise ValueError("every generator pairs to zero; the dual is all of space")
    if _rank(normals, m) < m:
        raise ValueError("dual cone contains a linear subspace")
    rays: set[tuple[int, ...]] = set()
    for subset in combinations(range(len(normals)), m - 1):
        candidate = kernel_line([normals[i] for i in subset], m)
        if candidate is None:
            continue
        for ray in (candidate, tuple(-x for x in candidate)):
            if all(sum(x * y for x, y in zip(normal, ray)) >= 0 for normal in normals):
                rays.add(ray)
    return tuple(sorted(rays))


def random_deficient_matrix(rng: random.Random, width: int) -> list[list[int]]:
    # width - 2 .. width + 1 integer combinations of width - 2 .. width random
    # rows: the rank often falls short of both the row count and the width,
    # and often sits at width - 1, where the kernel is a line; some columns
    # are zero
    basis_size = rng.randint(max(1, width - 2), width)
    basis = [[rng.randint(-6, 6) for _ in range(width)] for _ in range(basis_size)]
    zero = {c for c in range(width) if rng.random() < 0.2}
    rows = []
    for _ in range(rng.randint(max(0, width - 2), width + 1)):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        rows.append([0 if c in zero else sum(k * b[c] for k, b in zip(coeffs, basis))
                     for c in range(width)])
    return rows


@pytest.mark.parametrize("width", range(1, 8))
def test_integer_elimination_matches_fraction_reference(width: int) -> None:
    rng = random.Random(4099 + width)
    for _ in range(300):
        rows = random_deficient_matrix(rng, width)
        ref, ref_pivots = fraction_echelon(rows, width)
        mat, pivots = _echelon(rows, width)
        # every division was exact: the integer form is d times the reference
        d = mat[0][pivots[0]] if pivots else 1
        assert pivots == ref_pivots
        assert mat == [[d * x for x in row] for row in ref]
        assert _rank(rows, width) == len(ref_pivots)
        line = kernel_line(rows, width)
        if len(ref_pivots) != width - 1:
            assert line is None
            continue
        assert all(sum(x * y for x, y in zip(row, line)) == 0 for row in rows)
        assert gcd(*line) == 1
        expected = fraction_kernel_line(rows, width)
        assert line in (expected, tuple(-x for x in expected))


@pytest.mark.parametrize(("rows", "expected"), [
    # column 0 has p = 2 and f = 0 on both lower rows; column 1 then has p
    # equal to the previous pivot 2 and f = 0 on rows 0 and 2
    ([[2, 0, 1], [0, 1, 1], [0, 0, 1]], [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
    # column 1 has p = 6 after the pivot 2, with f = 0 on row 2 and f = 1
    # on row 0
    ([[2, 1, 0], [0, 3, 1], [0, 0, 1]], [[6, 0, 0], [0, 6, 0], [0, 0, 6]]),
    # a zero column, then p = 9 after the pivot 3, with f = 0 on the row
    # above the pivot
    ([[3, 0, 0, 1], [0, 0, 3, 1], [0, 0, 0, 2]],
     [[18, 0, 0, 0], [0, 0, 18, 0], [0, 0, 0, 18]]),
])
def test_elimination_with_zero_multipliers(rows: list[list[int]],
                                           expected: list[list[int]]) -> None:
    mat, pivots = _echelon(rows, len(rows[0]))
    ref, ref_pivots = fraction_echelon(rows, len(rows[0]))
    assert pivots == ref_pivots
    assert mat == expected == [[mat[0][pivots[0]] * x for x in row] for row in ref]


def random_dual_cone_input(rng: random.Random, m: int) -> tuple[list, list]:
    # small entries make degenerate vertices (more than m - 1 tight normals)
    # common; repeated, scaled and opposite generators, and a generator that
    # closes the others into a linear subspace, give flat, zero and
    # non-pointed duals; a random pairing matrix may be rank-deficient or
    # non-square
    width = m if rng.random() < 0.7 else rng.randint(1, m + 1)
    if width == m and rng.random() < 0.5:
        matrix = identity(m)
    else:
        matrix = [tuple(rng.randint(-2, 2) for _ in range(width)) for _ in range(m)]
    bound = rng.choice((1, 2))
    gens: list[tuple[int, ...]] = []
    count = rng.randint(max(1, m - 1), m + 5)
    while len(gens) < count:
        g = tuple(rng.randint(-bound, bound) for _ in range(width))
        if not any(g):
            continue
        gens.append(g)
        roll = rng.random()
        if roll < 0.15:
            gens.append(tuple(-x for x in g))
        elif roll < 0.25:
            gens.append(tuple(rng.randint(1, 3) * x for x in g))
    closing = tuple(-sum(col) for col in zip(*gens))
    if rng.random() < 0.2 and any(closing):
        gens.append(closing)
    return gens, matrix


@pytest.mark.parametrize("m", range(1, 7))
def test_dual_cone_matches_brute_force(m: int) -> None:
    rng = random.Random(7919 + m)
    kinds = set()
    for _ in range(150):
        gens, matrix = random_dual_cone_input(rng, m)
        try:
            expected = brute_force_dual_cone(gens, matrix)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                dual_cone(gens, matrix)
            assert str(raised.value) == str(exc)
            kinds.add("raises")
            continue
        cone = dual_cone(gens, matrix)
        assert cone.generators == expected, (gens, matrix)
        kinds.add("zero" if not expected else "full" if cone.is_full_dimensional else "flat")
    assert kinds == ({"raises", "zero", "full"} | ({"flat"} if m > 1 else set()))


def test_dual_cone_scans_degenerate_pairs() -> None:
    # The cone over a square pyramid (apex (0,0,1), base corners (+-1,+-1,0)
    # at w = 1), its base normal given twice, then cut by x + y >= 0. The cut
    # separates the corners p = (1,1,0,1) and n = (-1,-1,0,1). Each is tight on
    # four processed normals (the base twice and two sides), more than
    # m - 1 = 3, and they share m - 2 = 2 (the base twice), yet they are not
    # adjacent: the other two corners are tight on the base too. Only the
    # third-ray scan keeps their combination (0,0,0,1), the centre of the
    # base, out of the rays.
    sides = [(-1, 0, -1, 1), (1, 0, -1, 1), (0, -1, -1, 1), (0, 1, -1, 1)]
    gens = [(0, 0, 1, 0), *sides, (0, 0, 2, 0), (1, 1, 0, 0)]
    for corner in ((1, 1, 0, 1), (-1, -1, 0, 1)):
        assert sum(sum(x * y for x, y in zip(g, corner)) == 0 for g in gens[:-1]) == 4
    cone = dual_cone(gens, identity(4))
    assert cone.generators == brute_force_dual_cone(gens, identity(4))
    assert cone.generators == ((-1, 1, 0, 1), (0, 0, 1, 1), (1, -1, 0, 1), (1, 1, 0, 1))


def test_dual_cone_two_dimensional_example() -> None:
    # normals (0,1) and (1,-1): each extremal ray is a normal rotated a
    # quarter turn into the feasible side
    cone = dual_cone([(1, 0), (0, 1)], [(0, 1), (1, -1)])
    assert cone.generators == ((1, 0), (1, 1))
    assert cone.is_full_dimensional


def test_dual_cone_start_ray_signs() -> None:
    # one normal (-2): the start ray is the row of d (B^T)^-1 = (1,) times
    # the sign of the pivot d = -2
    assert dual_cone([(-2,)], [(1,)]).generators == ((-1,),)
    # normals (1,0) and (0,-1): the last pivot of [N^T | I] is negative, and
    # both start rays flip with it
    mat, base = _echelon([(1, 0, 1, 0), (0, -1, 0, 1)], 2)
    assert base == [0, 1] and mat[0][0] == mat[1][1] == -1
    cone = dual_cone([(1, 0), (0, 1)], [(1, 0), (0, -1)])
    assert cone.generators == ((0, -1), (1, 0))


def test_dual_cone_eliminates_once(monkeypatch) -> None:
    calls = []
    real_echelon = cones._echelon
    monkeypatch.setattr(cones, "_echelon",
                        lambda *args: calls.append(args) or real_echelon(*args))
    cone = dual_cone([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (2, 1, -1)], identity(3))
    assert cone.generators and len(calls) == 1
    with pytest.raises(ValueError, match="^dual cone contains a linear subspace$"):
        dual_cone([(1, 0, 0), (0, 1, 0)], identity(3))
    assert len(calls) == 2


def test_dual_cone_orthant_self_dual() -> None:
    for m in (1, 2, 3, 4):
        cone = dual_cone(identity(m), identity(m))
        assert cone.generators == tuple(sorted(identity(m)))


def test_dual_cone_scaling_invariance() -> None:
    # scaling generators or repeating them does not change the dual
    base = dual_cone([(1, 0), (1, 2)], identity(2))
    again = dual_cone([(3, 0), (2, 4), (1, 0)], identity(2))
    assert base == again


def test_dual_cone_flat_result_reported_not_raised() -> None:
    cone = dual_cone([(1, 0), (-1, 0), (0, 1)], identity(2))
    assert cone.generators == ((0, 1),)
    assert not cone.is_full_dimensional


def test_dual_cone_zero_dual_is_empty_generator_tuple() -> None:
    cone = dual_cone([(1, 0), (-1, 0), (0, 1), (0, -1)], identity(2))
    assert cone.generators == ()
    assert not cone.is_full_dimensional


def test_dual_cone_rejects_nonpointed_dual() -> None:
    with pytest.raises(ValueError):
        dual_cone([(1, 0)], identity(2))  # one inequality in the plane
    with pytest.raises(ValueError):
        dual_cone([(1, 1)], [[0, 0], [0, 0]])  # all pairings vanish


@pytest.mark.parametrize("gens, matrix, message", [
    ([(1, 0), (0, 1)], [(1, 0), (0, 1, 7)], "pairing matrix must be rectangular"),
    ([], identity(2), "need at least one effective generator"),
    ([(1, 0, 5), (0, 1)], identity(2),
     "generator length must match the pairing matrix columns"),
    ([(1, 0), (0, 1), (0, 0)], identity(2), "effective generators must be nonzero"),
], ids=["ragged", "no-generators", "long-generator", "zero-generator"])
def test_dual_cone_input_checks_name_their_input(gens, matrix, message) -> None:
    # each input but the empty one gives the orthant once its check is gone
    with pytest.raises(ValueError, match=f"^{message}$"):
        dual_cone(gens, matrix)


def test_dual_cone_input_validation() -> None:
    with pytest.raises(ValueError):
        dual_cone([], identity(2))
    with pytest.raises(ValueError):
        dual_cone([(1, 0, 0)], identity(2))
    with pytest.raises(ValueError):
        dual_cone([(0, 0)], identity(2))
    with pytest.raises(ValueError):
        dual_cone([(1, 0)], [[1, 0], [1]])
    for matrix in ([], [[]]):
        with pytest.raises(ValueError, match="^pairing matrix must be non-empty$"):
            dual_cone([(1, 0)], matrix)


@pytest.mark.parametrize("gens, matrix, message", [
    ([(1.0, 0), (0, 1)], identity(2), "generator entry"),
    ([(2, 1), (0.5, 1)], identity(2), "generator entry"),
    ([(True, 0), (0, 1)], identity(2), "generator entry"),
    ([(1, 0), (0, "1")], identity(2), "generator entry"),
    ([(1, 0), (0, 1)], [(1.0, 0), (0, 1)], "pairing matrix entry"),
    ([(1, 0), (0, 1)], [(1, 0), (0, True)], "pairing matrix entry"),
], ids=["float", "float-later", "bool", "str", "float-matrix", "bool-matrix"])
def test_dual_cone_rejects_non_integer_entries(gens, matrix, message) -> None:
    with pytest.raises(ValueError, match=f"^{message} must be an integer$"):
        dual_cone(gens, matrix)


@pytest.mark.parametrize("vector", [(0.5, -0.2), (1, 0.0), (True, 0), (1, "0")])
def test_contains_rejects_non_integer_entries(vector) -> None:
    cone = dual_cone([(2, 1), (0, 1)], identity(2))
    with pytest.raises(ValueError, match="^vector entry must be an integer$"):
        cone.contains(vector)
    # the check comes before any work, so a flat cone answers the same way
    with pytest.raises(ValueError, match="^vector entry must be an integer$"):
        RationalCone(2, ((1, 0),)).contains(vector)


def test_dual_cone_takes_int_subclasses() -> None:
    class Int(int):
        pass

    cone = dual_cone([(Int(2), 1), (0, 1)], [(Int(1), 0), (0, 1)])
    assert cone == dual_cone([(2, 1), (0, 1)], identity(2))
    assert cone.contains((Int(1), 0)) and not cone.contains((Int(-1), 0))


def random_pointed_generators(rng: random.Random, m: int, count: int) -> list[tuple[int, ...]]:
    # first coordinate positive keeps the cone inside an open half-space,
    # hence pointed (and its dual full-dimensional)
    return [
        tuple([rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(m - 1)])
        for _ in range(count)
    ]


def primitive_of(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*vec)
    return tuple(x // g for x in vec)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_dual_of_dual_recovers_cone(m: int) -> None:
    rng = random.Random(20260813 + m)
    for _ in range(10):
        gens = random_pointed_generators(rng, m, rng.randint(m, m + 4))
        first = dual_cone(gens, identity(m))
        second = dual_cone(first.generators, identity(m))
        # extremal rays of the original hull are among the inputs...
        assert set(second.generators) <= {primitive_of(g) for g in gens}
        # ...and every input lies back inside the double dual
        assert all(second.contains(g) for g in gens)
        # the involution is then stable
        assert dual_cone(second.generators, identity(m)) == first


def test_dual_cone_meets_time_budgets() -> None:
    # m = 6 with 16 generators inside 0.1 s and m = 8 with 24 inside 1 s;
    # enumerating (m-1)-subsets took about 0.2 s and 41 s
    for m, count, budget in ((6, 16, 0.1), (8, 24, 1.0)):
        rng = random.Random(20260813 + m)
        for _ in range(3):
            gens = random_pointed_generators(rng, m, count)
            start = time.monotonic()
            cone = dual_cone(gens, identity(m))
            elapsed = time.monotonic() - start
            assert cone.is_full_dimensional
            assert elapsed < budget, f"m={m}, {count} generators: {elapsed:.3f}s"


def test_contains_builds_facets_once(monkeypatch) -> None:
    builds = []
    real_dual_cone, real_rank = cones.dual_cone, cones._rank
    monkeypatch.setattr(
        cones, "dual_cone", lambda *args: builds.append("dual_cone") or real_dual_cone(*args)
    )
    monkeypatch.setattr(cones, "_rank", lambda *args: builds.append("_rank") or real_rank(*args))
    cone = RationalCone(2, ((1, 0), (1, 1)))
    fresh = RationalCone(2, ((1, 0), (1, 1)))
    assert cone.contains((2, 1))
    assert builds == ["_rank", "dual_cone"]
    assert not cone.contains((0, 1))
    assert cone.is_full_dimensional
    assert builds == ["_rank", "dual_cone"]
    # the cached facets are not part of the value
    assert cone == fresh and hash(cone) == hash(fresh) and repr(cone) == repr(fresh)


def test_dual_cone_membership_runs_no_second_dual(monkeypatch) -> None:
    builds = []
    real_dual_cone, real_rank = cones.dual_cone, cones._rank
    monkeypatch.setattr(
        cones, "dual_cone", lambda *args: builds.append("dual_cone") or real_dual_cone(*args)
    )
    monkeypatch.setattr(cones, "_rank", lambda *args: builds.append("_rank") or real_rank(*args))
    cone = cones.dual_cone([(2, 1), (0, 1), (4, 2)], identity(2))
    assert cone.contains((1, 0)) and not cone.contains((-1, 0))
    assert cone.is_full_dimensional
    assert builds == ["dual_cone", "_rank"]
    # the kept normals are not part of the value either
    fresh = RationalCone(2, cone.generators)
    assert cone == fresh and hash(cone) == hash(fresh) and repr(cone) == repr(fresh)


def test_dual_cone_normals_answer_as_its_facets() -> None:
    # contains on a dual cone tests the normals it was cut by; a cone with the
    # same generators takes its facets from a second dual_cone instead
    rng = random.Random(1953)
    duals = []
    for m in range(1, 7):
        for _ in range(40):
            gens = random_pointed_generators(rng, m, rng.randint(m, m + 3))
            gens += [rng.choice(gens) for _ in range(2)]  # repeated
            gens.append(tuple(3 * x for x in rng.choice(gens)))  # scaled
            gens.append(tuple(map(sum, zip(*rng.sample(gens, 2)))))  # redundant
            matrix = identity(m)
            if rng.random() < 0.5:
                matrix = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
            try:
                duals.append(dual_cone(gens, matrix))
            except ValueError:
                pass
    for name in ("gw2c5", "g2c5"):
        ds = builtin_dataset(name)
        duals += [cones.nef_cone_of_codim(ds, codim) for codim in range(ds.dimension + 1)]
    duals = [cone for cone in duals if cone.is_full_dimensional]
    assert len(duals) > 200
    for cone in duals:
        m, rays = cone.ambient_dimension, cone.generators
        # 0, each ray, sums of two rays, their negatives and random vectors
        probes = [(0,) * m, *rays]
        probes += [tuple(map(sum, zip(r, s))) for r, s in combinations(rays, 2)]
        probes += [tuple(-x for x in v) for v in probes]
        probes += [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(8)]
        facets = RationalCone(m, rays)
        for v in probes:
            assert cone.contains(v) == facets.contains(v), (cone, v)


def test_rational_cone_validation_and_membership() -> None:
    with pytest.raises(ValueError):
        RationalCone(2, ((0, 0),))
    with pytest.raises(ValueError):
        RationalCone(2, ((1, 0, 0),))
    with pytest.raises(ValueError):
        RationalCone(0, ())
    with pytest.raises(ValueError):
        RationalCone(2, ((0, 1), (1, 0)), ("only-one",))
    orthant = RationalCone(2, ((0, 1), (1, 0)))
    assert orthant.contains((3, 5))
    assert orthant.contains((0, 0))
    assert not orthant.contains((-1, 0))
    with pytest.raises(ValueError):
        orthant.contains((1, 2, 3))
    flat = RationalCone(2, ((1, 0),))
    with pytest.raises(ValueError, match="^membership test needs a full-dimensional cone$"):
        flat.contains((1, 0))
    whole_plane = RationalCone(2, ((-1, 0), (0, -1), (0, 1), (1, 0)))
    assert whole_plane.contains((-7, 9))
    # generators in any order give the sorted cone
    for order in permutations(whole_plane.generators):
        shuffled = RationalCone(2, order)
        assert shuffled.generators == whole_plane.generators
        assert shuffled == whole_plane and hash(shuffled) == hash(whole_plane)
        assert repr(shuffled) == repr(whole_plane)


def test_generator_expressions_formatting() -> None:
    cone = RationalCone(2, ((-1, 1), (1, 2)), ("a", "b"))
    assert cone.generator_expressions() == ["-a + b", "a + 2*b"]
    unlabeled = RationalCone(2, ((1, 0),))
    with pytest.raises(ValueError):
        unlabeled.generator_expressions()


# ---------------------------------------------------------------------------
# Applications


def test_delpezzo5_cones_exact_generators() -> None:
    cones = delpezzo5_cones()
    assert isinstance(cones, DelPezzo5Cones)
    assert cones.nef2.basis_labels == ("tau(2,0)", "tau(3,-1)")
    assert cones.nef2.generators == ((1, 0), (1, 1))
    assert cones.eff2.generators == ((0, 1), (1, 0))
    assert cones.nef3.basis_labels == ("tau(3,0)", "tau(2,1)")
    assert cones.nef3.generators == ((1, 0), (1, 1))
    assert cones.eff3.generators == ((0, 1), (1, 0))
    assert cones.nef2.generator_expressions() == [
        "tau(2,0)",
        "tau(2,0) + tau(3,-1)",
    ]
    assert cones.nef3.generator_expressions() == [
        "tau(3,0)",
        "tau(3,0) + tau(2,1)",
    ]


def test_effective_cone_of_codim_is_the_coordinate_orthant() -> None:
    ds = builtin_dataset("gw2c5")
    eff = effective_cone_of_codim(ds, 2)
    assert eff == RationalCone(2, ((0, 1), (1, 0)), ("tau(2,0)", "tau(3,-1)"))
    assert eff.generator_expressions() == ["tau(3,-1)", "tau(2,0)"]
    with pytest.raises(ValueError, match="no classes of codimension 6"):
        effective_cone_of_codim(ds, 6)


def test_nef_cone_needs_classes_in_both_codimensions() -> None:
    ds = load_dataset(json.dumps(make_doc(classes=make_doc()["classes"][:2], pairings=[])))
    for codim in (0, 2):  # no class of codimension 2
        with pytest.raises(ValueError, match=f"^dataset has no classes of codimension {codim}"
                                             " or its complement$"):
            cones.nef_cone_of_codim(ds, codim)


def paired_dataset(dimension: int, rows: int, columns: int, value: int,
                   point: int = 1) -> CycleDataset:
    """A dataset with rows classes of codimension 1 and columns classes of
    codimension dimension - 1 (the same classes on a surface), every pair of
    them paired to value, and the fundamental class paired to a point."""
    classes = [{"label": "one", "codim": 0}, {"label": "pt", "codim": dimension}]
    classes += [{"label": f"a{i}", "codim": 1} for i in range(rows)]
    pairings = [{"a": "one", "b": "pt", "value": point}]
    if dimension == 2:
        pairings += [{"a": f"a{i}", "b": f"a{j}", "value": value}
                     for i in range(rows) for j in range(i, rows)]
    else:
        classes += [{"label": f"b{j}", "codim": dimension - 1} for j in range(columns)]
        pairings += [{"a": f"a{i}", "b": f"b{j}", "value": value}
                     for i in range(rows) for j in range(columns)]
    return load_dataset(json.dumps({"variety": "X", "dimension": dimension,
                                    "classes": classes, "pairings": pairings}))


def test_cone_limits_count_both_codimensions_and_the_bits_of_their_pairings() -> None:
    for codim in (1, 2):
        cones._check_cone_size(paired_dataset(3, 10, 22, 2**64 - 1), codim)
        cones._check_cone_size(paired_dataset(3, 4, 4, -(2**64 - 1)), codim)
        with pytest.raises(ValueError, match="at most 32 classes"):
            cones._check_cone_size(paired_dataset(3, 10, 23, 1), codim)
        with pytest.raises(ValueError, match="at most 64 bits"):
            cones._check_cone_size(paired_dataset(3, 4, 4, -(2**64)), codim)
    # a codimension paired with itself counts its classes on both sides
    cones._check_cone_size(paired_dataset(2, 16, 16, 1), 1)
    with pytest.raises(ValueError, match="at most 32 classes"):
        cones._check_cone_size(paired_dataset(2, 17, 17, 1), 1)
    # only the pairings of the codimension with its complement are read
    cones._check_cone_size(paired_dataset(3, 4, 4, 1, point=2**100), 1)
    with pytest.raises(ValueError, match="at most 64 bits"):
        cones._check_cone_size(paired_dataset(3, 4, 4, 1, point=2**100), 0)


def test_delpezzo5_nef_inside_effective() -> None:
    cones = delpezzo5_cones()
    assert all(cones.eff2.contains(g) for g in cones.nef2.generators)
    assert all(cones.eff3.contains(g) for g in cones.nef3.generators)
    # strictly smaller: an effective generator escapes the nef cone
    assert not cones.nef2.contains((0, 1))
    assert not cones.nef3.contains((0, 1))


def test_spherical_check_finds_negative_pair_on_fivefold() -> None:
    verdict = spherical_nef_diagonal_check(builtin_dataset("gw2c5"))
    assert verdict.status is Status.NOT_NEF
    assert verdict.reason is Reason.NEGATIVE_EFFECTIVE_PAIR
    assert verdict.witness == {"classes": ["tau(3,-1)", "tau(2,1)"], "value": -1}


def test_spherical_check_passes_on_grassmannian() -> None:
    verdict = spherical_nef_diagonal_check(builtin_dataset("g2c5"))
    assert verdict.status is Status.NEF
    assert verdict.reason is Reason.NON_NEGATIVE_PAIRINGS
    assert verdict.witness == {}


def test_spherical_check_passes_on_toy_dataset() -> None:
    verdict = spherical_nef_diagonal_check(load_dataset(json.dumps(make_doc())))
    assert verdict.status is Status.NEF
