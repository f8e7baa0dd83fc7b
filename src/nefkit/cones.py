"""Cycle-cone computations from pairing datasets of effective cycle classes.

A dataset lists the effective cycle classes of a variety (label, codimension,
optional partition) together with the intersection numbers of classes in
complementary codimension. From that, the nef cone in each codimension is the
dual of the effective cone of the complementary codimension under the pairing
matrix, computed here exactly in integers on exactnum alone. The nef-diagonal
check of a dataset, a verdict like every other, lives in diagonal.

The dual-cone routine is Motzkin's incremental double description (Motzkin,
Raiffa, Thompson and Thrall, 1953): one fraction-free elimination of the
normals beside the identity, [N^T | I], picks m independent normals B and, as
d (B^T)^-1, the rays of their simplicial cone, cut then by each other normal.
Two rays on opposite sides of its hyperplane give a new ray exactly when they
are adjacent, tested combinatorially from the sets of inequalities tight at
each ray (Fukuda and Prodon, "Double description method revisited", 1996):
no third ray is tight on all the inequalities the two share, a scan that
stops at the third tight ray. When either ray is tight on exactly m - 1
inequalities, which are then independent, the at least m - 2 that the two
share cut out a 2-dimensional face whose only rays are the two, so that
count decides the pair without the scan. A dual cone keeps the normals that
cut it out, so its membership test needs no second double description.
"""

from __future__ import annotations

import json
import os
from functools import cache, cached_property
from math import gcd
from operator import mul
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

from .exactnum import _Frozen, _check_int, _digits_in_force

__all__ = [
    "SchemaError",
    "InconsistentPairing",
    "MissingPairing",
    "InvalidPartition",
    "CycleClass",
    "CycleDataset",
    "RationalCone",
    "DelPezzo5Cones",
    "load_dataset",
    "load_dataset_file",
    "builtin_dataset",
    "resolve_dataset",
    "dual_cone",
    "effective_cone_of_codim",
    "nef_cone_of_codim",
    "delpezzo5_cones",
]


class SchemaError(ValueError):
    """A dataset fault: a malformed document or class, or a pairing in conflict or missing."""


class InconsistentPairing(SchemaError):
    """The same unordered pair of classes is listed with conflicting values."""


class MissingPairing(SchemaError, LookupError):
    """A required complementary pairing is absent from the dataset."""


class InvalidPartition(SchemaError):
    """A class's label, codimension or partition breaks the class rules."""


def _key(a: str, b: str) -> tuple[str, str]:
    """The sorted label pair that stores the pairing of classes a and b."""
    return (a, b) if a <= b else (b, a)


class CycleClass(_Frozen):
    """An effective cycle class: a non-empty string label, an integer (not
    bool) codimension and an optional partition, which no computation reads.

    Without a partition the codimension is >= 0. A partition is a list or
    tuple of two integers, stored as a tuple; it is weakly decreasing and
    non-negative, except that the second part may be exactly -1 (the extra
    orbit-closure class of odd symplectic Grassmannians), and its weight is
    the codimension.
    """

    _fields = ("label", "partition", "codim")

    def __init__(self, label: str, partition: Sequence[int] | None, codim: int) -> None:
        if isinstance(partition, Mapping):
            raise InvalidPartition("a partition is a list of parts, not an object")
        if not label or not isinstance(label, str):
            raise InvalidPartition("classes need a non-empty string label")
        if partition is not None:
            if not isinstance(partition, (list, tuple)) or len(partition) != 2:
                raise InvalidPartition(f"{label}: partition must be a list of two integers")
            a, b = partition = tuple(_check_int(part, f"{label}: partition part",
                                                InvalidPartition) for part in partition)
        if _check_int(codim, f"{label}: codim", InvalidPartition) < 0 and partition is None:
            raise InvalidPartition(f"{label}: codim must be >= 0")
        if partition is not None:
            if b == -1:
                if a < 1:
                    raise InvalidPartition(f"{label}: negative tail needs first part >= 1")
            elif not a >= b >= 0:
                raise InvalidPartition(f"{label}: partition must be weakly decreasing, >= 0")
            if codim != a + b:
                raise InvalidPartition(f"{label}: codim {codim} != |partition| {a + b}")
        self._store(label, partition, codim)


class CycleDataset(_Frozen):
    """Named classes plus intersection numbers in complementary codimension.

    Pairings are stored symmetrically under a sorted label key; class order
    follows the document and fixes the coordinate bases downstream. The
    variety is a non-empty string, the dimension an integer, not bool, the
    classes a tuple and the pairings a mapping.
    """

    _fields = ("variety", "dimension", "classes", "pairings")

    def __init__(self, variety: str, dimension: int, classes: tuple[CycleClass, ...],
                 pairings: Mapping[tuple[str, str], int] | None = None) -> None:
        if not isinstance(variety, str) or not variety:
            raise SchemaError("variety must be a non-empty string")
        pairings = {} if pairings is None else pairings
        if not isinstance(pairings, Mapping):
            raise SchemaError("pairings must be a mapping")
        if _check_int(dimension, "dimension", SchemaError) < 0:
            raise SchemaError("dimension must be >= 0")
        if not isinstance(classes, tuple) or not all(isinstance(c, CycleClass) for c in classes):
            raise SchemaError("classes must be a tuple of CycleClass")
        if not classes:
            raise SchemaError("a dataset needs at least one class")
        labels = [c.label for c in classes]
        if len(set(labels)) != len(labels):
            raise SchemaError("class labels must be unique")
        for c in classes:
            if c.codim > dimension:
                raise SchemaError(f"{c.label}: codim {c.codim} exceeds dimension")
        by_label = {c.label: c for c in classes}
        for (la, lb), value in pairings.items():
            if la not in by_label or lb not in by_label:
                raise SchemaError(f"pairing refers to unknown class ({la}, {lb})")
            if (la, lb) != _key(la, lb):
                raise SchemaError("pairing keys must be sorted label pairs")
            if by_label[la].codim + by_label[lb].codim != dimension:
                raise SchemaError(
                    f"pairing ({la}, {lb}) is not of complementary codimension"
                )
            _check_int(value, f"pairing ({la}, {lb})", SchemaError)
        self._store(variety, dimension, classes, pairings)

    def classes_of_codim(self, codim: int) -> tuple[CycleClass, ...]:
        return tuple(c for c in self.classes if c.codim == codim)

    def complementary_pairs(self) -> Iterator[tuple[CycleClass, CycleClass]]:
        """Every unordered complementary-codimension pair, in dataset order,
        one at a time. One pass groups the classes by codimension, so the
        first pair costs work in proportion to the dataset, whatever follows.

        A complete variety pairs at least its fundamental class with a point,
        so a dataset with no such pair raises MissingPairing on the call."""
        by_codim: dict[int, list[CycleClass]] = {}
        for c in self.classes:
            by_codim.setdefault(c.codim, []).append(c)
        codims = sorted(k for k in by_codim
                        if 2 * k <= self.dimension and self.dimension - k in by_codim)
        if not codims:
            raise MissingPairing("no complementary pair of classes: no class, the fundamental"
                                 " class included, has a partner of complementary codimension")

        def pairs() -> Iterator[tuple[CycleClass, CycleClass]]:
            for k in codims:
                front, back = by_codim[k], by_codim[self.dimension - k]
                for i, a in enumerate(front):
                    for b in back[i:] if 2 * k == self.dimension else back:
                        yield a, b

        return pairs()

    def pairing_value(self, label_a: str, label_b: str) -> int:
        key = _key(label_a, label_b)
        if key not in self.pairings:
            raise MissingPairing(f"no pairing recorded for ({label_a}, {label_b})")
        return self.pairings[key]


# The most digits load_dataset reads in an integer under a higher int-to-str
# limit, or none: int() takes time growing with the square of the digits, 7.0 s
# for 1,000,000 of them (Python 3.11, 2-CPU host), which the byte cap admits.
_READ_MAX_DIGITS = 4_300


def load_dataset(text: str) -> CycleDataset:
    """Parse and validate a JSON dataset document.

    Its own checks, each raising SchemaError, cover what the constructors
    cannot see: a document the JSON parser can read (not nested past the
    recursion limit, no integer of more digits than the int-to-str limit or
    _READ_MAX_DIGITS, no object that repeats a key), a top-level object with
    the four fields, classes and pairings given as lists, class entries given
    as objects, and pairing entries with string endpoints a and b and an
    integer value, checked per entry because agreeing duplicates merge.
    Duplicates with conflicting values (including asymmetric duplicates) raise
    InconsistentPairing. CycleClass and CycleDataset check the variety, the
    dimension, each class and each pairing's classes, raising SchemaError or
    its subclass InvalidPartition.
    """
    max_digits = min(_digits_in_force(), _READ_MAX_DIGITS)

    def parse_int(text: str) -> int:  # the text of a JSON integer, sign included
        if len(text) - text.startswith("-") > max_digits:
            raise SchemaError(f"dataset cannot be read: an integer has more than {max_digits}"
                              " digits, too many to read")
        return int(text)

    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys, parse_int=parse_int)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"dataset cannot be read: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("dataset document must be a JSON object")
    for key in ("variety", "dimension", "classes", "pairings"):
        if key not in doc:
            raise SchemaError(f"missing dataset field {key!r}")
    for key in ("classes", "pairings"):
        if not isinstance(doc[key], list):
            raise SchemaError(f"dataset field {key!r} must be a list")
    classes = []
    for raw in doc["classes"]:
        if not isinstance(raw, dict):
            raise SchemaError("each class entry must be an object")
        classes.append(CycleClass(raw.get("label", ""), raw.get("partition"), raw.get("codim")))
    pairings: dict[tuple[str, str], int] = {}
    for raw in doc["pairings"]:
        if not isinstance(raw, dict) or "a" not in raw or "b" not in raw or "value" not in raw:
            raise SchemaError("each pairing needs fields a, b, value")
        if not isinstance(raw["a"], str) or not isinstance(raw["b"], str):
            raise SchemaError("pairing endpoints must be class labels")
        key = _key(raw["a"], raw["b"])
        value = _check_int(raw["value"], f"pairing {key}", SchemaError)
        if key in pairings and pairings[key] != value:
            raise InconsistentPairing(
                f"pairing {key} listed with values {pairings[key]} and {value}"
            )
        pairings[key] = value
    return CycleDataset(doc["variety"], doc["dimension"], tuple(classes), pairings)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object as a dict, or SchemaError naming a key it repeats."""
    doc: dict[str, object] = {}
    for key, value in pairs:
        if key in doc:
            raise SchemaError(f"dataset object repeats the key {key!r}")
        doc[key] = value
    return doc


# The largest dataset file load_dataset_file reads. Parsing takes up to about
# 25 times a file's size in memory: on 4,000,000 bytes of empty or distinct
# class objects `cone check` took at most 0.8 s and 114 MB peak RSS, 165 MB at
# 6,000,000 (Python 3.11, 2-CPU host). The shipped datasets have about 1,200
# bytes, and 8,000 classes in two codimensions about 254,000.
_DATASET_MAX_BYTES = 4_000_000


def load_dataset_file(path: str | Path) -> CycleDataset:
    """Read and load a UTF-8 dataset file, BOM or not; other text raises
    SchemaError, and so, before any parsing, does a file, or a pipe, that
    reads more than _DATASET_MAX_BYTES bytes."""
    with open(path, "rb") as file:
        data = file.read(_DATASET_MAX_BYTES + 1)
    if len(data) > _DATASET_MAX_BYTES:
        raise SchemaError(f"dataset file has more than {_DATASET_MAX_BYTES} bytes, the most"
                          " a dataset may have")
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"dataset cannot be read: {exc}") from exc
    # the newlines of text mode, so a decoder message counts lines as before
    return load_dataset(text.replace("\r\n", "\n").replace("\r", "\n"))


def _json_name(name: str) -> str:
    """The file name of a dataset name, which may leave out the .json suffix."""
    return name if name.endswith(".json") else f"{name}.json"


def builtin_dataset(name: str) -> CycleDataset:
    """Load one of the datasets shipped with the package (e.g. "gw2c5"). A name
    with a directory part, such as "../data/gw2c5", names a file, never a
    shipped dataset, and raises FileNotFoundError "no dataset file named ..."."""
    if Path(name).name != name:
        raise FileNotFoundError(f"no dataset file named {name!r}")
    record = Path(__file__).with_name("data") / _json_name(name)
    if not record.is_file():
        raise FileNotFoundError(f"no shipped dataset named {name!r}")
    return load_dataset_file(record)


def resolve_dataset(name: str) -> CycleDataset:
    """The dataset a name means: the file at that path, else in NEFKIT_DATA, else shipped."""
    if Path(name).is_file():
        return load_dataset_file(name)
    data_dir = os.environ.get("NEFKIT_DATA")
    if data_dir:
        candidate = Path(data_dir) / _json_name(name)
        if candidate.is_file():
            return load_dataset_file(candidate)
    return builtin_dataset(name)


# ---------------------------------------------------------------------------
# Exact linear algebra over small integer matrices


def _check_entries(vectors: Sequence[Sequence[int]], name: str) -> None:
    for vector in vectors:
        for x in vector:
            if type(x) is not int:  # the fast path; _check_int also takes int subclasses
                _check_int(x, f"{name} entry")


def _echelon(rows: Sequence[Sequence[int]], width: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan (Bareiss): returns (matrix, pivot column list).

    Each row but the pivot row takes the update (p*x - f*y) // prev, with p
    the pivot, f the row's entry in the pivot column and prev the previous
    pivot; it is exact because every entry is a minor of the input. Every
    pivot entry ends equal to the last pivot d, so matrix / d is the reduced
    row echelon form.
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for col in range(width):
        rank = len(pivots)
        for pivot_row in range(rank, len(mat)):
            if mat[pivot_row][col]:
                break
        else:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        top = mat[rank]
        p = top[col]
        for i, row in enumerate(mat):
            if i != rank:
                f = row[col]
                mat[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    return mat, pivots


def _rank(rows: Sequence[Sequence[int]], width: int) -> int:
    return len(_echelon(rows, width)[1])


# ---------------------------------------------------------------------------
# Cones


class RationalCone(_Frozen):
    """A polyhedral cone given by its primitive extremal generators.

    Generators are primitive integer vectors, stored sorted lexicographically
    whatever their given order (as CIType sorts its degrees); their
    orientation comes from the pairing convention and is never flipped. A
    cone may legitimately fail to be full-dimensional (for instance the dual
    of a non-pointed effective cone); is_full_dimensional reports that. The
    ambient dimension and every generator entry must be integers, not bool,
    the generators a tuple of tuples, and the basis labels, if given, a
    tuple of strings.
    """

    _fields = ("ambient_dimension", "generators", "basis_labels")

    def __init__(self, ambient_dimension: int, generators: tuple[tuple[int, ...], ...],
                 basis_labels: tuple[str, ...] | None = None) -> None:
        if _check_int(ambient_dimension, "ambient dimension") < 1:
            raise ValueError("ambient dimension must be >= 1")
        if not isinstance(generators, tuple) or not all(isinstance(g, tuple) for g in generators):
            raise ValueError("generators must be a tuple of tuples")
        _check_entries(generators, "generator")
        for g in generators:
            if len(g) != ambient_dimension:
                raise ValueError("generator length must match the ambient dimension")
            if not any(g):
                raise ValueError("generators must be nonzero")
        if basis_labels is not None:
            if not isinstance(basis_labels, tuple) or not all(
                isinstance(label, str) for label in basis_labels
            ):
                raise ValueError("basis labels must be a tuple of strings")
            if len(basis_labels) != ambient_dimension:
                raise ValueError("need one basis label per coordinate")
        self._store(ambient_dimension, tuple(sorted(generators)), basis_labels)

    @cached_property
    def is_full_dimensional(self) -> bool:
        return _rank(self.generators, self.ambient_dimension) == self.ambient_dimension

    @cached_property
    def _facet_normals(self) -> tuple[tuple[int, ...], ...]:
        """Normals n that cut the cone out as {x : <n, x> >= 0 for every n}:
        the irredundant facets of a cone built from generators, found by one
        dual_cone; a dual cone's own normals, maybe redundant, set by dual_cone."""
        return dual_cone(self.generators, _identity(self.ambient_dimension)).generators

    def contains(self, vector: Sequence[int]) -> bool:
        """Exact membership test of an integer vector, for full-dimensional
        cones, against the normals that cut the cone out (_facet_normals)."""
        if len(vector) != self.ambient_dimension:
            raise ValueError("vector length must match the ambient dimension")
        _check_entries((vector,), "vector")
        if not self.is_full_dimensional:
            raise ValueError("membership test needs a full-dimensional cone")
        return all(sum(map(mul, normal, vector)) >= 0 for normal in self._facet_normals)

    def generator_expressions(self) -> list[str]:
        """Generators written in the labeled class basis, e.g. "a + 2*b"."""
        if self.basis_labels is None:
            raise ValueError("this cone has no basis labels")
        out = []
        for g in self.generators:
            terms = []
            for coeff, label in zip(g, self.basis_labels):
                if coeff == 0:
                    continue
                if coeff == 1:
                    terms.append(label)
                elif coeff == -1:
                    terms.append(f"-{label}")
                else:
                    terms.append(f"{coeff}*{label}")
            out.append(" + ".join(terms).replace("+ -", "- "))
        return out


def dual_cone(
    effective_generators: Sequence[Sequence[int]],
    pairing_matrix: Sequence[Sequence[int]],
    basis_labels: tuple[str, ...] | None = None,
) -> RationalCone:
    """Dual of the cone spanned by the given generators, under a pairing.

    The pairing matrix has one row per coordinate of the dual side and one
    column per coordinate of the effective side; the result is the cone
    {x : <x, M g> >= 0 for every generator g}, described by its primitive
    extremal rays. Generator and matrix entries must be integers, not bool.
    Raises ValueError when that dual contains a whole line (non-pointed
    duals have no extremal-ray description). One elimination of [N^T | I],
    N the normals M g, picks base normals B and leaves d (B^T)^-1, d the last
    pivot; its row r times the sign of d is the start ray opposite B[r]. Each
    other normal then cuts the rays in one pass; a positive and a negative
    ray sharing at least m - 2 tight normals are adjacent when either is
    tight on exactly m - 1, and otherwise unless a third ray is tight on
    every normal tight at both, a scan over the rays that stops at the third
    tight one (the two themselves are the first two). The result keeps the
    distinct nonzero normals as the inequalities that contains tests.
    """
    matrix = [tuple(row) for row in pairing_matrix]
    _check_entries(matrix, "pairing matrix")
    if not matrix or not matrix[0]:
        raise ValueError("pairing matrix must be non-empty")
    m = len(matrix)
    width = len(matrix[0])
    if any(len(row) != width for row in matrix):
        raise ValueError("pairing matrix must be rectangular")
    gens = [tuple(g) for g in effective_generators]
    _check_entries(gens, "generator")
    if not gens:
        raise ValueError("need at least one effective generator")
    for g in gens:
        if len(g) != width:
            raise ValueError("generator length must match the pairing matrix columns")
        if not any(g):
            raise ValueError("effective generators must be nonzero")
    normals = [tuple([sum(map(mul, row, g)) for row in matrix]) for g in gens]
    normals = list(dict.fromkeys(normal for normal in normals if any(normal)))
    if not normals:
        raise ValueError("every generator pairs to zero; the dual is all of space")
    k = len(normals)
    mat, base = _echelon([col + unit for col, unit in zip(zip(*normals), _identity(m))], k)
    if len(base) < m:
        raise ValueError("dual cone contains a linear subspace")
    sign = 1 if mat[0][base[0]] > 0 else -1
    # Each ray is kept with the bitmask of the processed normals tight at it.
    rays: list[tuple[tuple[int, ...], int]] = []
    base_mask = sum(1 << j for j in base)
    for j, row in zip(base, mat):
        g = sign * gcd(*row[k:])
        rays.append((tuple([x // g for x in row[k:]]), base_mask & ~(1 << j)))
    for j, a in enumerate(normals):
        if j in base:
            continue
        bit = 1 << j
        kept, positive, negative = [], [], []
        for ray, mask in rays:
            dot = sum(map(mul, a, ray))
            if dot > 0:
                kept.append((ray, mask))
                positive.append((ray, mask, dot, mask.bit_count() == m - 1))
            elif dot < 0:
                negative.append((ray, mask, dot, mask.bit_count() == m - 1))
            else:
                kept.append((ray, mask | bit))
        for p, p_mask, ap, p_simple in positive:
            for n, n_mask, an, n_simple in negative:
                common = p_mask & n_mask
                if common.bit_count() < m - 2:
                    continue
                # a ray tight on exactly m - 1 normals makes the pair adjacent;
                # otherwise it is adjacent unless a third ray is tight on all of common
                if not (p_simple or n_simple):
                    tight = 0
                    for _, mask in rays:
                        if mask & common == common:
                            tight += 1
                            if tight == 3:
                                break
                    if tight == 3:
                        continue
                ray = [ap * y - an * x for x, y in zip(p, n)]
                g = gcd(*ray)
                kept.append((tuple([x // g for x in ray]), common | bit))
        rays = kept
    cone = RationalCone(m, tuple([ray for ray, _ in rays]), basis_labels)
    # the cached-property slot that contains reads, filled as cached_property would
    vars(cone)["_facet_normals"] = tuple(normals)
    return cone


# ---------------------------------------------------------------------------
# Applications to the shipped datasets

@cache
def _identity(m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def effective_cone_of_codim(ds: CycleDataset, codim: int) -> RationalCone:
    """Effective cone in the given codimension: the simplicial cone spanned
    by the dataset's classes, in their own coordinate basis."""
    classes = ds.classes_of_codim(_check_int(codim, "codim"))
    if not classes:
        raise ValueError(f"dataset has no classes of codimension {codim}")
    labels = tuple(c.label for c in classes)
    return RationalCone(len(classes), _identity(len(classes)), labels)


def nef_cone_of_codim(ds: CycleDataset, codim: int) -> RationalCone:
    """Nef cone in the given codimension: dual of the effective cone of the
    complementary codimension under the dataset's pairing matrix, read from
    the dataset's pairings through pairing_value. A missing pairing raises
    MissingPairing naming the first missing entry, row class first."""
    if not 0 <= _check_int(codim, "codim") <= ds.dimension:
        raise ValueError(f"codimension must lie in 0..{ds.dimension}")
    rows = ds.classes_of_codim(codim)
    cols = ds.classes_of_codim(ds.dimension - codim)
    if not rows or not cols:
        raise ValueError(f"dataset has no classes of codimension {codim} or its complement")
    row_labels = tuple(c.label for c in rows)
    matrix = [[ds.pairing_value(a, c.label) for c in cols] for a in row_labels]
    return dual_cone(_identity(len(cols)), matrix, row_labels)


# The limits of cone dual, checked before the double description runs. The
# nef cone in a codimension has one coordinate per class of it, m, and one
# inequality per class of the complement, k; by the upper bound theorem it
# has up to about k^((m - 1)/2) rays, as many as when the pairings lie on the
# moment curve, and the double description compares them in pairs, on
# numbers that grow with the bits of the pairings. On such datasets (Python
# 3.11 on a 2-CPU host) the slowest command with m + k = 32 took 0.8 s
# (m = 10, k = 22: 4,760 rays) and with m + k = 34 2.0 s; at m + k = 32,
# dual_cone took 0.5 s on pairings of 64 bits and 2.2 s on 256 bits, and
# 4,000-digit pairings did not finish in a minute at m + k = 24.
_CONE_MAX_CLASSES = 32
_CONE_MAX_PAIRING_BITS = 64


def _check_cone_size(ds: CycleDataset, codim: int) -> None:
    """ValueError naming the limit that the nef cone of ds in codim breaks."""
    classes = (*ds.classes_of_codim(codim), *ds.classes_of_codim(ds.dimension - codim))
    if len(classes) > _CONE_MAX_CLASSES:
        raise ValueError("the codimension and its complement must have at most"
                         f" {_CONE_MAX_CLASSES} classes together, the most cone dual takes")
    labels = {c.label for c in classes}
    if any(abs(value).bit_length() > _CONE_MAX_PAIRING_BITS
           for (a, b), value in ds.pairings.items() if a in labels and b in labels):
        raise ValueError("the pairings of the codimension with its complement must have at most"
                         f" {_CONE_MAX_PAIRING_BITS} bits, the most cone dual takes")


class DelPezzo5Cones(NamedTuple):
    nef2: RationalCone
    eff2: RationalCone
    nef3: RationalCone
    eff3: RationalCone


def delpezzo5_cones() -> DelPezzo5Cones:
    """Nef and effective cones in codimensions 2 and 3 of the degree-5
    del Pezzo fivefold, from the shipped pairing dataset.

    Effective cones are spanned by the orbit-closure classes themselves (the
    coordinate basis); each nef cone is the dual of the complementary
    effective cone under the pairing matrix.
    """
    ds = builtin_dataset("gw2c5")
    return DelPezzo5Cones(
        nef2=nef_cone_of_codim(ds, 2),
        eff2=effective_cone_of_codim(ds, 2),
        nef3=nef_cone_of_codim(ds, 3),
        eff3=effective_cone_of_codim(ds, 3),
    )
