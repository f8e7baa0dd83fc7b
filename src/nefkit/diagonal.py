"""Nef-diagonal verdicts with machine-checkable witnesses.

The paper's three criteria live here: complete intersections (with curves),
del Pezzo manifolds, and spherical varieties from a pairing dataset. Each
reason certifies one status (_STATUS_OF), and _verdict alone builds a
Verdict, from a named _Step of this module: the complete intersection chain,
the curves, the del Pezzo rows and the two pairing steps of the spherical
check. _chain alone turns chi into a step, for verdict_ci, verdict_curve,
del Pezzo rows 1 and 2 and scan_ci, in priority order (structural families,
exception steps, the sign of the diagonal self-intersection, the projection
bound); scan_ci runs it with its witness laws over a grid and builds no
Verdict. The chain's degree-only part is data, the table _DEGREE_STEPS beside
_CURVES and DELPEZZO_TABLE, looked up once per degree tuple; its per-n part
runs once per case. The module also hosts the Poincare polynomial
obstruction to fibering an intersection of two quadrics in projective lines.
It names cones.CycleDataset only for type checking, so it never loads cones.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from .chern import (CIType, _check_formula_size, betti_ci, euler_ci_formula, euler_ci_rows,
                    euler_delpezzo_closed)
from .exactnum import _Frozen, _check_int, _printable_bits

if TYPE_CHECKING:
    from .cones import CycleDataset

__all__ = [
    "Status", "Reason", "Verdict", "InvalidDelPezzo", "ScanViolation", "DelPezzoRow",
    "DELPEZZO_TABLE", "FibrationObstruction", "ScanReport", "UNCLASSIFIED_REFERENCE",
    "OPEN_TWO_QUADRICS_REFERENCE", "verdict_curve", "verdict_ci", "verdict_delpezzo",
    "nef_big_filter", "spherical_nef_diagonal_check", "cp_fibration_obstruction", "scan_ci",
]


class Status(str, Enum):
    NOT_NEF = "NotNef"
    NEF = "Nef"
    OPEN = "Open"


class Reason(str, Enum):
    NEGATIVE_SELF_INTERSECTION = "NegativeSelfIntersection"
    PROJECTION_BOUND = "ProjectionBound"
    NEGATIVE_EFFECTIVE_PAIR = "NegativeEffectivePair"
    BIRATIONAL_CONTRACTION = "BirationalContraction"
    HOMOGENEOUS = "Homogeneous"
    FAKE_PROJECTIVE_SPACE = "FakeProjectiveSpace"
    GROUP_VARIETY = "GroupVariety"
    OPEN_QUESTION = "OpenQuestion"
    K3_SURFACE = "K3Surface"
    NON_NEGATIVE_PAIRINGS = "NonNegativePairings"


# The one status each reason certifies, which every Verdict of the reason takes.
_STATUS_OF = {
    Reason.NEGATIVE_SELF_INTERSECTION: Status.NOT_NEF,
    Reason.PROJECTION_BOUND: Status.NOT_NEF,
    Reason.NEGATIVE_EFFECTIVE_PAIR: Status.NOT_NEF,
    Reason.BIRATIONAL_CONTRACTION: Status.NOT_NEF,
    Reason.K3_SURFACE: Status.NOT_NEF,
    Reason.HOMOGENEOUS: Status.NEF,
    Reason.FAKE_PROJECTIVE_SPACE: Status.NEF,
    Reason.GROUP_VARIETY: Status.NEF,
    Reason.NON_NEGATIVE_PAIRINGS: Status.NEF,
    Reason.OPEN_QUESTION: Status.OPEN,
}
# Read from Reason once, as a member lookup costs about 14 times a global on
# Python 3.11: the two members of _chi_witness_error, which scan_ci runs per case.
_NEGATIVE_SELF_INTERSECTION = Reason.NEGATIVE_SELF_INTERSECTION
_PROJECTION_BOUND = Reason.PROJECTION_BOUND


class Verdict(_Frozen):
    """Outcome of a nef-diagonal test.

    Every NotNef verdict carries a witness a referee can re-check: a negative
    intersection number, a violated numeric bound, or a named table entry.
    Nef and Open verdicts carry the structural reason or the open reference.
    The status is the one that the reason certifies (_STATUS_OF).
    """

    _fields = ("status", "reason", "detail", "witness")

    def __init__(self, reason: Reason, detail: str,
                 witness: Mapping[str, object] | None = None) -> None:
        w = {} if witness is None else witness
        if not isinstance(reason, Reason):
            raise ValueError(f"unknown reason {reason!r}")
        error = _chi_witness_error(reason, w.get("chi"), w.get("bound"))
        if error:
            raise ValueError(error)
        if reason is Reason.NEGATIVE_EFFECTIVE_PAIR:
            classes = w.get("classes")
            if not (isinstance(classes, (list, tuple)) and len(classes) == 2
                    and all(isinstance(label, str) for label in classes)):
                raise ValueError("NegativeEffectivePair needs a pair of class names")
            if type(w.get("value")) is not int or w["value"] >= 0:
                raise ValueError("NegativeEffectivePair needs witness value < 0")
        elif reason is Reason.K3_SURFACE:
            if not w.get("table_entry"):
                raise ValueError("K3Surface verdicts must name their table entry")
        elif reason is Reason.BIRATIONAL_CONTRACTION:
            if not w.get("contraction"):
                raise ValueError("BirationalContraction must name the contraction")
        elif reason is Reason.OPEN_QUESTION:
            if not w.get("reference"):
                raise ValueError("Open verdicts must carry a reference id")
        self._store(_STATUS_OF[reason], reason, detail, w)

    def to_payload(self) -> dict:
        return {
            "status": self.status.value,
            "reason": self.reason.value,
            "detail": self.detail,
            "witness": dict(self.witness),
        }


def _chi_witness_error(reason: Reason, chi: object, bound: object) -> str | None:
    """Why chi and bound cannot witness a verdict with this reason, or None:
    the chi witness laws that Verdict enforces and scan_ci checks per case."""
    if reason is _NEGATIVE_SELF_INTERSECTION:
        if type(chi) is not int or chi >= 0:
            return "NegativeSelfIntersection needs witness chi < 0"
    elif reason is _PROJECTION_BOUND:
        if not (type(chi) is int and type(bound) is int):
            return "ProjectionBound needs integer chi and bound"
        if chi <= bound:
            return "ProjectionBound witness must have chi > bound"
    return None


def _number(x: int) -> str:
    """x in decimal within exactnum._printable_bits(), else by its sign and bit length."""
    return (str(x) if x.bit_length() <= _printable_bits() else
            f"({'negative' if x < 0 else 'positive'} integer of {x.bit_length()} bits)")


class _Step(NamedTuple):
    """A verdict a module issues, named after its criterion. A fixed step
    holds the verdict's detail and witness; a step that reads numbers names
    them, as its witness keys, and its detail is a template over them."""

    name: str
    reason: Reason
    detail: str = ""
    witness: Mapping[str, object] = {}
    numbers: tuple[str, ...] = ()


def _verdict(step: _Step, **values: object) -> Verdict:
    """The Verdict of a step: its fixed witness, with lists copied so no
    caller can edit the table, plus the values it names in numbers; its
    detail is its template over the values, every int through _number."""
    witness = {key: list(value) if isinstance(value, list) else value
               for key, value in step.witness.items()}
    witness.update((key, values[key]) for key in step.numbers)
    detail = step.detail.format_map({key: _number(value) if isinstance(value, int) else value
                                     for key, value in values.items()})
    return Verdict(step.reason, detail, witness)


# Stable reference ids carried by Open verdicts.
OPEN_TWO_QUADRICS_REFERENCE = "odd-intersection-of-two-quadrics"
UNCLASSIFIED_REFERENCE = "unclassified-by-implemented-criteria"


class ScanViolation(Exception):
    """A scan law failed; this signals an implementation bug, not bad input."""

    def __init__(self, law: str, subject: object, message: str) -> None:
        super().__init__(f"{law} violated at {subject}: {message}")
        self.law = law
        self.subject = subject


# ---------------------------------------------------------------------------
# Complete intersections and curves


def _check_curve_size(genus: int) -> None:
    """ValueError naming verdict curve's limit if chi = 2 - 2 genus, or genus, would not print."""
    max_bits = _printable_bits(None)
    if (2 - 2 * genus).bit_length() > max_bits:
        raise ValueError(f"--genus g must have |2 - 2 g| below 2^{max_bits}, the most bits that"
                         " print under the int-to-str limit in force")


def verdict_curve(genus: int) -> Verdict:
    """Nef-diagonal verdict for a smooth projective curve of the given genus, by _chain."""
    if _check_int(genus, "genus") < 0:
        raise ValueError("genus must be a non-negative integer")
    step, chi, _ = _chain(None, 1, {1: 2 - 2 * genus}, 0)
    return _verdict(step, chi=chi, genus=genus)


def verdict_ci(ci: CIType) -> Verdict:
    """Classify the diagonal of a smooth complete intersection.

    Positive structural families come first (projective space, quadrics,
    curves of genus <= 1, the open odd-dimensional (2,2) family), then the
    exception steps, then the sign test, then the projection bound. Inside
    the scanned classification range the final fallback never fires. The
    Verdict is built once, from the step of that chain that fired. chi comes
    from the formula route, within its limit, and only if _chain reads it.
    """
    if ci.dimension < 1:
        raise ValueError("verdict_ci needs dimension >= 1")

    def formula_chi() -> int:  # chi, computed when _chain reads it
        _check_formula_size(ci)
        return euler_ci_formula(ci)

    step, chi, bound = _chain(_DEGREE_STEPS.get(ci.degrees), ci.dimension,
                              defaultdict(formula_chi), ci.degree_product)
    genus = None if chi is None else 1 - chi // 2
    return _verdict(step, chi=chi, bound=bound, cover_degree=ci.degree_product, genus=genus)


_PROJECTIVE_SPACE = _Step("projective space", Reason.HOMOGENEOUS,
                          "projective space is a homogeneous variety")
_QUADRIC = _Step("quadric", Reason.HOMOGENEOUS, "a smooth quadric is a homogeneous variety")
_OPEN_TWO_QUADRICS = _Step("open (2,2)", Reason.OPEN_QUESTION,
                           "whether an odd-dimensional smooth intersection of two quadrics has"
                           " nef diagonal is an open problem for every dimension >= 3",
                           {"reference": OPEN_TWO_QUADRICS_REFERENCE})
_EVEN_TWO_QUADRICS = _Step("exception table", Reason.NEGATIVE_EFFECTIVE_PAIR,
                           "an even-dimensional intersection of two quadrics carries"
                           " middle-dimensional linear subspaces with deg Lambda_1.Lambda_2 = -1",
                           {"classes": ["Lambda_1", "Lambda_2"], "value": -1})
_K3_DETAIL = ("a 2-dimensional intersection of three quadrics is a K3 surface, and K3 surfaces"
              " never have nef diagonal")
# The complete intersections that the degrees alone decide, as the triple
# _chain unpacks: the step at every n, the steps at even and at odd n >= 2
# and the step at n = 2. Even-dimensional (2,2), the cubic surface and the K3
# are the exceptions that the sign and bound tests cannot catch.
_DEGREE_STEPS = {
    (): (_PROJECTIVE_SPACE, None, None),
    (2,): (_QUADRIC, None, None),
    (2, 2): (None, (_EVEN_TWO_QUADRICS, _OPEN_TWO_QUADRICS), None),
    (3,): (None, None, _Step("exception table", Reason.NEGATIVE_EFFECTIVE_PAIR,
                             "a smooth cubic surface contains a (-1)-curve, an effective class"
                             " of negative self-intersection",
                             {"classes": ["(-1)-curve", "(-1)-curve"], "value": -1})),
    (2, 2, 2): (None, None, _Step("exception table", Reason.K3_SURFACE, _K3_DETAIL,
                                  {"table_entry": _K3_DETAIL})),
}
# The curve steps by genus; _chain gives any other genus _CURVE, whose witness law needs chi < 0.
_CURVES = {0: _Step("curve", Reason.HOMOGENEOUS,
                    "a genus-0 curve is the projective line, a homogeneous variety"),
           1: _Step("curve", Reason.GROUP_VARIETY,
                    "a genus-1 curve is an elliptic curve, hence a group variety")}
_CURVE = _Step("curve", Reason.NEGATIVE_SELF_INTERSECTION,
               "deg Delta^2 = chi = {chi} < 0 on a curve of genus {genus}",
               numbers=("chi", "genus"))
_SIGN = _Step("sign", Reason.NEGATIVE_SELF_INTERSECTION,
              "deg Delta^2 = chi = {chi} < 0", numbers=("chi",))
_BOUND = _Step("projection bound", Reason.PROJECTION_BOUND,
               "chi = {chi} exceeds (n+1) deg X = {bound}, impossible for a nef"
               " diagonal under linear projection to P^n",
               numbers=("chi", "bound", "cover_degree"))
_UNCLASSIFIED = _Step("unclassified", Reason.OPEN_QUESTION,
                      "no implemented criterion decides this type",
                      {"reference": UNCLASSIFIED_REFERENCE})


def _chain(steps: tuple[_Step | None, tuple[_Step, _Step] | None, _Step | None] | None, n: int,
           chis: Sequence[int] | Mapping[int, int], cover_degree: int,
           bound_step: _Step = _BOUND) -> tuple[_Step, int | None, int | None]:
    """The per-n part of the priority chain at n, for an entry of _DEGREE_STEPS
    (None for every other tuple) and the degree of a cover of P^n: the step
    that fired, chi if it read chi, and the bound (n+1) cover_degree, past
    which bound_step fires, if it computed one. It reads chis[n] at most once,
    so the structural families and exception steps stay instant at any n."""
    if steps is not None:
        every, by_parity, surface = steps
        if every:
            return every, None, None
        if by_parity and n > 1:  # a curve takes the curve step
            return by_parity[n % 2], None, None
        if n == 2 and surface:
            return surface, None, None
    if n == 1:
        chi = chis[n]
        if chi % 2:
            raise AssertionError("the Euler characteristic of a curve must be even")
        return _CURVES.get((2 - chi) // 2, _CURVE), chi, None
    chi = chis[n]
    if chi < 0:
        return _SIGN, chi, None
    bound = (n + 1) * cover_degree
    return (bound_step if chi > bound else _UNCLASSIFIED), chi, bound


# ---------------------------------------------------------------------------
# Del Pezzo manifolds (index n-1), classified by degree 1..7


class InvalidDelPezzo(ValueError):
    """(dimension, degree) is not a del Pezzo manifold of the classification."""


class DelPezzoRow(_Frozen):
    """The del Pezzo manifolds of one degree and how their verdicts are
    decided: by the closed-form chi on a cover of P^n of degree cover(n), or
    as complete intersections of type ci_degrees, both for every n >= 3, or by
    steps keyed by the consecutive dimensions the row exists in, whose detail
    may echo a label of variant_dimensions (label to dimension) as {variant}."""

    _fields = ("degree", "description", "cover", "ci_degrees", "steps", "variant_dimensions")

    def __init__(self, degree: int, description: str, cover: Callable[[int], int] | None = None,
                 ci_degrees: tuple[int, ...] = (), steps: Mapping[int, _Step] | None = None,
                 variant_dimensions: Mapping[str, int] | None = None) -> None:
        self._store(degree, description, cover, ci_degrees, {} if steps is None else steps,
                    {} if variant_dimensions is None else variant_dimensions)

    @property
    def dimensions(self) -> str:
        ns = sorted(self.steps)
        if len(ns) > 2:
            return f"{ns[0]} <= n <= {ns[-1]}"
        return " or ".join(f"n = {n}" for n in ns) or "n >= 3"

    def admits(self, n: int) -> bool:
        return n in self.steps if self.steps else n >= 3


_COVER_BOUND = _Step("cover bound", Reason.PROJECTION_BOUND,
                     "chi = {chi} exceeds (n+1) * {cover_degree} = {bound}, impossible for"
                     " a nef diagonal on a degree-{cover_degree} cover of P^n",
                     numbers=("chi", "bound", "cover_degree"))

DELPEZZO_TABLE: tuple[DelPezzoRow, ...] = (
    DelPezzoRow(1, "a weighted hypersurface of degree 6 in P(3,2,1,...,1)",
                cover=lambda n: 2**n),
    DelPezzoRow(2, "a weighted hypersurface of degree 4 in P(2,1,...,1)", cover=lambda n: 2),
    DelPezzoRow(3, "a cubic hypersurface in P^(n+1)", ci_degrees=(3,)),
    DelPezzoRow(4, "a complete intersection of two quadrics in P^(n+2)", ci_degrees=(2, 2)),
    DelPezzoRow(5, "a linear section of the Grassmannian G(2,C^5) in its Pluecker embedding"
                " in P^9", steps={
        3: _Step("del Pezzo", Reason.FAKE_PROJECTIVE_SPACE,
                 "the degree-5 del Pezzo threefold has the sheaf-theoretic positivity of"
                 " projective space (it is a fake projective space in the diagonal sense)"),
        4: _Step("del Pezzo", Reason.NEGATIVE_EFFECTIVE_PAIR,
                 "two effective families of planes pair negatively:"
                 " deg sigma(3,1).sigma(2,2) = -1",
                 {"classes": ["sigma(3,1)", "sigma(2,2)"], "value": -1}),
        5: _Step("del Pezzo", Reason.NEGATIVE_EFFECTIVE_PAIR,
                 "two effective orbit-closure classes pair negatively:"
                 " deg tau(3,-1).tau(2,1) = -1",
                 {"classes": ["tau(3,-1)", "tau(2,1)"], "value": -1}),
        6: _Step("del Pezzo", Reason.HOMOGENEOUS,
                 "the Grassmannian G(2,C^5) is a homogeneous variety")}),
    DelPezzoRow(6, "P^1 x P^1 x P^1, P^2 x P^2, or P(T_P2)",
                steps=dict.fromkeys((3, 4), _Step(
                    "del Pezzo", Reason.HOMOGENEOUS,
                    "every degree-6 del Pezzo manifold{variant} is a homogeneous variety")),
                variant_dimensions={"P1xP1xP1": 3, "P2xP2": 4, "P(T_P2)": 3}),
    DelPezzoRow(7, "the blow-up of P^3 at a point", steps={3: _Step(
        "del Pezzo", Reason.BIRATIONAL_CONTRACTION,
        "the blow-up of P^3 at a point admits an extremal birational contraction",
        {"contraction": "blow-down of the exceptional divisor to a point of P^3"})}),
)


def _delpezzo_row(n: int, degree: int) -> DelPezzoRow:
    _check_int(n, "dimension")
    if not 1 <= _check_int(degree, "degree") <= len(DELPEZZO_TABLE):
        raise InvalidDelPezzo(f"no del Pezzo manifold of degree {degree}")
    row = DELPEZZO_TABLE[degree - 1]
    if not row.admits(n):
        raise InvalidDelPezzo(f"degree {degree} del Pezzo manifolds only exist for"
                              f" {row.dimensions}")
    return row


# log2 5 and log2 3 in billionths, 1.1e-10 and 2.8e-10 above them, and log2 3 less
# 7.2e-10. For n >= 3 |chi| <= (5^n + 3n + 2) / 3 on row 1, (3^(n+1) + 4n + 5) / 4 on
# row 2, and n < bits, the bits that print (2,126 or more); where n log2 5 <= bits +
# log2 3 - 7e-10, or (n + 1) log2 3 <= bits + 2 - 1e-9, the power is below 3 2^bits,
# or 4 2^bits, by more than 2^(bits - 31) > 4n + 5, so |chi| < 2^bits and chi prints.
_LOG2_5_UP, _LOG2_3_UP, _LOG2_3_DOWN = 2_321_928_095, 1_584_962_501, 1_584_962_500


def _check_delpezzo_size(n: int, degree: int) -> None:
    """ValueError naming the limit of del Pezzo row 1 or 2 if chi of the n-fold may not print."""
    max_bits = _printable_bits(None)
    limit = ((max_bits * 10**9 + _LOG2_3_DOWN) // _LOG2_5_UP if degree == 1 else
             (max_bits + 2) * 10**9 // _LOG2_3_UP - 1)
    if n > limit:
        raise ValueError(f"dimension must be at most {limit} for degree {degree}: past it chi"
                         " may not print under the int-to-str limit in force")


def verdict_delpezzo(n: int, degree: int, variant: str | None = None) -> Verdict:
    """Nef-diagonal verdict for the del Pezzo manifold of the given data.

    The optional variant label (degree 6 comes in three varieties) must name
    a manifold of the row of dimension n, or InvalidDelPezzo is raised. It is
    echoed in the detail text only; it never changes the verdict. Degrees 1
    and 2 raise ValueError before any work past the dimension at which
    _check_delpezzo_size can no longer bound chi by the bits that print.
    """
    row = _delpezzo_row(n, degree)
    if variant is not None and row.variant_dimensions.get(variant) != n:
        raise InvalidDelPezzo(f"variant {variant!r} names no degree-{degree} del Pezzo"
                              f" manifold of dimension {n}")
    if row.cover:
        _check_delpezzo_size(n, degree)
        cover = row.cover(n)
        step, chi, bound = _chain(None, n, {n: euler_delpezzo_closed(n, degree)}, cover,
                                  _COVER_BOUND)
        return _verdict(step, chi=chi, bound=bound, cover_degree=cover)
    if row.ci_degrees:
        return verdict_ci(CIType(row.ci_degrees, n))
    return _verdict(row.steps[n], variant=f" ({variant})" if variant else "")


def nef_big_filter(kind: str, params: object) -> bool:
    """True exactly on the varieties whose diagonal is both nef and big.

    kind "ci": params is a CIType; true for projective space and
    odd-dimensional quadrics. kind "delpezzo": params is (dimension, degree);
    true where the table's step is a fake projective space (the degree-5 threefold).
    """
    if kind == "ci":
        if not isinstance(params, CIType):
            raise ValueError("kind 'ci' needs a CIType parameter")
        if params.codimension == 0:
            return True
        return params.degrees == (2,) and params.dimension % 2 == 1
    if kind == "delpezzo":
        try:
            n, degree = params  # type: ignore[misc]
        except (TypeError, ValueError) as exc:
            raise ValueError("kind 'delpezzo' needs (dimension, degree)") from exc
        step = _delpezzo_row(n, degree).steps.get(n)
        return step is not None and step.reason is Reason.FAKE_PROJECTIVE_SPACE
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Spherical varieties, from a pairing dataset of orbit-closure classes

# The verdicts of spherical_nef_diagonal_check on a pairing dataset.
_NEGATIVE_PAIRING = _Step("pairing", Reason.NEGATIVE_EFFECTIVE_PAIR,
                          "effective classes {classes[0]} and {classes[1]} pair to {value}",
                          numbers=("classes", "value"))
_NON_NEGATIVE_PAIRINGS = _Step("pairing", Reason.NON_NEGATIVE_PAIRINGS,
                               "every complementary pairing of effective classes is non-negative,"
                               " which certifies a nef diagonal on a spherical variety")


def spherical_nef_diagonal_check(ds: CycleDataset) -> Verdict:
    """Nef-diagonal test for a spherical variety from its pairing table.

    On a spherical variety the diagonal is nef exactly when every pairing of
    complementary effective (orbit-closure) classes is non-negative. The
    first negative pair in dataset order is returned as the witness; a
    missing required pairing, or no complementary pair, raises MissingPairing.
    Both verdicts come from the two pairing steps above.
    """
    for a, b in ds.complementary_pairs():
        value = ds.pairing_value(a.label, b.label)
        if value < 0:
            return _verdict(_NEGATIVE_PAIRING, classes=[a.label, b.label], value=value)
    return _verdict(_NON_NEGATIVE_PAIRINGS)


# ---------------------------------------------------------------------------
# Poincare polynomial obstruction to P^1-fibrations


def _at_i(p: list[int]) -> tuple[int, int]:
    """p(i) as (real part, imaginary part), for integer coefficients p[k] of t^k."""
    return sum(p[0::4]) - sum(p[2::4]), sum(p[1::4]) - sum(p[3::4])


class FibrationObstruction(_Frozen):
    """Why a (2n+1)-dim intersection of two quadrics is no P^1-bundle over
    anything with the Betti numbers of a 2(n-1)-dim one as fiber factor.

    If the total space fibered in projective lines compatibly, its signed
    Poincare polynomial would be divisible by p(P^1) = 1 + t^2 times the
    fiber polynomial; the remainder below is nonzero, so it is not.
    """

    _fields = ("n", "total_dimension", "p_total", "p_fiber", "remainder")

    @property
    def nonzero(self) -> bool:
        return any(self.remainder)


def cp_fibration_obstruction(n: int) -> FibrationObstruction:
    """Obstruction report for the (2n+1)-dimensional intersection of two quadrics.

    The candidate fiber is the 2(n-1)-dimensional intersection of two
    quadrics; in the degenerate case n = 1 that is four points, so the fiber
    polynomial is the constant 4. The product of the two signed Poincare
    polynomials is reduced modulo 1 + t^2 and the remainder is certified
    nonzero. The remainder of p is a + b*t where a + b*i = p(i), so it is the
    product of the two values at t = i, with a zero t coefficient dropped.

    For every n the remainder is (0, (2n+2) * 4 ceil(n/2)). The recursion
    chi(2, d..; m) = 2 chi(d..; m) - chi(2, d..; m-1) gives chi(2; m) = m + 1
    + [m even], so chi(2,2; m) is 0 at odd m and 4k + 4 at m = 2k, and the
    middle Betti number is 2n + 2 on both the total space and the fiber. Off
    the middle, b_k = 1 at even k, with (-i)^k = (-1)^(k/2): these terms
    cancel in pairs on the total space, leaving p_total(i) = (-1)^(n+1)
    (2n+2) i, and sum to 1 - (-1)^(n-1) on the fiber, so p_fiber(i) = 1 +
    (-1)^(n-1) (2n+1), which is 2n + 2 at odd n (4 at n = 1) and -2n at even
    n. Their product is (2n+2) * 4 ceil(n/2) i.
    """
    if _check_int(n, "n") < 1:
        raise ValueError("n must be a positive integer")
    p_total = betti_ci(CIType((2, 2), 2 * n + 1)).poincare
    p_fiber = [4] if n == 1 else betti_ci(CIType((2, 2), 2 * (n - 1))).poincare
    (a, b), (c, d) = _at_i(p_total), _at_i(p_fiber)
    real, imaginary = a * c - b * d, a * d + b * c
    report = FibrationObstruction(
        n=n,
        total_dimension=2 * n + 1,
        p_total=tuple(p_total),
        p_fiber=tuple(p_fiber),
        remainder=(real, imaginary) if imaginary else (real,),
    )
    if not report.nonzero:
        raise AssertionError("the fibration obstruction must not vanish")
    return report


# ---------------------------------------------------------------------------
# Scans

# The limits of scan ci, checked before the walk. A scan costs about 0.6 to
# 0.9 us a case (Python 3.11 on a 2-CPU host), so 2,000,000 cases take under
# 2 s. chi of a case of dimension n and codimension r has O((n + r) log max
# degree) bits, and the walk holds up to r + 1 rows of them, so the case count
# alone does not bound memory: capping n + r, the dimension of the ambient
# projective space, at 1,000 keeps a scan under 50 MB.
_SCAN_MAX_AMBIENT = 1_000
_SCAN_MAX_CASES = 2_000_000


def _check_scan_size(max_dim: int, max_degree: int, max_r: int, quadrics_max_r: int) -> None:
    """ValueError naming the limit that a grid of positive bounds breaks."""
    if max_dim + max(max_r, quadrics_max_r) > _SCAN_MAX_AMBIENT:
        raise ValueError("--max-dim plus the larger of --max-r and --quadrics-max-r must be"
                         f" at most {_SCAN_MAX_AMBIENT}, the largest ambient space a scan walks")
    tuples = 1  # degree tuples of at most i entries in 2..max_degree: C(max_degree - 1 + i, i)
    for i in range(1, max_r + 1):
        tuples = tuples * (max_degree - 1 + i) // i
        if tuples > _SCAN_MAX_CASES:
            break
    if max_dim * (tuples + max(quadrics_max_r - 2, 0)) > _SCAN_MAX_CASES:
        raise ValueError(f"the grid has more than {_SCAN_MAX_CASES} cases, the most a scan"
                         " walks: --max-dim times the degree tuples, plus the quadrics sweep")


class ScanReport(_Frozen):
    _fields = ("max_dimension", "max_degree", "max_codimension", "quadrics_max_codimension",
               "cases", "law_checks", "verdict_counts")

    def to_payload(self) -> dict:
        payload = {name: getattr(self, name) for name in self._fields}
        for counts in ("law_checks", "verdict_counts"):
            payload[counts] = dict(sorted(payload[counts].items()))
        return payload


def scan_ci(max_dimension: int, max_degree: int, max_codimension: int,
            quadrics_max_codimension: int) -> ScanReport:
    """Exhaustively verify the sign laws, bound laws, and verdict coverage.

    The caller passes every bound; the command line's default grid lives in
    cli.COMMANDS and nowhere else. It walks max_dimension times
    C(max_degree - 1 + max_codimension, max_codimension) cases, one per
    degree tuple and n, plus the quadrics sweep; the command line checks
    that grid with _check_scan_size first, and scan_ci takes any grid.

    Laws checked on every canonical type in range:

    * hypersurface_sign: r = 1, d >= 3, (n, d) != (1, 3) forces
      sign(chi) = (-1)^n strictly.
    * multidegree_sign: r >= 2 with top degree >= 3 forces the same strict
      sign.
    * even_dimension_bound: even n under either hypothesis above (with
      (2, 3) excluded) forces chi > (n+1) * prod(degrees).
    * quadrics_positive / quadrics_even_bound: for r >= 3 quadrics,
      b(n, r) > 0, and b(n, r) > n + 1 for even n unless (n, r) = (2, 3);
      this sweep goes deeper in r than the general grid.
    * verdict_classified: the verdict_ci chain never lands on the
      unclassified fallback, and the step that fires obeys the chi witness
      laws of Verdict (ScanViolation "verdict_witness" if not).

    Degree tuples come in the walk order of chern.euler_ci_rows, each
    parent tuple before its children, and each tuple runs over
    n = 1..max_dimension. chi comes from the tuple's row of the recursive
    route, built up to max_dimension in one step from its parent's row; the
    walk keeps only the rows of its path, at most r + 1 of them. Once per
    tuple the scan picks the sign law and looks up the chain's degree-only
    part in _DEGREE_STEPS. Per case it tests the sign of chi by the parity of n
    and the bound at even n, with the plane cubic and the cubic surface as
    the only exclusions by (n, degrees), then runs the chain's per-n part on
    the row and its witness laws and counts the reason of the step that
    fired; it builds no Verdict. It counts the sign and bound checks per
    tuple, and folds the counts by reason into counts by status at the end.
    The quadrics sweep then walks the degree-2 branch of the same walk,
    euler_ci_rows(2, quadrics_max_codimension, max_dimension), by r, then n,
    and reads b(n, r) = (-1)^n chi / 2^r from the row of (2,)*r. Any failure
    raises ScanViolation naming the law and the offending type; a clean run
    returns counts per law and per verdict status.
    """
    bounds = {
        "max_dimension": max_dimension,
        "max_degree": max_degree,
        "max_codimension": max_codimension,
        "quadrics_max_codimension": quadrics_max_codimension,
    }
    if min(_check_int(value, name) for name, value in bounds.items()) < 1:
        raise ValueError("scan bounds must be positive")
    law_checks = dict.fromkeys(("hypersurface_sign", "multidegree_sign", "even_dimension_bound",
                                "quadrics_positive", "quadrics_even_bound"), 0)
    reason_counts = dict.fromkeys(_STATUS_OF, 0)
    chain, witness_error, unclassified = _chain, _chi_witness_error, _UNCLASSIFIED
    for degrees, row, degree_product in euler_ci_rows(max_degree, max_codimension,
                                                      max_dimension):
        steps = _DEGREE_STEPS.get(degrees)
        sign_law = (None if not degrees or degrees[-1] < 3 else
                    "hypersurface_sign" if len(degrees) == 1 else "multidegree_sign")
        cubic = degrees == (3,)
        for n in range(1, max_dimension + 1):
            if sign_law is not None and not (cubic and n == 1):
                chi = row[n]
                if chi >= 0 if n % 2 else chi <= 0:
                    raise ScanViolation(sign_law, CIType(degrees, n), f"chi = {chi}")
                if n % 2 == 0 and not (cubic and n == 2):
                    if chi <= (n + 1) * degree_product:
                        raise ScanViolation("even_dimension_bound", CIType(degrees, n),
                                            f"chi = {chi} <= {(n + 1) * degree_product}")
            step, step_chi, bound = chain(steps, n, row, degree_product)
            if step is unclassified:
                raise ScanViolation("verdict_classified", CIType(degrees, n),
                                    "fell through every criterion")
            reason = step.reason
            error = witness_error(reason, step_chi, bound)
            if error:
                raise ScanViolation("verdict_witness", CIType(degrees, n), error)
            reason_counts[reason] += 1
        if sign_law is not None:  # the cubic skips n = 1, and n = 2 for the bound
            law_checks[sign_law] += max_dimension - cubic
            law_checks["even_dimension_bound"] += len(range(2 + 2 * cubic, max_dimension + 1, 2))
    law_checks["verdict_classified"] = sum(reason_counts.values())
    for degrees, row, _ in euler_ci_rows(2, quadrics_max_codimension, max_dimension):
        r = len(degrees)
        if r < 3:
            continue
        for n in range(1, max_dimension + 1):
            b = (-row[n] if n % 2 else row[n]) >> r
            if b <= 0:
                raise ScanViolation("quadrics_positive", (n, r), f"b = {b}")
            law_checks["quadrics_positive"] += 1
            if n % 2 == 0 and (n, r) != (2, 3):
                if b <= n + 1:
                    raise ScanViolation("quadrics_even_bound", (n, r), f"b = {b}")
                law_checks["quadrics_even_bound"] += 1
    return ScanReport(
        **bounds,
        cases=law_checks["verdict_classified"],
        law_checks=law_checks,
        verdict_counts={status.value: sum(count for reason, count in reason_counts.items()
                                          if _STATUS_OF[reason] is status) for status in Status},
    )
