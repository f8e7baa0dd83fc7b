"""Nef-diagonal verdicts with machine-checkable witnesses.

The paper's three criteria live here: complete intersections (with curves),
del Pezzo manifolds, and spherical varieties from a pairing dataset. Each
reason certifies one status (_STATUS_OF), and _verdict alone builds a
Verdict, from a named _Step of this module: the complete intersection chain,
the curves, the del Pezzo rows and the two pairing steps of the spherical
check. verdict_ci applies the chain's criteria in priority order (structural
families, exception steps, the sign of the diagonal self-intersection, the
projection bound); scan_ci runs the same chain and its witness laws over a
grid and builds no Verdict. The module also hosts the Poincare polynomial
obstruction to fibering an intersection of two quadrics in projective lines.
It names cones.CycleDataset only for type checking, so it never loads cones.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple

from .chern import CIType, betti_ci, euler_ci_formula, euler_ci_rows, euler_delpezzo_closed
from .exactnum import _Frozen, _check_int

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
    if reason is Reason.NEGATIVE_SELF_INTERSECTION:
        if type(chi) is not int or chi >= 0:
            return "NegativeSelfIntersection needs witness chi < 0"
    elif reason is Reason.PROJECTION_BOUND:
        if not (type(chi) is int and type(bound) is int):
            return "ProjectionBound needs integer chi and bound"
        if chi <= bound:
            return "ProjectionBound witness must have chi > bound"
    return None


def _number(x: int) -> str:
    """x for detail text: in decimal up to 14,000 bits (4,215 digits, under
    Python's default int-to-str limit of 4,300) unless a lowered limit refuses
    it, else by sign and bit length."""
    if x.bit_length() <= 14_000:
        try:
            return str(x)
        except ValueError:  # past sys.get_int_max_str_digits()
            pass
    return f"({'negative' if x < 0 else 'positive'} integer of {x.bit_length()} bits)"


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


def verdict_curve(genus: int) -> Verdict:
    """Nef-diagonal verdict for a smooth projective curve of the given genus."""
    if _check_int(genus, "genus") < 0:
        raise ValueError("genus must be a non-negative integer")
    return _verdict(_CURVES.get(genus, _CURVE), chi=2 - 2 * genus, genus=genus)


def verdict_ci(ci: CIType) -> Verdict:
    """Classify the diagonal of a smooth complete intersection.

    Positive structural families come first (projective space, quadrics,
    curves of genus <= 1, the open odd-dimensional (2,2) family), then the
    exception steps, then the sign test, then the projection bound. Inside
    the scanned classification range the final fallback never fires. The
    Verdict is built once, from the step of that chain that fired.
    """
    if ci.dimension < 1:
        raise ValueError("verdict_ci needs dimension >= 1")
    product = ci.degree_product
    step, chi, bound = _chain(ci.degrees, ci.dimension, lambda _: euler_ci_formula(ci), product)
    genus = None if chi is None else 1 - chi // 2
    return _verdict(step, chi=chi, bound=bound, cover_degree=product, genus=genus)


_PROJECTIVE_SPACE = _Step("projective space", Reason.HOMOGENEOUS,
                          "projective space is a homogeneous variety")
_QUADRIC = _Step("quadric", Reason.HOMOGENEOUS, "a smooth quadric is a homogeneous variety")
# The curve steps by genus. Every other genus takes _CURVE, whose chi witness
# law rejects a genus below 0.
_CURVES = {0: _Step("curve", Reason.HOMOGENEOUS,
                    "a genus-0 curve is the projective line, a homogeneous variety"),
           1: _Step("curve", Reason.GROUP_VARIETY,
                    "a genus-1 curve is an elliptic curve, hence a group variety")}
_CURVE = _Step("curve", Reason.NEGATIVE_SELF_INTERSECTION,
               "deg Delta^2 = chi = {chi} < 0 on a curve of genus {genus}",
               numbers=("chi", "genus"))
_OPEN_TWO_QUADRICS = _Step("open (2,2)", Reason.OPEN_QUESTION,
                           "whether an odd-dimensional smooth intersection of two quadrics has"
                           " nef diagonal is an open problem for every dimension >= 3",
                           {"reference": OPEN_TWO_QUADRICS_REFERENCE})
# The exceptions that the sign and bound tests cannot catch: even-dimensional
# (2,2), and the surfaces by their degrees.
_EVEN_TWO_QUADRICS = _Step("exception table", Reason.NEGATIVE_EFFECTIVE_PAIR,
                           "an even-dimensional intersection of two quadrics carries"
                           " middle-dimensional linear subspaces with deg Lambda_1.Lambda_2 = -1",
                           {"classes": ["Lambda_1", "Lambda_2"], "value": -1})
_K3_DETAIL = ("a 2-dimensional intersection of three quadrics is a K3 surface, and K3 surfaces"
              " never have nef diagonal")
_SURFACES = {
    (3,): _Step("exception table", Reason.NEGATIVE_EFFECTIVE_PAIR,
                "a smooth cubic surface contains a (-1)-curve, an effective class of"
                " negative self-intersection",
                {"classes": ["(-1)-curve", "(-1)-curve"], "value": -1}),
    (2, 2, 2): _Step("exception table", Reason.K3_SURFACE, _K3_DETAIL,
                     {"table_entry": _K3_DETAIL}),
}
_SIGN = _Step("sign", Reason.NEGATIVE_SELF_INTERSECTION,
              "deg Delta^2 = chi = {chi} < 0", numbers=("chi",))
_BOUND = _Step("projection bound", Reason.PROJECTION_BOUND,
               "chi = {chi} exceeds (n+1) deg X = {bound}, impossible for a nef"
               " diagonal under linear projection to P^n",
               numbers=("chi", "bound", "cover_degree"))
_UNCLASSIFIED = _Step("unclassified", Reason.OPEN_QUESTION,
                      "no implemented criterion decides this type",
                      {"reference": UNCLASSIFIED_REFERENCE})


def _chain(degrees: tuple[int, ...], n: int, chi_of: Callable[[int], int],
           degree_product: int) -> tuple[_Step, int | None, int | None]:
    """The priority chain on the canonical type (degrees, n) of the given
    degree product: the step that fired, chi if the step read it, and the
    bound if it computed one. chi_of(n) returns the Euler characteristic (a
    row lookup in scan_ci, euler_ci_formula in verdict_ci), at most once and
    only on the steps that need it, so projective spaces, quadrics and the
    exception steps stay instant at any dimension."""
    if not degrees:
        return _PROJECTIVE_SPACE, None, None
    if degrees == (2,):
        return _QUADRIC, None, None
    if n == 1:
        chi = chi_of(n)
        assert chi % 2 == 0
        return _CURVES.get((2 - chi) // 2, _CURVE), chi, None
    if degrees == (2, 2):
        return (_OPEN_TWO_QUADRICS if n % 2 else _EVEN_TWO_QUADRICS), None, None
    if n == 2 and degrees in _SURFACES:
        return _SURFACES[degrees], None, None
    chi = chi_of(n)
    if chi < 0:
        return _SIGN, chi, None
    bound = (n + 1) * degree_product
    return (_BOUND if chi > bound else _UNCLASSIFIED), chi, bound


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


def verdict_delpezzo(n: int, degree: int, variant: str | None = None) -> Verdict:
    """Nef-diagonal verdict for the del Pezzo manifold of the given data.

    The optional variant label (degree 6 comes in three varieties) must name
    a manifold of the row of dimension n, or InvalidDelPezzo is raised. It is
    echoed in the detail text only; it never changes the verdict.
    """
    row = _delpezzo_row(n, degree)
    if variant is not None and row.variant_dimensions.get(variant) != n:
        raise InvalidDelPezzo(f"variant {variant!r} names no degree-{degree} del Pezzo"
                              f" manifold of dimension {n}")
    if row.cover:
        cover = row.cover(n)
        return _verdict(_SIGN if n % 2 else _COVER_BOUND, chi=euler_delpezzo_closed(n, degree),
                        bound=(n + 1) * cover, cover_degree=cover)
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

    def __init__(self, n: int, total_dimension: int, p_total: tuple[int, ...],
                 p_fiber: tuple[int, ...], remainder: tuple[int, ...]) -> None:
        self._store(n, total_dimension, p_total, p_fiber, remainder)

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
    assert report.nonzero, "the fibration obstruction must not vanish"
    return report


# ---------------------------------------------------------------------------
# Scans


class ScanReport(_Frozen):
    _fields = ("max_dimension", "max_degree", "max_codimension", "quadrics_max_codimension",
               "cases", "law_checks", "verdict_counts")

    def __init__(self, max_dimension: int, max_degree: int, max_codimension: int,
                 quadrics_max_codimension: int, cases: int, law_checks: dict[str, int],
                 verdict_counts: dict[str, int]) -> None:
        self._store(max_dimension, max_degree, max_codimension, quadrics_max_codimension, cases,
                    law_checks, verdict_counts)

    def to_payload(self) -> dict:
        return {
            "max_dimension": self.max_dimension,
            "max_degree": self.max_degree,
            "max_codimension": self.max_codimension,
            "quadrics_max_codimension": self.quadrics_max_codimension,
            "cases": self.cases,
            "law_checks": dict(sorted(self.law_checks.items())),
            "verdict_counts": dict(sorted(self.verdict_counts.items())),
        }


def scan_ci(
    max_dimension: int = 12,
    max_degree: int = 6,
    max_codimension: int = 5,
    quadrics_max_codimension: int = 8,
) -> ScanReport:
    """Exhaustively verify the sign laws, bound laws, and verdict coverage.

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
    tuple the scan picks the sign law and hands the row's lookup to the
    chain as chi_of. Per case it tests the sign of chi by the parity of n
    and the bound at even n, with the plane cubic and the cubic surface as
    the only exclusions by (n, degrees), then runs the chain and its witness
    laws and counts the reason of the step that fired; it builds no Verdict,
    and folds the counts by reason into counts by status after the walk.
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
    hypersurface = multidegree = even_bound = tuples = 0
    reason_counts = dict.fromkeys(Reason, 0)
    for degrees, row, degree_product in euler_ci_rows(max_degree, max_codimension,
                                                      max_dimension):
        tuples += 1
        chi_of = row.__getitem__
        sign_law = (None if not degrees or degrees[-1] < 3 else
                    "hypersurface_sign" if len(degrees) == 1 else "multidegree_sign")
        cubic = degrees == (3,)
        signs = 0
        for n in range(1, max_dimension + 1):
            if sign_law is not None and not (cubic and n == 1):
                chi = row[n]
                if chi >= 0 if n % 2 else chi <= 0:
                    raise ScanViolation(sign_law, CIType(degrees, n), f"chi = {chi}")
                signs += 1
                if n % 2 == 0 and not (cubic and n == 2):
                    if chi <= (n + 1) * degree_product:
                        raise ScanViolation("even_dimension_bound", CIType(degrees, n),
                                            f"chi = {chi} <= {(n + 1) * degree_product}")
                    even_bound += 1
            step, step_chi, bound = _chain(degrees, n, chi_of, degree_product)
            if step is _UNCLASSIFIED:
                raise ScanViolation("verdict_classified", CIType(degrees, n),
                                    "fell through every criterion")
            error = _chi_witness_error(step.reason, step_chi, bound)
            if error:
                raise ScanViolation("verdict_witness", CIType(degrees, n), error)
            reason_counts[step.reason] += 1
        if len(degrees) == 1:
            hypersurface += signs
        else:
            multidegree += signs
    law_checks = {"hypersurface_sign": hypersurface, "multidegree_sign": multidegree,
                  "even_dimension_bound": even_bound, "quadrics_positive": 0,
                  "quadrics_even_bound": 0, "verdict_classified": sum(reason_counts.values())}
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
        cases=max_dimension * tuples,
        law_checks=law_checks,
        verdict_counts={status.value: sum(count for reason, count in reason_counts.items()
                                          if _STATUS_OF[reason] is status) for status in Status},
    )
