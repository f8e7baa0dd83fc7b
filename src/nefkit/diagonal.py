"""Nef-diagonal classification of complete intersections and curves, with
machine-checkable verdicts.

Verdicts, their reasons and the steps that build them live in verdicts;
this module imports and still exports Status, Reason and Verdict. One chain
applies the criteria in a fixed priority order (positive structural
families, the exception steps for the cubic surface, the K3 surface of three
quadrics and the even-dimensional intersections of two quadrics, the sign of
the diagonal self-intersection, the projection degree bound) and names the
step that fired with its numbers. verdict_ci builds its Verdict once, from
that step; scan_ci counts the step's reason under the same witness checks
and builds no Verdict. The del Pezzo rows, in delpezzo, hold their own
steps and borrow the sign step and verdict_ci; the two pairing steps live in
cones.

The module also hosts the consistency scans and the Poincare polynomial
obstruction to fibering an odd-dimensional intersection of two quadrics in
projective lines.
"""

from __future__ import annotations

from typing import Callable

from .chern import CIType, euler_ci_formula, euler_ci_rows, poincare_polynomial_ci
from .exactnum import _Frozen, _check_int
from .verdicts import _STATUS_OF, Reason, Status, Verdict, _chi_witness_error, _Step, _verdict

__all__ = [
    "Status",
    "Reason",
    "Verdict",
    "ScanViolation",
    "FibrationObstruction",
    "ScanReport",
    "UNCLASSIFIED_REFERENCE",
    "OPEN_TWO_QUADRICS_REFERENCE",
    "verdict_curve",
    "verdict_ci",
    "cp_fibration_obstruction",
    "scan_ci",
]


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
# Verdicts


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
    p_total = poincare_polynomial_ci(CIType((2, 2), 2 * n + 1))
    p_fiber = [4] if n == 1 else poincare_polynomial_ci(CIType((2, 2), 2 * (n - 1)))
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
