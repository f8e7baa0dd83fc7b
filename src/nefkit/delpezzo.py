"""Del Pezzo manifolds (index n-1), classified by degree 1..7.

The classification table's rows decide every del Pezzo verdict, dimension
range and nef-and-big answer. Rows 1 and 2 decide by the closed-form chi on
a cover of P^n and rows 3 and 4 as complete intersections, so only those
rows, and the nef-and-big filter's kind "ci", import chern and diagonal when
they run; the table itself and the rows of degree 5 to 7, which hold their
own steps, need neither.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .exactnum import _Frozen, _check_int
from .verdicts import Reason, Verdict, _Step, _verdict

__all__ = ["InvalidDelPezzo", "DelPezzoRow", "DELPEZZO_TABLE", "verdict_delpezzo",
           "nef_big_filter"]


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
        from .chern import euler_delpezzo_closed
        from .diagonal import _SIGN

        cover = row.cover(n)
        return _verdict(_SIGN if n % 2 else _COVER_BOUND, chi=euler_delpezzo_closed(n, degree),
                        bound=(n + 1) * cover, cover_degree=cover)
    if row.ci_degrees:
        from .chern import CIType
        from .diagonal import verdict_ci

        return verdict_ci(CIType(row.ci_degrees, n))
    return _verdict(row.steps[n], variant=f" ({variant})" if variant else "")


def nef_big_filter(kind: str, params: object) -> bool:
    """True exactly on the varieties whose diagonal is both nef and big.

    kind "ci": params is a CIType; true for projective space and
    odd-dimensional quadrics. kind "delpezzo": params is (dimension, degree);
    true where the table's step is a fake projective space (the degree-5 threefold).
    """
    if kind == "ci":
        from .chern import CIType

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
