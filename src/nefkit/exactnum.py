"""Exact combinatorial arithmetic: symmetric functions and truncated power
series over the rationals.

Everything here is integer or Fraction arithmetic, no floats. Only the series
type imports fractions, and only chern ci runs it. It expands the one quotient

    (1 + t)^p  /  prod_j (1 + s_j t)

whose truncated coefficients drive the Chern degree computations downstream.

This bottom layer also holds _Frozen, the immutable-value behaviour of the
value classes of every layer, written by hand so that no subcommand imports
the standard library's data classes module and inspect at cold start.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "complete_homogeneous",
    "complete_homogeneous_prefix",
    "elementary_symmetric",
    "TruncatedSeries",
    "series_rational_coefficients",
]


def complete_homogeneous(k: int, values: Sequence[int]) -> int:
    """Complete homogeneous symmetric function h_k of the given values.

    h_0 = 1 (also on an empty value list), h_k = 0 for k < 0, and for an
    empty list h_k = 0 whenever k > 0.
    """
    if k < 0:
        return 0
    return complete_homogeneous_prefix(k, values)[k]


def complete_homogeneous_prefix(k: int, values: Sequence[int]) -> list[int]:
    """The list [h_0, ..., h_k] of the given values, built in one pass.

    Uses the one-variable-at-a-time recurrence h'_j = h_j + v * h'_(j-1),
    which is just the expansion of 1 / prod(1 - v t); the cost is O(k * len)
    for the whole prefix. An empty list for k < 0.
    """
    if k < 0:
        return []
    coeffs = [1] + [0] * k
    for v in values:
        for j in range(1, k + 1):
            # coeffs[j-1] already holds the updated value, which is what the
            # recurrence wants.
            coeffs[j] += v * coeffs[j - 1]
    return coeffs


def elementary_symmetric(k: int, values: Sequence[int]) -> int:
    """Elementary symmetric function e_k; e_0 = 1, e_k = 0 for k < 0 or k > len."""
    vals = list(values)
    if k < 0 or k > len(vals):
        return 0
    coeffs = [0] * (k + 1)
    coeffs[0] = 1
    for v in vals:
        # Descending index so each update sees the previous variable's row.
        for j in range(k, 0, -1):
            coeffs[j] += v * coeffs[j - 1]
    return coeffs[k]


def _check_int(value: object, name: str, error: type[ValueError] = ValueError) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an integer")
    return value


class _Frozen:
    """Value behaviour for a class that names its fields in _fields and whose
    __init__ checks its arguments, then stores the fields with _store:
    equality only with an instance of the same class with equal fields, the
    hash of the field tuple, the repr Name(field=value, ...), and no
    attribute assignment or deletion."""

    _fields: tuple[str, ...]

    def _store(self, *values: object) -> None:
        """Set the fields, one value each in _fields order; a count that does
        not match _fields raises ValueError."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class TruncatedSeries(_Frozen):
    """Power series truncated at a fixed order, coefficients exact rationals.

    coefficients[k] is the t^k coefficient; len(coefficients) == order + 1.
    Division requires the divisor to have a nonzero constant term.
    """

    _fields = ("coefficients", "order")

    def __init__(self, coefficients: tuple[Fraction, ...], order: int) -> None:
        from fractions import Fraction
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(coefficients) != order + 1:
            raise ValueError("need exactly order + 1 coefficients")
        if not all(isinstance(c, Fraction) for c in coefficients):
            raise TypeError("coefficients must be Fractions")
        self._store(coefficients, order)

    @classmethod
    def of(cls, values: Iterable[int | Fraction], order: int) -> "TruncatedSeries":
        """Build a series from any coefficient prefix, padding with zeros."""
        from fractions import Fraction
        coeffs = [Fraction(v) for v in values][: order + 1]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        return cls(tuple(coeffs), order)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("series orders must match")
        if other.coefficients[0] == 0:
            raise ValueError("series division needs a nonzero constant term")
        n = self.order
        b0 = other.coefficients[0]
        out: list[Fraction] = []
        for k in range(n + 1):
            acc = self.coefficients[k]
            for j in range(1, k + 1):
                acc -= other.coefficients[j] * out[k - j]
            out.append(acc / b0)
        return TruncatedSeries(tuple(out), n)


def series_rational_coefficients(
    exponent: int, denominator_factors: Iterable[int], order: int
) -> TruncatedSeries:
    """Expand (1 + t)^exponent / prod (1 + s t) through the given order.

    The exponent is >= 0; denominator factors are the scalars s of linear
    terms (1 + s t). With integer scalars every coefficient of the quotient
    is an integer, since dividing by (1 + s t) is the integer recurrence
    c'_k = c_k - s c'_(k-1).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    series = TruncatedSeries.of([math.comb(exponent, k) for k in range(order + 1)], order)
    for s in denominator_factors:
        series = series / TruncatedSeries.of([1, s], order)
    return series
