"""Truncated power series over the rationals, for the series route of chern.

It expands the one quotient

    (1 + t)^p  /  prod_j (1 + s_j t)

whose truncated coefficients give the Chern degrees of a complete
intersection. chern.chern_degrees_ci imports this module when it runs, so
only chern ci, of all subcommands, loads it and with it fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .exactnum import _Frozen

__all__ = ["TruncatedSeries", "series_rational_coefficients"]


class TruncatedSeries(_Frozen):
    """Power series truncated at a fixed order, coefficients exact rationals.

    coefficients[k] is the t^k coefficient; len(coefficients) == order + 1.
    Division requires the divisor to have a nonzero constant term.
    """

    _fields = ("coefficients", "order")

    def __init__(self, coefficients: tuple[Fraction, ...], order: int) -> None:
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
