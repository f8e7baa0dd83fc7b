"""Top Chern class degrees (Euler characteristics) in exact arithmetic.

Covers smooth complete intersections in projective space and smooth
hypersurfaces in weighted projective space. The complete intersection Euler
characteristic is exposed through three independent routes that must agree:

* euler_ci_formula: the symmetric-function expansion,
* euler_ci_series: the coefficient of a truncated rational series, the last
  entry of chern_degrees_ci,
* euler_ci_recursive: a two-term recursion in (degrees, dimension), the last
  entry of euler_ci_row, which gives chi(degrees; m) for every m <= n at once;
  euler_ci_rows walks the same recursion over a whole grid of degree tuples,
  one step per tuple.

The series route expands its quotient as a TruncatedSeries of Fractions.
fractions loads only when the first series is built, so of all subcommands
only chern ci loads it.

On top of that sit Betti tables of the middle-heavy hypersurface shape,
signed Poincare polynomials, the normalized all-quadrics invariant b(n, r),
which is (-1)^n chi(2,...,2; n) / 2^r read from the recursive route's row,
and closed forms for low-degree del Pezzo Euler characteristics.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator

from .exactnum import _Frozen, _check_int, complete_homogeneous_prefix

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "NegativeBetti",
    "NonIntegralResult",
    "CIType",
    "WeightedHypersurface",
    "BettiTable",
    "euler_ci_formula",
    "euler_ci_series",
    "euler_ci_recursive",
    "euler_ci_row",
    "euler_ci_rows",
    "chern_degrees_ci",
    "TruncatedSeries",
    "series_rational_coefficients",
    "quadrics_b",
    "betti_ci",
    "euler_weighted",
    "euler_delpezzo_closed",
]


class NegativeBetti(ValueError):
    """The requested Betti table would have a negative middle entry."""


class NonIntegralResult(ValueError):
    """A weighted Euler characteristic came out non-integral."""


class CIType(_Frozen):
    """A smooth complete intersection type.

    degrees: hypersurface degrees; stored canonically (sorted ascending,
    degree-1 factors dropped, each remaining entry >= 2).
    dimension: dimension n of the variety; the ambient space is P^(n+r).
    """

    _fields = ("degrees", "dimension")

    def __init__(self, degrees: tuple[int, ...], dimension: int) -> None:
        raw = tuple(_check_int(d, "degree") for d in degrees)
        if any(d < 1 for d in raw):
            raise ValueError("degrees must be >= 1")
        n = _check_int(dimension, "dimension")
        if n < 0:
            raise ValueError("dimension must be >= 0")
        self._store(tuple(sorted(d for d in raw if d > 1)), n)

    @property
    def codimension(self) -> int:
        return len(self.degrees)

    @property
    def degree_product(self) -> int:
        return math.prod(self.degrees)

    def __str__(self) -> str:
        degs = ",".join(str(d) for d in self.degrees)
        return f"({degs};{self.dimension})"


def euler_ci_formula(ci: CIType) -> int:
    """Euler characteristic via the symmetric-function expansion.

    chi = (prod d_j) * sum_{i=0}^{n} (-1)^(n-i) C(n+r+1, i) h_(n-i)(degrees).
    All of h_0..h_n come from one pass over the degrees and the binomials
    from stepping along row n+r+1 of Pascal's triangle, so a call costs
    O(n r) big-integer steps. For r = 0 the sum collapses to n + 1, the Euler
    number of P^n.
    """
    n = ci.dimension
    top = n + ci.codimension + 1
    h = complete_homogeneous_prefix(n, ci.degrees)
    total = 0
    coeff = 1
    for i in range(n + 1):
        total += (-1) ** (n - i) * coeff * h[n - i]
        # C(top, i + 1) = C(top, i) (top - i) / (i + 1), an exact division.
        coeff = coeff * (top - i) // (i + 1)
    return ci.degree_product * total


def euler_ci_series(ci: CIType) -> int:
    """Euler characteristic by the series route: the last entry of
    chern_degrees_ci(ci)."""
    return chern_degrees_ci(ci)[-1]


def euler_ci_recursive(ci: CIType) -> int:
    """Euler characteristic by the recursive route: the last entry of
    euler_ci_row(ci)."""
    return euler_ci_row(ci)[-1]


def euler_ci_row(ci: CIType) -> list[int]:
    """[chi(degrees; 0), ..., chi(degrees; n)], by peeling one degree at a time.

    chi(d_1..d_r; n) = d_1 chi(d_2..d_r; n) - (d_1 - 1) chi(d_1..d_r; n-1),
    with bases chi(...; 0) = prod d_j and chi(; n) = n + 1. Evaluated as an
    iterative table: row[m] holds chi(d_j..d_r; m) for m = 0..n, and each
    degree, from the last to the first, turns that row into the next one, so
    a call costs O(n r) steps and no recursion depth.
    """
    row = list(range(1, ci.dimension + 2))
    for d in reversed(ci.degrees):
        _peel(row, d)
    return row


def _peel(row: list[int], d: int) -> list[int]:
    """One step of the recursion, in place: the row of rest becomes the row
    of (d, *rest). prev holds chi(d, rest; m - 1), the value it subtracts."""
    e = d - 1
    prev = row[0] = row[0] * d
    for m in range(1, len(row)):
        prev = row[m] = d * row[m] - e * prev
    return row


def euler_ci_rows(
    max_degree: int, max_codimension: int, max_dimension: int
) -> Iterator[tuple[tuple[int, ...], list[int], int]]:
    """(degrees, euler_ci_row(CIType(degrees, max_dimension)), degree product)
    for every sorted tuple of at most max_codimension degrees in 2..max_degree.

    A depth-first walk over an explicit path, with no recursion, parents
    before children: (), (2,), (2, 2), ... The row of (d, *rest), d <= rest[0],
    is one _peel of a copy of rest's row, O(max_dimension) steps. A tuple and
    its row stay on the path only while it has children left: at most
    max_codimension rows, and one on the degree-2 branch. Yielded rows are
    shared with the path and must not be changed.
    """
    row = list(range(1, max_dimension + 2))
    yield (), row, 1
    path = [((), row, 2)] if max_codimension and max_degree >= 2 else []
    while path:
        degrees, row, d = path.pop()
        if d < (degrees[0] if degrees else max_degree):
            path.append((degrees, row, d + 1))
        degrees = (d, *degrees)
        row = _peel(row.copy(), d)
        yield degrees, row, row[0]
        if len(degrees) < max_codimension:
            path.append((degrees, row, 2))


def chern_degrees_ci(ci: CIType) -> list[int]:
    """Degrees deg(c_k(X) . h^(n-k)) for k = 0..n, h the hyperplane class.

    Entry k is (prod d_j) times the coefficient of t^k in the truncated series
    (1+t)^(n+r+1) / prod (1 + d_j t), whose coefficients are integral for
    integer degrees, which is asserted. Entry 0 is the degree of X in its
    ambient projective space and entry n is the Euler characteristic.
    """
    n = ci.dimension
    series = series_rational_coefficients(n + ci.codimension + 1, ci.degrees, n)
    product = ci.degree_product
    values = [c * product for c in series.coefficients]
    assert all(value.denominator == 1 for value in values)
    return [int(value) for value in values]


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


def quadrics_b(n: int, r: int) -> int:
    """Normalized Euler invariant of an n-dim intersection of r quadrics:
    b(n, r) = (-1)^n chi(2,...,2; n) / 2^r, with chi from the recursive route.

    b is an integer because chi carries the factor 2^r, so the shift is exact.
    """
    if _check_int(n, "n") < 1 or _check_int(r, "r") < 1:
        raise ValueError("quadrics_b needs n >= 1 and r >= 1")
    chi = euler_ci_recursive(CIType((2,) * r, n))
    return (-chi if n % 2 else chi) >> r


class BettiTable(_Frozen):
    """Betti numbers b_0..b_(2n) of a smooth complete intersection.

    Hard Lefschetz forces the palindromic hypersurface shape: b_i = 1 for
    even i != n, b_i = 0 for odd i != n, and all interest sits in b_n.
    """

    _fields = ("betti",)

    def __init__(self, betti: tuple[int, ...]) -> None:
        if len(betti) % 2 == 0:
            raise ValueError("need an odd number of entries b_0..b_(2n)")
        if any(b < 0 for b in betti):
            raise NegativeBetti("Betti numbers must be non-negative")
        if any(betti[i] != betti[-1 - i] for i in range(len(betti))):
            raise ValueError("Betti table must satisfy Poincare duality")
        self._store(betti)

    @property
    def dimension(self) -> int:
        return (len(self.betti) - 1) // 2

    @property
    def middle(self) -> int:
        return self.betti[self.dimension]

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** i * b for i, b in enumerate(self.betti))

    @property
    def poincare(self) -> list[int]:
        """Coefficients of p(t) = sum_i b_i (-t)^i, index k = coefficient of t^k.

        This signed convention makes p multiplicative in the fibrations the
        diagonal module analyzes, with p(t) = 1 + t^2 for the projective line.
        """
        return [(-1) ** i * b for i, b in enumerate(self.betti)]


def betti_ci(ci: CIType) -> BettiTable:
    """Betti table of a smooth complete intersection of dimension >= 1.

    Off-middle entries follow the ambient projective space; the middle entry
    is solved from the Euler characteristic: b_n = chi - n for even n and
    b_n = n + 1 - chi for odd n.
    """
    n = ci.dimension
    if n < 1:
        raise ValueError("betti_ci needs dimension >= 1")
    chi = euler_ci_formula(ci)
    middle = chi - n if n % 2 == 0 else n + 1 - chi
    if middle < 0:
        raise NegativeBetti(f"middle Betti number {middle} < 0 for {ci}")
    betti = [1 if i % 2 == 0 else 0 for i in range(2 * n + 1)]
    betti[n] = middle
    return BettiTable(tuple(betti))


class WeightedHypersurface(_Frozen):
    """A degree-d hypersurface in weighted projective space P(a_0..a_m).

    Needs at least five weights (ambient dimension m >= 4), all weights >= 1.
    The hypersurface has dimension m - 1.
    """

    _fields = ("weights", "degree")

    def __init__(self, weights: tuple[int, ...], degree: int) -> None:
        ws = tuple(_check_int(w, "weight") for w in weights)
        if len(ws) < 5:
            raise ValueError("need at least five weights")
        if any(w < 1 for w in ws):
            raise ValueError("weights must be >= 1")
        d = _check_int(degree, "degree")
        if d < 1:
            raise ValueError("degree must be >= 1")
        self._store(ws, d)

    @property
    def weight_product(self) -> int:
        return math.prod(self.weights)


def euler_weighted(wh: WeightedHypersurface) -> int:
    """Euler characteristic of a smooth weighted hypersurface.

    chi = (sum_{i=0}^{m-1} e_(m-1-i)(a_0..a_m) (-d)^i) * d / (a_0...a_m),
    where m is the ambient dimension. The division by prod(a) is exact; a
    remainder signals a weights/degree combination outside the formula's
    validity and raises NonIntegralResult. The sum is prod(a_j - d) less its
    terms of degree 0 and 1 in d, divided by d^2, that is
    (prod(a_j - d) + d e_m(a) - prod(a)) / d^2: one e_m, not one e_k per term,
    and e_m(a_0..a_m) = sum_j prod(a) / a_j, m + 1 exact divisions.
    """
    d = wh.degree
    product = wh.weight_product
    total = (math.prod(a - d for a in wh.weights) + d * sum(product // a for a in wh.weights)
             - product) // d**2
    value, remainder = divmod(total * d, product)
    if remainder:
        g = math.gcd(total * d, product)
        raise NonIntegralResult(
            f"chi = {total * d // g}/{product // g} is not an integer"
            f" for weights {wh.weights}, degree {d}"
        )
    return value


def euler_delpezzo_closed(n: int, degree: int) -> int:
    """Closed-form Euler characteristics of del Pezzo manifolds of degree 1, 2.

    Degree 1 (sextic in P(3,2,1,...,1)):  chi = (3n + 2 + (-5)^n) / 3.
    Degree 2 (quartic in P(2,1,...,1)):   chi = (4n + 5 - (-3)^(n+1)) / 4.
    Both numerators are divisible exactly; n must be >= 3.
    """
    if _check_int(n, "n") < 3:
        raise ValueError("del Pezzo manifolds here have dimension >= 3")
    _check_int(degree, "degree")
    if degree == 1:
        numerator, modulus = 3 * n + 2 + (-5) ** n, 3
    elif degree == 2:
        numerator, modulus = 4 * n + 5 - (-3) ** (n + 1), 4
    else:
        raise ValueError("closed forms cover degrees 1 and 2 only")
    quotient, remainder = divmod(numerator, modulus)
    assert remainder == 0, "closed-form numerator must be divisible"
    return quotient
