"""Top Chern class degrees (Euler characteristics) in exact arithmetic.

Covers smooth complete intersections in projective space and smooth
hypersurfaces in weighted projective space. The complete intersection Euler
characteristic is exposed through three independent routes that must agree:

* euler_ci_formula: the symmetric-function expansion,
* euler_ci_series: the coefficient of a truncated rational series, the last
  entry of chern_degrees_ci,
* euler_ci_recursive: a two-term recursion in (degrees, dimension), whose
  table gives chi(degrees; m) for every m <= n at once; euler_ci_rows walks
  the same recursion over a whole grid of degree tuples, one step per tuple.

The routes and euler_weighted take any size. Every limit on them lives here,
beside its work: _check_formula_size on the formula route's work, by _bit_bound,
and on M, a bound on every number its commands print; _check_chern_size on
chern ci's series, by _bit_bound too; and _check_weighted_size on euler weighted.
Each compares bits with exactnum._printable_bits. The series route,
chern_degrees_ci, divides once by prod (1 + d_j t) in Fractions, which it alone
loads; they never divide and stay until the benchmark bounds its peak memory.

On top of that sit Betti tables of the middle-heavy hypersurface shape,
signed Poincare polynomials, the normalized all-quadrics invariant b(n, r),
which is (-1)^n chi(2,...,2; n) / 2^r from the recursive route,
and closed forms for low-degree del Pezzo Euler characteristics.
"""

from __future__ import annotations

import math
from typing import Iterator

from .exactnum import _Frozen, _check_int, _printable_bits, complete_homogeneous_prefix

__all__ = [
    "NegativeBetti",
    "NonIntegralResult",
    "CIType",
    "WeightedHypersurface",
    "BettiTable",
    "euler_ci_formula",
    "euler_ci_series",
    "euler_ci_recursive",
    "euler_ci_rows",
    "chern_degrees_ci",
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


# The limits where a caller bounds a route read B = (n + r)(b + 2), b the bits
# of the largest degree D: for n + r >= 1, every Chern degree of (d_1..d_r; n),
# prod d_j sum_i (-1)^(k-i) C(n + r + 1, i) h_(k-i) at k <= n, and every integer
# the formula route sums is below 2^B, as h_m <= 2^(m + r - 1) D^m for r >= 1.
def _bit_bound(ci: CIType) -> int:
    return (ci.dimension + ci.codimension) * (max(ci.degrees, default=1).bit_length() + 2)


# The formula route, in euler ci, betti ci and the chi that verdict_ci reads,
# takes n (r + 1) steps, r passes over h_0..h_n and one over the sum, each of
# up to about B^1.5 bit operations. Capping n (r + 1) B^1.5 at 10^11 admits n
# = 8,286 for (2,) or (3,), 7,254 for (7,), 6,171 for (5,7) and 63 for a
# 4,000-digit degree; the slowest, (3,) and (7,), take 0.6 s, and 0.75 s as
# whole commands (Python 3.11 on a 2-CPU host), while `euler ci --dim 60000
# --degrees 2` took 9.6 s. With r far above n, B over-counts and so does the cap.
_FORMULA_MAX_WORK = 100_000_000_000


def _check_formula_size(ci: CIType) -> None:
    """ValueError naming the formula route's limit if ci breaks it."""
    n, r, bits = ci.dimension, ci.codimension, _bit_bound(ci)
    if n * (r + 1) * bits * math.isqrt(bits) > _FORMULA_MAX_WORK:
        raise ValueError("dimension n, r degrees other than 1 and B = (n + r)(b + 2), b the bits"
                         " of the largest degree, must have n (r + 1) B^1.5 at most"
                         f" {_FORMULA_MAX_WORK}, the most work the formula route takes")
    # For r >= 1, Hirzebruch's sum_n chi_n t^n = prod d / ((1 - t)^2 prod (1 + (d_j - 1) t)) and
    # h_m(d - 1) <= C(n + r - 1, r - 1) (D - 1)^m, D the largest degree, give |chi| + n prod d <= M,
    # so M bounds chi, the Betti middle, at most |chi| + n + 1, and (n + 1) prod d; r = 0 is P^n.
    max_bits = _printable_bits(None)
    if r and (ci.degree_product * (n + 1) ** 2 * math.comb(n + r - 1, r - 1)
              * (ci.degrees[-1] - 1) ** n).bit_length() > max_bits:
        raise ValueError("dimension n and r degrees other than 1, the largest D, must have M ="
                         f" prod d (n + 1)^2 C(n + r - 1, r - 1) (D - 1)^n below 2^{max_bits},"
                         " the most bits that print under the int-to-str limit in force")


# The series route of chern ci takes r n integer steps to multiply out prod (1 + d
# t) and n (n + 1) / 2 Fraction steps, about 3 us each under 2,000 bits and 5 us
# near 14,000, to divide by it. The step cap is the count of `--dim 632 --degrees
# 1048575`, 0.93 s (best of 5 whole commands, Python 3.11, 2-CPU host), so P^633
# is out. The bit cap on B bounds a step and keeps results printable: two 29-bit
# degrees pass up to n = 449 (0.50 s), 20 of 84 bits up to n = 142 (0.12 s).
_CHERN_MAX_STEPS = 200_660


def _check_chern_size(ci: CIType) -> None:
    """ValueError naming the series route's limit if ci breaks it."""
    n, r = ci.dimension, ci.codimension
    if n * (n + 1) // 2 + r * n > _CHERN_MAX_STEPS:
        raise ValueError("--dim n and r degrees other than 1 must have n (n + 1) / 2 + r n at"
                         f" most {_CHERN_MAX_STEPS}, the most series steps chern ci takes")
    max_bits = _printable_bits()
    if _bit_bound(ci) > max_bits:
        raise ValueError("--dim plus the number of degrees other than 1, times 2 plus the bits"
                         f" of the largest degree, must be at most {max_bits}, the most"
                         " bits a Chern degree may need")


def euler_ci_series(ci: CIType) -> int:
    """Euler characteristic by the series route: the last entry of
    chern_degrees_ci(ci)."""
    return chern_degrees_ci(ci)[-1]


def euler_ci_recursive(ci: CIType) -> int:
    """Euler characteristic by the recursive route, peeling one degree at a time.

    chi(d_1..d_r; n) = d_1 chi(d_2..d_r; n) - (d_1 - 1) chi(d_1..d_r; n-1),
    with bases chi(...; 0) = prod d_j and chi(; n) = n + 1. Evaluated as an
    iterative table: row[m] holds chi(d_j..d_r; m) for m = 0..n, and each
    degree, from the last to the first, turns that row into the next one, so
    a call costs O(n r) steps and no recursion depth.
    """
    row = list(range(1, ci.dimension + 2))
    for d in reversed(ci.degrees):
        _peel(row, d)
    return row[-1]


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
    """(degrees, [chi(degrees; 0), ..., chi(degrees; max_dimension)], degree
    product) for every sorted tuple of at most max_codimension degrees in
    2..max_degree, each row the table of the recursive route.

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
    (1 + t)^(n+r+1) / prod (1 + d_j t); entry 0 is the degree of X in its
    ambient projective space and entry n is the Euler characteristic. The
    product p is multiplied out through t^n in integers, n multiply-adds per
    degree, and the binomial row c divided by it once: p_0 = 1, so the quotient
    is q_k = c_k - sum_(j=1..k) p_j q_(k-j), about n^2 / 2 steps; with no degree
    other than 1 nothing is divided. Each q_k is an integer, as dividing by
    (1 + d t) is c'_k = c_k - d c'_(k-1). The steps stay on Fractions, which
    never divide: with ints the benchmark's fixed-time runs make more calls, and
    its peak memory grows with the call count, not with this route.
    """
    from fractions import Fraction

    n, degree_product = ci.dimension, ci.degree_product
    top = n + ci.codimension + 1
    quotient = [Fraction(math.comb(top, k)) for k in range(n + 1)]
    if ci.degrees:
        product = [1] + [0] * n
        for i, d in enumerate(ci.degrees):
            # times (1 + d t), top down: after i degrees only t^0..t^i are nonzero
            for k in range(min(i + 1, n), 0, -1):
                product[k] += d * product[k - 1]
        for k in range(1, n + 1):  # quotient[k] holds c_k until it is q_k
            acc = quotient[k]
            for j in range(1, k + 1):
                acc -= quotient[k - j] * product[j]
            quotient[k] = acc
    return [int(q * degree_product) for q in quotient]


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


# euler weighted reads one bit bound S: the sum over the weights a_j of the
# bits of max(a_j, |a_j - d|), T, plus the bits of d and of m + 1, the weight
# count. Every integer the command computes or prints is below 2^S: prod a_j
# and |prod (a_j - d)| are below 2^T, e_m(a) <= (m + 1) prod a_j and so d e_m
# below 2^S, and as m + 1 >= 5 has 3 bits, the three together, the numerator
# N of the sum, are below 2^S too; the terms of chi = N / (d prod a_j), reduced
# or not, are at most |N| / d and prod a_j. S also bounds the work: m + 1 <= S,
# and the products and the m + 1 quotients of e_m take at most S^2 bit
# operations. The slowest accepted command measured, 6,992 weights of 3 at
# degree 6, takes 0.08 s, against 0.05 s for six weights (best of 5, Python
# 3.11, 2-CPU host); without the cap, 21,000 weights of 99999 at degree 99998
# worked for 2.3 s before an unprintable fraction stopped them.
def _check_weighted_size(wh: WeightedHypersurface) -> None:
    """ValueError naming euler weighted's limit if wh breaks it."""
    d = wh.degree
    bits = (sum(max(a, abs(a - d)).bit_length() for a in wh.weights) + d.bit_length()
            + len(wh.weights).bit_length())
    max_bits = _printable_bits()
    if bits > max_bits:
        raise ValueError("the bits of max(a, |a - d|) summed over the weights a, plus the bits"
                         " of the degree d and of the number of weights, must be at most"
                         f" {max_bits}, the most bits a result may need")


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
    product = math.prod(wh.weights)
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
    if remainder:
        raise AssertionError("closed-form numerator must be divisible")
    return quotient
