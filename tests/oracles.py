"""Independent references for the tests, one copy of each.

This module imports the standard library alone, never nefkit, so a library
result compared with a function here is checked by code that shares none of
the library's; tests/test_imports.py fails on any other import. Each
reference follows its definition as directly as it can, at whatever cost in
speed the tests' small inputs allow:

- the Schubert calculus of G(2,5) by Pieri and Giambelli;
- the sign rule of the odd symplectic Grassmannian's extra class;
- the symmetric functions h_k and e_k by enumeration;
- the hypersurface Euler characteristic by its closed form, a power series
  divided by one linear factor at a time, and the pairing of two planes on
  an intersection of two quadrics;
- rank and reduced row echelon form over Fraction, kernels of width - 1 rows
  by signed maximal minors, and dual cones by enumerating those kernels.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# Schubert calculus on G(2,5) via Pieri and Giambelli. Partitions live in a
# 2 x 3 box; sigma(3,3) is the point class.

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


def tau_top_pairing(n: int, a: int, b: int) -> int:
    """Pairing of tau(a,b) with the extra class tau(2n-1,-1), for the
    (4n-3)-dimensional odd symplectic Grassmannian of lines in C^(2n+1):
    (-1)^(a-1), for ordinary partitions a >= b >= 0 of weight 2n - 1."""
    assert a >= b >= 0 and a + b == 2 * n - 1, (n, a, b)
    return (-1) ** (a - 1)


# ---------------------------------------------------------------------------
# Symmetric functions and Euler characteristics


def brute_h(k: int, values: list[int]) -> int:
    """h_k by summing over all index multisets of size k."""
    if k == 0:
        return 1
    total = 0
    for combo in itertools.combinations_with_replacement(range(len(values)), k):
        total += math.prod(values[i] for i in combo)
    return total


def brute_e(k: int, values: list[int]) -> int:
    """e_k by summing over all index subsets of size k."""
    if k == 0:
        return 1
    total = 0
    for combo in itertools.combinations(range(len(values)), k):
        total += math.prod(values[i] for i in combo)
    return total


def closed_form_hypersurface_chi(d: int, n: int) -> int:
    """chi of a degree-d hypersurface of dimension n, from
    d * chi = (1-d)^(n+2) - 1 + d(n+2)."""
    value = (1 - d) ** (n + 2) - 1 + d * (n + 2)
    assert value % d == 0
    return value // d


def series_quotient(top: int, degrees: tuple[int, ...], n: int) -> list[int]:
    """Coefficients of t^0..t^n in (1 + t)^top / prod (1 + d t), in integers:
    the binomial row of top divided by one 1 + d t at a time, which is
    c'_k = c_k - d c'_(k-1)."""
    series = [math.comb(top, k) for k in range(n + 1)]
    for d in degrees:
        for k in range(1, n + 1):
            series[k] -= d * series[k - 1]
    return series


def plane_pairing(d: int) -> int:
    """Lambda.Lambda' for two m-planes on the 2m-dimensional intersection of
    two quadrics that meet in a d-dimensional linear space (d = -1: disjoint).
    Excess intersection (Fulton, Intersection Theory, ch. 6 and 9) makes it
    [h^d] (1 + h)^(d + 2) / (1 + 2h)^2, whatever m is. Integers only: the
    binomial row of d + 2 against the row (k + 1) (-2)^k of 1 / (1 + 2h)^2."""
    return sum(math.comb(d + 2, d - k) * (k + 1) * (-2) ** k for k in range(d + 1))


# ---------------------------------------------------------------------------
# Linear algebra and dual cones


def identity(m: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for j in range(m)) for i in range(m)]


def primitive_of(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = math.gcd(*vec)
    return tuple(x // g for x in vec)


def fraction_echelon(rows: list[list[int]], width: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction and its pivot columns."""
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


def rank(rows: list[list[int]], width: int) -> int:
    """Rank over the rationals: the pivot count of fraction_echelon."""
    return len(fraction_echelon(rows, width)[1])


def determinant(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination, in which every division is exact; 1 for the empty matrix.
    Each step moves a pivot row to the top, with the sign of that cyclic
    shift, and leaves the minor of the rows and columns past it."""
    rows = list(matrix)
    sign, previous = 1, 1
    while rows:
        pivot = next((i for i, row in enumerate(rows) if row[0]), None)
        if pivot is None:
            return 0
        sign *= (-1) ** pivot
        head, *top = rows.pop(pivot)
        rows = [[(head * x - row[0] * y) // previous for x, y in zip(row[1:], top)]
                for row in rows]
        previous = head
    return sign * previous


def kernel_line(rows: list[list[int]], width: int) -> tuple[int, ...] | None:
    """Primitive spanning vector, of either sign, of the kernel of width - 1
    rows, or None when the rows have rank below width - 1. It is their
    generalized cross product: entry j is (-1)^j times the maximal minor
    without column j, so each row dots to the determinant of a matrix that
    holds that row twice."""
    assert len(rows) == width - 1
    vec = tuple((-1) ** j * determinant([[*row[:j], *row[j + 1:]] for row in rows])
                for j in range(width))
    return primitive_of(vec) if any(vec) else None


def brute_force_dual_cone(effective_generators, pairing_matrix) -> tuple[tuple[int, ...], ...]:
    """Generators of the dual cone by enumeration, the reference for dual_cone.

    Every (m-1)-subset of the normals whose kernel is a line gives a candidate
    ray of either sign, kept when it pairs non-negatively with every normal:
    C(k, m-1) kernels. Inputs are taken as well formed; the two errors for a
    dual that is all of space or not pointed follow dual_cone.
    """
    m = len(pairing_matrix)
    normals: list[tuple[int, ...]] = []
    for g in effective_generators:
        normal = tuple(sum(x * y for x, y in zip(row, g)) for row in pairing_matrix)
        if any(normal) and normal not in normals:
            normals.append(normal)
    if not normals:
        raise ValueError("every generator pairs to zero; the dual is all of space")
    if rank(normals, m) < m:
        raise ValueError("dual cone contains a linear subspace")
    rays: set[tuple[int, ...]] = set()
    for subset in itertools.combinations(normals, m - 1):
        candidate = kernel_line(list(subset), m)
        if candidate is None:
            continue
        for ray in (candidate, tuple(-x for x in candidate)):
            if all(sum(x * y for x, y in zip(normal, ray)) >= 0 for normal in normals):
                rays.add(ray)
    return tuple(sorted(rays))
