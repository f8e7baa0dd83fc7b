"""Tests for the exact arithmetic layer.

The symmetric functions are checked against brute-force enumeration over
index multisets/subsets, and chern's series expander against naive polynomial
convolution, so every frozen value downstream rests on an independent oracle.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from nefkit.chern import CIType, chern_degrees_ci, series_rational_coefficients
from nefkit.exactnum import complete_homogeneous, complete_homogeneous_prefix, elementary_symmetric


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


def poly_mul(p: list[Fraction], q: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            if i + j <= order:
                out[i + j] += a * b
    return out


def test_symmetric_functions_trivial_cases():
    assert complete_homogeneous(0, []) == 1
    assert complete_homogeneous(3, []) == 0
    assert complete_homogeneous(-1, [2, 3]) == 0
    assert complete_homogeneous(2, [2, 2]) == 12
    assert elementary_symmetric(0, []) == 1
    assert elementary_symmetric(2, [5]) == 0
    assert elementary_symmetric(-1, [5]) == 0
    assert elementary_symmetric(3, [2, 1, 1, 1, 1]) == 16


def test_symmetric_functions_against_enumeration():
    # Full grid the downstream formulas consume: entries 2..6, length <= 4.
    pools = [[]]
    for r in range(1, 5):
        pools += [list(c) for c in itertools.combinations_with_replacement(range(2, 7), r)]
    for values in pools:
        for k in range(0, 11):
            assert complete_homogeneous(k, values) == brute_h(k, values), (k, values)
            assert elementary_symmetric(k, values) == brute_e(k, values), (k, values)


def test_complete_homogeneous_prefix_against_enumeration():
    for values in ([], [5], [2, 3], [2, 2, 5], [3, 4, 4, 6], [2, 3, 5, 7, 11]):
        prefix = complete_homogeneous_prefix(9, values)
        assert prefix == [brute_h(k, values) for k in range(10)], values
    assert complete_homogeneous_prefix(0, [4, 5]) == [1]
    assert complete_homogeneous_prefix(-1, [4, 5]) == []


def test_newton_style_identity():
    # sum_{i=0..k} (-1)^i e_i h_{k-i} = 0 for k >= 1.
    for values in ([2, 3], [2, 2, 5], [3, 4, 4, 6], [2]):
        for k in range(1, 9):
            acc = sum(
                (-1) ** i * elementary_symmetric(i, values) * complete_homogeneous(k - i, values)
                for i in range(k + 1)
            )
            assert acc == 0, (k, values)


def test_series_cube_of_linear_factor():
    assert series_rational_coefficients(3, [], 2) == [1, 3, 3]


def test_series_geometric_inverse():
    assert series_rational_coefficients(0, [2], 3) == [1, -2, 4, -8]


def test_series_binomial_at_index():
    for p in range(0, 8):
        assert series_rational_coefficients(p, [], 6) == [math.comb(p, k) for k in range(7)]


def test_series_quotient_matches_symmetric_function_expansion():
    # Coefficient n of (1+t)^(n+r+1) / prod(1+d t) equals
    # sum_i (-1)^(n-i) C(n+r+1, i) h_(n-i)(d).
    cases = [((2, 2), 3, 6), ((3,), 4, 6), ((2, 2, 2), 2, 6), ((4, 5), 5, 8)]
    for degrees, n, top in cases:
        r = len(degrees)
        series = series_rational_coefficients(n + r + 1, degrees, n)
        expected = sum(
            (-1) ** (n - i) * math.comb(n + r + 1, i) * complete_homogeneous(n - i, list(degrees))
            for i in range(n + 1)
        )
        assert series[n] == expected
        assert top  # grid marker, keeps the case tuple self-documenting


def test_series_quotient_against_naive_convolution():
    order = 7
    num = [Fraction(math.comb(9, k)) for k in range(order + 1)]
    s = series_rational_coefficients(9, [2, 3], order)
    back = poly_mul(
        s,
        poly_mul(
            [Fraction(1), Fraction(2)] + [Fraction(0)] * (order - 1),
            [Fraction(1), Fraction(3)] + [Fraction(0)] * (order - 1),
            order,
        ),
        order,
    )
    assert back == num


def test_series_integrality_for_integer_factors():
    for degrees in ([2], [2, 3], [4, 4, 6], [2, 2, 2, 2]):
        s = series_rational_coefficients(len(degrees) + 8, degrees, 7)
        assert all(c.denominator == 1 for c in s)


def test_series_without_factors_divides_nothing(monkeypatch):
    # projective space keeps the binomial series, O(n) steps with no division,
    # each of whose steps subtracts
    def divide(self, other):
        raise AssertionError("divided a series with no denominator factors")

    monkeypatch.setattr(Fraction, "__sub__", divide)
    assert series_rational_coefficients(7, (), 5) == [1, 7, 21, 35, 35, 21]
    assert chern_degrees_ci(CIType((), 9)) == [math.comb(10, k) for k in range(10)]


def test_series_rejects_negative_exponent():
    with pytest.raises(ValueError):
        series_rational_coefficients(-2, [], 3)
    with pytest.raises(ValueError):
        series_rational_coefficients(0, [], -1)
