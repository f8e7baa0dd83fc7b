"""Tests for the exact arithmetic layer.

The symmetric functions are checked against brute-force enumeration over
index multisets/subsets, so every frozen value downstream rests on an
independent oracle; chern's series route has its own tests in test_chern.
"""

from __future__ import annotations

import itertools
import math

from nefkit import exactnum
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


def test_printable_bits_are_the_bits_of_the_largest_power_of_two_that_prints(monkeypatch):
    # 2^bits <= 10^digits, with bits = floor(digits log2 10) exactly for every
    # digit count from 640, the lowest int-to-str setting, to 14,300; the
    # 14,000-bit cap applies by default and not under cap=None
    power = 10**639
    for digits in range(640, 14_301):
        power *= 10
        monkeypatch.setattr(exactnum, "_digits_in_force", lambda: digits)
        assert exactnum._printable_bits(None) == power.bit_length() - 1, digits
        assert exactnum._printable_bits() == min(14_000, power.bit_length() - 1), digits
