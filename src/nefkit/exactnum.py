"""Exact combinatorial arithmetic: complete homogeneous and elementary
symmetric functions of integers.

Everything here is integer arithmetic, no floats and no fractions; the
rational series that the Chern degrees expand lives in chern, and only chern
ci expands one.

This bottom layer also holds the decimal print caps, which _printable_bits
reads for every bit cap in chern and diagonal, and _Frozen, the immutable-value
behaviour of every layer's value classes, written by hand so that no subcommand
imports dataclasses or inspect at cold start.
"""

from __future__ import annotations

import sys
from typing import Sequence

__all__ = ["complete_homogeneous", "complete_homogeneous_prefix", "elementary_symmetric"]

# The digit bound on a printed integer when the int-to-str limit is off, or set
# above 1,000,000 digits, a work bound: `--format json verdict delpezzo --dim
# 1000000 --degree 1`, a chi of 698,971 digits, takes 7.4 s to print (Python
# 3.11, 2-CPU host), in time growing with the square of the digits; and the most
# bits nefkit prints in decimal, 4,215 digits under the default limit of 4,300.
_UNLIMITED_DIGITS = 1_000_000
_DECIMAL_MAX_BITS = 14_000


def _digits_in_force() -> int:
    """The int-to-str limit, at most _UNLIMITED_DIGITS, which also stands for no limit."""
    return min(sys.get_int_max_str_digits() or _UNLIMITED_DIGITS, _UNLIMITED_DIGITS)


def _printable_bits(cap: int | None = _DECIMAL_MAX_BITS) -> int:
    """The most bits of an integer that prints under the digits in force, at most cap."""
    # log2 10 in billionths, 8.9e-10 below it, so 2^bits <= 10^digits; exact to 14,300 digits
    bits = _digits_in_force() * 3_321_928_094 // 1_000_000_000
    return bits if cap is None else min(cap, bits)


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
    """Value behaviour for a class that names its fields in _fields: equality
    only with an instance of the same class with equal fields, the hash of the
    field tuple, the repr Name(field=value, ...), and no attribute assignment
    or deletion. A class whose __init__ checks its arguments or fills in
    defaults stores the fields with _store; any other takes them by keyword."""

    _fields: tuple[str, ...]

    def __init__(self, **fields: object) -> None:
        if fields.keys() != set(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes the keyword fields {self._fields}")
        self._store(*[fields[name] for name in self._fields])

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
