"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest


@pytest.fixture
def set_str_limit():
    """sys.set_int_max_str_digits, with the limit in force before the test
    restored at its teardown. A function-scoped fixture, so no @given test
    takes it."""
    limit = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(limit)
