"""Property tests: the scan against the verdict chain, the shared-row walk
against the per-type row, and the three Euler routes against each other.

Examples are derandomized and no example database is written, so every run
draws the same inputs; the example counts keep the file to a few seconds.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement

from hypothesis import given, settings
from hypothesis import strategies as st

from nefkit.chern import (
    CIType,
    euler_ci_formula,
    euler_ci_recursive,
    euler_ci_row,
    euler_ci_rows,
    euler_ci_series,
)
from nefkit.diagonal import scan_ci, verdict_ci


def bounded(examples: int) -> settings:
    """The same examples on every run, at most the given number of them."""
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None)


@bounded(150)
@given(max_dimension=st.integers(1, 8), max_degree=st.integers(1, 5),
       max_codimension=st.integers(1, 4), quadrics_max_codimension=st.integers(1, 5))
def test_scan_counts_the_verdicts_of_its_grid(max_dimension, max_degree, max_codimension,
                                              quadrics_max_codimension):
    report = scan_ci(max_dimension, max_degree, max_codimension, quadrics_max_codimension)
    grid = [
        CIType(degrees, n)
        for r in range(max_codimension + 1)
        for degrees in combinations_with_replacement(range(2, max_degree + 1), r)
        for n in range(1, max_dimension + 1)
    ]
    assert report.cases == len(grid)
    assert Counter(report.verdict_counts) == Counter(verdict_ci(ci).status.value for ci in grid)


@bounded(100)
@given(max_degree=st.integers(1, 7), max_codimension=st.integers(0, 5),
       max_dimension=st.integers(0, 25))
def test_walk_rows_equal_the_row_of_their_type(max_degree, max_codimension, max_dimension):
    seen = []
    for degrees, row, degree_product in euler_ci_rows(max_degree, max_codimension,
                                                      max_dimension):
        ci = CIType(degrees, max_dimension)
        assert row == euler_ci_row(ci), degrees
        assert degree_product == ci.degree_product
        seen.append(degrees)
    expected = [degrees for r in range(max_codimension + 1)
                for degrees in combinations_with_replacement(range(2, max_degree + 1), r)]
    assert sorted(seen) == sorted(expected)


@bounded(300)
@given(degrees=st.lists(st.integers(1, 9), max_size=5), n=st.integers(0, 12))
def test_three_euler_routes_agree(degrees, n):
    ci = CIType(degrees, n)
    assert euler_ci_formula(ci) == euler_ci_series(ci) == euler_ci_recursive(ci)
