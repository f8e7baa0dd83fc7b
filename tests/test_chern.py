"""Tests for Euler characteristic / Chern degree computations.

Frozen values were derived independently before implementation: hypersurface
cases through the closed form d*chi = (1-d)^(n+2) - 1 + d(n+2), multi-degree
cases through hand-run recursions, and weighted cases through the del Pezzo
closed forms. The three chi routes are also pitted against each other here on
a small grid (the full grid lives in the acceptance suite).
"""

from __future__ import annotations

import ast
import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from nefkit import chern
from nefkit.chern import (
    BettiTable,
    CIType,
    NegativeBetti,
    NonIntegralResult,
    WeightedHypersurface,
    betti_ci,
    chern_degrees_ci,
    euler_ci_formula,
    euler_ci_recursive,
    euler_ci_rows,
    euler_ci_series,
    euler_delpezzo_closed,
    euler_weighted,
    quadrics_b,
)
from nefkit.exactnum import elementary_symmetric


def closed_form_hypersurface_chi(d: int, n: int) -> int:
    # d * chi = (1-d)^(n+2) - 1 + d(n+2), an independent route used only here.
    value = (1 - d) ** (n + 2) - 1 + d * (n + 2)
    assert value % d == 0
    return value // d


# ---------------------------------------------------------------------------
# CIType canonicalization


def test_citype_canonical_form():
    ci = CIType((3, 1, 2, 1), 4)
    assert ci.degrees == (2, 3)
    assert ci.dimension == 4
    assert ci.codimension == 2
    assert ci.degree_product == 6


def test_citype_canonicalization_is_idempotent_and_order_free():
    for perm in itertools.permutations((1, 2, 5, 2)):
        ci = CIType(perm, 3)
        assert ci == CIType((2, 2, 5), 3)
        assert CIType(ci.degrees, ci.dimension) == ci


def test_citype_rejects_bad_input():
    with pytest.raises(ValueError):
        CIType((0, 2), 3)
    with pytest.raises(ValueError):
        CIType((-2,), 3)
    with pytest.raises(ValueError):
        CIType((2,), -1)
    with pytest.raises(ValueError):
        CIType((2.5,), 3)  # type: ignore[arg-type]


def test_degree_one_factors_never_change_results():
    base = CIType((2, 3), 4)
    padded = CIType((1, 2, 1, 3), 4)
    assert padded == base
    assert euler_ci_formula(padded) == euler_ci_formula(base)
    assert euler_ci_series(padded) == euler_ci_series(base)
    assert euler_ci_recursive(padded) == euler_ci_recursive(base)


# ---------------------------------------------------------------------------
# Euler characteristics


def test_projective_space_euler():
    for n in range(0, 16):
        ci = CIType((), n)
        assert euler_ci_formula(ci) == n + 1
        assert euler_ci_series(ci) == n + 1
        assert euler_ci_recursive(ci) == n + 1


def test_frozen_euler_values():
    cases = {
        ((3,), 2): 9,
        ((5,), 3): -200,
        ((4,), 3): -56,
        ((2,), 3): 4,
        ((3,), 4): 27,
        ((2, 2), 1): 0,
        ((2, 2), 2): 8,
        ((2, 2), 3): 0,
        ((2, 2), 4): 12,
        ((2, 3), 1): -6,
        ((2, 2, 2), 1): -8,
    }
    for (degrees, n), expected in cases.items():
        ci = CIType(degrees, n)
        assert euler_ci_formula(ci) == expected, ci
        assert euler_ci_series(ci) == expected, ci
        assert euler_ci_recursive(ci) == expected, ci


def test_recursion_base_cases():
    assert euler_ci_recursive(CIType((7,), 0)) == 7
    assert euler_ci_recursive(CIType((2, 2), 0)) == 4
    assert euler_ci_recursive(CIType((), 0)) == 1


def test_recursion_route_has_no_depth_limit():
    ci = CIType((2, 3), 500)
    assert euler_ci_recursive(ci) == euler_ci_formula(ci)


def test_euler_ci_row_matches_formula_for_every_dimension():
    # the gate-3 scan grid: degrees 2..6, at most five factors, n up to 12
    tuples = [
        degrees
        for r in range(6)
        for degrees in itertools.combinations_with_replacement(range(2, 7), r)
    ]
    cases = [(degrees, 12) for degrees in tuples]
    cases += [((), 30), ((3,), 30), ((2, 2), 30), ((2, 5, 9), 30), ((2, 3, 4, 7, 10, 10), 30)]
    for degrees, n in cases:
        ci = CIType(degrees, n)
        row = [euler_ci_recursive(CIType(degrees, m)) for m in range(n + 1)]
        assert len(row) == n + 1
        assert row == [euler_ci_formula(CIType(degrees, m)) for m in range(n + 1)], ci
        assert euler_ci_recursive(ci) == row[-1]


def test_euler_ci_rows_walks_every_tuple_once_with_its_row():
    # the gate-3 scan grid: degrees 2..6, at most five factors, n up to 12
    walked = [(degrees, list(row), product) for degrees, row, product in euler_ci_rows(6, 5, 12)]
    tuples = [
        degrees
        for r in range(6)
        for degrees in itertools.combinations_with_replacement(range(2, 7), r)
    ]
    assert sorted(degrees for degrees, _, _ in walked) == sorted(tuples)
    for degrees, row, product in walked:
        assert row == [euler_ci_recursive(CIType(degrees, m)) for m in range(13)], degrees
        assert product == math.prod(degrees), degrees
    # the large-n cases of the row test, walked at n = 30
    large = {(), (3,), (2, 2), (2, 5, 9), (2, 3, 4, 7, 10, 10)}
    for degrees, row, product in euler_ci_rows(10, 6, 30):
        if degrees in large:
            large.remove(degrees)
            assert row == [euler_ci_recursive(CIType(degrees, m)) for m in range(31)], degrees
    assert large == set()


def test_euler_ci_rows_visits_parents_first():
    order = [degrees for degrees, _, _ in euler_ci_rows(3, 2, 1)]
    assert order == [(), (2,), (2, 2), (3,), (2, 3), (3, 3)]
    assert [degrees for degrees, _, _ in euler_ci_rows(5, 0, 4)] == [()]
    assert [row for _, row, _ in euler_ci_rows(1, 3, 4)] == [[1, 2, 3, 4, 5]]


def test_hypersurface_closed_form_agreement():
    for d in range(2, 11):
        for n in range(1, 21):
            ci = CIType((d,), n)
            assert euler_ci_formula(ci) == closed_form_hypersurface_chi(d, n), (d, n)


def test_three_routes_agree_on_small_grid():
    degrees_pool = list(range(2, 7))
    for r in range(0, 4):
        for degrees in itertools.combinations_with_replacement(degrees_pool, r):
            for n in range(1, 9):
                ci = CIType(degrees, n)
                a = euler_ci_formula(ci)
                assert euler_ci_series(ci) == a, ci
                assert euler_ci_recursive(ci) == a, ci


def test_chern_degrees_projective_plane():
    assert chern_degrees_ci(CIType((), 2)) == [1, 3, 3]


def test_chern_degrees_cubic_surface():
    degs = chern_degrees_ci(CIType((3,), 2))
    assert degs[0] == 3  # degree of the cubic surface
    assert degs[1] == 3  # deg(c_1 . h) = deg((4-3) h^2) = 3
    assert degs[2] == 9  # Euler characteristic


def test_chern_degrees_last_entry_is_euler():
    for degrees in ((), (2,), (3,), (2, 2), (2, 3, 4)):
        for n in (1, 2, 3, 5):
            ci = CIType(degrees, n)
            assert chern_degrees_ci(ci)[-1] == euler_ci_formula(ci), ci


def test_chern_series_times_its_denominator_is_the_binomial_row():
    # Chern degrees / prod d, convolved with prod (1 + d_j t), give back
    # (1 + t)^(n+r+1) through t^n; the convolution only multiplies
    for degrees in ((2,), (2, 3), (4, 4, 6), (2, 2, 2, 2), (5, 7)):
        product = [1]
        for d in degrees:
            product = [a + d * b for a, b in zip(product + [0], [0] + product)]
        for n in (0, 1, 4, 7):
            ci = CIType(degrees, n)
            series = [Fraction(c, ci.degree_product) for c in chern_degrees_ci(ci)]
            back = [sum(series[i] * product[k - i] for i in range(k + 1) if k - i < len(product))
                    for k in range(n + 1)]
            assert back == [math.comb(n + len(degrees) + 1, k) for k in range(n + 1)], ci


def test_chern_degrees_are_ints():
    for degrees in ((), (2,), (2, 3), (4, 4, 6), (2, 2, 2, 2)):
        for n in range(8):
            assert all(type(c) is int for c in chern_degrees_ci(CIType(degrees, n))), (degrees, n)


def test_projective_space_series_subtracts_nothing(monkeypatch):
    # with no degree other than 1 the binomial row is the series, O(n) steps
    # with no division, each of whose steps subtracts
    def subtract(self, other):
        raise AssertionError("subtracted in the series of a projective space")

    monkeypatch.setattr(Fraction, "__sub__", subtract)
    assert chern_degrees_ci(CIType((), 9)) == [math.comb(10, k) for k in range(10)]
    assert chern_degrees_ci(CIType((1, 1), 5)) == [math.comb(6, k) for k in range(6)]


# ---------------------------------------------------------------------------
# One statement of each Chern limit's bound


def test_only_chern_computes_the_bit_bound_and_only_exactnum_the_print_caps():
    # b + 2, the bits of the largest degree plus 2, appears once in the
    # library, in chern._bit_bound; the digits in force, with their fallback
    # _UNLIMITED_DIGITS, are named only in exactnum, and the 14,000-bit decimal
    # cap is written once, there, for exactnum._printable_bits to read; only
    # exactnum and the dataset reader in cones read the digits in force, every
    # other limit reads bits; and only chern holds the constants of a Chern limit
    bit_bounds, print_caps, digit_readers, decimal_caps, chern_limits = [], [], [], [], []
    for path in sorted(Path(chern.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        owner = {id(node): top.name for top in tree.body
                 if isinstance(top, (ast.FunctionDef, ast.ClassDef)) for node in ast.walk(top)}
        for node in ast.walk(tree):
            where = (path.stem, owner.get(id(node)))
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                    and isinstance(node.left, ast.Call)
                    and isinstance(node.left.func, ast.Attribute)
                    and node.left.func.attr == "bit_length"
                    and isinstance(node.right, ast.Constant) and node.right.value == 2):
                bit_bounds.append(where)
            names = ([node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else
                     [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [])
            if "_UNLIMITED_DIGITS" in names:
                print_caps.append(where)
            if "_digits_in_force" in names:
                digit_readers.append(path.stem)
            if isinstance(node, ast.Constant) and node.value == 14_000:
                decimal_caps.append(where)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and (
                    node.id.startswith(("_CHERN_", "_FORMULA_"))):
                chern_limits.append((path.stem, node.id))
    assert bit_bounds == [("chern", "_bit_bound")]
    assert {module for module, _ in print_caps} == {"exactnum"}
    assert set(digit_readers) == {"exactnum", "cones"}
    assert decimal_caps == [("exactnum", None)]
    assert sorted(chern_limits) == [("chern", "_CHERN_MAX_STEPS"), ("chern", "_FORMULA_MAX_WORK")]


def check_definitions() -> dict[str, list[str]]:
    """Each _check_* function the library defines, with the modules that
    define it."""
    checks: dict[str, list[str]] = {}
    for path in sorted(Path(chern.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_"):
                checks.setdefault(node.name, []).append(path.stem)
    return checks


def test_each_size_check_lives_beside_its_work_and_cli_defines_no_limit():
    # cli only calls the checks: it defines no _check_* function and no
    # module-level _..MAX.. constant, reads no int-to-str setting and renders
    # its report outside every try, so no render failure is caught; each size
    # check is defined once, in the module whose work it bounds, and
    # tests/test_golden.py checks that each refuses an edge of record.EDGES
    checks = check_definitions()
    tree = ast.parse(Path(chern.__file__).with_name("cli.py").read_text("utf-8"))
    cli_limits = [node.id for top in tree.body
                  if not isinstance(top, (ast.FunctionDef, ast.ClassDef))
                  for node in ast.walk(top)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                  and node.id.startswith("_") and "MAX" in node.id]
    cli_digits = [name for node in ast.walk(tree)
                  for name in ([node.id] if isinstance(node, ast.Name) else
                               [node.attr] if isinstance(node, ast.Attribute) else
                               [alias.name for alias in node.names]
                               if isinstance(node, ast.ImportFrom) else [])
                  if "int_max_str_digits" in name
                  or name in ("_digits_in_force", "_printable_bits")]
    cli_caught_renders = [node.lineno for block in ast.walk(tree)
                          if isinstance(block, ast.Try) and block.handlers
                          for statement in block.body for node in ast.walk(statement)
                          if isinstance(node, ast.Attribute)
                          and node.attr in ("dumps", "render")]
    assert cli_limits == [] and cli_digits == [] and cli_caught_renders == []
    assert [name for name, modules in checks.items() if "cli" in modules] == []
    assert {name: checks.get(name) for name in ("_check_formula_size", "_check_chern_size",
                                                "_check_weighted_size", "_check_scan_size",
                                                "_check_curve_size", "_check_delpezzo_size",
                                                "_check_cone_size")} == {
        "_check_formula_size": ["chern"], "_check_chern_size": ["chern"],
        "_check_weighted_size": ["chern"], "_check_scan_size": ["diagonal"],
        "_check_curve_size": ["diagonal"], "_check_delpezzo_size": ["diagonal"],
        "_check_cone_size": ["cones"]}


# ---------------------------------------------------------------------------
# All-quadrics invariant b(n, r)


def test_quadrics_b_bases_and_frozen_values():
    assert quadrics_b(1, 1) == -1
    assert quadrics_b(1, 3) == 1
    assert quadrics_b(2, 3) == 3
    assert quadrics_b(3, 2) == 0
    assert quadrics_b(4, 3) == 6


def test_quadrics_b_even_odd_closed_form_r2():
    for n in range(1, 13):
        expected = Fraction(n, 2) + 1 if n % 2 == 0 else Fraction(0)
        assert quadrics_b(n, 2) == expected, n


def test_quadrics_b_matches_euler_normalization():
    # b reads the recursive route; the formula route cross-checks it
    for n in range(1, 41):
        for r in range(1, 11):
            ci = CIType((2,) * r, n)
            expected = Fraction((-1) ** n * euler_ci_formula(ci), 2**r)
            assert quadrics_b(n, r) == expected, (n, r)


def test_quadrics_b_large_dimension_is_an_exact_integer():
    # depth about n used to exhaust the recursion limit
    value = quadrics_b(1500, 3)
    assert type(value) is int
    assert value == euler_ci_formula(CIType((2, 2, 2), 1500)) // 8 == 282376


def test_quadrics_b_rejects_bad_input():
    with pytest.raises(ValueError):
        quadrics_b(0, 3)
    with pytest.raises(ValueError):
        quadrics_b(3, 0)


# ---------------------------------------------------------------------------
# Betti tables and Poincare polynomials


def test_betti_odd_two_quadrics():
    table = betti_ci(CIType((2, 2), 3))
    assert table.betti == (1, 0, 1, 4, 1, 0, 1)
    assert table.middle == 4
    assert table.euler_characteristic == 0


def test_betti_middle_of_odd_two_quadrics_family():
    for n in range(1, 7):
        table = betti_ci(CIType((2, 2), 2 * n + 1))
        assert table.middle == 2 * n + 2, n
        assert table.euler_characteristic == 0


def test_betti_quintic_threefold():
    table = betti_ci(CIType((5,), 3))
    assert table.middle == 204
    assert table.euler_characteristic == -200


def test_betti_quadric_fourfold():
    table = betti_ci(CIType((2,), 4))
    assert table.betti == (1, 0, 1, 0, 2, 0, 1, 0, 1)


def test_betti_euler_consistency_on_grid():
    for degrees in ((), (2,), (3,), (4,), (2, 2), (2, 3), (2, 2, 2), (3, 3)):
        for n in range(1, 11):
            ci = CIType(degrees, n)
            assert betti_ci(ci).euler_characteristic == euler_ci_formula(ci), ci


def test_betti_rejects_dimension_zero():
    with pytest.raises(ValueError):
        betti_ci(CIType((2,), 0))


def test_betti_table_validation(monkeypatch):
    with pytest.raises(ValueError):
        BettiTable((1, 0))  # even length
    with pytest.raises(ValueError):
        BettiTable((1, 0, 2))  # duality violated
    with pytest.raises(NegativeBetti):
        BettiTable((1, -2, 1))
    # no complete intersection has one, so a stand-in chi: b_2 = chi - 2 < 0
    monkeypatch.setattr(chern, "euler_ci_formula", lambda ci: 1)
    with pytest.raises(NegativeBetti, match=r"^middle Betti number -1 < 0 for \(2;2\)$"):
        betti_ci(CIType((2,), 2))


def test_poincare_polynomials():
    assert betti_ci(CIType((), 1)).poincare == [1, 0, 1]
    assert betti_ci(CIType((2, 2), 2)).poincare == [1, 0, 6, 0, 1]
    assert betti_ci(CIType((2, 2), 3)).poincare == [1, 0, 1, -4, 1, 0, 1]


# ---------------------------------------------------------------------------
# Weighted hypersurfaces


def test_weighted_validation():
    with pytest.raises(ValueError):
        WeightedHypersurface((2, 1, 1, 1), 4)  # too few weights
    with pytest.raises(ValueError):
        WeightedHypersurface((2, 0, 1, 1, 1), 4)
    with pytest.raises(ValueError):
        WeightedHypersurface((2, 1, 1, 1, 1), 0)


def test_weighted_frozen_values():
    assert euler_weighted(WeightedHypersurface((2, 1, 1, 1, 1), 4)) == -16
    assert euler_weighted(WeightedHypersurface((3, 2, 1, 1, 1), 6)) == -38
    # Five unit weights give ambient P^4, so degree 3 is the cubic threefold.
    assert euler_weighted(WeightedHypersurface((1, 1, 1, 1, 1), 3)) == -6
    assert euler_weighted(WeightedHypersurface((1, 1, 1, 1, 1), 3)) == euler_ci_formula(
        CIType((3,), 3)
    )


def test_weighted_all_ones_specializes_to_hypersurface():
    for d in range(2, 7):
        for n in range(3, 11):
            wh = WeightedHypersurface((1,) * (n + 2), d)
            assert euler_weighted(wh) == euler_ci_formula(CIType((d,), n)), (d, n)


def test_weighted_non_integral_raises():
    # Sum evaluates to 1, times 3/2: not an integer, outside validity.
    with pytest.raises(NonIntegralResult):
        euler_weighted(WeightedHypersurface((2, 1, 1, 1, 1), 3))


def test_weighted_is_an_exact_int_and_names_the_reduced_fraction():
    assert type(euler_weighted(WeightedHypersurface((3, 2, 1, 1, 1, 1), 6))) is int
    with pytest.raises(NonIntegralResult, match=r"chi = 3/2 is not an integer"):
        euler_weighted(WeightedHypersurface((2, 1, 1, 1, 1), 3))


def per_term_chi(weights: tuple[int, ...], d: int) -> Fraction:
    # the formula as written, one e_k per term: sum e_(m-1-i)(a) (-d)^i * d / prod(a)
    m = len(weights) - 1
    total = sum(elementary_symmetric(m - 1 - i, weights) * (-d) ** i for i in range(m))
    return Fraction(total * d, math.prod(weights))


def test_weighted_matches_the_per_term_sum_on_random_weights():
    # a degree that is a multiple of every weight makes chi an integer more often
    rng = random.Random(1600)
    for i in range(300):
        weights = tuple(rng.randint(1, 4) for _ in range(rng.randint(5, 12)))
        d = math.lcm(*weights) * rng.randint(1, 3) if i % 2 else rng.randint(1, 40)
        wh = WeightedHypersurface(weights, d)
        expected = per_term_chi(weights, d)
        if expected.denominator == 1:
            assert euler_weighted(wh) == expected, (weights, d)
        else:
            with pytest.raises(NonIntegralResult, match=rf"chi = {expected} is not an integer"):
                euler_weighted(wh)


def test_weighted_with_1600_weights_meets_time_budget():
    # an e_m of O(m^2) steps takes close to a second at 3200 weights
    for count in (1600, 3200):
        start = time.perf_counter()
        chi = euler_weighted(WeightedHypersurface((1,) * count, 2))
        elapsed = time.perf_counter() - start
        assert chi == euler_ci_formula(CIType((2,), count - 2))
        assert elapsed < 10.0, f"euler_weighted with {count} weights took {elapsed:.2f}s"


def test_delpezzo_closed_forms():
    assert euler_delpezzo_closed(3, 1) == -38
    assert euler_delpezzo_closed(4, 1) == 213
    assert euler_delpezzo_closed(5, 1) == -1036
    assert euler_delpezzo_closed(3, 2) == -16
    with pytest.raises(ValueError):
        euler_delpezzo_closed(2, 1)
    with pytest.raises(ValueError):
        euler_delpezzo_closed(3, 3)


def test_delpezzo_closed_forms_match_weighted_formula():
    for n in range(3, 16):
        sextic = WeightedHypersurface((3, 2) + (1,) * n, 6)
        quartic = WeightedHypersurface((2,) + (1,) * (n + 1), 4)
        assert euler_weighted(sextic) == euler_delpezzo_closed(n, 1), n
        assert euler_weighted(quartic) == euler_delpezzo_closed(n, 2), n
