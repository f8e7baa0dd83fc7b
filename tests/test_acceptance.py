"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the [GATE] lines.
Every check is exact integer/rational arithmetic; the two sweep criteria
also carry wall-clock budgets.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement

from nefkit.chern import (
    CIType,
    WeightedHypersurface,
    betti_ci,
    euler_ci_formula,
    euler_ci_recursive,
    euler_ci_series,
    euler_delpezzo_closed,
    euler_weighted,
    quadrics_b,
)
from nefkit.cones import builtin_dataset, delpezzo5_cones, dual_cone
from nefkit.diagonal import (
    DELPEZZO_TABLE,
    Status,
    cp_fibration_obstruction,
    nef_big_filter,
    scan_ci,
    spherical_nef_diagonal_check,
    verdict_ci,
    verdict_curve,
    verdict_delpezzo,
)


def gate(name: str, ok: bool, detail: str) -> None:
    print(f"[GATE] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


def test_gate_1_euler_route_equivalence() -> None:
    # the closed formula, the series quotient and the recursion must agree
    # exactly on every canonical type with degrees in 2..6, at most four
    # factors, dimension up to 15 - inside a 10 second budget
    start = time.monotonic()
    cases = 0
    for r in range(5):
        for degrees in combinations_with_replacement(range(2, 7), r):
            for n in range(1, 16):
                ci = CIType(degrees, n)
                a = euler_ci_formula(ci)
                assert a == euler_ci_series(ci) == euler_ci_recursive(ci), ci
                cases += 1
    elapsed = time.monotonic() - start
    gate(
        "euler route equivalence",
        cases == 1890 and elapsed < 10.0,
        f"{cases} cases, 3 routes, {elapsed:.2f}s",
    )


def test_gate_2_frozen_characteristic_values() -> None:
    checks = [euler_ci_formula(CIType((3,), 2)) == 9]
    for n in range(1, 6):
        ci = CIType((2, 2), 2 * n + 1)
        checks.append(euler_ci_formula(ci) == 0)
        checks.append(betti_ci(ci).middle == 2 * n + 2)
    checks.append(quadrics_b(1, 3) == 1)
    checks.append(quadrics_b(4, 3) == 6)
    for n in range(2, 13, 2):
        checks.append(quadrics_b(n, 2) == Fraction(n, 2) + 1)
    gate(
        "frozen characteristic values",
        all(checks),
        f"{len(checks)} pinned values exact",
    )


def test_gate_3_sign_and_bound_scan() -> None:
    start = time.monotonic()
    report = scan_ci(
        max_dimension=12, max_degree=6, max_codimension=5, quadrics_max_codimension=8
    )
    elapsed = time.monotonic() - start
    total_checks = sum(report.law_checks.values())
    gate(
        "sign and bound scan",
        report.cases == 3024 and elapsed < 30.0,
        f"{report.cases} cases, {total_checks} law checks, 0 violations, {elapsed:.2f}s",
    )


def test_gate_4_weighted_closed_forms() -> None:
    checks = []
    for n in range(3, 16):
        chi1 = euler_weighted(WeightedHypersurface((3, 2) + (1,) * n, 6))
        chi2 = euler_weighted(WeightedHypersurface((2,) + (1,) * (n + 1), 4))
        checks.append(chi1 == Fraction(3 * n + 2 + (-5) ** n, 3))
        checks.append(chi2 == Fraction(4 * n + 5 - (-3) ** (n + 1), 4))
        checks.append(chi1 == euler_delpezzo_closed(n, 1))
        checks.append(chi2 == euler_delpezzo_closed(n, 2))
        if n % 2 == 1:
            checks.append(chi1 < 0)
            checks.append(chi2 < 0)
        elif n >= 4:
            checks.append(chi1 > 2**n * (n + 1))
            checks.append(chi2 > 2 * (n + 1))
    gate(
        "weighted closed forms",
        all(checks),
        f"degrees 1 and 2, dimensions 3..15, {len(checks)} exact checks",
    )


def test_gate_5_classification_golden_lists() -> None:
    # complete intersections: the non-NotNef set over the scan grid is
    # exactly projective spaces, quadrics, the two elliptic curves, and the
    # odd-dimensional intersections of two quadrics (the open family)
    nef_seen, open_seen = set(), set()
    for n in range(1, 13):
        for r in range(0, 6):
            for degrees in combinations_with_replacement(range(2, 7), r):
                ci = CIType(degrees, n)
                verdict = verdict_ci(ci)
                if verdict.status is Status.NEF:
                    nef_seen.add((ci.degrees, ci.dimension))
                elif verdict.status is Status.OPEN:
                    open_seen.add((ci.degrees, ci.dimension))
    nef_expected = (
        {((), n) for n in range(1, 13)}
        | {((2,), n) for n in range(1, 13)}
        | {((3,), 1), ((2, 2), 1)}
    )
    open_expected = {((2, 2), n) for n in range(3, 13, 2)}
    ci_ok = nef_seen == nef_expected and open_seen == open_expected

    # del Pezzo manifolds: nef exactly in the four homogeneous/fake cases
    dp_nef = set()
    dp_cases = 0
    for row in DELPEZZO_TABLE:
        for n in range(3, 13):
            if not row.admits(n):
                continue
            dp_cases += 1
            if verdict_delpezzo(n, row.degree).status is Status.NEF:
                dp_nef.add((n, row.degree))
    dp_ok = dp_nef == {(3, 5), (6, 5), (3, 6), (4, 6)}

    # nef-and-big filter: projective spaces, odd quadrics, the fivefold
    filter_ci = {
        (ci_degrees, n)
        for n in range(1, 13)
        for ci_degrees in [(), (2,)]
        if nef_big_filter("ci", CIType(ci_degrees, n))
    }
    filter_ci_expected = {((), n) for n in range(1, 13)} | {
        ((2,), n) for n in range(1, 13, 2)
    }
    filter_dp = {
        (n, row.degree)
        for row in DELPEZZO_TABLE
        for n in range(3, 13)
        if row.admits(n) and nef_big_filter("delpezzo", (n, row.degree))
    }
    filter_ok = filter_ci == filter_ci_expected and filter_dp == {(3, 5)}

    gate(
        "classification golden lists",
        ci_ok and dp_ok and filter_ok,
        f"ci nef {len(nef_seen)}, ci open {len(open_seen)}, "
        f"del Pezzo nef {sorted(dp_nef)} of {dp_cases} cases",
    )


def test_gate_6_cone_reproduction() -> None:
    cones = delpezzo5_cones()
    exact = (
        cones.nef2.generators == ((1, 0), (1, 1))
        and cones.eff2.generators == ((0, 1), (1, 0))
        and cones.nef3.generators == ((1, 0), (1, 1))
        and cones.eff3.generators == ((0, 1), (1, 0))
    )
    verdict = spherical_nef_diagonal_check(builtin_dataset("gw2c5"))
    witness_ok = verdict.status is Status.NOT_NEF and verdict.witness == {
        "classes": ["tau(3,-1)", "tau(2,1)"],
        "value": -1,
    }

    # dual-of-dual identity on seeded random pointed integer cones
    rng = random.Random(6)
    rounds = 0
    involution_ok = True
    for m, count in ((2, 25), (3, 25)):
        identity = [tuple(int(i == j) for j in range(m)) for i in range(m)]
        for _ in range(count):
            gens = [
                tuple([rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(m - 1)])
                for _ in range(rng.randint(m, m + 4))
            ]
            first = dual_cone(gens, identity)
            second = dual_cone(first.generators, identity)
            involution_ok = involution_ok and all(second.contains(g) for g in gens)
            involution_ok = (
                involution_ok and dual_cone(second.generators, identity) == first
            )
            rounds += 1
    gate(
        "cone reproduction",
        exact and witness_ok and involution_ok and rounds == 50,
        f"4 generator sets exact, witness -1 pair, {rounds} double-dual cones",
    )


def test_gate_7_fibration_obstruction() -> None:
    checks = []
    for n in range(1, 11):
        obstruction = cp_fibration_obstruction(n)
        checks.append(obstruction.nonzero)
        checks.append(any(obstruction.remainder))
    gate(
        "fibration obstruction",
        all(checks),
        "nonzero remainder for dimensions 3..21 (all ten fibration candidates)",
    )


@cache
def fermat_chi(degrees: tuple[int, ...], m: int) -> int:
    """chi of the m-dimensional complete intersection of the given degrees: a
    part of negative dimension is empty, one of dimension 0 is prod d points."""
    return 0 if m < 0 else euler_ci_formula(CIType(degrees, m))


def lefschetz_numbers(degrees: tuple[int, ...], n: int) -> list[int]:
    """L(sigma_S) for |S| = 1..n+r on the Fermat-type member of (degrees; n)
    in P^(n+r), where sigma_S multiplies the coordinates in S by a primitive
    g-th root of unity, g = gcd(degrees) >= 2. Its fixed locus is the two
    Fermat-type parts in P(V_S) and P(V_S^c), of dimensions |S| - 1 - r and
    n - |S|, so L(sigma_S) = chi(d; |S| - 1 - r) + chi(d; n - |S|)."""
    r = len(degrees)
    return [fermat_chi(degrees, s - 1 - r) + fermat_chi(degrees, n - s)
            for s in range(1, n + r + 1)]


def test_gate_8_lefschetz_cross_check() -> None:
    # Delta . Gamma_sigma = L(sigma) (Lefschetz), so a nef diagonal forces
    # L(sigma) >= 0 for every automorphism sigma. Over the default scan grid
    # (n <= 12, degrees 2..6, r <= 5) no Nef or Open verdict meets an L < 0,
    # and a negative L independently witnesses most NotNef verdicts with
    # g >= 2. g = 1 gives no sigma, and P^n has no equations.
    start = time.monotonic()
    counts: Counter = Counter()
    for r in range(6):
        for degrees in combinations_with_replacement(range(2, 7), r):
            for n in range(1, 13):
                if not degrees or math.gcd(*degrees) == 1:
                    counts["P^n" if not degrees else "g = 1"] += 1
                    continue
                verdict = verdict_ci(CIType(degrees, n))
                negative = min(lefschetz_numbers(degrees, n)) < 0
                counts[verdict.status.value, verdict.reason.value, negative] += 1
    k3 = lefschetz_numbers((2, 2, 2), 2)
    elapsed = time.monotonic() - start
    assert counts == {
        "P^n": 12,
        "g = 1": 2112,
        ("NotNef", "ProjectionBound", True): 436,
        ("NotNef", "NegativeSelfIntersection", True): 363,
        ("NotNef", "NegativeSelfIntersection", False): 74,
        # the even (2,2) and cubic surface steps
        ("NotNef", "NegativeEffectivePair", False): 7,
        ("NotNef", "K3Surface", True): 1,
        ("Nef", "Homogeneous", False): 12,
        ("Nef", "GroupVariety", False): 2,
        ("Open", "OpenQuestion", False): 5,
    }, counts
    # the K3 surface's sigma with |S| = 1 fixes the genus-5 curve {x_0 = 0}
    # and nothing in P(V_S), a point off the surface
    assert k3[0] == -8 == verdict_curve(5).witness["chi"]
    assert lefschetz_numbers((2, 2), 3) == [8, 0, 8, 0, 8]
    gate(
        "lefschetz cross-check",
        elapsed < 3.0,
        "900 cases with g >= 2: no Nef or Open verdict has L < 0, L < 0 on 436 of 436"
        f" ProjectionBound and 363 of 437 NegativeSelfIntersection; {elapsed:.2f} s",
    )
