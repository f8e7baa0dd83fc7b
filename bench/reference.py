"""Independent references for every output the benchmark checks.

Nothing here imports nefkit. Counts come from closed forms, characteristic
numbers from an integer power-series recurrence, cone checks from the
benchmark's own dot products and a brute-force integer dual cone
(generalized cross products, not nefkit's rational row reduction), and the
CLI values are written by hand in workloads.CLI_CORPUS. Each check returns
None when the output is right, or a one-line description of the mismatch.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, prod

import workloads as wl

# Acceptance gate 2: (degrees, n) -> (chi, middle Betti number).
FROZEN = {((3,), 2): (9, 7), **{((2, 2), 2 * k + 1): (0, 2 * k + 2) for k in range(1, 6)}}

# Nef cones of the shipped datasets. gw2c5 codimensions 2 and 3 are frozen
# by acceptance gate 6; every other block of both datasets pairs one class
# with one class positively, or is a permutation matrix (Schubert duality on
# G(2,5)), so its nef cone is the positive orthant.
_ORTHANT1 = [[1]]
_ORTHANT2 = [[0, 1], [1, 0]]
NEF_CONES = {
    "gw2c5": [_ORTHANT1, _ORTHANT1, [[1, 0], [1, 1]], [[1, 0], [1, 1]], _ORTHANT1, _ORTHANT1],
    "g2c5": [_ORTHANT1, _ORTHANT1, _ORTHANT2, _ORTHANT2, _ORTHANT2, _ORTHANT1, _ORTHANT1],
}


def chern_degrees(degrees: tuple[int, ...], n: int) -> list[int]:
    """deg c_k for k = 0..n: prod(d) times the t^k coefficient of
    (1+t)^(n+r+1) / prod(1 + d t), by the integer division recurrence."""
    coeffs = [comb(n + len(degrees) + 1, k) for k in range(n + 1)]
    for d in degrees:
        for k in range(1, n + 1):
            coeffs[k] -= d * coeffs[k - 1]
    return [prod(degrees) * c for c in coeffs]


def delpezzo_chi(family: int, n: int) -> Fraction:
    """Acceptance gate 4's closed forms for the degree-1 and degree-2 families."""
    if family == 1:
        return Fraction(3 * n + 2 + (-5) ** n, 3)
    return Fraction(4 * n + 5 - (-3) ** (n + 1), 4)


def sweep_expected(max_dim: int, max_degree: int, max_r: int, quadrics_max_r: int) -> dict:
    """ScanReport counts by closed forms. Verdicts follow acceptance gate 5's
    golden lists: Nef is P^n, the quadrics and the two elliptic curves
    (2 * max_dim + 2), Open is the odd n >= 3 of two quadrics."""
    k = max_degree - 1
    cases = wl.sweep_cases(max_dim, max_degree, max_r)
    nef = 2 * max_dim + 2
    open_ = len(range(3, max_dim + 1, 2))
    evens = max_dim // 2
    hyper_per_n = max_degree - 2  # r = 1 with d >= 3
    multi_per_n = sum(comb(k + r - 1, r) - 1 for r in range(2, max_r + 1))  # not all 2
    return {
        "cases": cases,
        "verdict_counts": {"Nef": nef, "NotNef": cases - nef - open_, "Open": open_},
        "law_checks": {
            "hypersurface_sign": max_dim * hyper_per_n - 1,  # without the plane cubic
            "multidegree_sign": max_dim * multi_per_n,
            "even_dimension_bound": evens * (hyper_per_n + multi_per_n) - 1,  # cubic surface
            "quadrics_positive": max_dim * (quadrics_max_r - 2),
            "quadrics_even_bound": evens * (quadrics_max_r - 2) - 1,  # (n, r) = (2, 3)
            "verdict_classified": cases,
        },
    }


def check_sweep(grid, out) -> str | None:
    expected = sweep_expected(*grid)
    for key, value in expected.items():
        if out.get(key) != value:
            return f"{key}: {out.get(key)} != {value}"
    return None


def check_routes(item, out) -> str | None:
    if item[0] == "weighted":
        _, _, _, n, family = item
        expected = delpezzo_chi(family, n)
        got = Fraction(out[0], out[1])
        if got != expected or out[2] != expected:
            return f"weighted family {family}, n={n}: {out} != {expected}"
        return None
    _, degrees, n = item
    formula, series, recursive, chern, euler, middle = out
    reference = chern_degrees(degrees, n)
    chi = reference[-1]
    expected_middle = chi - n if n % 2 == 0 else n + 1 - chi
    if (degrees, n) in FROZEN and FROZEN[degrees, n] != (chi, expected_middle):
        return f"frozen value of {degrees};{n} is ({chi}, {expected_middle})"
    if not formula == series == recursive == chi:
        return f"{degrees};{n}: routes {formula}, {series}, {recursive} != {chi}"
    if chern != reference:
        return f"{degrees};{n}: chern degrees differ"
    if euler != chi or middle != expected_middle:
        return f"{degrees};{n}: Betti table euler {euler}, middle {middle}"
    return None


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _primitive(vec) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, x)
    return tuple(x // g for x in vec)


def _det(rows: list[list[int]]) -> int:
    """Integer determinant by Bareiss fraction-free elimination."""
    mat = [row[:] for row in rows]
    n, sign, prev = len(mat), 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if mat[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def dual_rays(gens, m: int) -> list[tuple[int, ...]]:
    """Extremal rays of {x : <x, g> >= 0 for all g}, by brute force: the
    generalized cross product of every m-1 inequalities, kept when feasible."""
    normals = sorted(set(tuple(g) for g in gens))
    rays = set()
    for subset in combinations(normals, m - 1):
        cross = [
            (-1) ** j * _det([[row[c] for c in range(m) if c != j] for row in subset])
            for j in range(m)
        ]
        if not any(cross):
            continue
        for ray in (_primitive(cross), _primitive([-x for x in cross])):
            if all(_dot(ray, g) >= 0 for g in normals):
                rays.add(ray)
    return sorted(rays)


def check_cones(job, out) -> str | None:
    m = job["m"]
    if m == 0:
        expected = [
            [name, codim, gens]
            for name, cones in NEF_CONES.items()
            for codim, gens in enumerate(cones)
        ]
        return None if out == expected else "nef cones of the shipped datasets differ"
    gens = job["gens"]
    rays = [tuple(ray) for ray in out["rays"]]
    if len(rays) < m or len(set(rays)) != len(rays):
        return f"m={m}: {len(rays)} rays for a pointed cone"
    if any(_primitive(ray) != ray for ray in rays):
        return f"m={m}: a ray is not primitive"
    if any(_dot(ray, g) < 0 for ray in rays for g in gens):
        return f"m={m}: a ray violates an inequality"
    if sorted(rays) != dual_rays(gens, m):
        return f"m={m}: rays differ from the brute-force dual"
    if m <= 4:
        if [tuple(r) for r in out["third"]] != sorted(rays):
            return f"m={m}: dual of dual of dual differs from the dual"
        if not {tuple(r) for r in out["second"]} <= {_primitive(g) for g in gens}:
            return f"m={m}: dual of dual has a ray that is no generator"
        expected = [all(_dot(v, g) >= 0 for g in gens) for v in job["queries"]]
        if out["contains"] != expected:
            return f"m={m}: contains {out['contains']} != {expected}"
    return None


def _field(value, path):
    for key in path:
        value = value[key]
    return value


def check_cli(index, out) -> str | None:
    argv, code, fields = wl.CLI_CORPUS[index]
    status, stdout, has_stderr = out
    name = " ".join(argv)
    if status != code:
        return f"{name}: exit {status} != {code}"
    if code != 0:
        return None if stdout == "" and has_stderr else f"{name}: error exit without message"
    payload = json.loads(stdout)
    if payload["command"] != " ".join(argv[:2]):
        return f"{name}: command {payload['command']!r}"
    for path, value in fields.items():
        got = _field(payload["result"], path)
        if got != value:
            return f"{name}: result{list(path)} = {got!r} != {value!r}"
    return None


CHECKS = {"sweep": check_sweep, "routes": check_routes, "cones": check_cones, "cli": check_cli}
