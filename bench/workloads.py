"""Seeded inputs of the four benchmark workloads.

Standard library only and free of nefkit imports: the runner builds its
independent references from the same inputs that the workload process hands
to nefkit. The same seed always gives the same inputs.

Input ranges are set by run time, not by what nefkit can handle: each
workload cycles through a pool sized so that one run of a few seconds
completes hundreds of operations, and stratified so that the medians hardly
depend on the seed.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from math import comb

WORKLOADS = ("sweep", "routes", "cones", "cli")

# Percentile reported as op_tail_ms, fixed per workload so that it never
# switches with the number of operations a run completes. Each leaves at
# least ten samples beyond it at the seed commit.
TAIL_PERCENTILE = {"sweep": 90, "routes": 95, "cones": 90, "cli": 80}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# sweep: scan_ci over grid bounds


def sweep_cases(max_dim: int, max_degree: int, max_r: int) -> int:
    """Closed-form number of canonical types in a scan_ci grid."""
    return max_dim * comb(max_degree - 1 + max_r, max_r)


def _sweep_work(max_dim: int, max_degree: int, max_r: int) -> int:
    # Rough cost model of one scan: per case, a constant plus a term growing
    # with dimension times codimension. Used only to keep every grid in one
    # cost band.
    k = max_degree - 1
    return sum(
        comb(k + r - 1, r) * (8 * max_dim + (r + 1) * max_dim * (max_dim + 1) // 2)
        for r in range(max_r + 1)
    )


def _sweep_candidates() -> list[tuple[int, int, int]]:
    """Grid bounds (dimension <= 20, degree 3..8, codimension 2..6) whose
    modelled cost lies in one band, ordered by that cost."""
    grids = [
        (d, g, r)
        for d in range(2, 21)
        for g in range(3, 9)
        for r in range(2, 7)
        if 12_000 <= _sweep_work(d, g, r) <= 24_000
    ]
    return sorted(grids, key=lambda grid: (_sweep_work(*grid), grid))


def sweep_inputs(seed: int) -> list[tuple[int, int, int, int]]:
    """Every candidate grid once, in seeded order, each with a seeded
    quadrics bound: (max_dim, max_degree, max_r, quadrics_max_r)."""
    rng = _rng("sweep", seed)
    grids = [grid + (rng.randint(3, 8),) for grid in _sweep_candidates()]
    rng.shuffle(grids)
    return grids


def sweep_layer_grids() -> list[tuple[int, int, int, int]]:
    """Seed-independent subset of the candidates for the per-layer timings:
    every tenth grid in cost order, with the default quadrics bound."""
    return [grid + (8,) for grid in _sweep_candidates()[::10]]


def grid_types(max_dim: int, max_degree: int, max_r: int) -> list[tuple[tuple[int, ...], int]]:
    """The (degrees, dimension) pairs a scan_ci grid covers."""
    out = []
    for n in range(1, max_dim + 1):
        for r in range(max_r + 1):
            degrees_of_r = combinations_with_replacement(range(2, max_degree + 1), r)
            out.extend((degrees, n) for degrees in degrees_of_r)
    return out


# ---------------------------------------------------------------------------
# routes: cross-checks of distinct types

ROUTES_MAX_DIM = 40
ROUTES_MAX_R = 6
ROUTES_DEGREES = range(2, 10)
WEIGHTED_DIMS = range(3, 31)

# Frozen types of acceptance gate 2: the cubic surface and the
# odd-dimensional intersections of two quadrics.
FROZEN_TYPES = ((3,), 2), *(((2, 2), 2 * k + 1) for k in range(1, 6))


def delpezzo_weights(family: int, n: int) -> tuple[tuple[int, ...], int]:
    """Weights and degree of the degree-1 or degree-2 del Pezzo n-fold."""
    if family == 1:
        return (3, 2) + (1,) * n, 6
    return (2,) + (1,) * (n + 1), 4


def routes_inputs(seed: int) -> list[tuple]:
    """One seeded degree multiset per (dimension, codimension) cell, the
    frozen types, and both weighted del Pezzo families, in seeded order.

    Items are ("ci", degrees, n) or ("weighted", weights, degree, n, family);
    all complete-intersection types are distinct.
    """
    rng = _rng("routes", seed)
    seen = set(FROZEN_TYPES)
    items = [("ci", degrees, n) for degrees, n in FROZEN_TYPES]
    for n in range(1, ROUTES_MAX_DIM + 1):
        for r in range(ROUTES_MAX_R + 1):
            while True:
                degrees = tuple(sorted(rng.choice(ROUTES_DEGREES) for _ in range(r)))
                if (degrees, n) not in seen:
                    break
            seen.add((degrees, n))
            items.append(("ci", degrees, n))
    for n in WEIGHTED_DIMS:
        for family in (1, 2):
            items.append(("weighted", *delpezzo_weights(family, n), n, family))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# cones: dual-cone builds beside queries

# Generators per ambient dimension m. A round holds one job each of m = 3, 4,
# the shipped datasets, and three each of m = 5, 6, so that most time falls
# in the m = 5, 6 builds and the median operation is an m = 5 build.
CONE_GENERATORS = {3: 6, 4: 6, 5: 9, 6: 9}
CONE_ROUND = (3, 4, 5, 5, 5, 6, 6, 6, 0)
CONE_ROUNDS = 8
QUERIES_PER_JOB = 2


def identity(m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def _full_rank(rows: tuple[tuple[int, ...], ...], m: int, prime: int = 2_147_483_647) -> bool:
    """True when the rows span Q^m; rank modulo a prime never exceeds it."""
    mat = [[x % prime for x in row] for row in rows]
    rank = 0
    for col in range(m):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            return False
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inverse = pow(mat[rank][col], -1, prime)
        for i in range(rank + 1, len(mat)):
            factor = mat[i][col] * inverse % prime
            mat[i] = [(x - factor * y) % prime for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return True


def _pointed_generators(rng: random.Random, m: int) -> tuple[tuple[int, ...], ...]:
    # A positive first coordinate keeps the cone pointed; full rank keeps its
    # dual pointed, so dual_cone never rejects the input.
    while True:
        gens = tuple(
            tuple([rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(m - 1)])
            for _ in range(CONE_GENERATORS[m])
        )
        if _full_rank(gens, m):
            return gens


def cones_inputs(seed: int) -> list[dict]:
    """Cone jobs: {"m", "gens", "queries"} builds, or {"m": 0} for the
    nef cones of every codimension of both shipped datasets.

    Queries (membership in the built dual cone) are asked only for m <= 4,
    where the dual-of-dual law is checked too.
    """
    rng = _rng("cones", seed)
    jobs = []
    for _ in range(CONE_ROUNDS):
        round_jobs = []
        for m in CONE_ROUND:
            if m == 0:
                round_jobs.append({"m": 0})
                continue
            queries = ()
            if m <= 4:
                queries = tuple(
                    tuple([rng.randint(0, 60)] + [rng.randint(-9, 9) for _ in range(m - 1)])
                    for _ in range(QUERIES_PER_JOB)
                )
            round_jobs.append({"m": m, "gens": _pointed_generators(rng, m), "queries": queries})
        rng.shuffle(round_jobs)
        jobs.extend(round_jobs)
    return jobs


DATASETS = ("gw2c5", "g2c5")


# ---------------------------------------------------------------------------
# cli: cold subprocess runs over a fixed corpus

BAD_DATASET = "bench/data/bad_dataset.json"

# (argv after `--format json`, expected exit status, expected result fields).
# Expected values are written by hand: the README examples, acceptance-gate
# values and closed forms. A result field path is a tuple of keys.
CLI_CORPUS: tuple[tuple[tuple[str, ...], int, dict], ...] = (
    (("euler", "ci", "--dim", "3", "--degrees", "2,2"), 0, {(): 0}),
    (("euler", "ci", "--dim", "7"), 0, {(): 8}),
    (("euler", "ci", "--dim", "2", "--degrees", "3"), 0, {(): 9}),
    (("euler", "weighted", "--weights", "3,2,1,1,1,1", "--degree", "6"), 0, {(): 213}),
    (("euler", "weighted", "--weights", "2,1,1,1,1,1", "--degree", "4"), 0, {(): 66}),
    (("chern", "ci", "--dim", "2", "--degrees", "3"), 0, {(): [3, 3, 9]}),
    (("chern", "ci", "--dim", "1", "--degrees", "2,2"), 0, {(): [4, 0]}),
    (("betti", "ci", "--dim", "3", "--degrees", "2,2"), 0,
     {("betti",): [1, 0, 1, 4, 1, 0, 1], ("middle",): 4, ("euler",): 0}),
    (("betti", "ci", "--dim", "2", "--degrees", "3"), 0,
     {("betti",): [1, 0, 7, 0, 1], ("middle",): 7, ("euler",): 9}),
    (("verdict", "ci", "--dim", "4", "--degrees", "3"), 0,
     {("status",): "NotNef", ("reason",): "ProjectionBound",
      ("witness",): {"chi": 27, "bound": 15, "cover_degree": 3}}),
    (("verdict", "ci", "--dim", "3", "--degrees", "2,2"), 0,
     {("status",): "Open", ("reason",): "OpenQuestion"}),
    (("verdict", "ci", "--dim", "5", "--degrees", "2"), 0,
     {("status",): "Nef", ("reason",): "Homogeneous"}),
    (("verdict", "delpezzo", "--dim", "4", "--degree", "5"), 0,
     {("status",): "NotNef", ("reason",): "NegativeEffectivePair",
      ("witness", "value"): -1}),
    (("verdict", "delpezzo", "--dim", "5", "--degree", "5"), 0,
     {("status",): "NotNef", ("witness",): {"classes": ["tau(3,-1)", "tau(2,1)"], "value": -1}}),
    (("verdict", "delpezzo", "--dim", "3", "--degree", "5"), 0,
     {("status",): "Nef", ("reason",): "FakeProjectiveSpace"}),
    (("verdict", "curve", "--genus", "2"), 0,
     {("status",): "NotNef", ("witness", "chi"): -2}),
    (("cone", "dual", "--dataset", "gw2c5", "--codim", "2"), 0,
     {("generators",): [[1, 0], [1, 1]],
      ("expressions",): ["tau(2,0)", "tau(2,0) + tau(3,-1)"]}),
    (("cone", "dual", "--dataset", "g2c5", "--codim", "3"), 0,
     {("generators",): [[0, 1], [1, 0]], ("full_dimensional",): True}),
    (("cone", "check", "--dataset", "gw2c5"), 0,
     {("status",): "NotNef", ("witness",): {"classes": ["tau(3,-1)", "tau(2,1)"], "value": -1}}),
    (("cone", "check", "--dataset", "g2c5"), 0,
     {("status",): "Nef", ("reason",): "NonNegativePairings"}),
    (("scan", "ci", "--max-dim", "4", "--max-degree", "3", "--max-r", "2",
      "--quadrics-max-r", "3"), 0,
     {("cases",): 24, ("verdict_counts",): {"Nef": 10, "NotNef": 13, "Open": 1}}),
    (("table", "delpezzo"), 0, {(0, "degree"): 1, (6, "degree"): 7}),
    (("verdict", "ci", "--dim", "0", "--degrees", "3"), 2, {}),
    (("euler", "weighted", "--weights", "1,1,1", "--degree", "2"), 2, {}),
    (("verdict", "delpezzo", "--dim", "9", "--degree", "5"), 2, {}),
    (("euler", "ci", "--dim", "x"), 2, {}),
    (("cone", "dual", "--dataset", "no-such-dataset", "--codim", "2"), 3, {}),
    (("cone", "check", "--dataset", BAD_DATASET), 3, {}),
)


def cli_inputs(seed: int, cycles: int = 64) -> list[int]:
    """Corpus indices: the whole corpus per cycle, each cycle in seeded order."""
    rng = _rng("cli", seed)
    order = []
    for _ in range(cycles):
        cycle = list(range(len(CLI_CORPUS)))
        rng.shuffle(cycle)
        order.extend(cycle)
    return order


def inputs(workload: str, seed: int) -> list:
    return {
        "sweep": sweep_inputs,
        "routes": routes_inputs,
        "cones": cones_inputs,
        "cli": cli_inputs,
    }[workload](seed)
