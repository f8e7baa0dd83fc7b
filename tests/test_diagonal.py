"""Tests for nef-diagonal verdicts, the del Pezzo table, and the scans.

Every NotNef witness asserted here was re-derived by hand before freezing
(chi values through the closed hypersurface form, bounds as (n+1) * degree,
covering degrees from the anticanonical double/2^n covers).
"""

from __future__ import annotations

import ast
import functools
import math
import os
import re
import string
import subprocess
import sys
import time
import weakref
from collections import Counter, defaultdict
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import nefkit
from nefkit import chern, diagonal
from nefkit.chern import (
    CIType,
    euler_ci_formula,
    euler_ci_recursive,
    euler_ci_rows,
    euler_delpezzo_closed,
)
from nefkit.cones import builtin_dataset, effective_cone_of_codim, nef_cone_of_codim
from nefkit.diagonal import (
    DELPEZZO_TABLE,
    OPEN_TWO_QUADRICS_REFERENCE,
    InvalidDelPezzo,
    Reason,
    ScanViolation,
    Status,
    Verdict,
    cp_fibration_obstruction,
    nef_big_filter,
    scan_ci,
    verdict_ci,
    verdict_curve,
    verdict_delpezzo,
)
from test_cones import tau_top_pairing  # the gw2c5 sign rule, a test oracle


def scan_grid(max_dimension: int, max_degree: int, max_codimension: int) -> list[CIType]:
    """The canonical types scan_ci visits, ordered by r, then degrees, then n
    (scan_ci itself takes the degree tuples in walk order)."""
    return [
        CIType(degrees, n)
        for r in range(max_codimension + 1)
        for degrees in combinations_with_replacement(range(2, max_degree + 1), r)
        for n in range(1, max_dimension + 1)
    ]


# ---------------------------------------------------------------------------
# Verdict plumbing


def test_verdict_validation():
    with pytest.raises(ValueError):
        Verdict(Reason.NEGATIVE_SELF_INTERSECTION, "no witness")
    with pytest.raises(ValueError):
        Verdict(Reason.NEGATIVE_SELF_INTERSECTION, "bad", {"chi": 5})
    with pytest.raises(ValueError):
        Verdict(Reason.PROJECTION_BOUND, "bad", {"chi": 5, "bound": 10})
    with pytest.raises(ValueError):
        Verdict(Reason.NEGATIVE_EFFECTIVE_PAIR, "bad", {"classes": ["a", "b"], "value": 1})
    with pytest.raises(ValueError):
        Verdict(Reason.OPEN_QUESTION, "bad", {})
    with pytest.raises(ValueError, match="^unknown reason 'Homogeneous'$"):
        Verdict("Homogeneous", "a plain string is no Reason")


def test_verdict_payload_round_trips_to_plain_data():
    v = verdict_ci(CIType((4,), 3))
    payload = v.to_payload()
    assert payload["status"] == "NotNef"
    assert payload["reason"] == "NegativeSelfIntersection"
    assert payload["witness"] == {"chi": -56}


def test_verdicts_do_not_share_witness_lists():
    cubic_surface = {"classes": ["(-1)-curve", "(-1)-curve"], "value": -1}
    verdict_ci(CIType((3,), 2)).witness["classes"].append("junk")
    assert verdict_ci(CIType((3,), 2)).witness == cubic_surface
    verdict_ci(CIType((2, 2), 4)).to_payload()["witness"]["classes"][0] = "junk"
    assert verdict_ci(CIType((2, 2), 6)).witness["classes"] == ["Lambda_1", "Lambda_2"]
    verdict_delpezzo(4, 5).to_payload()["witness"]["classes"].clear()
    assert verdict_delpezzo(4, 5).witness["classes"] == ["sigma(3,1)", "sigma(2,2)"]


def module_steps():
    """Every _Step of diagonal, the module that issues verdicts, outside the
    del Pezzo table: at module level or as a value of a module-level dict."""
    values = list(vars(diagonal).values())
    steps = [value for value in values if isinstance(value, diagonal._Step)]
    steps += [step for value in values if isinstance(value, dict)
              for step in value.values() if isinstance(step, diagonal._Step)]
    return steps


def row_steps():
    return [step for row in DELPEZZO_TABLE for step in row.steps.values()]


def test_every_fixed_step_builds_its_verdict():
    fixed = [step for step in module_steps() + row_steps() if not step.numbers]
    assert diagonal._UNCLASSIFIED in fixed
    assert {step.name for step in fixed} >= {"curve", "del Pezzo", "open (2,2)",
                                              "exception table"}
    for step in fixed:
        # a del Pezzo row step may echo its variant label, which is empty when none is given
        verdict = diagonal._verdict(step, variant="")
        assert verdict.reason is step.reason, step.name
        assert verdict.detail == step.detail.format(variant=""), step.name
        assert verdict.witness == step.witness, step.name


def test_each_reason_certifies_one_status():
    assert set(diagonal._STATUS_OF) == set(Reason)
    assert all(isinstance(status, Status) for status in diagonal._STATUS_OF.values())
    assert set(diagonal._STATUS_OF.values()) == set(Status)
    # numbers that pass every witness law: chi < 0, chi > bound, a negative pair
    values = {"chi": -2, "bound": -3, "cover_degree": 1, "genus": 2,
              "classes": ["a", "b"], "value": -1, "variant": ""}
    for step in module_steps() + row_steps():
        verdict = diagonal._verdict(step, **values)
        assert verdict.status is diagonal._STATUS_OF[step.reason], step.name
        assert verdict.reason is step.reason, step.name


def test_only_verdict_builds_verdicts():
    calls = []
    for path in sorted(Path(nefkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "Verdict" in (getattr(node.func, "id", None),
                                                             getattr(node.func, "attr", None)):
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                calls.append((path.stem, getattr(scope, "name", None)))
    assert calls == [("diagonal", "_verdict")]


def template_fields(detail: str) -> set[str]:
    """The root names of the replacement fields of a detail template."""
    return {re.split(r"[.\[]", field)[0]
            for _, field, _, _ in string.Formatter().parse(detail) if field is not None}


def test_step_templates_name_only_their_numbers():
    for steps, extra in ((module_steps(), set()), (row_steps(), {"variant"})):
        for step in steps:
            assert template_fields(step.detail) <= set(step.numbers) | extra, step
    assert template_fields(diagonal._NEGATIVE_PAIRING.detail) == {"classes", "value"}
    assert template_fields(DELPEZZO_TABLE[5].steps[3].detail) == {"variant"}


# ---------------------------------------------------------------------------
# Curves


def test_verdict_curve():
    assert verdict_curve(0).status is Status.NEF
    assert verdict_curve(0).reason is Reason.HOMOGENEOUS
    assert verdict_curve(1).reason is Reason.GROUP_VARIETY
    high = verdict_curve(2)
    assert high.status is Status.NOT_NEF
    assert high.witness["chi"] == -2
    with pytest.raises(ValueError, match="^genus must be a non-negative integer$"):
        verdict_curve(-1)


# ---------------------------------------------------------------------------
# One chain turns chi into a step


def test_only_the_chain_turns_chi_into_a_step():
    # outside _chain, a chi step may only be handed to _chain: _BOUND as its
    # default, _COVER_BOUND as an argument of a call to it
    tree = ast.parse(Path(diagonal.__file__).read_text("utf-8"))
    chain = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_chain")
    handed = {id(node) for node in ast.walk(chain)}
    handed |= {id(arg) for node in ast.walk(tree) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "_chain"
               for arg in node.args}
    steps = {"_CURVES", "_CURVE", "_SIGN", "_BOUND", "_COVER_BOUND"}
    chosen = [(node.id, node.lineno) for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id in steps
              and isinstance(node.ctx, ast.Load) and id(node) not in handed]
    assert chosen == []


def closed_form_row_payload(n: int, degree: int) -> dict:
    """The verdict payload of del Pezzo row 1 or 2 at n, written out by the
    parity of n: the sign at odd n, the cover bound at even n."""
    chi = euler_delpezzo_closed(n, degree)
    number = diagonal._number
    if n % 2:
        return {"status": "NotNef", "reason": "NegativeSelfIntersection",
                "detail": f"deg Delta^2 = chi = {number(chi)} < 0", "witness": {"chi": chi}}
    cover = 2**n if degree == 1 else 2
    bound = (n + 1) * cover
    return {"status": "NotNef", "reason": "ProjectionBound",
            "detail": f"chi = {number(chi)} exceeds (n+1) * {number(cover)} = {number(bound)},"
                      f" impossible for a nef diagonal on a degree-{number(cover)} cover of P^n",
            "witness": {"chi": chi, "bound": bound, "cover_degree": cover}}


def test_curves_and_closed_form_rows_keep_their_verdicts():
    genus = 10**5000
    assert [verdict_curve(g).to_payload() for g in (0, 1, 2, genus)] == [
        {"status": "Nef", "reason": "Homogeneous", "witness": {},
         "detail": "a genus-0 curve is the projective line, a homogeneous variety"},
        {"status": "Nef", "reason": "GroupVariety", "witness": {},
         "detail": "a genus-1 curve is an elliptic curve, hence a group variety"},
        {"status": "NotNef", "reason": "NegativeSelfIntersection",
         "detail": "deg Delta^2 = chi = -2 < 0 on a curve of genus 2",
         "witness": {"chi": -2, "genus": 2}},
        {"status": "NotNef", "reason": "NegativeSelfIntersection",
         "detail": "deg Delta^2 = chi = (negative integer of 16611 bits) < 0"
                   " on a curve of genus (positive integer of 16610 bits)",
         "witness": {"chi": 2 - 2 * genus, "genus": genus}},
    ]
    # every admitted dimension up to 200 and the largest one of each row
    for degree, top in ((1, 6152), (2, 9012)):
        for n in (*range(3, 201), top):
            payload = verdict_delpezzo(n, degree).to_payload()
            assert payload == closed_form_row_payload(n, degree), (n, degree)


@pytest.mark.parametrize(("n", "chi", "reason"), [
    (5, 0, Reason.OPEN_QUESTION),  # chi >= 0 at odd n, within the bound 6 * 2
    (5, 13, Reason.PROJECTION_BOUND),
    (4, -1, Reason.NEGATIVE_SELF_INTERSECTION),
    (4, 10, Reason.OPEN_QUESTION),  # at the bound 5 * 2
])
def test_closed_form_rows_report_what_chi_decides(monkeypatch, n, chi, reason):
    # the chain decides by the numbers, not by the parity of n, so no chi
    # can make a row's verdict break a witness law
    monkeypatch.setattr(diagonal, "euler_delpezzo_closed",
                        lambda m, degree: chi if m == n else euler_delpezzo_closed(m, degree))
    verdict = verdict_delpezzo(n, 2)
    assert verdict.reason is reason
    if reason is Reason.OPEN_QUESTION:
        assert verdict.witness == {"reference": diagonal.UNCLASSIFIED_REFERENCE}
    else:
        assert verdict.witness["chi"] == chi


# ---------------------------------------------------------------------------
# Complete intersection verdicts


def test_verdict_projective_space_and_quadrics():
    for n in (1, 2, 5, 8):
        assert verdict_ci(CIType((), n)).reason is Reason.HOMOGENEOUS
        assert verdict_ci(CIType((2,), n)).reason is Reason.HOMOGENEOUS


def test_verdict_curves_through_ci():
    cubic = verdict_ci(CIType((3,), 1))
    assert cubic.status is Status.NEF
    assert cubic.reason is Reason.GROUP_VARIETY
    assert verdict_ci(CIType((2, 2), 1)).reason is Reason.GROUP_VARIETY
    genus4 = verdict_ci(CIType((2, 3), 1))
    assert genus4.status is Status.NOT_NEF
    assert genus4.witness["chi"] == -6


def test_verdict_odd_two_quadrics_open():
    for n in (3, 5, 7, 11):
        v = verdict_ci(CIType((2, 2), n))
        assert v.status is Status.OPEN
        assert v.witness["reference"] == OPEN_TWO_QUADRICS_REFERENCE


def test_verdict_exception_table_hits():
    cubic_surface = verdict_ci(CIType((3,), 2))
    assert cubic_surface.status is Status.NOT_NEF
    assert cubic_surface.reason is Reason.NEGATIVE_EFFECTIVE_PAIR
    assert cubic_surface.witness == {"classes": ["(-1)-curve", "(-1)-curve"], "value": -1}

    k3 = verdict_ci(CIType((2, 2, 2), 2))
    assert k3.status is Status.NOT_NEF
    assert k3.reason is Reason.K3_SURFACE
    assert k3.witness["table_entry"]

    for n in (2, 4, 6, 10):
        planes = verdict_ci(CIType((2, 2), n))
        assert planes.reason is Reason.NEGATIVE_EFFECTIVE_PAIR
        assert planes.witness == {"classes": ["Lambda_1", "Lambda_2"], "value": -1}


def plane_self_intersection(degrees: tuple[int, ...], m: int) -> int:
    """Lambda^2 for an m-plane Lambda in a 2m-dimensional complete intersection
    X of the degrees in P^N, N = 2m + r: the top Chern class of N_{Lambda/X},
    which the normal bundle sequence 0 -> N_{Lambda/X} -> N_{Lambda/P} ->
    N_{X/P}|Lambda -> 0 makes [h^m] (1 + h)^(N - m) / prod(1 + d h) (Fulton,
    Intersection Theory, ch. 6). Integers only: the binomial row of N - m =
    m + r, divided by one 1 + d h at a time."""
    series = [math.comb(m + len(degrees), j) for j in range(m + 1)]
    for d in degrees:
        for j in range(1, m + 1):
            series[j] -= d * series[j - 1]
    return series[m]


def test_plane_witnesses_are_self_intersections_only_for_lines():
    # a line on the cubic surface (N = 3) and on the quartic del Pezzo surface
    # (two quadrics in P^4): the quoted witness value is the line's L^2 = -1
    for degrees in (3,), (2, 2):
        verdict = verdict_ci(CIType(degrees, 2))
        assert verdict.witness["value"] == plane_self_intersection(degrees, 1) == -1
    # for m >= 2 the (2,2) step's -1 pairs two distinct m-planes, which no
    # self-intersection gives, so that step stays a quoted fact
    assert [plane_self_intersection((2, 2), m) for m in (2, 3, 4)] == [2, -2, 3]


def plane_pairing(d: int) -> int:
    """Lambda.Lambda' for two m-planes on the 2m-dimensional intersection of
    two quadrics that meet in a d-dimensional linear space (d = -1: disjoint).
    Excess intersection (Fulton, Intersection Theory, ch. 6 and 9) makes it
    [h^d] (1 + h)^(d + 2) / (1 + 2h)^2, whatever m is. Integers only: the
    binomial row of d + 2 against the row (k + 1) (-2)^k of 1 / (1 + 2h)^2."""
    return sum(math.comb(d + 2, d - k) * (k + 1) * (-2) ** k for k in range(d + 1))


def integer_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals, by fraction-free row elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col]
            rows[i] = [top[col] * x - factor * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def test_plane_pairing_closed_form():
    # 0, 1, -1, 2, -2, 3, ... for d = -1, 0, 1, 2, ...; d = m is Lambda^2
    for d in range(-1, 60):
        assert plane_pairing(d) == (-1) ** (d % 2) * (d // 2 + 1), d
    for d in range(1, 60):
        assert plane_pairing(d) == plane_self_intersection((2, 2), d), d


def test_even_two_quadrics_value_is_a_plane_pairing():
    # two m-planes that meet in a line pair to the step's -1 for every m
    for n in range(2, 13, 2):
        verdict = verdict_ci(CIType((2, 2), n))
        assert verdict.reason is Reason.NEGATIVE_EFFECTIVE_PAIR, n
        assert verdict.witness["value"] == plane_pairing(1), n
    # for odd m one m-plane alone has Lambda^2 < 0
    for m in range(1, 60, 2):
        assert plane_pairing(m) < 0, m


def test_plane_pairing_on_the_lines_of_the_quartic_del_pezzo_surface():
    # X_{2,2} in P^4 is P^2 blown up at five points; in the basis H, E_1..E_5
    # (H^2 = 1, E_i^2 = -1) its 16 lines are E_i, H - E_i - E_j, 2H - sum E_i
    def unit(i):
        return [int(j == i) for j in range(5)]

    lines = [[0, *unit(i)] for i in range(5)]
    lines += [[1, *(-a - b for a, b in zip(unit(i), unit(j)))]
              for i in range(5) for j in range(i + 1, 5)]
    lines.append([2, -1, -1, -1, -1, -1])
    gram = [[x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:])) for y in lines]
            for x in lines]
    assert len(gram) == 16
    # a line with itself (d = 1), the five it meets in a point (d = 0), the
    # ten it misses (d = -1)
    for i, row in enumerate(gram):
        assert row[i] == plane_pairing(1)
        assert Counter(row[:i] + row[i + 1:]) == {plane_pairing(0): 5, plane_pairing(-1): 10}
    assert integer_rank(gram) == chern.betti_ci(CIType((2, 2), 2)).betti[2] == 6


def test_verdict_sign_and_bound_cases():
    quartic = verdict_ci(CIType((4,), 3))
    assert quartic.reason is Reason.NEGATIVE_SELF_INTERSECTION
    assert quartic.witness == {"chi": -56}

    cubic4 = verdict_ci(CIType((3,), 4))
    assert cubic4.reason is Reason.PROJECTION_BOUND
    assert cubic4.witness == {"chi": 27, "bound": 15, "cover_degree": 3}


def test_verdict_witnesses_recheck_on_scan_range():
    for ci in scan_grid(8, 5, 3):
        v = verdict_ci(ci)
        if v.status is not Status.NOT_NEF:
            continue
        if v.reason is Reason.NEGATIVE_SELF_INTERSECTION:
            assert v.witness["chi"] == euler_ci_recursive(ci) < 0, ci
        elif v.reason is Reason.PROJECTION_BOUND:
            product = math.prod(ci.degrees)
            chi, bound = euler_ci_recursive(ci), (ci.dimension + 1) * product
            assert v.witness == {"chi": chi, "bound": bound, "cover_degree": product}, ci
            assert chi > bound, ci
        elif v.reason is Reason.NEGATIVE_EFFECTIVE_PAIR:
            assert v.witness["value"] < 0, ci
        else:
            assert v.reason is Reason.K3_SURFACE
            assert ci == CIType((2, 2, 2), 2)


def test_verdict_ci_rejects_dimension_zero():
    with pytest.raises(ValueError):
        verdict_ci(CIType((2,), 0))


def test_huge_numbers_are_described_by_bit_length():
    # chi(5,7; 6000) has 15,517 bits, past Python's default limit of 4,300
    # digits for int-to-str; (5,7; 20000) is the same case at 51,706 bits.
    ci = CIType((5, 7), 6000)
    chi = euler_ci_formula(ci)
    bound_step = verdict_ci(ci)
    assert bound_step.witness == {"chi": chi, "bound": 6001 * 35, "cover_degree": 35}
    assert bound_step.detail.startswith(
        f"chi = (positive integer of {chi.bit_length()} bits) exceeds (n+1) deg X = 210035,"
    )
    genus = 10**5000
    curve = verdict_curve(genus)
    assert curve.witness == {"chi": 2 - 2 * genus, "genus": genus}
    assert curve.detail == (
        "deg Delta^2 = chi = (negative integer of 16611 bits) < 0"
        " on a curve of genus (positive integer of 16610 bits)"
    )
    # a degree-1 del Pezzo verdict past 20,000 dimensions needs a digit limit
    # over 14,000 (the dimension limit at 15,000 digits is 21,460)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(15000)
        odd, even = verdict_delpezzo(20001, 1), verdict_delpezzo(20000, 1)
        assert odd.witness["chi"] == euler_delpezzo_closed(20001, 1)
        assert odd.detail.startswith("deg Delta^2 = chi = (negative integer of ")
        assert even.witness["cover_degree"] == 2**20000
        assert "degree-(positive integer of 20001 bits) cover" in even.detail
    finally:
        sys.set_int_max_str_digits(limit)
    # the two largest degree-1 del Pezzo dimensions at the default limit: chi
    # has 14,281 and 14,283 bits
    odd, even = verdict_delpezzo(6151, 1), verdict_delpezzo(6152, 1)
    assert odd.witness["chi"] == euler_delpezzo_closed(6151, 1)
    assert odd.detail.startswith("deg Delta^2 = chi = (negative integer of ")
    assert even.witness["cover_degree"] == 2**6152
    assert even.detail.startswith("chi = (positive integer of ")
    assert f"(n+1) * {2**6152} = " in even.detail


def test_detail_prints_decimal_up_to_14000_bits_with_no_or_the_default_str_limit():
    limit = sys.get_int_max_str_digits()
    try:
        for setting in (0, limit):
            sys.set_int_max_str_digits(setting)
            assert verdict_curve(2**13999).detail.endswith(f"genus {2**13999}")
            assert verdict_curve(2**14000).detail.endswith(
                "genus (positive integer of 14001 bits)"
            )
    finally:
        sys.set_int_max_str_digits(limit)


def test_detail_shortens_a_number_past_a_lowered_str_limit():
    # chi(99; 1000) has 1,994 digits, under 14,000 bits but over a limit of 1,000
    ci = CIType((99,), 1000)
    chi = euler_ci_formula(ci)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(1000)
        verdict = verdict_ci(ci)
    finally:
        sys.set_int_max_str_digits(limit)
    assert verdict.witness["chi"] == chi
    assert verdict.detail.startswith(f"chi = (positive integer of {chi.bit_length()} bits)")


# ---------------------------------------------------------------------------
# Del Pezzo manifolds


def test_delpezzo_validity_table():
    for degree in (1, 2, 3, 4):
        verdict_delpezzo(9, degree)
    verdict_delpezzo(6, 5)
    verdict_delpezzo(4, 6)
    verdict_delpezzo(3, 7)
    for n, degree in ((7, 5), (5, 6), (4, 7), (2, 3), (3, 8), (3, 0)):
        with pytest.raises(InvalidDelPezzo):
            verdict_delpezzo(n, degree)


def test_delpezzo_degree_one_and_two():
    odd = verdict_delpezzo(3, 1)
    assert odd.reason is Reason.NEGATIVE_SELF_INTERSECTION
    assert odd.witness == {"chi": -38}
    even = verdict_delpezzo(4, 1)
    assert even.reason is Reason.PROJECTION_BOUND
    assert even.witness == {"chi": 213, "bound": 80, "cover_degree": 16}

    assert verdict_delpezzo(3, 2).witness == {"chi": -16}
    even2 = verdict_delpezzo(4, 2)
    assert even2.reason is Reason.PROJECTION_BOUND
    assert even2.witness["cover_degree"] == 2
    assert even2.witness["chi"] > even2.witness["bound"] == 10


def test_delpezzo_closed_form_rows_stop_where_chi_can_no_longer_be_printed():
    # 6,152 and 9,012 are the largest dimensions whose verdict prints under
    # the default limit of 4,300 digits; past them the row raises before any work
    for degree, limit in ((1, 6152), (2, 9012)):
        chi = verdict_delpezzo(limit, degree).witness["chi"]
        assert len(str(abs(chi))) == 4300
        for n in (limit + 1, 10**20):
            with pytest.raises(ValueError, match=rf"^dimension must be at most {limit} for"
                               rf" degree {degree}: past it chi has more than 4300 digits$"):
                verdict_delpezzo(n, degree)


def test_delpezzo_dimension_limit_follows_the_str_limit():
    # with the limit off, or set above it, the bound is the work bound of
    # 1,000,000 digits
    limit = sys.get_int_max_str_digits()
    try:
        for setting, digits, expected in ((640, 640, 916), (5000, 5000, 7154),
                                          (2_000_000, 1_000_000, 1_430_677),
                                          (0, 1_000_000, 1_430_677)):
            sys.set_int_max_str_digits(setting)
            chi = verdict_delpezzo(expected, 1).witness["chi"]
            assert abs(chi) < 10**digits <= abs(euler_delpezzo_closed(expected + 1, 1))
            with pytest.raises(ValueError, match=f"at most {expected} for degree 1: past it"
                                                 f" chi has more than {digits} digits"):
                verdict_delpezzo(expected + 1, 1)
        assert sys.get_int_max_str_digits() == 0
        verdict_delpezzo(20001, 1)  # past the default limit's 6,152
        for n in (10**20, 2_095_904):  # the second is the estimate, one past the limit
            with pytest.raises(ValueError, match="at most 2095903 for degree 2"):
                verdict_delpezzo(n, 2)
    finally:
        sys.set_int_max_str_digits(limit)


def test_delpezzo_dimension_limit_is_computed_once_per_digit_limit(monkeypatch):
    calls = []
    monkeypatch.setattr(diagonal, "euler_delpezzo_closed",
                        lambda n, degree: calls.append(n) or euler_delpezzo_closed(n, degree))
    monkeypatch.setattr(diagonal, "_closed_form_max_dimension",
                        functools.cache(diagonal._closed_form_max_dimension.__wrapped__))
    verdict_delpezzo(6152, 1)  # at the limit, which only an n near it computes
    first = len(calls)  # the limit's estimate and correction, then chi
    for _ in range(3):
        verdict_delpezzo(6152, 1)
    assert first > 2 and len(calls) == first + 3


def test_delpezzo_dimension_limit_is_computed_only_near_the_estimate(monkeypatch):
    # a threefold answers at once whatever the digits, even with the limit off,
    # where the exact limit takes powers of about 1,400,000 digits
    def unreachable(digits, degree):
        raise AssertionError(f"limit computed at {digits} digits for degree {degree}")

    monkeypatch.setattr(diagonal, "_closed_form_max_dimension", unreachable)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert verdict_delpezzo(3, 1).witness["chi"] == -38
        assert verdict_delpezzo(3, 2).witness["chi"] == -16
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("digits", [640, 4_300, 1_000_000])
@pytest.mark.parametrize("degree", [1, 2])
def test_delpezzo_estimate_less_two_is_within_the_limit(digits, degree):
    estimate = digits * 1_000_000 // diagonal._LOG10_MILLIONTHS[degree]
    assert estimate - 2 <= diagonal._closed_form_max_dimension(digits, degree) <= estimate + 1


def test_delpezzo_delegates_to_ci():
    assert verdict_delpezzo(3, 3) == verdict_ci(CIType((3,), 3))
    assert verdict_delpezzo(5, 4) == verdict_ci(CIType((2, 2), 5))
    assert verdict_delpezzo(4, 4).reason is Reason.NEGATIVE_EFFECTIVE_PAIR


def test_delpezzo_degree_five_ladder():
    assert verdict_delpezzo(3, 5).reason is Reason.FAKE_PROJECTIVE_SPACE
    four = verdict_delpezzo(4, 5)
    assert four.witness == {"classes": ["sigma(3,1)", "sigma(2,2)"], "value": -1}
    five = verdict_delpezzo(5, 5)
    assert five.witness == {"classes": ["tau(3,-1)", "tau(2,1)"], "value": -1}
    assert verdict_delpezzo(6, 5).reason is Reason.HOMOGENEOUS


def test_delpezzo_degree_six_and_seven():
    for n, variant in ((3, "P1xP1xP1"), (3, "P(T_P2)"), (4, "P2xP2"), (3, None)):
        v = verdict_delpezzo(n, 6, variant)
        assert v.status is Status.NEF
        assert v.reason is Reason.HOMOGENEOUS
        if variant:
            assert variant in v.detail
    blowup = verdict_delpezzo(3, 7)
    assert blowup.status is Status.NOT_NEF
    assert blowup.reason is Reason.BIRATIONAL_CONTRACTION
    assert "blow-down" in str(blowup.witness["contraction"])


@pytest.mark.parametrize(("n", "degree", "variant"), [
    (3, 6, "junk"), (3, 6, ""), (3, 6, "P2xP2"), (4, 6, "P1xP1xP1"), (4, 6, "P(T_P2)"),
    (4, 5, "P2xP2"), (3, 7, "P1xP1xP1"), (3, 3, "P1xP1xP1"),
])
def test_delpezzo_variant_must_label_a_degree_six_manifold_of_the_dimension(n, degree, variant):
    with pytest.raises(InvalidDelPezzo, match="names no degree"):
        verdict_delpezzo(n, degree, variant)


def test_delpezzo_nef_golden_set():
    pairs = [(n, d) for d in (1, 2, 3, 4) for n in range(3, 13)]
    pairs += [(n, 5) for n in range(3, 7)]
    pairs += [(3, 6), (4, 6), (3, 7)]
    nef = {(n, d) for n, d in pairs if verdict_delpezzo(n, d).status is Status.NEF}
    assert nef == {(3, 5), (6, 5), (3, 6), (4, 6)}


def test_delpezzo_rows_admit_exactly_the_dimensions_their_verdicts_accept():
    for row in DELPEZZO_TABLE:
        for n in range(13):
            try:
                verdict_delpezzo(n, row.degree)
            except InvalidDelPezzo as exc:
                assert not row.admits(n), (row.degree, n)
                assert row.dimensions in str(exc), (row.degree, n)
            else:
                assert row.admits(n), (row.degree, n)


def test_delpezzo_row_names_a_range_of_three_or_more_dimensions():
    step = DELPEZZO_TABLE[4].steps[3]
    rows = {k: diagonal.DelPezzoRow(5, "x", steps=dict.fromkeys(range(3, 3 + k), step))
            for k in (1, 2, 3, 4)}
    assert [row.dimensions for row in rows.values()] == [
        "n = 3", "n = 3 or n = 4", "3 <= n <= 5", "3 <= n <= 6"]


def test_delpezzo_table_shape():
    assert [row.degree for row in DELPEZZO_TABLE] == [1, 2, 3, 4, 5, 6, 7]
    assert DELPEZZO_TABLE[6].description == "the blow-up of P^3 at a point"
    assert tuple(DELPEZZO_TABLE[5].variant_dimensions) == ("P1xP1xP1", "P2xP2", "P(T_P2)")


# ---------------------------------------------------------------------------
# Nef-and-big filter


def test_nef_big_filter():
    assert nef_big_filter("ci", CIType((), 4)) is True
    assert nef_big_filter("ci", CIType((2,), 5)) is True
    assert nef_big_filter("ci", CIType((2,), 4)) is False
    assert nef_big_filter("ci", CIType((2, 2), 3)) is False
    assert nef_big_filter("delpezzo", (3, 5)) is True
    assert nef_big_filter("delpezzo", (4, 5)) is False
    assert nef_big_filter("delpezzo", (3, 6)) is False
    with pytest.raises(ValueError):
        nef_big_filter("ci", (2, 3))
    with pytest.raises(InvalidDelPezzo):
        nef_big_filter("delpezzo", (9, 5))
    with pytest.raises(ValueError, match=r"^kind 'delpezzo' needs \(dimension, degree\)$"):
        nef_big_filter("delpezzo", 5)
    with pytest.raises(ValueError):
        nef_big_filter("surface", CIType((), 2))


@pytest.mark.parametrize(
    ("call", "args", "name"),
    [
        (verdict_delpezzo, (3, True), "degree"),
        (verdict_delpezzo, (4, 2.0), "degree"),
        (nef_big_filter, ("delpezzo", (3.0, 5)), "dimension"),
        (euler_delpezzo_closed, (3, True), "degree"),
        (tau_top_pairing, (2, 2.0, 1), "a"),
        (nef_cone_of_codim, (builtin_dataset("gw2c5"), 2.0), "codim"),
        (effective_cone_of_codim, (builtin_dataset("gw2c5"), 2.0), "codim"),
        (verdict_curve, (True,), "genus"),
        (cp_fibration_obstruction, (2.0,), "n"),
        (tau_top_pairing, (True, 1, 0), "n"),
    ],
    ids=["delpezzo-bool-degree", "delpezzo-float-degree", "nef-big-float-dimension",
         "closed-form-bool-degree", "tau-float-part", "nef-cone-float-codim",
         "effective-cone-float-codim", "curve-bool-genus", "fibration-float-n",
         "tau-bool-n"],
)
def test_entry_points_reject_non_integer_arguments(call, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        call(*args)


def test_nef_big_filter_implies_nef_verdict():
    for n in range(1, 10):
        if nef_big_filter("ci", CIType((2,), n)):
            assert verdict_ci(CIType((2,), n)).status is Status.NEF
    assert verdict_delpezzo(3, 5).status is Status.NEF


# ---------------------------------------------------------------------------
# Fibration obstruction


def test_cp_fibration_obstruction_base_case():
    report = cp_fibration_obstruction(1)
    assert report.p_total == (1, 0, 1, -4, 1, 0, 1)
    assert report.p_fiber == (4,)
    assert report.remainder == (0, 16)
    assert report.nonzero


def test_cp_fibration_obstruction_derived_fiber():
    report = cp_fibration_obstruction(2)
    assert report.p_fiber == (1, 0, 6, 0, 1)
    assert report.total_dimension == 5
    assert report.nonzero


def test_cp_fibration_obstruction_remainder_closed_form():
    # (2n + 2) 4 ceil(n / 2): only the (2n + 1)-dimensional total space gives it
    for n in range(1, 13):
        report = cp_fibration_obstruction(n)
        assert report.remainder == (0, (2 * n + 2) * 4 * ((n + 1) // 2)), n


def test_cp_fibration_obstruction_gaussian_evaluation():
    # Independent oracle: remainder mod (1+t^2) vanishes iff p(i) = 0, with i
    # the imaginary unit; evaluate exactly over the Gaussian integers.
    def eval_at_i(coeffs):
        re = sum(c * (-1) ** (k // 2) for k, c in enumerate(coeffs) if k % 2 == 0)
        im = sum(c * (-1) ** (k // 2) for k, c in enumerate(coeffs) if k % 2 == 1)
        return re, im

    for n in range(1, 11):
        report = cp_fibration_obstruction(n)
        tre, tim = eval_at_i(report.p_total)
        fre, fim = eval_at_i(report.p_fiber)
        prod = (tre * fre - tim * fim, tre * fim + tim * fre)
        assert prod != (0, 0), n
        assert eval_at_i(report.remainder) == prod, n

    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        cp_fibration_obstruction(0)


# ---------------------------------------------------------------------------
# Scans


def test_scan_small_grid_clean():
    report = scan_ci(6, 4, 3, quadrics_max_codimension=4)
    assert report.cases == 6 * (1 + 3 + 6 + 10)
    assert report.law_checks["verdict_classified"] == report.cases
    assert report.law_checks["hypersurface_sign"] > 0
    assert report.law_checks["even_dimension_bound"] > 0
    assert sum(report.verdict_counts.values()) == report.cases


@pytest.mark.parametrize("grid", [(8, 5, 3), (12, 6, 5)])
def test_scan_counts_match_verdict_ci(grid):
    counts = Counter(verdict_ci(ci).status.value for ci in scan_grid(*grid))
    assert Counter(scan_ci(*grid, 8).verdict_counts) == counts


# Every step of the chain. Genus-0 curves are P^1 and the conic, which the
# projective space and quadric steps take first. Steps hold dicts, so they
# are told apart by identity.
ALL_CHAIN_STEPS = {id(step) for step in (
    diagonal._PROJECTIVE_SPACE, diagonal._QUADRIC, diagonal._CURVES[1], diagonal._CURVE,
    diagonal._OPEN_TWO_QUADRICS, diagonal._EVEN_TWO_QUADRICS, diagonal._DEGREE_STEPS[(3,)][2],
    diagonal._DEGREE_STEPS[(2, 2, 2)][2],
    diagonal._SIGN, diagonal._BOUND)}


@pytest.mark.parametrize("grid", [(8, 4, 3), (12, 6, 5)])
def test_scan_and_verdict_ci_decide_every_case_alike(grid):
    # scan_ci's route feeds the chain a row of euler_ci_rows, verdict_ci's
    # route a defaultdict that calls euler_ci_formula
    max_dimension, max_degree, max_codimension = grid
    fired = set()
    for degrees, row, degree_product in euler_ci_rows(max_degree, max_codimension,
                                                      max_dimension):
        steps = diagonal._DEGREE_STEPS.get(degrees)
        for n in range(1, max_dimension + 1):
            ci = CIType(degrees, n)
            decided = diagonal._chain(steps, n, row, degree_product)
            formula = defaultdict(functools.partial(euler_ci_formula, ci))
            assert decided == diagonal._chain(steps, n, formula, degree_product), ci
            step, chi, _ = decided
            verdict = verdict_ci(ci)
            assert verdict.reason is step.reason, ci
            if chi is not None:
                assert chi == euler_ci_formula(ci), ci
            if "chi" in step.numbers:
                assert verdict.witness["chi"] == chi, ci
            fired.add(id(step))
    assert fired == ALL_CHAIN_STEPS


@pytest.mark.parametrize("bound_step", [diagonal._BOUND, diagonal._COVER_BOUND])
def test_chain_obeys_the_witness_laws_at_their_edges(bound_step):
    # chi = 0 is no negative self-intersection, and chi = (n+1) cover_degree
    # does not exceed the bound: either way the step that fires must carry
    # chi and bound that its own witness law accepts
    for n in range(2, 9):
        for cover_degree in (1, 2, 6, 2**n):
            for chi in (0, (n + 1) * cover_degree):
                step, read, bound = diagonal._chain(None, n, {n: chi}, cover_degree, bound_step)
                assert read == chi, (n, cover_degree, chi)
                assert diagonal._chi_witness_error(step.reason, read, bound) is None, (
                    n, cover_degree, chi, step.name)


def test_internal_checks_hold_under_python_optimize():
    # each check stands in for an assert, which python -O would drop
    code = """
from nefkit import chern, diagonal
assert not __debug__
chern.divmod = lambda a, b: (0, 1)
diagonal._at_i = lambda p: (0, 0)
for check in (lambda: chern.euler_delpezzo_closed(3, 1),
              lambda: diagonal._chain(diagonal._DEGREE_STEPS[(3,)], 1, [0, 1], 3),
              lambda: diagonal.cp_fibration_obstruction(1)):
    try:
        check()
    except AssertionError as exc:
        print(exc)
"""
    src = str(Path(diagonal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "closed-form numerator must be divisible",
        "the Euler characteristic of a curve must be even",
        "the fibration obstruction must not vanish",
    ]


def test_scan_builds_no_verdict(monkeypatch):
    built = []
    init = Verdict.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Verdict, "__init__", counting)
    scan_ci(6, 4, 3, 4)
    assert built == []
    for ci in scan_grid(6, 4, 3):
        built.clear()
        verdict = verdict_ci(ci)
        assert built == [verdict], ci


@pytest.mark.parametrize(
    ("step", "chi", "bound", "message"),
    [
        ("_SIGN", 0, None, "NegativeSelfIntersection needs witness chi < 0"),
        ("_BOUND", 15, 15, "ProjectionBound witness must have chi > bound"),
        ("_BOUND", 16, None, "ProjectionBound needs integer chi and bound"),
        ("_SIGN", -1.0, None, "NegativeSelfIntersection needs witness chi < 0"),
    ],
)
def test_scan_checks_the_witness_of_every_step(monkeypatch, step, chi, bound, message):
    fired = (getattr(diagonal, step), chi, bound)
    monkeypatch.setattr(diagonal, "_chain", lambda steps, n, chis, degree_product: fired)
    with pytest.raises(ScanViolation) as info:
        scan_ci(6, 4, 3, 4)
    assert info.value.law == "verdict_witness"
    assert info.value.subject == CIType((), 1)
    assert str(info.value) == f"verdict_witness violated at (;1): {message}"


def rows_with(degrees, n, value):
    """A stand-in for euler_ci_rows whose row of the given degree tuple reads
    value at dimension n. The row is a copy, so the walk's path is untouched."""

    def walk(*bounds):
        for walked, row, degree_product in euler_ci_rows(*bounds):
            if walked == degrees:
                row = [*row]
                row[n] = value(row[n])
            yield walked, row, degree_product

    return walk


@pytest.mark.parametrize(
    ("target", "stand_in", "subject", "law", "message"),
    [
        # chi(4;2) = 24 becomes 12: positive, but not above 3 * 4
        ("euler_ci_rows", rows_with((4,), 2, lambda chi: 12), CIType((4,), 2),
         "even_dimension_bound", "chi = 12 <= 12"),
        ("_chain", lambda steps, n, chis, degree_product: (diagonal._UNCLASSIFIED, None, None),
         CIType((), 1), "verdict_classified", "fell through every criterion"),
    ],
    ids=["even-dimension-bound", "verdict-classified"],
)
def test_scan_checks_the_bound_and_coverage_laws(monkeypatch, target, stand_in, subject, law,
                                                 message):
    monkeypatch.setattr(diagonal, target, stand_in)
    with pytest.raises(ScanViolation) as info:
        scan_ci(6, 4, 3, 4)
    assert info.value.law == law
    assert info.value.subject == subject
    assert str(info.value) == f"{law} violated at {subject}: {message}"


def test_scan_rejects_a_curve_of_negative_genus(monkeypatch):
    # genus -2; no sign law covers (2,2;1)
    monkeypatch.setattr(diagonal, "euler_ci_rows", rows_with((2, 2), 1, lambda chi: 6))
    with pytest.raises(ScanViolation) as info:
        scan_ci(6, 4, 3, 4)
    assert info.value.law == "verdict_witness"
    assert info.value.subject == CIType((2, 2), 1)


@pytest.mark.parametrize(
    ("n", "value", "law", "message"),
    [
        (1, lambda chi: -chi, "quadrics_positive", "b = -1"),  # b(1, 3) = 1
        (4, lambda chi: 8 * 5, "quadrics_even_bound", "b = 5"),  # b(4, 3) = 6
    ],
    ids=["positive", "even-bound"],
)
def test_scan_checks_the_quadrics_laws(monkeypatch, n, value, law, message):
    # the grid stops at r = 2, so only the quadrics sweep reads the (2,2,2) row
    monkeypatch.setattr(diagonal, "euler_ci_rows", rows_with((2, 2, 2), n, value))
    with pytest.raises(ScanViolation) as info:
        scan_ci(6, 4, 2, 4)
    assert info.value.law == law
    assert info.value.subject == (n, 3)
    assert str(info.value) == f"{law} violated at ({n}, 3): {message}"


def test_scan_verdict_counts_small():
    report = scan_ci(6, 4, 3, quadrics_max_codimension=4)
    # Nef: P^n (6) + quadric (6) + elliptic curves (3;1) and (2,2;1).
    assert report.verdict_counts["Nef"] == 14
    # Open: (2,2) in dimensions 3 and 5.
    assert report.verdict_counts["Open"] == 2


def scan_counts(max_dimension, max_degree, max_codimension, quadrics_max_codimension):
    """law_checks and verdict_counts of a clean scan_ci, by counting types.

    k degrees 2..max_degree give comb(k + r - 1, r) tuples of r degrees. The
    hypersurface law covers the k - 1 degrees d >= 3 at every n but the plane
    cubic's n = 1; the multidegree law covers the r >= 2 tuples other than r
    quadrics. The bound law covers the even n of both but the cubic surface,
    the quadrics laws every (n, r) with r >= 3 but (2, 3) for the even bound.
    Nef are P^n, the quadrics and the elliptic curves (3;1) and (2,2;1);
    Open the odd n >= 3 of (2,2).
    """
    dims, evens, k = max_dimension, max_dimension // 2, max_degree - 1
    cases = dims * math.comb(k + max_codimension, max_codimension)
    hypersurface = max(k - 1, 0)
    multidegree = sum(math.comb(k + r - 1, r) - 1 for r in range(2, max_codimension + 1) if k)
    cubic, quadrics = max_degree >= 3, max(quadrics_max_codimension - 2, 0)
    two_quadrics = k >= 1 and max_codimension >= 2
    nef = dims + dims * (k >= 1) + cubic + two_quadrics
    open_ = len(range(3, dims + 1, 2)) if two_quadrics else 0
    law_checks = {
        "hypersurface_sign": dims * hypersurface - cubic,
        "multidegree_sign": dims * multidegree,
        "even_dimension_bound": evens * (hypersurface + multidegree) - (cubic and dims >= 2),
        "quadrics_positive": dims * quadrics,
        "quadrics_even_bound": evens * quadrics - (quadrics > 0 and dims >= 2),
        "verdict_classified": cases,
    }
    verdict_counts = {"Nef": nef, "NotNef": cases - nef - open_, "Open": open_}
    return cases, law_checks, verdict_counts


@pytest.mark.parametrize(
    "bounds",
    [
        (6, 4, 3, 4),
        (12, 6, 5, 8),
        (9, 7, 4, 3),
        (7, 2, 4, 6),  # max_degree 2: quadrics only, no sign law fires
        (5, 1, 3, 2),  # max_degree 1: projective spaces only
        (1, 4, 3, 5),  # max_dimension 1: the plane cubic, no even n
        (2, 3, 2, 5),  # max_dimension 2: the cubic surface and (n, r) = (2, 3)
        (8, 6, 1, 1),  # max_codimension 1: hypersurfaces, no quadrics sweep
        (3, 2, 3000, 3),
    ],
)
def test_scan_counts_every_law_exactly(monkeypatch, bounds):
    tuples, chains = [], []
    chain = diagonal._chain

    class Stepping(dict):
        def get(self, degrees, default=None):
            tuples.append(degrees)
            return super().get(degrees, default)

    def counting(steps, n, *args):
        chains.append((tuples[-1], n))
        return chain(steps, n, *args)

    monkeypatch.setattr(diagonal, "_DEGREE_STEPS", Stepping(diagonal._DEGREE_STEPS))
    monkeypatch.setattr(diagonal, "_chain", counting)
    report = scan_ci(*bounds)
    cases, law_checks, verdict_counts = scan_counts(*bounds)
    assert report.cases == cases
    assert report.law_checks == law_checks
    assert report.verdict_counts == verdict_counts
    # the degree-only part is looked up once per tuple, the per-n part runs once per case
    assert len(tuples) == len(set(tuples)) == cases // bounds[0]
    assert len(chains) == len(set(chains)) == cases


@pytest.fixture
def formula_calls(monkeypatch) -> list:
    """Types passed to euler_ci_formula from inside the diagonal module."""
    calls = []

    def counting(ci):
        calls.append(ci)
        return euler_ci_formula(ci)

    monkeypatch.setattr(diagonal, "euler_ci_formula", counting)
    return calls


@pytest.fixture
def walks(monkeypatch) -> list:
    """(bounds, [(degrees, row length), ...]) for each walk of euler_ci_rows
    started from inside the diagonal module."""
    out = []

    def recording(*bounds):
        rows = []
        out.append((bounds, rows))
        for degrees, row, degree_product in euler_ci_rows(*bounds):
            rows.append((degrees, len(row)))
            yield degrees, row, degree_product

    monkeypatch.setattr(diagonal, "euler_ci_rows", recording)
    return out


def test_scan_reads_chi_from_one_row_per_degree_tuple(formula_calls, walks):
    report = scan_ci(6, 4, 3, quadrics_max_codimension=4)
    assert formula_calls == []
    # the grid's walk, then its degree-2 branch for the quadrics sweep
    [(bounds, rows), (quadric_bounds, quadric_rows)] = walks
    assert bounds == (4, 3, 6)
    tuples = [ci.degrees for ci in scan_grid(1, 4, 3)]
    assert len(rows) == len(set(rows)) == len(tuples)
    assert sorted(rows) == sorted((degrees, 7) for degrees in tuples)
    assert report.cases == 6 * len(tuples)
    assert quadric_bounds == (2, 4, 6)
    assert quadric_rows == [((2,) * r, 7) for r in range(5)]


class TrackedList(list):
    """A list that a weak reference can follow."""


def test_scan_holds_the_rows_of_one_path(monkeypatch):
    refs: list = []
    alive_at_call: list = []

    def tracked(build):
        def call(*args):
            alive_at_call.append(sum(ref() is not None for ref in refs))
            out = TrackedList(build(*args))
            refs.append(weakref.ref(out))
            return out

        return call

    # Every row but the root's (degrees ()) is one _peel of its parent's.
    monkeypatch.setattr(chern, "_peel", tracked(chern._peel))
    r, q = 3, 12
    scan_ci(6, 7, r, quadrics_max_codimension=q)
    # 83 degree tuples below the root, then the q quadric tuples of the branch.
    assert len(alive_at_call) == 83 + q
    # As each row is built, the rows alive are the root's (not tracked), at
    # most r - 1 more on the path and the last row read: r + 1 in all.
    assert 1 + max(alive_at_call[:83]) <= r + 1, alive_at_call
    # As the branch builds the row of (2,)*k, the tracked rows alive are the
    # grid's last row read, which outlives its walk, and the parent's: each
    # tuple of the branch has one child, so the path lets its row go once
    # that child is built, and the count does not grow with k.
    assert max(alive_at_call[83:]) <= 2, alive_at_call


def test_scan_meets_time_budget():
    start = time.perf_counter()
    report = scan_ci(30, 10, 6, 10)
    elapsed = time.perf_counter() - start
    assert report.cases == 150_150
    assert elapsed < 3.0, f"scan_ci(30, 10, 6, 10) took {elapsed:.2f}s"


def test_scan_case_limit_counts_degree_tuples_and_the_quadrics_sweep() -> None:
    # (40, 12, 7, 8) has 40 * (C(18, 7) + 6) = 1,273,200 cases, (40, 13, 7, 8)
    # 40 * (C(19, 7) + 6) = 2,015,760
    diagonal._check_scan_size(40, 12, 7, 8)
    with pytest.raises(ValueError, match="more than 2000000 cases"):
        diagonal._check_scan_size(40, 13, 7, 8)
    # 2 * (999,997 degree tuples + quadrics r = 3..qr) reaches 2,000,000 at qr = 5
    diagonal._check_scan_size(2, 999_997, 1, 5)
    with pytest.raises(ValueError, match="more than 2000000 cases"):
        diagonal._check_scan_size(2, 999_997, 1, 6)
    diagonal._check_scan_size(900, 2, 100, 3)
    for bounds in ((901, 2, 100, 3), (1, 2, 1, 1000), (1, 10**4000, 10**4000, 1)):
        with pytest.raises(ValueError, match="must be at most 1000"):
            diagonal._check_scan_size(*bounds)


def test_scan_walks_deep_codimension_without_recursion():
    # 3,001 quadric tuples, three times deeper than the default recursion limit
    report = scan_ci(3, 2, 3000, 3)
    assert report.cases == 9003
    assert sum(report.verdict_counts.values()) == report.cases
    # Every Nef and Open type has at most two quadrics; a sample of the deeper
    # ones is NotNef, and the scan counts the rest the same.
    shallow = Counter(verdict_ci(ci).status.value for ci in scan_grid(3, 2, 4))
    for r in (5, 6, 100, 999, 1000, 2999, 3000):
        for n in (1, 2, 3):
            assert verdict_ci(CIType((2,) * r, n)).status is Status.NOT_NEF, (r, n)
    shallow[Status.NOT_NEF.value] += 3 * (3000 - 4)
    assert Counter(report.verdict_counts) == shallow


@pytest.mark.parametrize(
    ("degrees", "n", "law", "message"),
    [
        ((4,), 3, "hypersurface_sign", "hypersurface_sign violated at (4;3): chi = 56"),
        ((2, 3), 4, "multidegree_sign", "multidegree_sign violated at (2,3;4): chi = -90"),
    ],
)
def test_scan_violation_names_law_and_type(monkeypatch, degrees, n, law, message):
    monkeypatch.setattr(diagonal, "euler_ci_rows", rows_with(degrees, n, lambda chi: -chi))
    with pytest.raises(ScanViolation) as info:
        scan_ci(6, 4, 3, quadrics_max_codimension=4)
    assert info.value.law == law
    assert info.value.subject == CIType(degrees, n)
    assert str(info.value) == message


def test_verdict_ci_computes_chi_at_most_once(formula_calls):
    calls = formula_calls
    assert verdict_ci(CIType((3,), 4)).reason is Reason.PROJECTION_BOUND
    assert verdict_ci(CIType((4,), 1)).reason is Reason.NEGATIVE_SELF_INTERSECTION
    assert len(calls) == 2
    # Structural families never need chi, whatever their dimension.
    assert verdict_ci(CIType((), 10**6)).reason is Reason.HOMOGENEOUS
    assert verdict_ci(CIType((2,), 10**6)).reason is Reason.HOMOGENEOUS
    assert verdict_ci(CIType((2, 2), 10**6 + 1)).status is Status.OPEN
    assert len(calls) == 2


def test_scan_rejects_bad_bounds():
    with pytest.raises(ValueError):
        scan_ci(0, 6, 5, 8)


@pytest.mark.parametrize(
    ("bounds", "name"),
    [
        ((12.0, 6, 5, 8), "max_dimension"),
        ((True, 2, 2, 3), "max_dimension"),
        ((4, 3, 2, "8"), "quadrics_max_codimension"),
        ((4, 3.0, 2, 3), "max_degree"),
        ((4, 3, None, 3), "max_codimension"),
    ],
)
def test_scan_type_checks_bounds_before_any_work(walks, bounds, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        scan_ci(*bounds)
    assert walks == []


def test_scan_violation_formatting():
    err = ScanViolation("hypersurface_sign", CIType((3,), 2), "chi = 9")
    assert "hypersurface_sign" in str(err)
    assert err.law == "hypersurface_sign"
