"""Handlers and text renderers of the verdict, scan and table subcommands.

nefkit.cli imports this module only to run one of them, or to render the
verdict of cone check as text. Each handler maps parsed args to (inputs,
result payload, notes) and imports the library calls it makes when it runs:
verdict delpezzo and table delpezzo load delpezzo, the others diagonal, and
a test substitutes a call on the module that defines it, such as
nefkit.diagonal.scan_ci.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping, Sequence

from .cli import _ci_from_args, _ci_inputs

if TYPE_CHECKING:
    from .cli import Args, Outcome


def _compact(value: object) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, separators=(",", ":"))


def verdict_lines(result: Mapping) -> list[str]:
    lines = [f"{result['status']}: {result['reason']}", f"detail: {result['detail']}"]
    witness = result.get("witness") or {}
    if witness:
        parts = " ".join(f"{k}={_compact(witness[k])}" for k in sorted(witness))
        lines.append(f"witness: {parts}")
    return lines


def scan_lines(result: Mapping) -> list[str]:
    lines = [f"cases: {result['cases']}"]
    for law, count in result["law_checks"].items():
        lines.append(f"law {law}: {count} checks, no violations")
    for verdict, count in result["verdict_counts"].items():
        lines.append(f"verdict {verdict}: {count}")
    return lines


def table_lines(result: Sequence[Mapping]) -> list[str]:
    lines = []
    for row in result:
        lines.append(f"degree {row['degree']} ({row['dimensions']}): {row['description']}")
        if row["variants"]:
            lines.append(f"  variants: {', '.join(row['variants'])}")
    return lines


def handle_verdict_ci(args: Args) -> Outcome:
    from .diagonal import verdict_ci

    ci = _ci_from_args(args)
    verdict = verdict_ci(ci)
    return (_ci_inputs(ci), verdict.to_payload(),
            (f"nef-diagonal classification of {ci}", f"criterion: {verdict.reason.value}"))


def handle_verdict_delpezzo(args: Args) -> Outcome:
    from .delpezzo import verdict_delpezzo

    verdict = verdict_delpezzo(args.dim, args.degree, args.variant)
    inputs = {"dim": args.dim, "degree": args.degree}
    if args.variant is not None:
        inputs["variant"] = args.variant
    return inputs, verdict.to_payload(), (
        f"nef-diagonal classification of the degree-{args.degree} del Pezzo {args.dim}-fold",
        f"criterion: {verdict.reason.value}",
    )


def handle_verdict_curve(args: Args) -> Outcome:
    from .diagonal import verdict_curve

    verdict = verdict_curve(args.genus)
    return ({"genus": args.genus}, verdict.to_payload(),
            (f"nef-diagonal classification of a genus-{args.genus} curve",
             f"criterion: {verdict.reason.value}"))


def handle_scan_ci(args: Args) -> Outcome:
    from .diagonal import scan_ci

    scan = scan_ci(
        max_dimension=args.max_dim,
        max_degree=args.max_degree,
        max_codimension=args.max_r,
        quadrics_max_codimension=args.quadrics_max_r,
    )
    inputs = {
        "max_dim": args.max_dim,
        "max_degree": args.max_degree,
        "max_r": args.max_r,
        "quadrics_max_r": args.quadrics_max_r,
    }
    notes = ("all sign, bound and classification laws hold on the grid",)
    return inputs, scan.to_payload(), notes


def handle_table_delpezzo(args: Args) -> Outcome:
    from .delpezzo import DELPEZZO_TABLE

    rows = [
        {
            "degree": row.degree,
            "dimensions": row.dimensions,
            "description": row.description,
            "variants": list(row.variant_dimensions),
        }
        for row in DELPEZZO_TABLE
    ]
    return {}, rows, ("classification of del Pezzo manifolds by degree",)
