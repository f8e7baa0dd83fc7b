"""Command-line front end: deterministic text or JSON reports.

Every invocation runs one subcommand, builds a Report (command echo,
canonicalized inputs, result payload, provenance notes) and prints it.
JSON output is byte-reproducible: keys sorted, two-space indent, no
timestamps. Exit status: 0 success, 2 invalid input, 3 dataset error,
4 scan violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .chern import (
    CIType,
    WeightedHypersurface,
    betti_ci,
    chern_degrees_ci,
    euler_ci_formula,
    euler_weighted,
    poincare_polynomial_ci,
)
from .cones import (
    CycleDataset,
    InconsistentPairing,
    MissingPairing,
    SchemaError,
    builtin_dataset,
    load_dataset_file,
    nef_cone_of_codim,
    spherical_nef_diagonal_check,
)
from .diagonal import (
    DELPEZZO_TABLE,
    ScanViolation,
    scan_ci,
    verdict_ci,
    verdict_curve,
    verdict_delpezzo,
)

__all__ = ["Report", "emit_report", "render_text", "main"]


@dataclass(frozen=True)
class Report:
    """One command's outcome, in a JSON-native shape.

    The result payload only holds lists, dicts, strings, integers and
    booleans, so serializing and re-parsing reproduces an equal Report.
    """

    command: str
    inputs: dict
    result: object
    notes: tuple[str, ...] = ()

    def to_payload(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "result": self.result,
            "notes": list(self.notes),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "Report":
        return cls(
            command=payload["command"],
            inputs=dict(payload["inputs"]),
            result=payload["result"],
            notes=tuple(payload["notes"]),
        )


# ---------------------------------------------------------------------------
# Rendering


def _compact(value: object) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, separators=(",", ":"))


def _verdict_lines(result: Mapping) -> list[str]:
    lines = [f"{result['status']}: {result['reason']}", f"detail: {result['detail']}"]
    witness = result.get("witness") or {}
    if witness:
        parts = " ".join(f"{k}={_compact(witness[k])}" for k in sorted(witness))
        lines.append(f"witness: {parts}")
    return lines


def _cone_lines(result: Mapping) -> list[str]:
    lines = [f"variety: {result['variety']}", f"basis: {', '.join(result['basis'])}"]
    for coords, expr in zip(result["generators"], result["expressions"]):
        lines.append(f"ray ({', '.join(str(x) for x in coords)}): {expr}")
    lines.append(f"full-dimensional: {'yes' if result['full_dimensional'] else 'no'}")
    return lines


def _scan_lines(result: Mapping) -> list[str]:
    lines = [f"cases: {result['cases']}"]
    for law, count in result["law_checks"].items():
        lines.append(f"law {law}: {count} checks, no violations")
    for verdict, count in result["verdict_counts"].items():
        lines.append(f"verdict {verdict}: {count}")
    return lines


def _betti_lines(result: Mapping) -> list[str]:
    return [
        "betti: " + " ".join(str(b) for b in result["betti"]),
        f"middle: {result['middle']}",
        f"euler: {result['euler']}",
        "poincare: " + " ".join(str(c) for c in result["poincare"]),
    ]


def _table_lines(result: Sequence[Mapping]) -> list[str]:
    lines = []
    for row in result:
        lines.append(f"degree {row['degree']} ({row['dimensions']}): {row['description']}")
        if row["variants"]:
            lines.append(f"  variants: {', '.join(row['variants'])}")
    return lines


def render_text(report: Report) -> str:
    command = report.command
    if command in ("euler ci", "euler weighted"):
        lines = [str(report.result)]
    elif command == "chern ci":
        lines = [" ".join(str(c) for c in report.result)]
    elif command == "betti ci":
        lines = _betti_lines(report.result)
    elif command.startswith("verdict") or command == "cone check":
        lines = _verdict_lines(report.result)
    elif command == "cone dual":
        lines = _cone_lines(report.result)
    elif command == "scan ci":
        lines = _scan_lines(report.result)
    elif command == "table delpezzo":
        lines = _table_lines(report.result)
    else:  # pragma: no cover - every subcommand is listed above
        lines = [_compact(report.result)]
    lines.extend(f"# {note}" for note in report.notes)
    return "\n".join(lines) + "\n"


def emit_report(report: Report, format: str = "text") -> str:
    if format == "json":
        return json.dumps(report.to_payload(), sort_keys=True, indent=2) + "\n"
    if format == "text":
        return render_text(report)
    raise ValueError(f"unknown format {format!r}")


# ---------------------------------------------------------------------------
# Shared argument plumbing


def _comma_ints(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _resolve_dataset(name: str) -> CycleDataset:
    """Dataset lookup order: literal path, NEFKIT_DATA directory, shipped data."""
    path = Path(name)
    if path.is_file():
        return load_dataset_file(path)
    data_dir = os.environ.get("NEFKIT_DATA")
    if data_dir:
        stem = name if name.endswith(".json") else f"{name}.json"
        candidate = Path(data_dir) / stem
        if candidate.is_file():
            return load_dataset_file(candidate)
    return builtin_dataset(name)


def _ci_from_args(args: argparse.Namespace) -> CIType:
    return CIType(args.degrees, args.dim)


def _ci_inputs(ci: CIType) -> dict:
    return {"degrees": list(ci.degrees), "dim": ci.dimension}


# ---------------------------------------------------------------------------
# Subcommand handlers


def _handle_euler_ci(args: argparse.Namespace) -> Report:
    ci = _ci_from_args(args)
    return Report(
        command="euler ci",
        inputs=_ci_inputs(ci),
        result=euler_ci_formula(ci),
        notes=(f"Euler characteristic of the complete intersection {ci}",),
    )


def _handle_euler_weighted(args: argparse.Namespace) -> Report:
    surface = WeightedHypersurface(args.weights, args.degree)
    value = euler_weighted(surface)
    return Report(
        command="euler weighted",
        inputs={"weights": list(surface.weights), "degree": surface.degree},
        result=int(value),
        notes=(
            "Euler characteristic of a degree-%d hypersurface in P%s"
            % (surface.degree, "(" + ",".join(str(w) for w in surface.weights) + ")"),
        ),
    )


def _handle_chern_ci(args: argparse.Namespace) -> Report:
    ci = _ci_from_args(args)
    return Report(
        command="chern ci",
        inputs=_ci_inputs(ci),
        result=chern_degrees_ci(ci),
        notes=(f"degrees of the Chern classes c_0..c_{ci.dimension} of {ci}",),
    )


def _handle_betti_ci(args: argparse.Namespace) -> Report:
    ci = _ci_from_args(args)
    table = betti_ci(ci)
    return Report(
        command="betti ci",
        inputs=_ci_inputs(ci),
        result={
            "betti": list(table.betti),
            "middle": table.middle,
            "euler": table.euler_characteristic,
            "poincare": poincare_polynomial_ci(ci),
        },
        notes=(f"Betti numbers and signed Poincare polynomial of {ci}",),
    )


def _handle_verdict_ci(args: argparse.Namespace) -> Report:
    ci = _ci_from_args(args)
    verdict = verdict_ci(ci)
    return Report(
        command="verdict ci",
        inputs=_ci_inputs(ci),
        result=verdict.to_payload(),
        notes=(f"nef-diagonal classification of {ci}",
               f"criterion: {verdict.reason.value}"),
    )


def _handle_verdict_delpezzo(args: argparse.Namespace) -> Report:
    verdict = verdict_delpezzo(args.dim, args.degree, args.variant)
    inputs = {"dim": args.dim, "degree": args.degree}
    if args.variant is not None:
        inputs["variant"] = args.variant
    return Report(
        command="verdict delpezzo",
        inputs=inputs,
        result=verdict.to_payload(),
        notes=(
            f"nef-diagonal classification of the degree-{args.degree} "
            f"del Pezzo {args.dim}-fold",
            f"criterion: {verdict.reason.value}",
        ),
    )


def _handle_verdict_curve(args: argparse.Namespace) -> Report:
    verdict = verdict_curve(args.genus)
    return Report(
        command="verdict curve",
        inputs={"genus": args.genus},
        result=verdict.to_payload(),
        notes=(f"nef-diagonal classification of a genus-{args.genus} curve",
               f"criterion: {verdict.reason.value}"),
    )


def _handle_cone_dual(args: argparse.Namespace) -> Report:
    ds = _resolve_dataset(args.dataset)
    cone = nef_cone_of_codim(ds, args.codim)
    return Report(
        command="cone dual",
        inputs={"dataset": args.dataset, "codim": args.codim},
        result={
            "variety": ds.variety,
            "codim": args.codim,
            "basis": list(cone.basis_labels),
            "generators": [list(g) for g in cone.generators],
            "expressions": cone.generator_expressions(),
            "full_dimensional": cone.is_full_dimensional,
        },
        notes=(
            f"nef cone in codimension {args.codim}: dual of the effective cone "
            f"in codimension {ds.dimension - args.codim}",
        ),
    )


def _handle_cone_check(args: argparse.Namespace) -> Report:
    ds = _resolve_dataset(args.dataset)
    verdict = spherical_nef_diagonal_check(ds)
    return Report(
        command="cone check",
        inputs={"dataset": args.dataset},
        result={"variety": ds.variety, **verdict.to_payload()},
        notes=(f"nef-diagonal pairing check for {ds.variety}",
               f"criterion: {verdict.reason.value}"),
    )


def _handle_scan_ci(args: argparse.Namespace) -> Report:
    scan = scan_ci(
        max_dimension=args.max_dim,
        max_degree=args.max_degree,
        max_codimension=args.max_r,
        quadrics_max_codimension=args.quadrics_max_r,
    )
    return Report(
        command="scan ci",
        inputs={
            "max_dim": args.max_dim,
            "max_degree": args.max_degree,
            "max_r": args.max_r,
            "quadrics_max_r": args.quadrics_max_r,
        },
        result=scan.to_payload(),
        notes=("all sign, bound and classification laws hold on the grid",),
    )


def _handle_table_delpezzo(args: argparse.Namespace) -> Report:
    rows = [
        {
            "degree": row.degree,
            "dimensions": row.dimensions,
            "description": row.description,
            "variants": list(row.variants),
        }
        for row in DELPEZZO_TABLE
    ]
    return Report(
        command="table delpezzo",
        inputs={},
        result=rows,
        notes=("classification of del Pezzo manifolds by degree",),
    )


# ---------------------------------------------------------------------------
# Parser


def _add_ci_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, required=True,
                        help="dimension of the variety")
    parser.add_argument("--degrees", type=_comma_ints, default=(),
                        help="comma-separated degrees, e.g. 2,2 (empty: projective space)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nefkit",
        description="exact invariants, nef-diagonal verdicts and cycle cones",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    groups = parser.add_subparsers(dest="group", required=True)

    euler = groups.add_parser("euler", help="Euler characteristics")
    euler_sub = euler.add_subparsers(dest="kind", required=True)
    euler_ci = euler_sub.add_parser("ci", help="smooth complete intersection")
    _add_ci_arguments(euler_ci)
    euler_ci.set_defaults(handler=_handle_euler_ci)
    euler_weighted = euler_sub.add_parser("weighted", help="weighted hypersurface")
    euler_weighted.add_argument("--weights", type=_comma_ints, required=True,
                                help="comma-separated ambient weights a0,..,am (m >= 4)")
    euler_weighted.add_argument("--degree", type=int, required=True)
    euler_weighted.set_defaults(handler=_handle_euler_weighted)

    chern = groups.add_parser("chern", help="Chern class degrees")
    chern_sub = chern.add_subparsers(dest="kind", required=True)
    chern_ci = chern_sub.add_parser("ci", help="smooth complete intersection")
    _add_ci_arguments(chern_ci)
    chern_ci.set_defaults(handler=_handle_chern_ci)

    betti = groups.add_parser("betti", help="Betti numbers")
    betti_sub = betti.add_subparsers(dest="kind", required=True)
    betti_ci_parser = betti_sub.add_parser("ci", help="smooth complete intersection")
    _add_ci_arguments(betti_ci_parser)
    betti_ci_parser.set_defaults(handler=_handle_betti_ci)

    verdict = groups.add_parser("verdict", help="nef-diagonal classification")
    verdict_sub = verdict.add_subparsers(dest="kind", required=True)
    verdict_ci_parser = verdict_sub.add_parser("ci", help="smooth complete intersection")
    _add_ci_arguments(verdict_ci_parser)
    verdict_ci_parser.set_defaults(handler=_handle_verdict_ci)
    verdict_dp = verdict_sub.add_parser("delpezzo", help="del Pezzo manifold")
    verdict_dp.add_argument("--dim", type=int, required=True)
    verdict_dp.add_argument("--degree", type=int, required=True)
    verdict_dp.add_argument("--variant", default=None,
                            help="optional member label for reporting (degree 6)")
    verdict_dp.set_defaults(handler=_handle_verdict_delpezzo)
    verdict_curve_parser = verdict_sub.add_parser("curve", help="smooth projective curve")
    verdict_curve_parser.add_argument("--genus", type=int, required=True)
    verdict_curve_parser.set_defaults(handler=_handle_verdict_curve)

    cone = groups.add_parser("cone", help="cycle cones from pairing datasets")
    cone_sub = cone.add_subparsers(dest="kind", required=True)
    cone_dual = cone_sub.add_parser("dual", help="nef cone of a codimension")
    cone_dual.add_argument("--dataset", required=True,
                           help="dataset file, or name under NEFKIT_DATA / shipped data")
    cone_dual.add_argument("--codim", type=int, required=True)
    cone_dual.set_defaults(handler=_handle_cone_dual)
    cone_check = cone_sub.add_parser("check", help="nef-diagonal pairing check")
    cone_check.add_argument("--dataset", required=True,
                            help="dataset file, or name under NEFKIT_DATA / shipped data")
    cone_check.set_defaults(handler=_handle_cone_check)

    scan = groups.add_parser("scan", help="verification sweeps")
    scan_sub = scan.add_subparsers(dest="kind", required=True)
    scan_ci_parser = scan_sub.add_parser("ci", help="sign/bound/classification laws")
    scan_ci_parser.add_argument("--max-dim", type=int, default=12)
    scan_ci_parser.add_argument("--max-degree", type=int, default=6)
    scan_ci_parser.add_argument("--max-r", type=int, default=5)
    scan_ci_parser.add_argument("--quadrics-max-r", type=int, default=8)
    scan_ci_parser.set_defaults(handler=_handle_scan_ci)

    table = groups.add_parser("table", help="classification tables")
    table_sub = table.add_subparsers(dest="kind", required=True)
    table_dp = table_sub.add_parser("delpezzo", help="del Pezzo manifolds by degree")
    table_dp.set_defaults(handler=_handle_table_delpezzo)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = emit_report(args.handler(args), args.format)
    except ScanViolation as exc:
        print(f"scan violation: {exc}", file=sys.stderr)
        return 4
    except (SchemaError, InconsistentPairing, MissingPairing, OSError) as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
