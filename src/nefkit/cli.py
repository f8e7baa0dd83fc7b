"""Command-line front end: deterministic text or JSON reports.

Every subcommand is declared once, in the COMMANDS table at the end of this
module: its help text, its arguments, the handler that computes it and the
renderer of its text report. build_parser turns the table into the argparse
tree. Every invocation runs one handler and prints its canonicalized inputs,
result payload and provenance notes; the JSON report is the object
{"command", "inputs", "result", "notes"} of JSON-native values only, so it
re-parses to an equal payload. JSON output is byte-reproducible: keys sorted,
two-space indent, no timestamps. Exit status: 0 success, 2 invalid input,
3 dataset error, 4 scan violation.

Importing this module loads no library layer. Each handler imports what it
calls when it runs, so euler, chern and betti load exactnum and chern;
verdict, scan and table also diagonal; cone exactnum and cones (and diagonal
to check a loaded dataset); a usage error none. Only chern ci loads fractions.
main maps a library exception to its exit status only if that exception's
module is loaded, which it must be if the exception was raised. No layer
imports dataclasses, so no subcommand loads it or inspect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    from .chern import CIType
    from .cones import CycleDataset

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Text renderers: result payload -> report lines, before the "# note" lines


def _compact(value: object) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, separators=(",", ":"))


def _value_lines(result: object) -> list[str]:
    return [str(result)]


def _sequence_lines(result: Sequence[int]) -> list[str]:
    return [" ".join(str(c) for c in result)]


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


def _format(text: str) -> str:
    """A --format value; a bad one gets one message under every CPython
    release, where argparse's own message quotes the choices only to 3.13.0."""
    if text not in ("text", "json"):
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from 'text', 'json')")
    return text


def _resolve_dataset(name: str) -> CycleDataset:
    """Dataset lookup order: literal path, NEFKIT_DATA directory, shipped data."""
    from .cones import _json_name, builtin_dataset, load_dataset_file

    if Path(name).is_file():
        return load_dataset_file(name)
    data_dir = os.environ.get("NEFKIT_DATA")
    if data_dir:
        candidate = Path(data_dir) / _json_name(name)
        if candidate.is_file():
            return load_dataset_file(candidate)
    return builtin_dataset(name)


def _ci_from_args(args: argparse.Namespace) -> CIType:
    from .chern import CIType

    return CIType(args.degrees, args.dim)


def _ci_inputs(ci: CIType) -> dict:
    return {"degrees": list(ci.degrees), "dim": ci.dimension}


# ---------------------------------------------------------------------------
# Subcommand handlers: args -> (inputs, result payload, notes). Each imports
# the library calls it makes when it runs, so an invocation loads only its
# own layer, and a test substitutes a call on the module that defines it,
# such as nefkit.diagonal.scan_ci.

Outcome = tuple[dict, object, tuple[str, ...]]


def _handle_euler_ci(args: argparse.Namespace) -> Outcome:
    from .chern import euler_ci_formula

    ci = _ci_from_args(args)
    return (_ci_inputs(ci), euler_ci_formula(ci),
            (f"Euler characteristic of the complete intersection {ci}",))


def _handle_euler_weighted(args: argparse.Namespace) -> Outcome:
    from .chern import WeightedHypersurface, euler_weighted

    surface = WeightedHypersurface(args.weights, args.degree)
    ambient = "P(" + ",".join(str(w) for w in surface.weights) + ")"
    return (
        {"weights": list(surface.weights), "degree": surface.degree},
        euler_weighted(surface),
        (f"Euler characteristic of a degree-{surface.degree} hypersurface in {ambient}",),
    )


def _handle_chern_ci(args: argparse.Namespace) -> Outcome:
    from .chern import chern_degrees_ci

    ci = _ci_from_args(args)
    return (_ci_inputs(ci), chern_degrees_ci(ci),
            (f"degrees of the Chern classes c_0..c_{ci.dimension} of {ci}",))


def _handle_betti_ci(args: argparse.Namespace) -> Outcome:
    from .chern import betti_ci, poincare_polynomial_ci

    ci = _ci_from_args(args)
    table = betti_ci(ci)
    result = {
        "betti": list(table.betti),
        "middle": table.middle,
        "euler": table.euler_characteristic,
        "poincare": poincare_polynomial_ci(ci),
    }
    return _ci_inputs(ci), result, (f"Betti numbers and signed Poincare polynomial of {ci}",)


def _handle_verdict_ci(args: argparse.Namespace) -> Outcome:
    from .diagonal import verdict_ci

    ci = _ci_from_args(args)
    verdict = verdict_ci(ci)
    return (_ci_inputs(ci), verdict.to_payload(),
            (f"nef-diagonal classification of {ci}", f"criterion: {verdict.reason.value}"))


def _handle_verdict_delpezzo(args: argparse.Namespace) -> Outcome:
    from .diagonal import verdict_delpezzo

    verdict = verdict_delpezzo(args.dim, args.degree, args.variant)
    inputs = {"dim": args.dim, "degree": args.degree}
    if args.variant is not None:
        inputs["variant"] = args.variant
    return inputs, verdict.to_payload(), (
        f"nef-diagonal classification of the degree-{args.degree} del Pezzo {args.dim}-fold",
        f"criterion: {verdict.reason.value}",
    )


def _handle_verdict_curve(args: argparse.Namespace) -> Outcome:
    from .diagonal import verdict_curve

    verdict = verdict_curve(args.genus)
    return ({"genus": args.genus}, verdict.to_payload(),
            (f"nef-diagonal classification of a genus-{args.genus} curve",
             f"criterion: {verdict.reason.value}"))


def _handle_cone_dual(args: argparse.Namespace) -> Outcome:
    from .cones import nef_cone_of_codim

    ds = _resolve_dataset(args.dataset)
    cone = nef_cone_of_codim(ds, args.codim)
    result = {
        "variety": ds.variety,
        "codim": args.codim,
        "basis": list(cone.basis_labels),
        "generators": [list(g) for g in cone.generators],
        "expressions": cone.generator_expressions(),
        "full_dimensional": cone.is_full_dimensional,
    }
    return {"dataset": args.dataset, "codim": args.codim}, result, (
        f"nef cone in codimension {args.codim}: dual of the effective cone "
        f"in codimension {ds.dimension - args.codim}",
    )


def _handle_cone_check(args: argparse.Namespace) -> Outcome:
    from .cones import spherical_nef_diagonal_check

    ds = _resolve_dataset(args.dataset)
    verdict = spherical_nef_diagonal_check(ds)
    return ({"dataset": args.dataset}, {"variety": ds.variety, **verdict.to_payload()},
            (f"nef-diagonal pairing check for {ds.variety}",
             f"criterion: {verdict.reason.value}"))


def _handle_scan_ci(args: argparse.Namespace) -> Outcome:
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


def _handle_table_delpezzo(args: argparse.Namespace) -> Outcome:
    from .diagonal import DELPEZZO_TABLE

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


# ---------------------------------------------------------------------------
# Registration table and parser

_CI_ARGS = (
    ("--dim", dict(type=int, required=True, help="dimension of the variety")),
    ("--degrees", dict(type=_comma_ints, default=(),
                       help="comma-separated degrees, e.g. 2,2 (empty: projective space)")),
)
_DATASET_ARG = ("--dataset", dict(required=True,
                                  help="dataset file, or name under NEFKIT_DATA / shipped data"))
_CI_HELP = "smooth complete intersection"

# group -> (group help, kind -> (help, arguments, handler, text renderer));
# each argument is (flag, add_argument keywords).
COMMANDS = {
    "euler": ("Euler characteristics", {
        "ci": (_CI_HELP, _CI_ARGS, _handle_euler_ci, _value_lines),
        "weighted": ("weighted hypersurface", (
            ("--weights", dict(type=_comma_ints, required=True,
                               help="comma-separated ambient weights a0,..,am (m >= 4)")),
            ("--degree", dict(type=int, required=True)),
        ), _handle_euler_weighted, _value_lines),
    }),
    "chern": ("Chern class degrees", {
        "ci": (_CI_HELP, _CI_ARGS, _handle_chern_ci, _sequence_lines),
    }),
    "betti": ("Betti numbers", {
        "ci": (_CI_HELP, _CI_ARGS, _handle_betti_ci, _betti_lines),
    }),
    "verdict": ("nef-diagonal classification", {
        "ci": (_CI_HELP, _CI_ARGS, _handle_verdict_ci, _verdict_lines),
        "delpezzo": ("del Pezzo manifold", (
            ("--dim", dict(type=int, required=True)),
            ("--degree", dict(type=int, required=True)),
            ("--variant", dict(default=None,
                               help="optional member label for reporting (degree 6)")),
        ), _handle_verdict_delpezzo, _verdict_lines),
        "curve": ("smooth projective curve", (
            ("--genus", dict(type=int, required=True)),
        ), _handle_verdict_curve, _verdict_lines),
    }),
    "cone": ("cycle cones from pairing datasets", {
        "dual": ("nef cone of a codimension", (
            _DATASET_ARG,
            ("--codim", dict(type=int, required=True)),
        ), _handle_cone_dual, _cone_lines),
        "check": ("nef-diagonal pairing check", (_DATASET_ARG,),
                  _handle_cone_check, _verdict_lines),
    }),
    "scan": ("verification sweeps", {
        "ci": ("sign/bound/classification laws", (
            ("--max-dim", dict(type=int, default=12)),
            ("--max-degree", dict(type=int, default=6)),
            ("--max-r", dict(type=int, default=5)),
            ("--quadrics-max-r", dict(type=int, default=8)),
        ), _handle_scan_ci, _scan_lines),
    }),
    "table": ("classification tables", {
        "delpezzo": ("del Pezzo manifolds by degree", (), _handle_table_delpezzo,
                     _table_lines),
    }),
}


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """Every group parser, and the kind parsers of the groups argv (sys.argv[1:] if None) names."""
    named = set(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="nefkit",
        description="exact invariants, nef-diagonal verdicts and cycle cones",
    )
    parser.add_argument("--format", type=_format, choices=("text", "json"), default="text",
                        help="report format (default: text)")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, kinds) in COMMANDS.items():
        group_parser = groups.add_parser(group, help=group_help)
        if group in named:  # argparse enters a group only on its exact name
            kind_parsers = group_parser.add_subparsers(dest="kind", required=True)
            for kind, (kind_help, arguments, handler, render) in kinds.items():
                kind_parser = kind_parsers.add_parser(kind, help=kind_help)
                for flag, options in arguments:
                    kind_parser.add_argument(flag, **options)
                kind_parser.set_defaults(handler=handler, render=render)
    return parser


def _loaded(module: str, *names: str) -> tuple[type[BaseException], ...]:
    """The named exception classes of a library module, or () if it is not loaded.

    A class can only have been raised once its module is loaded, so matching
    against the loaded ones is exact and imports nothing."""
    loaded = sys.modules.get(f"{__package__}.{module}")
    return tuple(getattr(loaded, name) for name in names) if loaded else ()


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser(argv).parse_args(argv)
    try:
        inputs, result, notes = args.handler(args)
        try:  # printing fails only on an integer past the int-to-str digit limit
            if args.format == "json":
                report = {"command": f"{args.group} {args.kind}", "inputs": inputs,
                          "result": result, "notes": list(notes)}
                output = json.dumps(report, sort_keys=True, indent=2) + "\n"
            else:
                lines = [*args.render(result), *(f"# {note}" for note in notes)]
                output = "\n".join(lines) + "\n"
        except ValueError:
            raise ValueError("the result has an integer of more than "
                             f"{sys.get_int_max_str_digits()} digits, too many to print") from None
    except _loaded("diagonal", "ScanViolation") as exc:
        print(f"scan violation: {exc}", file=sys.stderr)
        return 4
    except (*_loaded("cones", "SchemaError", "InconsistentPairing", "MissingPairing"),
            OSError) as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return 0
