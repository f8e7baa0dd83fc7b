"""Command-line front end: deterministic text or JSON reports.

Every subcommand is declared once, in the COMMANDS table: its help text, its
arguments, the handler that computes it and the renderer of its text
report. parse_well_formed reads a command given in its canonical form,
[--format text|json] GROUP KIND (--flag value)*, straight from the table.
build_parser turns the table into the argparse tree, which main builds only
for any other argv: help, usage errors and the spellings that argparse also
reads (abbreviated flags, --flag=value, a repeated flag, a value starting
with "-"). So argparse loads only to print help or an error.

Every invocation runs one handler, which returns the result payload and the
provenance notes. main prints them with the inputs, which it echoes itself:
every flag the kind declares in COMMANDS whose parsed value is not None, keyed
by its dest name. A handler that canonicalizes a value writes it back to args,
as the complete intersections' handlers do with --degrees. The JSON report is
the object {"command", "inputs", "result", "notes"} of JSON-native values only,
so it re-parses to an equal payload. JSON output is byte-reproducible: keys
sorted, two-space indent, no timestamps. main returns the exit status for
every argv, help and usage errors included: 0 success, 2 invalid input, 3
dataset error, 4 scan violation. It flushes nothing and lets a failed write's
OSError or UnicodeEncodeError through. nefkit.__main__.run is the one writer:
it gives main two buffers as stdout and stderr, argparse's help and errors
included, writes their text to the real streams when main returns and ends
the process, with status 1 if that text cannot be written.

Importing this module loads no library layer and not argparse. Each handler
imports what it calls when it runs, so euler, chern and betti load exactnum
and chern; verdict, scan and table also diagonal; cone dual exactnum and
cones; cone check also chern and diagonal; a usage error and help none. Only
chern ci builds a series, and with it loads fractions. main maps a library exception
to its exit status only if that exception's module is loaded, which it must
be if it was raised; a MemoryError is invalid input, too large to compute. No
layer imports dataclasses, so no subcommand loads it or inspect.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    from argparse import ArgumentParser, Namespace

    from .chern import CIType
    from .diagonal import Verdict

    Args = Namespace | SimpleNamespace
    # what a handler returns: (result payload, notes)
    Outcome = tuple[object, tuple[str, ...]]

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Shared argument plumbing


def _comma_ints(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _format(text: str) -> str:
    """A --format value; a bad one gets one message under every CPython
    release, where argparse's own message quotes the choices only to 3.13.0."""
    if text not in ("text", "json"):
        import argparse

        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from 'text', 'json')")
    return text


def _dest(flag: str) -> str:
    """The attribute name argparse gives a flag: --max-r is max_r."""
    return flag[2:].replace("-", "_")


def _ci_from_args(args: Args) -> CIType:
    """The complete intersection of args, whose degrees it writes back in
    canonical order, so that the inputs echo them so."""
    from .chern import CIType

    ci = CIType(args.degrees, args.dim)
    args.degrees = ci.degrees
    return ci


# ---------------------------------------------------------------------------
# Handlers and text renderers
#
# Each handler maps parsed args to (result payload, notes) and imports the
# library calls it makes when it runs, so a test substitutes a call on the
# module that defines it, such as nefkit.diagonal.scan_ci. main echoes the
# inputs from args after the handler returns.


def plain_lines(result: object) -> list[str]:
    """A mapping as one key: value line per key, in payload order, a list
    space-separated, and any other value on one line."""
    if isinstance(result, dict):
        return [f"{key}: {plain_lines(value)[0]}" for key, value in result.items()]
    if isinstance(result, (list, tuple)):
        return [" ".join(str(c) for c in result)]
    return [str(result)]


def handle_euler_ci(args: Args) -> Outcome:
    from .chern import euler_ci_formula

    ci = _ci_from_args(args)
    return euler_ci_formula(ci), (f"Euler characteristic of the complete intersection {ci}",)


def handle_euler_weighted(args: Args) -> Outcome:
    from .chern import WeightedHypersurface, euler_weighted

    surface = WeightedHypersurface(args.weights, args.degree)
    ambient = "P(" + ",".join(str(w) for w in surface.weights) + ")"
    return euler_weighted(surface), (
        f"Euler characteristic of a degree-{surface.degree} hypersurface in {ambient}",
    )


def handle_chern_ci(args: Args) -> Outcome:
    from .chern import chern_degrees_ci

    ci = _ci_from_args(args)
    return chern_degrees_ci(ci), (f"degrees of the Chern classes c_0..c_{ci.dimension} of {ci}",)


def handle_betti_ci(args: Args) -> Outcome:
    from .chern import betti_ci

    ci = _ci_from_args(args)
    table = betti_ci(ci)
    result = {
        "betti": list(table.betti),
        "middle": table.middle,
        "euler": table.euler_characteristic,
        "poincare": table.poincare,
    }
    return result, (f"Betti numbers and signed Poincare polynomial of {ci}",)


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


def _judged(verdict: Verdict, note: str) -> Outcome:
    """A verdict's payload, and the note followed by the criterion that decided it."""
    return verdict.to_payload(), (note, f"criterion: {verdict.reason.value}")


def handle_verdict_ci(args: Args) -> Outcome:
    from .diagonal import verdict_ci

    ci = _ci_from_args(args)
    return _judged(verdict_ci(ci), f"nef-diagonal classification of {ci}")


def handle_verdict_delpezzo(args: Args) -> Outcome:
    from .diagonal import verdict_delpezzo

    return _judged(
        verdict_delpezzo(args.dim, args.degree, args.variant),
        f"nef-diagonal classification of the degree-{args.degree} del Pezzo {args.dim}-fold",
    )


def handle_verdict_curve(args: Args) -> Outcome:
    from .diagonal import verdict_curve

    return _judged(verdict_curve(args.genus),
                   f"nef-diagonal classification of a genus-{args.genus} curve")


# The limits of scan ci, checked before the walk. A scan costs about 0.5 to
# 0.7 us per case (Python 3.11 on a 2-CPU host), so 2,000,000 cases take
# under 2 s. chi of a case of dimension n and codimension r has O((n + r)
# log max degree) bits, and the walk holds up to r + 1 rows of them, so the
# case count alone does not bound memory: capping n + r, the dimension of the
# ambient projective space, at 1,000 keeps a scan under 50 MB.
_SCAN_MAX_AMBIENT = 1_000
_SCAN_MAX_CASES = 2_000_000


def _check_scan_grid(max_dim: int, max_degree: int, max_r: int, quadrics_max_r: int) -> None:
    """ValueError naming the limit that a grid of positive bounds breaks."""
    if max_dim + max(max_r, quadrics_max_r) > _SCAN_MAX_AMBIENT:
        raise ValueError("--max-dim plus the larger of --max-r and --quadrics-max-r must be"
                         f" at most {_SCAN_MAX_AMBIENT}, the largest ambient space a scan walks")
    tuples = 1  # degree tuples of at most i entries in 2..max_degree: C(max_degree - 1 + i, i)
    for i in range(1, max_r + 1):
        tuples = tuples * (max_degree - 1 + i) // i
        if tuples > _SCAN_MAX_CASES:
            break
    if max_dim * (tuples + max(quadrics_max_r - 2, 0)) > _SCAN_MAX_CASES:
        raise ValueError(f"the grid has more than {_SCAN_MAX_CASES} cases, the most a scan"
                         " walks: --max-dim times the degree tuples, plus the quadrics sweep")


def handle_scan_ci(args: Args) -> Outcome:
    from .diagonal import scan_ci

    bounds = (args.max_dim, args.max_degree, args.max_r, args.quadrics_max_r)
    if min(bounds) >= 1:  # scan_ci names a bound below 1 itself
        _check_scan_grid(*bounds)
    scan = scan_ci(
        max_dimension=args.max_dim,
        max_degree=args.max_degree,
        max_codimension=args.max_r,
        quadrics_max_codimension=args.quadrics_max_r,
    )
    return scan.to_payload(), ("all sign, bound and classification laws hold on the grid",)


def handle_table_delpezzo(args: Args) -> Outcome:
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
    return rows, ("classification of del Pezzo manifolds by degree",)


def cone_lines(result: Mapping) -> list[str]:
    lines = [f"variety: {result['variety']}", f"basis: {', '.join(result['basis'])}"]
    for coords, expr in zip(result["generators"], result["expressions"]):
        lines.append(f"ray ({', '.join(str(x) for x in coords)}): {expr}")
    lines.append(f"full-dimensional: {'yes' if result['full_dimensional'] else 'no'}")
    return lines


def handle_cone_dual(args: Args) -> Outcome:
    from .cones import nef_cone_of_codim, resolve_dataset

    ds = resolve_dataset(args.dataset)
    cone = nef_cone_of_codim(ds, args.codim)
    result = {
        "variety": ds.variety,
        "codim": args.codim,
        "basis": list(cone.basis_labels),
        "generators": [list(g) for g in cone.generators],
        "expressions": cone.generator_expressions(),
        "full_dimensional": cone.is_full_dimensional,
    }
    return result, (
        f"nef cone in codimension {args.codim}: dual of the effective cone "
        f"in codimension {ds.dimension - args.codim}",
    )


def handle_cone_check(args: Args) -> Outcome:
    from .cones import resolve_dataset
    from .diagonal import spherical_nef_diagonal_check

    ds = resolve_dataset(args.dataset)
    payload, notes = _judged(spherical_nef_diagonal_check(ds),
                             f"nef-diagonal pairing check for {ds.variety}")
    return {"variety": ds.variety, **payload}, notes


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
# each argument is (flag, add_argument keywords)
COMMANDS = {
    "euler": ("Euler characteristics", {
        "ci": (_CI_HELP, _CI_ARGS, handle_euler_ci, plain_lines),
        "weighted": ("weighted hypersurface", (
            ("--weights", dict(type=_comma_ints, required=True,
                               help="comma-separated ambient weights a0,..,am (m >= 4)")),
            ("--degree", dict(type=int, required=True)),
        ), handle_euler_weighted, plain_lines),
    }),
    "chern": ("Chern class degrees", {
        "ci": (_CI_HELP, _CI_ARGS, handle_chern_ci, plain_lines),
    }),
    "betti": ("Betti numbers", {
        "ci": (_CI_HELP, _CI_ARGS, handle_betti_ci, plain_lines),
    }),
    "verdict": ("nef-diagonal classification", {
        "ci": (_CI_HELP, _CI_ARGS, handle_verdict_ci, verdict_lines),
        "delpezzo": ("del Pezzo manifold", (
            ("--dim", dict(type=int, required=True)),
            ("--degree", dict(type=int, required=True)),
            ("--variant", dict(default=None,
                               help="optional member label for reporting (degree 6)")),
        ), handle_verdict_delpezzo, verdict_lines),
        "curve": ("smooth projective curve", (
            ("--genus", dict(type=int, required=True)),
        ), handle_verdict_curve, verdict_lines),
    }),
    "cone": ("cycle cones from pairing datasets", {
        "dual": ("nef cone of a codimension", (
            _DATASET_ARG,
            ("--codim", dict(type=int, required=True)),
        ), handle_cone_dual, cone_lines),
        "check": ("nef-diagonal pairing check", (_DATASET_ARG,), handle_cone_check,
                  verdict_lines),
    }),
    "scan": ("verification sweeps", {
        "ci": ("sign/bound/classification laws", (
            ("--max-dim", dict(type=int, default=12)),
            ("--max-degree", dict(type=int, default=6)),
            ("--max-r", dict(type=int, default=5)),
            ("--quadrics-max-r", dict(type=int, default=8)),
        ), handle_scan_ci, scan_lines),
    }),
    "table": ("classification tables", {
        "delpezzo": ("del Pezzo manifolds by degree", (), handle_table_delpezzo, table_lines),
    }),
}


def parse_well_formed(argv: Sequence[str] | None = None) -> SimpleNamespace | None:
    """The attributes argparse sets for argv (sys.argv[1:] if None), read from
    COMMANDS when argv is [--format text|json] GROUP KIND (--flag value)* with
    each flag an exact name of the kind, given at most once, no value starting
    with "-", every required flag given and every value accepted by its type;
    None for any other argv, which build_parser's tree parses or rejects."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = {"format": "text"}
    if argv[:2] in (["--format", "text"], ["--format", "json"]):
        args["format"], argv = argv[1], argv[2:]
    if len(argv) < 2 or argv[0] not in COMMANDS or argv[1] not in COMMANDS[argv[0]][1]:
        return None
    group, kind, *pairs = argv
    _, arguments, handler, render = COMMANDS[group][1][kind]
    given = dict(zip(pairs[::2], pairs[1::2]))
    if len(pairs) != 2 * len(given):  # a flag without a value, or one given twice
        return None
    args.update(group=group, kind=kind)
    for flag, options in arguments:
        text = given.pop(flag, None)
        dest = _dest(flag)
        if text is None:
            if options.get("required"):
                return None
            args[dest] = options.get("default")
        elif text.startswith("-"):
            return None
        else:
            try:  # what argparse catches from a type
                args[dest] = options.get("type", str)(text)
            except (TypeError, ValueError, *_loaded("argparse", "ArgumentTypeError")):
                return None
    if given:  # a token that is no flag of the kind
        return None
    return SimpleNamespace(**args, handler=handler, render=render)


def build_parser() -> ArgumentParser:
    """The argparse tree of COMMANDS: help, usage errors and every argv that
    parse_well_formed declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="nefkit",
        description="exact invariants, nef-diagonal verdicts and cycle cones",
    )
    parser.add_argument("--format", type=_format, choices=("text", "json"), default="text",
                        help="report format (default: text)")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, kinds) in COMMANDS.items():
        group_parser = groups.add_parser(group, help=group_help)
        kind_parsers = group_parser.add_subparsers(dest="kind", required=True)
        for kind, (kind_help, arguments, handler, render) in kinds.items():
            kind_parser = kind_parsers.add_parser(kind, help=kind_help)
            for flag, options in arguments:
                kind_parser.add_argument(flag, **options)
            kind_parser.set_defaults(handler=handler, render=render)
    return parser


def _loaded(module: str, name: str) -> tuple[type[BaseException], ...]:
    """The module's exception class of that name in a tuple, or () if it is not loaded.

    A class can only have been raised once its module is loaded, so matching
    against the loaded ones is exact and imports nothing."""
    loaded = sys.modules.get(module)
    return (getattr(loaded, name),) if loaded else ()


def main(argv: Sequence[str] | None = None) -> int:
    """Run argv's command (sys.argv[1:] if None) and return its exit status; a
    failed write's OSError or UnicodeEncodeError passes through, unflushed."""
    args = parse_well_formed(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # after help or a usage error
            return exc.code
    try:
        result, notes = args.handler(args)
        try:  # printing fails only on an integer past the int-to-str digit limit
            if args.format == "json":
                dests = [_dest(flag) for flag, _ in COMMANDS[args.group][1][args.kind][1]]
                inputs = {dest: getattr(args, dest) for dest in dests
                          if getattr(args, dest) is not None}
                report = {"command": f"{args.group} {args.kind}", "inputs": inputs,
                          "result": result, "notes": list(notes)}
                output = json.dumps(report, sort_keys=True, indent=2) + "\n"
            else:
                lines = [*args.render(result), *(f"# {note}" for note in notes)]
                output = "\n".join(lines) + "\n"
        except ValueError:
            raise ValueError("the result has an integer of more than "
                             f"{sys.get_int_max_str_digits()} digits, too many to print") from None
    except _loaded(f"{__package__}.diagonal", "ScanViolation") as exc:
        print(f"scan violation: {exc}", file=sys.stderr)
        return 4
    except (*_loaded(f"{__package__}.cones", "SchemaError"), OSError) as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OverflowError:  # a list or range past sys.maxsize items, as for a huge --dim
        print(f"invalid input: too large to compute, more than {sys.maxsize} terms",
              file=sys.stderr)
        return 2
    except MemoryError:  # a list or integer that fits no memory left, as for a huge --dim
        print("invalid input: too large to compute in the memory available", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return 0
