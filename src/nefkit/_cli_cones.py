"""Handlers of the cone subcommands and the text renderer of cone dual.

nefkit.cli imports this module only to run one of them; cone check renders
its verdict as text with the verdict renderer of _cli_verdicts. Each handler
maps parsed args to (inputs, result payload, notes) and imports the library
calls it makes when it runs, so a test substitutes a call on the module that
defines it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from .cli import Args, Outcome


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
    return {"dataset": args.dataset, "codim": args.codim}, result, (
        f"nef cone in codimension {args.codim}: dual of the effective cone "
        f"in codimension {ds.dimension - args.codim}",
    )


def handle_cone_check(args: Args) -> Outcome:
    from .cones import resolve_dataset, spherical_nef_diagonal_check

    ds = resolve_dataset(args.dataset)
    verdict = spherical_nef_diagonal_check(ds)
    return ({"dataset": args.dataset}, {"variety": ds.variety, **verdict.to_payload()},
            (f"nef-diagonal pairing check for {ds.variety}",
             f"criterion: {verdict.reason.value}"))
