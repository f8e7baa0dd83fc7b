"""Handlers and text renderers of the euler, chern and betti subcommands.

nefkit.cli imports this module only to run one of them. Each handler maps
parsed args to (inputs, result payload, notes) and imports the library calls
it makes when it runs, so a test substitutes a call on the module that
defines it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from .cli import _ci_from_args, _ci_inputs

if TYPE_CHECKING:
    from .cli import Args, Outcome


def value_lines(result: object) -> list[str]:
    return [str(result)]


def sequence_lines(result: Sequence[int]) -> list[str]:
    return [" ".join(str(c) for c in result)]


def betti_lines(result: Mapping) -> list[str]:
    return [
        "betti: " + " ".join(str(b) for b in result["betti"]),
        f"middle: {result['middle']}",
        f"euler: {result['euler']}",
        "poincare: " + " ".join(str(c) for c in result["poincare"]),
    ]


def handle_euler_ci(args: Args) -> Outcome:
    from .chern import euler_ci_formula

    ci = _ci_from_args(args)
    return (_ci_inputs(ci), euler_ci_formula(ci),
            (f"Euler characteristic of the complete intersection {ci}",))


def handle_euler_weighted(args: Args) -> Outcome:
    from .chern import WeightedHypersurface, euler_weighted

    surface = WeightedHypersurface(args.weights, args.degree)
    ambient = "P(" + ",".join(str(w) for w in surface.weights) + ")"
    return (
        {"weights": list(surface.weights), "degree": surface.degree},
        euler_weighted(surface),
        (f"Euler characteristic of a degree-{surface.degree} hypersurface in {ambient}",),
    )


def handle_chern_ci(args: Args) -> Outcome:
    from .chern import chern_degrees_ci

    ci = _ci_from_args(args)
    return (_ci_inputs(ci), chern_degrees_ci(ci),
            (f"degrees of the Chern classes c_0..c_{ci.dimension} of {ci}",))


def handle_betti_ci(args: Args) -> Outcome:
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
