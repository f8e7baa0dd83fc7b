"""nefkit: exact-arithmetic toolkit for diagonal-positivity questions.

Three layers:

* Euler characteristics / Chern degrees of complete intersections and
  weighted hypersurfaces, in exact arithmetic (chern and exactnum; chern's
  series route is the one through Fractions).
* Classification verdicts for nef-ness of the diagonal class, with
  machine-checkable witnesses (diagonal), the spherical pairing check of a
  dataset included.
* Nef / pseudoeffective cycle cones from pairing datasets of effective
  classes via exact dual-cone computation (cones).

The package root re-exports the names the README shows; everything else is
imported from its module, each of which lists its public names in __all__.
`import nefkit` loads none of the layers: a re-exported name imports its
module on first use (PEP 562), so `nefkit.CIType` loads exactnum and chern,
`nefkit.verdict_ci` also diagonal, and `nefkit.delpezzo5_cones` exactnum and
cones alone.
The command line front end lives in nefkit.cli.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# re-exported name -> the module that defines it
_HOMES = {
    "CIType": "chern",
    "euler_ci_formula": "chern",
    "betti_ci": "chern",
    "verdict_ci": "diagonal",
    "delpezzo5_cones": "cones",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str) -> object:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
