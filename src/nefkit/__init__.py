"""nefkit: exact-arithmetic toolkit for diagonal-positivity questions.

Three layers:

* Euler characteristics / Chern degrees of complete intersections and
  weighted hypersurfaces, all in exact integer arithmetic (chern, exactnum).
* Classification verdicts for nef-ness of the diagonal class, with
  machine-checkable witnesses (diagonal).
* Nef / pseudoeffective cycle cones from Schubert pairing datasets via exact
  dual-cone computation (cones).

The package root re-exports the names the README shows; everything else is
imported from its module, each of which lists its public names in __all__.
The command line front end lives in nefkit.cli.
"""

from __future__ import annotations

from .chern import CIType, betti_ci, euler_ci_formula
from .cones import delpezzo5_cones
from .diagonal import verdict_ci

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CIType",
    "euler_ci_formula",
    "betti_ci",
    "verdict_ci",
    "delpezzo5_cones",
]
