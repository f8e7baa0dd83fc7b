"""Three-valued nef-diagonal verdicts and the steps that build them.

A verdict says the diagonal class of a variety is certified not nef (with a
numeric or named witness), certified nef (with a structural reason), or that
the question is open. Each reason certifies exactly one status, named once in
_STATUS_OF, so a Verdict takes its status from its reason and a _Step names
only its reason. Every verdict is a _Step, and _verdict alone builds Verdicts
from steps and the numbers their callers pass: the complete intersection
chain and the scans in diagonal, the del Pezzo rows in delpezzo, and the
pairing steps in cones. This module imports no other layer than exactnum, so
a verdict that needs no Euler characteristic loads neither chern nor diagonal.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple

from .exactnum import _Frozen

__all__ = ["Status", "Reason", "Verdict"]


class Status(str, Enum):
    NOT_NEF = "NotNef"
    NEF = "Nef"
    OPEN = "Open"


class Reason(str, Enum):
    NEGATIVE_SELF_INTERSECTION = "NegativeSelfIntersection"
    PROJECTION_BOUND = "ProjectionBound"
    NEGATIVE_EFFECTIVE_PAIR = "NegativeEffectivePair"
    BIRATIONAL_CONTRACTION = "BirationalContraction"
    HOMOGENEOUS = "Homogeneous"
    FAKE_PROJECTIVE_SPACE = "FakeProjectiveSpace"
    GROUP_VARIETY = "GroupVariety"
    OPEN_QUESTION = "OpenQuestion"
    K3_SURFACE = "K3Surface"
    NON_NEGATIVE_PAIRINGS = "NonNegativePairings"


# The one status each reason certifies, which every Verdict of the reason takes.
_STATUS_OF = {
    Reason.NEGATIVE_SELF_INTERSECTION: Status.NOT_NEF,
    Reason.PROJECTION_BOUND: Status.NOT_NEF,
    Reason.NEGATIVE_EFFECTIVE_PAIR: Status.NOT_NEF,
    Reason.BIRATIONAL_CONTRACTION: Status.NOT_NEF,
    Reason.K3_SURFACE: Status.NOT_NEF,
    Reason.HOMOGENEOUS: Status.NEF,
    Reason.FAKE_PROJECTIVE_SPACE: Status.NEF,
    Reason.GROUP_VARIETY: Status.NEF,
    Reason.NON_NEGATIVE_PAIRINGS: Status.NEF,
    Reason.OPEN_QUESTION: Status.OPEN,
}


class Verdict(_Frozen):
    """Outcome of a nef-diagonal test.

    Every NotNef verdict carries a witness a referee can re-check: a negative
    intersection number, a violated numeric bound, or a named table entry.
    Nef and Open verdicts carry the structural reason or the open reference.
    The status is the one that the reason certifies (_STATUS_OF).
    """

    _fields = ("status", "reason", "detail", "witness")

    def __init__(self, reason: Reason, detail: str,
                 witness: Mapping[str, object] | None = None) -> None:
        w = {} if witness is None else witness
        if not isinstance(reason, Reason):
            raise ValueError(f"unknown reason {reason!r}")
        error = _chi_witness_error(reason, w.get("chi"), w.get("bound"))
        if error:
            raise ValueError(error)
        if reason is Reason.NEGATIVE_EFFECTIVE_PAIR:
            classes = w.get("classes")
            if not (isinstance(classes, (list, tuple)) and len(classes) == 2
                    and all(isinstance(label, str) for label in classes)):
                raise ValueError("NegativeEffectivePair needs a pair of class names")
            if type(w.get("value")) is not int or w["value"] >= 0:
                raise ValueError("NegativeEffectivePair needs witness value < 0")
        elif reason is Reason.K3_SURFACE:
            if not w.get("table_entry"):
                raise ValueError("K3Surface verdicts must name their table entry")
        elif reason is Reason.BIRATIONAL_CONTRACTION:
            if not w.get("contraction"):
                raise ValueError("BirationalContraction must name the contraction")
        elif reason is Reason.OPEN_QUESTION:
            if not w.get("reference"):
                raise ValueError("Open verdicts must carry a reference id")
        self._store(_STATUS_OF[reason], reason, detail, w)

    def to_payload(self) -> dict:
        return {
            "status": self.status.value,
            "reason": self.reason.value,
            "detail": self.detail,
            "witness": dict(self.witness),
        }


def _chi_witness_error(reason: Reason, chi: object, bound: object) -> str | None:
    """Why chi and bound cannot witness a verdict with this reason, or None:
    the chi witness laws that Verdict enforces and scan_ci checks per case."""
    if reason is Reason.NEGATIVE_SELF_INTERSECTION:
        if type(chi) is not int or chi >= 0:
            return "NegativeSelfIntersection needs witness chi < 0"
    elif reason is Reason.PROJECTION_BOUND:
        if not (type(chi) is int and type(bound) is int):
            return "ProjectionBound needs integer chi and bound"
        if chi <= bound:
            return "ProjectionBound witness must have chi > bound"
    return None


def _number(x: int) -> str:
    """x for detail text: in decimal up to 14,000 bits (4,215 digits, under
    Python's default int-to-str limit of 4,300) unless a lowered limit refuses
    it, else by sign and bit length."""
    if x.bit_length() <= 14_000:
        try:
            return str(x)
        except ValueError:  # past sys.get_int_max_str_digits()
            pass
    return f"({'negative' if x < 0 else 'positive'} integer of {x.bit_length()} bits)"


class _Step(NamedTuple):
    """A verdict a module issues, named after its criterion. A fixed step
    holds the verdict's detail and witness; a step that reads numbers names
    them, as its witness keys, and its detail is a template over them."""

    name: str
    reason: Reason
    detail: str = ""
    witness: Mapping[str, object] = {}
    numbers: tuple[str, ...] = ()


def _verdict(step: _Step, **values: object) -> Verdict:
    """The Verdict of a step: its fixed witness, with lists copied so no
    caller can edit the table, plus the values it names in numbers; its
    detail is its template over the values, every int through _number."""
    witness = {key: list(value) if isinstance(value, list) else value
               for key, value in step.witness.items()}
    witness.update((key, values[key]) for key in step.numbers)
    detail = step.detail.format_map({key: _number(value) if isinstance(value, int) else value
                                     for key, value in values.items()})
    return Verdict(step.reason, detail, witness)
