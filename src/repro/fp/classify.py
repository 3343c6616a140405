"""Outcome classification — the paper's NaN / Inf / Zero / Number taxonomy.

§IV-B: "We identified four possible outcomes from any test: NaN, Inf, Zero,
and Number", where *Number* means a non-zero finite real value.  Sign-only
differences (``-NaN`` vs ``+NaN``, ``-Inf`` vs ``+Inf``, ``-0.0`` vs
``+0.0``) are explicitly *not* discrepancies.

Subnormals classify as Number for the discrepancy taxonomy, but the harness
also records subnormality separately because §II-B singles them out as
dangerous quantities worth tracking.
"""

from __future__ import annotations

import enum
import math
from typing import Union

import numpy as np

from repro.fp.types import FPType
from repro.fp.bits import is_negative

__all__ = [
    "OutcomeClass",
    "classify_value",
    "is_subnormal",
    "outcomes_equivalent",
    "SignedOutcome",
]


class OutcomeClass(enum.Enum):
    """The four outcome classes of §IV-B, in the paper's order."""

    NAN = "NaN"
    INF = "Inf"
    ZERO = "Zero"
    NUMBER = "Num"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_string(cls, label: str) -> "OutcomeClass":
        table = {
            "nan": cls.NAN,
            "inf": cls.INF,
            "zero": cls.ZERO,
            "num": cls.NUMBER,
            "number": cls.NUMBER,
        }
        try:
            return table[label.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown outcome class {label!r}") from None


#: Canonical ordering used by the adjacency matrices (Tables VI/VIII/X).
OUTCOME_ORDER = (
    OutcomeClass.NAN,
    OutcomeClass.INF,
    OutcomeClass.ZERO,
    OutcomeClass.NUMBER,
)


def classify_value(value: Union[float, np.floating]) -> OutcomeClass:
    """Classify one printed kernel result.

    Zero means exactly ``±0.0``; everything else finite and non-zero is
    Number (including subnormals).
    """
    v = float(value)
    if math.isnan(v):
        return OutcomeClass.NAN
    if math.isinf(v):
        return OutcomeClass.INF
    if v == 0.0:
        return OutcomeClass.ZERO
    return OutcomeClass.NUMBER


def is_subnormal(value: Union[float, np.floating], fptype: FPType = FPType.FP64) -> bool:
    """True when ``value`` is non-zero with magnitude below the smallest normal."""
    v = float(value)
    if math.isnan(v) or math.isinf(v) or v == 0.0:
        return False
    return abs(v) < fptype.smallest_normal


class SignedOutcome:
    """An outcome class plus the sign bit, for the exclusion rule.

    The paper excludes ``-NaN vs +NaN``, ``-Inf vs +Inf`` and
    ``-Zero vs +Zero`` from the discrepancy counts (they "do not represent
    true numerical differences") — but *keeps* sign information for
    Inf-vs-Inf pairs with differing magnitudes?  No: Inf has one magnitude,
    so any Inf/Inf pair is equivalent.  Number-vs-Number pairs compare by
    value, not class.
    """

    __slots__ = ("outcome", "negative", "value")

    def __init__(self, value: Union[float, np.floating]) -> None:
        self.value = float(value)
        self.outcome = classify_value(self.value)
        self.negative = is_negative(self.value)

    def __repr__(self) -> str:
        sign = "-" if self.negative else "+"
        return f"SignedOutcome({sign}{self.outcome.value}, value={self.value!r})"


def outcomes_equivalent(a: Union[float, np.floating], b: Union[float, np.floating]) -> bool:
    """True when a result pair is NOT a discrepancy under the paper's rules.

    * different outcome classes → discrepancy;
    * same class NaN / Inf / Zero → equivalent regardless of sign;
    * both Number → equivalent iff bit-identical values (the paper prints
      with ``%.17g`` and compares strings; 17 significant digits round-trips
      binary64, so string equality equals value equality for doubles).
    """
    ca, cb = classify_value(a), classify_value(b)
    if ca is not cb:
        return False
    if ca is OutcomeClass.NUMBER:
        return float(a) == float(b)
    return True
