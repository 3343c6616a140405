"""Discrepancy taxonomy and pair comparison (§IV-B).

Seven discrepancy classes over the four outcome classes; sign-only
differences (``-NaN`` vs ``+NaN``, ``±Inf``, ``±0``) are excluded, and a
Num/Num pair is a discrepancy only when the printed values differ.

A pair is *stack-neutral*: the two sides are the left/right stacks of
whatever pair the harness is sweeping (nvcc×hipcc, nvcc×cpu, hipcc×cpu,
…).  Checkpoint payloads for the default (nvcc, hipcc) pair keep the
pre-registry ``nvcc``/``hipcc`` JSON keys, so they serialize
byte-identically to that layout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.fp.classify import OutcomeClass, classify_value, outcomes_equivalent
from repro.harness.outcomes import RunRecord
from repro.stacks import DEFAULT_STACK_PAIR

__all__ = [
    "DiscrepancyClass",
    "Discrepancy",
    "classify_pair",
    "DISCREPANCY_CLASS_ORDER",
]


class DiscrepancyClass(enum.Enum):
    """The seven classes, labeled as the paper's table columns."""

    NAN_INF = "NaN, Inf"
    NAN_ZERO = "NaN, Zero"
    NAN_NUM = "NaN, Num"
    INF_ZERO = "Inf, Zero"
    INF_NUM = "Inf, Num"
    NUM_ZERO = "Num, Zero"
    NUM_NUM = "Num, Num"

    def __str__(self) -> str:
        return self.value


#: Column order of Tables V / VII / IX.
DISCREPANCY_CLASS_ORDER: Tuple[DiscrepancyClass, ...] = (
    DiscrepancyClass.NAN_INF,
    DiscrepancyClass.NAN_ZERO,
    DiscrepancyClass.NAN_NUM,
    DiscrepancyClass.INF_ZERO,
    DiscrepancyClass.INF_NUM,
    DiscrepancyClass.NUM_ZERO,
    DiscrepancyClass.NUM_NUM,
)

_PAIR_TO_CLASS: Dict[FrozenSet[OutcomeClass], DiscrepancyClass] = {
    frozenset({OutcomeClass.NAN, OutcomeClass.INF}): DiscrepancyClass.NAN_INF,
    frozenset({OutcomeClass.NAN, OutcomeClass.ZERO}): DiscrepancyClass.NAN_ZERO,
    frozenset({OutcomeClass.NAN, OutcomeClass.NUMBER}): DiscrepancyClass.NAN_NUM,
    frozenset({OutcomeClass.INF, OutcomeClass.ZERO}): DiscrepancyClass.INF_ZERO,
    frozenset({OutcomeClass.INF, OutcomeClass.NUMBER}): DiscrepancyClass.INF_NUM,
    frozenset({OutcomeClass.NUMBER, OutcomeClass.ZERO}): DiscrepancyClass.NUM_ZERO,
    frozenset({OutcomeClass.NUMBER}): DiscrepancyClass.NUM_NUM,
}


def classify_pair(lhs_value: float, rhs_value: float) -> Optional[DiscrepancyClass]:
    """Discrepancy class of a result pair, or None when equivalent.

    The sides are positionally the pair's left and right stacks.
    """
    if outcomes_equivalent(lhs_value, rhs_value):
        return None
    a = classify_value(lhs_value)
    b = classify_value(rhs_value)
    return _PAIR_TO_CLASS[frozenset({a, b})]


@dataclass(frozen=True)
class Discrepancy:
    """One confirmed numerical inconsistency between two stacks.

    Keeps both directional outcomes (needed by the adjacency matrices,
    whose cells count row/column orderings separately).  ``stacks``
    names the (lhs, rhs) pair; it defaults to the paper's (nvcc, hipcc).
    """

    test_id: str
    input_index: int
    opt_label: str
    dclass: DiscrepancyClass
    lhs_printed: str
    rhs_printed: str
    lhs_outcome: OutcomeClass
    rhs_outcome: OutcomeClass
    stacks: Tuple[str, str] = DEFAULT_STACK_PAIR

    @classmethod
    def from_records(
        cls,
        lhs: RunRecord,
        rhs: RunRecord,
        stacks: Tuple[str, str] = DEFAULT_STACK_PAIR,
    ) -> Optional["Discrepancy"]:
        if (lhs.test_id, lhs.input_index, lhs.opt_label) != (
            rhs.test_id,
            rhs.input_index,
            rhs.opt_label,
        ):
            raise ValueError("mismatched run records")
        dclass = classify_pair(lhs.value, rhs.value)
        if dclass is None:
            return None
        return cls(
            test_id=lhs.test_id,
            input_index=lhs.input_index,
            opt_label=lhs.opt_label,
            dclass=dclass,
            lhs_printed=lhs.printed,
            rhs_printed=rhs.printed,
            lhs_outcome=lhs.outcome,
            rhs_outcome=rhs.outcome,
            stacks=stacks,
        )

    def to_json_dict(self) -> Dict[str, object]:
        """Serialize; the default (nvcc, hipcc) pair keeps the exact
        pre-registry keys so old checkpoints stay byte-comparable."""
        if self.stacks == DEFAULT_STACK_PAIR:
            return {
                "test_id": self.test_id,
                "input_index": self.input_index,
                "opt": self.opt_label,
                "class": self.dclass.value,
                "nvcc": self.lhs_printed,
                "hipcc": self.rhs_printed,
                "nvcc_outcome": self.lhs_outcome.value,
                "hipcc_outcome": self.rhs_outcome.value,
            }
        return {
            "test_id": self.test_id,
            "input_index": self.input_index,
            "opt": self.opt_label,
            "class": self.dclass.value,
            "stacks": list(self.stacks),
            "lhs": self.lhs_printed,
            "rhs": self.rhs_printed,
            "lhs_outcome": self.lhs_outcome.value,
            "rhs_outcome": self.rhs_outcome.value,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "Discrepancy":
        """Inverse of :meth:`to_json_dict` (campaign checkpoint files).

        Accepts the stack-neutral layout (``stacks``/``lhs``/``rhs``),
        the pre-registry two-stack keys, and — older still — payloads
        without explicit outcome keys, which are reclassified from the
        printed values (those round-trip exactly).
        """
        if "stacks" in data:
            stacks_raw = data["stacks"]
            stacks = (str(stacks_raw[0]), str(stacks_raw[1]))  # type: ignore[index]
            lhs_printed = str(data["lhs"])
            rhs_printed = str(data["rhs"])
            lhs_out = OutcomeClass.from_string(str(data["lhs_outcome"]))
            rhs_out = OutcomeClass.from_string(str(data["rhs_outcome"]))
        else:
            stacks = DEFAULT_STACK_PAIR
            lhs_printed = str(data["nvcc"])
            rhs_printed = str(data["hipcc"])
            if "nvcc_outcome" in data:
                lhs_out = OutcomeClass.from_string(str(data["nvcc_outcome"]))
                rhs_out = OutcomeClass.from_string(str(data["hipcc_outcome"]))
            else:
                lhs_out = classify_value(float(lhs_printed))
                rhs_out = classify_value(float(rhs_printed))
        return cls(
            test_id=str(data["test_id"]),
            input_index=int(data["input_index"]),  # type: ignore[arg-type]
            opt_label=str(data["opt"]),
            dclass=DiscrepancyClass(str(data["class"])),
            lhs_printed=lhs_printed,
            rhs_printed=rhs_printed,
            lhs_outcome=lhs_out,
            rhs_outcome=rhs_out,
            stacks=stacks,
        )

