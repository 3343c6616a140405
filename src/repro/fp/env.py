"""IEEE-754 exception tracking and subnormal flushing.

Table II of the paper lists the five IEEE-754 exception events (Inexact,
Underflow, Overflow, DivideByZero, Invalid).  NVIDIA GPUs expose no status
register for them (§II-B); our interpreter *does* track them, which is what
lets the analysis layer explain where exceptional quantities came from.

:class:`FlushMode` models the flush-to-zero behaviour GPUs apply to
subnormals: real nvcc enables FTZ for FP32 under ``--use_fast_math`` (it
flushes both inputs and outputs of arithmetic), while the AMD stack flushes
outputs only in the mode we model.  The asymmetry is one of the paper's
divergence sources for FP32 fast-math (Table IX's Num/Zero class).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

from repro.fp.types import FPType
from repro.fp.classify import is_subnormal

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FPExceptionFlags",
    "FlushMode",
    "FPEnv",
    "flag_for_result",
    "flag_for_division",
]


class FlushMode(enum.Enum):
    """Subnormal handling of the execution environment."""

    NONE = "none"  # full IEEE subnormal support
    FLUSH_OUTPUTS = "flush-outputs"  # subnormal results become ±0
    FLUSH_INPUTS_OUTPUTS = "flush-inputs-outputs"  # operands too

    @property
    def flushes_inputs(self) -> bool:
        return self is FlushMode.FLUSH_INPUTS_OUTPUTS

    @property
    def flushes_outputs(self) -> bool:
        return self is not FlushMode.NONE


@dataclass
class FPExceptionFlags:
    """Sticky accumulation of the five IEEE-754 exception events (Table II)."""

    inexact: int = 0
    underflow: int = 0
    overflow: int = 0
    divide_by_zero: int = 0
    invalid: int = 0

    EVENTS = ("inexact", "underflow", "overflow", "divide_by_zero", "invalid")

    def raise_event(self, name: str) -> None:
        if name not in self.EVENTS:
            raise ValueError(f"unknown IEEE-754 event {name!r}")
        setattr(self, name, getattr(self, name) + 1)

    def merge(self, other: "FPExceptionFlags") -> None:
        for name in self.EVENTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def any_raised(self) -> bool:
        # Inexact fires constantly in numerical code and the paper treats it
        # as uninteresting (§II-B1), so it does not count here.
        return bool(self.underflow or self.overflow or self.divide_by_zero or self.invalid)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.EVENTS}

    def reset(self) -> None:
        for name in self.EVENTS:
            setattr(self, name, 0)


_INF = float("inf")


def flag_for_result(
    r: float, ops: Sequence[Union[float, np.floating]], sn: float
) -> Optional[str]:
    """The IEEE event an operation's result implies, or ``None``.

    Without hardware status registers we infer events from values, the
    same way GPU-FPX-style tools do on NVIDIA hardware (``sn`` is the
    precision's smallest normal):

    * result NaN with no NaN operand → Invalid;
    * result Inf with finite operands → DivideByZero if an operand is
      zero, else Overflow;
    * non-zero result below the normal range → Underflow (to subnormal).

    This is the only statement of the rule: :class:`FPEnv` and the
    evaluator (:mod:`repro.devices.batch`) both call it, the evaluator
    with its operands as NumPy scalars of the kernel dtype under
    ``np.errstate(all="ignore")`` (``inf - inf`` warns otherwise).
    """
    if r != r:
        for o in ops:
            if o != o:
                return None
        return "invalid"
    if r == _INF or r == -_INF:
        for o in ops:
            if o - o != 0.0:  # NaN or Inf operand
                return None
        for o in ops:
            if o == 0.0:
                return "divide_by_zero"
        return "overflow"
    if r != 0.0 and -sn < r < sn:
        return "underflow"
    return None


def flag_for_division(
    r: float, ops: Sequence[Union[float, np.floating]], sn: float
) -> Optional[str]:
    """Division's own rule over ``ops = (numerator, denominator)``.

    x/0 with x neither zero nor NaN (±inf included) is DivideByZero;
    otherwise Invalid, Overflow and Underflow follow
    :func:`flag_for_result`.
    """
    num, den = ops
    if den == 0.0 and num != 0.0 and num == num:
        return "divide_by_zero"
    if r != r:
        if num == num and den == den:
            return "invalid"
        return None
    if (r == _INF or r == -_INF) and num - num == 0.0 and den - den == 0.0:
        return "overflow"
    if r != 0.0 and -sn < r < sn:
        return "underflow"
    return None


@dataclass
class FPEnv:
    """Floating-point environment a kernel executes under.

    Combines the precision, the flush mode, and the sticky exception flags.
    The reference tree walk (``tests/reference_interpreter.py``) calls
    :meth:`observe_result` / :meth:`observe_division` after every
    operation so the flags describe the whole run.
    """

    fptype: FPType = FPType.FP64
    flush: FlushMode = FlushMode.NONE
    flags: FPExceptionFlags = field(default_factory=FPExceptionFlags)

    # -- subnormal flushing -------------------------------------------------
    def flush_input(self, value):
        """Apply input flushing (operand side) if enabled."""
        if self.flush.flushes_inputs and is_subnormal(value, self.fptype):
            return self.fptype.dtype.type(math.copysign(0.0, float(value)))
        return value

    def flush_output(self, value):
        """Apply output flushing (result side) if enabled."""
        if self.flush.flushes_outputs and is_subnormal(value, self.fptype):
            self.flags.raise_event("underflow")
            return self.fptype.dtype.type(math.copysign(0.0, float(value)))
        return value

    # -- exception observation ----------------------------------------------
    def observe_result(self, result, *operands) -> None:
        """Record the IEEE event :func:`flag_for_result` infers, if any."""
        self._observe(flag_for_result, result, operands)

    def observe_division(self, result, numerator, denominator) -> None:
        """Record the IEEE event :func:`flag_for_division` infers, if any."""
        self._observe(flag_for_division, result, (numerator, denominator))

    def _observe(self, rule, result, operands) -> None:
        flag = rule(
            float(result), [float(o) for o in operands], self.fptype.smallest_normal
        )
        if flag is not None:
            self.flags.raise_event(flag)

    def cast(self, value):
        """Round a Python/NumPy value into this environment's precision."""
        return self.fptype.dtype.type(value)

    def snapshot(self) -> Dict[str, int]:
        return self.flags.as_dict()
