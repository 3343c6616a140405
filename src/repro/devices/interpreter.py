"""IEEE-754 IR interpreter — the simulated GPU execution engine.

Executes a (possibly compiler-transformed) kernel with:

* per-operation rounding in the campaign precision (NumPy scalar ops);
  **FP16 arithmetic follows the GPU ``__half`` promotion model**: each
  operand is rounded to binary16, the operation is computed in binary32
  (NumPy evaluates ``float16`` arithmetic in ``float32`` internally,
  matching how both real stacks promote ``__half``/``_Float16`` scalar
  math to their FP32 pipelines), and the result is rounded once back to
  binary16.  For ``+ - *`` the compute-in-fp32-round-to-fp16 result is
  identical to a correctly-rounded native half operation (22 significand
  bits fit binary32 exactly); for ``/`` and fused ops a double-rounding
  corner is possible, shared by both vendors;
* a vendor math library for every ``Call`` node;
* exact fused multiply-add for ``FMA`` nodes (rational-arithmetic
  reference, shared by both vendors — contraction *pattern* differences,
  not fma fidelity, are the modeled divergence source);
* flush-to-zero per :class:`repro.fp.env.FlushMode`;
* IEEE-754 exception tracking (Table II events);
* optional per-statement tracing used by the case-study isolation tooling
  (the in-model analogue of the paper's intermediate-value analysis).

The final ``printf("%.17g", comp)`` of a Varity kernel is modeled by
formatting the accumulator with ``%.17g``, which is exactly what the real
harness compares between platforms.

This module holds the model's types and :class:`Interpreter`, the
one-row entry point.  There is one evaluator: :meth:`Interpreter.run`
and :func:`repro.devices.batch.run_batch` both lower the kernel into
per-row closures (:func:`repro.devices.batch.lower`) and evaluate them.
The direct tree walk over the IR that the lowering was derived from
lives in ``tests/reference_interpreter.py`` as the bit-exactness oracle
the property tests compare against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ExecutionError
from repro.telemetry.spans import get_tracer
from repro.fp.classify import OutcomeClass
from repro.fp.env import FlushMode
from repro.devices.mathlib.base import MathLibrary
from repro.ir.program import Kernel

__all__ = [
    "ExecOptions",
    "TraceEntry",
    "ExecutionResult",
    "Interpreter",
    "fma_exact",
    "CostModel",
    "int_of_scalar",
]


@dataclass(frozen=True)
class CostModel:
    """Modeled per-operation issue cost, in abstract device cycles.

    The Table I reproduction needs a runtime measure that reflects what
    optimization levels actually change in the emitted code; wall-clock of
    a Python interpreter does not (an exact-rational FMA is *slower* to
    simulate than the mul+add it replaces).  Executions therefore also
    accumulate modeled cycles: fused ops cost less than the pair they
    replace, approximate intrinsics cost less than full-precision library
    calls, divisions are expensive — the standard GPU cost structure.
    Vendors may carry different tables (set on the Device).
    """

    add: int = 2
    mul: int = 2
    div: int = 14
    fma: int = 3
    compare: int = 1
    load_store: int = 2
    #: full-precision math library call (sin, cos, exp, ...)
    call: int = 28
    #: cheap library functions (fabs, fmin/fmax, ceil/floor/trunc)
    call_cheap: int = 3
    #: software remainder loop
    call_fmod: int = 44
    #: square root unit
    call_sqrt: int = 16
    #: fast-math approximate intrinsics (__cosf etc.)
    call_approx: int = 6
    #: __fdividef
    call_fdividef: int = 5

    _CHEAP = frozenset(
        {"fabs", "fmin", "fmax", "ceil", "floor", "trunc", "__demote_fp16"}
    )

    def call_cost(self, func: str, variant: str) -> int:
        if func == "__fdividef":
            return self.call_fdividef
        if variant == "approx":
            return self.call_approx
        if func in self._CHEAP:
            return self.call_cheap
        if func == "fmod":
            return self.call_fmod
        if func == "sqrt":
            return self.call_sqrt
        return self.call


@dataclass(frozen=True)
class ExecOptions:
    """Execution-environment knobs a compiled kernel carries."""

    flush: FlushMode = FlushMode.NONE
    trace: bool = False
    max_steps: int = 5_000_000
    min_array_size: int = 32
    #: infer the IEEE events of Table II; off, ``ExecutionResult.flags``
    #: is ``None`` and the run is otherwise identical
    events: bool = True


@dataclass(frozen=True)
class TraceEntry:
    """One traced store: which statement wrote which value where."""

    path: str  # statement path, e.g. "b2.f0[i=3].s1"
    target: str  # variable or array element written
    value: float

    def __str__(self) -> str:
        return f"{self.path}: {self.target} = {self.value!r}"


@dataclass
class ExecutionResult:
    """Outcome of running one kernel on one device."""

    value: float
    printed: str
    outcome: OutcomeClass
    #: count per IEEE event (:attr:`repro.fp.env.FPExceptionFlags.EVENTS`),
    #: or ``None`` when the run did not infer events (``ExecOptions.events``)
    flags: Optional[Dict[str, int]]
    steps: int
    trace: Tuple[TraceEntry, ...] = ()
    #: modeled device cycles (see CostModel)
    cost_cycles: int = 0


def fma_exact(a: float, b: float, c: float) -> float:
    """Correctly-rounded-to-binary64 fused multiply-add.

    Exceptional operands follow IEEE-754 fusedMultiplyAdd; finite operands
    use exact rational arithmetic, and ``float(Fraction)`` performs correct
    round-to-nearest-even (CPython's int/int true division is correctly
    rounded).
    """
    if math.isnan(a) or math.isnan(b) or math.isnan(c):
        return math.nan
    if math.isinf(a) or math.isinf(b):
        if a == 0.0 or b == 0.0:
            return math.nan  # inf * 0
        prod_sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        prod = math.inf * prod_sign
        if math.isinf(c) and math.copysign(1.0, c) != prod_sign:
            return math.nan  # inf - inf
        return prod
    if math.isinf(c):
        return c
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def int_of_scalar(name: str, value: float) -> int:
    """C's float-to-int conversion of scalar ``name`` in integer context
    (a loop bound or subscript); NaN and ±inf have no integer value."""
    if not math.isfinite(value):
        raise ExecutionError(
            f"{name!r} holds {float(value)!r}, which has no integer value"
        )
    return int(value)


#: Math-library results an interpreter keeps before its memo starts over.
CALL_MEMO_MAX = 8192


class Interpreter:
    """Executes kernels under one vendor math library."""

    def __init__(self, mathlib: MathLibrary, cost_model: Optional[CostModel] = None) -> None:
        self.mathlib = mathlib
        self.cost_model = cost_model or CostModel()
        #: Math-library and exact-FMA results keyed by operand bytes,
        #: shared by every row this interpreter runs
        #: (:mod:`repro.devices.batch`).
        self.call_memo: Dict[object, object] = {}

    def run(
        self,
        kernel: Kernel,
        inputs: Sequence[Union[float, int]],
        options: ExecOptions = ExecOptions(),
    ) -> ExecutionResult:
        """Run ``kernel`` with positional ``inputs`` (one per parameter).

        FLOAT parameters take a float; INT parameters an int; FLOAT_PTR
        parameters a float *fill value* — the harness models Varity's
        ``main()``, which allocates the array and initializes every element
        with the scalar input (§III-B).  The kernel is lowered
        (:func:`repro.devices.batch.lower`) and evaluated on this one row;
        a run past ``options.max_steps`` raises
        :class:`~repro.errors.TrapError`.
        """
        # Imported here: the lowering imports this module's types.
        from repro.devices.batch import check_arity, lower

        check_arity(kernel, inputs)
        tracer = get_tracer()
        t0 = time.perf_counter_ns() if tracer.enabled else 0
        evaluate = lower(
            kernel,
            options.flush,
            self.cost_model,
            trace=options.trace,
            events=options.events,
        )
        with np.errstate(all="ignore"):
            result = evaluate(inputs, self.mathlib, self.memo(), options)
        if tracer.enabled:
            tracer.record(
                "device.eval",
                t0,
                time.perf_counter_ns(),
                mathlib=self.mathlib.name,
                fptype=kernel.fptype.name.lower(),
            )
        return result

    def memo(self) -> Dict[object, object]:
        """:attr:`call_memo`, emptied first once it holds more than
        :data:`CALL_MEMO_MAX` entries: the memo lives as long as its
        thread's runner (:meth:`repro.exec.units.RunnerSpec.build`),
        across chunks and sessions, so the bound keeps memory flat."""
        if len(self.call_memo) > CALL_MEMO_MAX:
            self.call_memo.clear()
        return self.call_memo


def format_printf_g17(value: float) -> str:
    """Model of ``printf("%.17g\\n", comp)`` (without the newline).

    Python's ``%.17g`` matches C for finite doubles; C prints
    ``nan``/``-nan``/``inf``/``-inf``, which Python spells differently, so
    those are fixed up explicitly.
    """
    v = float(value)
    if math.isnan(v):
        return "-nan" if math.copysign(1.0, v) < 0 else "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return "%.17g" % v
