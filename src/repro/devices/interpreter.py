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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ExecutionError, TrapError
from repro.telemetry.spans import get_tracer
from repro.fp.classify import OutcomeClass, classify_value
from repro.fp.env import FlushMode, FPEnv
from repro.fp.types import FPType
from repro.devices.mathlib.base import MathLibrary
from repro.ir.nodes import (
    ArrayRef,
    Assign,
    AugAssign,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Const,
    Decl,
    Expr,
    FMA,
    For,
    If,
    IntConst,
    Stmt,
    UnOp,
    VarRef,
)
from repro.ir.program import Kernel
from repro.ir.types import IRType

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
    flags: Dict[str, int]
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


class _Frame:
    """Mutable execution state: scalar bindings, arrays, loop counters."""

    __slots__ = ("scalars", "ints", "arrays")

    def __init__(self) -> None:
        self.scalars: Dict[str, float] = {}
        self.ints: Dict[str, int] = {}
        self.arrays: Dict[str, np.ndarray] = {}


class Interpreter:
    """Executes kernels under one vendor math library."""

    def __init__(self, mathlib: MathLibrary, cost_model: Optional[CostModel] = None) -> None:
        self.mathlib = mathlib
        self.cost_model = cost_model or CostModel()
        #: Math-library and exact-FMA results keyed by operand bytes,
        #: shared by every batch this interpreter runs
        #: (:mod:`repro.devices.batch`).
        self.call_memo: Dict[object, float] = {}

    # ------------------------------------------------------------------ run
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
        with the scalar input (§III-B).
        """
        if len(inputs) != len(kernel.params):
            raise ExecutionError(
                f"kernel {kernel.name!r} takes {len(kernel.params)} inputs, "
                f"got {len(inputs)}"
            )
        tracer = get_tracer()
        t0 = time.perf_counter_ns() if tracer.enabled else 0
        env = FPEnv(fptype=kernel.fptype, flush=options.flush)
        dtype = kernel.fptype.dtype
        frame = _Frame()

        # Array extent: large enough for every loop bound in the input.
        int_values = [int(v) for v, p in zip(inputs, kernel.params) if p.type is IRType.INT]
        array_size = max([options.min_array_size] + [v + 1 for v in int_values if v >= 0])

        for value, param in zip(inputs, kernel.params):
            if param.type is IRType.FLOAT:
                frame.scalars[param.name] = float(dtype.type(value))
            elif param.type is IRType.INT:
                frame.ints[param.name] = int(value)
            else:
                fill = dtype.type(value)
                frame.arrays[param.name] = np.full(array_size, fill, dtype=dtype)

        state = _RunState(options)
        trace: List[TraceEntry] = []
        with np.errstate(all="ignore"):
            for i, stmt in enumerate(kernel.body):
                self._exec_stmt(stmt, frame, env, state, trace, f"s{i}")

        comp = frame.scalars.get("comp")
        if comp is None:
            raise ExecutionError("kernel has no 'comp' accumulator")
        if tracer.enabled:
            tracer.record(
                "device.eval",
                t0,
                time.perf_counter_ns(),
                mathlib=self.mathlib.name,
                fptype=kernel.fptype.name.lower(),
            )
        printed = format_printf_g17(comp)
        return ExecutionResult(
            value=float(comp),
            printed=printed,
            outcome=classify_value(comp),
            flags=env.snapshot(),
            steps=state.steps,
            trace=tuple(trace),
            cost_cycles=state.cost,
        )

    # ---------------------------------------------------------------- stmts
    def _exec_stmt(
        self,
        stmt: Stmt,
        frame: _Frame,
        env: FPEnv,
        state: "_RunState",
        trace: List[TraceEntry],
        path: str,
    ) -> None:
        state.tick()
        if isinstance(stmt, Decl):
            value = self._eval(stmt.init, frame, env, state)
            frame.scalars[stmt.name] = value
            if state.options.trace:
                trace.append(TraceEntry(path, stmt.name, value))
        elif isinstance(stmt, Assign):
            value = self._eval(stmt.expr, frame, env, state)
            label = self._store(stmt.target, value, frame, env, state)
            if state.options.trace:
                trace.append(TraceEntry(path, label, value))
        elif isinstance(stmt, AugAssign):
            rhs = self._eval(stmt.expr, frame, env, state)
            current = self._load_target(stmt.target, frame, env, state)
            value = self._binop(stmt.op, current, rhs, env, state)
            label = self._store(stmt.target, value, frame, env, state)
            if state.options.trace:
                trace.append(TraceEntry(path, label, value))
        elif isinstance(stmt, For):
            bound = self._eval_int(stmt.bound, frame, state)
            for i in range(bound):
                frame.ints[stmt.var] = i
                for j, inner in enumerate(stmt.body):
                    self._exec_stmt(
                        inner, frame, env, state, trace, f"{path}.f[{stmt.var}={i}].s{j}"
                    )
            frame.ints.pop(stmt.var, None)
        elif isinstance(stmt, If):
            if self._eval_bool(stmt.cond, frame, env, state):
                for j, inner in enumerate(stmt.body):
                    self._exec_stmt(inner, frame, env, state, trace, f"{path}.t.s{j}")
        else:
            raise ExecutionError(f"cannot execute {type(stmt).__name__}")

    def _store(
        self,
        target: Union[VarRef, ArrayRef],
        value: float,
        frame: _Frame,
        env: FPEnv,
        state: "_RunState",
    ) -> str:
        if isinstance(target, VarRef):
            if target.name not in frame.scalars:
                raise ExecutionError(f"store to unknown scalar {target.name!r}")
            frame.scalars[target.name] = value
            return target.name
        index = self._eval_int(target.index, frame, state)
        arr = frame.arrays.get(target.name)
        if arr is None:
            raise ExecutionError(f"store to unknown array {target.name!r}")
        state.charge(self.cost_model.load_store)
        idx = index % arr.shape[0]  # modeled allocation is always big enough
        arr[idx] = env.cast(value)
        return f"{target.name}[{idx}]"

    def _load_target(
        self,
        target: Union[VarRef, ArrayRef],
        frame: _Frame,
        env: FPEnv,
        state: "_RunState",
    ) -> float:
        if isinstance(target, VarRef):
            try:
                return frame.scalars[target.name]
            except KeyError:
                raise ExecutionError(f"read of unknown scalar {target.name!r}") from None
        index = self._eval_int(target.index, frame, state)
        arr = frame.arrays.get(target.name)
        if arr is None:
            raise ExecutionError(f"read of unknown array {target.name!r}")
        state.charge(self.cost_model.load_store)
        return float(arr[index % arr.shape[0]])

    # ---------------------------------------------------------------- exprs
    def _eval(self, expr: Expr, frame: _Frame, env: FPEnv, state: "_RunState") -> float:
        state.tick()
        if isinstance(expr, Const):
            return float(env.cast(expr.value))
        if isinstance(expr, IntConst):
            return float(expr.value)
        if isinstance(expr, VarRef):
            if expr.name in frame.scalars:
                return frame.scalars[expr.name]
            if expr.name in frame.ints:
                # int used in arithmetic context: converted like C would.
                return float(frame.ints[expr.name])
            raise ExecutionError(f"unknown name {expr.name!r}")
        if isinstance(expr, ArrayRef):
            return self._load_target(expr, frame, env, state)
        if isinstance(expr, UnOp):
            value = self._eval(expr.operand, frame, env, state)
            return float(-env.cast(value)) if expr.op == "-" else value
        if isinstance(expr, BinOp):
            left = self._eval(expr.left, frame, env, state)
            right = self._eval(expr.right, frame, env, state)
            return self._binop(expr.op, left, right, env, state)
        if isinstance(expr, FMA):
            return self._fma(expr, frame, env, state)
        if isinstance(expr, Call):
            args = [
                float(env.flush_input(env.cast(self._eval(a, frame, env, state))))
                for a in expr.args
            ]
            state.charge(self.cost_model.call_cost(expr.func, expr.variant))
            result = self.mathlib.call(expr.func, args, env.fptype, expr.variant)
            result = float(env.cast(result))
            env.observe_result(result, *args)
            return float(env.flush_output(env.cast(result)))
        if isinstance(expr, (Compare, BoolOp)):
            return 1.0 if self._eval_bool(expr, frame, env, state) else 0.0
        raise ExecutionError(f"cannot evaluate {type(expr).__name__}")

    def _binop(self, op: str, left: float, right: float, env: FPEnv, state: "_RunState") -> float:
        l = env.flush_input(env.cast(left))
        r = env.flush_input(env.cast(right))
        if op == "+":
            state.charge(self.cost_model.add)
            raw = l + r
        elif op == "-":
            state.charge(self.cost_model.add)
            raw = l - r
        elif op == "*":
            state.charge(self.cost_model.mul)
            raw = l * r
        elif op == "/":
            state.charge(self.cost_model.div)
            raw = l / r
            env.observe_division(raw, l, r)
            return float(env.flush_output(raw))
        else:
            raise ExecutionError(f"bad operator {op!r}")
        env.observe_result(raw, l, r)
        return float(env.flush_output(raw))

    def _fma(self, expr: FMA, frame: _Frame, env: FPEnv, state: "_RunState") -> float:
        a = float(env.flush_input(env.cast(self._eval(expr.a, frame, env, state))))
        b = float(env.flush_input(env.cast(self._eval(expr.b, frame, env, state))))
        c = float(env.flush_input(env.cast(self._eval(expr.c, frame, env, state))))
        state.charge(self.cost_model.fma)
        if expr.negate_product:
            a = -a
        with np.errstate(all="ignore"):
            if env.fptype is FPType.FP64:
                raw = np.float64(fma_exact(a, b, c))
            elif env.fptype is FPType.FP32:
                # 24-bit operands: the double product is exact; one more
                # double add then a single narrowing keeps error below 1/2
                # ULP except double-rounding corners shared by both vendors.
                raw = np.float32(np.float64(a) * np.float64(b) + np.float64(c))
            elif env.fptype is FPType.FP16:
                # 11-bit operands: the float32 product is exact (22 bits),
                # one float32 add then a single narrowing to binary16 — the
                # same compute-in-fp32-round-to-fp16 model as plain FP16
                # arithmetic (module docstring), shared by both vendors.
                raw = np.float16(np.float32(a) * np.float32(b) + np.float32(c))
            else:
                raise ExecutionError(f"FMA is not defined for {env.fptype!r}")
        env.observe_result(raw, a, b, c)
        return float(env.flush_output(env.cast(raw)))

    def _eval_bool(self, expr: Expr, frame: _Frame, env: FPEnv, state: "_RunState") -> bool:
        state.tick()
        if isinstance(expr, Compare):
            state.charge(self.cost_model.compare)
            left = self._eval(expr.left, frame, env, state)
            right = self._eval(expr.right, frame, env, state)
            l, r = float(env.cast(left)), float(env.cast(right))
            if expr.op == "<":
                return l < r
            if expr.op == "<=":
                return l <= r
            if expr.op == ">":
                return l > r
            if expr.op == ">=":
                return l >= r
            if expr.op == "==":
                return l == r
            return l != r  # "!="
        if isinstance(expr, BoolOp):
            left = self._eval_bool(expr.left, frame, env, state)
            if expr.op == "&&":
                return left and self._eval_bool(expr.right, frame, env, state)
            return left or self._eval_bool(expr.right, frame, env, state)
        # C truthiness of a float expression.
        return self._eval(expr, frame, env, state) != 0.0

    def _eval_int(self, expr: Expr, frame: _Frame, state: "_RunState") -> int:
        state.tick()
        if isinstance(expr, IntConst):
            return expr.value
        if isinstance(expr, VarRef):
            if expr.name in frame.ints:
                return frame.ints[expr.name]
            if expr.name in frame.scalars:
                return int_of_scalar(expr.name, frame.scalars[expr.name])
            raise ExecutionError(f"unknown int name {expr.name!r}")
        if isinstance(expr, BinOp):
            # Integer index arithmetic (i + 1, 2*j, ...), C semantics with
            # truncating division.
            left = self._eval_int(expr.left, frame, state)
            right = self._eval_int(expr.right, frame, state)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if right == 0:
                raise ExecutionError("integer division by zero")
            quotient = abs(left) // abs(right)
            return quotient if (left >= 0) == (right >= 0) else -quotient
        if isinstance(expr, UnOp):
            value = self._eval_int(expr.operand, frame, state)
            return -value if expr.op == "-" else value
        raise ExecutionError(
            f"{type(expr).__name__} not supported in integer context"
        )


class _RunState:
    """Step budget enforcement and modeled cycle accounting."""

    __slots__ = ("options", "steps", "cost")

    def __init__(self, options: ExecOptions) -> None:
        self.options = options
        self.steps = 0
        self.cost = 0

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.options.max_steps:
            raise TrapError(
                f"kernel exceeded step budget ({self.options.max_steps})",
                steps=self.steps,
            )

    def charge(self, cycles: int) -> None:
        self.cost += cycles


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
