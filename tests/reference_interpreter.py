"""The reference tree walk: the bit-exactness oracle for the one evaluator.

:mod:`repro.devices.batch` lowers each kernel into per-row closures, and
every execution in ``src/`` runs through them.  This module keeps the
direct recursive walk over the IR that the lowering was derived from, so
the property tests can check the lowered code against an independent
statement of the same semantics: every printed value, flag count, step
count, modeled cycle and trace entry must agree bit for bit.

It follows the model in :mod:`repro.devices.interpreter`: per-operation
rounding with NumPy scalars of the campaign precision (FP16 computed in
binary32 and rounded once), a vendor math library for every ``Call``,
exact fused multiply-add, flush-to-zero per
:class:`~repro.fp.env.FlushMode` and IEEE event tracking through
:class:`~repro.fp.env.FPEnv`, and a ``TrapError`` at the first node that
takes the step count past ``max_steps``.

:func:`reference_batches` routes :meth:`Device.execute_batch` through
this walk row by row, so a whole execution-service lane can run on the
reference (the exec bench's scalar lane and its ledger-equality test).
:func:`uncached_compiles` is its compile-side twin: every sweep compiles
afresh instead of hitting the artifact cache.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.devices.device import Device
from repro.exec.artifacts import ArtifactCache
from repro.devices.interpreter import (
    CostModel,
    ExecOptions,
    ExecutionResult,
    TraceEntry,
    fma_exact,
    format_printf_g17,
    int_of_scalar,
)
from repro.devices.mathlib.base import MathLibrary
from repro.errors import ExecutionError, TrapError
from repro.fp.classify import classify_value
from repro.fp.env import FPEnv
from repro.fp.types import FPType
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

__all__ = ["ReferenceInterpreter", "reference_rows", "reference_batches", "uncached_compiles"]


class _Frame:
    """Mutable execution state: scalar bindings, arrays, loop counters."""

    __slots__ = ("scalars", "ints", "arrays")

    def __init__(self) -> None:
        self.scalars: Dict[str, float] = {}
        self.ints: Dict[str, int] = {}
        self.arrays: Dict[str, np.ndarray] = {}


class ReferenceInterpreter:
    """Executes kernels under one vendor math library by walking the IR."""

    def __init__(self, mathlib: MathLibrary, cost_model: Optional[CostModel] = None) -> None:
        self.mathlib = mathlib
        self.cost_model = cost_model or CostModel()

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
                # arithmetic, shared by both vendors.
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


def reference_rows(
    device: Device,
    kernel: Kernel,
    rows: Sequence[Sequence[Union[float, int]]],
    options: ExecOptions,
) -> List[Optional[ExecutionResult]]:
    """``device``'s model run row by row on the tree walk (``None`` =
    trapped), the reference for one ``run_batch`` call."""
    walker = ReferenceInterpreter(device.mathlib, device.interpreter.cost_model)
    out: List[Optional[ExecutionResult]] = []
    for row in rows:
        try:
            out.append(walker.run(kernel, row, options))
        except TrapError:
            out.append(None)
    return out


@contextlib.contextmanager
def reference_batches() -> Iterator[None]:
    """Route every in-process :meth:`Device.execute_batch` through the
    tree walk, row by row, for the duration of the block; an event-free
    call gets the walk's results with ``flags`` ``None``."""
    original = Device.execute_batch

    def execute_batch(self, compiled, input_rows, *, events=True):
        self._check_vendor(compiled)
        out = reference_rows(self, compiled.kernel, input_rows, compiled.exec_options)
        if events:
            return out
        return [None if r is None else dataclasses.replace(r, flags=None) for r in out]

    Device.execute_batch = execute_batch
    try:
        yield
    finally:
        Device.execute_batch = original


@contextlib.contextmanager
def uncached_compiles() -> Iterator[None]:
    """Make :meth:`ArtifactCache.compile_sweep` compile every sweep
    afresh (no hits, no misses) for the duration of the block."""
    original = ArtifactCache.compile_sweep

    def compile_sweep(self, compiler, program, opts):
        return compiler.compile_sweep(program, opts)

    ArtifactCache.compile_sweep = compile_sweep
    try:
        yield
    finally:
        ArtifactCache.compile_sweep = original
