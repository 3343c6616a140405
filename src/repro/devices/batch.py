"""The one evaluator: each kernel lowered once into per-row closures.

:func:`lower` turns a kernel into a tree of Python closures (the
closure-generation technique of Feeley & Lapalme, "Using Closures for
Code Generation", Computer Languages, 1987), and the returned function
evaluates one input row with NumPy scalars of the kernel dtype.  Every
execution runs through it: :func:`run_batch` lowers once and evaluates
a grid of rows, and :meth:`~repro.devices.interpreter.Interpreter.run`
lowers and evaluates a single row.  The direct tree walk over the IR
that the lowering was derived from is kept in
``tests/reference_interpreter.py``, where the property tests compare the
two bit for bit.  Everything that walk decides per node is decided at
lowering time instead:

* each operator, comparison and math-library call site.  Arithmetic is
  fused: a binary operation, a scalar ``op=`` and an array ``op=`` are
  each one closure that applies the operator and, when events are on,
  tests the result for the normal range in place, and a one-argument
  call has its own closure keyed ``(func, variant, bytes(a))`` in the
  call memo;
* the flush code: under :attr:`FlushMode.NONE` it is left out entirely;
* the IEEE-event rule (:func:`~repro.fp.env.flag_for_result` or
  :func:`~repro.fp.env.flag_for_division`, stated only in
  :mod:`repro.fp.env`), reached only when a result is subnormal,
  infinite or NaN — a zero or a finite normal result raises no event
  under either rule.  That slow path (``settle``) is built once per
  lowering and rule and hands the rule the operands as computed, NumPy
  scalars of the kernel dtype;
* whether events are inferred at all.  An event-free lowering
  (``lower(..., events=False)``, what every caller that does not record
  flags asks for) builds no ``settle``: an arithmetic site, an FMA and a
  call return the operator's or the memo's result as is, and under a
  flush mode that flushes outputs the result's only test is the output
  flush itself.  Its rows' ``flags`` is ``None``; everything else is
  what the events-on lowering gives;
* the step and cycle sums of each statement, added once when the
  statement completes; a ``&&``/``||`` right-hand side adds its own sums
  only when it runs.

Loop and branch bodies are lowered on first entry: a ``for`` or ``if``
keeps a one-slot holder and lowers its body, with the same lowering, the
first time a row enters it (a positive trip count, a true condition).
Later iterations and later rows reuse those closures, and a body no row
enters is never lowered.  Varity's loop bounds are input integers and
its branches guard on computed values, so many bodies of a kernel run
on a few inputs are never entered.

**Tracing.**  A traced lowering (``lower(..., trace=True)``) emits one
:class:`~repro.devices.interpreter.TraceEntry` per store, at the
statements the tree walk traces: paths ``s0.f[i=3].s1`` and
``s2.t.s0``, array targets labelled ``a[idx]`` with ``idx = index % n``,
and values as Python floats, an array store's value taken before its
cast.  An untraced lowering builds none of that: its closures carry no
path or trace bookkeeping.

**Why rows, not columns.**  An earlier version carried ``(n_rows,)``
columns through a masked tree walk.  Batches hold one test's input grid,
3–7 rows in every CLI preset, where a NumPy ufunc on a 3-wide array
costs 330–450 ns and the same operation on a NumPy scalar about 35 ns;
each node also paid for event observation, casts, bit-uniformity checks
and ``np.where`` masks.  Per-row closures beat the columns at every
width measured: over 40 generated programs per precision on a 2-core
host, 1.6–2.6x per row at 1–7 rows and 1.2–1.7x at 72.

**Trap precedence.**  The model raises :class:`~repro.errors.TrapError`
at the first node that takes the step count past ``max_steps``.  The
lowered code checks the budget at every loop iteration and at the end
of the run, where its count is exact.  A node that raises
:class:`~repro.errors.ExecutionError` mid-statement (integer division by
zero, an unknown name, a non-finite value used as an integer) first adds
the statically known ticks of the nodes entered so far in its statement;
if that count is over budget the row traps instead, which is what the
tree walk would have done first.

A trapped row's slot in :func:`run_batch`'s result list is ``None``.
Repeated math-library calls and FP64 fused multiply-adds with identical
operands are served from the interpreter's call memo; the library models
are pure, so this is observationally invisible.
"""

from __future__ import annotations

import math
import operator
import time
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import ExecutionError, TrapError
from repro.fp.classify import classify_value
from repro.fp.env import (
    FlushMode,
    FPExceptionFlags,
    flag_for_division,
    flag_for_result,
)
from repro.fp.types import FPType
from repro.devices.mathlib.base import MathLibrary
from repro.devices.interpreter import (
    CostModel,
    ExecOptions,
    ExecutionResult,
    TraceEntry,
    fma_exact,
    format_printf_g17,
    int_of_scalar,
)
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
from repro.telemetry.spans import get_tracer

__all__ = ["run_batch", "batch_stats", "reset_batch_stats", "lower", "check_arity"]


#: Process-local counts of :func:`run_batch` calls and the rows they ran.
_STATS = {"batches": 0, "rows": 0}


def batch_stats() -> Dict[str, int]:
    return dict(_STATS)


def reset_batch_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


_INF = math.inf
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}

#: A lowered node: the closure, its static ticks and its static cycles.
_Lowered = Tuple[Callable, int, int]


class _Frame:
    """One row's mutable state: bindings, step and cycle sums, event
    counts (``None`` in an event-free lowering), and in a traced run the
    current statement path and trace."""

    __slots__ = (
        "sc", "it", "ar", "n", "steps", "cost", "flags", "max_steps", "mathlib", "memo",
        "path", "trace",
    )
    sc: Dict[str, object]
    it: Dict[str, int]
    ar: Dict[str, List[object]]
    n: int
    steps: int
    cost: int
    flags: Optional[Dict[str, int]]
    max_steps: int
    mathlib: MathLibrary
    memo: Dict[object, object]
    path: str
    trace: List[TraceEntry]


def _trap(fr: _Frame) -> TrapError:
    return TrapError(
        f"kernel exceeded step budget ({fr.max_steps})", steps=fr.max_steps + 1
    )


def _fail(fr: _Frame, ticks: int, message: str) -> NoReturn:
    """Raise ``message`` at a node ``ticks`` steps into the statement,
    unless the tree walk would have trapped on the way there."""
    if fr.steps + ticks > fr.max_steps:
        raise _trap(fr)
    raise ExecutionError(message)


def _failing(ticks: int, message: str) -> Callable:
    return lambda fr: _fail(fr, ticks, message)


def _run_block(fr: _Frame, body: Sequence[Callable], prefix: str) -> None:
    """Run traced statements, each under its path ``{prefix}s{j}``."""
    for j, inner in enumerate(body):
        fr.path = f"{prefix}s{j}"
        inner(fr)


def _loop_vars(body: Sequence[Stmt]):
    for stmt in body:
        if isinstance(stmt, For):
            yield stmt.var
        if isinstance(stmt, (For, If)):
            yield from _loop_vars(stmt.body)


def _scalar_stores(body: Sequence[Stmt]):
    """Every ``(name, expr)`` whose value a Decl or Assign binds uncast."""
    for stmt in body:
        if isinstance(stmt, Decl):
            yield stmt.name, stmt.init
        elif isinstance(stmt, Assign) and isinstance(stmt.target, VarRef):
            yield stmt.target.name, stmt.expr
        elif isinstance(stmt, (For, If)):
            yield from _scalar_stores(stmt.body)


class _Lowering:
    """Builds the closures of one kernel under one flush mode, traced or
    not, inferring IEEE events or not."""

    def __init__(
        self,
        kernel: Kernel,
        flush: FlushMode,
        cost_model: CostModel,
        trace: bool,
        events: bool,
    ) -> None:
        self.trace = trace
        self.fptype = kernel.fptype
        T = self.T = kernel.fptype.dtype.type
        self.sn = kernel.fptype.smallest_normal
        self.zeros = (T(0.0), T(-0.0))
        self.flush_out = flush.flushes_outputs
        self.costs = cost_model
        # Events on: ``settle`` infers the event and applies the output
        # flush.  Events off: nothing settles, and the output flush (if
        # the mode has one) is the only test a result gets.
        self.settle_result = self._settle(flag_for_result) if events else None
        self.settle_division = self._settle(flag_for_division) if events else None
        flush_value = self._flush_value() if flush is not FlushMode.NONE else None
        self.input = flush_value if flush.flushes_inputs else None
        self.cast_input = T if self.input is None else (lambda v: flush_value(T(v)))
        self.output = None if events else flush_value
        params = kernel.params
        self.arrays = {p.name for p in params if p.type is IRType.FLOAT_PTR}
        self.ints = {p.name for p in params if p.type is IRType.INT}
        self.ints.update(_loop_vars(kernel.body))
        # Scalars the tree walk may hold as an uncast Python float (an
        # int read in float context, an off-grid integer literal): their
        # loads are cast before arithmetic.  Everything else already is
        # a scalar of the kernel dtype.  Fixed point over copies.
        stores = list(_scalar_stores(kernel.body))
        self.uncast: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, expr in stores:
                if name not in self.uncast and self._may_be_uncast(expr):
                    self.uncast.add(name)
                    changed = True

    # ------------------------------------------------------------ helpers
    def _may_be_uncast(self, expr: Expr) -> bool:
        if isinstance(expr, IntConst):
            try:
                f = float(expr.value)
            except OverflowError:
                return True
            return float(self.T(f)) != f
        if isinstance(expr, VarRef):
            return expr.name in self.ints or expr.name in self.uncast
        if isinstance(expr, UnOp) and expr.op != "-":
            return self._may_be_uncast(expr.operand)
        return False

    def _settle(self, rule) -> Callable:
        """The slow path after an operation whose result may raise an
        event or need flushing: ``rule`` infers the event from the result
        and the operands as computed, then the output flush applies.
        Built once per lowering and rule."""
        sn, flush_out = self.sn, self.flush_out
        pz, nz = self.zeros

        def settle(fr: _Frame, raw, x: float, ops):
            flag = rule(x, ops, sn)
            if flag is not None:
                fr.flags[flag] += 1
            if flush_out and x != 0.0 and -sn < x < sn:
                fr.flags["underflow"] += 1
                return pz if x > 0.0 else nz
            return raw

        return settle

    def _flush_value(self) -> Callable:
        """Subnormal ``v`` to a zero of its sign, anything else as is:
        the input flush, and an event-free lowering's output flush."""
        sn, (pz, nz) = self.sn, self.zeros

        def flush(v):
            x = float(v)
            if x != 0.0 and -sn < x < sn:
                return pz if x > 0.0 else nz
            return v

        return flush

    def _flushed(self, fn: Callable) -> Callable:
        """An event-free site's closure, its result output-flushed when
        the mode flushes outputs."""
        out = self.output
        if out is None:
            return fn
        return lambda fr: out(fn(fr))

    # -------------------------------------------------------- expressions
    def operand(self, expr: Expr, pre: int) -> _Lowered:
        """A value operations consume: cast to the dtype, input-flushed."""
        fn, ticks, cost = self.expr(expr, pre, cast=True)
        flush = self.input
        if flush is None:
            return fn, ticks, cost
        return (lambda fr: flush(fn(fr))), ticks, cost

    def expr(self, expr: Expr, pre: int, cast: bool) -> _Lowered:
        """Lower ``expr`` whose first tick is the ``pre+1``-th of its
        statement.  ``cast`` asks for a dtype scalar; otherwise the
        closure returns what the tree walk would hold, which may be an
        uncast Python float."""
        T = self.T
        cls = type(expr)
        if cls is Const:
            value = T(expr.value)
            return (lambda fr: value), 1, 0
        if cls is IntConst:
            raw = expr.value
            try:
                f = float(raw)
            except OverflowError:
                return (lambda fr: float(raw)), 1, 0  # raises, as the tree walk does
            value = T(f)
            if not cast and float(value) != f:
                value = f  # off the dtype grid: the tree walk stores it uncast
            return (lambda fr: value), 1, 0
        if cls is VarRef:
            return self._var(expr.name, pre, cast), 1, 0
        if cls is ArrayRef:
            return self._load(expr, pre)
        if cls is UnOp:
            if expr.op == "-":
                fn, ticks, cost = self.expr(expr.operand, pre + 1, cast=True)
                return (lambda fr: -fn(fr)), ticks + 1, cost
            fn, ticks, cost = self.expr(expr.operand, pre + 1, cast)
            return fn, ticks + 1, cost
        if cls is BinOp:
            return self._binop(expr, pre)
        if cls is FMA:
            return self._fma(expr, pre)
        if cls is Call:
            return self._call(expr, pre)
        if cls is Compare or cls is BoolOp:
            cond, ticks, cost = self.cond(expr, pre + 1)
            one, zero = T(1.0), T(0.0)
            return (lambda fr: one if cond(fr) else zero), ticks + 1, cost
        return _failing(pre + 1, f"cannot evaluate {cls.__name__}"), 1, 0

    def _var(self, name: str, pre: int, cast: bool) -> Callable:
        """A name read in float context: a scalar, else an int converted
        through binary64, resolved at run time in the tree walk's order."""
        message = f"unknown name {name!r}"
        if cast and (name in self.ints or name in self.uncast):
            T = self.T

            def cast_var(fr: _Frame):
                v = fr.sc.get(name)
                if v is None:
                    i = fr.it.get(name)
                    if i is None:
                        return _fail(fr, pre + 1, message)
                    v = float(i)
                return T(v)

            return cast_var

        def var(fr: _Frame):
            v = fr.sc.get(name)
            if v is None:
                i = fr.it.get(name)
                if i is None:
                    return _fail(fr, pre + 1, message)
                return float(i)
            return v

        return var

    def _load(self, expr: ArrayRef, pre: int) -> _Lowered:
        index, ticks, _ = self.index(expr.index, pre + 1)
        ticks += 1
        name = expr.name
        if name not in self.arrays:
            message = f"read of unknown array {name!r}"

            def unknown(fr: _Frame):
                index(fr)
                return _fail(fr, pre + ticks, message)

            return unknown, ticks, 0

        def load(fr: _Frame):
            return fr.ar[name][index(fr) % fr.n]

        return load, ticks, self.costs.load_store

    def arith(self, op: str) -> Tuple[Callable, Optional[Callable], int]:
        """``(fn, settle, cycles)`` of a known arithmetic operator: a site
        computes ``raw = fn(l, r)`` and hands a result off the normal
        range to ``settle``, which is ``None`` when events are off."""
        costs = self.costs
        if op == "/":
            return operator.truediv, self.settle_division, costs.div
        return _ARITH[op], self.settle_result, costs.mul if op == "*" else costs.add

    def _binop(self, expr: BinOp, pre: int) -> _Lowered:
        left, lt, lc = self.operand(expr.left, pre + 1)
        right, rt, rc = self.operand(expr.right, pre + 1 + lt)
        ticks = 1 + lt + rt
        if expr.op not in _ARITH:
            return _bad_operator(expr.op, pre + ticks, left, right), ticks, lc + rc
        fn, settle, cost = self.arith(expr.op)
        cost += lc + rc
        if settle is None:
            return self._flushed(lambda fr: fn(left(fr), right(fr))), ticks, cost
        sn = self.sn
        nsn = -sn

        def binop(fr: _Frame):
            l = left(fr)
            r = right(fr)
            raw = fn(l, r)
            x = float(raw)
            if x == 0.0 or sn <= x < _INF or -_INF < x <= nsn:
                return raw
            return settle(fr, raw, x, (l, r))

        return binop, ticks, cost

    def _fma(self, expr: FMA, pre: int) -> _Lowered:
        a_fn, at, ac = self.operand(expr.a, pre + 1)
        b_fn, bt, bc = self.operand(expr.b, pre + 1 + at)
        c_fn, ct, cc = self.operand(expr.c, pre + 1 + at + bt)
        ticks = 1 + at + bt + ct
        cost = ac + bc + cc + self.costs.fma
        negate = expr.negate_product
        fptype = self.fptype
        if fptype is FPType.FP64:

            def fused(fr: _Frame, a, b, c):
                key = ("fma64", bytes(a), bytes(b), bytes(c))
                hit = fr.memo.get(key)
                if hit is None:
                    hit = fr.memo[key] = np.float64(fma_exact(float(a), float(b), float(c)))
                return hit

        elif fptype is FPType.FP32:
            # 24-bit operands: the double product is exact; one more
            # double add then a single narrowing keeps error below 1/2
            # ULP except double-rounding corners shared by both vendors.
            def fused(fr: _Frame, a, b, c):
                return np.float32(np.float64(a) * np.float64(b) + np.float64(c))

        elif fptype is FPType.FP16:
            # 11-bit operands: the float32 product is exact (22 bits), one
            # float32 add then a single narrowing to binary16, the same
            # compute-in-fp32-round-to-fp16 model as plain FP16 arithmetic.
            def fused(fr: _Frame, a, b, c):
                return np.float16(np.float32(a) * np.float32(b) + np.float32(c))

        else:
            message = f"FMA is not defined for {fptype!r}"

            def fused(fr: _Frame, a, b, c):
                return _fail(fr, pre + ticks, message)

        settle = self.settle_result
        if settle is None:

            def plain_fma(fr: _Frame):
                a = a_fn(fr)
                b = b_fn(fr)
                return fused(fr, -a if negate else a, b, c_fn(fr))

            return self._flushed(plain_fma), ticks, cost
        sn = self.sn
        nsn = -sn

        def fma(fr: _Frame):
            a = a_fn(fr)
            b = b_fn(fr)
            c = c_fn(fr)
            if negate:
                a = -a
            raw = fused(fr, a, b, c)
            x = float(raw)
            if x == 0.0 or sn <= x < _INF or -_INF < x <= nsn:
                return raw
            return settle(fr, raw, x, (a, b, c))

        return fma, ticks, cost

    def _call(self, expr: Call, pre: int) -> _Lowered:
        fns = []
        ticks = 1
        cost = self.costs.call_cost(expr.func, expr.variant)
        for arg in expr.args:
            fn, t, c = self.operand(arg, pre + ticks)
            fns.append(fn)
            ticks += t
            cost += c
        func, variant, fptype, T = expr.func, expr.variant, self.fptype, self.T
        settle = self.settle_result
        if settle is None:
            return self._flushed(self._plain_call(fns, func, variant)), ticks, cost
        sn = self.sn
        nsn = -sn
        head = (func, variant)

        def call(fr: _Frame):
            args = [fn(fr) for fn in fns]
            key = head + tuple(bytes(a) for a in args)
            memo = fr.memo
            result = memo.get(key)
            if result is None:
                raw = fr.mathlib.call(func, [float(a) for a in args], fptype, variant)
                result = memo[key] = T(raw)
            x = float(result)
            if x == 0.0 or sn <= x < _INF or -_INF < x <= nsn:
                return result
            return settle(fr, result, x, args)

        return call, ticks, cost

    def _plain_call(self, fns: List[Callable], func: str, variant: str) -> Callable:
        """An event-free call site: the memoized result, as is.  A
        one-argument call, the common case, has its own closure; the
        memo key is the same either way."""
        fptype, T = self.fptype, self.T
        if len(fns) == 1:
            (arg,) = fns

            def call1(fr: _Frame):
                a = arg(fr)
                key = (func, variant, bytes(a))
                memo = fr.memo
                result = memo.get(key)
                if result is None:
                    raw = fr.mathlib.call(func, [float(a)], fptype, variant)
                    result = memo[key] = T(raw)
                return result

            return call1
        head = (func, variant)

        def call(fr: _Frame):
            args = [fn(fr) for fn in fns]
            key = head + tuple(bytes(a) for a in args)
            memo = fr.memo
            result = memo.get(key)
            if result is None:
                raw = fr.mathlib.call(func, [float(a) for a in args], fptype, variant)
                result = memo[key] = T(raw)
            return result

        return call

    # ------------------------------------------------ boolean and integer
    def cond(self, expr: Expr, pre: int) -> _Lowered:
        """Lower ``expr`` in boolean context; the closure returns a
        truth value."""
        cls = type(expr)
        if cls is Compare:
            left, lt, lc = self.expr(expr.left, pre + 1, cast=True)
            right, rt, rc = self.expr(expr.right, pre + 1 + lt, cast=True)
            test = _COMPARE.get(expr.op, operator.ne)
            return (
                (lambda fr: test(left(fr), right(fr))),
                1 + lt + rt,
                self.costs.compare + lc + rc,
            )
        if cls is BoolOp:
            left, lt, lc = self.cond(expr.left, pre + 1)
            # The right side is its own accounting unit: it adds its
            # sums when it runs, so it starts counting from zero past
            # everything its statement has entered so far.
            right, rt, rc = self.cond(expr.right, pre + 1 + lt)
            if expr.op == "&&":

                def both(fr: _Frame):
                    if not left(fr):
                        return False
                    value = right(fr)
                    fr.steps += rt
                    fr.cost += rc
                    return value

                return both, 1 + lt, lc

            def either(fr: _Frame):
                if left(fr):
                    return True
                value = right(fr)
                fr.steps += rt
                fr.cost += rc
                return value

            return either, 1 + lt, lc
        # C truthiness of a float expression.
        fn, ticks, cost = self.expr(expr, pre + 1, cast=False)
        return (lambda fr: fn(fr) != 0.0), ticks + 1, cost

    def index(self, expr: Expr, pre: int) -> _Lowered:
        """Lower ``expr`` in integer context (loop bounds, subscripts);
        the closure returns a Python int."""
        cls = type(expr)
        if cls is IntConst:
            value = expr.value
            return (lambda fr: value), 1, 0
        if cls is VarRef:
            name = expr.name
            message = f"unknown int name {name!r}"

            def ivar(fr: _Frame):
                i = fr.it.get(name)
                if i is None:
                    v = fr.sc.get(name)
                    if v is None:
                        return _fail(fr, pre + 1, message)
                    try:
                        return int_of_scalar(name, v)
                    except ExecutionError as err:
                        return _fail(fr, pre + 1, str(err))
                return i

            return ivar, 1, 0
        if cls is BinOp:
            left, lt, _ = self.index(expr.left, pre + 1)
            right, rt, _ = self.index(expr.right, pre + 1 + lt)
            ticks = 1 + lt + rt
            if expr.op in ("+", "-", "*"):
                fn = _ARITH[expr.op]
                return (lambda fr: fn(left(fr), right(fr))), ticks, 0

            def divide(fr: _Frame):
                l = left(fr)
                r = right(fr)
                if r == 0:
                    return _fail(fr, pre + ticks, "integer division by zero")
                quotient = abs(l) // abs(r)
                return quotient if (l >= 0) == (r >= 0) else -quotient

            return divide, ticks, 0
        if cls is UnOp:
            fn, ticks, _ = self.index(expr.operand, pre + 1)
            if expr.op == "-":
                return (lambda fr: -fn(fr)), ticks + 1, 0
            return fn, ticks + 1, 0
        return _failing(pre + 1, f"{cls.__name__} not supported in integer context"), 1, 0

    # --------------------------------------------------------- statements
    def block(self, body: Sequence[Stmt]) -> List[Callable]:
        return [self.stmt(stmt) for stmt in body]

    def stmt(self, stmt: Stmt) -> Callable:
        """One statement: evaluates, then adds its own static sums."""
        fn = self._stmt(stmt)
        return self._traced(stmt, fn) if self.trace else fn

    def _stmt(self, stmt: Stmt) -> Callable:
        cls = type(stmt)
        if cls is Decl:
            init, ticks, cost = self.expr(stmt.init, 1, cast=False)
            name, ticks = stmt.name, ticks + 1

            def decl(fr: _Frame):
                fr.sc[name] = init(fr)
                fr.steps += ticks
                fr.cost += cost

            return decl
        if cls is Assign or cls is AugAssign:
            return self._assign(stmt)
        if cls is For:
            return self._for(stmt)
        if cls is If:
            cond, ticks, cost = self.cond(stmt.cond, 1)
            ticks += 1
            stmts, slot, block = stmt.body, [None], self.block
            if self.trace:

                def traced_if(fr: _Frame):
                    taken = cond(fr)
                    fr.steps += ticks
                    fr.cost += cost
                    if taken:
                        body = slot[0]
                        if body is None:
                            body = slot[0] = block(stmts)
                        _run_block(fr, body, f"{fr.path}.t.")

                return traced_if

            def if_(fr: _Frame):
                taken = cond(fr)
                fr.steps += ticks
                fr.cost += cost
                if taken:
                    body = slot[0]
                    if body is None:
                        body = slot[0] = block(stmts)
                    for inner in body:
                        inner(fr)

            return if_
        return _failing(1, f"cannot execute {cls.__name__}")

    def _for(self, stmt: For) -> Callable:
        bound, ticks, _ = self.index(stmt.bound, 1)
        var, ticks = stmt.var, ticks + 1
        stmts, slot, block = stmt.body, [None], self.block
        if self.trace:

            def traced_for(fr: _Frame):
                iterations = range(bound(fr))
                fr.steps += ticks
                ints = fr.it
                if iterations:
                    body = slot[0]
                    if body is None:
                        body = slot[0] = block(stmts)
                    limit, base = fr.max_steps, fr.path
                    for i in iterations:
                        if fr.steps > limit:
                            raise _trap(fr)
                        ints[var] = i
                        _run_block(fr, body, f"{base}.f[{var}={i}].")
                ints.pop(var, None)

            return traced_for

        def for_(fr: _Frame):
            iterations = range(bound(fr))
            fr.steps += ticks
            ints = fr.it
            if iterations:
                body = slot[0]
                if body is None:
                    body = slot[0] = block(stmts)
                limit = fr.max_steps
                for i in iterations:
                    if fr.steps > limit:
                        raise _trap(fr)
                    ints[var] = i
                    for inner in body:
                        inner(fr)
            ints.pop(var, None)

        return for_

    def _assign(self, stmt: Union[Assign, AugAssign]) -> Callable:
        aug = type(stmt) is AugAssign
        target = stmt.target
        if aug:
            value, ticks, cost = self.operand(stmt.expr, 1)
        else:
            value, ticks, cost = self.expr(stmt.expr, 1, cast=type(target) is ArrayRef)
        ticks += 1
        name = target.name
        if type(target) is VarRef:
            if not aug:
                message = f"store to unknown scalar {name!r}"
                at = ticks

                def assign(fr: _Frame):
                    v = value(fr)
                    sc = fr.sc
                    if name not in sc:
                        return _fail(fr, at, message)
                    sc[name] = v
                    fr.steps += at
                    fr.cost += cost

                return assign
            message = f"read of unknown scalar {name!r}"
            at = ticks
            if stmt.op not in _ARITH:

                def current(fr: _Frame):
                    v = fr.sc.get(name)
                    return _fail(fr, at, message) if v is None else v

                return _bad_operator(stmt.op, at, value, current)
            fn, settle, op_cost = self.arith(stmt.op)
            cost += op_cost
            prep = self.cast_input if name in self.uncast else self.input
            out = self.output
            sn = self.sn
            nsn = -sn

            def update(fr: _Frame):
                r = value(fr)
                sc = fr.sc
                l = sc.get(name)
                if l is None:
                    return _fail(fr, at, message)
                if prep is not None:
                    l = prep(l)
                raw = fn(l, r)
                if settle is not None:
                    x = float(raw)
                    if not (x == 0.0 or sn <= x < _INF or -_INF < x <= nsn):
                        raw = settle(fr, raw, x, (l, r))
                elif out is not None:
                    raw = out(raw)
                sc[name] = raw
                fr.steps += at
                fr.cost += cost

            return update
        load_store = self.costs.load_store
        if name not in self.arrays:
            index, it, _ = self.index(target.index, ticks)
            verb = "read of" if aug else "store to"
            message = f"{verb} unknown array {name!r}"
            at = ticks + it

            def unknown(fr: _Frame):
                value(fr)
                index(fr)
                return _fail(fr, at, message)

            return unknown
        if not aug:
            index, it, _ = self.index(target.index, ticks)
            ticks += it
            cost += load_store

            def store(fr: _Frame):
                v = value(fr)
                fr.ar[name][index(fr) % fr.n] = v
                fr.steps += ticks
                fr.cost += cost

            return store
        # ``a[i] op= e`` evaluates the subscript twice, as the tree walk
        # does: once to load, once to store.
        load_index, it, _ = self.index(target.index, ticks)
        ticks += it
        if stmt.op not in _ARITH:
            return _bad_operator(stmt.op, ticks, value, load_index)
        fn, settle, op_cost = self.arith(stmt.op)
        store_index, it, _ = self.index(target.index, ticks)
        ticks += it
        cost += op_cost + 2 * load_store
        prep, out = self.input, self.output
        sn = self.sn
        nsn = -sn

        def update_element(fr: _Frame):
            r = value(fr)
            arr = fr.ar[name]
            l = arr[load_index(fr) % fr.n]
            if prep is not None:
                l = prep(l)
            raw = fn(l, r)
            if settle is not None:
                x = float(raw)
                if not (x == 0.0 or sn <= x < _INF or -_INF < x <= nsn):
                    raw = settle(fr, raw, x, (l, r))
            elif out is not None:
                raw = out(raw)
            arr[store_index(fr) % fr.n] = raw
            fr.steps += ticks
            fr.cost += cost

        return update_element

    def _traced(self, stmt: Stmt, run: Callable) -> Callable:
        """``run``, then the trace entry the tree walk records for a
        store: the statement's path, the target and the value stored."""
        cls = type(stmt)
        if cls is Decl:
            target, name = None, stmt.name
        elif cls is Assign or cls is AugAssign:
            target, name = stmt.target, stmt.target.name
        else:
            return run
        if type(target) is not ArrayRef:

            def record(fr: _Frame):
                run(fr)
                fr.trace.append(TraceEntry(fr.path, name, float(fr.sc[name])))

            return record
        if name not in self.arrays:
            return run  # the store raises
        index, _, _ = self.index(target.index, 0)
        # An array store keeps the cast value; the trace takes the value
        # before the cast, which differs only for an expression that may
        # be uncast.  Such an expression only reads a name or a literal,
        # so evaluating it again after the store gives the same value.
        uncast = None
        if cls is Assign and self._may_be_uncast(stmt.expr):
            uncast, _, _ = self.expr(stmt.expr, 0, cast=False)

        def record_element(fr: _Frame):
            run(fr)
            idx = index(fr) % fr.n
            value = fr.ar[name][idx] if uncast is None else uncast(fr)
            fr.trace.append(TraceEntry(fr.path, f"{name}[{idx}]", float(value)))

        return record_element


def _bad_operator(op: str, at: int, *operands: Callable) -> Callable:
    """The failing closure of an unknown arithmetic operator: it
    evaluates the operands in order, then fails ``at`` ticks into its
    statement."""
    message = f"bad operator {op!r}"

    def apply(fr: _Frame):
        for operand in operands:
            operand(fr)
        return _fail(fr, at, message)

    return apply


def lower(
    kernel: Kernel,
    flush: FlushMode,
    cost_model: CostModel,
    *,
    trace: bool = False,
    events: bool = True,
) -> Callable:
    """Lower ``kernel`` once; the result evaluates one input row.

    The returned ``evaluate(row, mathlib, memo, options)`` runs the row
    under ``flush`` (``options`` supplies the step budget and the array
    size), raising :class:`~repro.errors.TrapError` and
    :class:`~repro.errors.ExecutionError` where the reference tree walk
    does.  ``memo`` is the interpreter's
    :attr:`~repro.devices.interpreter.Interpreter.call_memo`.  With
    ``trace`` the result carries the per-store trace.  With ``events``
    off nothing infers IEEE events and the result's ``flags`` is
    ``None``; every other field is what an events-on lowering gives.
    """
    lowering = _Lowering(kernel, flush, cost_model, trace, events)
    body = lowering.block(kernel.body)
    T = lowering.T
    bindings = [(p.name, p.type) for p in kernel.params]
    names = FPExceptionFlags.EVENTS if events else None

    def evaluate(row, mathlib, memo, options: ExecOptions) -> ExecutionResult:
        fr = _Frame()
        fr.sc, fr.it, fr.ar = sc, it, ar = {}, {}, {}
        fr.steps = fr.cost = 0
        fr.flags = None if names is None else dict.fromkeys(names, 0)
        fr.max_steps = options.max_steps
        fr.mathlib, fr.memo = mathlib, memo
        # Array extent: large enough for every loop bound in the input.
        fr.n = n = max(
            [options.min_array_size]
            + [
                int(v) + 1
                for v, (_, kind) in zip(row, bindings)
                if kind is IRType.INT and int(v) >= 0
            ]
        )
        for value, (name, kind) in zip(row, bindings):
            if kind is IRType.FLOAT:
                sc[name] = T(value)
            elif kind is IRType.INT:
                it[name] = int(value)
            else:
                ar[name] = [T(value)] * n
        if trace:
            fr.trace = []
            _run_block(fr, body, "")
        else:
            for stmt in body:
                stmt(fr)
        if fr.steps > fr.max_steps:
            raise _trap(fr)
        comp = sc.get("comp")
        if comp is None:
            raise ExecutionError("kernel has no 'comp' accumulator")
        value = float(comp)
        return ExecutionResult(
            value=value,
            printed=format_printf_g17(value),
            outcome=classify_value(value),
            flags=fr.flags,
            steps=fr.steps,
            trace=tuple(fr.trace) if trace else (),
            cost_cycles=fr.cost,
        )

    return evaluate


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def check_arity(kernel: Kernel, row: Sequence[Union[float, int]]) -> None:
    """Reject an input row without one value per kernel parameter."""
    if len(row) != len(kernel.params):
        raise ExecutionError(
            f"kernel {kernel.name!r} takes {len(kernel.params)} inputs, "
            f"got {len(row)}"
        )


def run_batch(
    interpreter,
    kernel: Kernel,
    rows: Sequence[Sequence[Union[float, int]]],
    options: ExecOptions = ExecOptions(),
) -> List[Optional[ExecutionResult]]:
    """Run ``kernel`` once per input row; ``None`` marks a trapped row.

    The kernel is lowered once, traced when ``options.trace`` asks and
    inferring IEEE events when ``options.events`` does, and each row's
    result is what :meth:`Interpreter.run` returns for it,
    with :class:`TrapError` caught as ``None``.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        return []
    for r in rows:
        check_arity(kernel, r)
    tracer = get_tracer()
    t0 = time.perf_counter_ns() if tracer.enabled else 0
    evaluate = lower(
        kernel,
        options.flush,
        interpreter.cost_model,
        trace=options.trace,
        events=options.events,
    )
    mathlib, memo = interpreter.mathlib, interpreter.memo()
    results: List[Optional[ExecutionResult]] = []
    with np.errstate(all="ignore"):
        for r in rows:
            try:
                results.append(evaluate(r, mathlib, memo, options))
            except TrapError:
                results.append(None)
    if tracer.enabled:
        tracer.record(
            "device.eval_batch",
            t0,
            time.perf_counter_ns(),
            mathlib=mathlib.name,
            fptype=kernel.fptype.name.lower(),
            rows=len(rows),
        )
    _STATS["batches"] += 1
    _STATS["rows"] += len(rows)
    return results
