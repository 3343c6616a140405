"""Row-vectorized batch execution of the IR interpreter.

:func:`run_batch` evaluates one kernel over a whole grid of input rows in
a single pass, carrying every value as either a NumPy scalar (when it is
identical across rows — constants, loop counters, anything derived only
from them) or a ``(n_rows,)`` array in the campaign dtype.  Statement
evaluation is vectorized over the row axis; divergent control flow is
handled with boolean row masks:

* ``If`` bodies execute under ``parent_mask & cond`` — values are
  computed speculatively for every row and committed with ``np.where``;
* ``For`` loops iterate to the maximum bound over the rows, each
  iteration masked by ``i < bound_of_row`` (bounds may differ per row
  when they reference an INT parameter);
* ``&&``/``||`` evaluate their right side under the short-circuit
  submask, so per-row step counts and exception flags match the scalar
  interpreter's sequential semantics exactly.

**The hard invariant is bit-equality with** :meth:`Interpreter.run`:
every arithmetic op runs through the same NumPy ufunc machinery on the
same dtype (including the FP16 compute-in-fp32-round-to-fp16 model),
math-library calls and the FP64 exact-rational FMA stay per-row scalar
calls into the very same code, and flags / steps / modeled cycles are
per-row integer arrays whose increments are masked by the rows actually
executing each node.  Printed ``%.17g`` strings, outcome classes,
exception-flag snapshots, step counts and cost cycles are all identical
per row to a scalar run.

IEEE-event observation, subnormal flushing and the NaN-sign repair
have one mode at every row count: a Python scan of the row column that
skips the (nearly always) unremarkable rows and classifies the rest with
the same rules :class:`~repro.fp.env.FPEnv` uses.  Every CLI preset runs
at most a few rows per batch, where that scan beats small-array masks,
and it keeps each IEEE-754 event rule stated once, in
:mod:`repro.fp.env`.

Step-budget traps are detected from the per-row step totals (all loops
have compile-time-bounded trip counts, so a row's total is exact); a
trapped row's slot in the result list is ``None`` — the same shape the
runner produces when :class:`~repro.errors.TrapError` is caught per row.

Rows fall back to per-row scalar ``run`` for trace mode and kernels the
static analysis cannot prove safe to vectorize (e.g. loop bounds or
array indices derived from float values); a one-row batch takes the
batch evaluator like any other.  Repeated math-library calls with
identical arguments are served from the interpreter's call memo — the
library models are pure functions, so this is observationally
invisible, and it collapses the loop-invariant calls that dominate
generated kernels.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Union

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
from repro.devices.interpreter import (
    ExecOptions,
    ExecutionResult,
    fma_exact,
    format_printf_g17,
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

__all__ = ["run_batch", "batch_stats", "reset_batch_stats", "vectorizable"]


#: Process-local counters tests use to prove the fast path engaged.
_STATS = {
    "vector_batches": 0,
    "vector_rows": 0,
    "fallback_batches": 0,
    "fallback_rows": 0,
}


def batch_stats() -> Dict[str, int]:
    return dict(_STATS)


def reset_batch_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


# --------------------------------------------------------------------------
# Static vectorizability analysis
# --------------------------------------------------------------------------


def vectorizable(kernel: Kernel) -> bool:
    """True when the masked vector evaluator covers every construct.

    Rejects (falling back to per-row scalar runs, never wrong answers):

    * integer contexts (loop bounds, array indices) that reference
      anything but INT parameters, enclosing loop counters, or integer
      literals — the scalar path truncates floats there, which the
      vector path does not model;
    * *bare* integer-valued stores (``x = 5`` with an IntConst, or
      ``x = i``): the scalar interpreter stores those uncast as binary64,
      outside the dtype grid the vector path uses for frames;
    * any statement or expression type this module does not know.
    """
    int_names = {p.name for p in kernel.params if p.type is IRType.INT}
    float_names = {p.name for p in kernel.params if p.type is IRType.FLOAT}
    array_names = {p.name for p in kernel.params if p.type is IRType.FLOAT_PTR}

    def int_expr_ok(expr: Expr) -> bool:
        if isinstance(expr, IntConst):
            return True
        if isinstance(expr, VarRef):
            return expr.name in int_names
        if isinstance(expr, BinOp):
            return (
                expr.op in ("+", "-", "*", "/")
                and int_expr_ok(expr.left)
                and int_expr_ok(expr.right)
            )
        if isinstance(expr, UnOp):
            return int_expr_ok(expr.operand)
        return False

    def bare_int_valued(expr: Expr) -> bool:
        # Expression whose *top-level* value would be stored uncast by
        # the scalar interpreter while holding an integer-derived value.
        if isinstance(expr, IntConst):
            return True
        if isinstance(expr, VarRef):
            return expr.name in int_names
        if isinstance(expr, UnOp) and expr.op != "-":
            return bare_int_valued(expr.operand)
        return False

    def expr_ok(expr: Expr) -> bool:
        if isinstance(expr, (Const, IntConst)):
            return True
        if isinstance(expr, VarRef):
            return True
        if isinstance(expr, ArrayRef):
            return expr.name in array_names and int_expr_ok(expr.index)
        if isinstance(expr, UnOp):
            return expr_ok(expr.operand)
        if isinstance(expr, (BinOp, Compare, BoolOp)):
            return expr_ok(expr.left) and expr_ok(expr.right)
        if isinstance(expr, FMA):
            return expr_ok(expr.a) and expr_ok(expr.b) and expr_ok(expr.c)
        if isinstance(expr, Call):
            return all(expr_ok(a) for a in expr.args)
        return False

    def target_ok(target) -> bool:
        if isinstance(target, VarRef):
            return True
        if isinstance(target, ArrayRef):
            return target.name in array_names and int_expr_ok(target.index)
        return False

    def stmts_ok(body: Sequence[Stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, Decl):
                if bare_int_valued(stmt.init) or not expr_ok(stmt.init):
                    return False
                float_names.add(stmt.name)
            elif isinstance(stmt, Assign):
                if not target_ok(stmt.target):
                    return False
                if bare_int_valued(stmt.expr) or not expr_ok(stmt.expr):
                    return False
            elif isinstance(stmt, AugAssign):
                if not (target_ok(stmt.target) and expr_ok(stmt.expr)):
                    return False
            elif isinstance(stmt, For):
                if not int_expr_ok(stmt.bound):
                    return False
                if stmt.var in float_names or stmt.var in array_names:
                    return False  # counter shadowing a float: bail out
                added = stmt.var not in int_names
                int_names.add(stmt.var)
                ok = stmts_ok(stmt.body)
                if added:
                    int_names.discard(stmt.var)
                if not ok:
                    return False
            elif isinstance(stmt, If):
                if not expr_ok(stmt.cond) or not stmts_ok(stmt.body):
                    return False
            else:
                return False
        return True

    return stmts_ok(kernel.body)


# --------------------------------------------------------------------------
# Vector run machinery
# --------------------------------------------------------------------------


class _AllRowsTrapped(Exception):
    """Internal: every row exceeded the step budget — abort the batch."""


class _Ctx:
    """One mask context: the rows executing the current region.

    ``mask is None`` means "all rows".  Step ticks and cycle charges are
    accumulated as plain ints and flushed into the per-row arrays when
    the context closes (or at budget checkpoints), so the common
    straight-line case pays Python-int increments, not array ops, per
    node.
    """

    __slots__ = ("mask", "ticks", "cost")

    def __init__(self, mask: Optional[np.ndarray]) -> None:
        self.mask = mask
        self.ticks = 0
        self.cost = 0


class _BatchState:
    """Per-row step budget and modeled cycle accounting."""

    __slots__ = ("options", "n", "steps", "cost", "live", "any_trapped")

    def __init__(self, options: ExecOptions, n: int) -> None:
        self.options = options
        self.n = n
        self.steps = np.zeros(n, dtype=np.int64)
        self.cost = np.zeros(n, dtype=np.int64)
        self.live = np.ones(n, dtype=bool)
        self.any_trapped = False

    def flush(self, ctx: _Ctx) -> None:
        if ctx.ticks:
            if ctx.mask is None:
                self.steps += ctx.ticks
            else:
                self.steps += ctx.ticks * ctx.mask
            ctx.ticks = 0
        if ctx.cost:
            if ctx.mask is None:
                self.cost += ctx.cost
            else:
                self.cost += ctx.cost * ctx.mask
            ctx.cost = 0

    def check_budget(self) -> None:
        """Mark rows past the budget; abort when none remain.

        Called at loop-iteration boundaries and at the end of the run.
        Detection may lag the scalar interpreter's mid-statement
        :class:`TrapError` by up to one iteration of extra (masked,
        discarded) work, but the trap *decision* is identical: a row
        traps iff its final step total exceeds the budget.
        """
        over = self.steps > self.options.max_steps
        if not over.any():
            return
        newly = over & self.live
        if newly.any():
            self.live &= ~over
            self.any_trapped = True
            if not self.live.any():
                raise _AllRowsTrapped()


class _BatchEnv:
    """Row-column mirror of :class:`repro.fp.env.FPEnv`.

    Flags are per-row ``int64`` arrays; every raise is masked by the
    rows actually executing the op.  There is one observation mode at
    every row count: results are pulled into Python floats, rows that
    are finite and normal are skipped, and the rest are classified by
    the very rules :class:`FPEnv` uses (:func:`flag_for_result`,
    :func:`flag_for_division`).  Batches hold one test's input grid (a
    handful of rows in every CLI preset), where that scan is several
    times cheaper than the dozen small-array ufunc calls a masked
    restatement of the rules would cost.  Flushing and the NaN-sign
    repair in :func:`_nan_exact` scan rows the same way.

    ``nan_seen`` is a sound monotone flag: it is set the moment a NaN
    can exist anywhere in the run (inputs, a NaN literal, any observed
    result, any math-library return), and gates the both-operands-NaN
    repair in :func:`_nan_exact` — until a NaN exists, no lane can have
    two NaN operands.
    """

    __slots__ = (
        "fptype",
        "flush",
        "dtype",
        "scalar_type",
        "flags",
        "smallest_normal",
        "_zero",
        "nan_seen",
        "flush_in",
        "flush_out",
    )

    def __init__(self, fptype: FPType, flush: FlushMode, n: int) -> None:
        self.fptype = fptype
        self.flush = flush
        self.dtype = fptype.dtype
        self.scalar_type = self.dtype.type
        self.smallest_normal = fptype.smallest_normal
        self.flags = {
            name: np.zeros(n, dtype=np.int64) for name in FPExceptionFlags.EVENTS
        }
        self._zero = self.dtype.type(0.0)
        self.nan_seen = False
        self.flush_in = flush.flushes_inputs
        self.flush_out = flush.flushes_outputs

    def cast(self, value):
        if type(value) is self.scalar_type:  # the overwhelmingly common case
            return value
        if isinstance(value, np.ndarray):
            if value.dtype == self.dtype:
                return value
            return value.astype(self.dtype)
        return self.scalar_type(value)

    def _raise_masked(self, flag: str, mask) -> None:
        """Raise ``flag`` on every row executing a row-uniform op."""
        if mask is None:
            self.flags[flag] += 1
        else:
            self.flags[flag] += mask

    def flush_input(self, value):
        sn = self.smallest_normal
        if not isinstance(value, np.ndarray):
            v = float(value)
            if v != 0.0 and -sn < v < sn:
                return np.copysign(self._zero, value)
            return value
        hits = [i for i, v in enumerate(value.tolist()) if v != 0.0 and -sn < v < sn]
        if not hits:
            return value
        out = value.copy()
        for i in hits:
            out[i] = np.copysign(self._zero, value[i])
        return out

    def flush_output(self, value, mask):
        sn = self.smallest_normal
        if not isinstance(value, np.ndarray):
            v = float(value)
            if v != 0.0 and -sn < v < sn:
                self._raise_masked("underflow", mask)
                return np.copysign(self._zero, value)
            return value
        flushed = [i for i, v in enumerate(value.tolist()) if v != 0.0 and -sn < v < sn]
        if not flushed:
            return value
        # Rows outside the mask still flush (the scalar path never
        # computed them at all — the junk value is unobservable) but
        # must not raise.
        mrows = None if mask is None else mask.tolist()
        underflow = self.flags["underflow"]
        out = value.copy()
        for i in flushed:
            if mrows is None or mrows[i]:
                underflow[i] += 1
            out[i] = np.copysign(self._zero, value[i])
        return out

    def observe(self, rule, result, mask, *operands) -> None:
        """Raise the event ``rule`` (:func:`flag_for_result` or
        :func:`flag_for_division`) infers on each executing row."""
        sn = self.smallest_normal
        if not isinstance(result, np.ndarray):
            # Uniform result implies uniform operands (ufuncs with any
            # array operand produce an array result).
            r = float(result)
            if r != r:
                self.nan_seen = True
            flag = rule(r, [float(o) for o in operands], sn)
            if flag is not None:
                self._raise_masked(flag, mask)
            return
        mrows = None if mask is None else mask.tolist()
        ext = None
        flags = self.flags
        for i, r in enumerate(result.tolist()):
            if mrows is not None and not mrows[i]:
                continue
            if r - r == 0.0 and not (r != 0.0 and -sn < r < sn):
                continue  # finite, non-subnormal: no event possible
            if r != r:
                self.nan_seen = True
            if ext is None:
                ext = [
                    o.tolist() if isinstance(o, np.ndarray) else float(o)
                    for o in operands
                ]
            flag = rule(r, [e[i] if type(e) is list else e for e in ext], sn)
            if flag is not None:
                flags[flag][i] += 1

    def snapshot_row(self, row: int) -> Dict[str, int]:
        # Same key order as FPExceptionFlags.as_dict().
        return {name: int(self.flags[name][row]) for name in FPExceptionFlags.EVENTS}


class _VectorRun:
    """One vectorized batch execution of one kernel."""

    def __init__(
        self,
        interpreter,
        kernel: Kernel,
        rows: Sequence[Sequence[Union[float, int]]],
        options: ExecOptions,
    ) -> None:
        self.interpreter = interpreter
        self.mathlib = interpreter.mathlib
        self.cost_model = interpreter.cost_model
        self.kernel = kernel
        self.rows = rows
        self.options = options
        self.n = len(rows)
        self.env = _BatchEnv(kernel.fptype, options.flush, self.n)
        self.state = _BatchState(options, self.n)
        self.scalars: Dict[str, object] = {}
        self.ints: Dict[str, object] = {}
        self.arrays: Dict[str, np.ndarray] = {}
        self.array_size: object = 0  # int, or (n,) int64 per-row extents
        self.row_index = np.arange(self.n)
        # The math-library models and fma_exact are pure, so memo hits
        # are observationally invisible; the memo lives on the
        # interpreter to capture the heavy cross-batch redundancy (the
        # same test executed under every opt setting repeats most call
        # sites with identical arguments).  Keys embed the argument
        # dtype via byte length, so fptypes never collide.
        memo = interpreter.call_memo
        if len(memo) > 200_000:
            memo.clear()
        self.memo: Dict[object, float] = memo

    # ------------------------------------------------------------- set-up
    def _bind_params(self) -> None:
        kernel, rows, n = self.kernel, self.rows, self.n
        dtype = self.env.dtype
        # Per-row array extents mirror the scalar rule: large enough for
        # every non-negative INT input, never below the floor.
        extents = []
        for row in rows:
            ints = [
                int(v)
                for v, p in zip(row, kernel.params)
                if p.type is IRType.INT
            ]
            extents.append(
                max(
                    [self.options.min_array_size]
                    + [v + 1 for v in ints if v >= 0]
                )
            )
        self.array_size = _uniform_int(extents)
        max_extent = max(extents)

        for pos, param in enumerate(kernel.params):
            column = [row[pos] for row in rows]
            if param.type is IRType.INT:
                values = [int(v) for v in column]
                self.ints[param.name] = _uniform_int(values)
            elif param.type is IRType.FLOAT:
                fills = np.asarray([float(v) for v in column], dtype=np.float64)
                if np.isnan(fills).any():
                    self.env.nan_seen = True
                cast = fills.astype(dtype)
                self.scalars[param.name] = (
                    cast[0] if _all_same_bits(cast) else cast
                )
            else:
                fills = np.asarray([float(v) for v in column], dtype=np.float64)
                if np.isnan(fills).any():
                    self.env.nan_seen = True
                cast = fills.astype(dtype)
                arr = np.empty((n, max_extent), dtype=dtype)
                arr[...] = cast[:, None]
                self.arrays[param.name] = arr

    # ------------------------------------------------------------ execute
    def execute(self) -> List[Optional[ExecutionResult]]:
        self._bind_params()
        base = _Ctx(None)
        try:
            with np.errstate(all="ignore"):
                for stmt in self.kernel.body:
                    self._exec_stmt(stmt, base)
            self.state.flush(base)
            self.state.check_budget()
        except _AllRowsTrapped:
            return [None] * self.n
        comp = self.scalars.get("comp")
        if comp is None:
            raise ExecutionError("kernel has no 'comp' accumulator")
        comp_col = (
            comp
            if isinstance(comp, np.ndarray)
            else np.full(self.n, comp, dtype=self.env.dtype)
        )
        results: List[Optional[ExecutionResult]] = []
        steps, cost, live = self.state.steps, self.state.cost, self.state.live
        for row in range(self.n):
            if not live[row]:
                results.append(None)
                continue
            value = float(comp_col[row])
            results.append(
                ExecutionResult(
                    value=value,
                    printed=format_printf_g17(value),
                    outcome=classify_value(value),
                    flags=self.env.snapshot_row(row),
                    steps=int(steps[row]),
                    trace=(),
                    cost_cycles=int(cost[row]),
                )
            )
        return results

    # ---------------------------------------------------------- statements
    def _exec_stmt(self, stmt: Stmt, ctx: _Ctx) -> None:
        ctx.ticks += 1
        cls = type(stmt)
        if cls is Decl:
            value = self._eval(stmt.init, ctx)
            self._commit_scalar(stmt.name, value, ctx.mask)
        elif cls is Assign:
            value = self._eval(stmt.expr, ctx)
            self._store(stmt.target, value, ctx)
        elif cls is AugAssign:
            rhs = self._eval(stmt.expr, ctx)
            current = self._load_target(stmt.target, ctx)
            value = self._binop(stmt.op, current, rhs, ctx)
            self._store(stmt.target, value, ctx)
        elif cls is For:
            self._exec_for(stmt, ctx)
        elif cls is If:
            cond = self._eval_bool(stmt.cond, ctx)
            if isinstance(cond, np.ndarray):
                mask = cond if ctx.mask is None else (ctx.mask & cond)
                if mask.any():
                    sub = _Ctx(mask)
                    for inner in stmt.body:
                        self._exec_stmt(inner, sub)
                    self.state.flush(sub)
            elif cond:
                for inner in stmt.body:
                    self._exec_stmt(inner, ctx)
        else:
            raise ExecutionError(f"cannot execute {cls.__name__}")

    def _exec_for(self, stmt: For, ctx: _Ctx) -> None:
        bound = self._eval_int(stmt.bound, ctx)
        if isinstance(bound, np.ndarray):
            top = int(bound.max()) if bound.size else 0
        else:
            top = bound
        for i in range(top):
            if isinstance(bound, np.ndarray):
                active = bound > i
                mask = active if ctx.mask is None else (ctx.mask & active)
                if not mask.any():
                    break
            else:
                mask = ctx.mask
            self.ints[stmt.var] = i
            sub = _Ctx(mask)
            for inner in stmt.body:
                self._exec_stmt(inner, sub)
            self.state.flush(sub)
            self.state.check_budget()
        self.ints.pop(stmt.var, None)

    def _commit_scalar(self, name: str, value, mask) -> None:
        old = self.scalars.get(name)
        if mask is None or old is None:
            # A first declaration under a mask commits speculatively for
            # every row: rows outside the mask never had the name in the
            # scalar interpreter and any later read would have been a
            # scoping error there, so the placeholder is unobservable.
            self.scalars[name] = value
        else:
            self.scalars[name] = np.where(mask, value, old)

    def _store(self, target, value, ctx: _Ctx) -> None:
        if type(target) is VarRef:
            if target.name not in self.scalars:
                raise ExecutionError(f"store to unknown scalar {target.name!r}")
            old = self.scalars[target.name]
            if ctx.mask is None:
                self.scalars[target.name] = value
            else:
                self.scalars[target.name] = np.where(ctx.mask, value, old)
            return
        index = self._eval_int(target.index, ctx)
        arr = self.arrays.get(target.name)
        if arr is None:
            raise ExecutionError(f"store to unknown array {target.name!r}")
        ctx.cost += self.cost_model.load_store
        idx = index % self.array_size
        cast = self.env.cast(value)
        mask = ctx.mask
        if isinstance(idx, np.ndarray):
            if mask is None:
                arr[self.row_index, idx] = cast
            else:
                rows = np.nonzero(mask)[0]
                arr[rows, idx[rows]] = (
                    cast[rows] if isinstance(cast, np.ndarray) else cast
                )
        else:
            if mask is None:
                arr[:, idx] = cast
            else:
                arr[mask, idx] = cast[mask] if isinstance(cast, np.ndarray) else cast

    def _load_target(self, target, ctx: _Ctx):
        if type(target) is VarRef:
            try:
                return self.scalars[target.name]
            except KeyError:
                raise ExecutionError(
                    f"read of unknown scalar {target.name!r}"
                ) from None
        index = self._eval_int(target.index, ctx)
        arr = self.arrays.get(target.name)
        if arr is None:
            raise ExecutionError(f"read of unknown array {target.name!r}")
        ctx.cost += self.cost_model.load_store
        idx = index % self.array_size
        if isinstance(idx, np.ndarray):
            return arr[self.row_index, idx]
        column = arr[:, idx]
        if _all_same_bits(column):
            return column[0]
        return column.copy()  # the slice is a view; later stores must not alias

    # --------------------------------------------------------- expressions
    def _eval(self, expr: Expr, ctx: _Ctx):
        ctx.ticks += 1
        cls = type(expr)
        if cls is VarRef:
            value = self.scalars.get(expr.name)
            if value is not None:
                return value
            ivalue = self.ints.get(expr.name)
            if ivalue is not None:
                # int in arithmetic context: C-style conversion through
                # binary64, exactly like the scalar interpreter's
                # float(int) before the consumer's cast.
                if isinstance(ivalue, np.ndarray):
                    return ivalue.astype(np.float64)
                return np.float64(ivalue)
            raise ExecutionError(f"unknown name {expr.name!r}")
        if cls is Const:
            if expr.value != expr.value:  # folded NaN literal
                self.env.nan_seen = True
            return self.env.cast(expr.value)
        if cls is BinOp:
            left = self._eval(expr.left, ctx)
            right = self._eval(expr.right, ctx)
            return self._binop(expr.op, left, right, ctx)
        if cls is Call:
            return self._call(expr, ctx)
        if cls is FMA:
            return self._fma(expr, ctx)
        if cls is ArrayRef:
            return self._load_target(expr, ctx)
        if cls is UnOp:
            value = self._eval(expr.operand, ctx)
            return -self.env.cast(value) if expr.op == "-" else value
        if cls is IntConst:
            return np.float64(expr.value)
        if cls is Compare or cls is BoolOp:
            cond = self._eval_bool(expr, ctx)
            one, zero = self.env.dtype.type(1.0), self.env.dtype.type(0.0)
            if isinstance(cond, np.ndarray):
                return np.where(cond, one, zero)
            return one if cond else zero
        raise ExecutionError(f"cannot evaluate {cls.__name__}")

    def _binop(self, op: str, left, right, ctx: _Ctx):
        env = self.env
        l = env.cast(left)
        r = env.cast(right)
        if env.flush_in:
            l = env.flush_input(l)
            r = env.flush_input(r)
        if op == "+":
            ctx.cost += self.cost_model.add
            raw = l + r
            if env.nan_seen:
                raw = _nan_exact(raw, l, r, _OP_ADD)
        elif op == "-":
            ctx.cost += self.cost_model.add
            raw = l - r
        elif op == "*":
            ctx.cost += self.cost_model.mul
            raw = l * r
            if env.nan_seen:
                raw = _nan_exact(raw, l, r, _OP_MUL)
        elif op == "/":
            ctx.cost += self.cost_model.div
            raw = l / r
            env.observe(flag_for_division, raw, ctx.mask, l, r)
            if env.flush_out:
                return env.flush_output(raw, ctx.mask)
            return raw
        else:
            raise ExecutionError(f"bad operator {op!r}")
        env.observe(flag_for_result, raw, ctx.mask, l, r)
        if env.flush_out:
            return env.flush_output(raw, ctx.mask)
        return raw

    def _fma(self, expr: FMA, ctx: _Ctx):
        env = self.env
        a = env.cast(self._eval(expr.a, ctx))
        b = env.cast(self._eval(expr.b, ctx))
        c = env.cast(self._eval(expr.c, ctx))
        if env.flush_in:
            a = env.flush_input(a)
            b = env.flush_input(b)
            c = env.flush_input(c)
        ctx.cost += self.cost_model.fma
        if expr.negate_product:
            a = -a
        fptype = env.fptype
        if fptype is FPType.FP64:
            raw = self._fma64(a, b, c)
        elif fptype is FPType.FP32:
            # The double product of 24-bit operands is exact; one double
            # add then one narrowing — elementwise identical to the
            # scalar np.float32(np.float64(a) * np.float64(b) + ...).
            raw = self._fused_widened(a, b, c, np.float64, np.float32)
        elif fptype is FPType.FP16:
            raw = self._fused_widened(a, b, c, np.float32, np.float16)
        else:
            raise ExecutionError(f"FMA is not defined for {fptype!r}")
        env.observe(flag_for_result, raw, ctx.mask, a, b, c)
        raw = env.cast(raw)
        if env.flush_out:
            return env.flush_output(raw, ctx.mask)
        return raw

    def _fused_widened(self, a, b, c, wide, narrow):
        if not (
            isinstance(a, np.ndarray)
            or isinstance(b, np.ndarray)
            or isinstance(c, np.ndarray)
        ):
            return narrow(wide(a) * wide(b) + wide(c))
        aw = a.astype(wide) if isinstance(a, np.ndarray) else wide(a)
        bw = b.astype(wide) if isinstance(b, np.ndarray) else wide(b)
        cw = c.astype(wide) if isinstance(c, np.ndarray) else wide(c)
        prod = aw * bw
        if self.env.nan_seen:
            prod = _nan_exact(prod, aw, bw, _OP_MUL)
        total = prod + cw
        if self.env.nan_seen:
            total = _nan_exact(total, prod, cw, _OP_ADD)
        return total.astype(narrow)

    def _fma64(self, a, b, c):
        if not (
            isinstance(a, np.ndarray)
            or isinstance(b, np.ndarray)
            or isinstance(c, np.ndarray)
        ):
            key = ("fma64", a.tobytes(), b.tobytes(), c.tobytes())
            hit = self.memo.get(key)
            if hit is None:
                hit = fma_exact(float(a), float(b), float(c))
                self.memo[key] = hit
            if hit != hit:
                self.env.nan_seen = True
            return np.float64(hit)
        chunks = [
            (v.tobytes(), isinstance(v, np.ndarray)) for v in (a, b, c)
        ]
        floats = [
            v.tolist() if isinstance(v, np.ndarray) else float(v)
            for v in (a, b, c)
        ]
        out = np.empty(self.n, dtype=np.float64)
        memo = self.memo
        for i in range(self.n):
            lo = i * 8
            key = ("fma64",) + tuple(
                buf[lo : lo + 8] if per_row else buf for buf, per_row in chunks
            )
            hit = memo.get(key)
            if hit is None:
                hit = fma_exact(
                    *(f[i] if type(f) is list else f for f in floats)
                )
                memo[key] = hit
            if hit != hit:
                self.env.nan_seen = True
            out[i] = hit
        return out

    def _call(self, expr: Call, ctx: _Ctx):
        env = self.env
        args = [env.cast(self._eval(a, ctx)) for a in expr.args]
        if env.flush_in:
            args = [env.flush_input(a) for a in args]
        ctx.cost += self.cost_model.call_cost(expr.func, expr.variant)
        memo = self.memo
        if not any(isinstance(a, np.ndarray) for a in args):
            key = (expr.func, expr.variant) + tuple(a.tobytes() for a in args)
            raw = memo.get(key)
            if raw is None:
                raw = self.mathlib.call(
                    expr.func, [float(a) for a in args], env.fptype, expr.variant
                )
                memo[key] = raw
            result = env.cast(raw)
        else:
            # Per-row keys without broadcasting: one tobytes per column,
            # sliced per row (scalar args contribute one shared chunk).
            size = env.dtype.itemsize
            chunks = [
                (a.tobytes(), True) if isinstance(a, np.ndarray) else
                (a.tobytes(), False)
                for a in args
            ]
            floats = None
            result = np.empty(self.n, dtype=env.dtype)
            for i in range(self.n):
                lo = i * size
                key = (expr.func, expr.variant) + tuple(
                    buf[lo : lo + size] if per_row else buf
                    for buf, per_row in chunks
                )
                raw = memo.get(key)
                if raw is None:
                    if floats is None:
                        floats = [
                            a.tolist() if isinstance(a, np.ndarray) else float(a)
                            for a in args
                        ]
                    raw = self.mathlib.call(
                        expr.func,
                        [
                            f[i] if type(f) is list else f
                            for f in floats
                        ],
                        env.fptype,
                        expr.variant,
                    )
                    memo[key] = raw
                result[i] = raw
        env.observe(flag_for_result, result, ctx.mask, *args)
        result = env.cast(result)
        if env.flush_out:
            return env.flush_output(result, ctx.mask)
        return result

    def _eval_bool(self, expr: Expr, ctx: _Ctx):
        ctx.ticks += 1
        cls = type(expr)
        if cls is Compare:
            ctx.cost += self.cost_model.compare
            left = self._eval(expr.left, ctx)
            right = self._eval(expr.right, ctx)
            l, r = self.env.cast(left), self.env.cast(right)
            op = expr.op
            if op == "<":
                return l < r
            if op == "<=":
                return l <= r
            if op == ">":
                return l > r
            if op == ">=":
                return l >= r
            if op == "==":
                return l == r
            return l != r  # "!="
        if cls is BoolOp:
            left = self._eval_bool(expr.left, ctx)
            if not isinstance(left, np.ndarray):
                # Row-uniform left side: ordinary short-circuit.
                if expr.op == "&&":
                    if not left:
                        return left
                    return self._eval_bool(expr.right, ctx)
                if left:
                    return left
                return self._eval_bool(expr.right, ctx)
            need = left if expr.op == "&&" else ~left
            mask = need if ctx.mask is None else (ctx.mask & need)
            if not mask.any():
                return left
            sub = _Ctx(mask)
            right = self._eval_bool(expr.right, sub)
            self.state.flush(sub)
            if expr.op == "&&":
                return left & right
            return left | right
        # C truthiness of a float expression.
        return np.not_equal(self._eval(expr, ctx), 0.0)

    def _eval_int(self, expr: Expr, ctx: _Ctx):
        ctx.ticks += 1
        cls = type(expr)
        if cls is IntConst:
            return expr.value
        if cls is VarRef:
            value = self.ints.get(expr.name)
            if value is None:
                raise ExecutionError(f"unknown int name {expr.name!r}")
            return value
        if cls is BinOp:
            left = self._eval_int(expr.left, ctx)
            right = self._eval_int(expr.right, ctx)
            if not isinstance(left, np.ndarray) and not isinstance(
                right, np.ndarray
            ):
                if expr.op == "+":
                    return left + right
                if expr.op == "-":
                    return left - right
                if expr.op == "*":
                    return left * right
                if right == 0:
                    self._int_div_zero(None, ctx)
                quotient = abs(left) // abs(right)
                return quotient if (left >= 0) == (right >= 0) else -quotient
            l = np.asarray(left, dtype=np.int64)
            r = np.asarray(right, dtype=np.int64)
            if expr.op == "+":
                return l + r
            if expr.op == "-":
                return l - r
            if expr.op == "*":
                return l * r
            zero = np.equal(r, 0)
            if np.any(zero):
                self._int_div_zero(zero, ctx)
                r = np.where(zero, np.int64(1), r)  # trapped rows: junk quotient
            quotient = np.abs(l) // np.abs(r)
            return np.where((l >= 0) == (r >= 0), quotient, -quotient)
        if cls is UnOp:
            value = self._eval_int(expr.operand, ctx)
            return -value if expr.op == "-" else value
        raise ExecutionError(f"{cls.__name__} not supported in integer context")

    def _int_div_zero(self, zero_mask, ctx: _Ctx) -> None:
        """Raise exactly when a row the scalar path would execute divides
        by zero; rows already trapped (or outside the mask) stay silent,
        matching the scalar interpreter never reaching the statement."""
        self.state.flush(ctx)
        self.state.check_budget()  # sharpen `live` before deciding to raise
        effective = self.state.live if ctx.mask is None else (self.state.live & ctx.mask)
        if zero_mask is not None:
            effective = effective & zero_mask
        if np.any(effective):
            raise ExecutionError("integer division by zero")


def _OP_ADD(x, y):
    return x + y


def _OP_MUL(x, y):
    return x * y


def _nan_exact(raw, l, r, op):
    """Mirror the scalar path's NaN choice for commutative ufuncs.

    When *both* operands of ``+``/``*`` are NaN, NumPy's scalar math and
    its vector inner loops propagate *different* operands — observable as
    the sign bit of the resulting NaN (``nan`` vs ``-nan`` under
    ``%.17g``).  Recompute exactly those lanes with NumPy scalar ops so
    the batch result carries the same bits the scalar interpreter
    produces.  Non-commutative ``-``/``/`` agree between the two paths.
    """
    if not isinstance(raw, np.ndarray):
        return raw
    # A both-NaN lane necessarily yields a NaN result, so scan the
    # (usually NaN-free) result in Python before touching operands.
    lt = rt = None
    for i, v in enumerate(raw.tolist()):
        if v == v:
            continue
        if lt is None:
            lt = l.tolist() if isinstance(l, np.ndarray) else float(l)
            rt = r.tolist() if isinstance(r, np.ndarray) else float(r)
        lv = lt[i] if type(lt) is list else lt
        rv = rt[i] if type(rt) is list else rt
        if lv != lv and rv != rv:
            raw[i] = op(
                l[i] if isinstance(l, np.ndarray) else l,
                r[i] if isinstance(r, np.ndarray) else r,
            )
    return raw


def _uniform_int(values: Sequence[int]):
    """A Python int when all rows agree, else an int64 column."""
    first = values[0]
    for v in values[1:]:
        if v != first:
            return np.asarray(values, dtype=np.int64)
    return first


def _all_same_bits(column: np.ndarray) -> bool:
    """True when every row holds the same bit pattern (NaN-safe)."""
    view = np.ascontiguousarray(column).view(np.uint8).reshape(column.shape[0], -1)
    return bool((view == view[0]).all())


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def run_batch(
    interpreter,
    kernel: Kernel,
    rows: Sequence[Sequence[Union[float, int]]],
    options: ExecOptions = ExecOptions(),
    *,
    vectorize: bool = True,
) -> List[Optional[ExecutionResult]]:
    """Run ``kernel`` once per input row; ``None`` marks a trapped row.

    Bit-identical per row to calling :meth:`Interpreter.run` row by row
    (catching :class:`TrapError` as ``None``).  ``vectorize=False``
    forces the per-row scalar path — the reference the property tests
    compare against, and the bench's legacy lane.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        return []
    for r in rows:
        if len(r) != len(kernel.params):
            raise ExecutionError(
                f"kernel {kernel.name!r} takes {len(kernel.params)} inputs, "
                f"got {len(r)}"
            )
    if vectorize and not options.trace and vectorizable(kernel):
        tracer = get_tracer()
        t0 = time.perf_counter_ns() if tracer.enabled else 0
        results = _VectorRun(interpreter, kernel, rows, options).execute()
        if tracer.enabled:
            tracer.record(
                "device.eval_batch",
                t0,
                time.perf_counter_ns(),
                mathlib=interpreter.mathlib.name,
                fptype=kernel.fptype.name.lower(),
                rows=len(rows),
            )
        _STATS["vector_batches"] += 1
        _STATS["vector_rows"] += len(rows)
        return results
    _STATS["fallback_batches"] += 1
    _STATS["fallback_rows"] += len(rows)
    results = []
    for r in rows:
        try:
            results.append(interpreter.run(kernel, r, options))
        except TrapError:
            results.append(None)
    return results
