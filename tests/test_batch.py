"""Evaluator and batched-execution tests.

The hard invariant under test: the one evaluator (the lowered closures
of :mod:`repro.devices.batch`, behind ``run_batch``, ``execute_batch``
and ``Interpreter.run``) and compilation through the
:class:`~repro.exec.artifacts.ArtifactCache` change *nothing
observable* — every printed value, flag snapshot, outcome class, step
count, trace entry and ledger byte is identical to the reference tree
walk in ``reference_interpreter.py``, at every worker count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import struct

import numpy as np

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compilers.hipcc import HipccCompiler
from repro.compilers.nvcc import NvccCompiler
from repro.compilers.options import OptLevel, OptSetting, PAPER_OPT_SETTINGS
from repro.devices.batch import _Lowering, batch_stats, reset_batch_stats, run_batch
from repro.devices.interpreter import ExecOptions
from repro.errors import ExecutionError, TrapError
from repro.fp.env import FlushMode
from repro.fp.types import FPType
from repro.ir.builder import IRBuilder
from repro.ir.nodes import FMA, ArrayRef, BinOp, Call, Const, For, IntConst, VarRef
from repro.ir.types import IRType
from repro.exec import (
    ArtifactCache,
    DerivedTestSpec,
    ExecutionService,
    ProcessPoolBackend,
    RunStore,
    SerialBackend,
    SweepRequest,
)
from repro.exec.units import RunnerSpec
from repro.fuzz.engine import FuzzConfig, run_fuzz
from repro.harness.runner import DifferentialRunner
from repro.stacks import STACK_NAMES, get_stack
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import build_corpus
from repro.varity.generator import ProgramGenerator
from repro.varity.inputs import InputGenerator

from reference_interpreter import (
    ReferenceInterpreter,
    reference_batches,
    reference_rows,
    uncached_compiles,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
_slow = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
#: ``HYPOTHESIS_PROFILE=deep`` (registered in conftest.py) widens the
#: bit-equality and trap-boundary search; tier-1 keeps the 15-example
#: default.
_bit_equality = (
    settings.get_profile("deep")
    if os.environ.get("HYPOTHESIS_PROFILE") == "deep"
    else _slow
)

CONFIGS = {
    "fp64": GeneratorConfig.fp64,
    "fp32": GeneratorConfig.fp32,
    "fp16": GeneratorConfig.fp16,
}
OPTS2 = (OptSetting(OptLevel.O0), OptSetting(OptLevel.O3, fast_math=True))


def _sig(result):
    """Everything observable about one run, with NaN-sign-exact value bits."""
    if result is None:
        return None
    return (
        result.printed,
        struct.pack("<d", result.value),
        result.outcome,
        dict(result.flags),
        result.steps,
        result.cost_cycles,
    )


def _reference(device, compiled, rows):
    return reference_rows(device, compiled.kernel, rows, compiled.exec_options)


def _traced_sig(result):
    """``_sig`` plus every trace entry, its value NaN-sign-exact and its
    printed form."""
    return _sig(result) + tuple(
        (e.path, e.target, struct.pack("<d", e.value), str(e)) for e in result.trace
    )


def _outcome(run, kernel, row, options, sig=_sig):
    """What one single-row run observably does: its signature, or the
    error it raises with the step count a trap reports."""
    try:
        return sig(run(kernel, row, options))
    except TrapError as err:
        return ("trap", str(err), err.steps)
    except ExecutionError as err:
        return ("error", str(err))


def _special_rows(cfg, kernel, seed, data, n=6):
    """``n`` generated rows with float inputs swapped, as ``data``
    draws, for NaN, ±inf, ±0 and subnormals of the kernel precision."""
    info = np.finfo(kernel.fptype.dtype)
    subnormals = [float(info.smallest_subnormal), float(info.tiny) / 2]
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0]
    specials += subnormals + [-v for v in subnormals]
    floats = [i for i, p in enumerate(kernel.params) if p.type is not IRType.INT]
    rows = []
    for row in _rows(cfg, kernel, seed, n):
        row = list(row)
        for i in floats:
            row[i] = data.draw(st.sampled_from(specials + [row[i]]))
        rows.append(tuple(row))
    return rows


def _rows(cfg, kernel, seed, n):
    gen = InputGenerator(cfg)
    return [gen.generate(kernel, seed + i).values for i in range(n)]


# ----------------------------------------------------------- bit equality
class TestBatchBitEquality:
    @given(
        seed=seeds,
        lane=st.sampled_from(sorted(CONFIGS)),
        n=st.sampled_from((1, 4, 72)),
    )
    @_bit_equality
    def test_run_batch_matches_scalar_rows(self, seed, lane, n):
        """run_batch == row-by-row run, bit for bit, on every stack, from
        a one-row batch up to a grid far wider than any CLI preset."""
        cfg = CONFIGS[lane]()
        program = ProgramGenerator(cfg).generate(seed)
        rows = _rows(cfg, program.kernel, seed, n)
        for name in STACK_NAMES:
            stack = get_stack(name)
            device, compiler = stack.device(), stack.compiler()
            for opt in OPTS2:
                compiled = compiler.compile(program, opt)
                batch = device.execute_batch(compiled, rows)
                expected = _reference(device, compiled, rows)
                assert [_sig(r) for r in batch] == [_sig(r) for r in expected]

    @given(seed=seeds, lane=st.sampled_from(sorted(CONFIGS)), data=st.data())
    @_bit_equality
    def test_special_inputs_match_scalar_under_every_flush_mode(
        self, seed, lane, data
    ):
        """Rows holding NaN, ±inf, ±0 and subnormals raise the same flags
        and print the same values as row-by-row runs, with no flushing,
        output flushing and input+output flushing."""
        cfg = CONFIGS[lane]()
        program = ProgramGenerator(cfg).generate(seed)
        rows = _special_rows(cfg, program.kernel, seed, data)
        stack = get_stack("nvcc")
        device, compiler = stack.device(), stack.compiler()
        for opt in OPTS2:
            compiled = compiler.compile(program, opt).kernel
            for flush in FlushMode:
                options = ExecOptions(flush=flush)
                batch = run_batch(device.interpreter, compiled, rows, options)
                expected = reference_rows(device, compiled, rows, options)
                assert [_sig(r) for r in batch] == [_sig(r) for r in expected]

    @given(seed=seeds, lane=st.sampled_from(sorted(CONFIGS)), data=st.data())
    @_bit_equality
    def test_traced_single_rows_match_reference(self, seed, lane, data):
        """``Interpreter.run`` with tracing on agrees with the tree walk
        on every stack, under every flush mode and on special inputs:
        value, printed, outcome, flags, steps, cycles and the whole
        trace, each entry's printed form included."""
        cfg = CONFIGS[lane]()
        program = ProgramGenerator(cfg).generate(seed)
        rows = _special_rows(cfg, program.kernel, seed, data, n=2)
        for name in STACK_NAMES:
            stack = get_stack(name)
            device, compiler = stack.device(), stack.compiler()
            walker = ReferenceInterpreter(device.mathlib, device.interpreter.cost_model)
            for opt in OPTS2:
                kernel = compiler.compile(program, opt).kernel
                for flush in FlushMode:
                    options = ExecOptions(flush=flush, trace=True)
                    for row in rows:
                        lowered = _outcome(
                            device.interpreter.run, kernel, row, options, _traced_sig
                        )
                        assert lowered == _outcome(
                            walker.run, kernel, row, options, _traced_sig
                        )

    def test_large_lane_takes_vector_path(self):
        """A grid wider than any preset's still runs the batch evaluator
        and matches the scalar reference exactly."""
        cfg = GeneratorConfig.fp32()
        stack = get_stack("nvcc")
        device, compiler = stack.device(), stack.compiler()
        n = 72
        checked = 0
        for seed in range(6):
            program = ProgramGenerator(cfg).generate(seed)
            rows = _rows(cfg, program.kernel, seed, n)
            for opt in PAPER_OPT_SETTINGS:
                compiled = compiler.compile(program, opt)
                reset_batch_stats()
                batch = device.execute_batch(compiled, rows)
                assert batch_stats() == {"batches": 1, "rows": n}
                expected = _reference(device, compiled, rows)
                assert [_sig(r) for r in batch] == [_sig(r) for r in expected]
                checked += 1
        assert checked == 6 * len(PAPER_OPT_SETTINGS)

    def test_trapped_rows_are_none(self):
        """A step budget small enough to trap every row yields all-None,
        exactly like the scalar loop."""
        cfg = GeneratorConfig.fp32()
        program = ProgramGenerator(cfg).generate(3)
        rows = _rows(cfg, program.kernel, 3, 3)
        device = get_stack("nvcc").device()
        compiled = NvccCompiler().compile(program, OPTS2[0])
        tiny = dataclasses.replace(compiled.exec_options, max_steps=1)
        batch = run_batch(device.interpreter, compiled.kernel, rows, tiny)
        assert batch == [None, None, None]



class _LoopSpans(ReferenceInterpreter):
    """The reference tree walk, recording the step counts before and
    after every loop it executes."""

    def __init__(self, device) -> None:
        super().__init__(device.mathlib, device.interpreter.cost_model)
        self.spans = []

    def _exec_stmt(self, stmt, frame, env, state, trace, path):
        before = state.steps
        super()._exec_stmt(stmt, frame, env, state, trace, path)
        if isinstance(stmt, For):
            self.spans.append((before, state.steps))


def _with_budget(compiled, max_steps):
    options = dataclasses.replace(compiled.exec_options, max_steps=max_steps)
    return dataclasses.replace(compiled, exec_options=options)


class TestTrapBoundary:
    @given(seed=seeds, lane=st.sampled_from(sorted(CONFIGS)))
    @_bit_equality
    def test_budget_at_and_around_a_rows_step_count(self, seed, lane):
        """With ``max_steps`` one below a row's step count, equal to it,
        and in the middle of its longest loop, every row traps or
        completes exactly as the reference does."""
        cfg = CONFIGS[lane]()
        program = ProgramGenerator(cfg).generate(seed)
        rows = _rows(cfg, program.kernel, seed, 3)
        stack = get_stack("nvcc")
        device, compiler = stack.device(), stack.compiler()
        for opt in OPTS2:
            compiled = compiler.compile(program, opt)
            walker = _LoopSpans(device)
            steps = walker.run(compiled.kernel, rows[0], compiled.exec_options).steps
            loops = [span for span in walker.spans if span[1] - span[0] > 1]
            before, after = max(loops, key=lambda s: s[1] - s[0], default=(0, steps))
            for budget in (steps - 1, steps, (before + after) // 2):
                tight = _with_budget(compiled, budget)
                batch = device.execute_batch(tight, rows)
                assert [_sig(r) for r in batch] == [
                    _sig(r) for r in _reference(device, tight, rows)
                ]
                assert (batch[0] is None) == (budget < steps)

    @given(seed=seeds, lane=st.sampled_from(sorted(CONFIGS)))
    @_bit_equality
    def test_single_row_budget_parity(self, seed, lane):
        """At a budget one below a row's step count ``s`` and at ``s``,
        ``Interpreter.run`` traps (with ``steps == max_steps + 1``) or
        completes exactly as the tree walk does."""
        cfg = CONFIGS[lane]()
        program = ProgramGenerator(cfg).generate(seed)
        row = _rows(cfg, program.kernel, seed, 1)[0]
        device = get_stack("nvcc").device()
        walker = ReferenceInterpreter(device.mathlib, device.interpreter.cost_model)
        for opt in OPTS2:
            compiled = NvccCompiler().compile(program, opt)
            kernel = compiled.kernel
            steps = walker.run(kernel, row, compiled.exec_options).steps
            for budget in (steps - 1, steps):
                options = dataclasses.replace(compiled.exec_options, max_steps=budget)
                lowered = _outcome(device.interpreter.run, kernel, row, options)
                assert lowered == _outcome(walker.run, kernel, row, options)
                if budget < steps:
                    assert lowered[0] == "trap" and lowered[2] == budget + 1
                else:
                    assert lowered[4] == steps

    def test_trap_wins_only_before_the_failing_step(self):
        """``a[4 / (i - 2)]`` divides by zero at step 23 (For and its
        bound: 2 steps; 7 per iteration).  A budget of 22 traps on the
        way there; a budget of 23 reaches the division, which raises."""
        b = IRBuilder(FPType.FP64)
        index = BinOp("/", IntConst(4), BinOp("-", VarRef("i"), IntConst(2)))
        kernel = b.kernel(
            [b.fparam("comp"), b.iparam("n"), b.aparam("a")],
            [b.loop("i", "n", [b.aug("comp", "+", ArrayRef("a", index))])],
        )
        device = get_stack("nvcc").device()
        interpreter = device.interpreter
        walker = ReferenceInterpreter(device.mathlib, interpreter.cost_model)
        row = (0.5, 5, 1.25)
        for budget, outcome in ((22, TrapError), (23, ExecutionError), (24, ExecutionError)):
            options = ExecOptions(max_steps=budget)
            for run in (walker.run, interpreter.run):
                with pytest.raises(outcome):
                    run(kernel, row, options)
            assert _outcome(interpreter.run, kernel, row, options) == _outcome(
                walker.run, kernel, row, options
            )
            if outcome is TrapError:
                assert run_batch(interpreter, kernel, [row], options) == [None]
            else:
                with pytest.raises(ExecutionError, match="division by zero"):
                    run_batch(interpreter, kernel, [row], options)


# ---------------------------------------------------- lowering coverage
def _lowered_matches_reference(kernel, rows):
    device = get_stack("nvcc").device()
    options = ExecOptions()
    batch = run_batch(device.interpreter, kernel, rows, options)
    expected = reference_rows(device, kernel, rows, options)
    assert None not in expected
    assert [_sig(r) for r in batch] == [_sig(r) for r in expected]
    return batch


class TestLoweringCoverage:
    """Kernels the masked column walker's static analysis sent to the
    per-row fallback now take the lowered path, bit for bit."""

    def test_loop_bound_and_subscript_read_a_float(self):
        b = IRBuilder(FPType.FP32)
        kernel = b.kernel(
            [b.fparam("comp"), b.iparam("n"), b.fparam("x"), b.aparam("a")],
            [
                b.decl("t", b.mul("x", 2.0)),
                b.loop(
                    "i",
                    "t",
                    [
                        b.assign(b.idx("a", b.add("i", 1)), b.mul(b.idx("a", "i"), 1.5)),
                        b.aug("comp", "+", b.idx("a", "x")),
                    ],
                ),
                b.loop("j", "n", [b.aug("comp", "*", 1.25)]),
            ],
        )
        rows = [(0.5, 3, 2.5, 1.25), (1.0, 0, 0.0, -2.0), (2.0, 5, 7.9, 3.0e38)]
        _lowered_matches_reference(kernel, rows)

    def test_bare_int_stores_stay_uncast(self):
        """``float k = 16777217`` is off the binary32 grid: the tree walk
        stores it as a binary64 value and so must the lowered code."""
        b = IRBuilder(FPType.FP32)
        kernel = b.kernel(
            [b.fparam("comp")], [b.decl("k", 16777217), b.assign("comp", "k")]
        )
        batch = _lowered_matches_reference(kernel, [(0.0,)])
        assert batch[0].printed == "16777217"

    def test_arithmetic_casts_values_stored_uncast(self):
        """Arithmetic on two values stored uncast still rounds both to
        binary32 first: off-grid literals, INT parameters, and copies of
        either made on a later loop iteration."""
        b = IRBuilder(FPType.FP32)
        kernel = b.kernel(
            [b.fparam("comp"), b.iparam("n"), b.iparam("n2")],
            [
                b.decl("k", 16777217),
                b.decl("j", 16777219),
                b.aug("comp", "+", b.sub("k", "j")),  # 16777216 - 16777220
                b.decl("a", 1.5),
                b.decl("c", 2.5),
                b.decl("e", 3.5),
                b.decl("d", 4.5),
                b.loop(
                    "i",
                    2,
                    [
                        b.assign("c", "a"),
                        b.assign("d", "e"),
                        b.assign("a", "n"),
                        b.assign("e", "n2"),
                    ],
                ),
                b.aug("comp", "+", b.sub("c", "d")),  # 16777220 - 16777216
                b.loop("i", 3, [b.assign("a", "i")]),
                b.aug("a", "+", 0.5),
                b.aug("comp", "*", "a"),
            ],
        )
        rows = [(1.0, 16777219, 16777217), (2.0, 3, 5)]
        batch = _lowered_matches_reference(kernel, rows)
        assert batch[0].printed == "2.5"

    @pytest.mark.parametrize("site", ["binop", "scalar-aug", "array-aug"])
    def test_unknown_operator_fails_like_the_reference(self, site):
        """An operator outside ``+ - * /`` (the IR constructors refuse
        one, so the test swaps it in afterwards) lowers to a failing
        closure that evaluates its operands first, and yields to a trap
        at the same step budgets as the tree walk."""
        kernel = _site_kernel(FPType.FP64, site, "+")
        node = kernel.body[0]
        (node if site != "binop" else node.expr).op = "%"
        row = _site_row(site, 1.5, 2.5)
        device = get_stack("nvcc").device()
        walker = ReferenceInterpreter(device.mathlib, device.interpreter.cost_model)
        for max_steps in (0, 1, 2, 3, 4, 5, 100):
            options = ExecOptions(max_steps=max_steps)
            lowered = _outcome(device.interpreter.run, kernel, row, options)
            assert lowered == _outcome(walker.run, kernel, row, options)
        assert lowered == ("error", "bad operator '%'")


class TestTraceLowering:
    def test_trace_matches_reference_on_every_statement_form(self):
        """Paths under nested loops, a loop that reuses its enclosing
        loop's variable, and a taken branch; array labels; AugAssign on
        an element; and FP16 array stores whose value is off the binary16
        grid (an INT parameter and an integer literal above 2048), which
        the trace records before the cast.  A negative subscript is
        labelled by the element it wraps to."""
        b = IRBuilder(FPType.FP16)
        kernel = b.kernel(
            [b.fparam("comp"), b.iparam("n"), b.aparam("a")],
            [
                b.decl("t", 0.5),
                b.assign(b.idx("a", 1), "n"),
                b.assign(b.idx("a", 2), 4097),
                b.assign(ArrayRef("a", BinOp("-", IntConst(0), IntConst(1))), "t"),
                b.loop(
                    "i",
                    2,
                    [
                        b.loop("j", 2, [b.aug(b.idx("a", "j"), "+", "t")]),
                        b.loop("i", 2, [b.aug("t", "*", 1.5)]),
                        b.when(b.cmp(">", "t", 1.0), [b.aug("comp", "+", b.idx("a", 1))]),
                    ],
                ),
                b.aug("comp", "+", "t"),
            ],
        )
        device = get_stack("nvcc").device()
        walker = ReferenceInterpreter(device.mathlib, device.interpreter.cost_model)
        options = ExecOptions(trace=True)
        row = (0.25, 3001, 1.0)
        lowered = device.interpreter.run(kernel, row, options)
        assert _traced_sig(lowered) == _traced_sig(walker.run(kernel, row, options))
        text = [str(e) for e in lowered.trace]
        assert "s1: a[1] = 3001.0" in text and "s2: a[2] = 4097.0" in text
        assert "s3: a[3001] = 0.5" in text
        assert "s4.f[i=0].s1.f[i=1].s0: t = 1.125" in text
        assert "s4.f[i=0].s2.t.s0: comp = 3000.0" in text


# ------------------------------------------------------- lazy lowering
FPTYPES = (FPType.FP64, FPType.FP32, FPType.FP16)


def _batch_outcome(run, sig):
    """What one batch observably does: every row's signature (``None``
    for a trapped row), or the error the first failing row raises."""
    try:
        return [None if r is None else sig(r) for r in run()]
    except ExecutionError as err:
        return ("error", str(err))


def _lazy_outcomes(kernel, rows, options):
    """``run_batch`` and the reference tree walk on ``rows``, compared
    with the trace when ``options`` asks for one."""
    device = get_stack("nvcc").device()
    sig = _traced_sig if options.trace else _sig
    lowered = _batch_outcome(lambda: run_batch(device.interpreter, kernel, rows, options), sig)
    expected = _batch_outcome(lambda: reference_rows(device, kernel, rows, options), sig)
    return lowered, expected


def _guarded_kernel(fptype):
    """Two loops and two branches that only some rows enter: ``n`` and
    ``m`` are trip counts, ``x`` guards both branches."""
    b = IRBuilder(fptype)
    return b.kernel(
        [b.fparam("comp"), b.iparam("n"), b.iparam("m"), b.fparam("x"), b.aparam("a")],
        [
            b.loop(
                "i",
                "n",
                [
                    b.aug("comp", "+", b.mul("x", 1.5)),
                    b.loop("j", "m", [b.aug(b.idx("a", "j"), "*", "x")]),
                    b.when(b.cmp(">", "x", 1.0), [b.aug("comp", "+", b.idx("a", "i"))]),
                ],
            ),
            b.when(
                b.cmp("<", "x", 0.0),
                [b.decl("t", b.mul("x", "x")), b.aug("comp", "-", b.add("t", b.idx("a", 1)))],
            ),
        ],
    )


def _guarded_bodies(kernel):
    """The statement lists of ``_guarded_kernel``: the kernel body, the
    outer loop's, the inner loop's, and the two branches'."""
    outer, tail = kernel.body
    return {
        "kernel": kernel.body,
        "outer": outer.body,
        "inner": outer.body[1].body,
        "x > 1": outer.body[2].body,
        "x < 0": tail.body,
    }


def _guarded_rows(fptype):
    """``(comp, n, m, x, a)``: the first row enters no body; the others
    enter some, one with a subnormal fill so the flush modes differ."""
    tiny = float(np.finfo(fptype.dtype).smallest_subnormal)
    return {
        "none": (0.5, 0, 3, 0.5, 1.25),
        "outer, x > 1": (0.5, 3, 0, 2.0, 1.25),
        "outer, inner, x < 0": (0.5, 2, 2, -1.5, tiny * 3),
        "none, negative bound": (0.5, -4, 5, 0.75, 2.0),
    }


@pytest.fixture
def block_calls(monkeypatch):
    """Every statement list ``_Lowering.block`` lowers, in order."""
    calls = []
    block = _Lowering.block

    def counting(self, body):
        calls.append(body)
        return block(self, body)

    monkeypatch.setattr(_Lowering, "block", counting)
    return calls


class TestLazyLowering:
    """Loop and branch bodies are lowered when a row first enters them:
    bit-identical to the tree walk, and each body lowered at most once per
    lowering."""

    @given(seed=seeds, lane=st.sampled_from(sorted(CONFIGS)), data=st.data())
    @_bit_equality
    def test_generated_kernels_with_extreme_trip_counts(self, seed, lane, data):
        """INT inputs forced to 0, negative values and the largest trip
        count the generator draws, row by row in one batch, under every
        flush mode, traced and untraced."""
        cfg = CONFIGS[lane]()
        program = ProgramGenerator(cfg).generate(seed)
        extremes = [0, -1, -cfg.max_loop_bound, cfg.max_loop_bound]
        ints = [i for i, p in enumerate(program.kernel.params) if p.type is IRType.INT]
        rows = []
        for row in _rows(cfg, program.kernel, seed, 4):
            row = list(row)
            for i in ints:
                row[i] = data.draw(st.sampled_from(extremes))
            rows.append(tuple(row))
        for opt in OPTS2:
            kernel = NvccCompiler().compile(program, opt).kernel
            for flush in FlushMode:
                for trace in (False, True):
                    options = ExecOptions(flush=flush, trace=trace)
                    lowered, expected = _lazy_outcomes(kernel, rows, options)
                    assert lowered == expected

    @pytest.mark.parametrize("fptype", FPTYPES, ids=lambda t: t.name)
    @pytest.mark.parametrize("flush", list(FlushMode), ids=lambda f: f.name)
    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    def test_first_row_skips_what_later_rows_enter(self, fptype, flush, trace):
        kernel = _guarded_kernel(fptype)
        rows = list(_guarded_rows(fptype).values())
        options = ExecOptions(flush=flush, trace=trace)
        lowered, expected = _lazy_outcomes(kernel, rows, options)
        assert lowered == expected
        assert None not in lowered

    @pytest.mark.parametrize("fptype", FPTYPES, ids=lambda t: t.name)
    @pytest.mark.parametrize("flush", list(FlushMode), ids=lambda f: f.name)
    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    def test_zero_trip_inner_loop_still_unbinds_the_reused_variable(
        self, fptype, flush, trace
    ):
        """An inner loop over the outer loop's variable unbinds it when it
        ends, also when its body never runs (and so is never lowered):
        reading the variable afterwards is an unknown name."""
        b = IRBuilder(fptype)
        kernel = b.kernel(
            [b.fparam("comp"), b.iparam("n"), b.iparam("m")],
            [
                b.loop(
                    "i",
                    "n",
                    [b.loop("i", "m", [b.aug("comp", "+", 0.5)]), b.aug("comp", "+", "i")],
                ),
            ],
        )
        options = ExecOptions(flush=flush, trace=trace)
        device = get_stack("nvcc").device()
        walker = ReferenceInterpreter(device.mathlib, device.interpreter.cost_model)
        sig = _traced_sig if trace else _sig
        for row in ((1.0, 0, 0), (1.0, 2, 0), (1.0, 2, 3)):
            lowered = _outcome(device.interpreter.run, kernel, row, options, sig)
            assert lowered == _outcome(walker.run, kernel, row, options, sig)
            if row[1] > 0:
                assert lowered == ("error", "unknown name 'i'")
        lowered, expected = _lazy_outcomes(kernel, [(1.0, 0, 0), (1.0, 2, 0)], options)
        assert lowered == expected == ("error", "unknown name 'i'")

    @pytest.mark.parametrize("fptype", FPTYPES, ids=lambda t: t.name)
    @pytest.mark.parametrize("flush", list(FlushMode), ids=lambda f: f.name)
    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    def test_budget_at_a_row_that_first_enters_a_body(self, fptype, flush, trace):
        """With ``max_steps`` at ``s - 1`` and at ``s`` for the step count
        ``s`` of a row that enters bodies the row before it skipped, that
        row traps or completes exactly as the reference does."""
        kernel = _guarded_kernel(fptype)
        rows = _guarded_rows(fptype)
        skip, enter = rows["none"], rows["outer, inner, x < 0"]
        device = get_stack("nvcc").device()
        walker = ReferenceInterpreter(device.mathlib, device.interpreter.cost_model)
        steps = walker.run(kernel, enter, ExecOptions(flush=flush)).steps
        sig = _traced_sig if trace else _sig
        for budget in (steps - 1, steps):
            options = ExecOptions(flush=flush, trace=trace, max_steps=budget)
            lowered, expected = _lazy_outcomes(kernel, [skip, enter], options)
            assert lowered == expected
            assert lowered[0] is not None
            assert (lowered[1] is None) == (budget < steps)
            single = _outcome(device.interpreter.run, kernel, enter, options, sig)
            assert single == _outcome(walker.run, kernel, enter, options, sig)

    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    def test_each_body_lowered_once_and_only_when_entered(self, block_calls, trace):
        kernel = _guarded_kernel(FPType.FP32)
        bodies = _guarded_bodies(kernel)
        rows = _guarded_rows(FPType.FP32)
        interpreter = get_stack("nvcc").device().interpreter
        options = ExecOptions(trace=trace)

        def lowered(batch):
            block_calls.clear()
            run_batch(interpreter, kernel, batch, options)
            ids = [id(body) for body in block_calls]
            assert len(ids) == len(set(ids)), "a body was lowered twice"
            return {name for name, body in bodies.items() if id(body) in ids}

        skipping = [rows["none"], rows["none, negative bound"]]
        assert lowered(skipping * 3) == {"kernel"}
        assert lowered([rows["none"], rows["outer, x > 1"]]) == {"kernel", "outer", "x > 1"}
        # Every row, three times over: each body is entered on many
        # iterations of many rows and still lowered once.
        assert lowered(list(rows.values()) * 3) == set(bodies)
        assert len(block_calls) == len(bodies)


class TestNonFiniteIntegerContext:
    """A FLOAT scalar holding NaN or ±inf has no integer value: a loop
    bound or subscript that reads one is a named ExecutionError in both
    evaluators, never a bare ValueError/OverflowError from ``int()``."""

    def _kernels(self):
        b = IRBuilder(FPType.FP64)
        params = [b.fparam("comp"), b.fparam("x"), b.aparam("a")]
        bound = b.kernel(params, [b.loop("i", "x", [b.aug("comp", "+", 1.0)])])
        subscript = b.kernel(params, [b.aug("comp", "+", b.idx("a", "x"))])
        return bound, subscript

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_interpreter(self, value):
        device = get_stack("nvcc").device()
        walker = ReferenceInterpreter(device.mathlib, device.interpreter.cost_model)
        for kernel in self._kernels():
            for run in (device.interpreter.run, walker.run):
                with pytest.raises(ExecutionError, match="no integer value"):
                    run(kernel, (0.0, value, 1.0))
            row, options = (0.0, value, 1.0), ExecOptions()
            assert _outcome(device.interpreter.run, kernel, row, options) == _outcome(
                walker.run, kernel, row, options
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_run_batch(self, value):
        interpreter = get_stack("nvcc").device().interpreter
        for kernel in self._kernels():
            with pytest.raises(ExecutionError, match="no integer value"):
                run_batch(interpreter, kernel, [(0.0, 2.0, 1.0), (0.0, value, 1.0)])


# ----------------------------------------------------- event slow path
_NAN, _INF = math.nan, math.inf

#: ``(case, operator, x, y, events)`` for the arithmetic sites.  The
#: division rule flags an infinite numerator over zero as well.
_ARITH_EVENTS = [
    ("nan operand", "+", _NAN, 1.0, {}),
    ("nan over zero", "/", _NAN, 0.0, {}),
    ("inf plus finite", "+", _INF, 1.0, {}),
    ("inf minus inf", "-", _INF, _INF, {"invalid": 1}),
    ("zero over zero", "/", 0.0, 0.0, {"invalid": 1}),
    ("finite over +0", "/", 1.5, 0.0, {"divide_by_zero": 1}),
    ("finite over -0", "/", -1.5, -0.0, {"divide_by_zero": 1}),
    ("inf over +0", "/", _INF, 0.0, {"divide_by_zero": 1}),
    ("-inf over -0", "/", -_INF, -0.0, {"divide_by_zero": 1}),
    ("overflow by product", "*", "max", 2.0, {"overflow": 1}),
    ("overflow by sum", "+", "max", "max", {"overflow": 1}),
    ("subnormal product", "*", "tiny", 0.5, {"underflow": 1}),
]

#: ``(case, function, x, events)`` for a one-argument call site;
#: ``x`` may depend on the precision.
_CALL_EVENTS = [
    ("nan operand", "sqrt", _NAN, {}),
    ("inf operand", "exp", _INF, {}),
    ("invalid", "sqrt", -1.0, {"invalid": 1}),
    ("log of +0", "log", 0.0, {"divide_by_zero": 1}),
    ("log of -0", "log", -0.0, {"divide_by_zero": 1}),
    ("overflow", "exp", {"fp64": 1000.0, "fp32": 100.0, "fp16": 20.0}, {"overflow": 1}),
    ("subnormal", "exp", {"fp64": -709.0, "fp32": -88.0, "fp16": -10.0}, {"underflow": 1}),
]


def _site_kernel(fptype, site, op):
    """One operation at ``site``; the row is ``_site_row``'s."""
    b = IRBuilder(fptype)
    if site == "binop":
        params, body = [b.fparam("comp"), b.fparam("x"), b.fparam("y")], [
            b.assign("comp", BinOp(op, b.var("x"), b.var("y")))
        ]
    elif site == "scalar-aug":
        params, body = [b.fparam("comp"), b.fparam("y")], [b.aug("comp", op, "y")]
    elif site == "array-aug":
        params = [b.fparam("comp"), b.aparam("a"), b.fparam("y")]
        body = [b.aug(b.idx("a", 0), op, "y"), b.assign("comp", b.idx("a", 0))]
    elif site == "fma":  # ``op`` is not used: comp = fma(x, y, 0)
        params = [b.fparam("comp"), b.fparam("x"), b.fparam("y")]
        body = [b.assign("comp", FMA(b.var("x"), b.var("y"), Const(0.0)))]
    else:
        params, body = [b.fparam("comp"), b.fparam("x")], [b.assign("comp", b.call(op, "x"))]
    return b.kernel(params, body)


def _site_row(site, x, y):
    return (x, y) if site == "scalar-aug" else (0.0, x) if site == "call" else (0.0, x, y)


class TestEventSlowPath:
    """Deterministic pins of the IEEE-event slow path at every site that
    settles a result: the flag counts equal the reference tree walk's
    and the hard-coded ones, in each precision and flush mode.  Output
    flushing counts an underflow of its own after the rule's."""

    def _check(self, fptype, flush, site, op, row, events):
        kernel = _site_kernel(fptype, site, op)
        device = get_stack("nvcc").device()
        options = ExecOptions(flush=flush)
        (lowered,) = run_batch(device.interpreter, kernel, [row], options)
        (reference,) = reference_rows(device, kernel, [row], options)
        assert _sig(lowered) == _sig(reference)
        expected = dict.fromkeys(lowered.flags, 0)
        expected.update(events)
        if "underflow" in events and flush.flushes_outputs:
            expected["underflow"] += 1
        assert lowered.flags == expected

    @pytest.mark.parametrize("flush", list(FlushMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("lane", sorted(CONFIGS))
    @pytest.mark.parametrize("site", ["binop", "scalar-aug", "array-aug"])
    def test_arithmetic_sites(self, site, lane, flush):
        fptype = CONFIGS[lane]().fptype
        info = np.finfo(fptype.dtype)
        named = {"max": float(info.max), "tiny": float(info.tiny)}
        for case, op, x, y, events in _ARITH_EVENTS:
            row = _site_row(site, named.get(x, x), named.get(y, y))
            try:
                self._check(fptype, flush, site, op, row, events)
            except AssertionError as err:
                raise AssertionError(f"{case}: {err}") from err

    @pytest.mark.parametrize("flush", list(FlushMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("lane", sorted(CONFIGS))
    def test_one_argument_call(self, lane, flush):
        fptype = CONFIGS[lane]().fptype
        for case, func, x, events in _CALL_EVENTS:
            x = x[lane] if isinstance(x, dict) else x
            try:
                self._check(fptype, flush, "call", func, _site_row("call", x, None), events)
            except AssertionError as err:
                raise AssertionError(f"{case}: {err}") from err


# ------------------------------------------------------ event-free lowering
def _free_sig(result):
    """``_traced_sig`` without the flag snapshot."""
    return _traced_sig(dataclasses.replace(result, flags={}))


def _off_sig(result):
    """``_free_sig`` of an event-free run, which must carry no flags."""
    assert result.flags is None
    return _free_sig(result)


def _batch_free(interpreter, kernel, rows, options, sig):
    try:
        return [None if r is None else sig(r) for r in run_batch(interpreter, kernel, rows, options)]
    except ExecutionError as err:
        return ("error", str(err))


class TestEventFreeLowering:
    """``events=False`` drops IEEE event inference and nothing else: every
    value, printed text, outcome, step and cycle count, trace entry, trap
    and error equals the events-on lowering's and the tree walk's, and
    ``flags`` is ``None``."""

    @given(seed=seeds, lane=st.sampled_from(sorted(CONFIGS)), data=st.data())
    @_bit_equality
    def test_generated_kernels_match_events_on_and_reference(self, seed, lane, data):
        """Generated kernels on special rows, under every flush mode,
        traced and untraced, at the default budget and at one below and
        exactly each row's step count."""
        cfg = CONFIGS[lane]()
        program = ProgramGenerator(cfg).generate(seed)
        rows = _special_rows(cfg, program.kernel, seed, data, n=2)
        device = get_stack("nvcc").device()
        interpreter = device.interpreter
        walker = ReferenceInterpreter(device.mathlib, interpreter.cost_model)
        for opt in OPTS2:
            kernel = NvccCompiler().compile(program, opt).kernel
            for flush in FlushMode:
                for trace in (False, True):
                    on = ExecOptions(flush=flush, trace=trace)
                    off = dataclasses.replace(on, events=False)
                    for row in rows:
                        reference = _outcome(walker.run, kernel, row, on, _free_sig)
                        budgets = [on.max_steps]
                        if reference[0] not in ("trap", "error"):
                            steps = reference[4]
                            budgets += [steps - 1, steps]
                        for budget in budgets:
                            tight_on = dataclasses.replace(on, max_steps=budget)
                            tight_off = dataclasses.replace(off, max_steps=budget)
                            got = _outcome(interpreter.run, kernel, row, tight_off, _off_sig)
                            assert got == _outcome(
                                interpreter.run, kernel, row, tight_on, _free_sig
                            )
                            assert got == _outcome(walker.run, kernel, row, tight_on, _free_sig)
                            assert _batch_free(
                                interpreter, kernel, [row], tight_off, _off_sig
                            ) == _batch_free(interpreter, kernel, [row], tight_on, _free_sig)

    @pytest.mark.parametrize("flush", list(FlushMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("lane", sorted(CONFIGS))
    @pytest.mark.parametrize("site", ["binop", "scalar-aug", "array-aug", "fma", "call"])
    def test_every_site_on_event_rows(self, site, lane, flush):
        """Each site that settles a result, on the rows that raise every
        event (NaN, ±inf, ±0, overflow, a subnormal result the output
        flush must zero), traced and untraced."""
        fptype = CONFIGS[lane]().fptype
        info = np.finfo(fptype.dtype)
        named = {"max": float(info.max), "tiny": float(info.tiny)}
        if site == "call":
            cases = [
                (func, _site_row("call", x[lane] if isinstance(x, dict) else x, None))
                for _, func, x, _ in _CALL_EVENTS
            ]
        else:
            cases = [
                (op, _site_row(site, named.get(x, x), named.get(y, y)))
                for _, op, x, y, _ in _ARITH_EVENTS
            ]
        device = get_stack("nvcc").device()
        interpreter = device.interpreter
        walker = ReferenceInterpreter(device.mathlib, interpreter.cost_model)
        for op, row in cases:
            kernel = _site_kernel(fptype, site, op)
            for trace in (False, True):
                on = ExecOptions(flush=flush, trace=trace)
                off = dataclasses.replace(on, events=False)
                got = _outcome(interpreter.run, kernel, row, off, _off_sig)
                assert got == _outcome(interpreter.run, kernel, row, on, _free_sig), (op, row)
                assert got == _outcome(walker.run, kernel, row, on, _free_sig), (op, row)

    def test_flag_recording_runner_keeps_reference_flags(self):
        """A ``record_flags`` runner's sweep records and probe results
        carry the tree walk's flags in every precision; a plain runner's
        carry none, and its probes answer a flag-recording call only by
        executing again."""
        raised = 0
        for lane in sorted(CONFIGS):
            corpus = build_corpus(CONFIGS[lane](inputs_per_program=3), 3, root_seed=17)
            recording = DifferentialRunner(record_flags=True)
            plain = DifferentialRunner()
            for test in corpus.tests:
                swept = recording.run_sweep(test, OPTS2)
                for opt in OPTS2:
                    compiled = recording.compile_pair(test, opt)
                    devices = (recording.lhs_device, recording.rhs_device)
                    pair = swept[opt.label]
                    for runs, device, ck in zip(
                        (pair.lhs_runs, pair.rhs_runs), devices, compiled
                    ):
                        for run in runs:
                            row = test.inputs[run.input_index].values
                            (expected,) = reference_rows(
                                device, ck.kernel, [row], ck.exec_options
                            )
                            assert run.flags == expected.flags
                            raised += any(expected.flags.values())
                    for idx, vec in enumerate(test.inputs):
                        try:
                            probe = recording.run_single(test, opt, idx)
                        except TrapError:
                            continue
                        for result, device, ck in zip(probe[:2], devices, compiled):
                            (expected,) = reference_rows(
                                device, ck.kernel, [vec.values], ck.exec_options
                            )
                            assert result.flags == expected.flags
                        free = plain.run_single(test, opt, idx)
                        assert [r.flags for r in free[:2]] == [None, None]
                        assert [_free_sig(r) for r in free[:2]] == [
                            _free_sig(r) for r in probe[:2]
                        ]
                        plain.record_flags = True
                        hits = plain.probe_memo_hits
                        flagged = plain.run_single(test, opt, idx)
                        plain.record_flags = False
                        assert plain.probe_memo_hits == hits
                        assert [r.flags for r in flagged[:2]] == [r.flags for r in probe[:2]]
        assert raised  # some run raised an event: the comparison has teeth


#: Binary-operation operands by how an event-free site reads them: a
#: float scalar and a constant inline, anything else through its closure,
#: and a name no row binds (the inline read misses and falls back).
_OPERANDS = {
    "var": lambda: VarRef("x"),
    "const": lambda: Const(-2.5, "-2.5000"),
    "fn": lambda: Call("fabs", [VarRef("y")]),
    "int": lambda: VarRef("n"),
    "missing": lambda: VarRef("ghost"),
}


class TestInlineOperands:
    """Event-free binary sites read float-scalar and constant operands
    inline; every operand shape on either side, with a name missing on
    either side, matches the tree walk in value, steps and cycles, and
    fails with the same error at the same trap boundary."""

    @pytest.mark.parametrize("flush", [FlushMode.NONE, FlushMode.FLUSH_OUTPUTS], ids=str)
    @pytest.mark.parametrize("right", sorted(_OPERANDS))
    @pytest.mark.parametrize("left", sorted(_OPERANDS))
    def test_operand_shapes_match_reference(self, left, right, flush):
        b = IRBuilder(FPType.FP32)
        kernel = b.kernel(
            [b.fparam("comp"), b.iparam("n"), b.fparam("x"), b.fparam("y")],
            [
                b.aug("comp", "+", BinOp("*", _OPERANDS[left](), _OPERANDS[right]())),
                b.aug("comp", "-", BinOp("/", _OPERANDS[right](), _OPERANDS[left]())),
            ],
        )
        device = get_stack("nvcc").device()
        walker = ReferenceInterpreter(device.mathlib, device.interpreter.cost_model)
        missing = "missing" in (left, right)
        for row in ((0.5, 3, 1.25, -3.0e-39), (1.0, 2, 3.0e38, 7.0)):
            for max_steps in (0, 1, 2, 3, 4, 5, 6, 7, 100):
                on = ExecOptions(flush=flush, max_steps=max_steps)
                off = dataclasses.replace(on, events=False)
                lowered = _outcome(device.interpreter.run, kernel, row, off, _off_sig)
                assert lowered == _outcome(walker.run, kernel, row, on, _free_sig)
            assert (lowered == ("error", "unknown name 'ghost'")) == missing


# ---------------------------------------------------------- artifact cache
class TestArtifactCache:
    def test_hit_is_equal_to_fresh_compile(self):
        cfg = GeneratorConfig.fp32()
        program = ProgramGenerator(cfg).generate(5)
        cache = ArtifactCache()
        compiler = NvccCompiler()
        first = cache.compile_sweep(compiler, program, PAPER_OPT_SETTINGS)
        again = cache.compile_sweep(compiler, program, PAPER_OPT_SETTINGS)
        assert cache.hits == len(PAPER_OPT_SETTINGS)
        for label in first:
            assert first[label] == again[label]
            assert first[label] == compiler.compile(program, first[label].opt)

    def test_hipify_twin_shares_nvcc_artifact_not_hipcc(self):
        """nvcc compiles a twin byte-identically (shared artifact);
        hipcc's preprocess diverges, so the twin gets its own key."""
        cfg = GeneratorConfig.fp32()
        program = ProgramGenerator(cfg).generate(6)
        twin = dataclasses.replace(program, via_hipify=True)
        cache = ArtifactCache()
        opt = PAPER_OPT_SETTINGS[0]
        assert cache.key(NvccCompiler(), program, opt) == cache.key(
            NvccCompiler(), twin, opt
        )
        assert cache.key(HipccCompiler(), program, opt) != cache.key(
            HipccCompiler(), twin, opt
        )

    def test_hit_rebinds_program_id(self):
        cfg = GeneratorConfig.fp32()
        program = ProgramGenerator(cfg).generate(7)
        clone = dataclasses.replace(program, program_id="prog-clone")
        cache = ArtifactCache()
        opt = PAPER_OPT_SETTINGS[0]
        cache.compile(NvccCompiler(), program, opt)
        hit = cache.compile(NvccCompiler(), clone, opt)
        assert cache.hits == 1
        assert hit.program_id == "prog-clone"
        assert hit.kernel == cache.compile(NvccCompiler(), program, opt).kernel

    def test_plain_and_ablated_compilers_never_collide(self):
        """Regression: ablated compilers inherit ``name`` ("nvcc"/
        "hipcc"), and hipcc's FMA pass shares nvcc's name, so keying
        pipelines by name served one compiler's kernel to the other.
        One cache compiles both of every pair; each result must equal
        that compiler's own fresh compile."""
        from repro.analysis.ablation import AblationSpec, _AblatedHipcc, _AblatedNvcc

        program = ProgramGenerator(GeneratorConfig.fp32()).generate(4)
        pairs = [
            (HipccCompiler(), _AblatedHipcc(AblationSpec("ftz", "", same_ftz=True))),
            (NvccCompiler(), _AblatedNvcc(AblationSpec("lib", "", same_mathlib=True))),
            (
                HipccCompiler(),
                _AblatedHipcc(AblationSpec("fma", "", same_contraction=True)),
            ),
        ]
        cache = ArtifactCache()
        for plain, ablated in pairs:
            differs = False
            for opt in PAPER_OPT_SETTINGS:
                for compiler in (plain, ablated):
                    assert cache.compile(compiler, program, opt) == compiler.compile(
                        program, opt
                    ), (type(compiler).__name__, opt.label)
                differs |= plain.compile(program, opt) != ablated.compile(program, opt)
            assert differs  # the pair really compiles differently somewhere

    @staticmethod
    def _const_program(lit):
        """``comp = var_2 * <lit>``: kernels that differ in one literal."""
        b = IRBuilder(FPType.FP32)
        kernel = b.kernel(
            [b.fparam("comp"), b.fparam("var_2")],
            [b.assign("comp", b.mul(b.var("var_2"), lit(b)))],
        )
        return b.program(kernel, program_id="lit")

    def test_structural_key_shares_equal_structures(self):
        """Distinct objects of equal structure share one artifact."""
        cfg = GeneratorConfig.fp32()
        program = ProgramGenerator(cfg).generate(8)
        rebuilt = ProgramGenerator(cfg).generate(8)
        assert rebuilt.kernel is not program.kernel
        assert rebuilt.kernel.body[0] is not program.kernel.body[0]
        cache = ArtifactCache()
        opt = PAPER_OPT_SETTINGS[0]
        assert cache.key(NvccCompiler(), rebuilt, opt) == cache.key(
            NvccCompiler(), program, opt
        )
        cache.compile(NvccCompiler(), program, opt)
        assert cache.compile(NvccCompiler(), rebuilt, opt).kernel == (
            NvccCompiler().compile(rebuilt, opt).kernel
        )
        assert (cache.hits, cache.misses) == (1, 1)

    @pytest.mark.parametrize(
        "lit_a, lit_b",
        [
            (lambda b: b.raw_lit("1.5", 1.5), lambda b: b.raw_lit("+1.5E0", 1.5)),
            (lambda b: b.lit(0.0), lambda b: b.lit(-0.0)),
            (
                lambda b: Const(struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000))[0]),
                lambda b: Const(struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]),
            ),
        ],
        ids=["const-text", "signed-zero", "nan-payload"],
    )
    def test_structural_key_separates_literals(self, lit_a, lit_b):
        """Kernels that differ only in a literal's spelling, the sign of
        a zero or a NaN payload never share an artifact."""
        cache = ArtifactCache()
        a, b = self._const_program(lit_a), self._const_program(lit_b)
        for compiler in (NvccCompiler(), HipccCompiler()):
            for opt in PAPER_OPT_SETTINGS:
                assert cache.key(compiler, a, opt) != cache.key(compiler, b, opt)

    def test_structural_key_separates_hipify_on_hipcc_only(self):
        program = self._const_program(lambda b: b.lit(1.5))
        twin = dataclasses.replace(program, via_hipify=True)
        cache = ArtifactCache()
        for opt in PAPER_OPT_SETTINGS:
            assert cache.key(HipccCompiler(), program, opt) != cache.key(
                HipccCompiler(), twin, opt
            )
            assert cache.key(NvccCompiler(), program, opt) == cache.key(
                NvccCompiler(), twin, opt
            )

    def test_structural_key_separates_plain_and_ablated_compilers(self):
        """An ablation that leaves nvcc's pipeline and flush mode as they
        are still keys apart from plain nvcc."""
        from repro.analysis.ablation import AblationSpec, _AblatedNvcc

        program = ProgramGenerator(GeneratorConfig.fp32()).generate(4)
        plain = NvccCompiler()
        ablated = _AblatedNvcc(AblationSpec("ftz", "", same_ftz=True))
        cache = ArtifactCache()
        for opt in PAPER_OPT_SETTINGS:
            assert [p.key for p in plain.pipeline(opt, FPType.FP32)] == [
                p.key for p in ablated.pipeline(opt, FPType.FP32)
            ]
            assert cache.key(plain, program, opt) != cache.key(ablated, program, opt)

    def test_kernel_rebuilt_after_value_table_clear_misses(self, monkeypatch):
        """A value number is never reissued: once the intern table starts
        over, an equal kernel built from new nodes gets a new key."""
        import repro.ir.nodes as nodes

        cache = ArtifactCache()
        opt = PAPER_OPT_SETTINGS[0]
        lit = lambda b: b.lit(1.5)  # noqa: E731
        before = cache.key(NvccCompiler(), self._const_program(lit), opt)
        assert cache.key(NvccCompiler(), self._const_program(lit), opt) == before
        monkeypatch.setattr(nodes, "_vn_table", {})
        assert cache.key(NvccCompiler(), self._const_program(lit), opt) != before

    def test_each_chunk_compiles_through_its_own_cache(self):
        """A chunk's twin hits the native test's nvcc compiles, but no
        compile carries over to the next chunk: two identical chunks
        count twice one chunk's hits and misses, in process and in a
        pool."""
        test = build_corpus(GeneratorConfig.fp32(), 1, root_seed=11).tests[0]
        chunk = [
            SweepRequest(test=test, opts=OPTS2, tag=("native",)),
            SweepRequest(test=DerivedTestSpec(base=test), opts=OPTS2, tag=("hipify",)),
        ]
        counts = {}
        for label, backend, chunks in [
            ("one", SerialBackend(), [chunk]),
            ("serial", SerialBackend(), [chunk, chunk]),
            ("pool", ProcessPoolBackend(2), [chunk, chunk]),
        ]:
            with ExecutionService(backend=backend) as service:
                for _ in service.run_sweeps(chunks):
                    pass
                counts[label] = service.stats()["artifacts"]
        one = counts["one"]
        assert one["hits"] > 0 and one["misses"] > 0
        doubled = {name: 2 * n for name, n in one.items()}
        assert counts["serial"] == counts["pool"] == doubled

    def test_runner_sweep_without_a_cache_uses_the_runners_own(self):
        test = build_corpus(GeneratorConfig.fp32(), 1, root_seed=12).tests[0]
        runner = DifferentialRunner()
        first = runner.run_sweep(test, OPTS2)
        misses = runner.artifacts.misses
        assert misses > 0 and runner.artifacts.hits == 0
        again = runner.run_sweep(test, OPTS2)
        assert runner.artifacts.misses == misses
        assert runner.artifacts.hits == misses
        given = ArtifactCache()
        cached = DifferentialRunner().run_sweep(test, OPTS2, artifacts=given)
        assert given.misses == misses

        def printed(pairs):
            return [
                (label, r.compiler, r.input_index, r.printed, r.flags)
                for label, pair in pairs.items()
                for r in (*pair.lhs_runs, *pair.rhs_runs)
            ]

        assert printed(again) == printed(cached) == printed(first)


# --------------------------------------------------- ledger byte equality
def _flatten(service, chunks):
    out = []
    try:
        for outcomes in service.run_sweeps(chunks):
            for o in outcomes:
                out.append(
                    (
                        o.tag,
                        o.test_id,
                        o.nvcc_executions,
                        o.nvcc_cache_hits,
                        sorted(
                            (d.test_id, d.input_index, d.opt_label, d.dclass.value)
                            for d in o.iter_discrepancies()
                        ),
                    )
                )
    finally:
        service.close()
    return out


def _store_entries(store):
    """A run store's entries in store order: each (content key, opt
    label) with its test-id-neutral outcomes (values as bit patterns)."""
    return list(store._mem.items())


class TestLedgerEquality:
    def _chunks(self, corpus):
        return [
            [
                SweepRequest(test=t, opts=OPTS2, tag=("native",)),
                SweepRequest(test=DerivedTestSpec(base=t), opts=OPTS2, tag=("hipify",)),
            ]
            for t in corpus.tests
        ]

    def test_outcomes_invariant_to_artifact_cache_and_workers(self):
        """The headline invariant: outcomes are identical with the
        artifact cache on or off, at workers 0, 2, and 4 — and the two
        serial lanes fill identical run stores.  (Pool workers use
        chunk-private stores by design, so the parent store is filled
        by the serial lanes only.)"""
        corpus = build_corpus(
            GeneratorConfig.fp32(inputs_per_program=2), 6, root_seed=99
        )
        results = {}
        stores = {}
        lanes = [
            ("on-w0", True, SerialBackend()),
            ("off-w0", False, SerialBackend()),
            ("on-w2", True, ProcessPoolBackend(2)),
            ("on-w4", True, ProcessPoolBackend(4)),
        ]
        for label, artifacts, backend in lanes:
            stores[label] = RunStore()
            service = ExecutionService(backend=backend, store=stores[label])
            with contextlib.nullcontext() if artifacts else uncached_compiles():
                results[label] = _flatten(service, self._chunks(corpus))
            if label == "on-w0":
                assert service.stats()["artifacts"]["hits"] > 0
        baseline = results["on-w0"]
        for label, _, _ in lanes[1:]:
            assert results[label] == baseline, label
        assert _store_entries(stores["on-w0"])
        assert _store_entries(stores["off-w0"]) == _store_entries(stores["on-w0"])

    def test_scalar_lane_matches_batched(self):
        """A lane whose every batch runs row by row on the reference tree
        walk produces the same outcomes and the same run-store entries."""
        corpus = build_corpus(
            GeneratorConfig.fp32(inputs_per_program=3), 4, root_seed=17
        )

        def lane():
            chunks = [
                [SweepRequest(test=t, opts=OPTS2, runner=RunnerSpec())]
                for t in corpus.tests
            ]
            store = RunStore()
            return _flatten(ExecutionService(store=store), chunks), store

        batched, batched_store = lane()
        with reference_batches():
            scalar, scalar_store = lane()
        assert batched == scalar
        assert _store_entries(batched_store)
        assert _store_entries(batched_store) == _store_entries(scalar_store)

    def test_fuzz_ledger_invariant_at_workers_0_2_4(self, tmp_path):
        config = FuzzConfig(
            seed=23,
            n_seed_programs=8,
            inputs_per_program=2,
            max_mutants=8,
            batch_size=4,
            minimize=False,
        )
        for workers in (0, 2, 4):
            run_fuzz(
                dataclasses.replace(config, workers=workers),
                ledger=tmp_path / f"w{workers}.jsonl",
            )
        w0 = (tmp_path / "w0.jsonl").read_bytes()
        assert (tmp_path / "w2.jsonl").read_bytes() == w0
        assert (tmp_path / "w4.jsonl").read_bytes() == w0


# ------------------------------------------------------- runner rename
class TestRunSweepRename:
    def test_legacy_cache_keywords_still_work(self):
        corpus = build_corpus(
            GeneratorConfig.fp32(inputs_per_program=2), 1, root_seed=5
        )
        test = corpus.tests[0]
        store = RunStore()
        from repro.exec.content import content_id, content_text
        from repro.exec.store import BoundRunCache

        key = content_id(
            test.fptype, content_text(test.program.kernel, test.inputs)
        )
        new = DifferentialRunner()
        new_view = BoundRunCache(store, key)
        new.run_sweep(test, OPTS2, lhs_cache=new_view)
        legacy = DifferentialRunner()
        legacy_view = BoundRunCache(store, key)
        pairs = legacy.run_sweep(test, OPTS2, lhs_cache=legacy_view)
        assert legacy.lhs_executions == 0  # replayed through the view
        assert legacy_view.hits == 2 * len(test.inputs)
        assert all(p.lhs_runs for p in pairs.values())
