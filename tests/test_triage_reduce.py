"""Tests for the automated debugging tools (triage + reduction).

These implement the paper's §VII future work, so the tests pin down the
behaviour on the paper's own case studies: Fig. 4 must triage to
``math-library via fmod`` and reduce to a kernel that still contains the
divergent ``fmod``; Fig. 5 to ``ceil``; the engineered Case-Study-3 kernel
to ``optimization-induced`` with the contraction pass implicated.
"""

from __future__ import annotations

import pytest

from repro.analysis.reduce import kernel_size, reduce_testcase
from repro.analysis.triage import (
    Cause,
    triage_discrepancy,
    triage_table,
    triage_tests,
)
from repro.apps.paper_kernels import (
    case3_engineered_testcase,
    fig4_testcase,
    fig5_testcase,
)
from repro.compilers.options import OptLevel, OptSetting
from repro.harness.differential import classify_pair
from repro.ir.nodes import Call
from repro.ir.visitor import collect

O0 = OptSetting(OptLevel.O0)
O1 = OptSetting(OptLevel.O1)
O3_FM = OptSetting(OptLevel.O3, fast_math=True)


class TestTriage:
    def test_fig4_attributed_to_fmod(self, runner):
        v = triage_discrepancy(runner, fig4_testcase(), O0, 0)
        assert v.cause == Cause.MATH_LIBRARY
        assert "fmod" in v.functions

    def test_fig5_attributed_to_ceil(self, runner):
        v = triage_discrepancy(runner, fig5_testcase(), O0, 0)
        assert v.cause == Cause.MATH_LIBRARY
        assert "ceil" in v.functions

    def test_case3_attributed_to_optimization(self, runner):
        v = triage_discrepancy(runner, case3_engineered_testcase(), O1, 0)
        assert v.cause == Cause.OPTIMIZATION
        assert "fma-contract" in set(v.nvcc_passes) ^ set(v.hipcc_passes)

    def test_describe_is_informative(self, runner):
        v = triage_discrepancy(runner, fig4_testcase(), O0, 0)
        text = v.describe()
        assert "math-library" in text and "fmod" in text

    def test_triage_batch_over_campaign(self, runner):
        """Campaign discrepancies triage without error and mostly resolve."""
        from repro.harness.campaign import CampaignConfig, run_campaign
        from repro.varity.corpus import build_corpus

        config = CampaignConfig(
            seed=31, n_programs_fp64=60, inputs_per_program=3,
            include_hipify=False, include_fp32=False,
        )
        result = run_campaign(config)
        arm = result.arms["fp64"]
        if not arm.discrepancies:
            pytest.skip("no discrepancies at this scale")
        corpus = build_corpus(
            config.generator_config(config.arm_fptype("fp64")),
            config.n_programs_fp64,
            config.arm_seed("fp64"),
        )
        tests_by_id = {t.test_id: t for t in corpus}
        verdicts = triage_tests(runner, tests_by_id, arm.discrepancies, limit=10)
        assert verdicts
        resolved = [v for v in verdicts if v.cause != Cause.UNKNOWN]
        # The model has exactly five mechanisms, all probed; nearly all
        # discrepancies must resolve.
        assert len(resolved) >= 0.7 * len(verdicts)

    def test_table_renders(self, runner):
        verdicts = [
            triage_discrepancy(runner, fig4_testcase(), O0, 0),
            triage_discrepancy(runner, fig5_testcase(), O0, 0),
        ]
        text = triage_table(verdicts).render()
        assert "math-library" in text

    def test_limit_zero_triages_nothing(self, runner):
        """``limit=0`` must mean "none", not fall through to "all"."""
        from repro.harness.differential import Discrepancy, classify_pair
        from repro.harness.runner import DifferentialRunner

        test = fig4_testcase()
        rn, ra, _, _ = runner.run_single(test, O0, 0)
        d = Discrepancy(
            test_id=test.test_id,
            input_index=0,
            opt_label="O0",
            dclass=classify_pair(rn.value, ra.value),
            nvcc_printed=rn.printed,
            hipcc_printed=ra.printed,
            nvcc_outcome=rn.outcome,
            hipcc_outcome=ra.outcome,
        )
        tests_by_id = {test.test_id: test}
        assert triage_tests(runner, tests_by_id, [d], limit=0) == []
        assert len(triage_tests(runner, tests_by_id, [d], limit=None)) == 1

    def test_table_counts_functions_per_cause(self, runner):
        """A function implicated under one cause must not inflate another
        cause's row (counts used to be computed globally)."""
        from repro.analysis.triage import Cause, TriageVerdict

        verdicts = [
            TriageVerdict("t1", 0, "O0", Cause.MATH_LIBRARY, functions=("fmod",)),
            TriageVerdict("t2", 0, "O0", Cause.MATH_LIBRARY, functions=("fmod",)),
            TriageVerdict("t3", 0, "O3_FM", Cause.FAST_MATH_LIBRARY, functions=("fmod",)),
        ]
        rows = triage_table(verdicts).rows
        by_cause = {row[0]: row[2] for row in rows}
        assert by_cause[Cause.MATH_LIBRARY] == "fmod×2"
        assert by_cause[Cause.FAST_MATH_LIBRARY] == "fmod×1"


class TestReduction:
    def test_fig4_reduces_dramatically(self, runner):
        result = reduce_testcase(fig4_testcase(), O0, 0, runner=runner)
        assert result.reduced_size < result.original_size / 3
        # The reduced kernel still contains the culprit call...
        calls = [
            n
            for stmt in result.reduced.program.kernel.body
            for n in collect(stmt, lambda x: isinstance(x, Call))
        ]
        assert any(c.func == "fmod" for c in calls)
        # ...and still shows the same discrepancy class.
        rn, ra, _, _ = runner.run_single(result.reduced, O0, 0)
        assert classify_pair(rn.value, ra.value) is result.dclass

    def test_fig5_already_minimal(self, runner):
        result = reduce_testcase(fig5_testcase(), O0, 0, runner=runner)
        # Fig. 5 is a 2-statement kernel; reduction cannot break it and
        # must keep the divergence.
        rn, ra, _, _ = runner.run_single(result.reduced, O0, 0)
        assert classify_pair(rn.value, ra.value) is result.dclass
        assert result.reduced_size <= result.original_size

    def test_case3_reduction_keeps_opt_divergence(self, runner):
        result = reduce_testcase(case3_engineered_testcase(), O1, 0, runner=runner)
        rn, ra, _, _ = runner.run_single(result.reduced, O1, 0)
        assert classify_pair(rn.value, ra.value) is result.dclass

    def test_unused_params_pruned(self, runner):
        result = reduce_testcase(fig4_testcase(), O0, 0, runner=runner)
        kernel = result.reduced.program.kernel
        from repro.analysis.reduce import _used_names

        used = _used_names(kernel)
        for p in kernel.params[1:]:  # comp always stays
            assert p.name in used
        # inputs stayed aligned
        for vec in result.reduced.inputs:
            assert len(vec.values) == len(kernel.params)

    def test_non_divergent_test_rejected(self, runner, small_fp64_corpus):
        # Find a consistent (test, input) pair and expect a ValueError.
        for test in small_fp64_corpus:
            rn, ra, _, _ = runner.run_single(test, O0, 0)
            if classify_pair(rn.value, ra.value) is None:
                with pytest.raises(ValueError):
                    reduce_testcase(test, O0, 0, runner=runner)
                return
        pytest.skip("every test diverged (unexpected at this scale)")

    def test_kernel_size_metric(self):
        t = fig5_testcase()
        assert kernel_size(t.program.kernel) > 0

    def test_reduced_program_is_renderable(self, runner):
        from repro.codegen.cuda import render_cuda
        from repro.hipify.translator import hipify_source

        result = reduce_testcase(fig4_testcase(), O0, 0, runner=runner)
        src = render_cuda(result.reduced.program)
        assert "__global__" in src
        hipify_source(src)  # must translate cleanly too


# --------------------------------------------------------------- probe path
TRACED_CAUSES = {Cause.MATH_LIBRARY, Cause.FAST_MATH_LIBRARY, Cause.UNKNOWN}


class _PlainRunner:
    """``run_single`` from plain ``Compiler.compile`` and ``Device.execute``:
    no artifact cache, no memo — the reference the probe path must match."""

    def __init__(self, runner) -> None:
        self._r = runner

    def run_single(self, test, opt, input_index, *, trace=False):
        ck_lhs = self._r.lhs_compiler.compile(test.program, opt)
        ck_rhs = self._r.rhs_compiler.compile(test.program, opt)
        values = test.inputs[input_index].values
        return (
            self._r.lhs_device.execute(ck_lhs, values, trace=trace),
            self._r.rhs_device.execute(ck_rhs, values, trace=trace),
            ck_lhs,
            ck_rhs,
        )


def _reference_verdict(stacks, test, opt, input_index):
    """Triage as specified: traced isolation first, then the probes."""
    from repro.analysis.ablation import AblationSpec, _build_runner
    from repro.analysis.case_studies import isolate_divergence
    from repro.analysis.triage import _functions_near_divergence
    from repro.fp.classify import outcomes_equivalent
    from repro.fp.types import FPType
    from repro.harness.runner import DifferentialRunner

    base = _PlainRunner(DifferentialRunner(stacks=stacks))
    ftz = _PlainRunner(_build_runner(AblationSpec("ftz", "", same_ftz=True)))
    lib = _PlainRunner(_build_runner(AblationSpec("mathlib", "", same_mathlib=True)))
    report = isolate_divergence(base, test, opt, input_index)

    def agrees(runner, o=opt):
        rn, ra, _, _ = runner.run_single(test, o, input_index)
        return outcomes_equivalent(rn.value, ra.value)

    fast = opt.fast_math and test.fptype is FPType.FP32
    cause, functions = Cause.UNKNOWN, ()
    if opt.label != "O0" and agrees(base, O0):
        cause = Cause.FTZ if fast and agrees(ftz) else Cause.OPTIMIZATION
    elif agrees(lib):
        cause = Cause.FAST_MATH_LIBRARY if fast else Cause.MATH_LIBRARY
        functions = _functions_near_divergence(test, report)
    elif fast and agrees(ftz):
        cause = Cause.FTZ
    return cause, functions, report.nvcc_passes, report.hipcc_passes


def _discrepancies(runner, tests, opts, per_opt):
    """(test, opt, input_index, sweep O0 values) of up to ``per_opt``
    discrepancies per setting that the runner's sweeps find."""
    out = []
    taken = {opt.label: 0 for opt in opts}
    for test in tests:
        pairs = runner.run_sweep(test, opts)
        o0 = pairs.get("O0")
        o0_values = (
            {}
            if o0 is None
            else {
                lhs.input_index: (lhs.value, rhs.value)
                for lhs, rhs in zip(o0.lhs_runs, o0.rhs_runs)
            }
        )
        for opt in opts:
            for d in pairs[opt.label].discrepancies:
                if taken[opt.label] < per_opt:
                    taken[opt.label] += 1
                    out.append((test, opt, d.input_index, o0_values.get(d.input_index)))
    return out


def _lanes():
    from repro.compilers.options import PAPER_OPT_SETTINGS
    from repro.varity.config import GeneratorConfig
    from repro.varity.corpus import build_corpus

    fp64 = build_corpus(GeneratorConfig.fp64(inputs_per_program=3), 16, root_seed=41)
    fp32 = build_corpus(GeneratorConfig.fp32(inputs_per_program=3), 16, root_seed=7)
    return {
        "fp64": (("nvcc", "hipcc"), list(fp64), PAPER_OPT_SETTINGS),
        "fp32-fast-math": (("nvcc", "hipcc"), list(fp32), (O0, O3_FM)),
        "hipify-twin": (
            ("nvcc", "hipcc"),
            [t.hipified() for t in fp64],
            PAPER_OPT_SETTINGS,
        ),
        "nvcc-cpu": (("nvcc", "cpu"), list(fp32) + list(fp64), PAPER_OPT_SETTINGS),
    }


class TestProbePath:
    @pytest.mark.parametrize("lane", ["fp64", "fp32-fast-math", "hipify-twin", "nvcc-cpu"])
    def test_verdicts_match_uncached_reference(self, lane):
        """Cached, memoized triage with isolation only where read gives
        the reference verdict: cause, functions and both pass lists."""
        from repro.harness.runner import DifferentialRunner

        stacks, tests, opts = _lanes()[lane]
        runner = DifferentialRunner(stacks=stacks)
        cases = _discrepancies(runner, tests, opts, per_opt=4)
        assert cases
        causes = set()
        for test, opt, idx, _ in cases:
            v = triage_discrepancy(runner, test, opt, idx)
            expected = _reference_verdict(stacks, test, opt, idx)
            assert (v.cause, v.functions, v.nvcc_passes, v.hipcc_passes) == expected
            assert (v.isolation is not None) == (v.cause in TRACED_CAUSES)
            causes.add(v.cause)
        # every lane exercises at least one traced and one untraced cause
        assert causes & TRACED_CAUSES and causes - TRACED_CAUSES, causes

    def test_sweep_answered_o0_equals_executed_probe(self):
        from repro.fp.bits import float_to_bits
        from repro.harness.runner import DifferentialRunner

        stacks, tests, opts = _lanes()["fp64"]
        runner = DifferentialRunner(stacks=stacks)
        cases = [c for c in _discrepancies(runner, tests, opts, per_opt=4) if c[1] != O0]
        assert cases
        probe_runner = DifferentialRunner(stacks=stacks)
        for test, opt, idx, o0_values in cases:
            assert o0_values is not None
            rn, ra, _, _ = probe_runner.run_single(test, O0, idx)
            bits = lambda pair: tuple(float_to_bits(v) for v in pair)  # noqa: E731
            assert bits(o0_values) == bits((rn.value, ra.value))
            answered = triage_discrepancy(runner, test, opt, idx, o0_values=o0_values)
            probed = triage_discrepancy(probe_runner, test, opt, idx)
            assert (answered.cause, answered.functions) == (probed.cause, probed.functions)

    def test_traced_memo_hit_serves_untraced_call(self):
        from repro.harness.runner import DifferentialRunner

        runner = DifferentialRunner()
        test = fig4_testcase()
        traced = runner.run_single(test, O0, 0, trace=True)
        assert traced[0].trace
        untraced = runner.run_single(test, O0, 0)
        assert runner.probe_memo_hits == 1
        assert untraced[0] is traced[0] and untraced[1] is traced[1]
        # an untraced entry cannot answer a traced call
        fresh = DifferentialRunner()
        fresh.run_single(test, O0, 0)
        again = fresh.run_single(test, O0, 0, trace=True)
        assert fresh.probe_memo_hits == 0 and again[0].trace

    def test_trapping_probe_raises_on_every_call(self):
        from repro.devices.device import Device
        from repro.errors import TrapError
        from repro.harness.runner import DifferentialRunner

        class TrapDevice(Device):
            calls = 0

            def execute(self, compiled, inputs, *, trace=False):
                TrapDevice.calls += 1
                raise TrapError("synthetic step-budget trap")

        runner = DifferentialRunner()
        inner = runner.rhs_device
        runner.rhs_device = TrapDevice(inner.spec, inner.mathlib)
        test = fig4_testcase()
        for _ in range(2):
            with pytest.raises(TrapError):
                runner.run_single(test, O0, 0)
        assert TrapDevice.calls == 2 and runner.probe_memo_hits == 0

    def test_o1_o2_o3_share_one_artifact(self):
        from repro.compilers.nvcc import NvccCompiler
        from repro.compilers.options import PAPER_OPT_SETTINGS
        from repro.exec.artifacts import ArtifactCache
        from repro.varity.config import GeneratorConfig
        from repro.varity.generator import ProgramGenerator

        program = ProgramGenerator(GeneratorConfig.fp32()).generate(5)
        compiler = NvccCompiler()
        cache = ArtifactCache()
        levels = [OptSetting(level) for level in (OptLevel.O1, OptLevel.O2, OptLevel.O3)]
        keys = {cache.key(compiler, program, opt) for opt in levels}
        assert len(keys) == 1
        swept = cache.compile_sweep(compiler, program, levels)
        assert cache.misses == 1 and cache.stats()["hits"] == 2 and len(cache) == 1
        for opt in levels:
            assert swept[opt.label].opt == opt
            assert swept[opt.label] == compiler.compile(program, opt)
        # The cache's second sweep: the existing hit-equals-fresh contract.
        first = cache.compile_sweep(compiler, program, PAPER_OPT_SETTINGS)
        again = cache.compile_sweep(compiler, program, PAPER_OPT_SETTINGS)
        for label in first:
            assert first[label] == again[label]
            assert first[label] == compiler.compile(program, first[label].opt)

    def test_fuzz_probe_stats_account_every_probe(self):
        from repro.fuzz.engine import FuzzConfig, run_fuzz

        result = run_fuzz(
            FuzzConfig(seed=5, n_seed_programs=4, inputs_per_program=2, max_mutants=6)
        )
        stats = result.probe_stats
        assert stats["o0_from_sweep"] > 0
        assert stats["probes"] == (
            stats["o0_from_sweep"] + stats["memo_hits"] + stats["executed"]
        )
        assert stats["artifact_misses"] > 0
