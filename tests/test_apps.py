"""Tests for the application layer: paper kernels, BT mini-app, stencil."""

from __future__ import annotations

import math

import pytest

from repro.apps.bt import BTRow, build_bt_program, run_bt_experiment
from repro.apps.paper_kernels import (
    FIG4_FMOD_X,
    FIG4_FMOD_Y,
    case3_engineered_testcase,
    fig2_program,
    fig4_testcase,
    fig5_testcase,
    fig6_testcase,
)
from repro.apps.stencil import build_stencil_program
from repro.compilers.options import OptLevel, OptSetting
from repro.devices.mathlib.fmod import amd_fmod, nvidia_fmod
from repro.fp.classify import OutcomeClass, classify_value
from repro.fp.types import FPType
from repro.harness.differential import DiscrepancyClass, classify_pair
from repro.ir.validate import validate_kernel

O0 = OptSetting(OptLevel.O0)
O1 = OptSetting(OptLevel.O1)
O3_FM = OptSetting(OptLevel.O3, fast_math=True)


# -------------------------------------------------------------- paper figs
class TestFig2:
    def test_valid_and_renders_like_paper(self):
        p = fig2_program()
        assert validate_kernel(p.kernel) == []
        from repro.codegen.cuda import render_cuda

        src = render_cuda(p)
        # Landmarks from the paper's listing:
        assert "comp == -1.3857E-36 + var_2" in src
        assert "+1.3305E12 / var_3" in src
        assert "cos(" in src and "sqrt(" in src

    def test_executes_on_both_platforms(self, runner):
        from repro.varity.inputs import InputVector
        from repro.varity.testcase import TestCase

        p = fig2_program()
        vec = InputVector.from_texts(
            ["+0.0", "3", "+0.0", "+2.0000", "+1.0000", "+1.0000", "+1.0000", "+1.0000", "+4.0000E3"],
            p.kernel,
        )
        rn, ra, _, _ = runner.run_single(TestCase(p, [vec]), O0, 0)
        assert rn.printed and ra.printed


class TestFig4CaseStudy:
    def test_case_study_1_reproduces(self, runner):
        """Num-vs-Num divergence at -O0, rooted in fmod (§IV-D1)."""
        rn, ra, _, _ = runner.run_single(fig4_testcase(), O0, 0)
        assert classify_pair(rn.value, ra.value) is DiscrepancyClass.NUM_NUM
        # hipcc's exact-fmod path yields the paper's published output.
        assert ra.printed == "9.3404611450291972e-306"
        # nvcc lands in the same decade but on a different value.
        assert rn.printed != ra.printed
        assert 1e-306 < rn.value < 1e-305

    def test_isolated_fmod_expression(self):
        """Fig. 4, third panel: the isolated call diverges."""
        amd = amd_fmod(FIG4_FMOD_X, FIG4_FMOD_Y)
        nv = nvidia_fmod(FIG4_FMOD_X, FIG4_FMOD_Y)
        assert amd == 7.1923082856620736e-309  # the paper's hipcc value
        assert nv != amd

    def test_other_inputs_consistent(self, runner):
        """§IV-D1: only rare inputs diverge; a benign input agrees."""
        from repro.varity.inputs import InputVector
        from repro.varity.testcase import TestCase

        t = fig4_testcase()
        benign = InputVector.from_texts(
            ["+1.0000", "2", "+1.0000", "+1.0000", "+1.0000", "+0.5000",
             "+1.0000", "+2.0000", "+3.0000", "+4.0000", "+5.0000"],
            t.program.kernel,
        )
        rn, ra, _, _ = runner.run_single(TestCase(t.program, [benign]), O0, 0)
        assert rn.printed == ra.printed


class TestFig5CaseStudy:
    def test_case_study_2_bit_exact(self, runner):
        """Inf-vs-Num at -O0 via ceil — bit-exact against the paper."""
        rn, ra, _, _ = runner.run_single(fig5_testcase(), O0, 0)
        assert rn.printed == "inf"  # paper: nvcc -O0: Inf
        assert ra.printed == "1.34887e-306"  # paper: hipcc -O0: 1.34887e-306
        assert classify_pair(rn.value, ra.value) is DiscrepancyClass.INF_NUM

    def test_isolated_ceil_expression(self):
        from repro.devices.mathlib.rounding_ops import amd_ceil, nvidia_ceil

        assert nvidia_ceil(1.5955e-125) == 0.0  # paper: nvcc → 0
        assert amd_ceil(1.5955e-125) == 1.0  # paper: hipcc → 1


class TestFig6CaseStudy:
    def test_verbatim_kernel_is_valid(self):
        assert validate_kernel(fig6_testcase().program.kernel) == []

    def test_verbatim_kernel_consistent_within_model(self, runner):
        """Pure IEEE evaluation of the Fig. 6 input yields NaN on both
        platforms at every level (the ``repro.apps.paper_kernels``
        docstring discusses the paper's published -inf)."""
        for opt in (O0, O1):
            rn, ra, _, _ = runner.run_single(fig6_testcase(), opt, 0)
            assert classify_value(rn.value) is OutcomeClass.NAN
            assert classify_value(ra.value) is OutcomeClass.NAN

    def test_engineered_case_diverges_only_under_optimization(self, runner):
        """The engineered companion: agreement at -O0, Inf-vs-NaN at -O1 —
        the paper's Case Study 3 phenomenon."""
        t = case3_engineered_testcase()
        rn0, ra0, _, _ = runner.run_single(t, O0, 0)
        assert classify_pair(rn0.value, ra0.value) is None  # consistent at O0
        rn1, ra1, _, _ = runner.run_single(t, O1, 0)
        assert classify_pair(rn1.value, ra1.value) is DiscrepancyClass.NAN_INF
        assert classify_value(rn1.value) is OutcomeClass.INF  # nvcc (fused)
        assert classify_value(ra1.value) is OutcomeClass.NAN  # hipcc (unfused)

    def test_engineered_case_mechanism_is_contraction(self, runner):
        _, _, ck_nv, ck_amd = runner.run_single(case3_engineered_testcase(), O1, 0)
        assert "fma-contract" in ck_nv.passes_applied
        assert "fma-contract" not in ck_amd.passes_applied


# ---------------------------------------------------------------------- bt
class TestBTMiniApp:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_bt_experiment(steps=40, repeats=1)

    def test_program_valid(self):
        assert validate_kernel(build_bt_program().kernel) == []

    def test_four_rows(self, rows):
        assert len(rows) == 4
        assert [r.compiler for r in rows] == ["nvcc", "nvcc", "hipcc", "hipcc"]

    def test_flags_rendered(self, rows):
        assert rows[1].options == "-O3 -use_fast_math"
        assert rows[3].options == "-O3 -DHIP_FAST_MATH"

    def test_fast_math_is_faster(self, rows):
        """Table I's headline: fast math reduces runtime per compiler."""
        assert rows[1].model_cycles < rows[0].model_cycles
        assert rows[3].model_cycles < rows[2].model_cycles

    def test_fast_math_is_less_accurate(self, rows):
        """…at the cost of error (Table I's other half).

        Error accumulation has a stochastic component (which ULP errors a
        trajectory visits), so the per-compiler comparison is ``>=`` with at
        least one compiler strictly worse.
        """
        assert rows[1].max_rel_error >= rows[0].max_rel_error
        assert rows[3].max_rel_error >= rows[2].max_rel_error
        assert (
            rows[1].max_rel_error > rows[0].max_rel_error
            or rows[3].max_rel_error > rows[2].max_rel_error
        )

    def test_errors_are_small_relative(self, rows):
        for r in rows:
            assert 0.0 <= r.max_rel_error < 1e-8

    def test_row_cells(self, rows):
        cells = rows[0].cells()
        assert cells[0] == "nvcc" and "Mcycles" in cells[2]

    def test_deterministic_values(self):
        a = run_bt_experiment(steps=10, repeats=1)
        b = run_bt_experiment(steps=10, repeats=1)
        assert [r.max_rel_error for r in a] == [r.max_rel_error for r in b]
        assert [r.model_cycles for r in a] == [r.model_cycles for r in b]


# ----------------------------------------------------------------- stencil
class TestStencil:
    def test_valid_both_precisions(self):
        for fptype in (FPType.FP64, FPType.FP32):
            p = build_stencil_program(fptype)
            assert validate_kernel(p.kernel) == []

    def test_runs_differentially(self, runner):
        from repro.varity.inputs import InputVector
        from repro.varity.testcase import TestCase

        p = build_stencil_program()
        vec = InputVector.from_texts(
            ["+0.0", "4", "+1.0000E-1", "+1.0000", "+1.0000"], p.kernel
        )
        rn, ra, _, _ = runner.run_single(TestCase(p, [vec]), O0, 0)
        assert math.isfinite(rn.value) and math.isfinite(ra.value)
