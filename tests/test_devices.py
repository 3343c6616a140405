"""Tests for the device models (math libraries + interpreter)."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.amd import amd_mi250x
from repro.devices.interpreter import (
    CostModel,
    ExecOptions,
    Interpreter,
    fma_exact,
)
from repro.devices.mathlib.accuracy import AccuracyModel, ErrorProfile
from repro.devices.mathlib.base import (
    EXACT_FUNCTIONS,
    SUPPORTED_FUNCTIONS,
    reference_call,
)
from repro.devices.mathlib.fmod import amd_fmod, fmod_chunked_reduction, fmod_exact, nvidia_fmod
from repro.devices.mathlib.libdevice import LibdeviceMath
from repro.devices.mathlib.ocml import OcmlMath
from repro.devices.mathlib.reference import ReferenceMath
from repro.devices.mathlib.rounding_ops import amd_ceil, nvidia_ceil
from repro.devices.nvidia import nvidia_v100
from repro.devices.vendor import Vendor
from repro.errors import ExecutionError, TrapError
from repro.fp.env import FlushMode
from repro.fp.types import FPType
from repro.utils.hashing import stable_hash
from repro.fp.ulp import ulp_distance
from repro.ir.builder import IRBuilder
from repro.ir.nodes import IntConst

reasonable_doubles = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300
)


# ------------------------------------------------------------------ vendor
class TestVendor:
    def test_compiler_names(self):
        assert Vendor.NVIDIA.compiler_name == "nvcc"
        assert Vendor.AMD.compiler_name == "hipcc"

    def test_extensions(self):
        assert Vendor.NVIDIA.source_extension == ".cu"
        assert Vendor.AMD.source_extension == ".hip"

    def test_mathlib_names(self):
        assert Vendor.NVIDIA.mathlib_name == "libdevice"
        assert Vendor.AMD.mathlib_name == "ocml"


# --------------------------------------------------------------- reference
class TestReferenceCall:
    def test_basic_values(self):
        assert reference_call("cos", [0.0], FPType.FP64) == 1.0
        assert reference_call("sqrt", [4.0], FPType.FP64) == 2.0

    def test_domain_errors_give_nan(self):
        assert math.isnan(reference_call("sqrt", [-1.0], FPType.FP64))
        assert math.isnan(reference_call("asin", [2.0], FPType.FP64))

    def test_log_zero_gives_neg_inf(self):
        assert reference_call("log", [0.0], FPType.FP64) == -math.inf

    def test_overflow_gives_inf(self):
        assert reference_call("cosh", [1000.0], FPType.FP64) == math.inf

    def test_fp32_rounds_once(self):
        v = reference_call("exp", [1.0], FPType.FP32)
        assert v == float(np.float32(math.exp(1.0)))

    def test_unknown_function_rejected(self):
        with pytest.raises(KeyError):
            reference_call("frobnicate", [1.0], FPType.FP64)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            reference_call("cos", [1.0, 2.0, 3.0], FPType.FP64)

    def test_binary_functions(self):
        assert reference_call("pow", [2.0, 10.0], FPType.FP64) == 1024.0
        assert reference_call("fmin", [1.0, 2.0], FPType.FP64) == 1.0
        assert reference_call("atan2", [0.0, 1.0], FPType.FP64) == 0.0


# ---------------------------------------------------------------- accuracy
class TestAccuracyModel:
    @given(
        vendor=st.sampled_from(["nvidia-libdevice", "amd-ocml", "cpu-libm"]),
        salt=st.integers(0, 2**32),
        func=st.sampled_from(SUPPORTED_FUNCTIONS),
        variant=st.sampled_from(["default", "approx", "hipify"]),
        fptype=st.sampled_from(list(FPType)),
        args=st.lists(st.floats(width=16), min_size=1, max_size=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_cached_prefix_equals_stable_hash(self, vendor, salt, func, variant, fptype, args):
        """Hashing the constant prefix once per model changes no digest:
        both placements equal a from-scratch ``stable_hash``, on a cold
        and on a warm prefix cache."""
        m = AccuracyModel(vendor, salt=salt)
        bits = m._operand_bits(args, fptype)
        for prefix in (
            (vendor, func, variant, fptype.value),
            ("hipify-wrapper", func, fptype.value),
        ):
            expected = stable_hash(*prefix, *bits, seed=salt)
            assert m.placement_hash(prefix, args, fptype) == expected
            assert m.placement_hash(prefix, args, fptype) == expected

    def test_deterministic(self):
        m = AccuracyModel("nvidia-libdevice")
        args = [1.2345]
        assert m.error_ulps("cos", args, FPType.FP64) == m.error_ulps(
            "cos", args, FPType.FP64
        )

    def test_vendors_independent(self):
        nv = AccuracyModel("nvidia-libdevice")
        amd = AccuracyModel("amd-ocml")
        diffs = sum(
            nv.error_ulps("cos", [1.0 + i * 0.01], FPType.FP64)
            != amd.error_ulps("cos", [1.0 + i * 0.01], FPType.FP64)
            for i in range(500)
        )
        assert diffs > 0, "vendor error placements never differ"

    def test_error_rate_in_band(self):
        m = AccuracyModel("nvidia-libdevice")
        hits = sum(
            m.error_ulps("cos", [1.0 + i * 0.001], FPType.FP64) != 0
            for i in range(2000)
        )
        rate = hits / 2000
        assert 0.002 < rate < 0.08  # profile says ~1/64

    def test_error_bounded_by_profile(self):
        m = AccuracyModel("amd-ocml")
        prof = m.profile("pow", FPType.FP64, "default")
        for i in range(500):
            e = m.error_ulps("pow", [1.0 + i * 0.01, 2.5], FPType.FP64)
            assert abs(e) <= prof.max_ulps

    def test_approx_profile_much_noisier(self):
        m = AccuracyModel("nvidia-libdevice")
        default_hits = sum(
            m.error_ulps("cos", [1.0 + i * 0.01], FPType.FP32) != 0 for i in range(300)
        )
        approx_hits = sum(
            m.error_ulps("cos", [1.0 + i * 0.01], FPType.FP32, "approx") != 0
            for i in range(300)
        )
        assert approx_hits > 3 * max(1, default_hits)

    def test_apply_perturbs_by_reported_ulps(self):
        m = AccuracyModel("nvidia-libdevice")
        for i in range(200):
            x = 0.5 + i * 0.003
            ref = reference_call("sin", [x], FPType.FP64)
            out = m.apply("sin", [x], ref, FPType.FP64)
            assert ulp_distance(out, ref) == abs(m.error_ulps("sin", [x], FPType.FP64))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ErrorProfile(max_ulps=-1, rate_num=1)
        with pytest.raises(ValueError):
            ErrorProfile(max_ulps=1, rate_num=99, rate_den=8)

    def test_hipify_wrapper_rate(self):
        m = AccuracyModel("amd-ocml")
        changed = sum(
            m.apply_hipify_wrapper("fmod", [1.0 + i * 0.01, 0.3], 0.1, FPType.FP64)
            != 0.1
            for i in range(2000)
        )
        # Profile: 24/96 of operands get one extra rounding.
        assert 0.15 < changed / 2000 < 0.35


# -------------------------------------------------------------------- fmod
class TestFmodModels:
    def test_wiring_matches_paper_orientation(self):
        # §IV-D1: hipcc's __ocml_fmod_f64 returned the exact remainder.
        assert amd_fmod is fmod_exact
        assert nvidia_fmod is fmod_chunked_reduction

    def test_paper_operands(self):
        x, y = 1.5917195493481116e289, 1.5793e-307
        assert amd_fmod(x, y) == 7.1923082856620736e-309  # paper's hipcc value
        nv = nvidia_fmod(x, y)
        assert nv != amd_fmod(x, y)
        assert 0.0 < nv < abs(y)  # valid remainder magnitude, different value

    @given(reasonable_doubles, reasonable_doubles)
    @settings(max_examples=300)
    def test_models_agree_for_ordinary_gaps(self, x, y):
        if y == 0.0 or x == 0.0:
            return
        gap = abs(math.frexp(abs(x))[1] - math.frexp(abs(y))[1])
        if gap <= 52:
            assert nvidia_fmod(x, y) == amd_fmod(x, y) == math.fmod(x, y)

    def test_exact_matches_math_fmod(self):
        for x, y in [(7.5, 2.0), (-7.5, 2.0), (1e300, 3.7), (5e-324, 1.0)]:
            assert fmod_exact(x, y) == math.fmod(x, y)

    def test_ieee_special_cases(self):
        for f in (fmod_exact, fmod_chunked_reduction):
            assert math.isnan(f(math.nan, 1.0))
            assert math.isnan(f(1.0, 0.0))
            assert math.isnan(f(math.inf, 2.0))
            assert f(3.5, math.inf) == 3.5
            assert f(0.0, 2.0) == 0.0

    def test_sign_follows_dividend(self):
        assert fmod_chunked_reduction(-1e300, 1.1e-300) <= 0.0

    def test_result_magnitude_bounded(self):
        # Remainder always smaller than the divisor in magnitude.
        for x, y in [(1e308, 3e-308), (1e250, 7e-120), (9e299, 1.3e-3)]:
            r = fmod_chunked_reduction(x, y)
            assert abs(r) < abs(y)

    def test_fp32_path(self):
        x, y = 3.0e30, 7.0e-30  # gap > 23 bits: chunked path in fp32
        r_nv = nvidia_fmod(x, y, FPType.FP32)
        r_amd = amd_fmod(x, y, FPType.FP32)
        assert abs(r_nv) < abs(y) and abs(r_amd) < abs(y)


# -------------------------------------------------------------------- ceil
class TestCeilModels:
    def test_paper_quirk(self):
        # §IV-D2: ceil(+1.5955E-125) → 0 on nvcc, 1 on hipcc.
        assert nvidia_ceil(1.5955e-125) == 0.0
        assert amd_ceil(1.5955e-125) == 1.0

    def test_quirk_threshold(self):
        # The magic-add path loses values below 2^-54.
        assert nvidia_ceil(2.0**-55) == 0.0
        assert nvidia_ceil(1.0e-10) == 1.0

    @given(st.floats(min_value=-1e15, max_value=1e15, allow_nan=False))
    @settings(max_examples=300)
    def test_models_agree_for_ordinary_magnitudes(self, x):
        if x == 0.0 or abs(x) < 1e-9:
            return
        assert nvidia_ceil(x) == amd_ceil(x) == math.ceil(x)

    def test_integers_exact(self):
        for v in (2.0, -2.0, 1.0, 2.0**51, 123456.0):
            assert nvidia_ceil(v) == v

    def test_negative_values_exact(self):
        assert nvidia_ceil(-2.5) == -2.0
        assert nvidia_ceil(-1e-200) == -0.0

    def test_huge_values_pass_through(self):
        assert nvidia_ceil(2.0**53) == 2.0**53

    def test_nonfinite_pass_through(self):
        assert math.isnan(nvidia_ceil(math.nan))
        assert nvidia_ceil(math.inf) == math.inf

    def test_fp32_quirk_scales(self):
        assert nvidia_ceil(1e-30, FPType.FP32) == 0.0
        assert amd_ceil(1e-30, FPType.FP32) == 1.0


# ------------------------------------------------------------- libraries
class TestVendorLibraries:
    def test_exact_functions_identical(self):
        nv, amd = LibdeviceMath(), OcmlMath()
        for func in sorted(EXACT_FUNCTIONS):
            for x in (0.3, -2.7, 123.456, 1e-300):
                args = [x, 0.7] if func in ("fmin", "fmax") else [x]
                a = nv.call(func, args, FPType.FP64)
                b = amd.call(func, args, FPType.FP64)
                assert a == b or (math.isnan(a) and math.isnan(b))

    def test_vendors_disagree_somewhere(self):
        nv, amd = LibdeviceMath(), OcmlMath()
        diffs = sum(
            nv.call("cos", [0.1 + 0.01 * i], FPType.FP64)
            != amd.call("cos", [0.1 + 0.01 * i], FPType.FP64)
            for i in range(800)
        )
        assert diffs > 0

    def test_vendors_agree_mostly(self):
        nv, amd = LibdeviceMath(), OcmlMath()
        agreements = sum(
            nv.call("cos", [0.1 + 0.01 * i], FPType.FP64)
            == amd.call("cos", [0.1 + 0.01 * i], FPType.FP64)
            for i in range(800)
        )
        assert agreements > 700  # divergence is sparse, as on real GPUs

    def test_exceptional_results_identical(self):
        nv, amd = LibdeviceMath(), OcmlMath()
        for func, args in [("log", [-1.0]), ("sqrt", [-4.0]), ("cosh", [1e4])]:
            a = nv.call(func, args, FPType.FP64)
            b = amd.call(func, args, FPType.FP64)
            assert (math.isnan(a) and math.isnan(b)) or a == b

    def test_fdividef_quirk(self):
        nv = LibdeviceMath()
        # |y| > 2^126 → 0 (documented __fdividef behaviour).
        assert nv.call("__fdividef", [1.0, 1.0e38], FPType.FP32) == 0.0
        # sign of the zero follows the quotient sign
        out = nv.call("__fdividef", [-1.0, 1.0e38], FPType.FP32)
        assert out == 0.0 and math.copysign(1.0, out) < 0

    def test_fdividef_normal_range(self):
        nv = LibdeviceMath()
        out = nv.call("__fdividef", [1.0, 3.0], FPType.FP32)
        assert out == pytest.approx(1.0 / 3.0, rel=1e-6)

    def test_fdividef_fp64_rejected(self):
        with pytest.raises(ValueError):
            LibdeviceMath().call("__fdividef", [1.0, 2.0], FPType.FP64)

    def test_ocml_maps_fdividef_to_division(self):
        amd = OcmlMath()
        assert amd.call("__fdividef", [1.0, 1.0e38], FPType.FP32) != 0.0

    def test_hipify_variant_changes_some_results(self):
        amd = OcmlMath()
        changed = sum(
            amd.call("exp", [0.5 + i * 0.001], FPType.FP64)
            != amd.call("exp", [0.5 + i * 0.001], FPType.FP64, variant="hipify")
            for i in range(3000)
        )
        assert changed > 0

    def test_reference_math_is_clean(self):
        ref = ReferenceMath()
        for i in range(300):
            x = 0.5 + i * 0.01
            assert ref.call("cos", [x], FPType.FP64) == reference_call(
                "cos", [x], FPType.FP64
            )

    def test_salted_library_differs(self):
        a, b = LibdeviceMath(salt=0), LibdeviceMath(salt=1)
        diffs = sum(
            a.call("sin", [0.1 + 0.01 * i], FPType.FP64)
            != b.call("sin", [0.1 + 0.01 * i], FPType.FP64)
            for i in range(800)
        )
        assert diffs > 0


# --------------------------------------------------------------------- fma
class TestFmaExact:
    @given(reasonable_doubles, reasonable_doubles, reasonable_doubles)
    @settings(max_examples=200)
    def test_matches_rational_arithmetic(self, a, b, c):
        expected_fr = Fraction(a) * Fraction(b) + Fraction(c)
        try:
            expected = float(expected_fr)
        except OverflowError:
            expected = math.inf if expected_fr > 0 else -math.inf
        assert fma_exact(a, b, c) == expected

    def test_single_rounding_beats_two(self):
        # a*b overflows but a*b+c is finite: fused keeps it finite.
        a, b, c = 1.5e154, 1.4e154, -1.7e308
        assert math.isinf(a * b + c) or (a * b) == math.inf
        assert math.isfinite(fma_exact(a, b, c))

    def test_ieee_exceptional_rules(self):
        assert math.isnan(fma_exact(math.inf, 0.0, 1.0))
        assert math.isnan(fma_exact(math.inf, 1.0, -math.inf))
        assert fma_exact(math.inf, 1.0, 5.0) == math.inf
        assert fma_exact(1.0, 1.0, math.inf) == math.inf
        assert math.isnan(fma_exact(math.nan, 1.0, 1.0))

    def test_exact_cancellation(self):
        # fma computes a*b exactly: a*b - round(a*b) is the rounding error.
        a = 1.0 + 2.0**-30
        p = a * a
        err = fma_exact(a, a, -p)
        assert err != 0.0 or p == a * a


# ------------------------------------------------------------- interpreter
class TestInterpreter:
    def _run(self, kernel, inputs, mathlib=None, **opts):
        interp = Interpreter(mathlib or ReferenceMath())
        return interp.run(kernel, inputs, ExecOptions(**opts))

    def test_straight_line(self, b64):
        k = b64.kernel(
            [b64.fparam("comp"), b64.fparam("var_2")],
            [b64.aug("comp", "+", b64.mul("var_2", b64.lit(2.0)))],
        )
        r = self._run(k, [1.0, 3.0])
        assert r.value == 7.0 and r.printed == "7"

    def test_printed_matches_c_g17(self, b64):
        k = b64.kernel([b64.fparam("comp")], [b64.aug("comp", "+", b64.lit(0.1))])
        r = self._run(k, [0.2])
        assert r.printed == "%.17g" % (0.2 + 0.1)

    def test_nan_printing(self, b64):
        k = b64.kernel([b64.fparam("comp")], [b64.aug("comp", "/", b64.raw_lit("+0.0", 0.0))])
        r = self._run(k, [0.0])
        assert r.printed in ("nan", "-nan")

    def test_loop_executes_bound_times(self, b64):
        k = b64.kernel(
            [b64.fparam("comp"), b64.iparam("var_1")],
            [b64.loop("i", "var_1", [b64.aug("comp", "+", b64.lit(1.0))])],
        )
        assert self._run(k, [0.0, 5]).value == 5.0

    def test_nested_loops(self, b64):
        k = b64.kernel(
            [b64.fparam("comp"), b64.iparam("var_1")],
            [
                b64.loop(
                    "i", "var_1",
                    [b64.loop("j", "var_1", [b64.aug("comp", "+", b64.lit(1.0))])],
                )
            ],
        )
        assert self._run(k, [0.0, 4]).value == 16.0

    def test_loop_counter_visible_as_float(self, b64):
        k = b64.kernel(
            [b64.fparam("comp"), b64.iparam("var_1")],
            [b64.loop("i", "var_1", [b64.aug("comp", "+", b64.var("i"))])],
        )
        assert self._run(k, [0.0, 4]).value == 6.0  # 0+1+2+3

    def test_if_taken_and_not_taken(self, b64):
        k = b64.kernel(
            [b64.fparam("comp")],
            [b64.when(b64.cmp(">=", "comp", 1.0), [b64.aug("comp", "+", b64.lit(10.0))])],
        )
        assert self._run(k, [2.0]).value == 12.0
        assert self._run(k, [0.5]).value == 0.5

    def test_nan_comparison_false(self, b64):
        k = b64.kernel(
            [b64.fparam("comp")],
            [b64.when(b64.cmp(">=", "comp", "comp"), [b64.aug("comp", "*", b64.raw_lit("+0.0", 0.0))])],
        )
        r = self._run(k, [math.nan])
        assert math.isnan(r.value)  # branch not taken: NaN >= NaN is false

    def test_boolop_shortcircuit(self, b64):
        cond = b64.lor(b64.cmp("<", "comp", 1.0), b64.cmp(">", b64.div("comp", 0.0), 0.0))
        k = b64.kernel(
            [b64.fparam("comp")],
            [b64.when(cond, [b64.aug("comp", "+", b64.lit(1.0))])],
        )
        r = self._run(k, [0.0])
        assert r.value == 1.0
        # short-circuit: the division by zero on the right never ran
        assert r.flags["divide_by_zero"] == 0

    def test_array_fill_and_update(self, b64):
        k = b64.kernel(
            [b64.fparam("comp"), b64.iparam("var_1"), b64.aparam("var_2")],
            [
                b64.loop(
                    "i", "var_1",
                    [
                        b64.assign(b64.idx("var_2", "i"), b64.mul(b64.idx("var_2", "i"), b64.lit(2.0))),
                        b64.aug("comp", "+", b64.idx("var_2", "i")),
                    ],
                )
            ],
        )
        assert self._run(k, [0.0, 3, 1.5]).value == 9.0  # 3 × (1.5*2)

    def test_array_index_arithmetic(self, b64):
        k = b64.kernel(
            [b64.fparam("comp"), b64.iparam("var_1"), b64.aparam("var_2")],
            [
                b64.loop(
                    "i", "var_1",
                    [b64.aug("comp", "+", b64.idx("var_2", b64.add(b64.var("i"), IntConst(1))))],
                )
            ],
        )
        assert self._run(k, [0.0, 2, 4.0]).value == 8.0

    def test_fp32_per_op_rounding(self, b32):
        k = b32.kernel(
            [b32.fparam("comp")],
            [b32.aug("comp", "+", b32.lit(1.0e-10))],
        )
        r = Interpreter(ReferenceMath()).run(k, [1.0], ExecOptions())
        assert r.value == 1.0  # absorbed in fp32

    def test_flush_modes_affect_results(self, b64, b32):
        k = b32.kernel(
            [b32.fparam("comp"), b32.fparam("var_2")],
            [b32.aug("comp", "+", b32.mul("var_2", b32.lit(1.0e10)))],
        )
        subnormal32 = 1.0e-41
        keep = Interpreter(ReferenceMath()).run(k, [0.0, subnormal32], ExecOptions())
        ftz = Interpreter(ReferenceMath()).run(
            k, [0.0, subnormal32], ExecOptions(flush=FlushMode.FLUSH_INPUTS_OUTPUTS)
        )
        assert keep.value != 0.0 and ftz.value == 0.0

    def test_exception_flags_recorded(self, b64):
        k = b64.kernel(
            [b64.fparam("comp"), b64.fparam("var_2")],
            [b64.aug("comp", "+", b64.div(b64.lit(1.0), "var_2"))],
        )
        r = self._run(k, [0.0, 0.0])
        assert r.flags["divide_by_zero"] == 1

    def test_step_budget_trap(self, b64):
        k = b64.kernel(
            [b64.fparam("comp"), b64.iparam("var_1")],
            [b64.loop("i", "var_1", [b64.aug("comp", "+", b64.lit(1.0))])],
        )
        with pytest.raises(TrapError):
            Interpreter(ReferenceMath()).run(k, [0.0, 10000], ExecOptions(max_steps=100))

    def test_wrong_arity_rejected(self, b64):
        k = b64.kernel([b64.fparam("comp")], [])
        with pytest.raises(ExecutionError):
            self._run(k, [1.0, 2.0])

    def test_trace_records_stores(self, b64):
        k = b64.kernel(
            [b64.fparam("comp"), b64.iparam("var_1")],
            [
                b64.decl("tmp_1", b64.lit(2.0)),
                b64.loop("i", "var_1", [b64.aug("comp", "+", b64.var("tmp_1"))]),
            ],
        )
        r = self._run(k, [0.0, 2], trace=True)
        targets = [e.target for e in r.trace]
        assert targets == ["tmp_1", "comp", "comp"]
        assert r.trace[0].value == 2.0
        assert "f[i=1]" in r.trace[2].path

    def test_cost_accounting_monotone(self, b64):
        k = b64.kernel(
            [b64.fparam("comp"), b64.iparam("var_1")],
            [b64.loop("i", "var_1", [b64.aug("comp", "+", b64.call("cos", "comp"))])],
        )
        small = self._run(k, [0.0, 2])
        big = self._run(k, [0.0, 8])
        assert big.cost_cycles > small.cost_cycles > 0

    def test_cost_model_call_costs(self):
        cm = CostModel()
        assert cm.call_cost("cos", "default") == cm.call
        assert cm.call_cost("cos", "approx") == cm.call_approx
        assert cm.call_cost("fabs", "default") == cm.call_cheap
        assert cm.call_cost("__fdividef", "approx") == cm.call_fdividef
        assert cm.call_cost("fmod", "default") == cm.call_fmod


# ------------------------------------------------------------------ device
class TestDevice:
    def test_specs(self, nvidia_device, amd_device):
        assert nvidia_device.vendor is Vendor.NVIDIA
        assert amd_device.vendor is Vendor.AMD
        assert "V100" in nvidia_device.spec.describe()
        assert "MI250X" in amd_device.spec.describe()

    def test_trace_flag_promotes_options(self, b64, nvcc, nvidia_device):
        from repro.compilers.options import OptLevel, OptSetting

        k = b64.kernel([b64.fparam("comp")], [b64.aug("comp", "+", b64.lit(1.0))])
        ck = nvcc.compile(b64.program(k), OptSetting(OptLevel.O0))
        r = nvidia_device.execute(ck, [1.0], trace=True)
        assert len(r.trace) == 1
