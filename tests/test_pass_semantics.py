"""Semantic contracts of the optimization passes, over generated programs.

Each pass has a precise contract: arithmetic constant folding is
*value-preserving* (same rounding as the device), reassociation preserves
the term multiset, reciprocal substitution is exact for power-of-two
divisors, contraction is strictly more aggressive on nvcc than hipcc.
These tests check the contracts on whole random programs, not toy
expressions.
"""

from __future__ import annotations

import math

import pytest

from repro.codegen.base import EmitterConfig, render_expr
from repro.compilers.passes.constant_folding import ConstantFolding
from repro.compilers.passes.fma_contraction import (
    FMAContraction,
    HIPCC_PATTERNS,
    NVCC_PATTERNS,
)
from repro.compilers.passes.reassociation import Reassociation, _collect_chain
from repro.compilers.passes.reciprocal import ReciprocalDivision
from repro.devices.interpreter import ExecOptions, Interpreter
from repro.devices.mathlib.libdevice import LibdeviceMath
from repro.errors import TrapError
from repro.fp.types import FPType
from repro.ir.builder import IRBuilder
from repro.ir.nodes import BinOp, Const, FMA, VarRef
from repro.ir.validate import validate_kernel
from repro.ir.visitor import collect, walk
from repro.varity.config import GeneratorConfig
from repro.varity.generator import ProgramGenerator
from repro.varity.inputs import InputGenerator

SEEDS = list(range(20))


def _run(kernel, inputs):
    return Interpreter(LibdeviceMath()).run(kernel, inputs, ExecOptions())


@pytest.fixture(scope="module")
def programs_with_inputs():
    cfg = GeneratorConfig.fp64()
    gen = ProgramGenerator(cfg)
    igen = InputGenerator(cfg)
    out = []
    for seed in SEEDS:
        p = gen.generate(seed)
        vec = igen.generate(p.kernel, seed + 1)
        out.append((p, vec))
    return out


class TestArithmeticFoldingPreservesValues:
    def test_identical_results(self, programs_with_inputs):
        fold = ConstantFolding(fold_math_calls=False)
        for program, vec in programs_with_inputs:
            folded = fold.run(program.kernel)
            try:
                before = _run(program.kernel, vec.values)
                after = _run(folded, vec.values)
            except TrapError:
                continue
            assert before.printed == after.printed, program.program_id

    def test_folded_kernels_valid(self, programs_with_inputs):
        fold = ConstantFolding(fold_math_calls=True)
        for program, _ in programs_with_inputs:
            assert validate_kernel(fold.run(program.kernel)) == []

    def test_folding_reduces_or_keeps_size(self, programs_with_inputs):
        fold = ConstantFolding(fold_math_calls=True)
        for program, _ in programs_with_inputs:
            before = sum(1 for s in program.kernel.body for _ in walk(s))
            after = sum(1 for s in fold.run(program.kernel).body for _ in walk(s))
            assert after <= before

    def test_idempotent(self, programs_with_inputs):
        fold = ConstantFolding(fold_math_calls=True)
        for program, _ in programs_with_inputs:
            once = fold.run(program.kernel)
            twice = fold.run(once)
            assert once == twice


class TestReassociationContract:
    def test_term_multisets_preserved(self, programs_with_inputs):
        reassoc = Reassociation()
        for program, _ in programs_with_inputs:
            before = program.kernel
            after = reassoc.run(before)
            if after is before:
                continue
            # Every *maximal* +/* chain in the output has the same term
            # multiset as the corresponding input chain (association may
            # change, membership may not).  Terms are compared by their
            # printed form: a term may itself contain a rebalanced nested
            # chain, which printing (association-insensitive for + and *)
            # deliberately ignores.
            cfg = EmitterConfig(fptype=before.fptype)

            def maximal_chains(expr, out):
                if isinstance(expr, BinOp) and expr.op in ("+", "*"):
                    terms = []
                    _collect_chain(expr, expr.op, terms)
                    if len(terms) >= 3:
                        out.append(sorted(render_expr(t, cfg) for t in terms))
                    for t in terms:
                        maximal_chains(t, out)
                else:
                    for child in expr.children():
                        maximal_chains(child, out)

            def chain_signatures(kernel):
                sigs = []
                for stmt in kernel.body:
                    for node in stmt.children():
                        maximal_chains(node, sigs)
                return sorted(map(tuple, sigs))

            assert chain_signatures(before) == chain_signatures(after)

    def test_valid_after(self, programs_with_inputs):
        reassoc = Reassociation()
        for program, _ in programs_with_inputs:
            assert validate_kernel(reassoc.run(program.kernel)) == []


class TestReciprocalContract:
    def test_power_of_two_divisors_exact(self):
        b = IRBuilder(FPType.FP64)
        for c in (2.0, 0.5, 4.0, 1024.0, 2.0**-30):
            k = b.kernel(
                [b.fparam("comp"), b.fparam("var_2")],
                [b.aug("comp", "+", b.div("var_2", Const(c, None)))],
            )
            rewritten = ReciprocalDivision().run(k)
            for x in (3.7, -1.1e300, 5e-310, 0.3333333333333333):
                before = _run(k, [0.0, x])
                after = _run(rewritten, [0.0, x])
                assert before.printed == after.printed

    def test_general_divisor_within_one_ulp(self):
        from repro.fp.ulp import ulp_distance

        b = IRBuilder(FPType.FP64)
        k = b.kernel(
            [b.fparam("comp"), b.fparam("var_2")],
            [b.aug("comp", "+", b.div("var_2", b.lit(3.0)))],
        )
        rewritten = ReciprocalDivision().run(k)
        for i in range(50):
            x = 0.1 + i * 0.37
            before = _run(k, [0.0, x]).value
            after = _run(rewritten, [0.0, x]).value
            assert ulp_distance(before, after) <= 1

    def test_valid_after(self, programs_with_inputs):
        recip = ReciprocalDivision()
        for program, _ in programs_with_inputs:
            assert validate_kernel(recip.run(program.kernel)) == []


class TestContractionContract:
    def test_nvcc_contracts_superset(self, programs_with_inputs):
        """Every FMA hipcc produces, nvcc produces too (pattern subset)."""
        nv = FMAContraction(NVCC_PATTERNS)
        hip = FMAContraction(HIPCC_PATTERNS)
        for program, _ in programs_with_inputs:
            n_nv = sum(
                1 for s in nv.run(program.kernel).body
                for n in walk(s) if isinstance(n, FMA)
            )
            n_hip = sum(
                1 for s in hip.run(program.kernel).body
                for n in walk(s) if isinstance(n, FMA)
            )
            assert n_nv >= n_hip

    def test_contraction_matches_fused_semantics(self):
        """fma(a,b,c) node evaluates to the correctly rounded a*b+c."""
        from repro.devices.interpreter import fma_exact

        b = IRBuilder(FPType.FP64)
        k = b.kernel(
            [b.fparam("comp"), b.fparam("var_2"), b.fparam("var_3"), b.fparam("var_4")],
            [b.aug("comp", "+", b.add(b.mul("var_2", "var_3"), "var_4"))],
        )
        contracted = FMAContraction(NVCC_PATTERNS).run(k)
        cases = [
            (1.0 + 2.0**-30, 1.0 - 2.0**-30, -1.0),
            (1.5e154, 1.4e154, -1.7e308),
            (3.0, 7.0, 0.1),
        ]
        for a, bb, c in cases:
            result = _run(contracted, [0.0, a, bb, c]).value
            assert result == fma_exact(a, bb, c)

    def test_valid_after(self, programs_with_inputs):
        for patterns in (NVCC_PATTERNS, HIPCC_PATTERNS):
            contract = FMAContraction(patterns)
            for program, _ in programs_with_inputs:
                assert validate_kernel(contract.run(program.kernel)) == []
