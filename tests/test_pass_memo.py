"""Value numbering and the per-statement pass memo.

The memo must be invisible: a cold compile (memo just cleared), a warm
one and a warm one of a deep copy all equal the memo-free pipeline — each
pass over the whole body — in ``passes_applied``, in structure including
every ``Const.text`` spelling, and in handing back the input kernel object
when no counted rewrite happened.
"""

from __future__ import annotations

import copy
import os
import pickle
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.ablation import ABLATIONS, build_ablated_runner
from repro.compilers.options import PAPER_OPT_SETTINGS
from repro.compilers.passes import base as pass_base
from repro.compilers.passes.constant_folding import ConstantFolding
from repro.fp.types import FPType
from repro.fuzz.mutators import MUTATION_NAMES, apply_mutation
from repro.ir.builder import IRBuilder
from repro.ir.nodes import FMA, Call, Const, UnOp, VarRef, value_number
from repro.ir.visitor import walk
from repro.stacks import STACK_NAMES, get_stack
from repro.varity.config import GeneratorConfig
from repro.varity.generator import ProgramGenerator


def _nan(payload: int) -> float:
    (value,) = struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000000 | payload))
    return value


def _numbered(node):
    return "_value_number" in node.__dict__


class TestValueNumber:
    def test_equal_structures_share_one_number(self, b64):
        def build():
            product = b64.mul("var_2", b64.raw_lit("+1.5", 1.5))
            return b64.assign("comp", b64.add(product, b64.call("cos", "var_3")))

        a, b = build(), build()
        assert a is not b
        assert value_number(a) == value_number(b)
        assert value_number(a.expr.left) == value_number(b.expr.left)

    def test_different_structures_get_different_numbers(self, b64):
        assert value_number(b64.add("var_2", "var_3")) != value_number(b64.add("var_3", "var_2"))
        assert value_number(b64.add("var_2", "var_3")) != value_number(b64.sub("var_2", "var_3"))

    def test_text_spellings_of_one_value_differ(self):
        a, b = Const(1.5, "+1.5"), Const(1.5, "+1.5000E0")
        assert a == b  # ``==`` ignores the spelling ...
        assert value_number(a) != value_number(b)  # ... a number does not

    def test_signed_zeros_differ(self):
        assert -0.0 == 0.0
        assert value_number(Const(-0.0, "-0.0")) != value_number(Const(0.0, "-0.0"))

    def test_nan_payloads_differ(self):
        a, b = Const(_nan(1), None), Const(_nan(2), None)
        assert struct.pack("<d", a.value) != struct.pack("<d", b.value)
        assert value_number(a) != value_number(b)
        assert value_number(a) == value_number(Const(_nan(1), None))

    def test_call_variants_differ(self):
        x = VarRef("var_2")
        assert value_number(Call("cos", [x])) != value_number(Call("cos", [x], variant="approx"))

    def test_negated_product_differs(self):
        x, y, z = VarRef("var_2"), VarRef("var_3"), VarRef("var_4")
        assert value_number(FMA(x, y, z)) != value_number(FMA(x, y, z, negate_product=True))

    def test_number_is_cached_on_the_node(self, b64):
        stmt = b64.assign("comp", b64.add("var_2", b64.lit(2.0)))
        assert not _numbered(stmt)
        first = value_number(stmt)
        assert _numbered(stmt) and all(_numbered(n) for n in walk(stmt))
        assert value_number(stmt) == first

    def test_pickle_bytes_ignore_the_cached_number(self):
        program = ProgramGenerator(GeneratorConfig.fp32()).generate(5)
        before = pickle.dumps(program.kernel)
        before_high = pickle.dumps(program.kernel, protocol=pickle.HIGHEST_PROTOCOL)
        for stmt in program.kernel.body:
            value_number(stmt)
        program.kernel.structure_key()
        assert pickle.dumps(program.kernel) == before
        assert pickle.dumps(program.kernel, protocol=pickle.HIGHEST_PROTOCOL) == before_high
        clone = pickle.loads(before)
        assert not any(_numbered(n) for s in clone.body for n in walk(s))
        assert not any(_numbered(n) for s in copy.deepcopy(program.kernel).body for n in walk(s))
        # The kernel's cached structure key stays behind too.
        assert vars(clone).keys() == vars(copy.deepcopy(program.kernel)).keys() == {
            "name", "params", "body", "fptype"
        }


# -------------------------------------------------------------------------
# memo transparency
# -------------------------------------------------------------------------

_COMPILERS = [get_stack(name).compiler() for name in STACK_NAMES]
for _spec in ABLATIONS:
    _runner = build_ablated_runner(_spec)
    _COMPILERS += [_runner.lhs_compiler, _runner.rhs_compiler]

_CONFIGS = {
    "fp64": GeneratorConfig.fp64,
    "fp32": GeneratorConfig.fp32,
    "fp16": GeneratorConfig.fp16,
}

#: ``HYPOTHESIS_PROFILE=deep`` (registered in conftest.py) widens the
#: search, as the CI exec-bench job runs it.
_transparency = (
    settings.get_profile("deep")
    if os.environ.get("HYPOTHESIS_PROFILE") == "deep"
    else settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
)


def _programs(lane: str, seed: int, mutation_seed: int):
    """A generated program and up to two fuzz mutants of it."""
    gen = ProgramGenerator(_CONFIGS[lane]())
    program, donor = gen.generate(seed), gen.generate(seed + 1)
    out = [program]
    for i, name in enumerate(MUTATION_NAMES):
        mutated = apply_mutation(program.kernel, name, mutation_seed + i, donor.kernel)
        if mutated is not None and len(out) < 3:
            out.append(program.with_kernel(mutated))
    return out


def _spelling(kernel):
    """Every literal's text, in walk order (``==`` ignores them)."""
    return [n.text for s in kernel.body for n in walk(s) if isinstance(n, Const)]


def _reference(compiler, kernel, opt):
    """The pipeline without the memo: each pass over the whole body."""
    applied = []
    for p in compiler.pipeline(opt, kernel.fptype):
        if not p.applies_to(kernel.fptype):
            continue
        rewriter = p.transformer(kernel.fptype)
        body = rewriter.transform_body(kernel.body)
        if rewriter.n_changed:
            kernel = kernel.with_body(body)
            applied.append(p.name)
    return kernel, tuple(applied)


def _assert_same(compiled, compiled_input, reference, reference_input):
    kernel, applied = reference
    assert compiled.passes_applied == applied
    assert compiled.kernel == kernel
    assert _spelling(compiled.kernel) == _spelling(kernel)
    assert (compiled.kernel is compiled_input) == (kernel is reference_input)


class TestMemoTransparency:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 2),
        mutation_seed=st.integers(min_value=0, max_value=2**31 - 1),
        lane=st.sampled_from(sorted(_CONFIGS)),
    )
    @_transparency
    def test_warm_and_cold_compiles_equal_the_memo_free_pipeline(self, seed, mutation_seed, lane):
        for program in _programs(lane, seed, mutation_seed):
            twin = copy.deepcopy(program)  # equal structure, no shared objects
            # Cleared once per program, so every compiler and setting after
            # the first also meets the entries its siblings left behind.
            pass_base._clear_memo()
            for compiler in _COMPILERS:
                kernel = compiler._front_end(program)
                twin_kernel = compiler._front_end(twin)
                for opt in PAPER_OPT_SETTINGS:
                    reference = _reference(compiler, kernel, opt)
                    cold = compiler._specialize(program, kernel, opt)
                    misses = pass_base._memo_stats["misses"]
                    hits = pass_base._memo_stats["hits"]
                    warm = compiler._specialize(program, kernel, opt)
                    warm_twin = compiler._specialize(twin, twin_kernel, opt)
                    assert pass_base._memo_stats["misses"] == misses
                    if kernel.body and compiler.pipeline(opt, kernel.fptype):
                        assert pass_base._memo_stats["hits"] > hits
                    _assert_same(cold, kernel, reference, kernel)
                    _assert_same(warm, kernel, reference, kernel)
                    _assert_same(warm_twin, twin_kernel, reference, kernel)
                    # an unchanged statement is the caller's, not the memo's
                    theirs = {id(s) for s in kernel.body}
                    assert not any(id(s) in theirs for s in warm_twin.kernel.body)

    def test_equal_rewritten_statements_pickle_as_without_the_memo(self):
        """Equal top-level statements — distinct objects or one object twice —
        come out as distinct objects, so the kernel pickles to the bytes the
        memo-free pipeline's does, cold and on a memo hit."""
        for fptype in (FPType.FP64, FPType.FP32):
            b = IRBuilder(fptype)

            def stmt():
                product = b.mul(b.add("var_2", b.lit(0.0)), "var_3")
                return b.aug("comp", "+", b.add(product, b.call("cos", b.mul(b.lit(2.0), b.lit(3.0)))))

            def kernel():
                shared = stmt()
                params = [b.fparam("comp"), b.fparam("var_2"), b.fparam("var_3")]
                return b.kernel(params, [stmt(), stmt(), shared, shared])

            program = ProgramGenerator(GeneratorConfig.fp64()).generate(0)
            pass_base._clear_memo()
            for compiler in _COMPILERS:
                for opt in PAPER_OPT_SETTINGS:
                    for k in (kernel(), kernel()):  # cold, then warm
                        compiled = compiler._specialize(program.with_kernel(k), k, opt)
                        reference, applied = _reference(compiler, k, opt)
                        assert compiled.passes_applied == applied
                        blob = pickle.dumps(compiled.kernel)
                        assert blob == pickle.dumps(reference)
                        assert pickle.loads(blob) == reference
                        assert len({id(s) for s in compiled.kernel.body}) == (
                            len({id(s) for s in reference.body})
                        )
            assert pass_base._memo_stats["hits"] > 0

    def test_fptype_is_part_of_the_key(self):
        """One statement, one spelling: FP32 and FP64 fold it differently."""
        fold = ConstantFolding()
        pass_base._clear_memo()
        folded = {}
        for fptype in (FPType.FP64, FPType.FP32, FPType.FP64):
            b = IRBuilder(fptype)
            third = b.div(b.raw_lit("+1.0", 1.0), b.raw_lit("+3.0", 3.0))
            k = b.kernel([b.fparam("comp")], [b.assign("comp", third)])
            folded.setdefault(fptype, []).append(fold.run(k).body[0].expr.value)
        assert pass_base._memo_stats["hits"] == 1
        assert folded[FPType.FP64] == [1.0 / 3.0, 1.0 / 3.0]
        assert folded[FPType.FP32][0] != 1.0 / 3.0

    def test_memo_stays_bounded(self, b64, monkeypatch):
        monkeypatch.setattr(pass_base, "MEMO_MAX", 4)
        pass_base._clear_memo()
        fold = ConstantFolding()
        for i in range(10):
            stmt = b64.assign("comp", b64.add(b64.lit(float(i)), b64.lit(1.0)))
            k = b64.kernel([b64.fparam("comp")], [stmt])
            fold.run(k)
        assert len(pass_base._memo) == 4


# -------------------------------------------------------------------------
# the change-count rule
# -------------------------------------------------------------------------


class TestChangeCountRule:
    """ConstantFolding's ``+c → c`` is uncounted: alone it keeps the input
    kernel object; beside a counted fold both rewrites survive."""

    def _uncounted_only(self, b):
        return b.kernel(
            [b.fparam("comp"), b.fparam("var_2")],
            [b.assign("comp", b.mul(UnOp("+", b.raw_lit("+1.5", 1.5)), "var_2"))],
        )

    def _with_counted(self, b):
        return b.kernel(
            [b.fparam("comp"), b.fparam("var_2")],
            [
                b.assign("comp", b.mul(UnOp("+", b.raw_lit("+1.5", 1.5)), "var_2")),
                b.aug("comp", "+", b.mul(b.lit(2.0), b.lit(3.0))),
            ],
        )

    def test_uncounted_rewrite_returns_the_input_kernel(self):
        fold = ConstantFolding()
        pass_base._clear_memo()
        cold_input = self._uncounted_only(IRBuilder(FPType.FP64))
        assert fold.run(cold_input) is cold_input
        assert pass_base._memo_stats["misses"] == 1
        warm_input = self._uncounted_only(IRBuilder(FPType.FP64))
        assert fold.run(warm_input) is warm_input
        assert pass_base._memo_stats["hits"] == 1

    def test_counted_fold_keeps_both_rewrites(self):
        fold = ConstantFolding()
        pass_base._clear_memo()
        b = IRBuilder(FPType.FP64)
        for expected_hits in (0, 2):
            kernel = self._with_counted(b)
            out = fold.run(kernel)
            assert pass_base._memo_stats["hits"] == expected_hits
            assert out is not kernel
            first, second = out.body
            assert first.expr.left == Const(1.5) and first.expr.left.text == "+1.5"
            assert isinstance(second.expr, Const) and second.expr.value == 6.0
            assert out.body[0] is not kernel.body[0]
