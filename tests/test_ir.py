"""Tests for the IR (nodes, visitors, printer, builder, validation, metrics)."""

from __future__ import annotations

import math

import pytest

from repro.codegen.base import EmitterConfig, render_expr, render_kernel_body, render_signature
from repro.fp.types import FPType
from repro.ir.builder import IRBuilder
from repro.ir.metrics import aggregate_metrics, compute_metrics
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
    FMA,
    For,
    If,
    IntConst,
    UnOp,
    VarRef,
    structurally_equal,
)
from repro.ir.program import Kernel, Param, Program
from repro.ir.types import IRType
from repro.ir.validate import validate_kernel
from repro.ir.visitor import Transformer, Visitor, collect, walk


# ------------------------------------------------------------------- nodes
class TestNodeConstruction:
    def test_binop_validates_operator(self):
        with pytest.raises(ValueError):
            BinOp("%", Const(1.0), Const(2.0))

    def test_unop_validates_operator(self):
        with pytest.raises(ValueError):
            UnOp("!", Const(1.0))

    def test_compare_validates_operator(self):
        with pytest.raises(ValueError):
            Compare("<>", Const(1.0), Const(2.0))

    def test_boolop_validates_operator(self):
        with pytest.raises(ValueError):
            BoolOp("and", Compare("<", Const(1.0), Const(2.0)), Compare("<", Const(1.0), Const(2.0)))

    def test_augassign_validates_operator(self):
        with pytest.raises(ValueError):
            AugAssign(VarRef("comp"), "%", Const(1.0))

    def test_call_args_become_tuple(self):
        c = Call("cos", [Const(1.0)])
        assert isinstance(c.args, tuple)

    def test_for_body_becomes_tuple(self):
        f = For("i", VarRef("var_1"), [AugAssign(VarRef("comp"), "+", Const(1.0))])
        assert isinstance(f.body, tuple)

    def test_children_order(self):
        e = BinOp("+", VarRef("a"), VarRef("b"))
        assert [c.name for c in e.children()] == ["a", "b"]


class TestStructuralEquality:
    def test_equal_trees(self):
        a = BinOp("+", Const(1.0), VarRef("x"))
        b = BinOp("+", Const(1.0), VarRef("x"))
        assert a == b and hash(a) == hash(b)

    def test_different_ops(self):
        assert BinOp("+", Const(1.0), Const(2.0)) != BinOp("-", Const(1.0), Const(2.0))

    def test_signed_zero_constants_differ(self):
        assert Const(0.0) != Const(-0.0)

    def test_nan_constant_equals_itself(self):
        assert Const(math.nan) == Const(math.nan)

    def test_call_variant_matters(self):
        a = Call("cos", [VarRef("x")])
        b = Call("cos", [VarRef("x")], variant="approx")
        assert a != b

    def test_fma_negate_matters(self):
        args = (VarRef("a"), VarRef("b"), VarRef("c"))
        assert FMA(*args) != FMA(*args, negate_product=True)

    def test_not_equal_to_non_node(self):
        assert Const(1.0) != 1.0

    def test_nested_differs_deep(self):
        a = If(Compare("<", VarRef("x"), Const(1.0)), [AugAssign(VarRef("comp"), "+", Const(2.0))])
        b = If(Compare("<", VarRef("x"), Const(1.0)), [AugAssign(VarRef("comp"), "+", Const(3.0))])
        assert a != b

    def test_structurally_equal_function(self):
        assert structurally_equal(VarRef("x"), VarRef("x"))
        assert not structurally_equal(VarRef("x"), VarRef("y"))


# ----------------------------------------------------------------- program
class TestKernelAndProgram:
    def _kernel(self, b: IRBuilder) -> Kernel:
        return b.kernel(
            params=[b.fparam("comp"), b.iparam("var_1"), b.aparam("var_2")],
            body=[b.aug("comp", "+", b.lit(1.0))],
        )

    def test_param_queries(self, b64):
        k = self._kernel(b64)
        assert k.param("comp").type is IRType.FLOAT
        assert [p.name for p in k.array_params] == ["var_2"]
        assert [p.name for p in k.int_params] == ["var_1"]
        with pytest.raises(KeyError):
            k.param("nope")

    def test_with_body_shares_signature(self, b64):
        k = self._kernel(b64)
        k2 = k.with_body([])
        assert k2.params == k.params and len(k2.body) == 0

    def test_param_c_decl(self):
        assert Param("var_2", IRType.FLOAT_PTR).c_decl("double") == "double* var_2"
        assert Param("var_1", IRType.INT).c_decl("double") == "int var_1"

    def test_marked_hipify(self, b64):
        p = b64.program(self._kernel(b64), program_id="t")
        h = p.marked_hipify()
        assert h.via_hipify and not p.via_hipify
        assert h.program_id == p.program_id

    def test_irtype_element(self):
        assert IRType.FLOAT_PTR.element is IRType.FLOAT
        with pytest.raises(ValueError):
            IRType.FLOAT.element


# ----------------------------------------------------------------- visitor
class TestWalkAndCollect:
    def test_walk_preorder(self):
        e = BinOp("+", VarRef("a"), BinOp("*", VarRef("b"), VarRef("c")))
        kinds = [type(n).__name__ for n in walk(e)]
        assert kinds == ["BinOp", "VarRef", "BinOp", "VarRef", "VarRef"]

    def test_collect_predicate(self):
        e = BinOp("+", Const(1.0), BinOp("*", Const(2.0), VarRef("x")))
        consts = collect(e, lambda n: isinstance(n, Const))
        assert sorted(c.value for c in consts) == [1.0, 2.0]

    def test_visitor_dispatch(self):
        seen = []

        class V(Visitor):
            def visit_VarRef(self, node):
                seen.append(node.name)

        # No BinOp hook → generic_visit recurses into children → VarRef hook.
        V().visit(BinOp("+", VarRef("a"), VarRef("b")))
        assert seen == ["a", "b"]


class TestTransformer:
    def test_identity_shares_nodes(self):
        e = BinOp("+", VarRef("a"), Call("cos", [VarRef("b")]))
        assert Transformer().transform_expr(e) is e

    def test_rewrite_leaf_rebuilds_spine(self):
        class Renamer(Transformer):
            def visit_VarRef(self, node):
                return VarRef("z") if node.name == "a" else node

        e = BinOp("+", VarRef("a"), VarRef("b"))
        out = Renamer().transform_expr(e)
        assert out == BinOp("+", VarRef("z"), VarRef("b"))
        assert out is not e

    def test_stmt_deletion(self):
        class DropDecls(Transformer):
            def visit_Decl(self, node):
                return None

        body = [Decl("tmp_1", Const(1.0)), AugAssign(VarRef("comp"), "+", Const(2.0))]
        out = DropDecls().transform_body(body)
        assert len(out) == 1 and isinstance(out[0], AugAssign)

    def test_stmt_expansion(self):
        class Duplicate(Transformer):
            def visit_AugAssign(self, node):
                return [node, node]

        body = [AugAssign(VarRef("comp"), "+", Const(1.0))]
        assert len(Duplicate().transform_body(body)) == 2

    def test_transform_inside_loops(self):
        class ConstBump(Transformer):
            def visit_Const(self, node):
                return Const(node.value + 1.0)

        loop = For("i", VarRef("var_1"), [AugAssign(VarRef("comp"), "+", Const(1.0))])
        out = ConstBump().transform_stmt(loop)
        assert out.body[0].expr.value == 2.0

    def test_hooks_are_inherited_and_overridden(self):
        class Base(Transformer):
            def visit_VarRef(self, node):
                return VarRef("z")

            def visit_Const(self, node):
                return Const(1.0)

        class Child(Base):
            def visit_Const(self, node):
                return Const(2.0)

        e = BinOp("+", VarRef("a"), Const(0.0))
        assert Base().transform_expr(e) == BinOp("+", VarRef("z"), Const(1.0))
        assert Child().transform_expr(e) == BinOp("+", VarRef("z"), Const(2.0))

    def test_expr_hook_returning_none_rejected(self):
        class Bad(Transformer):
            def visit_Const(self, node):
                return None

        with pytest.raises(TypeError):
            Bad().transform_expr(Const(1.0))


# ----------------------------------------------------------------- printer
FP64_CFG = EmitterConfig(fptype=FPType.FP64)


class TestPrinter:
    def test_expr_precedence(self):
        e = BinOp("*", BinOp("+", VarRef("a"), VarRef("b")), VarRef("c"))
        assert render_expr(e, FP64_CFG) == "(a + b) * c"

    def test_right_assoc_parens(self):
        e = BinOp("-", VarRef("a"), BinOp("-", VarRef("b"), VarRef("c")))
        assert render_expr(e, FP64_CFG) == "a - (b - c)"

    def test_division_chain(self):
        e = BinOp("/", BinOp("/", VarRef("a"), VarRef("b")), VarRef("c"))
        assert render_expr(e, FP64_CFG) == "a / b / c"

    def test_const_uses_text(self):
        const = Const(1.5793e-307, "+1.5793E-307")
        assert render_expr(const, FP64_CFG) == "+1.5793E-307"

    def test_kernel_renders(self, b64):
        k = b64.kernel(
            params=[b64.fparam("comp"), b64.iparam("var_1")],
            body=[
                b64.loop("i", "var_1", [b64.aug("comp", "+", b64.lit(1.0))]),
                b64.when(b64.cmp(">=", "comp", 0.0), [b64.aug("comp", "*", b64.lit(2.0))]),
            ],
        )
        text = render_kernel_body(k, FP64_CFG)
        assert "for (int i = 0; i < var_1; ++i) {" in text
        assert "if (comp >= +0.0) {" in text
        assert render_signature(k, FP64_CFG) == "double comp, int var_1"


# ----------------------------------------------------------------- builder
class TestBuilder:
    def test_coercions(self, b64):
        assert isinstance(b64.expr(1.5), Const)
        assert isinstance(b64.expr(3), IntConst)
        assert isinstance(b64.expr("x"), VarRef)

    def test_bool_rejected(self, b64):
        with pytest.raises(TypeError):
            b64.expr(True)

    def test_lit_has_canonical_text(self, b64):
        c = b64.lit(1.5793e-307)
        assert c.text == "+1.5793E-307"

    def test_fp32_lit_suffix(self, b32):
        assert b32.lit(2.0).text.endswith("F")

    def test_operators(self, b64):
        e = b64.add(b64.mul("a", "b"), 1.0)
        assert isinstance(e, BinOp) and e.op == "+"

    def test_aug_accepts_string_target(self, b64):
        s = b64.aug("comp", "+", 1.0)
        assert isinstance(s.target, VarRef) and s.target.name == "comp"

    def test_program_wrapper(self, b64):
        k = b64.kernel([b64.fparam("comp")], [b64.aug("comp", "+", 1.0)])
        p = b64.program(k, program_id="xyz")
        assert p.program_id == "xyz" and p.fptype is FPType.FP64


# ---------------------------------------------------------------- validate
class TestValidation:
    def _valid(self, b: IRBuilder):
        return b.kernel(
            params=[b.fparam("comp"), b.iparam("var_1"), b.fparam("var_2"), b.aparam("var_3")],
            body=[
                b.decl("tmp_1", b.add("var_2", 1.0)),
                b.loop("i", "var_1", [b.assign(b.idx("var_3", "i"), b.var("tmp_1"))]),
                b.when(b.cmp("<", "comp", "var_2"), [b.aug("comp", "+", b.var("tmp_1"))]),
            ],
        )

    def test_valid_kernel_passes(self, b64):
        assert validate_kernel(self._valid(b64)) == []

    def test_first_param_must_be_comp(self, b64):
        k = b64.kernel([b64.fparam("x")], [b64.aug("x", "+", 1.0)])
        issues = validate_kernel(k)
        assert any("comp" in str(i) for i in issues)

    def test_duplicate_params_detected(self, b64):
        k = Kernel(
            [Param("comp", IRType.FLOAT), Param("comp", IRType.FLOAT)],
            [],
            FPType.FP64,
        )
        assert any("duplicate" in str(i) for i in validate_kernel(k))

    def test_unknown_name_detected(self, b64):
        k = b64.kernel([b64.fparam("comp")], [b64.aug("comp", "+", b64.var("ghost"))])
        assert any("ghost" in str(i) for i in validate_kernel(k))

    def test_array_used_as_scalar_detected(self, b64):
        k = b64.kernel(
            [b64.fparam("comp"), b64.aparam("var_2")],
            [b64.aug("comp", "+", b64.var("var_2"))],
        )
        assert any("as scalar" in str(i) for i in validate_kernel(k))

    def test_subscript_of_scalar_detected(self, b64):
        k = b64.kernel(
            [b64.fparam("comp"), b64.fparam("var_2")],
            [b64.aug("comp", "+", b64.idx("var_2", 0))],
        )
        assert any("non-array" in str(i) for i in validate_kernel(k))

    def test_non_boolean_condition_detected(self, b64):
        k = b64.kernel(
            [b64.fparam("comp")],
            [If(VarRef("comp"), [AugAssign(VarRef("comp"), "+", Const(1.0))])],
        )
        assert any("boolean" in str(i) for i in validate_kernel(k))

    def test_loop_var_shadowing_detected(self, b64):
        inner = For("i", VarRef("var_1"), [AugAssign(VarRef("comp"), "+", Const(1.0))])
        outer = For("i", VarRef("var_1"), [inner])
        k = b64.kernel([b64.fparam("comp"), b64.iparam("var_1")], [outer])
        assert any("shadows" in str(i) for i in validate_kernel(k))

    def test_redeclaration_detected(self, b64):
        k = b64.kernel(
            [b64.fparam("comp")],
            [b64.decl("tmp_1", b64.lit(1.0)), b64.decl("tmp_1", b64.lit(2.0))],
        )
        assert any("redeclared" in str(i) for i in validate_kernel(k))

    def test_unknown_function_detected_with_allowlist(self, b64):
        k = b64.kernel([b64.fparam("comp")], [b64.aug("comp", "+", b64.call("frobnicate", 1.0))])
        assert any("frobnicate" in str(i) for i in validate_kernel(k, known_functions=["cos"]))

    def test_assignment_to_unknown_scalar(self, b64):
        k = b64.kernel([b64.fparam("comp")], [b64.assign("nope", b64.lit(1.0))])
        assert any("unknown scalar" in str(i) for i in validate_kernel(k))


# ----------------------------------------------------------------- metrics
class TestMetrics:
    def test_counts(self, b64):
        k = b64.kernel(
            params=[b64.fparam("comp"), b64.iparam("var_1"), b64.aparam("var_2")],
            body=[
                b64.decl("tmp_1", b64.div(b64.lit(1.0), b64.lit(3.0))),
                b64.loop(
                    "i",
                    "var_1",
                    [
                        b64.assign(b64.idx("var_2", "i"), b64.call("cos", b64.var("tmp_1"))),
                        b64.loop("j", "var_1", [b64.aug("comp", "+", b64.idx("var_2", "j"))]),
                    ],
                ),
                b64.when(b64.cmp("<", "comp", 0.0), [b64.aug("comp", "*", b64.lit(2.0))]),
            ],
        )
        m = compute_metrics(k)
        assert m.n_loops == 2
        assert m.max_loop_depth == 2
        assert m.n_conditionals == 1
        assert m.n_temporaries == 1
        assert m.n_math_calls["cos"] == 1
        assert m.n_binops["/"] == 1
        assert m.n_array_params == 1
        assert m.uses_division and m.uses_math

    def test_aggregate_over_corpus(self, small_fp64_corpus):
        stats = aggregate_metrics(t.program for t in small_fp64_corpus)
        assert stats["n_programs"] == len(small_fp64_corpus)
        # Table III characteristics must all be exercised by the corpus.
        assert stats["frac_with_loops"] > 0
        assert stats["frac_with_conditionals"] > 0
        assert stats["frac_with_math_calls"] > 0.5
        assert set(stats["binop_histogram"]) <= {"+", "-", "*", "/"}

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_metrics([])
