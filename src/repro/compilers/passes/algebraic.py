"""Finite-math algebraic simplification (nvcc fast-math model).

Fast math lets the compiler assume no NaNs/Infs and simplify
identities that are *not* IEEE-safe:

* ``x * 0 → 0`` and ``0 * x → 0`` — wrong when x is NaN/Inf (NaN becomes 0);
* ``x - x → 0`` — wrong when x is NaN/Inf;
* ``x + 0 → x`` / ``0 + x → x`` — wrong only for signed zero, which the
  paper's discrepancy rules ignore;
* ``x * 1 → x``, ``x / 1 → x`` — always safe, included for completeness.

These rewrites are how a kernel that prints ``-inf`` or ``nan`` at O0 can
print a finite value at O3_FM — the paper's Case Study 3 family
(Inf-vs-NaN and NaN-vs-Num under optimization).  The hipcc model does not
apply them: the ``-DHIP_FAST_MATH`` route the paper uses exists precisely
because ROCm's ``-ffast-math`` NaN/Inf assumptions broke Varity tests
(§III-D), so the modeled hipcc keeps NaN/Inf semantics.
"""

from __future__ import annotations

from repro.fp.types import FPType
from repro.ir.nodes import BinOp, Const, Expr, structurally_equal
from repro.ir.visitor import Transformer
from repro.compilers.passes.base import Pass

__all__ = ["AlgebraicSimplify"]


def _is_const(expr: Expr, value: float) -> bool:
    return isinstance(expr, Const) and expr.value == value


class _Simplifier(Transformer):
    def __init__(self) -> None:
        self.n_changed = 0

    def visit_BinOp(self, node: BinOp) -> Expr:
        if node.op == "*":
            if _is_const(node.left, 0.0) or _is_const(node.right, 0.0):
                self.n_changed += 1
                return Const(0.0, "+0.0")
            if _is_const(node.right, 1.0):
                self.n_changed += 1
                return node.left
            if _is_const(node.left, 1.0):
                self.n_changed += 1
                return node.right
        elif node.op == "-":
            if structurally_equal(node.left, node.right):
                self.n_changed += 1
                return Const(0.0, "+0.0")
        elif node.op == "+":
            if _is_const(node.right, 0.0):
                self.n_changed += 1
                return node.left
            if _is_const(node.left, 0.0):
                self.n_changed += 1
                return node.right
        elif node.op == "/":
            if _is_const(node.right, 1.0):
                self.n_changed += 1
                return node.left
        return node


class AlgebraicSimplify(Pass):
    """Apply finite-math identities (value-unsafe for NaN/Inf)."""

    name = "fast-algebraic"

    def transformer(self, fptype: FPType) -> Transformer:
        return _Simplifier()
