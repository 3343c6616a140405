"""Constant folding.

Two tiers:

* **Arithmetic folding** (both compilers, ``-O1`` and up): ``Const op
  Const`` is evaluated at compile time in round-to-nearest target
  precision — bit-identical to what the device would compute, so this
  tier never changes results and never diverges.

* **Math-call folding** (nvcc only in our model): calls whose arguments
  are all constants are evaluated with the *host* math library (the
  correctly-rounded reference), not the device library.  On real systems
  compile-time evaluation of ``cos(2.0)`` uses the compiler host's libm
  while the runtime call would use libdevice/OCML — so turning folding on
  *changes which library answers*, one of the ways O1 introduces
  discrepancies that O0 does not have (the paper's Tables V/VII show new
  NaN-vs-Inf cases appearing exactly at O1).  The hipcc model keeps math
  calls unfolded (clang is conservative about errno/rounding there).
"""

from __future__ import annotations

import math

import numpy as np

from repro.fp.types import FPType
from repro.fp.literals import format_varity_literal
from repro.ir.nodes import BinOp, Call, Const, Expr, UnOp
from repro.ir.visitor import Transformer
from repro.compilers.passes.base import Pass
from repro.devices.mathlib.base import reference_call

__all__ = ["ConstantFolding"]


def _const(value: float, fptype: FPType) -> Const:
    """A folded constant (text marks it as compile-time)."""
    v = float(value)
    if math.isnan(v) or math.isinf(v):
        return Const(v, None)
    try:
        text = format_varity_literal(v, fptype)
    except ValueError:
        text = None
    return Const(v, text)


class _Folder(Transformer):
    def __init__(self, fptype: FPType, fold_math_calls: bool) -> None:
        self.fptype = fptype
        self.fold_math_calls = fold_math_calls
        self.n_changed = 0

    def _cast(self, value: float):
        return self.fptype.dtype.type(value)

    def visit_UnOp(self, node: UnOp) -> Expr:
        if node.op == "-" and isinstance(node.operand, Const):
            self.n_changed += 1
            return _const(float(-self._cast(node.operand.value)), self.fptype)
        if node.op == "+" and isinstance(node.operand, Const):
            return node.operand
        return node

    def visit_BinOp(self, node: BinOp) -> Expr:
        if not (isinstance(node.left, Const) and isinstance(node.right, Const)):
            return node
        with np.errstate(all="ignore"):
            l = self._cast(node.left.value)
            r = self._cast(node.right.value)
            if node.op == "+":
                v = l + r
            elif node.op == "-":
                v = l - r
            elif node.op == "*":
                v = l * r
            else:
                v = l / r
        self.n_changed += 1
        return _const(float(v), self.fptype)

    def visit_Call(self, node: Call) -> Expr:
        if not self.fold_math_calls:
            return node
        if node.variant != "default":
            return node
        if not all(isinstance(a, Const) for a in node.args):
            return node
        try:
            value = reference_call(node.func, [a.value for a in node.args], self.fptype)
        except (KeyError, ValueError):
            return node
        self.n_changed += 1
        return _const(value, self.fptype)


class ConstantFolding(Pass):
    """Fold constant subexpressions (see module docstring for tiers)."""

    def __init__(self, fold_math_calls: bool = False) -> None:
        self.fold_math_calls = fold_math_calls
        self.name = "const-fold+libm" if fold_math_calls else "const-fold"

    def transformer(self, fptype: FPType) -> Transformer:
        return _Folder(fptype, self.fold_math_calls)
