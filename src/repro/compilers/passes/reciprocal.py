"""Fast-math reciprocal substitution (nvcc model only).

``-freciprocal-math`` (implied by fast math) rewrites division by a
constant into multiplication by the rounded reciprocal:
``x / c  →  x * (1/c)``.  Two consequences, both observed in practice and
both divergence sources against a compiler that keeps the division:

* the reciprocal itself rounds, and the multiply rounds again — up to
  1 ULP difference from the single-rounded division;
* if ``c`` is subnormal, ``1/c`` overflows to Inf and a finite quotient
  turns into Inf/NaN — feeding the Inf-vs-Num classes at O3_FM.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fp.types import FPType
from repro.fp.literals import format_varity_literal
from repro.ir.nodes import BinOp, Const, Expr
from repro.ir.visitor import Transformer
from repro.compilers.passes.base import Pass

__all__ = ["ReciprocalDivision"]


class _Recip(Transformer):
    def __init__(self, fptype: FPType) -> None:
        self.fptype = fptype
        self.n_changed = 0

    def visit_BinOp(self, node: BinOp) -> Expr:
        if node.op != "/" or not isinstance(node.right, Const):
            return node
        c = node.right.value
        if c == 0.0 or math.isnan(c) or math.isinf(c):
            return node  # keep the division; 1/0 folding is not profitable
        with np.errstate(all="ignore"):
            recip = float(self.fptype.dtype.type(1.0) / self.fptype.dtype.type(c))
        # Exact reciprocals (powers of two) do not change the value; rewrite
        # anyway — it is what the flag does — but it is a no-op numerically.
        if math.isinf(recip):
            text = None
        else:
            try:
                text = format_varity_literal(recip, self.fptype)
            except ValueError:
                text = None
        self.n_changed += 1
        return BinOp("*", node.left, Const(recip, text))


class ReciprocalDivision(Pass):
    """Rewrite division-by-constant into multiply-by-reciprocal."""

    name = "fast-recip"

    def transformer(self, fptype: FPType) -> Transformer:
        return _Recip(fptype)
