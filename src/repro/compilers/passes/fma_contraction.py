"""FMA contraction with per-compiler pattern coverage.

Divergence mechanism 2 (FMA-contraction coverage): both real compilers contract
multiply-add into fused operations (one rounding instead of two) at
``-O1`` and above, but the *set of shapes* they recognise differs.  Where
both contract, results agree (our FMA evaluation is shared); where only
one does, the extra rounding shows up as a value-dependent Num-vs-Num (or,
near the overflow boundary, Inf-vs-Num / NaN-vs-Inf) discrepancy — the
paper's Tables V/VII show the O0→O1 count jump this produces.

Pattern names:

* ``mul-left-add``  — ``a*b + c``  → ``fma(a, b, c)``
* ``mul-right-add`` — ``c + a*b``  → ``fma(a, b, c)``
* ``mul-left-sub``  — ``a*b - c``  → ``fma(a, b, -c)``
* ``mul-right-sub`` — ``c - a*b``  → ``fma(-a, b, c)``  (negated product)

The nvcc model contracts all four (ptxas is aggressive with ``-fmad=true``);
the hipcc model contracts only the ``mul-left-*`` shapes.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.fp.types import FPType
from repro.ir.nodes import BinOp, Expr, FMA, UnOp
from repro.ir.visitor import Transformer
from repro.compilers.passes.base import Pass

__all__ = ["FMAContraction", "NVCC_PATTERNS", "HIPCC_PATTERNS"]

NVCC_PATTERNS: FrozenSet[str] = frozenset(
    {"mul-left-add", "mul-right-add", "mul-left-sub", "mul-right-sub"}
)
HIPCC_PATTERNS: FrozenSet[str] = frozenset({"mul-left-add", "mul-left-sub"})


class _Contractor(Transformer):
    def __init__(self, patterns: FrozenSet[str]) -> None:
        self.patterns = patterns
        self.n_changed = 0

    def visit_BinOp(self, node: BinOp) -> Expr:
        if node.op == "+":
            if isinstance(node.left, BinOp) and node.left.op == "*" and "mul-left-add" in self.patterns:
                self.n_changed += 1
                return FMA(node.left.left, node.left.right, node.right)
            if isinstance(node.right, BinOp) and node.right.op == "*" and "mul-right-add" in self.patterns:
                self.n_changed += 1
                return FMA(node.right.left, node.right.right, node.left)
        elif node.op == "-":
            if isinstance(node.left, BinOp) and node.left.op == "*" and "mul-left-sub" in self.patterns:
                self.n_changed += 1
                return FMA(node.left.left, node.left.right, UnOp("-", node.right))
            if isinstance(node.right, BinOp) and node.right.op == "*" and "mul-right-sub" in self.patterns:
                self.n_changed += 1
                return FMA(node.right.left, node.right.right, node.left, negate_product=True)
        return node


class FMAContraction(Pass):
    """Contract multiply-add shapes into FMA nodes."""

    def __init__(self, patterns: FrozenSet[str]) -> None:
        unknown = patterns - (NVCC_PATTERNS | HIPCC_PATTERNS)
        if unknown:
            raise ValueError(f"unknown contraction patterns: {sorted(unknown)}")
        self.patterns = frozenset(patterns)
        self.name = "fma-contract"

    @property
    def key(self) -> str:
        # nvcc and hipcc share the name but not the recognised shapes.
        return f"{self.name}[{','.join(sorted(self.patterns))}]"

    def transformer(self, fptype: FPType) -> Transformer:
        return _Contractor(self.patterns)
