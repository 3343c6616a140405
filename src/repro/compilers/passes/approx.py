"""FP32 approximate-intrinsic substitution under fast math.

Divergence mechanism 4 (FP32 approximate intrinsics) — the source of the paper's Table IX
explosion (13,877 discrepancies at O3_FM vs 45 at O0):

* the nvcc model (``-use_fast_math``) rewrites FP32 math calls to their
  ``__funcf`` hardware-approximation variants *and* rewrites every FP32
  division into ``__fdividef`` (which additionally returns 0 for huge
  divisors — see :mod:`repro.devices.mathlib.libdevice`);
* the hipcc model (``-DHIP_FAST_MATH``) selects OCML's native fast
  variants for the same functions — a *different* approximation with a
  different error profile — and keeps IEEE division.

Both sides get faster and less accurate, but differently, so nearly every
approximated call disagrees between the vendors.  FP64 has no hardware
approximation path on either stack, and FP16 math in our model routes
through the same half-precision library entry points at every setting
(neither vendor documents a separate ``__h*`` fast-math variant set for
the functions the generator emits) — the pass only touches FP32 kernels.
"""

from __future__ import annotations

from repro.fp.types import FPType
from repro.ir.nodes import BinOp, Call, Expr
from repro.ir.visitor import Transformer
from repro.compilers.passes.base import Pass
from repro.devices.mathlib.base import APPROX_CAPABLE

__all__ = ["ApproxSubstitution"]


class _Substituter(Transformer):
    def __init__(self, rewrite_division: bool) -> None:
        self.rewrite_division = rewrite_division
        self.n_changed = 0

    def visit_Call(self, node: Call) -> Expr:
        if node.func in APPROX_CAPABLE and node.variant in ("default", "hipify"):
            self.n_changed += 1
            return Call(node.func, node.args, variant="approx")
        return node

    def visit_BinOp(self, node: BinOp) -> Expr:
        if self.rewrite_division and node.op == "/":
            self.n_changed += 1
            return Call("__fdividef", (node.left, node.right), variant="approx")
        return node


class ApproxSubstitution(Pass):
    """Substitute fast-math FP32 approximations (no-op on FP64 kernels)."""

    def __init__(self, rewrite_division: bool) -> None:
        self.rewrite_division = rewrite_division
        self.name = "fast-approx+fdividef" if rewrite_division else "fast-approx"

    def applies_to(self, fptype: FPType) -> bool:
        return fptype is FPType.FP32

    def transformer(self, fptype: FPType) -> Transformer:
        return _Substituter(self.rewrite_division)
