"""The hipcc compiler model.

Pipelines (divergence mechanisms 1–4, listed in :mod:`repro.analysis.ablation`):

* ``-O0``: no IR transformation.
* ``-O1`` .. ``-O3``: identical pipelines: arithmetic-only constant
  folding (no host-libm folding of math calls) and conservative
  two-pattern FMA contraction.
* ``-O3 -DHIP_FAST_MATH``: the route the paper uses instead of
  ``-ffast-math`` (§III-D — ``-ffinite-math-only`` breaks tests that
  legitimately produce NaN/Inf).  It selects OCML's native fast FP32
  variants and multiplies by rounded reciprocals for constant divisors,
  but keeps IEEE general division, performs no NaN/Inf-unsafe algebraic
  rewrites, and flushes FP32 subnormal *results* only.

HIPIFY-converted programs (``program.via_hipify``) additionally resolve a
small set of math calls through the modeled compatibility wrapper — the
``hipify`` call variant (mechanism 5).
"""

from __future__ import annotations

import time
from typing import List, Sequence

from repro.fp.env import FlushMode
from repro.fp.types import FPType
from repro.devices.vendor import Vendor
from repro.devices.mathlib.ocml import HIPIFY_WRAPPED
from repro.ir.nodes import Call, Expr
from repro.ir.program import Kernel, Program
from repro.ir.visitor import Transformer
from repro.compilers.compiler import Compiler
from repro.compilers.options import OptLevel, OptSetting
from repro.compilers.passes import (
    ApproxSubstitution,
    ConstantFolding,
    FMAContraction,
    HIPCC_PATTERNS,
    Pass,
    ReciprocalDivision,
)
from repro.telemetry.spans import get_tracer

__all__ = ["HipccCompiler"]


class _MarkHipifyCalls(Transformer):
    """Tag wrapped math calls in HIPIFY-converted sources."""

    def __init__(self) -> None:
        self.n_marked = 0

    def visit_Call(self, node: Call) -> Expr:
        if node.func in HIPIFY_WRAPPED and node.variant == "default":
            self.n_marked += 1
            return Call(node.func, node.args, variant="hipify")
        return node


class HipccCompiler(Compiler):
    """Model of hipcc targeting the simulated MI250X."""

    name = "hipcc"
    vendor = Vendor.AMD
    hipify_sensitive = True  # preprocess resolves HIPIFY-converted calls

    def preprocess(self, program: Program) -> Kernel:
        kernel = program.kernel
        if program.via_hipify:
            tracer = get_tracer()
            t0 = time.perf_counter_ns() if tracer.enabled else 0
            marker = _MarkHipifyCalls()
            body = marker.transform_body(kernel.body)
            if marker.n_marked:
                kernel = kernel.with_body(body)
            if tracer.enabled:
                tracer.record(
                    "compile.hipify",
                    t0,
                    time.perf_counter_ns(),
                    marked=marker.n_marked,
                )
        return kernel

    def pipeline(self, opt: OptSetting, fptype: FPType) -> Sequence[Pass]:
        if opt.level is OptLevel.O0 and not opt.fast_math:
            return ()
        passes: List[Pass] = [ConstantFolding(fold_math_calls=False)]
        if opt.fast_math:
            passes.append(ReciprocalDivision())
        passes.append(FMAContraction(HIPCC_PATTERNS))
        if opt.fast_math:
            passes.append(ApproxSubstitution(rewrite_division=False))
        return passes

    def flush_mode(self, opt: OptSetting, fptype: FPType) -> FlushMode:
        if opt.fast_math and fptype is FPType.FP32:
            return FlushMode.FLUSH_OUTPUTS
        return FlushMode.NONE
