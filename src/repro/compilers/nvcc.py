"""The nvcc compiler model.

Pipelines (divergence mechanisms 1–4, listed in :mod:`repro.analysis.ablation`):

* ``-O0``: no IR transformation — divergence at O0 comes purely from the
  device math library (mechanism 1).
* ``-O1`` .. ``-O3``: identical pipelines (matching the paper's identical
  O1/O2/O3 discrepancy profiles): constant folding *including host-libm
  folding of constant math calls*, then aggressive four-pattern FMA
  contraction.
* ``-O3 -use_fast_math``: adds finite-math algebraic simplification,
  reassociation, reciprocal-division, and (FP32) approximate intrinsics
  with ``__fdividef`` division; FP32 arithmetic runs with full
  flush-to-zero (inputs and outputs).

Telemetry: the :class:`~repro.compilers.compiler.Compiler` base driver
records ``compile``/``compile.front_end``/``compile.pass`` spans for
this pipeline when tracing is on; nothing here needs its own hooks.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.fp.env import FlushMode
from repro.fp.types import FPType
from repro.devices.vendor import Vendor
from repro.compilers.compiler import Compiler
from repro.compilers.options import OptLevel, OptSetting
from repro.compilers.passes import (
    AlgebraicSimplify,
    ApproxSubstitution,
    ConstantFolding,
    FMAContraction,
    NVCC_PATTERNS,
    Pass,
    Reassociation,
    ReciprocalDivision,
)

__all__ = ["NvccCompiler"]


class NvccCompiler(Compiler):
    """Model of nvcc targeting the simulated V100."""

    name = "nvcc"
    vendor = Vendor.NVIDIA

    def pipeline(self, opt: OptSetting, fptype: FPType) -> Sequence[Pass]:
        if opt.level is OptLevel.O0 and not opt.fast_math:
            return ()
        passes: List[Pass] = [ConstantFolding(fold_math_calls=True)]
        if opt.fast_math:
            passes.append(AlgebraicSimplify())
            passes.append(Reassociation())
            passes.append(ReciprocalDivision())
        passes.append(FMAContraction(NVCC_PATTERNS))
        if opt.fast_math:
            passes.append(ApproxSubstitution(rewrite_division=True))
        return passes

    def flush_mode(self, opt: OptSetting, fptype: FPType) -> FlushMode:
        # --use_fast_math implies --ftz=true, FP32 only (FP64 has no FTZ
        # mode on NVIDIA GPUs, and the __half pipeline keeps subnormal
        # support at every setting).  nvcc flushes operands and results.
        if opt.fast_math and fptype is FPType.FP32:
            return FlushMode.FLUSH_INPUTS_OUTPUTS
        return FlushMode.NONE
