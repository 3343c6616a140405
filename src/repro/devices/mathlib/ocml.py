"""AMD math library model ("OCML", the ``__ocml_*`` device library).

Composition of:

* the shared exact IEEE functions;
* vendor algorithms: chunked-reduction ``fmod`` (diverges from NVIDIA for
  extreme exponent gaps — Case Study 1) and IEEE-correct ``ceil`` (which
  *differs* from NVIDIA's quirky fast path for tiny positive operands —
  Case Study 2);
* bounded-ULP error placement with the AMD key (independent missed-input
  set from NVIDIA's);
* ``approx`` variants used under ``-DHIP_FAST_MATH`` (native OCML fast
  paths, with their own — different — large-ULP profile);
* the ``hipify`` variant: the library result passed through the modeled
  HIPIFY compatibility wrapper's extra rounding (divergence mechanism 5).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.fp.types import FPType
from repro.devices.mathlib.base import (
    DEMOTE_FP16,
    EXACT_FUNCTIONS,
    MathLibrary,
    demote_through_fp16,
    reference_call,
)
from repro.devices.mathlib.accuracy import AccuracyModel
from repro.devices.mathlib.fmod import amd_fmod
from repro.devices.mathlib.rounding_ops import amd_ceil

__all__ = ["OcmlMath"]

#: Functions HIPIFY routes through its compatibility wrapper in our model.
HIPIFY_WRAPPED = frozenset({"fmod", "pow", "cosh", "sinh", "tanh", "exp", "log"})


class OcmlMath(MathLibrary):
    """AMD device math library model."""

    name = "ocml"

    def __init__(self, salt: int = 0) -> None:
        self.accuracy = AccuracyModel("amd-ocml", salt=salt)

    def call(
        self,
        func: str,
        args: Sequence[float],
        fptype: FPType,
        variant: str = "default",
    ) -> float:
        hipify = variant == "hipify"
        base_variant = "default" if hipify else variant

        if func == DEMOTE_FP16:
            # Correctly-rounded _Float16 conversion: identical on both
            # vendors, and never routed through the HIPIFY wrapper.
            return demote_through_fp16(args[0], fptype)
        if func == "__fdividef":
            # hipcc has no __fdividef; HIPIFY maps it to plain division.
            with np.errstate(all="ignore"):
                result = float(fptype.dtype.type(args[0]) / fptype.dtype.type(args[1]))
        elif func == "fmod":
            result = amd_fmod(args[0], args[1], fptype)
        elif func == "ceil":
            result = amd_ceil(args[0], fptype)
        else:
            reference = reference_call(func, args, fptype)
            if func in EXACT_FUNCTIONS or math.isnan(reference) or math.isinf(reference):
                result = reference
            else:
                result = self.accuracy.apply(func, args, reference, fptype, base_variant)

        if hipify and func in HIPIFY_WRAPPED:
            result = self.accuracy.apply_hipify_wrapper(func, args, result, fptype)
        return result
