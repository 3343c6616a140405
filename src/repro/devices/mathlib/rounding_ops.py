"""Vendor rounding-function models — the root cause of Case Study 2.

The paper (§IV-D2) finds ``ceil(+1.5955E-125)`` evaluates to ``0`` under
nvcc but ``1`` under hipcc, turning a division into a divide-by-zero on the
NVIDIA side (output ``Inf`` vs ``1.34887e-306``).

Model: the NVIDIA path computes ``ceil`` for positive inputs with the
classic magic-add fast path ``trunc(x + (1 - ulp))``.  For ordinary
magnitudes that is correct, but when ``x`` is many orders of magnitude
below 1 ULP of 1, the addition absorbs ``x`` entirely and the path returns
``trunc(1 - ulp) = 0`` — reproducing the paper's quirk bit-exactly.  The
AMD path is IEEE-correct (``__ocml_ceil_f64``).

``floor``/``trunc``/``round`` are modeled IEEE-correct on both vendors.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fp.types import FPType

__all__ = ["nvidia_ceil", "amd_ceil"]

#: The largest value below 1.0 in each precision — the "magic" addend of
#: the fast path.
_MAGIC = {
    FPType.FP64: float(np.nextafter(np.float64(1.0), np.float64(0.0))),
    FPType.FP32: float(np.nextafter(np.float32(1.0), np.float32(0.0))),
    FPType.FP16: float(np.nextafter(np.float16(1.0), np.float16(0.0))),
}

#: Magnitude at which every value of the precision is an integer, so the
#: fast path short-circuits (mirrors the real inlined sequence's guard).
_INTEGRAL_LIMIT = {
    FPType.FP64: 2.0**52,
    FPType.FP32: 2.0**23,
    FPType.FP16: 2.0**10,
}


def _lookup(table, fptype: FPType, what: str):
    try:
        return table[fptype]
    except KeyError:
        raise ValueError(f"no {what} constant for {fptype!r}") from None


def nvidia_ceil(x: float, fptype: FPType = FPType.FP64) -> float:
    """Magic-add ``ceil`` fast path (libdevice model)."""
    dtype = fptype.dtype
    xv = float(dtype.type(x))
    if math.isnan(xv) or math.isinf(xv):
        return xv
    limit = _lookup(_INTEGRAL_LIMIT, fptype, "integral-limit")
    if abs(xv) >= limit or xv == 0.0:
        return xv
    if xv == float(np.trunc(dtype.type(xv))):
        # Already integral: the real inlined sequence tests this first
        # (the magic add would otherwise round integers up by one).
        return xv
    if xv < 0.0:
        # ceil of a negative value is truncation toward zero — exact.
        return float(np.trunc(dtype.type(xv)))
    magic = _lookup(_MAGIC, fptype, "magic-addend")
    with np.errstate(all="ignore"):
        shifted = dtype.type(xv) + dtype.type(magic)  # rounds: may absorb x
        return float(np.trunc(shifted))


def amd_ceil(x: float, fptype: FPType = FPType.FP64) -> float:
    """IEEE-correct ceil (OCML model)."""
    dtype = fptype.dtype
    with np.errstate(all="ignore"):
        return float(np.ceil(dtype.type(x)))

