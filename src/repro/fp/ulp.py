"""ULP (unit in the last place) arithmetic.

The vendor math-library models express accuracy as "result within N ULPs of
the correctly-rounded value", matching how NVIDIA's libdevice and AMD's OCML
document their functions.  These helpers convert between values and ULP
counts for binary16, binary32 and binary64 — the ULP line is a property of
the campaign precision, never an assumed 52/23-bit mantissa.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fp.types import FPType
from repro.fp.bits import (
    bits_to_float,
    bits_to_float16,
    bits_to_float32,
    float16_to_bits,
    float32_to_bits,
    float_to_bits,
)

__all__ = ["ulp_distance", "nextafter_n", "perturb_ulps", "ulp_of"]


#: Bit-pattern codec and width of each precision's ordered integer line.
_CODECS = {
    FPType.FP64: (float_to_bits, bits_to_float, 64),
    FPType.FP32: (float32_to_bits, bits_to_float32, 32),
    FPType.FP16: (float16_to_bits, bits_to_float16, 16),
}


def _ordered_bits(value, fptype: FPType) -> int:
    """Map ``value`` (rounded to ``fptype``) to a monotone integer line.

    Two's-complement style: adjacent floats are adjacent integers, ±0
    share the point ``2**(w-1) - 1``, and ±inf are the line's ends
    (NaNs map beyond them).
    """
    to_bits, _, width = _CODECS[fptype]
    bits = to_bits(value)
    sign = 1 << (width - 1)
    if bits & sign:
        return sign - (bits & ~sign) - 1
    return bits + sign - 1


def ulp_distance(a: float, b: float, fptype: FPType = FPType.FP64) -> int:
    """Number of representable values between ``a`` and ``b`` (symmetric).

    NaN against anything (including NaN) raises ``ValueError`` — callers
    must classify non-finite outcomes first, as the harness does.
    ``+0.0`` and ``-0.0`` coincide on the ordered line (distance 0): they
    compare equal, and the paper's rules never treat them as different.
    """
    af, bf = float(a), float(b)
    if math.isnan(af) or math.isnan(bf):
        raise ValueError("ulp_distance is undefined for NaN")
    if fptype not in _CODECS:
        raise ValueError(f"ulp_distance is not defined for {fptype!r}")
    return abs(_ordered_bits(af, fptype) - _ordered_bits(bf, fptype))


def nextafter_n(value: float, n: int, fptype: FPType = FPType.FP64):
    """Step ``value`` by ``n`` representable values (n may be negative).

    One integer addition on the ordered line, bit-identical to ``n``
    repeated ``np.nextafter`` steps toward ±inf: it saturates at ±inf,
    crosses ±0 (landing on -0.0 from below and +0.0 from above, as
    ``nextafter`` does), and NaN stays NaN.  Returns a numpy scalar of
    the requested precision.
    """
    dtype = fptype.dtype
    x = dtype.type(value)
    if n == 0:
        return x
    if x != x:
        with np.errstate(invalid="ignore"):  # quieting a signaling NaN
            return np.nextafter(x, dtype.type(np.inf if n > 0 else -np.inf))
    _, from_bits, width = _CODECS[fptype]
    sign = 1 << (width - 1)
    zero = sign - 1  # where ±0 sit on the line
    end = _ordered_bits(math.inf, fptype) - zero
    point = min(max(_ordered_bits(x, fptype) + n, zero - end), zero + end)
    if point > zero:
        bits = point - zero
    elif point < zero:
        bits = sign | (zero - point)
    else:  # zero is only reached by crossing it, from below when n > 0
        bits = sign if n > 0 else 0
    return dtype.type(from_bits(bits))


def perturb_ulps(value: float, n: int, fptype: FPType = FPType.FP64) -> float:
    """Like :func:`nextafter_n` but NaN/Inf pass through unchanged.

    This is the primitive the vendor error model applies to a
    correctly-rounded result; exceptional values are never perturbed
    (a library returning NaN returns NaN on both vendors).
    """
    if math.isnan(value) or math.isinf(value):
        return float(value)
    return float(nextafter_n(value, n, fptype))


def ulp_of(value: float, fptype: FPType = FPType.FP64) -> float:
    """Magnitude of one ULP at ``value`` (gap to the next float away from 0)."""
    dtype = fptype.dtype
    x = dtype.type(value)
    if np.isnan(x) or np.isinf(x):
        raise ValueError("ulp_of is undefined for non-finite values")
    away = dtype.type(np.inf) if x >= 0 else dtype.type(-np.inf)
    return float(abs(np.nextafter(x, away, dtype=dtype) - x))
