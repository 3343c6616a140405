"""Floating-point substrate.

Bit-level utilities, ULP arithmetic, outcome classification (the paper's
NaN/Inf/Zero/Number taxonomy), IEEE-754 exception tracking (Table II), and
Varity-style literal formatting.
"""

from repro.fp.types import FPType
from repro.fp.bits import (
    float_to_bits,
    bits_to_float,
    float32_to_bits,
    bits_to_float32,
    float16_to_bits,
    bits_to_float16,
    is_negative,
)
from repro.fp.ulp import ulp_distance, nextafter_n, perturb_ulps, ulp_of
from repro.fp.classify import (
    OutcomeClass,
    classify_value,
    is_subnormal,
    outcomes_equivalent,
)
from repro.fp.env import FPEnv, FPExceptionFlags, FlushMode
from repro.fp.literals import (
    format_varity_literal,
    parse_varity_literal,
    strip_literal_suffix,
)

__all__ = [
    "FPType",
    "float_to_bits",
    "bits_to_float",
    "float32_to_bits",
    "bits_to_float32",
    "float16_to_bits",
    "bits_to_float16",
    "is_negative",
    "ulp_distance",
    "nextafter_n",
    "perturb_ulps",
    "ulp_of",
    "OutcomeClass",
    "classify_value",
    "is_subnormal",
    "outcomes_equivalent",
    "FPEnv",
    "FPExceptionFlags",
    "FlushMode",
    "format_varity_literal",
    "parse_varity_literal",
    "strip_literal_suffix",
]
