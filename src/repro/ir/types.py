"""IR-level types.

Varity programs only ever contain three kinds of values (§III, Table III):
the campaign's floating-point scalar type, ``int`` (the loop bound
``var_1`` and loop counters), and pointers to the floating-point type
(array parameters).  The *precision* of FLOAT is a property of the whole
kernel (``Kernel.fptype``), not of individual nodes — exactly like Varity,
where a test is generated entirely in FP32 or entirely in FP64.
"""

from __future__ import annotations

import enum

__all__ = ["IRType"]


class IRType(enum.Enum):
    """Type of an IR value or parameter."""

    FLOAT = "float"  # the campaign fp type (float or double)
    INT = "int"
    FLOAT_PTR = "float*"  # array-of-campaign-fp-type parameter

    @property
    def element(self) -> "IRType":
        """Element type of a pointer type."""
        if self is IRType.FLOAT_PTR:
            return IRType.FLOAT
        raise ValueError(f"{self} is not a pointer type")

    def c_name(self, fp_c_name: str) -> str:
        """C rendering given the campaign fp type's C name."""
        if self is IRType.FLOAT:
            return fp_c_name
        if self is IRType.INT:
            return "int"
        return f"{fp_c_name}*"
