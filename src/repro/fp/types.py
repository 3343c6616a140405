"""Floating-point precision types used throughout the library.

The paper's campaigns are run in two configurations: FP64 (all variables
``double``) and FP32 (all variables ``float``, math functions with the ``f``
suffix, literals with the ``F`` suffix) — see §III-C.  This reproduction
adds a third lane, FP16 (IEEE binary16 half precision), where reduced
precision makes cross-platform divergence richest: ``__half`` on the CUDA
side, ``_Float16`` on the HIP side, math functions in the ``h``-marked
half namespace (rendered as CUDA's real ``h``-prefix spellings —
``hsin``, ``hexp`` — because a trailing ``h`` would collide with the
hyperbolic names: ``sin`` + ``h`` *is* ``sinh``), and literals with the
C23 ``F16`` suffix (which our model uses for both dialects).

Every property here dispatches on the enum member *exhaustively* and
raises ``ValueError`` for an unknown member: the seed's binary
``if FP32 else FP64`` branches silently treated any new precision as FP64,
which would miscompile a new lane instead of failing loudly.
"""

from __future__ import annotations

import enum
from typing import Dict

import numpy as np

__all__ = ["FPType"]


class FPType(enum.Enum):
    """Precision of a Varity test campaign (or of one IR value)."""

    FP16 = "fp16"
    FP32 = "fp32"
    FP64 = "fp64"

    def _dispatch(self, table: Dict["FPType", object], what: str):
        try:
            return table[self]
        except KeyError:
            raise ValueError(f"{what} is not defined for {self!r}") from None

    @property
    def dtype(self) -> np.dtype:
        return self._dispatch(_DTYPES, "dtype")

    @property
    def c_name(self) -> str:
        """C/CUDA/HIP type name (the CUDA spelling for FP16: ``__half``).

        Use :meth:`c_name_for` when the emission dialect matters — HIP
        spells half precision ``_Float16``.
        """
        return self.c_name_for("cuda")

    def c_name_for(self, dialect: str) -> str:
        """Type name in one emission dialect (``cuda`` / ``hip`` / ``c``)."""
        try:
            table = _C_NAMES[dialect]
        except KeyError:
            raise ValueError(f"unknown emission dialect {dialect!r}") from None
        return self._dispatch(table, "c_name")

    @property
    def literal_suffix(self) -> str:
        """Suffix appended to constants: ``F`` in FP32, ``F16`` (the C23
        ``_Float16`` spelling) in FP16, none in FP64."""
        return self._dispatch(_LITERAL_SUFFIXES, "literal_suffix")

    @property
    def math_suffix(self) -> str:
        """The math-function marker (``cosf`` in FP32, ``h`` for the FP16
        half namespace).

        Rendering note: FP32's ``f`` is a *suffix*; FP16's ``h`` marker is
        applied as a *prefix* (``hsin``, ``hexp`` — CUDA's real half-math
        spellings) because suffixing would collide with existing
        functions: ``sin`` + ``h`` is hyperbolic sine.  See
        :meth:`repro.codegen.base.EmitterConfig.math_name`.
        """
        return self._dispatch(_MATH_SUFFIXES, "math_suffix")

    @property
    def bits(self) -> int:
        return self._dispatch(_BITS, "bits")

    @property
    def mantissa_bits(self) -> int:
        """Explicitly stored mantissa bits (10 / 23 / 52)."""
        return self._dispatch(_MANTISSA_BITS, "mantissa_bits")

    @property
    def exponent_bits(self) -> int:
        return self._dispatch(_EXPONENT_BITS, "exponent_bits")

    @property
    def smallest_normal(self) -> float:
        return float(np.finfo(self.dtype).tiny)

    @property
    def smallest_subnormal(self) -> float:
        return float(np.finfo(self.dtype).smallest_subnormal)

    @property
    def max(self) -> float:
        return float(np.finfo(self.dtype).max)

    @classmethod
    def from_string(cls, name: str) -> "FPType":
        name = name.strip().lower()
        aliases = {
            "fp16": cls.FP16,
            "half": cls.FP16,
            "f16": cls.FP16,
            "fp32": cls.FP32,
            "float": cls.FP32,
            "single": cls.FP32,
            "f32": cls.FP32,
            "fp64": cls.FP64,
            "double": cls.FP64,
            "f64": cls.FP64,
        }
        try:
            return aliases[name]
        except KeyError:
            raise ValueError(f"unknown FP type {name!r}") from None


#: Module-level dispatch tables: built once, so the exhaustive-dispatch
#: guarantee costs nothing on the interpreter's per-operation hot path
#: (``env.cast`` reads ``.dtype`` on every evaluated node).
_DTYPES = {
    FPType.FP16: np.dtype(np.float16),
    FPType.FP32: np.dtype(np.float32),
    FPType.FP64: np.dtype(np.float64),
}
_C_NAMES = {
    "cuda": {FPType.FP16: "__half", FPType.FP32: "float", FPType.FP64: "double"},
    "hip": {FPType.FP16: "_Float16", FPType.FP32: "float", FPType.FP64: "double"},
    "c": {FPType.FP16: "_Float16", FPType.FP32: "float", FPType.FP64: "double"},
}
_LITERAL_SUFFIXES = {FPType.FP16: "F16", FPType.FP32: "F", FPType.FP64: ""}
_MATH_SUFFIXES = {FPType.FP16: "h", FPType.FP32: "f", FPType.FP64: ""}
_BITS = {FPType.FP16: 16, FPType.FP32: 32, FPType.FP64: 64}
_MANTISSA_BITS = {FPType.FP16: 10, FPType.FP32: 23, FPType.FP64: 52}
_EXPONENT_BITS = {FPType.FP16: 5, FPType.FP32: 8, FPType.FP64: 11}

