"""Property-based tests (hypothesis) for the fp layer.

The ULP line, the bit-pattern conversions, and the Varity literal format
are load-bearing for everything above them: content keys, signature
dedup, the oracle's ULP-bounded checkers, and the error-placement hash
all assume these invariants.  Hypothesis sweeps them across all three
precisions:

* bit ↔ float round trips (including NaN payloads and ±0);
* ULP distance: symmetry, identity-of-indiscernibles (with ±0
  coinciding), adjacency (= 1 between neighbours), and the triangle
  inequality that makes it a metric on the ordered-bits line;
* ``nextafter_n`` against the step-by-step ``np.nextafter`` loop it
  replaces, bit for bit, across subnormals, ±0, max-finite, ±inf and NaN;
* literal parse/format round trips at full precision per format.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.bits import (
    bits_to_float,
    bits_to_float16,
    bits_to_float32,
    compose_float,
    float16_to_bits,
    float32_to_bits,
    float_to_bits,
    sign_exponent_mantissa,
)
from repro.fp.literals import format_varity_literal, parse_varity_literal
from repro.fp.types import FPType
from repro.fp.ulp import nextafter_n, ulp_distance

finite_double = st.floats(allow_nan=False, allow_infinity=False)
any_double = st.floats(allow_nan=True, allow_infinity=True)
bits64 = st.integers(min_value=0, max_value=2**64 - 1)
bits32 = st.integers(min_value=0, max_value=2**32 - 1)
bits16 = st.integers(min_value=0, max_value=2**16 - 1)

#: full-precision fractional-digit counts: 17/9/5 significant decimal
#: digits round-trip binary64/32/16 exactly.
_ROUNDTRIP_DIGITS = {FPType.FP64: 16, FPType.FP32: 8, FPType.FP16: 4}

_FPTYPES = [FPType.FP16, FPType.FP32, FPType.FP64]


# ------------------------------------------------------------------- bits
class TestBitRoundTrips:
    @given(bits64)
    @settings(max_examples=300)
    def test_bits64_roundtrip(self, bits):
        """Every 64-bit pattern survives bits → float → bits, including
        NaN payloads, -0.0, and subnormals."""
        assert float_to_bits(bits_to_float(bits)) == bits

    @given(bits32)
    @settings(max_examples=300)
    def test_bits32_roundtrip(self, bits):
        """Exact for every non-NaN pattern; NaNs stay NaN (the pack/unpack
        detour through a C double may quieten a signaling payload, which
        the models never produce)."""
        value = bits_to_float32(bits)
        if np.isnan(value):
            assert np.isnan(bits_to_float32(float32_to_bits(value)))
        else:
            assert float32_to_bits(value) == bits

    @given(bits16)
    @settings(max_examples=300)
    def test_bits16_roundtrip(self, bits):
        value = bits_to_float16(bits)
        if np.isnan(value):
            assert np.isnan(bits_to_float16(float16_to_bits(value)))
        else:
            assert float16_to_bits(value) == bits

    @given(any_double)
    @settings(max_examples=300)
    def test_float64_roundtrip(self, value):
        """float → bits → float is bit-identity (NaN-safe: compare bits)."""
        assert float_to_bits(bits_to_float(float_to_bits(value))) == float_to_bits(value)

    @given(bits64)
    @settings(max_examples=200)
    def test_fields_compose_back_64(self, bits):
        value = bits_to_float(bits)
        s, e, m = sign_exponent_mantissa(value, bits=64)
        assert float_to_bits(compose_float(s, e, m, bits=64)) == bits

    @given(bits16)
    @settings(max_examples=200)
    def test_fields_compose_back_16(self, bits):
        value = float(bits_to_float16(bits))
        if math.isnan(value):
            return  # payloads may quieten in the double detour (see above)
        s, e, m = sign_exponent_mantissa(value, bits=16)
        assert float16_to_bits(compose_float(s, e, m, bits=16)) == bits


# -------------------------------------------------------------------- ulp
def _finite_in(fptype: FPType):
    """Finite doubles that stay finite when narrowed to ``fptype``."""
    bound = fptype.max
    return st.floats(
        allow_nan=False, allow_infinity=False, min_value=-bound, max_value=bound
    )


class TestUlpDistanceMetric:
    @pytest.mark.parametrize("fptype", _FPTYPES)
    @given(data=st.data())
    @settings(max_examples=150)
    def test_symmetry(self, fptype, data):
        a = data.draw(_finite_in(fptype))
        b = data.draw(_finite_in(fptype))
        assert ulp_distance(a, b, fptype) == ulp_distance(b, a, fptype)

    @pytest.mark.parametrize("fptype", _FPTYPES)
    @given(data=st.data())
    @settings(max_examples=150)
    def test_zero_iff_same_representable(self, fptype, data):
        a = data.draw(_finite_in(fptype))
        b = data.draw(_finite_in(fptype))
        d = ulp_distance(a, b, fptype)
        na, nb = fptype.dtype.type(a), fptype.dtype.type(b)
        # ±0 coincide on the ordered line — the paper's rules never treat
        # them as different — hence == on the narrowed values, not bits.
        assert (d == 0) == (float(na) == float(nb))

    @pytest.mark.parametrize("fptype", _FPTYPES)
    @given(data=st.data())
    @settings(max_examples=100)
    def test_triangle_inequality(self, fptype, data):
        a = data.draw(_finite_in(fptype))
        b = data.draw(_finite_in(fptype))
        c = data.draw(_finite_in(fptype))
        assert ulp_distance(a, c, fptype) <= (
            ulp_distance(a, b, fptype) + ulp_distance(b, c, fptype)
        )

    @pytest.mark.parametrize("fptype", _FPTYPES)
    @given(data=st.data())
    @settings(max_examples=150)
    def test_adjacent_values_are_one_ulp_apart(self, fptype, data):
        a = data.draw(_finite_in(fptype))
        stepped = nextafter_n(a, 1, fptype)
        if np.isinf(stepped):
            return  # stepped past the top of the format
        narrowed = float(fptype.dtype.type(a))
        if narrowed == float(stepped):
            return  # a was already the top finite value
        assert ulp_distance(narrowed, float(stepped), fptype) == 1

    @pytest.mark.parametrize("fptype", _FPTYPES)
    @given(data=st.data(), n=st.integers(min_value=-64, max_value=64))
    @settings(max_examples=100)
    def test_nextafter_n_moves_exactly_n(self, fptype, data, n):
        a = data.draw(_finite_in(fptype))
        stepped = nextafter_n(a, n, fptype)
        if np.isinf(stepped) or np.isinf(fptype.dtype.type(a)):
            return  # saturated at the format boundary
        assert ulp_distance(float(fptype.dtype.type(a)), float(stepped), fptype) == abs(n)

    @given(any_double)
    @settings(max_examples=100)
    def test_nan_raises(self, a):
        if not math.isnan(a):
            a = math.nan
        with pytest.raises(ValueError):
            ulp_distance(a, 1.0)


def _nextafter_loop(x, n: int, fptype: FPType):
    """The O(n) reference: ``n`` single ``np.nextafter`` steps toward
    ±inf, stopping once the value saturates at the infinity it heads for."""
    dtype = fptype.dtype
    x = dtype.type(x)
    if n == 0:
        return x
    direction = dtype.type(np.inf if n > 0 else -np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(abs(n)):
            if np.isinf(x) and (x > 0) == (n > 0):
                break
            x = np.nextafter(x, direction, dtype=dtype)
    return x


_WIDTH = {FPType.FP16: (16, 10), FPType.FP32: (32, 23), FPType.FP64: (64, 52)}


def _special_bits(fptype: FPType):
    """±0, ±smallest/largest subnormal, ±smallest normal, ±max-finite,
    ±inf and ±NaN as bit patterns of ``fptype``."""
    width, mant = _WIDTH[fptype]
    inf = ((1 << (width - 1 - mant)) - 1) << mant
    magnitudes = [0, 1, (1 << mant) - 1, 1 << mant, inf - 1, inf, inf | 1]
    return [sign | m for sign in (0, 1 << (width - 1)) for m in magnitudes]


def _from_bits(bits: int, fptype: FPType):
    width, _ = _WIDTH[fptype]
    return np.array([bits], dtype=f"<u{width // 8}").view(fptype.dtype)[0]


class TestNextafterN:
    @pytest.mark.parametrize("fptype", _FPTYPES)
    @given(data=st.data())
    @settings(max_examples=300)
    def test_matches_repeated_nextafter(self, fptype, data):
        width, _ = _WIDTH[fptype]
        bits = data.draw(
            st.one_of(
                st.sampled_from(_special_bits(fptype)),
                st.integers(min_value=0, max_value=2**width - 1),
            )
        )
        n = data.draw(
            st.one_of(
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=-700, max_value=700),
            )
        )
        x = _from_bits(bits, fptype)
        expected = _nextafter_loop(x, n, fptype)
        got = nextafter_n(x, n, fptype)
        assert type(got) is type(expected)
        assert got.tobytes() == expected.tobytes()  # NaN payloads included

    @pytest.mark.parametrize("fptype", _FPTYPES)
    def test_crosses_signed_zero_like_nextafter(self, fptype):
        tiny = _from_bits(1, fptype)
        assert nextafter_n(-tiny, 1, fptype).tobytes() == fptype.dtype.type(-0.0).tobytes()
        assert nextafter_n(tiny, -1, fptype).tobytes() == fptype.dtype.type(0.0).tobytes()
        assert nextafter_n(-tiny, 2, fptype) == tiny
        assert nextafter_n(-0.0, -1, fptype) == -tiny


# --------------------------------------------------------------- literals
class TestLiteralRoundTrips:
    @pytest.mark.parametrize("fptype", _FPTYPES)
    @given(data=st.data())
    @settings(max_examples=200)
    def test_parse_format_roundtrip(self, fptype, data):
        """format → parse recovers the narrowed value exactly at the
        format's full-precision digit count."""
        raw = data.draw(_finite_in(fptype))
        value = fptype.dtype.type(raw)
        if np.isinf(value):
            return  # narrowed out of range (fp16 overflow)
        text = format_varity_literal(
            float(value), fptype, digits=_ROUNDTRIP_DIGITS[fptype]
        )
        parsed = parse_varity_literal(text, fptype)
        assert parsed.dtype == fptype.dtype
        # bit-exact, including -0.0
        assert float(parsed) == float(value)
        assert math.copysign(1.0, float(parsed)) == math.copysign(1.0, float(value))

    @pytest.mark.parametrize("fptype", _FPTYPES)
    @given(data=st.data())
    @settings(max_examples=100)
    def test_format_is_stable(self, fptype, data):
        """Formatting the parsed value reproduces the text (the format is
        canonical: texts are identities, values derive from them)."""
        raw = data.draw(_finite_in(fptype))
        value = fptype.dtype.type(raw)
        if np.isinf(value):
            return
        digits = _ROUNDTRIP_DIGITS[fptype]
        text = format_varity_literal(float(value), fptype, digits=digits)
        reparsed = parse_varity_literal(text, fptype)
        assert format_varity_literal(float(reparsed), fptype, digits=digits) == text

    @pytest.mark.parametrize("fptype", _FPTYPES)
    def test_suffix_matches_precision(self, fptype):
        text = format_varity_literal(1.5, fptype)
        if fptype.literal_suffix:
            assert text.endswith(fptype.literal_suffix)
        else:
            assert not text.upper().endswith(("F", "F16"))

    def test_nan_inf_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                format_varity_literal(bad)
