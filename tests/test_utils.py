"""Tests for repro.utils: hashing, RNG derivation, tables, JSON I/O, and
the resumable JSONL session files."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HarnessError
from repro.fuzz.ledger import FindingsLedger
from repro.harness.campaign import _Checkpoint
from repro.oracle.ledger import OracleLedger
from repro.utils.hashing import absorb, hash_bytes, hash_floats, splitmix64, stable_hash
from repro.utils.jsonio import decode_float, dump_json, encode_float, load_json
from repro.utils.rng import SeedSequenceFactory, derive_seed
from repro.utils.tables import Table, format_table


# ---------------------------------------------------------------- hashing
class TestSplitmix64:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_different_inputs_differ(self):
        assert splitmix64(1) != splitmix64(2)

    def test_output_is_64_bit(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) < 2**64

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_avalanche_nonzero(self, x):
        # Flipping the lowest bit changes the output (no fixed low bits).
        assert splitmix64(x) != splitmix64(x ^ 1)


class TestHashBytes:
    def test_empty(self):
        assert hash_bytes(b"") == hash_bytes(b"")

    def test_prefix_no_collision(self):
        assert hash_bytes(b"abc") != hash_bytes(b"abc\x00")

    def test_seed_changes_digest(self):
        assert hash_bytes(b"abc", seed=1) != hash_bytes(b"abc", seed=2)

    @given(st.binary(max_size=64), st.binary(max_size=64))
    @settings(max_examples=50)
    def test_unequal_inputs_rarely_collide(self, a, b):
        if a != b:
            # Not a proof, but any systematic collision would fail fast.
            assert hash_bytes(a) != hash_bytes(b) or len(a) == len(b)


class TestStableHash:
    def test_type_tagging(self):
        assert stable_hash(1) != stable_hash(1.0)
        assert stable_hash(1) != stable_hash("1")

    def test_nan_hashable(self):
        assert stable_hash(math.nan) == stable_hash(math.nan)

    def test_signed_zero_distinct(self):
        assert stable_hash(0.0) != stable_hash(-0.0)

    def test_none_supported(self):
        assert stable_hash(None) == stable_hash(None)

    def test_bool_not_int(self):
        assert stable_hash(True) != stable_hash(1)

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            stable_hash([1, 2])

    def test_order_matters(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    @given(
        prefix=st.lists(st.one_of(st.text(max_size=12), st.integers(), st.floats())),
        rest=st.lists(st.one_of(st.integers(-(2**70), 2**70), st.binary(max_size=20))),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_absorb_resumes_the_sponge(self, prefix, rest, seed):
        assert absorb(stable_hash(*prefix, seed=seed), rest) == stable_hash(
            *prefix, *rest, seed=seed
        )


class TestHashFloats:
    def test_bit_keyed(self):
        assert hash_floats([0.0]) != hash_floats([-0.0])

    def test_length_matters(self):
        assert hash_floats([1.0]) != hash_floats([1.0, 1.0])


# -------------------------------------------------------------------- rng
class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, "program", 3) == derive_seed(7, "program", 3)

    def test_path_sensitivity(self):
        assert derive_seed(7, "program", 3) != derive_seed(7, "program", 4)
        assert derive_seed(7, "program", 3) != derive_seed(7, "input", 3)

    def test_root_sensitivity(self):
        assert derive_seed(7, "x") != derive_seed(8, "x")

    def test_factory_streams_independent(self):
        f = SeedSequenceFactory(99)
        r1 = f.py_rng("a")
        r2 = f.py_rng("b")
        assert [r1.random() for _ in range(3)] != [r2.random() for _ in range(3)]

    def test_factory_reproducible(self):
        a = SeedSequenceFactory(5).np_rng("x").integers(0, 1000, 10)
        b = SeedSequenceFactory(5).np_rng("x").integers(0, 1000, 10)
        assert list(a) == list(b)

    def test_factory_rejects_non_int(self):
        with pytest.raises(TypeError):
            SeedSequenceFactory("seed")  # type: ignore[arg-type]

    def test_child_factory(self):
        f = SeedSequenceFactory(5)
        assert f.child("x").root_seed == f.seed_for("x")


# ------------------------------------------------------------------ tables
class TestTables:
    def test_basic_render(self):
        t = Table(title="demo", headers=["a", "bb"])
        t.add_row([1, 2.5])
        text = t.render()
        assert "demo" in text and "a" in text and "2.50" in text

    def test_row_arity_checked(self):
        t = Table(title="x", headers=["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_footer_rendered_after_rule(self):
        t = Table(title="x", headers=["a"])
        t.add_row([1])
        t.add_footer(["Total"])
        lines = t.render().splitlines()
        assert lines[-1].startswith("Total")
        assert set(lines[-2]) == {"-"}

    def test_format_table_ragged_rejected(self):
        with pytest.raises(ValueError):
            format_table("t", ["a", "b"], [[1]])

    def test_alignment(self):
        t = Table(title="", headers=["name", "n"])
        t.add_row(["long-name-here", 1])
        t.add_row(["x", 22])
        lines = t.render().splitlines()
        # Columns align: the 'n' column starts at the same offset.
        assert lines[-1].index("22") == lines[-2].index("1")


# ------------------------------------------------------------------- json
class TestFloatEncoding:
    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, 1.5, -1e308, 5e-324, math.inf, -math.inf],
    )
    def test_roundtrip(self, value):
        decoded = decode_float(encode_float(value))
        assert decoded == value or (decoded == 0.0 and value == 0.0)
        assert math.copysign(1.0, decoded) == math.copysign(1.0, value)

    def test_nan_roundtrip(self):
        assert math.isnan(decode_float(encode_float(math.nan)))

    def test_negative_nan_sign_preserved(self):
        decoded = decode_float(encode_float(-math.nan))
        assert math.isnan(decoded) and math.copysign(1.0, decoded) < 0

    def test_nonfinite_encoded_as_strings(self):
        assert isinstance(encode_float(math.inf), str)
        assert isinstance(encode_float(math.nan), str)

    @given(st.floats(allow_nan=False))
    @settings(max_examples=200)
    def test_any_float_roundtrips(self, x):
        assert decode_float(encode_float(x)) == x


class TestJsonFiles:
    def test_dump_load_roundtrip(self, tmp_path):
        payload = {"a": [1, 2, 3], "b": {"c": "text"}, "f": encode_float(math.inf)}
        path = tmp_path / "sub" / "data.json"
        dump_json(payload, path)  # creates parent dirs
        assert load_json(path) == payload

    def test_numpy_scalars_serialized(self, tmp_path):
        import numpy as np

        dump_json({"x": np.float64(1.5), "n": np.int64(3)}, tmp_path / "np.json")
        assert load_json(tmp_path / "np.json") == {"x": 1.5, "n": 3}

    def test_nan_rejected_as_raw_literal(self, tmp_path):
        # dump_json uses allow_nan=False: raw NaN floats must be encoded.
        with pytest.raises(ValueError):
            dump_json({"x": math.nan}, tmp_path / "bad.json")


# ------------------------------------------------------------ checkpoints
#: every session file, with one record its ``load`` folds into state.
SESSION_FILES = {
    "campaign": (_Checkpoint, lambda book: book.append_step("fp64/0", {})),
    "fuzz": (FindingsLedger, lambda book: book.append_baseline(4, [], [1])),
    "oracle": (OracleLedger, lambda book: book.append_program(0, "t0", [], 3, [])),
}
FP = {"seed": 1}


@pytest.mark.parametrize("kind", sorted(SESSION_FILES))
class TestOpenSession:
    """The one resume policy every session file shares."""

    def _written(self, kind, path, fingerprint=FP):
        cls, write = SESSION_FILES[kind]
        book, state = cls.open_session(path, fingerprint)
        assert state is None
        write(book)
        book.close()
        return cls

    def test_strict_resume_of_missing_file_raises(self, kind, tmp_path):
        cls, _ = SESSION_FILES[kind]
        with pytest.raises(HarnessError, match="does not exist"):
            cls.open_session(tmp_path / "none.jsonl", FP, resume=True)

    def test_strict_resume_of_mismatched_fingerprint_raises(self, kind, tmp_path):
        path = tmp_path / "s.jsonl"
        cls = self._written(kind, path)
        with pytest.raises(HarnessError, match="refusing to resume"):
            cls.open_session(path, {"seed": 2}, resume=True)

    def test_auto_starts_fresh_and_rewrites_the_header(self, kind, tmp_path):
        path = tmp_path / "s.jsonl"
        cls = self._written(kind, path)
        book, state = cls.open_session(path, {"seed": 2}, resume="auto")
        book.close()
        assert state is None
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"kind": "header", "fingerprint": {"seed": 2}}
        ]
        missing, state = cls.open_session(tmp_path / "new.jsonl", FP, resume="auto")
        missing.close()
        assert state is None

    def test_resume_without_path_raises(self, kind):
        cls, _ = SESSION_FILES[kind]
        noun = cls.noun
        with pytest.raises(HarnessError, match=f"resume requires a {noun} path"):
            cls.open_session(None, FP, resume=True)
        assert cls.open_session(None, FP) == (None, None)

    def test_torn_tail_is_trimmed_on_resume(self, kind, tmp_path):
        path = tmp_path / "s.jsonl"
        cls = self._written(kind, path)
        intact = path.read_bytes()
        expected = cls(path).load(FP)
        with path.open("ab") as fh:
            fh.write(b'{"kind": "step", "ke')
        book, state = cls.open_session(path, FP, resume=True)
        book.close()
        assert state == expected
        assert path.read_bytes() == intact
