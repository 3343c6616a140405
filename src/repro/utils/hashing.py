"""Deterministic 64-bit hashing.

The vendor math-library models need a *reproducible* pseudo-random decision
per ``(vendor, function, operand bits)`` triple: whether this operand lands
on one of the inputs where the vendor's polynomial is off by an ULP, and in
which direction.  Python's builtin ``hash`` is salted per process, so we use
a small splitmix64-based construction that is stable across runs, platforms,
and Python versions.
"""

from __future__ import annotations

import struct
from typing import Iterable

__all__ = ["splitmix64", "hash_bytes", "hash_floats", "stable_hash", "absorb"]

_MASK = 0xFFFFFFFFFFFFFFFF


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer.

    Maps a 64-bit integer to a well-scrambled 64-bit integer.  This is the
    finalizer used by many PRNGs; it passes strict avalanche tests, which is
    what we need for bit-keyed error placement.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def hash_bytes(data: bytes, seed: int = 0) -> int:
    """Hash a byte string to 64 bits, deterministically.

    A simple multiply-xor sponge over 8-byte lanes finished with splitmix64.
    Not cryptographic; collision behaviour is more than adequate for error
    placement and test-id derivation.
    """
    h = splitmix64(seed & _MASK)
    # Process full 8-byte words.
    n = len(data)
    for off in range(0, n - n % 8, 8):
        (word,) = struct.unpack_from("<Q", data, off)
        h = splitmix64(h ^ word)
    tail = data[n - n % 8 :]
    if tail:
        word = int.from_bytes(tail, "little")
        h = splitmix64(h ^ word ^ (len(tail) << 56))
    # Fold in the length so prefixes do not collide.
    return splitmix64(h ^ n)


def hash_floats(values: Iterable[float], seed: int = 0) -> int:
    """Hash a sequence of Python floats by their IEEE-754 bit patterns."""
    h = splitmix64(seed & _MASK)
    count = 0
    for v in values:
        (bits,) = struct.unpack("<Q", struct.pack("<d", float(v)))
        h = splitmix64(h ^ bits)
        count += 1
    return splitmix64(h ^ count)


def stable_hash(*parts: object, seed: int = 0) -> int:
    """Hash a heterogeneous tuple of ints / floats / strings / bytes.

    Each part is tagged by type before hashing so ``1`` and ``1.0`` and
    ``"1"`` produce distinct digests.
    """
    return absorb(splitmix64(seed & _MASK), parts)


def absorb(state: int, parts: Iterable[object]) -> int:
    """Continue :func:`stable_hash`'s sponge from ``state``.

    ``absorb(stable_hash(*a, seed=s), b) == stable_hash(*a, *b, seed=s)``,
    so a caller that hashes many tuples sharing a constant prefix can
    hash the prefix once.
    """
    h = state
    for part in parts:
        if isinstance(part, bool):  # before int: bool is an int subclass
            h = hash_bytes(b"b" + bytes([part]), h)
        elif isinstance(part, int):
            h = hash_bytes(b"i" + part.to_bytes(16, "little", signed=True), h)
        elif isinstance(part, float):
            h = hash_bytes(b"f" + struct.pack("<d", part), h)
        elif isinstance(part, str):
            h = hash_bytes(b"s" + part.encode("utf-8"), h)
        elif isinstance(part, bytes):
            h = hash_bytes(b"y" + part, h)
        elif part is None:
            h = hash_bytes(b"n", h)
        else:
            raise TypeError(f"stable_hash cannot digest {type(part).__name__}")
    return h
