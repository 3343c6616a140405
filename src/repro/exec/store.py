"""The content-keyed run store: one in-memory LRU.

:class:`RunStore` promotes the old per-program ``RunCache`` (keyed by
``(test_id, opt_label)``, lifetime one arm walk) to a store keyed by
``(content id, opt_label)``: structurally identical kernels with the same
inputs hit the cache across a chunk's requests (a test and its HIPIFY
twin) and across chunks of a service given one store.  Entries are
stored *test-id-neutral* (per-input printed line + IEEE-754 bit pattern,
or ``None`` for a trapped input) and rebound to the requesting test's id
on the way out, so a replayed :class:`~repro.harness.outcomes.RunRecord`
is bit-identical to what a fresh execution would produce regardless of
which test populated the entry.  The dict is LRU-bounded
(``max_entries``); eviction keeps long fuzz sessions flat instead of
leaking every sweep ever run.

Counters are entry-level (``hits`` / ``misses`` / ``evictions``);
per-*input* replay counts — the numbers surfaced as ``nvcc_cache_hits``
— live on the :class:`BoundRunCache` views handed to the differential
runner.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from repro.fp.bits import bits_to_float, float_to_bits
from repro.harness.outcomes import RunRecord
from repro.varity.testcase import TestCase

__all__ = ["RunStore", "BoundRunCache"]

#: test-id-neutral form of one input's outcome: None (trapped) or
#: (input_index, printed, value_bits, flags-or-None).
_Neutral = Optional[Tuple[int, str, int, Optional[Tuple[Tuple[str, int], ...]]]]


def _neutralize(record: Optional[RunRecord]) -> _Neutral:
    if record is None:
        return None
    flags = tuple(sorted(record.flags.items())) if record.flags is not None else None
    return (record.input_index, record.printed, float_to_bits(record.value), flags)


def _rebind(
    entry: _Neutral, test_id: str, opt_label: str, compiler: str = "nvcc"
) -> Optional[RunRecord]:
    if entry is None:
        return None
    input_index, printed, bits, flags = entry
    return RunRecord(
        test_id=test_id,
        input_index=input_index,
        opt_label=opt_label,
        compiler=compiler,
        printed=printed,
        value=bits_to_float(bits),
        flags=dict(flags) if flags is not None else None,
    )


class RunStore:
    """Content-keyed, LRU-bounded store of a pair's left-side run outcomes."""

    def __init__(self, *, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._mem: "OrderedDict[Tuple[str, str], Tuple[_Neutral, ...]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0

    # ------------------------------------------------------------------ api
    def put(
        self,
        key: str,
        opt_label: str,
        outcomes: Sequence[Optional[RunRecord]],
    ) -> None:
        """Store one (content, opt) entry; trapped inputs stay ``None``."""
        mkey = (key, opt_label)
        self._mem[mkey] = tuple(_neutralize(r) for r in outcomes)
        self._mem.move_to_end(mkey)
        self.puts += 1
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)
            self.evictions += 1

    def get(
        self, key: str, opt_label: str, *, test_id: str, compiler: str = "nvcc"
    ) -> Optional[Tuple[Optional[RunRecord], ...]]:
        """Look an entry up and rebind it to ``test_id`` on the way out.

        ``compiler`` names the stack a replayed record is attributed to
        (the default predates the stack registry: entries historically
        held the pair's nvcc side).
        """
        mkey = (key, opt_label)
        entry = self._mem.get(mkey)
        if entry is None:
            self.misses += 1
            return None
        self._mem.move_to_end(mkey)
        self.hits += 1
        return tuple(_rebind(e, test_id, opt_label, compiler) for e in entry)

    def view_for(self, test: TestCase) -> "BoundRunCache":
        """A runner-compatible view bound to ``test``'s content id."""
        from repro.exec.content import content_id_for

        return BoundRunCache(self, content_id_for(test))

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._mem),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
        }

    def __len__(self) -> int:
        return len(self._mem)


class BoundRunCache:
    """A store view bound to one content key, duck-compatible with the
    ``lhs_cache`` argument of :meth:`~repro.harness.runner.DifferentialRunner.run_sweep`.

    The runner counts each replayed input on :attr:`hits` — the number
    surfaced as ``nvcc_cache_hits`` — and calls :meth:`get`/:meth:`put`
    with ``(test_id, opt_label)``; the view routes both through the
    content key, rebinding replayed records to the requesting test's id.
    """

    def __init__(self, store: RunStore, key: str, compiler: str = "nvcc") -> None:
        self.store = store
        self.key = key
        self.compiler = compiler
        self.hits = 0

    def get(
        self, test_id: str, opt_label: str
    ) -> Optional[Tuple[Optional[RunRecord], ...]]:
        return self.store.get(
            self.key, opt_label, test_id=test_id, compiler=self.compiler
        )

    def put(
        self, test_id: str, opt_label: str, outcomes: Sequence[Optional[RunRecord]]
    ) -> None:
        self.store.put(self.key, opt_label, outcomes)
