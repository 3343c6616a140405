"""The content-keyed run store: memory tier + optional SQLite disk tier.

:class:`RunStore` promotes the old per-program ``RunCache`` (keyed by
``(test_id, opt_label)``, lifetime one arm walk) to a store keyed by
``(content id, opt_label)``: structurally identical kernels with the same
inputs hit the cache across a chunk's requests (a test and its HIPIFY
twin), across chunks of a service given one store, and — through the
disk tier — across sessions.  Entries are stored *test-id-neutral* (per-input
printed line + IEEE-754 bit pattern, or ``None`` for a trapped input) and
rebound to the requesting test's id on the way out, so a replayed
:class:`~repro.harness.outcomes.RunRecord` is bit-identical to what a
fresh execution would produce regardless of which test populated the
entry.

Tiers:

* **memory** — an LRU-bounded dict (``max_entries``); eviction keeps long
  fuzz sessions flat instead of leaking every sweep ever run;
* **disk** (optional ``path``) — the ``runs`` table of one SQLite file
  (:class:`~repro.exec.disk.ContentDB`), safe with concurrent writers
  (the first writer of a key wins).  No CLI opens one; a caller hands
  such a store to :class:`~repro.exec.service.ExecutionService`.  A
  memory miss reads one row and promotes the entry; evicted entries
  therefore stay servable, and a store reopened on the same path starts
  warm.  A row whose runs-JSON does not decode is a miss, so its sweep
  re-executes instead of replaying a wrong result, and the re-executed
  entry overwrites the bad row.

Counters are entry-level (``hits`` / ``misses`` / ``disk_hits`` /
``evictions``); per-*input* replay counts — the numbers surfaced as
``nvcc_cache_hits`` — live on the :class:`BoundRunCache` views handed to
the differential runner.

The retired JSONL disk format (``repro-runstore-v1``: a header line, then
one ``{"kind": "entry", "k", "o", "r"}`` line per entry) is readable only
as an import source: :func:`migrate_jsonl` copies it into a SQLite file
(``repro-bridge migrate``).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import HarnessError
from repro.fp.bits import bits_to_float, float_to_bits
from repro.harness.outcomes import RunRecord
from repro.varity.testcase import TestCase

if TYPE_CHECKING:
    from repro.exec.disk import ContentDB

__all__ = ["RunStore", "BoundRunCache", "migrate_jsonl"]

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


def _encode_runs(entry: Sequence[_Neutral]) -> List[Optional[Dict[str, object]]]:
    """Neutral entry → the ``{"i","p","b","f"}`` runs-JSON wire form.

    The ``r`` column of the SQLite tier and the ``r`` field of the old
    JSONL lines, so an imported entry replays bit-identically.
    """
    runs: List[Optional[Dict[str, object]]] = []
    for item in entry:
        if item is None:
            runs.append(None)
            continue
        input_index, printed, bits, flags = item
        run: Dict[str, object] = {"i": input_index, "p": printed, "b": bits}
        if flags is not None:
            run["f"] = list(list(pair) for pair in flags)
        runs.append(run)
    return runs


def _decode_runs(runs: Sequence[Optional[Dict[str, object]]]) -> Tuple[_Neutral, ...]:
    """Inverse of :func:`_encode_runs`."""
    entry: List[_Neutral] = []
    for run in runs:
        if run is None:
            entry.append(None)
            continue
        flags = run.get("f")
        entry.append(
            (
                int(run["i"]),  # type: ignore[arg-type]
                str(run["p"]),
                int(run["b"]),  # type: ignore[arg-type]
                tuple((str(k), int(v)) for k, v in flags)  # type: ignore[union-attr]
                if flags is not None
                else None,
            )
        )
    return tuple(entry)


def migrate_jsonl(source: Union[str, Path], store: Union[str, Path]) -> int:
    """Import a JSONL run store into the SQLite file ``store``.

    Returns the entries added.  A torn final line (a writer killed
    mid-append) and unparseable lines are skipped, and keys already in
    ``store`` keep their rows (first writer wins), so re-importing the
    same file adds nothing.
    """
    from repro.exec.disk import ContentDB

    src = Path(source)
    if not src.exists():
        raise HarnessError(f"no JSONL run store at {src}")
    db = ContentDB(store)
    added = 0
    try:
        with src.open("rb") as fh:
            for raw in fh:
                if not raw.endswith(b"\n"):
                    break  # torn tail from a killed writer
                try:
                    data = json.loads(raw)
                    if data.get("kind") != "entry":
                        continue
                    key, opt = str(data["k"]), str(data["o"])
                    runs = _encode_runs(_decode_runs(data["r"]))
                except (ValueError, KeyError, TypeError, AttributeError):
                    continue  # unparseable line or malformed entry
                added += db.put_run(key, opt, json.dumps(runs))
    finally:
        db.close()
    return added


class RunStore:
    """Two-tier content-keyed store of nvcc-side run outcomes."""

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        max_entries: int = 1024,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.path = Path(path) if path is not None else None
        self.max_entries = max_entries
        self._mem: "OrderedDict[Tuple[str, str], Tuple[_Neutral, ...]]" = OrderedDict()
        self._disk: Optional["ContentDB"] = None
        if self.path is not None:
            from repro.exec.disk import ContentDB

            self._disk = ContentDB(self.path)
        # disk rows that did not decode: the next put overwrites them
        self._corrupt: Set[Tuple[str, str]] = set()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
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
        entry = tuple(_neutralize(r) for r in outcomes)
        mkey = (key, opt_label)
        known = mkey in self._mem
        self._insert_mem(mkey, entry)
        self.puts += 1
        if self._disk is not None and not known:
            heal = mkey in self._corrupt
            self._corrupt.discard(mkey)
            self._disk.put_run(
                key, opt_label, json.dumps(_encode_runs(entry)), replace=heal
            )

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
        if entry is not None:
            self._mem.move_to_end(mkey)
        elif self._disk is not None:
            entry = self._read_disk(key, opt_label)
            if entry is not None:
                self.disk_hits += 1
                self._insert_mem(mkey, entry)
        if entry is None:
            self.misses += 1
            return None
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
            "disk_hits": self.disk_hits,
            "puts": self.puts,
            "evictions": self.evictions,
        }

    def close(self) -> None:
        if self._disk is not None:
            self._disk.close()

    def __len__(self) -> int:
        return len(self._mem)

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- memory
    def _insert_mem(
        self, mkey: Tuple[str, str], entry: Tuple[_Neutral, ...]
    ) -> None:
        self._mem[mkey] = entry
        self._mem.move_to_end(mkey)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)
            self.evictions += 1

    # --------------------------------------------------------------- disk
    def _read_disk(self, key: str, opt_label: str) -> Optional[Tuple[_Neutral, ...]]:
        assert self._disk is not None
        runs_json = self._disk.run(key, opt_label)
        if runs_json is None:
            return None
        try:
            return _decode_runs(json.loads(runs_json))
        except (ValueError, KeyError, TypeError, AttributeError):
            # corrupt row: a miss, so the sweep re-executes and its put heals it
            self._corrupt.add((key, opt_label))
            return None


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
