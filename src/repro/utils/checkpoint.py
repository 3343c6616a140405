"""Append-only JSONL checkpoint files with fingerprint headers.

Every resumable session — the campaign engine's plan-step checkpoint,
the fuzzer's findings ledger and the oracle ledger — shares one
crash-safe file discipline:

* line 1 is a ``{"kind": "header", "fingerprint": ...}`` record; a file
  written under one configuration refuses to resume under another;
* every subsequent line is one JSON record, flushed as it is appended,
  so a hard kill loses at most the line being written;
* a torn final line (killed mid-append) is skipped on read and trimmed
  before the next append, so the work it described simply re-runs.

and one resume policy, :meth:`JsonlCheckpoint.open_session`:

* resuming needs a path (``resume requires a <noun> path``);
* ``resume=True`` is strict: a missing, empty, headerless or
  mismatched file raises :class:`~repro.errors.HarnessError`;
* ``resume="auto"`` resumes when it can and otherwise starts fresh;
* the file is rewritten with a new header exactly when nothing was
  loaded.

Subclasses add a record vocabulary and a ``load(fingerprint)`` that
folds the records into the session's resume state.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, IO, Iterator, Optional, Tuple, Type, TypeVar, Union

from repro.errors import HarnessError

__all__ = ["JsonlCheckpoint"]

_C = TypeVar("_C", bound="JsonlCheckpoint")


class JsonlCheckpoint:
    """One append-only JSONL file with a config-fingerprint header."""

    #: how error messages name the file ("checkpoint", "ledger", ...).
    noun = "checkpoint"
    #: how error messages name the writer ("a campaign", "a fuzz session").
    writer = "a run"

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh: Optional[IO[str]] = None

    @classmethod
    def open_session(
        cls: Type[_C],
        path: Optional[Union[str, Path]],
        fingerprint: Dict[str, object],
        resume: Union[bool, str] = False,
    ) -> Tuple[Optional[_C], Any]:
        """Open ``path`` for a session; returns ``(file, loaded state)``.

        The file is ``None`` without a path; the state is ``None`` unless
        a resume loaded one.  Resuming without a path raises, a strict
        resume re-raises any load error, and ``resume="auto"`` falls back
        to a fresh file.
        """
        if path is None:
            if resume:
                raise HarnessError(f"resume requires a {cls.noun} path")
            return None, None
        book = cls(path)
        state = None
        if resume:
            try:
                state = book.load(fingerprint)
            except HarnessError:
                if resume != "auto":
                    raise
        book.open_for_append(fingerprint, fresh=state is None)
        return book, state

    # ------------------------------------------------------------------ read
    def load(self, fingerprint: Dict[str, object]) -> Any:
        """The resume state folded from the records (see :meth:`iter_records`)."""
        raise NotImplementedError

    def iter_records(self, fingerprint: Dict[str, object]) -> Iterator[Dict[str, object]]:
        """Yield the data records, validating the header against ``fingerprint``.

        Raises :class:`~repro.errors.HarnessError` when the file is
        missing, empty, headerless, or was written under a different
        configuration.  Unparseable lines (a run killed mid-write leaves
        a torn final line) are skipped; the work they described re-runs.
        """
        if not self.path.exists():
            raise HarnessError(
                f"cannot resume: {self.noun} {self.path} does not exist"
            )
        header_seen = False
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not header_seen:
                    if data.get("kind") != "header":
                        raise HarnessError(
                            f"{self.noun} {self.path} has no header line"
                        )
                    if data.get("fingerprint") != fingerprint:
                        raise HarnessError(
                            f"{self.noun} {self.path} was written by {self.writer} "
                            "with a different configuration; refusing to resume"
                        )
                    header_seen = True
                    continue
                yield data
        if not header_seen:
            raise HarnessError(f"{self.noun} {self.path} is empty")

    # ----------------------------------------------------------------- write
    def open_for_append(self, fingerprint: Dict[str, object], fresh: bool) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fresh or not self.path.exists():
            with self.path.open("w", encoding="utf-8") as fh:
                fh.write(
                    json.dumps({"kind": "header", "fingerprint": fingerprint}) + "\n"
                )
        else:
            self._trim_torn_tail()
        self._fh = self.path.open("a", encoding="utf-8")

    def _trim_torn_tail(self) -> None:
        """Drop a half-written final line so the next append starts clean."""
        data = self.path.read_bytes()
        if data and not data.endswith(b"\n"):
            with self.path.open("wb") as fh:
                fh.write(data[: data.rfind(b"\n") + 1])

    def append_record(self, record: Dict[str, object]) -> None:
        assert self._fh is not None
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
