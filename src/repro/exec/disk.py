"""The run store's disk tier: a single SQLite file.

:class:`~repro.exec.store.RunStore` keeps its memory tier in process;
given a ``path`` it persists through a :class:`ContentDB` on that file,
whose ``runs(k, o, r)`` table holds one entry per (content key, opt
label), ``r`` being the ``{"i","p","b","f"}`` runs-JSON wire form.

The database runs in WAL mode with a ``busy_timeout``, so any number of
processes may open one file and write concurrently.  Every put is
``INSERT OR IGNORE`` committed at once: the first writer of a key wins,
and — entries being content-keyed and deterministic — whichever lands is
byte-equivalent to the loser.  A transaction is atomic, so a killed
writer leaves either the whole row or none of it.  The one exception is
healing: a store that read a row it could not decode recomputes it and
writes with ``replace=True``, so the bad row is overwritten once instead
of being recomputed on every reopen.

This module is the only importer of :mod:`sqlite3` under ``repro.exec``;
the store imports it only when a path is given, so path-less stores
never load SQLite.
"""

from __future__ import annotations

import sqlite3
import time
from pathlib import Path
from typing import Optional, Union

from repro.errors import HarnessError

__all__ = ["ContentDB"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    k TEXT NOT NULL,
    o TEXT NOT NULL,
    r TEXT NOT NULL,
    PRIMARY KEY (k, o)
);
"""

#: conflict clause of a put: first writer wins, unless healing a bad row
_CONFLICT = {False: "IGNORE", True: "REPLACE"}

#: how long an opener or writer waits on another connection's lock
_BUSY_MS = 30000


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch to WAL, retrying within the busy budget: the journal-mode
    pragma does not wait on ``busy_timeout``, so processes opening one
    fresh file at once get "database is locked" from it immediately."""
    deadline = time.monotonic() + _BUSY_MS / 1000
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() > deadline:
                raise
            time.sleep(0.005)


class ContentDB:
    """One SQLite run-store file."""

    def __init__(self, path: Union[str, Path]) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        conn: Optional[sqlite3.Connection] = None
        try:
            conn = sqlite3.connect(str(path))
            conn.execute(f"PRAGMA busy_timeout={_BUSY_MS}")
            _enable_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
        except sqlite3.DatabaseError as exc:
            if conn is not None:
                conn.close()
            raise HarnessError(
                f"cannot open {path} as a SQLite content store ({exc}); "
                "if it is an old JSONL run store, import it with "
                f"`repro-bridge migrate --jsonl {path} --store NEW.sqlite`"
            ) from None
        self._conn = conn

    def run(self, key: str, opt_label: str) -> Optional[str]:
        """The runs-JSON stored for (key, opt), or ``None``."""
        row = self._conn.execute(
            "SELECT r FROM runs WHERE k=? AND o=?", (key, opt_label)
        ).fetchone()
        return None if row is None else row[0]

    def put_run(
        self, key: str, opt_label: str, runs_json: str, *, replace: bool = False
    ) -> bool:
        """Store one entry unless the key exists (or overwrite it with
        ``replace``); True when a row was written."""
        cur = self._conn.execute(
            f"INSERT OR {_CONFLICT[replace]} INTO runs (k, o, r) VALUES (?, ?, ?)",
            (key, opt_label, runs_json),
        )
        self._conn.commit()
        return cur.rowcount == 1

    def close(self) -> None:
        self._conn.close()
