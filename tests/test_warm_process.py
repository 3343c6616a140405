"""A warm process writes the bytes a fresh process writes.

Each thread keeps one runner per :class:`~repro.exec.units.RunnerSpec`
(:meth:`~repro.exec.units.RunnerSpec.build`), so a session inherits the
devices, call memos and probe caches of every session its process ran
before.  Those caches are pure memos and execution counters are read as
deltas, so a session's output must not depend on what ran before it.
Each target session below runs once in a fresh interpreter and once in
this process after another session, serially, through a process pool
and (for the campaign) through a bridge fleet of worker threads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import pytest

from test_bridge import _fleet

SRC = Path(__file__).resolve().parent.parent / "src"

#: name -> (CLI module, flags, output flag).  The fuzz session minimizes
#: its nine findings (the default), so triage and reduction probes run
#: warm; the oracle session finds four violations.
SESSIONS: Dict[str, Tuple[str, List[str], str]] = {
    "fuzz": (
        "repro.fuzz.cli",
        ["--seed", "9", "--fptype", "fp32", "--seed-programs", "4",
         "--inputs", "2", "--mutants", "8", "--batch", "4"],
        "--ledger",
    ),
    "oracle": (
        "repro.oracle.cli",
        ["--seed", "1", "--fptype", "fp32", "--programs", "3", "--inputs", "2"],
        "--ledger",
    ),
    "campaign": (
        "repro.cli",
        ["--seed", "5", "--fp64-programs", "4", "--fp32-programs", "3",
         "--inputs", "2", "--no-adjacency"],
        "--json",
    ),
}

#: A different fuzz session (two minimized findings) that warms the
#: default and ablated runners first.
WARM_UP = ["--seed", "3", "--fptype", "fp32", "--seed-programs", "4",
           "--inputs", "2", "--mutants", "12", "--batch", "4"]

_MAIN = "import importlib, sys; sys.exit(importlib.import_module(sys.argv[1]).main(sys.argv[2:]))"


def _argv(name: str, out: Path, extra: Sequence[str]) -> List[str]:
    _, flags, out_flag = SESSIONS[name]
    return [*flags, *extra, out_flag, str(out)]


def _bytes(name: str, out: Path) -> bytes:
    """The session's output; a campaign's minus the three fields that
    legitimately depend on scheduling."""
    if name != "campaign":
        return out.read_bytes()
    data = json.loads(out.read_text())
    data.pop("elapsed_seconds")
    data["config"].pop("workers")
    data["exec"].pop("phase_seconds")
    return json.dumps(data, sort_keys=True).encode()


def _fresh(name: str, out: Path, extra: Sequence[str] = ()) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    subprocess.run(
        [sys.executable, "-c", _MAIN, SESSIONS[name][0], *_argv(name, out, extra)],
        env=env, capture_output=True, check=True,
    )
    return _bytes(name, out)


def _warm(name: str, out: Path, extra: Sequence[str], capsys) -> bytes:
    import importlib

    cli = importlib.import_module(SESSIONS[name][0])
    assert cli.main(_argv(name, out, extra)) == 0
    capsys.readouterr()
    return _bytes(name, out)


def _warm_up(tmp_path: Path, capsys) -> None:
    from repro.fuzz.cli import main

    assert main([*WARM_UP, "--ledger", str(tmp_path / "warm-up.jsonl")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("workers", ["0", "2"])
def test_sessions_after_another_session_match_a_fresh_process(
    workers, tmp_path, capsys, monkeypatch
):
    import threading

    # Pool workers fork from this process, warm registry included.
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    extra = ("--workers", workers)
    _warm_up(tmp_path, capsys)
    for name in ("campaign", "fuzz", "oracle"):
        warm = _warm(name, tmp_path / f"warm-{name}", extra, capsys)
        fresh = _fresh(name, tmp_path / f"fresh-{name}", extra)
        assert warm == fresh, f"{name} at --workers {workers} after another session"


def test_bridge_campaign_after_another_session_matches_a_fresh_process(
    tmp_path, capsys
):
    """Bridge workers run as threads of this process: each keeps its own
    runners, so their execution counters never mix with this thread's."""
    _warm_up(tmp_path, capsys)
    fresh = _fresh("campaign", tmp_path / "fresh.json")
    with _fleet(tmp_path / "fleet", 2) as server:
        warm = _warm(
            "campaign",
            tmp_path / "bridge.json",
            ("--backend", "bridge", "--bridge-url", server.url),
            capsys,
        )
    assert warm == fresh
