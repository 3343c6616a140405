"""Execution backends: where chunks of work actually run.

A backend is deliberately tiny — *ordered* chunk execution and nothing
else: ``imap(fn, payloads)`` must yield one result per payload **in
payload order** no matter how execution is scheduled.  That single rule
is what makes every caller's output worker-count-invariant: the service
hands backends deterministic chunks, and backends may only change *when*
a chunk runs, never what it computes or the order results come back.

``SerialBackend`` runs in-process (and lazily, so streaming callers
interleave their own work between chunks).  ``ProcessPoolBackend`` owns
a persistent process pool — created on first use, reused across calls so
repeated small submissions (the fuzzer's speculation windows) do not pay
process startup each time.  Payloads and the mapped function must be
picklable (module-level functions only) under either start method.

**Start method** (decided once, when the pool is created): ``fork`` when
the parent runs on Linux with a single Python thread, ``spawn``
otherwise (macOS, Windows, or a parent running a live thread — forking
a process that holds another thread's locks can deadlock the child).  A
forked worker starts from a copy of the parent: its imported modules
(so it skips re-importing ``repro`` and NumPy before its first chunk,
as a spawned worker must), and also every process-global cache,
counter and tracer as they stood at fork time.  None of that can reach
an output, because a worker's result is a pure function of its payload:
the chunk task builds a fresh run store and artifact cache per chunk,
reads runner counters as deltas (the thread's warm runners and probe
memos only memoize pure results), and installs its own tracer per
chunk; workers end through ``Pool.terminate`` without touching
inherited connections or file buffers.

**Telemetry** (active tracer enabled only — the disabled path is the
original code): the pool backend wraps payloads and the mapped function
to attribute every chunk's wall time to four phases that tile
[submit, arrive]:

* ``pool.pickle`` — measuring ``pickle.dumps`` of the payload (a second
  pickle happens inside ``mp.Pool``; the duplication is the accepted
  cost of tracing, never paid when tracing is off);
* ``pool.queue_wait`` — submit → worker pickup;
* ``pool.execute`` — worker function run (recorded with the worker's
  pid);
* ``pool.result_wait`` — worker done → parent receives (for ``imap``
  this includes in-order head-of-line blocking).

Timestamps are ``time.perf_counter_ns()`` — CLOCK_MONOTONIC on Linux is
system-wide, so parent- and worker-side stamps share one clock.
"""

from __future__ import annotations

import functools
import os
import pickle
import sys
import threading
import time
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.telemetry.spans import get_tracer

try:  # pragma: no cover - Protocol missing only on <3.8
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

__all__ = [
    "Backend",
    "SerialBackend",
    "ProcessPoolBackend",
    "make_backend",
]


def _worker_timed_call(fn, wrapped):
    """Worker-side shim: unwrap a tagged payload, time the real call.

    Module-level (and used via ``functools.partial(fn=...)``) so the
    pool can pickle it.
    """
    index, submit_ns, payload = wrapped
    start_ns = time.perf_counter_ns()
    result = fn(payload)
    end_ns = time.perf_counter_ns()
    return index, submit_ns, start_ns, end_ns, os.getpid(), result


def _tag_payloads(payloads: Iterable[Any], tracer) -> Iterator[Any]:
    """Wrap payloads as ``(index, submit_ns, payload)``; record pickle
    size/time.  Consumed by ``mp.Pool``'s feeder thread, so the tracer's
    record path must be (and is) thread-safe."""
    for index, payload in enumerate(payloads):
        t0 = time.perf_counter_ns()
        size = len(pickle.dumps(payload))
        t1 = time.perf_counter_ns()
        tracer.record("pool.pickle", t0, t1, chunk=index, payload_bytes=size)
        yield index, time.perf_counter_ns(), payload


def _traced_results(results: Iterable[Any], tracer) -> Iterator[Any]:
    """Unwrap timed worker results, recording the three phases that
    complete each chunk's [submit, arrive] interval."""
    for index, submit_ns, start_ns, end_ns, pid, result in results:
        arrive_ns = time.perf_counter_ns()
        tracer.record("pool.queue_wait", submit_ns, start_ns, chunk=index)
        tracer.record("pool.execute", start_ns, end_ns, chunk=index, pid=pid)
        tracer.record("pool.result_wait", end_ns, arrive_ns, chunk=index)
        yield result


class Backend(Protocol):
    """Ordered chunk execution."""

    #: backend name for reports ("serial", "process-pool").
    name: str
    #: True when payloads cross a process boundary (workers cannot see
    #: in-process state such as the run store a service was given).
    remote: bool

    def imap(self, fn: Callable[[Any], Any], payloads: Iterable[Any]) -> Iterator[Any]:
        """Apply ``fn`` to each payload, yielding results in payload order."""
        ...  # pragma: no cover

    def imap_unordered(
        self, fn: Callable[[Any], Any], payloads: Iterable[Any]
    ) -> Iterator[Any]:
        """Like :meth:`imap` but yielding in completion order."""
        ...  # pragma: no cover

    def close(self) -> None:
        ...  # pragma: no cover


class SerialBackend:
    """In-process, lazy, deterministic — the reference backend."""

    name = "serial"
    remote = False

    def imap(self, fn: Callable[[Any], Any], payloads: Iterable[Any]) -> Iterator[Any]:
        return map(fn, payloads)

    def imap_unordered(
        self, fn: Callable[[Any], Any], payloads: Iterable[Any]
    ) -> Iterator[Any]:
        """Completion order == payload order in-process."""
        return map(fn, payloads)

    def close(self) -> None:
        pass


class ProcessPoolBackend:
    """A persistent process pool; results are re-ordered to payload order.

    ``imap`` (not ``imap_unordered``) keeps results in submission order,
    so callers see the exact sequence a serial run would produce — the
    scheduling is free to complete chunks out of order underneath.

    The pool forks from the already-imported parent when that is safe
    (Linux, one Python thread at pool creation) and spawns otherwise;
    see the module docstring for what a forked worker inherits and why
    no output can depend on it.  :attr:`start_method` reports the choice.
    """

    name = "process-pool"
    remote = True

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError("ProcessPoolBackend needs workers >= 2")
        self.workers = workers
        self._start_method: Optional[str] = None
        self._pool = None

    @property
    def start_method(self) -> Optional[str]:
        """``"fork"`` or ``"spawn"``, chosen when the pool was created
        (``None`` before the first call creates it)."""
        return self._start_method

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing as mp

            # Pool threads start only after the fork, so this counts the
            # caller's threads alone.
            single_threaded = threading.active_count() == 1
            method = "fork" if sys.platform == "linux" and single_threaded else "spawn"
            self._pool = mp.get_context(method).Pool(self.workers)
            self._start_method = method
        return self._pool

    def imap(self, fn: Callable[[Any], Any], payloads: Iterable[Any]) -> Iterator[Any]:
        tracer = get_tracer()
        if not tracer.enabled:
            return self._ensure_pool().imap(fn, payloads)
        results = self._ensure_pool().imap(
            functools.partial(_worker_timed_call, fn),
            _tag_payloads(payloads, tracer),
        )
        return _traced_results(results, tracer)

    def imap_unordered(
        self, fn: Callable[[Any], Any], payloads: Iterable[Any]
    ) -> Iterator[Any]:
        """Results in completion order — for callers that persist results
        as they finish (crash durability) and re-order for aggregation
        themselves."""
        tracer = get_tracer()
        if not tracer.enabled:
            return self._ensure_pool().imap_unordered(fn, payloads)
        results = self._ensure_pool().imap_unordered(
            functools.partial(_worker_timed_call, fn),
            _tag_payloads(payloads, tracer),
        )
        return _traced_results(results, tracer)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


def make_backend(workers: Optional[int]) -> "Backend":
    """Serial for 0/1 workers, a process pool otherwise."""
    if workers and workers > 1:
        return ProcessPoolBackend(workers)
    return SerialBackend()

