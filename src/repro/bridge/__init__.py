"""repro.bridge — distributed, durable execution for the service layer.

The in-process :class:`~repro.exec.service.ExecutionService` already
makes every caller's output worker-count-invariant; this package grows
that contract across machine boundaries so one campaign saturates a
fleet:

* :mod:`~repro.bridge.schemas` — the JSON wire shapes (jobs, leases,
  results) plus the pickle/base64 payload codec shared by server,
  worker, and client;
* :mod:`~repro.bridge.queue` — a durable SQLite (WAL) job queue with
  lease/ack semantics: workers lease chunks, heartbeat while executing,
  and a dead worker's lease expires so its chunk is re-queued — never
  lost, never committed twice;
* :mod:`~repro.bridge.server` — the ``repro-bridge`` stdlib-only HTTP
  server fronting the queue (JSON bodies, long-poll result collection),
  plus ``repro-bridge migrate``, which imports an old JSONL run store
  into the SQLite content store that
  :class:`~repro.exec.store.RunStore` opens from a ``path`` (one file
  that many sessions can share and write concurrently);
* :mod:`~repro.bridge.worker` — the ``repro-worker`` stateless pull
  loop: lease, execute through the existing serial chunk core, commit;
* :mod:`~repro.bridge.client` — :class:`BridgeBackend`, an
  :class:`~repro.exec.backends.Backend` that ships chunks through the
  server and merges results by submission-order chunk index, so
  ledgers, checkpoints, fingerprints, and content keys are
  byte-identical to a serial run at any worker count.

Everything is stdlib-only (``http.server``, ``urllib``, ``sqlite3``);
payloads ride the existing pickling contract of the process-pool
backend, so the bridge is for trusted fleets, like the pool is for a
trusted machine.
"""

from repro.bridge.client import BridgeBackend, BridgeClient, BridgeError
from repro.bridge.queue import JobQueue

__all__ = [
    "BridgeBackend",
    "BridgeClient",
    "BridgeError",
    "JobQueue",
]
