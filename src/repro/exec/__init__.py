"""repro.exec — the unified execution-service layer.

Every result this reproduction reports comes from the same primitive:
run a test across an optimization sweep on both platforms.  This package
owns that primitive once, as data plus policy:

* :mod:`~repro.exec.units` — typed work units (:class:`SweepRequest` /
  :class:`SweepOutcome`) plus runner specs and each thread's runners;
* :mod:`~repro.exec.content` — content keying: structurally identical
  kernels with identical inputs share one identity;
* :mod:`~repro.exec.store` — the content-keyed :class:`RunStore`
  (memory LRU + optional SQLite file, :mod:`~repro.exec.disk`);
* :mod:`~repro.exec.artifacts` — the structure-keyed compiled-kernel
  :class:`ArtifactCache` (memory LRU);
* :mod:`~repro.exec.backends` — ordered chunk execution, serial, on a
  persistent process pool, or through a :mod:`repro.bridge` worker
  fleet, deterministic at any worker count;
* :mod:`~repro.exec.service` — the :class:`ExecutionService` facade:
  dedup, the one cache rule, dispatch, metrics.

The campaign engine, the fuzzer, the mechanism ablation, and the
math-function sweep all execute through it.
"""

from repro.exec.artifacts import ArtifactCache
from repro.exec.backends import (
    Backend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
    resolve_backend,
)
from repro.exec.content import content_id, content_text, content_id_for
from repro.exec.service import ExecMetrics, ExecutionService
from repro.exec.store import BoundRunCache, RunStore
from repro.exec.units import (
    CorpusTestSpec,
    DerivedTestSpec,
    RunnerSpec,
    SweepOutcome,
    SweepRequest,
)

__all__ = [
    "ArtifactCache",
    "Backend",
    "BoundRunCache",
    "CorpusTestSpec",
    "DerivedTestSpec",
    "ExecMetrics",
    "ExecutionService",
    "make_backend",
    "ProcessPoolBackend",
    "RunnerSpec",
    "resolve_backend",
    "RunStore",
    "SerialBackend",
    "SweepOutcome",
    "SweepRequest",
    "content_id",
    "content_text",
    "content_id_for",
]
