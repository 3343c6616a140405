"""The execution-service facade.

One object owns what the campaign engine, the fuzzer, and the analysis
harnesses used to hand-roll separately: resolving work units to concrete
tests, picking runners, routing the nvcc side through the content-keyed
:class:`~repro.exec.store.RunStore`, deduping identical work, dispatching
chunks to a :mod:`~repro.exec.backends` backend, and aggregating
hit/miss/execution metrics.

Guarantees:

* **Determinism** — a chunk's outcomes depend only on its requests
  (generation and device execution are pure functions of the specs,
  and a runner's warm caches are pure memos), and backends return
  chunk results in submission order; every caller's output is
  therefore identical at any worker count.
* **One cache rule** — a reuse request replays through the store the
  service was given, in process, and otherwise through a store private
  to its chunk; every compile goes through an artifact cache private to
  its chunk.  Requests that must share run-store entries (a native test
  and its HIPIFY twin) therefore belong in one chunk, where they pair
  identically in process and in a worker.
* **Dedup** — two requests in one chunk with the same (content, hipify
  flag, opts, runner) are executed once; the duplicate's outcome is the
  original's, rebound to the duplicate's test id, with zero execution
  counters.
* **One task** — the process-pool backend runs one chunk task,
  :func:`_execute_task`, one indexed chunk per task with the
  parent's tracing flag riding in the payload; ordered and unordered
  sweeps share one dispatch loop and differ only in ``imap`` versus
  ``imap_unordered``.  Serial backends run each chunk in process
  through :meth:`ExecutionService.run_chunk`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exec.artifacts import ArtifactCache
from repro.exec.backends import Backend, SerialBackend
from repro.exec.content import content_id, content_text
from repro.exec.store import BoundRunCache, RunStore
from repro.exec.units import SweepOutcome, SweepRequest
from repro.harness.runner import PairResult
from repro.telemetry.spans import (
    NullTracer,
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
)

__all__ = ["ExecutionService", "ExecMetrics"]


@dataclass
class ExecMetrics:
    """Aggregate counters across everything a service executed."""

    chunks: int = 0
    requests: int = 0
    executed: int = 0
    deduped: int = 0
    tasks: int = 0
    pair_runs: int = 0
    nvcc_executions: int = 0
    nvcc_cache_hits: int = 0
    hipcc_executions: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_evictions: int = 0
    artifact_hits: int = 0
    artifact_misses: int = 0
    elapsed_seconds: float = 0.0
    #: Always-on phase wall time (seconds), measured with bare
    #: ``perf_counter`` around the store view and the sweep body — no
    #: tracer required, so ``--json`` consumers get timings for free.
    #: These are the one legitimately scheduling-dependent part of the
    #: exec block: counts stay worker-invariant, wall time cannot.
    lookup_seconds: float = 0.0
    execute_seconds: float = 0.0
    commit_seconds: float = 0.0
    #: device executions per stack name (all pairs folded together); the
    #: ``nvcc_executions``/``hipcc_executions`` scalars above remain the
    #: legacy lhs/rhs slot totals.
    executions_by_stack: Dict[str, int] = dataclass_field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "chunks": self.chunks,
            "requests": self.requests,
            "executed": self.executed,
            "deduped": self.deduped,
            "tasks": self.tasks,
            "pair_runs": self.pair_runs,
            "nvcc_executions": self.nvcc_executions,
            "nvcc_cache_hits": self.nvcc_cache_hits,
            "hipcc_executions": self.hipcc_executions,
            "executions_by_stack": {
                name: self.executions_by_stack[name]
                for name in sorted(self.executions_by_stack)
            },
            "store": {
                "hits": self.store_hits,
                "misses": self.store_misses,
                "evictions": self.store_evictions,
                # Always 0 (the store is memory only); the key stays so
                # the campaign JSON, and every digest over it, keep
                # their shape.
                "disk_hits": 0,
            },
            "artifacts": {
                "hits": self.artifact_hits,
                "misses": self.artifact_misses,
            },
            "phase_seconds": {
                "lookup": self.lookup_seconds,
                "execute": self.execute_seconds,
                "commit": self.commit_seconds,
            },
        }


def _rebound_outcome(
    prev: SweepOutcome, test_id: str, tag: Tuple[object, ...]
) -> SweepOutcome:
    """A dedup hit: the original's results under the duplicate's identity."""
    if test_id == prev.test_id:
        pairs = prev.pairs
    else:
        pairs = {
            label: PairResult(
                lhs_runs=[replace(r, test_id=test_id) for r in pair.lhs_runs],
                rhs_runs=[replace(r, test_id=test_id) for r in pair.rhs_runs],
                discrepancies=[
                    replace(d, test_id=test_id) for d in pair.discrepancies
                ],
                skipped_inputs=list(pair.skipped_inputs),
                stacks=pair.stacks,
                lhs_passes=pair.lhs_passes,
                rhs_passes=pair.rhs_passes,
            )
            for label, pair in prev.pairs.items()
        }
    return SweepOutcome(
        tag=tag,
        test_id=test_id,
        content_key=prev.content_key,
        pairs=pairs,
        deduped=True,
        stacks=prev.stacks,
    )


class _TimedView(BoundRunCache):
    """A :class:`BoundRunCache` that accumulates lookup/commit wall time
    into a shared per-chunk phase dict.

    Always on (two ``perf_counter`` calls per store op) so the exec
    metrics carry phase timings even with tracing off; strictly
    out-of-band — behaviour is the base class's, byte for byte.
    """

    def __init__(self, store, key, phases, *, compiler="nvcc"):
        super().__init__(store, key, compiler=compiler)
        self._phases = phases

    def get(self, test_id, opt_label):
        t0 = time.perf_counter()
        try:
            return super().get(test_id, opt_label)
        finally:
            self._phases["lookup"] += time.perf_counter() - t0

    def put(self, test_id, opt_label, outcomes):
        t0 = time.perf_counter()
        try:
            return super().put(test_id, opt_label, outcomes)
        finally:
            self._phases["commit"] += time.perf_counter() - t0


def _execute_requests(
    requests: Sequence[SweepRequest],
    store: Optional[RunStore] = None,
) -> Tuple[List[SweepOutcome], Dict[str, float]]:
    """Run one chunk serially; the core every backend executes.

    Reuse requests replay through ``store`` (the service's own, in
    process) or, without one, through a store private to this chunk;
    every compile goes through an artifact cache private to this chunk.
    Runners are the thread's own
    (:meth:`~repro.exec.units.RunnerSpec.build`), warm from earlier
    chunks, so execution counters are read as deltas.
    """
    tracer = get_tracer()
    # `is None`, not `or`: an empty RunStore is falsy (__len__).
    private = store is None
    if store is None:
        store = RunStore()
    artifacts = ArtifactCache()
    memo: Dict[object, Any] = {}
    # One render and hash per distinct (kernel structure, input lines): a
    # HIPIFY twin or an oracle base request reuses its original's id.
    content_ids: Dict[Tuple[object, ...], str] = {}
    seen: Dict[Tuple[object, ...], SweepOutcome] = {}
    outcomes: List[SweepOutcome] = []
    phases = {"lookup": 0.0, "commit": 0.0}
    execute_seconds = 0.0
    for req in requests:
        runner = req.runner.build()
        test = req.resolve_test(memo)
        kernel = test.program.kernel
        ident = (kernel.structure_key(), tuple(vec.line for vec in test.inputs))
        key = content_ids.get(ident)
        if key is None:
            key = content_ids[ident] = content_id(
                test.fptype, content_text(kernel, test.inputs)
            )
        dedup_key = (
            key,
            test.program.via_hipify,
            tuple(o.label for o in req.opts),
            req.runner,
        )
        prev = seen.get(dedup_key)
        if prev is not None:
            outcomes.append(_rebound_outcome(prev, test.test_id, req.tag))
            continue
        view: Optional[BoundRunCache] = None
        if req.reuse:
            # The store caches the pair's *left* side.  Legacy nvcc-lhs
            # pairs keep the bare content key (every nvcc-lhs pair
            # replays the same runs); other left stacks qualify the key
            # so a (hipcc, cpu) pair can never replay nvcc outcomes as
            # its own.  A flag-recording runner's entries carry flags,
            # which flag-less ones lack, so its key is qualified too.
            lhs = runner.stacks[0]
            view_key = key if lhs == "nvcc" else f"{lhs}@{key}"
            if runner.record_flags:
                view_key = f"flags@{view_key}"
            view = _TimedView(store, view_key, phases, compiler=lhs)
        nv0, hp0 = runner.lhs_executions, runner.rhs_executions
        hits0 = view.hits if view is not None else 0
        lk0, cm0 = phases["lookup"], phases["commit"]
        t0 = time.perf_counter_ns()
        pairs = runner.run_sweep(
            test,
            req.opts,
            lhs_cache=view,
            artifacts=artifacts,
        )
        t1 = time.perf_counter_ns()
        execute_seconds += (
            (t1 - t0) / 1e9
            - (phases["lookup"] - lk0)
            - (phases["commit"] - cm0)
        )
        if tracer.enabled:
            tracer.record(
                "exec.request",
                t0,
                t1,
                lhs=runner.stacks[0],
                rhs=runner.stacks[1],
                cache=(
                    "off"
                    if view is None
                    else ("hit" if view.hits > hits0 else "miss")
                ),
            )
        outcome = SweepOutcome(
            tag=req.tag,
            test_id=test.test_id,
            content_key=key,
            pairs=pairs,
            nvcc_executions=runner.lhs_executions - nv0,
            nvcc_cache_hits=view.hits if view is not None else 0,
            hipcc_executions=runner.rhs_executions - hp0,
            stacks=runner.stacks,
        )
        seen[dedup_key] = outcome
        outcomes.append(outcome)
    # A given store's stats are *not* folded here (the service merges
    # them once in stats()); only this chunk's private caches ride the
    # stats dict back across the process boundary.
    stats: Dict[str, float] = dict(store.stats()) if private else {}
    art = artifacts.stats()
    stats["artifact_hits"] = art["hits"]
    stats["artifact_misses"] = art["misses"]
    stats["lookup_seconds"] = phases["lookup"]
    stats["execute_seconds"] = execute_seconds
    stats["commit_seconds"] = phases["commit"]
    return outcomes, stats


def _execute_task(
    payload: Tuple[bool, Sequence[Tuple[int, Sequence[SweepRequest]]]],
) -> List[Tuple[int, List[SweepOutcome], Dict[str, float], List[SpanRecord]]]:
    """The one chunk task remote backends run: ``(traced, [(index,
    requests)])`` in, ``[(index, outcomes, stats, spans)]`` out.

    The service sends one chunk per task, so a pool hands out work at
    chunk granularity and the first result returns after one chunk; the
    list shape stays because benchmark tooling indexes into it.  Each
    chunk runs through :func:`_execute_requests` with its own private
    store, so results do not depend on how chunks are spread over
    tasks or workers.  When ``traced``, each chunk runs under a fresh
    local tracer (the parent's is unreachable across the process
    boundary) and ships back its spans, ending with an ``exec.chunk``
    span; the parent merges them by the submission-order chunk index,
    never arrival order, keeping traces deterministic.  Untraced, the
    span list is empty.
    """
    traced, group = payload
    results = []
    for index, requests in group:
        tracer = Tracer() if traced else NullTracer()
        previous = set_tracer(tracer)
        try:
            t0 = time.perf_counter_ns()
            outcomes, stats = _execute_requests(requests)
            tracer.record(
                "exec.chunk", t0, time.perf_counter_ns(), requests=len(requests)
            )
        finally:
            set_tracer(previous)
        results.append((index, outcomes, stats, tracer.drain()))
    return results


# perfbench hooks the service's pool tasks by these names (ROADMAP item
# 1); they stay aliases of the one task until it stops hooking by name.
(
    _execute_chunk_task_traced,
    _execute_indexed_chunk_task_traced,
    _execute_group_task_traced,
    _execute_indexed_group_task_traced,
) = (_execute_task,) * 4


class ExecutionService:
    """The one sweep interface every subsystem executes through.

    ``store`` is kept exactly as given: with one, every in-process
    reuse request replays through it (cross-chunk reuse); without one,
    each chunk gets a private store.  Pool chunks always use private
    stores.
    """

    def __init__(
        self,
        backend: Optional[Backend] = None,
        store: Optional[RunStore] = None,
    ) -> None:
        self.backend = backend if backend is not None else SerialBackend()
        self.store = store
        self.metrics = ExecMetrics()

    # ------------------------------------------------------------- sweeps
    def run_sweeps(
        self, chunks: Iterable[Sequence[SweepRequest]]
    ) -> Iterator[List[SweepOutcome]]:
        """Execute chunks through the backend, yielding outcome lists in
        chunk order as they complete (consume lazily to stream)."""
        return (outcomes for _, outcomes in self._sweep(chunks, ordered=True))

    def run_sweeps_unordered(
        self, chunks: Iterable[Sequence[SweepRequest]]
    ) -> Iterator[Tuple[int, List[SweepOutcome]]]:
        """Like :meth:`run_sweeps`, but yielding ``(chunk_index, outcomes)``
        in *completion* order.  For callers that persist each chunk's
        result as it finishes (crash durability) and re-order for
        aggregation themselves; outcome content is identical to the
        ordered path's, only arrival order is scheduling-dependent.
        """
        return self._sweep(chunks, ordered=False)

    def _sweep(
        self, chunks: Iterable[Sequence[SweepRequest]], ordered: bool
    ) -> Iterator[Tuple[int, List[SweepOutcome]]]:
        """The one dispatch loop: local chunks run in order through
        :meth:`run_chunk`; remote ones travel one per task through the
        one chunk task."""
        tracer = get_tracer()
        indexed = ((i, tuple(chunk)) for i, chunk in enumerate(chunks))
        if not self.backend.remote:
            for index, chunk in indexed:
                yield index, self.run_chunk(chunk, index)
            return
        imap = self.backend.imap if ordered else self.backend.imap_unordered
        # Looked up at call time, so a hook installed on this name wraps
        # every task.
        batches = imap(
            _execute_indexed_group_task_traced,
            ((tracer.enabled, [chunk]) for chunk in indexed),
        )
        for batch in batches:
            for index, outcomes, stats, records in batch:
                tracer.merge(index, records)
                self._absorb(outcomes, stats)
                yield index, outcomes

    def run_chunk(
        self, requests: Sequence[SweepRequest], index: int = 0
    ) -> List[SweepOutcome]:
        """One chunk, synchronously, on the calling process: the one
        in-process path.  Replays through the service's store when it
        has one; records an ``exec.chunk`` span for chunk ``index``
        when tracing."""
        tracer = get_tracer()
        t0 = time.perf_counter_ns()
        outcomes, stats = _execute_requests(list(requests), self.store)
        if tracer.enabled:
            tracer.record(
                "exec.chunk",
                t0,
                time.perf_counter_ns(),
                chunk=index,
                requests=len(outcomes),
            )
        self._absorb(outcomes, stats)
        return outcomes

    # -------------------------------------------------------------- tasks
    def map(self, fn: Callable[[Any], Any], payloads: Iterable[Any]) -> List[Any]:
        """Ordered parallel map for non-sweep work units (module-level
        ``fn`` only — payloads may cross a process boundary)."""
        payloads = list(payloads)
        self.metrics.tasks += len(payloads)
        if self.backend.remote:
            return list(self.backend.imap(fn, payloads))
        return [fn(p) for p in payloads]

    # ----------------------------------------------------------- plumbing
    def _absorb(self, outcomes: List[SweepOutcome], stats: Dict[str, float]) -> None:
        m = self.metrics
        m.chunks += 1
        m.requests += len(outcomes)
        for out in outcomes:
            if out.deduped:
                m.deduped += 1
            else:
                m.executed += 1
            m.pair_runs += out.pair_runs
            m.nvcc_executions += out.nvcc_executions
            m.nvcc_cache_hits += out.nvcc_cache_hits
            m.hipcc_executions += out.hipcc_executions
            lhs, rhs = out.stacks
            if out.nvcc_executions:
                m.executions_by_stack[lhs] = (
                    m.executions_by_stack.get(lhs, 0) + out.nvcc_executions
                )
            if out.hipcc_executions:
                m.executions_by_stack[rhs] = (
                    m.executions_by_stack.get(rhs, 0) + out.hipcc_executions
                )
        m.store_hits += stats.get("hits", 0)
        m.store_misses += stats.get("misses", 0)
        m.store_evictions += stats.get("evictions", 0)
        m.artifact_hits += stats.get("artifact_hits", 0)
        m.artifact_misses += stats.get("artifact_misses", 0)
        m.lookup_seconds += stats.get("lookup_seconds", 0.0)
        m.execute_seconds += stats.get("execute_seconds", 0.0)
        m.commit_seconds += stats.get("commit_seconds", 0.0)

    def stats(self) -> Dict[str, object]:
        """Aggregate metrics: chunk-private stores plus the service's."""
        merged = ExecMetrics(**vars(self.metrics))
        if self.store is not None:
            shared = self.store.stats()
            merged.store_hits += shared["hits"]
            merged.store_misses += shared["misses"]
            merged.store_evictions += shared["evictions"]
        return merged.as_dict()

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "ExecutionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
