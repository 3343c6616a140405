"""Per-layer accounting for the traced benchmark run.

``install()`` wraps the public functions of each layer from outside
``src/``: module functions are replaced in every ``repro`` module that
binds them (so ``from x import f`` callers are covered too), and methods
are replaced on the defining class and each subclass that overrides
them.  A wrapper returns the wrapped function's result unchanged.

Self time is exclusive time.  The accounting keeps a stack of active
layers; every clock reading charges the interval since the previous
reading to the layer on top of the stack, or to *uncovered* when the
stack is empty.  The self times of one process plus its uncovered time
therefore add up to its traced wall time exactly.  A wrapper whose layer
is already on top of the stack does not push again, so a layer calling
itself counts once.

Process-pool workers (campaign-pool) import the repository afresh, so
the parent also swaps the service's traced chunk tasks for the
``worker_*`` functions below.  A worker installs the same wrappers on
its first task, accounts each task, and ships its totals back as
``perfbench.*`` span records through the tracer merge the service
already does.  Worker time is busy time in another process: it is
reported in the same layers and, in total, as ``trace.worker_s``.

Only the thread that installed the accounting is measured; the pool's
feeder thread runs the wrapped functions unmeasured.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.exec import service as _service
from repro.telemetry.spans import SpanRecord, Tracer, set_tracer

_clock = time.perf_counter_ns

#: Layers whose time counts as analysis (triage and reduction).
ANALYSIS_LAYERS = frozenset(
    ("analysis.triage", "analysis.isolate", "analysis.reduce", "harness.run_single")
)

#: The service's traced chunk tasks, captured before any patching.
_TRACED_TASKS = (
    "_execute_chunk_task_traced",
    "_execute_indexed_chunk_task_traced",
    "_execute_group_task_traced",
    "_execute_indexed_group_task_traced",
)
_ORIGINAL_TASKS = {name: getattr(_service, name) for name in _TRACED_TASKS}


class Accounting:
    """Exclusive time per layer and counts, for one thread of one process."""

    def __init__(self) -> None:
        self.tid = threading.get_ident()
        self.active = False
        self.stack: List[str] = []
        self.depth: Dict[str, int] = defaultdict(int)
        self.last = 0
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.uncovered_ns = 0
        self.wall_ns = 0
        self.worker_ns = 0
        self.analysis_depth = 0
        self.analysis_start = 0
        self.analysis_ns = 0

    # -- the stack ----------------------------------------------------------
    def measuring(self) -> bool:
        return self.active and threading.get_ident() == self.tid

    def enter(self, layer: str) -> None:
        now = _clock()
        if self.stack:
            self.self_ns[self.stack[-1]] += now - self.last
        else:
            self.uncovered_ns += now - self.last
        self.stack.append(layer)
        self.depth[layer] += 1
        if layer in ANALYSIS_LAYERS:
            if self.analysis_depth == 0:
                self.analysis_start = now
            self.analysis_depth += 1
        self.last = now

    def exit(self) -> None:
        now = _clock()
        layer = self.stack.pop()
        self.self_ns[layer] += now - self.last
        self.depth[layer] -= 1
        if layer in ANALYSIS_LAYERS:
            self.analysis_depth -= 1
            if self.analysis_depth == 0:
                self.analysis_ns += now - self.analysis_start
        self.last = now

    # -- one traced case ----------------------------------------------------
    @contextmanager
    def traced(self) -> Iterator[None]:
        """Account one case; a fresh span tracer collects the pool spans."""
        tracer = Tracer()
        previous = set_tracer(tracer)
        self.active = True
        start = self.last = _clock()
        try:
            yield
        finally:
            end = _clock()
            self.uncovered_ns += end - self.last
            self.wall_ns += end - start
            self.active = False
            set_tracer(previous)
        self._absorb_spans(tracer.records())

    def _absorb_spans(self, records: List[SpanRecord]) -> None:
        for rec in records:
            if rec.name.startswith("pool."):
                self.counts[f"span.{rec.name}_ns"] += rec.dur_ns
                for key, value in rec.args:
                    if key == "payload_bytes":
                        self.counts["span.pool.pickle_bytes"] += value
            elif rec.name == "perfbench.self":
                self.self_ns[dict(rec.args)["layer"]] += rec.dur_ns
                self.worker_ns += rec.dur_ns
            elif rec.name == "perfbench.count":
                args = dict(rec.args)
                self.counts[args["key"]] += args["value"]

    def absorb_result(self, family: str, result) -> None:
        """Fold a case's always-on execution metrics and result fields."""
        metrics = getattr(result, "exec_metrics", {}) or {}
        for key in ("requests", "deduped"):
            self.counts[f"exec.{key}"] += metrics.get(key, 0)
        for tier in ("store", "artifacts"):
            for key in ("hits", "misses"):
                self.counts[f"exec.{tier}.{key}"] += metrics.get(tier, {}).get(key, 0)
        for phase, seconds in metrics.get("phase_seconds", {}).items():
            self.counts[f"exec.phase.{phase}_s"] += seconds
        if family == "fuzz":
            self.counts["fuzz.signatures"] += len(result.findings)

    # -- worker side --------------------------------------------------------
    def begin_task(self) -> None:
        self.active = True
        self.last = _clock()
        # Worker time outside every wrapped layer belongs to the chunk task,
        # which is the exec service's.
        self.stack.append("exec.service")

    def end_task(self) -> List[SpanRecord]:
        self.exit()
        self.active = False
        pid = os.getpid()
        records = [
            SpanRecord("perfbench.self", 0, ns, pid, args=(("layer", layer),))
            for layer, ns in sorted(self.self_ns.items())
        ]
        records += [
            SpanRecord("perfbench.count", 0, 0, pid, args=(("key", key), ("value", value)))
            for key, value in sorted(self.counts.items())
        ]
        self.self_ns.clear()
        self.counts.clear()
        return records

    def snapshot(self) -> Dict[str, object]:
        return {
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "uncovered_ns": self.uncovered_ns,
            "wall_ns": self.wall_ns,
            "worker_ns": self.worker_ns,
            "analysis_ns": self.analysis_ns,
        }


_ACTIVE: Optional[Accounting] = None

#: ``count(accounting, args, kwargs, result, reentrant)`` callbacks.
CountFn = Callable[[Accounting, tuple, dict, object, bool], None]


def _wrap(fn: Callable, layer: str, count: Optional[CountFn] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        acct = _ACTIVE
        if acct is None or not acct.measuring():
            return fn(*args, **kwargs)
        reentrant = bool(acct.stack) and acct.stack[-1] == layer
        if reentrant:
            result = fn(*args, **kwargs)
        else:
            acct.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                acct.exit()
        if count is not None:
            count(acct, args, kwargs, result, reentrant)
        return result

    wrapper.__perfbench_wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


class _TimedIterator:
    """Charges each ``next()`` of a lazy iterator to ``layer``."""

    def __init__(self, it, layer: str, on_item: Optional[Callable[[], None]] = None) -> None:
        self._it = iter(it)
        self._layer = layer
        self._on_item = on_item

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        acct = _ACTIVE
        if acct is None or not acct.measuring() or (
            acct.stack and acct.stack[-1] == self._layer
        ):
            return next(self._it)
        acct.enter(self._layer)
        try:
            item = next(self._it)
        finally:
            acct.exit()
        if self._on_item is not None:
            self._on_item()
            self._on_item = None
        return item


def _wrap_iter(fn: Callable, layer: str, first_result: bool = False) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        acct = _ACTIVE
        if acct is None or not acct.measuring() or (acct.stack and acct.stack[-1] == layer):
            return fn(*args, **kwargs)
        t0 = _clock()
        acct.enter(layer)
        try:
            it = fn(*args, **kwargs)
        finally:
            acct.exit()
        on_item = None
        backend = args[0] if args else None
        if first_result and not getattr(backend, "_perfbench_first", False):
            backend._perfbench_first = True

            def on_item() -> None:
                acct.counts["transport.first_result_ns"] += _clock() - t0

        return _TimedIterator(it, layer, on_item)

    wrapper.__perfbench_wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


# -- patching ---------------------------------------------------------------


def _import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _patch_function(module: str, name: str, layer: str, count: Optional[CountFn] = None) -> None:
    original = getattr(importlib.import_module(module), name)
    wrapped = _wrap(original, layer, count)
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _patch_method(
    cls: type, name: str, layer: str, count: Optional[CountFn] = None, *, lazy: bool = False
) -> None:
    for klass in set(_subclasses(cls)):
        fn = klass.__dict__.get(name)
        if fn is None or getattr(fn, "__isabstractmethod__", False):
            continue
        if hasattr(fn, "__perfbench_wrapped__"):
            continue
        if lazy:
            wrapped = _wrap_iter(fn, layer, first_result=(layer == "transport"))
        else:
            wrapped = _wrap(fn, layer, count)
        setattr(klass, name, wrapped)


def _inc(key: str) -> CountFn:
    """Count one call, unless the layer called itself."""

    def count(acct, args, kwargs, result, reentrant):
        if not reentrant:
            acct.counts[key] += 1

    return count


def _count_generated(acct, args, kwargs, result, reentrant):
    acct.counts["varity.programs"] += 1


def _count_batch(acct, args, kwargs, result, reentrant):
    if not reentrant:
        acct.counts["devices.batch_calls"] += 1
        acct.counts["devices.rows"] += len(args[2])


def _count_interpreter_run(acct, args, kwargs, result, reentrant):
    acct.counts["devices.interpreter_runs"] += 1


def _count_classified(acct, args, kwargs, result, reentrant):
    if not reentrant:
        acct.counts["harness.pairs_classified"] += len(args[0])


def _count_run_single(acct, args, kwargs, result, reentrant):
    if not reentrant:
        acct.counts["harness.run_single_calls"] += 1
        if acct.depth["analysis.reduce"]:
            acct.counts["analysis.reduce_run_single_calls"] += 1


def _count_reduction(acct, args, kwargs, result, reentrant):
    acct.counts["analysis.reductions"] += 1
    acct.counts["analysis.steps_accepted"] += result.steps_accepted


def _count_check(acct, args, kwargs, result, reentrant):
    acct.counts["oracle.checks"] += 1


def _patch_layers(worker: bool) -> None:
    from repro.compilers.compiler import Compiler
    from repro.compilers.passes.base import Pass
    from repro.devices.device import Device
    from repro.devices.interpreter import Interpreter
    from repro.devices.mathlib.base import MathLibrary
    from repro.exec.artifacts import ArtifactCache
    from repro.exec.backends import ProcessPoolBackend
    from repro.exec.service import ExecutionService
    from repro.exec.store import RunStore
    from repro.harness.runner import DifferentialRunner
    from repro.oracle.relations import Relation
    from repro.varity.generator import ProgramGenerator
    from repro.varity.inputs import InputGenerator
    from repro.varity.testcase import TestCase

    # corpus generation
    for name in ("build_corpus", "build_corpus_slice", "regenerate_test"):
        _patch_function("repro.varity.corpus", name, "varity")
    _patch_method(ProgramGenerator, "generate", "varity", _count_generated)
    _patch_method(InputGenerator, "generate_many", "varity")
    _patch_function("repro.fuzz.mutators", "apply_mutation", "fuzz.mutators", _inc("fuzz.mutants"))
    # compiler front end and pass pipeline
    for name in ("compile", "compile_sweep"):
        _patch_method(Compiler, name, "compilers", _inc("compilers.compile_calls"))
    _patch_method(Pass, "run", "compilers.passes", _inc("compilers.pass_runs"))
    _patch_method(ArtifactCache, "compile_sweep", "exec.artifacts")
    # HIPIFY: marking a test's twin for the hipcc compatibility path
    _patch_method(TestCase, "hipified", "hipify", _inc("hipify.programs"))
    _patch_function("repro.hipify.translator", "hipify_program", "hipify")
    # execution and math library
    _patch_method(Device, "execute_batch", "devices", _count_batch)
    _patch_method(Device, "execute", "devices", _inc("devices.scalar_rows"))
    _patch_method(Interpreter, "run", "devices", _count_interpreter_run)
    _patch_method(MathLibrary, "call", "devices.mathlib", _inc("devices.mathlib_calls"))
    # run store and execution service
    _patch_method(RunStore, "get", "exec.store.get")
    _patch_method(RunStore, "put", "exec.store.put")
    _patch_function("repro.exec.service", "_execute_requests", "exec.service")
    _patch_method(ExecutionService, "run_chunk", "exec.service")
    for name in ("run_sweeps", "run_sweeps_unordered"):
        _patch_method(ExecutionService, name, "exec.service", lazy=True)
    # runner, classification, triage and reduction
    for name in ("run_sweep", "run_pair"):
        _patch_method(DifferentialRunner, name, "harness.runner")
    _patch_method(DifferentialRunner, "run_single", "harness.run_single", _count_run_single)
    _patch_function("repro.harness.runner", "pair_discrepancies", "harness.classify", _count_classified)
    _patch_function(
        "repro.harness.differential", "classify_pair", "harness.classify",
        _inc("harness.pairs_classified"),
    )
    _patch_function(
        "repro.analysis.triage", "triage_discrepancy", "analysis.triage",
        _inc("analysis.triage_calls"),
    )
    _patch_function("repro.analysis.case_studies", "isolate_divergence", "analysis.isolate")
    _patch_function("repro.analysis.reduce", "reduce_testcase", "analysis.reduce", _count_reduction)
    # oracle relations
    for name in ("build_relation_requests", "check_relation_outcomes", "oracle_check_outcomes"):
        _patch_function("repro.oracle.engine", name, "oracle")
    _patch_method(Relation, "variants", "oracle")
    _patch_method(Relation, "check", "oracle", _count_check)
    if worker:
        return
    # engines (their own bookkeeping: plans, ledgers, signatures)
    _patch_function("repro.harness.campaign", "run_campaign", "engine")
    _patch_function("repro.fuzz.engine", "run_fuzz", "engine")
    _patch_function("repro.oracle.engine", "run_oracle", "engine")
    # transport: the parent's wait on the pool, and the workers' side
    for name in ("imap", "imap_unordered"):
        _patch_method(ProcessPoolBackend, name, "transport", lazy=True)
    for name in _TRACED_TASKS:
        setattr(_service, name, _WORKER_TASKS[name])


def install(worker: bool = False) -> Accounting:
    """Wrap every layer (once per process) and return the accounting."""
    global _ACTIVE
    if _ACTIVE is None:
        _import_all()
        _patch_layers(worker)
        _ACTIVE = Accounting()
    return _ACTIVE


# -- worker tasks (picklable by module path) --------------------------------


def _worker_run(name: str, payload, group: bool):
    acct = install(worker=True)
    acct.begin_task()
    try:
        result = _ORIGINAL_TASKS[name](payload)
    finally:
        records = acct.end_task()
    (result[-1][-1] if group else result[-1]).extend(records)
    return result


def worker_chunk_task(payload):
    return _worker_run("_execute_chunk_task_traced", payload, group=False)


def worker_indexed_chunk_task(payload):
    return _worker_run("_execute_indexed_chunk_task_traced", payload, group=False)


def worker_group_task(payload):
    return _worker_run("_execute_group_task_traced", payload, group=True)


def worker_indexed_group_task(payload):
    return _worker_run("_execute_indexed_group_task_traced", payload, group=True)


_WORKER_TASKS = {
    "_execute_chunk_task_traced": worker_chunk_task,
    "_execute_indexed_chunk_task_traced": worker_indexed_chunk_task,
    "_execute_group_task_traced": worker_group_task,
    "_execute_indexed_group_task_traced": worker_indexed_group_task,
}
