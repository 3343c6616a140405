"""Execution-service throughput: serial vs process pool vs warm store.

The workload is the fuzz engine's evaluation shape at default fuzz scale
— one chunk per program holding the native sweep plus its HIPIFY twin
(CUDA half replayed from the content-keyed store) — pushed through four
execution configurations:

* ``scalar``    — ``SerialBackend`` with the batch hot path switched OFF:
  every batch runs row by row on the reference tree walk
  (``tests/reference_interpreter.py``, under ``reference_batches()``)
  and every sweep recompiles (under ``uncached_compiles()``) — the
  baseline the batch speedup is measured against.  The lane still
  shares one execution across opt settings whose kernels came out
  identical, as every runner does;
* ``serial``    — ``SerialBackend`` with a cold in-memory ``RunStore``
  (this pass also fills the store the warm mode replays);
* ``pool``      — ``ProcessPoolBackend``, the same chunks fanned out to
  pool workers (forked from the already-imported bench process on
  single-threaded Linux, spawned elsewhere);
* ``warm``      — ``SerialBackend`` again, handed the very store object
  the serial pass filled: every CUDA-side run replays, zero nvcc
  executions.

All modes must produce identical discrepancy sets (the backends'
ordered-results contract).  On multi-core hosts the pool must beat
serial on wall clock and the warm store must beat a cold one; both perf
assertions are informational at tiny (CI smoke) scale, and the pool one
is skipped on single-core machines where no speedup is physically
possible.

The JSON summary lands in ``benchmarks/results/exec_service.json`` — CI
runs this bench in smoke mode and uploads that file as an artifact to
start the perf trajectory.

The pool pass runs under a live tracer: its Chrome trace is written to
``benchmarks/results/exec_service_trace.json`` (loadable in
``chrome://tracing``/Perfetto) and the summary JSON attributes the pool
wall clock to the four backend phases (pickle / queue wait / worker
execute / result wait) — the evidence base for the ROADMAP's
pool-loses-to-serial hot-path item.  Tracing adds a second payload
pickle per chunk, so the pool pass carries a small known overhead.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.exec import (
    ExecutionService,
    ProcessPoolBackend,
    RunStore,
    RunnerSpec,
    SerialBackend,
    SweepRequest,
)
from repro.compilers.options import PAPER_OPT_SETTINGS
from repro.telemetry.export import write_chrome_trace
from repro.telemetry.spans import Tracer, set_tracer
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import build_corpus

from conftest import emit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_interpreter import reference_batches, uncached_compiles  # noqa: E402

SCALE = os.environ.get("REPRO_BENCH_SCALE", "default")

#: The phases that tile each chunk's [submit, arrive] interval.
POOL_PHASES = ("pool.pickle", "pool.queue_wait", "pool.execute", "pool.result_wait")


def _union_seconds(records, names):
    """Length of the union of the named spans' intervals, in seconds.

    Overlap across chunks/workers is collapsed, so the result is
    comparable to wall clock: it answers "for what fraction of the run
    was at least one named phase in flight?"."""
    spans = sorted(
        (r.start_ns, r.start_ns + r.dur_ns) for r in records if r.name in names
    )
    total = 0
    cur_start = cur_end = None
    for start, end in spans:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total / 1e9


def _workload():
    """One chunk per program: native sweep + HIPIFY twin, fuzz-style."""
    n_programs = {"tiny": 12, "paper": 400}.get(SCALE, 120)
    corpus = build_corpus(
        GeneratorConfig.fp32(inputs_per_program=3), n_programs, root_seed=2024
    )

    chunks = [
        [
            SweepRequest(
                test=t, opts=PAPER_OPT_SETTINGS, tag=("native",), runner=RunnerSpec()
            ),
            SweepRequest(
                test=t.hipified(),
                opts=PAPER_OPT_SETTINGS,
                tag=("hipify",),
                runner=RunnerSpec(),
            ),
        ]
        for t in corpus
    ]
    return n_programs, chunks


def _run(service, chunks):
    totals = {"pair_runs": 0, "nvcc_executions": 0, "nvcc_cache_hits": 0}
    keys = []
    t0 = time.perf_counter()
    try:
        for outcomes in service.run_sweeps(chunks):
            for o in outcomes:
                totals["pair_runs"] += o.pair_runs
                totals["nvcc_executions"] += o.nvcc_executions
                totals["nvcc_cache_hits"] += o.nvcc_cache_hits
                keys.extend(
                    (o.tag[0], d.test_id, d.input_index, d.opt_label, d.dclass.value)
                    for d in o.iter_discrepancies()
                )
    finally:
        service.close()
    return time.perf_counter() - t0, totals, sorted(keys)


def test_exec_service_throughput(results_dir):
    n_programs, chunks = _workload()
    workers = max(2, (os.cpu_count() or 2) - 1)

    # The batch hot path switched off: the reference tree walk row by
    # row and a fresh compile per sweep.  ``batch_speedup`` in the
    # summary JSON is the ratio of this lane to the batched serial lane.
    with reference_batches(), uncached_compiles():
        scalar_s, scalar_t, scalar_keys = _run(
            ExecutionService(SerialBackend(), RunStore(max_entries=4096)), chunks
        )
    # The warm lane replays this store; 4096 entries hold every
    # (program, opt) entry of the paper-scale workload, so none is evicted.
    store = RunStore(max_entries=4096)
    serial_s, serial_t, serial_keys = _run(
        ExecutionService(SerialBackend(), store), chunks
    )
    # The pool pass runs traced: workers ship span batches back with
    # their results, the backend records the queue/pickle/execute/wait
    # phases, and the merged trace attributes the pool's wall clock.
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        pool_s, pool_t, pool_keys = _run(
            ExecutionService(ProcessPoolBackend(workers)), chunks
        )
    finally:
        set_tracer(previous)
    records = tracer.records()

    warm_s, warm_t, warm_keys = _run(ExecutionService(SerialBackend(), store), chunks)

    # Correctness first: every mode finds the same discrepancies and the
    # twin's CUDA half always rides the cache.  The scalar lane is the
    # strongest check — the reference tree walk, no artifact cache, same
    # bits.
    assert scalar_keys == serial_keys == pool_keys == warm_keys
    assert scalar_t == serial_t == pool_t
    assert serial_t["nvcc_cache_hits"] == serial_t["nvcc_executions"]
    # The warm store serves the *entire* CUDA side.
    assert warm_t["nvcc_executions"] == 0
    assert warm_t["pair_runs"] == serial_t["pair_runs"]
    # The batched hot path must win at EVERY scale, including CI smoke —
    # a batched serial pass slower than the scalar baseline means the
    # vector interpreter or the artifact cache regressed.
    assert serial_s < scalar_s, (
        f"batched serial ({serial_s:.2f}s) did not beat the scalar "
        f"baseline ({scalar_s:.2f}s)"
    )

    # Pool wall-clock attribution: the fraction of the pool pass during
    # which at least one named backend phase was in flight.  What the
    # union misses is pool start-up/teardown and the parent's own chunk
    # bookkeeping.
    write_chrome_trace(records, results_dir / "exec_service_trace.json")
    phase_totals = {
        name: round(
            sum(r.dur_ns for r in records if r.name == name) / 1e9, 3
        )
        for name in POOL_PHASES
    }
    attribution = _union_seconds(records, POOL_PHASES) / pool_s if pool_s else 0.0

    multicore = (os.cpu_count() or 1) >= 2
    if SCALE != "tiny":
        # At tiny scale pool start-up/teardown dominates and the bound is
        # not meaningful; at real scale ≥90% of the pool wall must be
        # attributed to named phases.
        assert attribution >= 0.9, (
            f"only {100 * attribution:.0f}% of pool wall time attributed "
            f"to {POOL_PHASES}"
        )
        assert warm_s < serial_s, (
            f"warm store ({warm_s:.1f}s) did not beat cold serial ({serial_s:.1f}s)"
        )
        # The PR-9 acceptance bar: batch interpreter + artifact cache
        # together at least double the serial throughput.
        assert scalar_s / serial_s >= 2.0, (
            f"batch speedup {scalar_s / serial_s:.2f}x < 2x "
            f"(scalar {scalar_s:.1f}s, batched {serial_s:.1f}s)"
        )
        if multicore:
            assert pool_s < serial_s, (
                f"pool backend ({pool_s:.1f}s, workers={workers}) did not beat "
                f"serial ({serial_s:.1f}s)"
            )

    rows = [
        ("scalar baseline", scalar_s, scalar_t),
        ("serial (cold store)", serial_s, serial_t),
        (f"pool (workers={workers})", pool_s, pool_t),
        ("serial (warm store)", warm_s, warm_t),
    ]
    lines = [
        f"execution service throughput ({n_programs} fp32 programs, "
        f"native+hipify chunks, 5 opt settings)",
        "",
        f"{'mode':<22} {'seconds':>8} {'runs/s':>8} {'pair runs':>10} "
        f"{'nvcc execs':>11} {'cache hits':>11}",
    ]
    for label, seconds, totals in rows:
        rate = totals["pair_runs"] / seconds if seconds else 0.0
        lines.append(
            f"{label:<22} {seconds:>8.2f} {rate:>8.0f} {totals['pair_runs']:>10} "
            f"{totals['nvcc_executions']:>11} {totals['nvcc_cache_hits']:>11}"
        )
    lines.append("")
    lines.append(
        f"pool wall attribution: {100 * attribution:.0f}% "
        f"({', '.join(f'{k.split(chr(46))[1]} {v:.2f}s' for k, v in phase_totals.items())})"
    )
    emit(results_dir, "exec_service_throughput", "\n".join(lines))

    # The serial-vs-pool gap, explained: worker execute seconds are the
    # useful work (summed across workers, so > wall at high utilization);
    # pickle + queue wait + result wait are the overhead the pool pays
    # that serial never does.
    overhead = (
        phase_totals["pool.pickle"]
        + phase_totals["pool.queue_wait"]
        + phase_totals["pool.result_wait"]
    )
    summary = {
        "scale": SCALE,
        "programs": n_programs,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "pair_runs": serial_t["pair_runs"],
        "scalar_seconds": round(scalar_s, 3),
        "serial_seconds": round(serial_s, 3),
        "pool_seconds": round(pool_s, 3),
        "warm_seconds": round(warm_s, 3),
        # The two headline ratios (scalar = the reference tree walk row
        # by row + no artifact cache; serial = the batched default).
        "batch_speedup": round(scalar_s / serial_s, 3) if serial_s else None,
        "pool_vs_serial": round(serial_s / pool_s, 3) if pool_s else None,
        "pool_speedup": round(serial_s / pool_s, 3) if pool_s else None,
        "warm_speedup": round(serial_s / warm_s, 3) if warm_s else None,
        "pool_phase_seconds": phase_totals,
        "pool_wall_attribution": round(attribution, 3),
        "pool_gap_explanation": (
            f"serial {serial_s:.2f}s vs pool {pool_s:.2f}s: workers spent "
            f"{phase_totals['pool.execute']:.2f}s executing (summed across "
            f"{workers} workers) while the pool paid "
            f"{overhead:.2f}s of pickle/queue/result overhead serial never pays"
        ),
    }
    (results_dir / "exec_service.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
