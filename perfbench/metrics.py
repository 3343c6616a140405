"""Named per-layer metrics from the raw accounting of ``layers.py``.

Kept apart from ``layers.py`` so that ``run.py`` can name the metrics
without importing the code under test.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: Dict[str, object]) -> Dict[str, Tuple[float, str]]:
    """Named per-layer metrics (value, unit) from one traced sample."""
    s = {k: v / 1e9 for k, v in raw["self_ns"].items()}  # type: ignore[union-attr]
    c = defaultdict(float, raw["counts"])  # type: ignore[arg-type]
    rows = c["devices.rows"] + c["devices.scalar_rows"]
    wall = raw["wall_ns"] / 1e9  # type: ignore[operator]
    art_total = c["exec.artifacts.hits"] + c["exec.artifacts.misses"]
    store_total = c["exec.store.hits"] + c["exec.store.misses"]
    sec, cnt, ratio = "s", "count", "ratio"
    return {
        "varity.generate_s": (s.get("varity", 0.0), sec),
        "varity.programs": (c["varity.programs"], cnt),
        "fuzz.mutate_s": (s.get("fuzz.mutators", 0.0), sec),
        "fuzz.mutants": (c["fuzz.mutants"], cnt),
        "compilers.front_end_s": (s.get("compilers", 0.0), sec),
        "compilers.compile_calls": (c["compilers.compile_calls"], cnt),
        "compilers.passes_s": (s.get("compilers.passes", 0.0), sec),
        "compilers.pass_runs": (c["compilers.pass_runs"], cnt),
        "exec.artifacts.key_s": (s.get("exec.artifacts", 0.0), sec),
        "exec.artifacts.hit_ratio": (_ratio(c["exec.artifacts.hits"], art_total), ratio),
        "exec.artifacts.misses": (c["exec.artifacts.misses"], cnt),
        "hipify.translate_s": (s.get("hipify", 0.0), sec),
        "hipify.programs": (c["hipify.programs"], cnt),
        "devices.execute_s": (s.get("devices", 0.0), sec),
        "devices.batch_calls": (c["devices.batch_calls"], cnt),
        "devices.rows": (c["devices.rows"], cnt),
        "devices.rows_per_s": (_ratio(rows, s.get("devices", 0.0)), "1/s"),
        "devices.scalar_rows": (c["devices.scalar_rows"], cnt),
        "devices.fallback_rows": (
            c["devices.interpreter_runs"] - c["devices.scalar_rows"], cnt
        ),
        "devices.mathlib_s": (s.get("devices.mathlib", 0.0), sec),
        "devices.mathlib_calls": (c["devices.mathlib_calls"], cnt),
        "exec.store.get_s": (s.get("exec.store.get", 0.0), sec),
        "exec.store.put_s": (s.get("exec.store.put", 0.0), sec),
        "exec.store.hit_ratio": (_ratio(c["exec.store.hits"], store_total), ratio),
        "exec.dedup_ratio": (_ratio(c["exec.deduped"], c["exec.requests"]), ratio),
        "exec.phase.lookup_s": (c["exec.phase.lookup_s"], sec),
        "exec.phase.execute_s": (c["exec.phase.execute_s"], sec),
        "exec.phase.commit_s": (c["exec.phase.commit_s"], sec),
        "exec.service_s": (s.get("exec.service", 0.0), sec),
        "harness.runner_s": (s.get("harness.runner", 0.0), sec),
        "harness.classify_s": (s.get("harness.classify", 0.0), sec),
        "harness.pairs_classified": (c["harness.pairs_classified"], cnt),
        "harness.run_single_s": (s.get("harness.run_single", 0.0), sec),
        "harness.run_single_calls": (c["harness.run_single_calls"], cnt),
        "analysis.triage_s": (s.get("analysis.triage", 0.0), sec),
        "analysis.triage_calls": (c["analysis.triage_calls"], cnt),
        "analysis.triage_calls_per_signature": (
            _ratio(c["analysis.triage_calls"], c["fuzz.signatures"]), ratio
        ),
        "analysis.isolate_s": (s.get("analysis.isolate", 0.0), sec),
        "analysis.reduce_s": (s.get("analysis.reduce", 0.0), sec),
        "analysis.reduce_accept_ratio": (
            _ratio(c["analysis.steps_accepted"], c["analysis.reduce_run_single_calls"]), ratio
        ),
        "analysis.inclusive_s": (raw["analysis_ns"] / 1e9, sec),  # type: ignore[operator]
        "analysis.wall_share": (_ratio(raw["analysis_ns"] / 1e9, wall), ratio),  # type: ignore[operator]
        "oracle.relations_s": (s.get("oracle", 0.0), sec),
        "oracle.checks": (c["oracle.checks"], cnt),
        "engine.self_s": (s.get("engine", 0.0), sec),
        "transport.parent_wait_s": (s.get("transport", 0.0), sec),
        "transport.first_result_s": (c["transport.first_result_ns"] / 1e9, sec),
        "transport.pickle_s": (c["span.pool.pickle_ns"] / 1e9, sec),
        "transport.pickle_bytes": (c["span.pool.pickle_bytes"], "bytes"),
        "transport.queue_wait_s": (c["span.pool.queue_wait_ns"] / 1e9, sec),
        "transport.worker_execute_s": (c["span.pool.execute_ns"] / 1e9, sec),
        "transport.result_wait_s": (c["span.pool.result_wait_ns"] / 1e9, sec),
        "trace.wall_s": (wall, sec),
        "trace.uncovered_s": (raw["uncovered_ns"] / 1e9, sec),  # type: ignore[operator]
        "trace.worker_s": (raw["worker_ns"] / 1e9, sec),  # type: ignore[operator]
    }


#: Every per-layer metric a traced run reports, in report order.
LAYER_METRICS = list(
    layer_metrics(
        {"self_ns": {}, "counts": {}, "uncovered_ns": 0, "wall_ns": 0, "worker_ns": 0, "analysis_ns": 0}
    )
) + ["trace.overhead_ratio"]
