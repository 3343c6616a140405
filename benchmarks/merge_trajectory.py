"""Merge nightly benchmark outputs into one trajectory artifact.

The nightly workflow runs five probes — a smoke-budget ``repro-fuzz``
session, ``bench_fuzz_engine.py``, ``bench_campaign_engine.py``,
``bench_oracle.py`` and ``bench_stack_matrix.py`` (benches at
``REPRO_BENCH_SCALE=tiny``, each with
``--benchmark-json``) — and this script folds whatever they produced
under ``benchmarks/results/`` into a single ``trajectory.json``:

* one ``meta`` block (commit SHA / ref / run id from the GitHub
  environment when present, so points can be ordered across nights);
* one entry per pytest-benchmark JSON (min/mean/max seconds per bench);
* a ``fuzz_smoke`` block summarizing the nightly fuzz ledger (iterations,
  batches, finding count) parsed directly from the JSONL;
* a ``fuzz_yield`` block from the bench_fuzz_engine search lane when it
  ran (mcts vs hybrid vs blind novel-signature and oracle-violation
  yield at equal budget).

New benches and lanes are gate-safe on first appearance by
construction: the regression gate compares only pytest-benchmark
entries present in *both* artifacts, pass-through summaries (the
exec-service dict, and the ``hot_path`` block lifted from it) carry no
comparable timing shape, and ``only_current`` / ``only_baseline``
benches are recorded but never fail — so adding a lane can never trip
the >2x gate the night it lands.

**Regression gate** (``--baseline``): given the previous night's
``trajectory.json``, every bench present in both artifacts is compared
by mean runtime; slowdowns beyond ``--fail-threshold`` (a ratio — 2.0
means "took twice as long") are recorded in a ``regression`` block and,
when the threshold is set, fail the job with exit code 3.  The merged
artifact is always written *before* the gate exits, so the night's
measurement survives even when the gate trips (upload it with
``if: always()``).  A missing baseline is a note, not a failure — the
first night has nothing to compare against.

Stdlib only, runnable locally::

    python benchmarks/merge_trajectory.py --out benchmarks/results/trajectory.json
    python benchmarks/merge_trajectory.py --baseline previous/trajectory.json \\
        --fail-threshold 2.0

Missing inputs are skipped with a note instead of failing: the artifact
should record what the night measured, not hide it behind a crash.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List

RESULTS_DIR = Path(__file__).parent / "results"

#: pytest-benchmark JSON files the nightly produces, keyed by probe name.
#: Absent entries are reported in the artifact's ``skipped`` list.
BENCHMARK_JSONS = {
    "fuzz_engine": "bench_fuzz_engine.json",
    "campaign_engine": "bench_campaign_engine.json",
    "oracle": "bench_oracle.json",
    "stack_matrix": "bench_stack_matrix.json",
}

#: Extra summaries folded in when present (produced by other jobs or
#: local runs — the exec-service smoke lives in ci.yml); their absence
#: is expected, so they never appear in ``skipped``.
OPPORTUNISTIC_JSONS = {
    "exec_service_bench": "exec_service.json",
}

FUZZ_LEDGER = "nightly_fuzz.jsonl"

#: Summary the bench_fuzz_engine search lane writes: per-arm
#: novel-signature and oracle-violation yield for mcts / hybrid / blind
#: at equal iteration budget.  Optional like the opportunistic JSONs
#: (the lane may not have run), folded into a first-class ``fuzz_yield``
#: block so the strategy gap trends night over night.
SEARCH_YIELD = "fuzz_search_yield.json"

#: Flat metrics snapshot written by ``--metrics-out`` during the fuzz
#: smoke; its ``*_seconds`` counters become the ``phases`` block so the
#: regression gate can name the phase that got slower, not just the
#: bench.  Optional like the opportunistic JSONs.
METRICS_SNAPSHOT = "metrics_snapshot.json"


def _summarize_metrics_snapshot(path: Path) -> Dict[str, float]:
    """``*_seconds`` counters from a telemetry snapshot → phase seconds."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return {}
    if not isinstance(data, dict):
        return {}
    counters = data.get("counters", {})
    if not isinstance(counters, dict):
        return {}
    return {
        name: float(value)
        for name, value in sorted(counters.items())
        if name.endswith("_seconds") and isinstance(value, (int, float))
    }


def _summarize_search_yield(path: Path) -> Dict[str, object]:
    """The search lane's summary → the trajectory's ``fuzz_yield`` block.

    Keeps the scalar trend lines (the mcts-vs-hybrid ratio and each
    arm's per-krun rates) and drops the per-arm bookkeeping; a malformed
    file yields an empty dict (the lane is optional, never a crash).
    """
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return {}
    if not isinstance(data, dict):
        return {}
    arms = data.get("arms", {})
    if not isinstance(arms, dict):
        arms = {}
    out: Dict[str, object] = {
        "scale": data.get("scale", ""),
        "budget": data.get("budget", 0),
        "mcts_vs_hybrid_ratio": data.get("mcts_vs_hybrid_ratio"),
    }
    for name, arm in sorted(arms.items()):
        if not isinstance(arm, dict):
            continue
        out[f"{name}_novel_per_krun"] = arm.get("novel_per_krun")
        out[f"{name}_violations_per_krun"] = arm.get("violations_per_krun")
    tree = data.get("tree", {})
    if isinstance(tree, dict):
        out["tree_nodes"] = tree.get("nodes")
        out["tree_max_depth"] = tree.get("max_depth")
        out["coverage_features"] = tree.get("coverage_features")
    return out


def _meta() -> Dict[str, object]:
    return {
        "commit": os.environ.get("GITHUB_SHA", ""),
        "ref": os.environ.get("GITHUB_REF", ""),
        "run_id": os.environ.get("GITHUB_RUN_ID", ""),
        "scale": os.environ.get("REPRO_BENCH_SCALE", ""),
    }


def _summarize_pytest_benchmark(path: Path) -> object:
    data = json.loads(path.read_text(encoding="utf-8"))
    benches = data.get("benchmarks")
    if benches is None:
        # Not a pytest-benchmark file (e.g. the exec-service bench writes
        # its own summary dict); pass it through verbatim.
        return data
    out: List[Dict[str, object]] = []
    for bench in benches:
        stats = bench.get("stats", {})
        out.append(
            {
                "name": bench.get("name", "?"),
                "min_s": stats.get("min"),
                "mean_s": stats.get("mean"),
                "max_s": stats.get("max"),
                "rounds": stats.get("rounds"),
            }
        )
    return out


def _summarize_fuzz_ledger(path: Path) -> Dict[str, object]:
    iterations = 0
    batches = 0
    findings = 0
    baseline_signatures = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail: the ledger's own readers drop it too
        kind = record.get("kind")
        if kind == "baseline":
            baseline_signatures = len(record.get("signatures", []))
        elif kind == "batch":
            batches += 1
            iterations = max(iterations, int(record.get("stop", 0)))
            findings += len(record.get("findings", []))
    return {
        "iterations": iterations,
        "batches": batches,
        "findings": findings,
        "baseline_signatures": baseline_signatures,
    }


def _bench_means(payload: Dict[str, object]) -> Dict[str, float]:
    """Flatten a trajectory's benchmarks to ``{probe::bench: mean_s}``.

    Only pytest-benchmark entries (lists of per-bench stats) participate
    in the gate; pass-through summaries (the exec-service bench's own
    dict) carry no comparable timing shape.
    """
    out: Dict[str, float] = {}
    benchmarks = payload.get("benchmarks", {})
    if not isinstance(benchmarks, dict):
        return out
    for probe, entry in benchmarks.items():
        if not isinstance(entry, list):
            continue
        for bench in entry:
            name = bench.get("name", "?")
            mean = bench.get("mean_s")
            if isinstance(mean, (int, float)) and mean > 0:
                out[f"{probe}::{name}"] = float(mean)
    return out


def compare_against_baseline(
    payload: Dict[str, object], baseline: Dict[str, object], threshold: float
) -> Dict[str, object]:
    """Per-bench throughput comparison: current mean vs the baseline's.

    Returns the ``regression`` block: every common bench's slowdown
    ratio (current/previous; >1 is slower), the benches beyond
    ``threshold``, and the benches only one side measured (never a
    failure — a renamed bench must not wedge the nightly forever).
    """
    current = _bench_means(payload)
    previous = _bench_means(baseline)
    common = sorted(current.keys() & previous.keys())
    ratios = {name: current[name] / previous[name] for name in common}
    failures = sorted(name for name, r in ratios.items() if r > threshold)
    meta = baseline.get("meta", {})
    # Phase-level ratios (telemetry snapshot seconds): informational,
    # never a failure by themselves — they exist so a failing bench can
    # be blamed on the phase that actually slowed down.
    cur_phases = payload.get("phases", {})
    prev_phases = baseline.get("phases", {})
    phase_ratios: Dict[str, float] = {}
    if isinstance(cur_phases, dict) and isinstance(prev_phases, dict):
        for name in sorted(cur_phases.keys() & prev_phases.keys()):
            cur_v, prev_v = cur_phases[name], prev_phases[name]
            if (
                isinstance(cur_v, (int, float))
                and isinstance(prev_v, (int, float))
                and prev_v > 0
            ):
                phase_ratios[name] = round(float(cur_v) / float(prev_v), 4)
    return {
        "baseline_commit": meta.get("commit", "") if isinstance(meta, dict) else "",
        "threshold": threshold,
        "ratios": {name: round(r, 4) for name, r in ratios.items()},
        "failures": failures,
        "phase_ratios": phase_ratios,
        "only_current": sorted(current.keys() - previous.keys()),
        "only_baseline": sorted(previous.keys() - current.keys()),
    }


def merge(results_dir: Path) -> Dict[str, object]:
    payload: Dict[str, object] = {"meta": _meta(), "benchmarks": {}, "skipped": []}
    benchmarks: Dict[str, object] = payload["benchmarks"]  # type: ignore[assignment]
    skipped: List[str] = payload["skipped"]  # type: ignore[assignment]
    for name, filename in BENCHMARK_JSONS.items():
        path = results_dir / filename
        if path.exists():
            benchmarks[name] = _summarize_pytest_benchmark(path)
        else:
            skipped.append(filename)
    for name, filename in OPPORTUNISTIC_JSONS.items():
        path = results_dir / filename
        if path.exists():
            benchmarks[name] = _summarize_pytest_benchmark(path)
    # Lift the hot-path ratios out of the exec-service summary so they
    # trend as a first-class block, not fields buried in a pass-through
    # dict: batch_speedup is the scalar-baseline-vs-batched-serial gain,
    # pool_vs_serial the pool's gain over batched serial.  Gate-safe:
    # nothing here has the per-bench list shape ``_bench_means`` folds
    # into the comparison.
    exec_summary = benchmarks.get("exec_service_bench")
    if isinstance(exec_summary, dict) and "batch_speedup" in exec_summary:
        payload["hot_path"] = {
            "batch_speedup": exec_summary.get("batch_speedup"),
            "pool_vs_serial": exec_summary.get("pool_vs_serial"),
            "scalar_seconds": exec_summary.get("scalar_seconds"),
            "serial_seconds": exec_summary.get("serial_seconds"),
            "pool_seconds": exec_summary.get("pool_seconds"),
        }
    ledger = results_dir / FUZZ_LEDGER
    if ledger.exists():
        payload["fuzz_smoke"] = _summarize_fuzz_ledger(ledger)
    else:
        skipped.append(FUZZ_LEDGER)
    # The search-strategy yield comparison: mcts vs hybrid vs blind
    # novel-signature and oracle-violation rates at equal budget.
    # Gate-safe like hot_path — a dict, not a per-bench list.
    search_yield = results_dir / SEARCH_YIELD
    if search_yield.exists():
        summary = _summarize_search_yield(search_yield)
        if summary:
            payload["fuzz_yield"] = summary
    snapshot = results_dir / METRICS_SNAPSHOT
    if snapshot.exists():
        phases = _summarize_metrics_snapshot(snapshot)
        if phases:
            payload["phases"] = phases
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir", type=Path, default=RESULTS_DIR, help="input directory"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=RESULTS_DIR / "trajectory.json",
        help="merged artifact path",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="previous night's trajectory.json to compare against "
        "(missing file: comparison skipped with a note)",
    )
    parser.add_argument(
        "--fail-threshold",
        type=float,
        default=None,
        help="fail (exit 3) when any common bench's mean slows down by "
        "more than this ratio vs the baseline (e.g. 2.0 = twice as slow); "
        "without it the comparison is recorded but never fails",
    )
    args = parser.parse_args(argv)
    if args.fail_threshold is not None and args.fail_threshold <= 1.0:
        parser.error(
            f"--fail-threshold must be > 1.0 (got {args.fail_threshold})"
        )
    if args.fail_threshold is not None and args.baseline is None:
        parser.error("--fail-threshold requires --baseline")

    payload = merge(args.results_dir)
    regression: Dict[str, object] = {}
    if args.baseline is not None:
        if args.baseline.exists():
            try:
                baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                # Missing-at-read or partially-written (torn) artifact:
                # the first night after a retention gap must pass with a
                # note, never require manual handling.
                print(
                    f"baseline {args.baseline} is missing or not valid JSON; "
                    "comparison skipped",
                    file=sys.stderr,
                )
                baseline = None
            if baseline is not None and not isinstance(baseline, dict):
                print(
                    f"baseline {args.baseline} is valid JSON but not a "
                    "trajectory object; comparison skipped",
                    file=sys.stderr,
                )
                baseline = None
            if baseline is not None:
                regression = compare_against_baseline(
                    payload,
                    baseline,
                    args.fail_threshold if args.fail_threshold is not None else 2.0,
                )
                payload["regression"] = regression
        else:
            print(
                f"baseline {args.baseline} not found (first night?); "
                "comparison skipped",
                file=sys.stderr,
            )

    # Write the artifact BEFORE the gate can fail: the measurement must
    # survive a tripped gate so the next night has a baseline.
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if payload["skipped"]:
        print(f"skipped missing inputs: {', '.join(payload['skipped'])}", file=sys.stderr)
    print(f"wrote {args.out}")

    failures = regression.get("failures", [])
    if regression and failures:
        ratios = regression.get("ratios", {})
        phase_ratios = regression.get("phase_ratios", {})
        # Name the phase that slowed down the most, when the telemetry
        # snapshot gives us one — "this phase got slower", not just
        # "runs/s went down".
        blame = ""
        slowed = {n: r for n, r in phase_ratios.items() if r > 1.0}
        if slowed:
            worst = max(slowed, key=lambda n: slowed[n])
            blame = f" (slowest-growing phase: {worst} at {slowed[worst]:.2f}x)"
        for name in failures:
            print(
                f"REGRESSION: {name} slowed down {ratios.get(name, 0.0):.2f}x "
                f"vs baseline {regression.get('baseline_commit', '')[:12]}"
                f"{blame}",
                file=sys.stderr,
            )
        if args.fail_threshold is not None:
            return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
