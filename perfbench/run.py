"""Layer-attributed benchmark of the repro-campaign, repro-fuzz and
repro-oracle entry points.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``campaign``, ``campaign-pool``,
``fuzz`` and ``oracle``.  Each is a fixed suite of pinned cases; a case
is one call of a CLI's ``main`` with its own workload seed.  Every run
executes the whole suite, in an order drawn from ``--seed``.

The suite is fixed because generated tests cost very unequal amounts:
loop trip counts are inputs and loops nest three deep, so one program
can take a quarter of a case.  Runs that drew a third of a larger suite
per seed moved ``wall_s`` by 20 to 30 percent with the draw alone, even
after scaling by calibrated case weights.

A run is a closed loop with one client that measures for ``--seconds``.
It first starts one set-up-only process, which fills the bytecode cache
and is not counted.  Then, until the next round is expected to end past
``--seconds`` (and for at least three rounds), each round starts one
set-up-only process and one *sample*: a fresh process that sets up and
runs every case once.  Every case's output digest and pair runs are
checked against ``suite.json``; a sample with an error or a mismatch
counts as failed and the command exits 1.

Every metric is the median over its samples, reported with quartiles
and the sample count.  ``wall_s`` is the suite's wall time in one
untraced sample and ``pair_runs_per_s`` the suite's pair runs over it;
``setup_s`` comes from every counted process, ``peak_rss_mb`` from the
untraced samples.

The machine this was sized on is shared, and its speed shifts by a third
for minutes at a time: ten runs of identical work gave ``wall_s``
spreads (quartile distance over median) up to 0.37, and set-up time
moved with it.  So each sample also times a fixed pure-Python loop that
runs none of ``src/`` (``reference_s``, once before and once after the
cases), and the bounded end-to-end metrics are relative to it:
``wall_rel`` is the suite's wall time over the loop's, and
``pair_runs_per_ref`` the suite's pair runs over ``wall_rel``.  On the
same runs their spread was 0.04 to 0.06.  ``wall_s``,
``pair_runs_per_s`` and ``reference_s`` are reported in the stamp and
with the per-layer metrics.

With ``--trace 0`` the last line of standard output is the result JSON
with the end-to-end metrics.  With ``--trace 1`` each round runs an
untraced and a traced sample; the traced one wraps every layer
(``layers.py``) and the result carries the per-layer metrics
(``metrics.py``), totals over the suite, median over traced samples.
Each run also writes under ``perfbench/out/``, tagged
``<workload>-seed<N>-trace<T>``:

* ``<tag>.json``: the stamp (cpu count, Python and NumPy versions,
  source commit and digest, seed, cases, per-case wall times) and every
  metric's median, quartiles and sample count;
* with ``--trace 1``, ``<tag>.snapshot.json``: the per-layer numbers as
  a ``{"counters", "gauges"}`` snapshot, which ``repro-report render``
  and ``repro-report diff`` read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(HERE))

from perfbench.metrics import LAYER_METRICS, layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SAMPLE = os.path.join(HERE, "sample.py")
SAMPLE_TIMEOUT_S = 150
MIN_ROUNDS = 3
END_TO_END = {
    "setup_s": "s",
    "wall_rel": "ratio",
    "pair_runs_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
#: Raw timings of the untraced samples.  They move with the host, so they
#: are reported with the per-layer metrics, which carry no bound.
RAW = {
    "wall_s": "s",
    "pair_runs_per_s": "1/s",
    "reference_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or suite)."""


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def choose_cases(n_cases: int, seed: int) -> List[int]:
    """The whole suite, in an order drawn from ``seed``."""
    return random.Random(seed).sample(range(n_cases), n_cases)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Bench:
    def __init__(self, root: str, args: argparse.Namespace) -> None:
        self.root = root
        self.args = args
        self.workload = WORKLOADS[args.workload]
        src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
            raise BenchError(f"no repro sources under {src}")
        suite_path = os.path.join(HERE, "suite.json")
        try:
            with open(suite_path, encoding="utf-8") as fh:
                suite = json.load(fh)
            self.pins = suite["families"][self.workload.family]["cases"]
        except (OSError, KeyError, ValueError) as exc:
            raise BenchError(f"cannot read the pinned suite {suite_path}: {exc}")
        self.cases = choose_cases(len(self.pins), args.seed)
        self.pair_runs = sum(int(self.pins[c]["pair_runs"]) for c in self.cases)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, root)))
        self.workdir = os.path.join(HERE, ".work", str(os.getpid()))
        self.units: Dict[str, str] = dict(END_TO_END, **RAW, **{"trace.overhead_ratio": "ratio"})

    # -- processes ----------------------------------------------------------
    def spawn(self, *, trace: bool = False, setup_only: bool = False) -> Dict[str, object]:
        argv = [
            sys.executable, SAMPLE,
            "--workload", self.workload.name,
            "--cases", ",".join(map(str, self.cases)),
            "--workdir", self.workdir,
        ]
        if trace:
            argv.append("--trace")
        if setup_only:
            argv.append("--setup-only")
        t0 = monotonic_ns()
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, start_new_session=True, text=True,
        )
        try:
            out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": f"sample timed out after {SAMPLE_TIMEOUT_S} s"}
        finally:
            # Pool workers left behind by a failed sample share its group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            return {"error": f"sample exited {proc.returncode}: {err.strip()[-2000:]}"}
        record = json.loads(out.strip().splitlines()[-1])
        record["setup_s"] = (record["ready_ns"] - t0) / 1e9
        return record

    def check(self, record: Dict[str, object]) -> Optional[str]:
        """Why a sample failed, or None."""
        if "error" in record:
            return str(record["error"])
        done = [c["case"] for c in record["cases"]]  # type: ignore[index]
        if done != self.cases:
            return f"ran cases {done}, expected {self.cases}"
        for case in record["cases"]:  # type: ignore[union-attr]
            pin = self.pins[case["case"]]
            if case["digest"] != pin["digest"]:
                return (
                    f"case {case['case']} (seed {pin['seed']}): digest "
                    f"{case['digest'][:16]} != pinned {pin['digest'][:16]}"
                )
            if case["pair_runs"] != pin["pair_runs"]:
                return f"case {case['case']}: {case['pair_runs']} pair runs != pinned {pin['pair_runs']}"
        return None

    # -- the run ------------------------------------------------------------
    def run(self) -> Tuple[int, Dict[str, List[float]], List[str], Dict[int, List[float]]]:
        """Returns (processes attempted, metric series, failure reasons,
        untraced wall times per case)."""
        os.makedirs(self.workdir, exist_ok=True)
        deadline = monotonic_ns() + int(self.args.seconds * 1e9)
        warm = self.spawn(setup_only=True)
        attempted = 1
        failures = [str(warm["error"])] if "error" in warm else []
        series: Dict[str, List[float]] = {"setup_s": []}
        case_walls: Dict[bool, Dict[int, List[float]]] = {False: {}, True: {}}
        suite_walls: Dict[bool, List[float]] = {False: [], True: []}
        references: List[float] = []
        rounds = 0
        while not failures:
            started = monotonic_ns()
            probe = self.spawn(setup_only=True)
            attempted += 1
            if "error" in probe:
                failures.append(str(probe["error"]))
                break
            series["setup_s"].append(float(probe["setup_s"]))
            for traced in ([False, True] if self.args.trace else [False]):
                record = self.spawn(trace=traced)
                attempted += 1
                why = self.check(record)
                if why is not None:
                    failures.append(why)
                    break
                series["setup_s"].append(float(record["setup_s"]))
                for case in record["cases"]:  # type: ignore[union-attr]
                    case_walls[traced].setdefault(case["case"], []).append(float(case["wall_s"]))
                suite_walls[traced].append(sum(float(c["wall_s"]) for c in record["cases"]))  # type: ignore[union-attr]
                if traced:
                    for name, (value, unit) in layer_metrics(record["layers"]).items():  # type: ignore[arg-type]
                        series.setdefault(name, []).append(value)
                        self.units[name] = unit
                else:
                    series.setdefault("peak_rss_mb", []).append(float(record["peak_rss_mb"]))
                    references.append(statistics.mean(record["ref_ns"]) / 1e9)  # type: ignore[arg-type]
            rounds += 1
            now = monotonic_ns()
            if rounds >= MIN_ROUNDS and now + (now - started) > deadline:
                break
        if not failures:
            series["wall_s"] = suite_walls[False]
            series["pair_runs_per_s"] = [self.pair_runs / w for w in suite_walls[False]]
            series["reference_s"] = references
            series["wall_rel"] = [w / r for w, r in zip(suite_walls[False], references)]
            series["pair_runs_per_ref"] = [self.pair_runs / w for w in series["wall_rel"]]
            if self.args.trace:
                series["trace.overhead_ratio"] = [
                    t / u for u, t in zip(suite_walls[False], suite_walls[True])
                ]
        return attempted, series, failures, case_walls[False]


def source_stamp(root: str) -> Dict[str, object]:
    """What was measured, on what: enough to compare two result files."""
    commit = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        bench = Bench(root, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        attempted, series, failures, case_walls = bench.run()
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    for why in failures:
        print(f"perfbench: failed sample: {why}", file=sys.stderr)

    wanted = LAYER_METRICS + list(RAW) if args.trace else list(END_TO_END)
    stats: Dict[str, Dict[str, object]] = {}
    for name, values in series.items():
        if values:
            q1, med, q3 = quartiles(values)
            stats[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": bench.units[name]}
    failed = len(failures)
    attempted = max(1, attempted)
    correct = failed == 0 and all(name in stats for name in wanted)
    stamp = {
        **source_stamp(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cases": bench.cases,
        "workload_seeds": [bench.pins[c]["seed"] for c in bench.cases],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": stats,
        "case_wall_s": {str(c): walls for c, walls in sorted(case_walls.items())},
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(stamp, fh, indent=1, sort_keys=True)
    if args.trace and correct:
        totals = ("s", "count", "bytes")
        layered = {n: stats[n] for n in wanted}
        snapshot = {
            "counters": {n: s["median"] for n, s in layered.items() if s["unit"] in totals},
            "gauges": {n: s["median"] for n, s in layered.items() if s["unit"] not in totals},
        }
        with open(os.path.join(out_dir, f"{tag}.snapshot.json"), "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=1, sort_keys=True)

    print(
        f"{args.workload} seed {args.seed}: cases {bench.cases}, {attempted} processes, "
        f"{failed} failed (failed_ratio {failed / attempted:.3f}), cpu_count {os.cpu_count()}"
    )
    for name, s in stats.items():
        print(
            f"  {name:38s} {s['median']:14.6g} {s['unit']:6s} "
            f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}"
        )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": stats[n]["median"], "unit": stats[n]["unit"]} for n in wanted if n in stats},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
