"""Self-test of the benchmark: a very short run of every workload.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py

The short runs use a scratch root under ``perfbench/.work/`` that links
to the real ``src`` and holds a copy of ``perfbench/`` whose
``suite.json`` keeps one case per family.  It checks that

* every metric named in ``BENCHMARK.json`` is emitted with its unit, by
  a one-case run of each workload with ``--trace 0`` and ``--trace 1``;
* every name matches ``[A-Za-z0-9_.-]+``;
* in one traced sample of each workload, the per-layer self times plus
  ``trace.uncovered_s`` add up to the traced wall time plus
  ``trace.worker_s``;
* a wrong pinned digest makes the command fail;
* without the sources next to it the command fails and prints no result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if __package__ in (None, ""):
    sys.path.insert(0, ROOT)

from perfbench.metrics import layer_metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
#: The per-layer self times; with trace.uncovered_s they tile the wall.
SELF_TIMES = (
    "varity.generate_s", "fuzz.mutate_s", "compilers.front_end_s",
    "compilers.passes_s", "exec.artifacts.key_s", "hipify.translate_s",
    "devices.execute_s", "devices.mathlib_s", "exec.store.get_s",
    "exec.store.put_s", "exec.service_s", "harness.runner_s",
    "harness.classify_s", "harness.run_single_s", "analysis.triage_s",
    "analysis.isolate_s", "analysis.reduce_s", "oracle.relations_s",
    "engine.self_s", "transport.parent_wait_s",
)


def scratch_root(work: str) -> str:
    """A root inside ``work`` with ``src`` linked and ``perfbench/`` copied."""
    root = os.path.join(work, "root")
    os.makedirs(root)
    os.symlink(os.path.join(ROOT, "src"), os.path.join(root, "src"))
    copy_bench(root)
    return root


def copy_bench(root: str) -> None:
    shutil.copytree(HERE, os.path.join(root, "perfbench"), ignore=shutil.ignore_patterns(".work", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)


def edit_suite(root: str, edit: Callable[[Dict[str, dict]], None]) -> None:
    path = os.path.join(root, "perfbench", "suite.json")
    with open(path, encoding="utf-8") as fh:
        suite = json.load(fh)
    edit(suite["families"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(suite, fh)


def first_case_only(families: Dict[str, dict]) -> None:
    for family in families.values():
        family["cases"] = family["cases"][:1]


def wrong_campaign_digest(families: Dict[str, dict]) -> None:
    case = families["campaign"]["cases"][0]
    case["digest"] = "0" * len(case["digest"])


def bench(cwd: str, *extra: str) -> Tuple[int, List[str]]:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(
        argv + list(extra), cwd=cwd, capture_output=True, text=True, timeout=600
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def traced_sample(workload: str, work: str) -> Dict[str, float]:
    """Per-layer metrics of one traced sample of the workload's case 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((os.path.join(ROOT, "src"), ROOT)))
    argv = [sys.executable, os.path.join(HERE, "sample.py"), "--workload", workload,
            "--cases", "0", "--workdir", os.path.join(work, "tiling"), "--trace"]
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=True
    )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: value for name, (value, _) in layer_metrics(record["layers"]).items()}


def result_of(lines: List[str]) -> Dict[str, object]:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in names if not NAME.match(n)]
    assert not bad, f"names outside [A-Za-z0-9_.-]: {bad}"
    assert len(names) == len(set(names)), "a name is used twice"

    work = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")
    try:
        root = scratch_root(work)
        edit_suite(root, first_case_only)
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, expected in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
                code, lines = bench(root, "--workload", workload, "--trace", trace)
                result = result_of(lines)
                assert code == 0 and result["correct"], (workload, trace, lines[-1])
                got = {n: m["unit"] for n, m in result["metrics"].items()}  # type: ignore[union-attr]
                want = {m["name"]: m["unit"] for m in expected}
                assert got == want, (workload, trace, set(got) ^ set(want))
                print(f"ok  {workload} --trace {trace}: {len(got)} metrics")
            # The run reports medians over samples, so check the tiling on
            # one traced sample of its own.
            value = traced_sample(workload, work)
            tiled = sum(value[n] for n in SELF_TIMES) + value["trace.uncovered_s"]
            total = value["trace.wall_s"] + value["trace.worker_s"]
            assert abs(tiled - total) < 1e-6 * max(1.0, total), (workload, tiled, total)
            print(f"ok  {workload}: self times tile the traced wall ({total:.3f} s)")

        edit_suite(root, wrong_campaign_digest)
        code, lines = bench(root, "--workload", "campaign")
        assert code != 0 and not result_of(lines)["correct"], lines[-1:]
        print("ok  a wrong pinned digest fails the run")

        alone = os.path.join(work, "alone")
        copy_bench(alone)
        code, lines = bench(alone, "--workload", "campaign")
        assert code != 0 and not any(line.startswith("{") for line in lines), lines
        print("ok  without the sources the command fails and prints no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
