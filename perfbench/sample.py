"""One benchmark sample: a fresh process that sets up, then runs cases.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/sample.py --workload campaign --cases 0,1,2 \
        --workdir perfbench/.work/123 [--trace] [--setup-only]

Set-up is what a CLI pays before its workload can start: the imports,
the stack registry, and device and compiler construction.  The process
stamps the monotonic clock when set-up is done and when the last case
ends; ``run.py`` stamped it just before the spawn, so set-up time counts
from process start.  Each case is one ``main(argv)`` call of the real
CLI with its report output sent to ``/dev/null``.

The sample prints one JSON line on standard output: the stamps, the
peak resident memory, the wall times of the reference loop run before
and after the cases, and per case the output digest and pair runs.
With ``--trace`` it also carries the per-layer accounting of
``layers.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import sys
import time
from typing import Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.workloads import FAMILIES, WORKLOADS, digest_output, pair_runs  # noqa: E402


def monotonic_ns() -> int:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


#: Iterations of the reference loop: about 0.1 s on a 2.1 GHz Xeon core.
REFERENCE_ITERATIONS = 400_000


def reference_ns() -> int:
    """Wall time of a fixed pure-Python loop that runs none of ``src/``.

    The loop does what the interpreter under test does most: dictionary
    lookups, float arithmetic and stores.  Timed next to the cases in the
    same process, it measures how fast the host runs Python at that
    moment, so a case's wall time over it does not move when the host
    does.
    """
    t0 = monotonic_ns()
    env = {f"v{i}": float(i) for i in range(64)}
    names = list(env)
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        a = env[names[i & 63]]
        b = env[names[(i * 7) & 63]]
        acc = (acc + a * b) % 1000.0
        env[names[(i * 3) & 63]] = acc
    return monotonic_ns() - t0


class CaseRunner:
    """Runs the cases of one workload through its CLI's ``main``."""

    def __init__(self, workload: str, workdir: str) -> None:
        self.workload = WORKLOADS[workload]
        self.family = FAMILIES[self.workload.family]
        self.workdir = workdir
        # Set-up: imports, stack registry, device and compiler models.
        self.cli = importlib.import_module(self.family.cli_module)
        from repro.stacks import DEFAULT_STACK_PAIR, get_stack

        for name in DEFAULT_STACK_PAIR:
            stack = get_stack(name)
            stack.device()
            stack.compiler()
        self.result = None

    def capture_results(self) -> None:
        """Keep each case's result object (one extra call per case)."""
        entry = getattr(self.cli, self.family.entry)

        def capture(*args, **kwargs):
            self.result = entry(*args, **kwargs)
            return self.result

        setattr(self.cli, self.family.entry, capture)

    def run(self, case: int) -> Dict[str, object]:
        output = os.path.join(self.workdir, self.family.output_name)
        if os.path.exists(output):
            os.unlink(output)
        argv = self.family.argv(case, output, self.workload.extra)
        self.result = None
        with open(os.devnull, "w", encoding="utf-8") as sink:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = monotonic_ns()
                code = self.cli.main(argv)
                t1 = monotonic_ns()
        if code != 0 or self.result is None:
            raise RuntimeError(f"case {case}: {self.family.cli_module} exited {code}")
        return {
            "case": case,
            "wall_s": (t1 - t0) / 1e9,
            "pair_runs": pair_runs(self.family.name, self.result),
            "digest": digest_output(self.family.name, output),
        }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--cases", required=True, help="comma-separated case numbers")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out = sys.stdout
    os.makedirs(args.workdir, exist_ok=True)

    runner = CaseRunner(args.workload, args.workdir)
    accounting = None
    if args.trace:
        from perfbench import layers

        accounting = layers.install()
    runner.capture_results()
    ready_ns = monotonic_ns()
    record: Dict[str, object] = {"ready_ns": ready_ns, "cases": []}
    if not args.setup_only:
        # The reference loop brackets the cases, so it sees the same host.
        record["ref_ns"] = [reference_ns()]
        for case in (int(c) for c in args.cases.split(",")):
            if accounting is not None:
                with accounting.traced():
                    outcome = runner.run(case)
                accounting.absorb_result(runner.family.name, runner.result)
            else:
                outcome = runner.run(case)
            record["cases"].append(outcome)
        record["ref_ns"].append(reference_ns())
    record["done_ns"] = monotonic_ns()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if accounting is not None:
        record["layers"] = accounting.snapshot()
    out.write(json.dumps(record) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
