"""Pin every case's output digest and pair runs in ``suite.json``.

Run from the repository root after a change that is meant to alter a
workload's output, or after changing the cases in ``workloads.py``::

    PYTHONPATH=src python3 perfbench/pin.py

Every workload's cases run in this process through the same
``CaseRunner`` the samples use.  Pinning fails if ``campaign-pool`` does
not reproduce ``campaign`` byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.sample import CaseRunner  # noqa: E402
from perfbench.workloads import BASE_SEED, FAMILIES, SUITE_SIZE, WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SUITE = os.path.join(HERE, "suite.json")


def main(argv: Optional[List[str]] = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    workdir = os.path.join(HERE, ".work", f"pin-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    families: Dict[str, Dict[str, object]] = {}
    try:
        for name, workload in WORKLOADS.items():
            runner = CaseRunner(name, workdir)
            runner.capture_results()
            cases = [runner.run(case) for case in range(SUITE_SIZE[workload.family])]
            walls = ", ".join(f"{c['wall_s']:.2f}" for c in cases)
            print(f"{name}: case walls {walls} s", file=sys.stderr)
            pins = [
                {"seed": BASE_SEED + c["case"], "digest": c["digest"], "pair_runs": c["pair_runs"]}
                for c in cases
            ]
            pinned = families.setdefault(
                workload.family,
                {"flags": list(FAMILIES[workload.family].flags), "cases": pins},
            )
            if pinned["cases"] != pins:
                raise SystemExit(f"pin: {name} does not reproduce {workload.family}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(SUITE, "w", encoding="utf-8") as fh:
        json.dump({"families": families}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
