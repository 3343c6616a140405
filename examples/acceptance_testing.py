#!/usr/bin/env python3
"""Acceptance-testing workflow between two clusters (paper Fig. 3).

The scenario §I motivates: a new system arrives and you must check its
numerics against the incumbent before production.  Cluster 1 (NVIDIA) runs
the campaign and saves JSON metadata; the metadata file travels to cluster
2 (AMD), which rebuilds the *identical* tests from it, reruns them, and
saves merged results; the analysis step reads the merged file and reports
every inconsistency.

Usage::

    python examples/acceptance_testing.py [workdir]
"""

from __future__ import annotations

import sys
import tempfile
from collections import Counter
from pathlib import Path

from repro.compilers.options import PAPER_OPT_SETTINGS
from repro.harness.transfer import (
    collect_discrepancies,
    run_system1,
    run_system2,
)
from repro.utils.tables import Table
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import build_corpus


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="repro-fig3-"))
    workdir.mkdir(parents=True, exist_ok=True)
    meta1_path = workdir / "metadata.system1.json"
    merged_path = workdir / "metadata.merged.json"

    print("generating the acceptance-test corpus ...")
    corpus = build_corpus(GeneratorConfig.fp64(inputs_per_program=3), 80, root_seed=1337)

    print(f"[system 1 / NVIDIA] running {len(corpus)} tests × 5 opt levels ...")
    run_system1(corpus, meta1_path, opts=PAPER_OPT_SETTINGS)
    print(f"  metadata saved: {meta1_path} ({meta1_path.stat().st_size} bytes)")

    print("[transfer] shipping metadata to the AMD cluster ...")

    print("[system 2 / AMD] rebuilding the same tests from metadata and rerunning ...")
    meta = run_system2(meta1_path, merged_path, opts=PAPER_OPT_SETTINGS)
    print(f"  merged metadata saved: {merged_path}")

    print("[analysis] comparing the two systems' results ...\n")
    discrepancies = collect_discrepancies(meta)

    by_opt = Counter(d.opt_label for d in discrepancies)
    by_class = Counter(d.dclass.value for d in discrepancies)

    table = Table(
        title="Acceptance-testing report (Fig. 3 workflow)",
        headers=["Quantity", "Value"],
    )
    table.add_row(["Tests", len(corpus)])
    table.add_row(["Runs per system", len(meta.store_for("system1-nvidia"))])
    table.add_row(["Total inconsistencies", len(discrepancies)])
    for opt in [o.label for o in PAPER_OPT_SETTINGS]:
        table.add_row([f"  at {opt}", by_opt.get(opt, 0)])
    for cls, n in sorted(by_class.items()):
        table.add_row([f"  class {cls}", n])
    print(table.render())

    if discrepancies:
        d = discrepancies[0]
        print(
            f"\nexample inconsistency: test {d.test_id}, input #{d.input_index}, "
            f"{d.opt_label}: nvcc={d.lhs_printed} vs hipcc={d.rhs_printed} "
            f"({d.dclass.value})"
        )
    print(f"\nartifacts kept in {workdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
