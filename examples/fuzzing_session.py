#!/usr/bin/env python3
"""Fuzzing session: find *new* numerical discrepancies, not more of the same.

The paper's campaigns generate test programs blindly; its future work
(§VII) asks for tooling that finds and explains inconsistencies with less
manual effort.  This example runs that tool end to end:

1. build a seed pool and measure its own discrepancy signatures;
2. mutate power-scheduled seeds (operator swaps, ULP-scale constant
   nudges, math-call substitution, FMA-shape introduction, cross-program
   splices, guard toggles), probing every mutant natively and through the
   HIPIFY arm;
3. triage each divergence to a root cause and keep one finding per novel
   signature, delta-debugged down to a minimal reproducer;
4. compare the novel-signature yield against blind generation at the
   same run budget.

Usage::

    python examples/fuzzing_session.py [mutants] [seed]
"""

from __future__ import annotations

import sys

from repro.fuzz.engine import FuzzConfig, run_fuzz, run_random_session
from repro.fuzz.signature import signature_histogram


def main() -> int:
    mutants = int(sys.argv[1]) if len(sys.argv) > 1 else 120
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 11

    config = FuzzConfig(
        seed=seed,
        n_seed_programs=30,
        inputs_per_program=3,
        max_mutants=mutants,
        batch_size=25,
    )
    print(f"fuzzing session (seed={seed}, budget={mutants} mutants) ...\n")
    result = run_fuzz(config)

    print(
        f"seed pool: {config.n_seed_programs} programs, "
        f"{len(result.hot_seed_indices)} already divergent, "
        f"{len(result.baseline_signatures)} baseline signatures"
    )
    print(
        f"mutants: {result.mutants_run} executed of {result.iterations} attempted "
        f"(+{result.fresh_explored} fresh programs explored); "
        f"{result.raw_discrepancies} raw discrepant runs"
    )
    print(
        f"CUDA side: {result.nvcc_executions} executions, "
        f"{result.nvcc_cache_hits} served from the run cache"
    )
    print(f"\nnovel findings: {len(result.findings)}")
    for finding in result.findings:
        print(f"  {finding.describe()}")

    if result.findings:
        best = min(result.findings, key=lambda f: f.reduced_size or f.original_size)
        if best.reduced_cuda:
            print("\nSmallest minimized reproducer (shippable CUDA source):")
            print(best.reduced_cuda)

    print(signature_histogram(result.novel_signatures, title="Novel signatures").render())

    # The control arm: blind generation at the same run budget.
    random_result = run_random_session(
        config,
        n_programs=result.mutants_run + result.fresh_explored,
        skip_signatures={s.key for s in result.baseline_signatures},
    )
    fuzz_rate = 1000.0 * len(result.findings) / max(1, result.pair_runs)
    rand_rate = 1000.0 * len(random_result.novel_signatures) / max(
        1, random_result.pair_runs
    )
    print("\nfuzzing vs blind generation (equal run budget):")
    print(
        f"  fuzz:   {len(result.findings):3d} novel signatures "
        f"in {result.pair_runs} runs  ({fuzz_rate:.1f} / 1000 runs)"
    )
    print(
        f"  random: {len(random_result.novel_signatures):3d} novel signatures "
        f"in {random_result.pair_runs} runs  ({rand_rate:.1f} / 1000 runs)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
