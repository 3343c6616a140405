"""Ablation bench — attribution of discrepancies to modeled mechanisms.

Not a paper table: this is the reproduction's own design-choice ablation
(the five mechanisms of :mod:`repro.analysis.ablation`).  Equalizing a mechanism between the two stacks and watching
the counts drop is the in-model analogue of the paper's Q3 root-cause
analysis — and the ``all-equalized`` row doubles as a soundness self-check
(zero residual discrepancies ⇒ no unmodeled asymmetry).
"""

from __future__ import annotations

from repro.analysis.ablation import ABLATIONS, ablation_table, run_ablation
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import build_corpus

from conftest import emit

N_PROGRAMS = 70


def test_ablation_mechanism_attribution(benchmark, results_dir):
    corpora = {
        "fp64": build_corpus(GeneratorConfig.fp64(inputs_per_program=3), N_PROGRAMS, root_seed=5),
        "fp32": build_corpus(GeneratorConfig.fp32(inputs_per_program=3), N_PROGRAMS, root_seed=5),
    }

    def run_both():
        return {name: run_ablation(corpus) for name, corpus in corpora.items()}

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    blocks = []
    for name, res in results.items():
        blocks.append(
            ablation_table(res, f"Mechanism ablation, {name.upper()} ({N_PROGRAMS} programs)").render()
        )
    emit(results_dir, "ablation", "\n\n".join(blocks))

    for name, res in results.items():
        by_name = {r.spec.name: r for r in res}
        baseline = by_name["baseline"].total
        assert baseline > 0, f"{name}: baseline found nothing to ablate"
        # Equalizing the math libraries removes every O0 discrepancy
        # (mechanism 1 is the only one active at O0).
        assert by_name["identical-mathlib"].by_opt["O0"] == 0
        # The self-check: with every asymmetry removed, the two stacks are
        # numerically identical.
        assert by_name["all-equalized"].total == 0
        # No ablation can *exceed* removing everything.
        for r in res:
            assert r.total >= 0
