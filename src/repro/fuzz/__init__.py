"""repro.fuzz — feedback-guided discrepancy fuzzing.

The paper's campaigns (§IV-B) generate programs *blindly*; its future-work
section (§VII) asks for tooling that finds inconsistencies with less manual
effort.  This package is that tool for the modeled stacks: a mutation
fuzzer that starts from a seed corpus, mutates programs already known (or
suspected) to trigger discrepancies, and keeps only findings whose triage
*signature* — root cause × implicated functions × optimization setting ×
outcome-class pair — has not been seen before.

Layers:

* :mod:`repro.fuzz.mutators`  — typed, validity-preserving IR mutations,
  each fully determined by ``(seed, mutation_id)``;
* :mod:`repro.fuzz.signature` — the discrepancy signature used for novelty
  detection and dedup, built on :mod:`repro.analysis.triage`;
* :mod:`repro.fuzz.ledger`    — the append-only JSONL findings ledger with
  campaign-checkpoint-style resume semantics;
* :mod:`repro.fuzz.search`    — the search strategies (bandit, mcts)
  behind one ``SearchStrategy`` protocol;
* :mod:`repro.fuzz.engine`    — the loop: batched execution through the
  campaign's sweep/cache machinery, auto-minimization of novel findings
  via :mod:`repro.analysis.reduce`;
* :mod:`repro.fuzz.cli`       — the ``repro-fuzz`` console entry point.
"""
