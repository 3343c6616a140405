"""The feedback-guided fuzzing loop.

One *iteration* = the search strategy (:mod:`repro.fuzz.search`) picks
a program — a mutant of a fertile one, or a fresh generated one — and,
if it is structurally valid and not a duplicate, it runs through the
shared execution layer: one :class:`~repro.exec.units.SweepRequest` per
arm submitted to :class:`~repro.exec.service.ExecutionService`, with the
HIPIFY twin's CUDA half replayed from the content-keyed run store
exactly as the campaign's fused fp64 arms do (a mutant and its twin
share one content id, so the hipify probe costs zero extra nvcc
executions).

Feedback: every discrepancy is triaged
(:func:`repro.analysis.triage.triage_discrepancy`) and condensed to a
:class:`~repro.fuzz.signature.DiscrepancySignature`.  A signature not
seen before — neither in the seed pool's own baseline nor in any earlier
finding — is a **novel finding**: it is auto-minimized with
:func:`repro.analysis.reduce.reduce_testcase`, appended to the ledger,
and reported to the strategy, which steers later iterations toward
whatever keeps paying.  That is the difference from the paper's blind
generation: runs are spent *near* known divergence, not uniformly.

Determinism: every random decision derives from
``derive_seed(config.seed, purpose, iteration)``, strategy state evolves
only through ledger-recorded results, and no wall-clock value feeds back
into selection — so a seeded session run twice writes byte-identical
ledgers, and an interrupted session resumed from its ledger produces the
same findings as an uninterrupted one.  (A ``max_seconds`` budget can
stop a session early between iterations; the *prefix* of findings is
still deterministic.)

Parallelism (``config.workers``): while evaluations come back clean,
selection state does not change, so the engine *speculates* a window of
upcoming iterations against the frozen state, evaluates them
concurrently through the service's process-pool backend, and commits the
results in iteration order.  The first commit that changes selection
state invalidates everything speculated after it; those outcomes are
discarded (their runs are not counted) and speculation restarts from the
updated state.  The committed trajectory is therefore *exactly* the
serial one: the ledger is byte-identical at every worker count.  Triage
of a discrepant mutant's findings fans out over the same pool.

Accounting: ``pair_runs`` counts compared record pairs in baseline and
mutation sweeps of *committed* iterations; discarded speculation, triage
probes, and minimization reruns are excluded, mirroring how the paper's
run totals count campaign runs, not debugging reruns.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.analysis.reduce import kernel_size, reduce_testcase
from repro.analysis.triage import Cause, TriageVerdict, triage_discrepancy
from repro.codegen.cuda import render_cuda
from repro.compilers.options import OptSetting, PAPER_OPT_SETTINGS
from repro.errors import GrammarError, HarnessError, ReproError
from repro.exec import (
    DerivedTestSpec,
    ExecutionService,
    SweepOutcome,
    SweepRequest,
    make_backend,
)
from repro.exec.units import RunnerSpec, built_runners
from repro.fp.classify import OutcomeClass
from repro.fp.types import FPType
from repro.fuzz.ledger import Finding, FindingsLedger, LedgerState
from repro.fuzz.mutators import MUTATION_NAMES, MUTATORS
from repro.fuzz.search import (
    NOVELTY_BONUS,
    PROMOTION_ENERGY,
    STRATEGIES,
    PreparedIteration,
)
from repro.fuzz.signature import DiscrepancySignature
from repro.harness.differential import Discrepancy, classify_pair
from repro.harness.runner import DifferentialRunner
from repro.stacks import DEFAULT_STACK_PAIR, pair_name, resolve_stacks, stack_pairs
from repro.telemetry.spans import get_tracer
from repro.utils.rng import derive_seed
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import build_corpus, build_corpus_slice
from repro.varity.testcase import TestCase

if TYPE_CHECKING:  # pragma: no cover - imported only with relations on
    from repro.oracle.relations import Relation, RelationViolation

__all__ = [
    "FuzzConfig",
    "FuzzResult",
    "RandomSessionResult",
    "run_fuzz",
    "run_random_session",
]


@dataclass(frozen=True)
class FuzzConfig:
    """Size and shape of one fuzzing session."""

    seed: int = 2024
    #: FP32 by default: it is the paper's richest discrepancy surface
    #: (fast-math approximations + FTZ asymmetry exist only there), so a
    #: default session finds material quickly; pass FP64 for the paper's
    #: primary arm.
    fptype: FPType = FPType.FP32
    n_seed_programs: int = 40
    inputs_per_program: int = 3
    #: total mutation iterations for the session (across resumes).
    max_mutants: int = 200
    #: optional wall-clock budget; checked between iterations.
    max_seconds: Optional[float] = None
    batch_size: int = 25
    opts: Tuple[OptSetting, ...] = PAPER_OPT_SETTINGS
    #: probe each mutant's HIPIFY twin too (CUDA half served by the cache).
    include_hipify: bool = True
    #: delta-debug every novel finding down to a minimal reproducer.
    minimize: bool = True
    mutations: Tuple[str, ...] = MUTATION_NAMES
    #: metamorphic-oracle relations checked on every evaluated program
    #: (empty = off).  A relation violation is condensed to an
    #: ``oracle:<relation>`` signature, so relation-breaking mutants feed
    #: the same novelty loop — pool energy, bandit wins, ledger — as
    #: cross-vendor discrepancies, steering the search toward them.  The
    #: relations' base sweeps dedup against the mutant's own native
    #: request, so base-reading relations cost zero extra runs.
    oracle_relations: Tuple[str, ...] = ()
    #: Num/Num drift budget (ULPs) for approximate oracle relations.
    oracle_ulp_bound: int = 4
    #: compiler stacks every evaluation sweeps: each 2-combination is one
    #: differential probe per mutant (the legacy pair keeps its "native"/
    #: "hipify" arms; extra pairs are tagged by their pair name and their
    #: nvcc-lhs halves replay from the mutant's chunk store).
    stacks: Tuple[str, ...] = DEFAULT_STACK_PAIR
    #: process-pool size for mutant evaluation (0/1 = serial).  Pure
    #: scheduling: the committed trajectory — and the ledger — is
    #: byte-identical at every worker count, which is why ``workers`` is
    #: excluded from :meth:`fingerprint` exactly like the campaign
    #: checkpoint's.
    workers: int = 0
    #: iteration-selection strategy.  ``"bandit"`` (the default) is the
    #: flat win-count bandit over mutators; ``"mcts"`` is UCB1 tree
    #: search over IR-edit sequences (:mod:`repro.fuzz.search`), whose
    #: reward blends signature novelty, oracle violations, and grammar
    #: coverage.  Result-determining, so part of the fingerprint
    #: (format 5) — but only in mcts mode, keeping bandit ledgers
    #: byte-compatible.
    search: str = "bandit"

    def __post_init__(self) -> None:
        if self.n_seed_programs < 1:
            raise HarnessError("n_seed_programs must be >= 1")
        if self.batch_size < 1:
            raise HarnessError("batch_size must be >= 1")
        if self.max_mutants < 0:
            raise HarnessError("max_mutants must be >= 0")
        if self.workers < 0:
            raise HarnessError("workers must be >= 0")
        unknown = [m for m in self.mutations if m not in MUTATORS]
        if unknown:
            raise HarnessError(f"unknown mutations: {', '.join(unknown)}")
        if self.oracle_relations:
            from repro.oracle.relations import resolve_relations

            try:
                resolve_relations(self.oracle_relations)
            except ValueError as exc:
                raise HarnessError(str(exc)) from None
        if not self.opts:
            raise HarnessError("opts must name at least one optimization setting")
        if self.oracle_ulp_bound < 0:
            raise HarnessError("oracle_ulp_bound must be >= 0")
        resolve_stacks(self.stacks)  # raises HarnessError on bad names
        if self.search not in STRATEGIES:
            raise HarnessError(
                f"unknown search strategy: {self.search!r} "
                f"({' or '.join(STRATEGIES)})"
            )
        try:
            self.generator_config()
        except GrammarError as exc:
            raise HarnessError(str(exc)) from None

    @property
    def corpus_seed(self) -> int:
        return derive_seed(self.seed, "fuzz-corpus", self.fptype.value)

    def generator_config(self) -> GeneratorConfig:
        cfg = GeneratorConfig(
            fptype=self.fptype, inputs_per_program=self.inputs_per_program
        )
        cfg.validate()
        return cfg

    def fingerprint(self) -> Dict[str, object]:
        """The result-determining identity of this config.

        Budgets (``max_mutants``, ``max_seconds``) are excluded: they only
        say how *far* to run the deterministic iteration stream, so a
        ledger written under a smaller budget resumes under a larger one —
        the fuzz analogue of the campaign checkpoint's ``workers`` rule.
        ``workers`` is excluded for the same reason it is there: it only
        changes scheduling, never results.

        Compatibility: the ``format`` key versions the ledger record
        vocabulary.  Format 2 (the FP16 lane) added the ``precision-cast``
        mutation to the default set and a ``fptype`` field to every
        signature, so format-1 ledgers no longer resume under default
        configs — strict ``--resume`` reports the mismatch, ``"auto"``
        starts fresh.  A format-1 session can still be *continued* by an
        old checkout; it cannot be continued by this engine, whose
        scheduler would disagree with the recorded trajectory.

        Format 3 is the metamorphic-oracle lane: a session with
        ``oracle_relations`` signs relation violations as
        ``oracle:<relation>`` causes — a signature vocabulary format 2
        cannot express — and its findings feed the scheduler, so its
        trajectory is not replayable by a format-2 engine.  The format-3
        keys (``format: 3``, ``oracle_relations``, ``oracle_ulp_bound``)
        are emitted only when the oracle is on; a config without
        relations fingerprints exactly as format 2, which is why every
        existing format-2 ledger still resumes under non-oracle configs
        (tested explicitly).

        Format 4 is the stack registry: a session with a non-default
        ``stacks`` selection signs per-pair findings (a ``stacks``
        segment in the signature key) and sweeps per-pair requests whose
        discrepancies feed the scheduler, so its trajectory is not
        replayable by a two-stack engine.  The format-4 keys (``format:
        4``, ``stacks``) are emitted only for non-default selections; a
        default-pair config fingerprints exactly as before, so every
        format-2 and format-3 ledger still resumes (tested explicitly).

        Format 5 is tree search.  Search strategies supply their own keys
        (:meth:`repro.fuzz.search.SearchStrategy.fingerprint_keys`): mcts
        adds ``format: 5`` and ``search``, the default bandit nothing, so
        every format-2/3/4 ledger still resumes under default-search
        configs (tested explicitly).
        """
        fp: Dict[str, object] = {
            "format": 2,
            "seed": self.seed,
            "fptype": self.fptype.value,
            "n_seed_programs": self.n_seed_programs,
            "inputs_per_program": self.inputs_per_program,
            "batch_size": self.batch_size,
            "opts": [o.label for o in self.opts],
            "include_hipify": self.include_hipify,
            # Fixed search constants, still signed: every existing
            # ledger header carries them, and resume compares headers.
            "explore": True,
            "novelty_bonus": NOVELTY_BONUS,
            "promotion_energy": PROMOTION_ENERGY,
            "minimize": self.minimize,
            "mutations": list(self.mutations),
        }
        if self.oracle_relations:
            fp["format"] = 3
            fp["oracle_relations"] = list(self.oracle_relations)
            fp["oracle_ulp_bound"] = self.oracle_ulp_bound
        if tuple(self.stacks) != DEFAULT_STACK_PAIR:
            fp["format"] = 4
            fp["stacks"] = list(self.stacks)
        fp.update(STRATEGIES[self.search].fingerprint_keys())
        return fp


@dataclass
class FuzzResult:
    """Everything one fuzz session measured and found."""

    config: FuzzConfig
    findings: List[Finding]
    baseline_signatures: List[DiscrepancySignature]
    hot_seed_indices: List[int]
    iterations: int
    resumed_iterations: int
    mutants_run: int = 0
    fresh_explored: int = 0
    mutants_no_site: int = 0
    mutants_invalid: int = 0
    mutants_noop: int = 0
    duplicates: int = 0
    pair_runs: int = 0
    baseline_pair_runs: int = 0
    raw_discrepancies: int = 0
    #: metamorphic-relation violations observed on committed iterations
    #: (only nonzero when the session ran with oracle relations).
    oracle_violations: int = 0
    nvcc_executions: int = 0
    nvcc_cache_hits: int = 0
    elapsed_seconds: float = 0.0
    stopped_by: str = "budget"
    #: per-batch wall time ``(start_iteration, stop_iteration, seconds)``
    #: from the tracer — populated only when tracing is on; telemetry
    #: only, never serialized into the ledger.
    batch_walls: List[Tuple[int, int, float]] = field(default_factory=list)
    #: execution-service counters (see
    #: :meth:`repro.exec.ExecutionService.stats`), including the
    #: always-on ``phase_seconds`` aggregates.  Out-of-band like
    #: ``elapsed_seconds``.
    exec_metrics: Dict[str, object] = field(default_factory=dict)
    #: tree statistics from :meth:`repro.fuzz.search.MctsSearch.stats`
    #: (mcts sessions only; empty for bandit).  Out-of-band telemetry.
    search_stats: Dict[str, object] = field(default_factory=dict)
    #: grammar-feature coverage summary
    #: (:meth:`repro.fuzz.coverage.CoverageTracker.as_dict`; mcts only).
    coverage: Dict[str, object] = field(default_factory=dict)
    #: what each tier of the triage/reduction probe path answered in
    #: this process: ``probes`` requested, ``o0_from_sweep``,
    #: ``memo_hits``, ``executed``, ``artifact_hits``/``artifact_misses``.
    #: Out-of-band like ``exec_metrics``: never in the ledger, and pool
    #: workers' probes are not counted, so it varies with ``workers``.
    probe_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def novel_signatures(self) -> List[DiscrepancySignature]:
        return [f.signature for f in self.findings]

    @property
    def cache_hit_rate(self) -> float:
        attempts = self.nvcc_executions + self.nvcc_cache_hits
        return self.nvcc_cache_hits / attempts if attempts else 0.0


@dataclass
class RandomSessionResult:
    """Pure blind generation at the same run budget, for comparison."""

    n_programs: int
    pair_runs: int = 0
    raw_discrepancies: int = 0
    #: relation violations observed (only nonzero when the shared config
    #: ran with oracle relations — keeps the control arm's oracle signal
    #: comparable to the fuzz session's).
    oracle_violations: int = 0
    novel_signatures: List[DiscrepancySignature] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Shared evaluation machinery
# ---------------------------------------------------------------------------


#: the (lhs, rhs) ``passes_applied`` of one sweep setting.
_Passes = Tuple[Tuple[str, ...], Tuple[str, ...]]


def _triage_verdict_task(
    payload: Tuple[
        TestCase, str, int, Tuple[str, str], Optional[Tuple[float, float]], _Passes
    ],
) -> TriageVerdict:
    """Triage one discrepancy in a pool worker.

    Triage probes are pure functions of the payload (including the
    discrepancy's stack pair and its sweep-answered O0 values and pass
    lists), so a worker's verdict is identical to the serial path's.
    The isolation report (execution traces) is stripped before pickling
    back — nothing downstream of signature construction reads it.
    """
    test, opt_label, input_index, stacks, o0_values, passes = payload
    verdict = triage_discrepancy(
        RunnerSpec(stacks=stacks).build(),
        test,
        OptSetting.from_label(opt_label),
        input_index,
        o0_values=o0_values,
        passes=passes,
    )
    verdict.isolation = None
    return verdict


#: (evaluation arm, discrepancy, the input's O0 values in the same
#: sweep or None, the sweep's pass lists at the discrepancy's setting)
#: entries, and (arm, discrepancy, signature) entries.
_Found = List[Tuple[str, Discrepancy, Optional[Tuple[float, float]], _Passes]]
_Entries = List[Tuple[str, Discrepancy, DiscrepancySignature]]


class _Evaluator:
    """Runs tests through the execution service and condenses
    discrepancies (and oracle violations) to signatures."""

    def __init__(self, config: FuzzConfig, service: ExecutionService) -> None:
        self.config = config
        self.service = service
        self.relations: List[Relation] = []
        if config.oracle_relations:
            from repro.oracle.relations import resolve_relations

            self.relations = resolve_relations(config.oracle_relations)
        #: the stack pairs each evaluation sweeps, in registry order.
        self.pairs: List[Tuple[str, str]] = list(
            stack_pairs(resolve_stacks(config.stacks))
        )
        self._pair_by_arm: Dict[str, Tuple[str, str]] = {
            pair_name(p): p for p in self.pairs if p != DEFAULT_STACK_PAIR
        }
        self.pair_runs = 0
        self.cache_hits = 0
        self.executions = 0
        self.o0_from_sweep = 0
        self._probe_base = self._probe_totals()

    def pair_for_arm(self, arm: str) -> Tuple[str, str]:
        """The stack pair behind an evaluation arm tag ("native"/"hipify"
        are the legacy pair; everything else is its own pair name)."""
        return self._pair_by_arm.get(arm, DEFAULT_STACK_PAIR)

    def runner_for(self, arm: str) -> DifferentialRunner:
        """The triage/minimization runner on the arm's own stack pair:
        the thread's one runner for that pair, which its sweeps use too
        (probe device runs are bookkept by their own tools, not here)."""
        return RunnerSpec(stacks=self.pair_for_arm(arm)).build()

    def chunk_for(self, test: TestCase) -> List[SweepRequest]:
        """One evaluation as one chunk: the native sweep, then the HIPIFY
        twin with its CUDA half replayed from the chunk's run store (the
        campaign's fused-arm reuse invariant, applied per mutant), then —
        with oracle relations on — each relation's base + variant
        requests.  The relations' base requests are content-identical to
        the native one, so the service dedups them to zero extra runs.
        Extra stack pairs (``config.stacks`` beyond the legacy two) add
        one request each, tagged by pair name; nvcc-lhs pairs replay the
        native sweep's CUDA half from the same chunk store.  The store
        lives one chunk: content dedup already prevents identical mutants
        from re-running, so entries could only ever be hit by the test's
        own twin/pair probes, and a chunk-private store keeps the
        counters identical at every worker count."""
        requests = []
        for pair in self.pairs:
            if pair == DEFAULT_STACK_PAIR:
                requests.append(
                    SweepRequest(
                        test=test,
                        opts=self.config.opts,
                        tag=("native",),
                    )
                )
                if self.config.include_hipify:
                    # DerivedTestSpec references the *same* TestCase as
                    # the native request: pickle's memo then ships the
                    # program IR once per chunk to pool workers.
                    requests.append(
                        SweepRequest(
                            test=DerivedTestSpec(base=test),
                            opts=self.config.opts,
                            tag=("hipify",),
                        )
                    )
            else:
                requests.append(
                    SweepRequest(
                        test=test,
                        opts=self.config.opts,
                        tag=(pair_name(pair),),
                        runner=RunnerSpec(stacks=pair),
                    )
                )
        requests.extend(self._oracle_requests(test))
        return requests

    def _oracle_requests(self, test: TestCase) -> List[SweepRequest]:
        """Per-relation base + variant requests for one test.

        Site choices derive from the test's content-stable id, so a
        resumed (or speculated-and-discarded) evaluation rebuilds the
        identical variants.  Construction and applicability policy are
        the oracle engine's own (:func:`build_relation_requests`).
        """
        if not self.relations:
            return []
        from repro.oracle.engine import build_relation_requests

        requests, _ = build_relation_requests(
            test, "oracle", self.config.seed, test.test_id, self.relations,
            self.config.opts,
        )
        return requests

    def absorb(
        self, outcomes: Sequence[SweepOutcome]
    ) -> Tuple[_Found, List[RelationViolation]]:
        """Count one committed evaluation; collect its discrepancies and
        its oracle-relation violations.

        Deduped outcomes (a relation's base served from the native
        request) carry rebound copies of already-counted runs, so only
        non-deduped outcomes contribute to the accounting.
        """
        found: _Found = []
        oracle_outcomes: List[SweepOutcome] = []
        for outcome in outcomes:
            if not outcome.deduped:
                self.pair_runs += outcome.pair_runs
                self.executions += outcome.nvcc_executions
                self.cache_hits += outcome.nvcc_cache_hits
            arm = outcome.tag[0]
            if arm == "oracle":
                oracle_outcomes.append(outcome)
                continue
            # The sweep's own O0 values answer triage's O0 probe for
            # every input that ran there (skipped inputs have none).
            o0 = outcome.pairs.get("O0")
            o0_values = (
                {}
                if o0 is None
                else {
                    lhs.input_index: (lhs.value, rhs.value)
                    for lhs, rhs in zip(o0.lhs_runs, o0.rhs_runs)
                }
            )
            for pair in outcome.pairs.values():
                passes = (pair.lhs_passes, pair.rhs_passes)
                found.extend(
                    (arm, d, o0_values.get(d.input_index), passes)
                    for d in pair.discrepancies
                )
        # The chunk's first outcome is the native sweep, whose test_id is
        # the evaluated program's own id — violations normalize to it.
        canonical = outcomes[0].test_id if outcomes else None
        violations: List[RelationViolation] = []
        if self.relations:
            from repro.oracle.engine import check_relation_outcomes

            violations = check_relation_outcomes(
                oracle_outcomes, self.relations, self.config.fptype,
                self.config.oracle_ulp_bound, canonical,
            )
        return found, violations

    def oracle_entries(
        self, violations: Sequence[RelationViolation]
    ) -> _Entries:
        """Condense relation violations to signature entries.

        The signature reuses the discrepancy slots under documented
        reinterpretation: cause is ``oracle:<relation>``, the implicated
        platform rides in the functions slot, and the outcome pair is
        (base, variant) instead of (nvcc, hipcc).  First-of-each-key
        dedup matches :meth:`signatures_for`.
        """
        out: _Entries = []
        local_seen: Set[str] = set()
        for v in violations:
            dclass = classify_pair(float(v.base_printed), float(v.variant_printed))
            if dclass is None:
                continue  # sign-only difference: not a reportable violation
            sig = DiscrepancySignature(
                cause=Cause.ORACLE_PREFIX + v.relation,
                functions=(v.platform,),
                opt_label=v.opt_label,
                nvcc_outcome=v.base_outcome,
                hipcc_outcome=v.variant_outcome,
                fptype=self.config.fptype.value,
            )
            if sig.key in local_seen:
                continue
            local_seen.add(sig.key)
            d = Discrepancy(
                test_id=v.test_id,
                input_index=v.input_index,
                opt_label=v.opt_label,
                dclass=dclass,
                lhs_printed=v.base_printed,
                rhs_printed=v.variant_printed,
                lhs_outcome=OutcomeClass.from_string(v.base_outcome),
                rhs_outcome=OutcomeClass.from_string(v.variant_outcome),
            )
            out.append(("oracle", d, sig))
        return out

    def entries(
        self, test: TestCase, found: _Found, violations: Sequence[RelationViolation]
    ) -> _Entries:
        """Every signature one evaluation earned: triaged discrepancies
        first, then oracle violations."""
        return self.signatures_for(test, found) + self.oracle_entries(violations)

    def evaluate(
        self, tests: Sequence[TestCase]
    ) -> Iterator[Tuple[_Found, List[RelationViolation], _Entries]]:
        """Sweep ``tests`` in order, yielding each one's discrepancies,
        violations and signature entries (the baseline's and the control
        arm's loop; no feedback, so the whole stream is submitted)."""
        outcomes = self.service.run_sweeps(self.chunk_for(t) for t in tests)
        for index, chunk in enumerate(outcomes):
            found, violations = self.absorb(chunk)
            yield found, violations, self.entries(tests[index], found, violations)

    def build_finding(
        self, p: PreparedIteration, platform_arm: str, d: Discrepancy, sig: DiscrepancySignature
    ) -> Finding:
        """Minimize and record one novel signature's finding."""
        assert p.test is not None
        target = p.test.hipified() if platform_arm == "hipify" else p.test
        reduced_size: Optional[int] = None
        reduced_cuda: Optional[str] = None
        # Oracle findings are single-stack relation verdicts, not
        # cross-vendor discrepancies; the differential delta debugger
        # cannot reproduce them, so they stay unminimized.
        if self.config.minimize and platform_arm != "oracle":
            try:
                reduction = reduce_testcase(
                    target,
                    OptSetting.from_label(d.opt_label),
                    d.input_index,
                    runner=self.runner_for(platform_arm),
                )
                reduced_size = reduction.reduced_size
                reduced_cuda = render_cuda(reduction.reduced.program)
            except (ValueError, ReproError):
                pass  # finding stays unminimized; still novel
        return Finding(
            iteration=p.iteration,
            arm=platform_arm,
            mutant_id=p.test.test_id,
            corpus_index=p.corpus_index,
            lineage=p.lineage,
            signature=sig,
            discrepancy=d,
            original_size=kernel_size(p.test.program.kernel),
            reduced_size=reduced_size,
            reduced_cuda=reduced_cuda,
        )

    def signatures_for(self, test: TestCase, found: _Found) -> _Entries:
        """Triage every discrepancy; keep the first of each signature.

        Triage is per-(opt, input) — two inputs diverging with the same
        outcome pair can implicate different functions or even different
        causes — so dedup happens *after* attribution, on the signature
        itself, never by collapsing discrepancies up front.  With a pool
        backend the independent triage probes fan out to workers;
        verdicts come back in order, so the dedup is unchanged.
        """
        out: _Entries = []
        local_seen: Set[str] = set()
        for (arm, d, _, _), verdict in zip(found, self._verdicts(test, found)):
            sig = DiscrepancySignature.from_verdict(verdict, d, test.fptype)
            if sig.key not in local_seen:
                local_seen.add(sig.key)
                out.append((arm, d, sig))
        return out

    def _verdicts(self, test: TestCase, found: _Found) -> List[TriageVerdict]:
        targets = [
            (test.hipified() if arm == "hipify" else test, arm, d, o0, passes)
            for arm, d, o0, passes in found
        ]
        self.o0_from_sweep += sum(
            1 for _, _, d, o0, _ in targets if o0 is not None and d.opt_label != "O0"
        )
        if self.service.backend.remote and len(found) > 1:
            return self.service.map(
                _triage_verdict_task,
                [
                    (t, d.opt_label, d.input_index, self.pair_for_arm(arm), o0, passes)
                    for t, arm, d, o0, passes in targets
                ],
            )
        return [
            triage_discrepancy(
                self.runner_for(arm),
                t,
                OptSetting.from_label(d.opt_label),
                d.input_index,
                o0_values=o0,
                passes=passes,
            )
            for t, arm, d, o0, passes in targets
        ]

    def _probe_totals(self) -> Counter:
        """Probe-path counters summed over this thread's runners."""
        totals: Counter = Counter()
        for runner in built_runners():
            totals.update(runner.probe_stats())
        return totals

    def probe_stats(self) -> Dict[str, int]:
        """This session's probe-path accounting (see ``FuzzResult.probe_stats``)."""
        delta = self._probe_totals()
        delta.subtract(self._probe_base)
        probes = delta["probes"] + self.o0_from_sweep
        return {
            "probes": probes,
            "o0_from_sweep": self.o0_from_sweep,
            "memo_hits": delta["memo_hits"],
            "executed": probes - self.o0_from_sweep - delta["memo_hits"],
            "artifact_hits": delta["artifact_hits"],
            "artifact_misses": delta["artifact_misses"],
        }


class _LazyCorpus:
    """The seed corpus plus on-demand extension to any absolute index.

    Corpus indices are the ledger's program identity: indices below
    ``n_seed_programs`` are the seed pool, larger ones are programs the
    explore arm generated mid-session.  Either kind regenerates
    deterministically from ``(generator config, corpus seed, index)``, so
    a resumed session rebuilds explored pool entries without replaying
    their executions.
    """

    def __init__(self, config: FuzzConfig) -> None:
        self._gen_cfg = config.generator_config()
        self._root_seed = config.corpus_seed
        base = build_corpus(
            self._gen_cfg, config.n_seed_programs, self._root_seed, prefix="fuzzseed"
        )
        self._tests: Dict[int, TestCase] = dict(enumerate(base.tests))
        self.n_seed_programs = config.n_seed_programs

    def get(self, index: int) -> TestCase:
        test = self._tests.get(index)
        if test is None:
            test = build_corpus_slice(
                self._gen_cfg, index, index + 1, self._root_seed, prefix="fuzzseed"
            ).tests[0]
            self._tests[index] = test
        return test

    def seed_tests(self) -> List[TestCase]:
        return [self._tests[i] for i in range(self.n_seed_programs)]


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------


#: The result counter each skip kind lands in.
_SKIP_COUNTERS = {
    "no_site": "mutants_no_site",
    "invalid": "mutants_invalid",
    "noop": "mutants_noop",
    "duplicate": "duplicates",
}


def _run_baseline(
    evaluator: _Evaluator, seeds: Sequence[TestCase], progress
) -> Tuple[List[DiscrepancySignature], List[int], int]:
    """Evaluate the seed pool once: its own signatures (never novel), the
    indices that already diverge, and the pair runs it cost."""
    signatures: List[DiscrepancySignature] = []
    hot_indices: List[int] = []
    runs0 = evaluator.pair_runs
    tracer = get_tracer()
    t0 = time.perf_counter_ns() if tracer.enabled else 0
    for index, (found, violations, entries) in enumerate(evaluator.evaluate(seeds)):
        if found or violations:
            hot_indices.append(index)
        for _, _, sig in entries:
            if sig.key not in {s.key for s in signatures}:
                signatures.append(sig)
        if progress is not None:
            progress("baseline", index + 1, len(seeds))
    if tracer.enabled:
        tracer.record(
            "fuzz.baseline", t0, time.perf_counter_ns(),
            seeds=len(seeds), signatures=len(signatures),
        )
    return signatures, hot_indices, evaluator.pair_runs - runs0


def run_fuzz(
    config: Optional[FuzzConfig] = None,
    *,
    ledger: Optional[Union[str, Path]] = None,
    resume: Union[bool, str] = False,
    progress=None,
) -> FuzzResult:
    """Run one fuzzing session; returns the findings and the accounting.

    ``ledger`` names the JSONL findings file; a resumed session continues
    the iteration stream where the ledger stopped (``resume`` follows
    :meth:`~repro.utils.checkpoint.JsonlCheckpoint.open_session`).
    ``progress`` is an optional ``(phase, done, total)`` callable.
    """
    config = config or FuzzConfig()
    t0 = time.perf_counter()

    book, loaded = FindingsLedger.open_session(ledger, config.fingerprint(), resume)
    state: LedgerState = loaded or LedgerState()
    service = ExecutionService(make_backend(config.workers))
    corpus = _LazyCorpus(config)
    evaluator = _Evaluator(config, service)

    try:
        if state.has_baseline:
            baseline_signatures = state.baseline_signatures
            hot_indices = state.hot_corpus_indices
            baseline_pair_runs = state.baseline_runs
        else:
            baseline_signatures, hot_indices, baseline_pair_runs = _run_baseline(
                evaluator, corpus.seed_tests(), progress
            )
            if book is not None:
                book.append_baseline(
                    baseline_pair_runs, baseline_signatures, hot_indices
                )

        # Replay the ledger's completed iterations into the strategy
        # (cheap: no compilation, no execution).
        strategy = STRATEGIES[config.search](config, corpus, hot_indices)
        evaluated: Set[str] = set()
        strategy.replay(state, evaluated)
        seen: Set[str] = {s.key for s in baseline_signatures}
        seen.update(f.signature.key for f in state.findings)
        findings: List[Finding] = list(state.findings)

        result = FuzzResult(
            config=config,
            findings=findings,
            baseline_signatures=baseline_signatures,
            hot_seed_indices=hot_indices,
            iterations=state.iterations_completed,
            resumed_iterations=state.iterations_completed,
            baseline_pair_runs=baseline_pair_runs,
        )

        # ---------------------------------------------------- the loop
        runs0 = evaluator.pair_runs
        batch_findings: List[Finding] = []
        batch_start = state.iterations_completed
        batches_written = state.batches_completed
        stopped_by = "budget"
        tracer = get_tracer()
        batch_t0 = time.perf_counter_ns() if tracer.enabled else 0
        evaluate_span = f"fuzz.{config.search}.evaluate"

        def flush_batch(stop: int) -> None:
            nonlocal batch_start, batches_written, batch_findings, batch_t0
            records = strategy.take_batch_records()
            if book is not None and stop > batch_start:
                book.append_batch(
                    batches_written, batch_start, stop, batch_findings, **records
                )
                batches_written += 1
            if tracer.enabled and stop > batch_start:
                now = time.perf_counter_ns()
                tracer.record(
                    "fuzz.batch",
                    batch_t0,
                    now,
                    start=batch_start,
                    stop=stop,
                    findings=len(batch_findings),
                )
                result.batch_walls.append(
                    (batch_start, stop, (now - batch_t0) / 1e9)
                )
                batch_t0 = now
            batch_start = stop
            batch_findings = []

        def commit(
            p: PreparedIteration,
            found: _Found,
            violations: List[RelationViolation],
        ) -> bool:
            """Apply one iteration's results in order — counters, triage
            and findings here, the feedback in the strategy; True when
            that changed state a later speculated selection reads."""
            if p.skip is not None:
                counter = _SKIP_COUNTERS[p.skip]
                setattr(result, counter, getattr(result, counter) + 1)
                strategy.commit_skip(p)
                return False
            assert p.test is not None
            evaluated.add(p.content_id)
            if p.kind == "explore":
                result.fresh_explored += 1
            else:
                result.mutants_run += 1
            result.raw_discrepancies += len(found)
            result.oracle_violations += len(violations)
            novel = 0
            for platform_arm, d, sig in evaluator.entries(p.test, found, violations):
                if sig.key in seen:
                    continue
                seen.add(sig.key)
                novel += 1
                finding = evaluator.build_finding(p, platform_arm, d, sig)
                findings.append(finding)
                batch_findings.append(finding)
            return strategy.commit(p, novel, len(violations), bool(found))

        # Speculation window: how many candidate evaluations are in
        # flight at once.  1 (serial) trivially matches the reference
        # trajectory; larger windows commit the same trajectory because
        # invalidated speculation is discarded uncounted.
        window = min(config.workers, 16) if config.workers > 1 else 1

        try:
            i = state.iterations_completed
            while i < config.max_mutants:
                if (
                    config.max_seconds is not None
                    and time.perf_counter() - t0 > config.max_seconds
                ):
                    stopped_by = "wall-clock"
                    break
                # Prepare against the committed state: ``overlay`` carries
                # the window's own content ids so speculated iterations
                # dedup against each other the way committed ones would.
                preps: List[PreparedIteration] = []
                overlay: Set[str] = set()
                n_eval = 0
                j = i
                while j < config.max_mutants and n_eval < window:
                    p = strategy.prepare(j, evaluated, overlay)
                    preps.append(p)
                    if p.test is not None:
                        n_eval += 1
                    j += 1
                outcome_iter = iter(())  # type: ignore[assignment]
                if n_eval:
                    outcome_iter = service.run_sweeps(
                        [
                            evaluator.chunk_for(p.test)
                            for p in preps
                            if p.test is not None
                        ]
                    )
                for p in preps:
                    found: _Found = []
                    violations: List[RelationViolation] = []
                    if p.test is not None:
                        eval_t0 = time.perf_counter_ns() if tracer.enabled else 0
                        found, violations = evaluator.absorb(next(outcome_iter))
                        if tracer.enabled:
                            tracer.record(
                                evaluate_span, eval_t0, time.perf_counter_ns(),
                                iteration=p.iteration,
                            )
                    changed = commit(p, found, violations)
                    i = p.iteration + 1
                    result.iterations = i
                    # The flush check runs every iteration — including ones
                    # that produced nothing — so batch_size bounds the work
                    # a hard kill can lose even through a dry stretch.
                    if (i - batch_start) >= config.batch_size:
                        flush_batch(i)
                        if progress is not None:
                            progress("fuzz", i, config.max_mutants)
                    if changed:
                        # Every later speculation selected against stale
                        # state.  Drain and discard (their runs are never
                        # counted), undo their prepare-time marks, then
                        # re-speculate.
                        for _ in outcome_iter:
                            pass
                        strategy.invalidate()
                        break
            flush_batch(result.iterations)
            if progress is not None and result.iterations:
                progress("fuzz", result.iterations, config.max_mutants)
        finally:
            if book is not None:
                book.close()

        result.pair_runs = evaluator.pair_runs - runs0
        result.nvcc_executions = evaluator.executions
        result.nvcc_cache_hits = evaluator.cache_hits
        result.elapsed_seconds = time.perf_counter() - t0
        result.stopped_by = stopped_by
        result.exec_metrics = service.stats()
        result.search_stats = strategy.stats()
        result.coverage = strategy.coverage_summary()
        result.probe_stats = evaluator.probe_stats()
        return result
    finally:
        service.close()


def run_random_session(
    config: Optional[FuzzConfig] = None,
    n_programs: int = 0,
    *,
    skip_signatures: Optional[Set[str]] = None,
    progress=None,
) -> RandomSessionResult:
    """Blind Varity generation at a comparable run budget (the control arm).

    Generates ``n_programs`` *fresh* programs — from a control seed
    stream disjoint from both the fuzz seed pool and the explore arm's
    programs, but drawn from the same generator distribution — and
    evaluates them with the same sweep machinery.  ``skip_signatures``
    (typically the fuzz session's baseline keys) defines novelty the same
    way the fuzzer's seen-set does, making the two arms' novel-signature
    yields directly comparable at equal ``pair_runs``.
    """
    config = config or FuzzConfig()
    # The control arm honors config.workers too: its chunks stream with
    # no feedback loop, so parallelism never changes the result — only
    # the wall clock, keeping the fuzz-vs-blind timing comparison fair.
    service = ExecutionService(make_backend(config.workers))
    evaluator = _Evaluator(config, service)
    corpus = build_corpus(
        config.generator_config(),
        n_programs,
        derive_seed(config.corpus_seed, "random-control"),
        prefix="fuzzctl",
    )
    result = RandomSessionResult(n_programs=n_programs)
    seen: Set[str] = set(skip_signatures or ())
    try:
        for index, (found, violations, entries) in enumerate(
            evaluator.evaluate(corpus.tests)
        ):
            result.raw_discrepancies += len(found)
            result.oracle_violations += len(violations)
            for _, _, sig in entries:
                if sig.key not in seen:
                    seen.add(sig.key)
                    result.novel_signatures.append(sig)
            if progress is not None:
                progress("random", index + 1, n_programs)
    finally:
        service.close()
    result.pair_runs = evaluator.pair_runs
    return result
