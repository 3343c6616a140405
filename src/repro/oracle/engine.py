"""The metamorphic-oracle session engine.

For every corpus program the engine builds one execution-service chunk:
each applicable relation contributes a request for the *base* program
(when its checker reads the base sweep) plus one request per transformed
variant.  Relations deliberately re-request the base rather than sharing
a reference — the service's content-keyed dedup collapses those
duplicates to a single execution and counts them
(:attr:`repro.exec.service.ExecMetrics.deduped`), which is the proof
that cache-hit variants execute zero redundant runs (surfaced by
``repro-oracle --report``).

Determinism: site choices derive from
``derive_seed(config.seed, "oracle-site", relation, index)``, chunk
composition depends only on the config, and the service returns chunk
outcomes in submission order at every worker count — so a seeded session
writes a byte-identical ledger at workers 0, 2, or 4, and ``--resume``
continues from the first unrecorded corpus index.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.compilers.options import OptSetting, PAPER_OPT_SETTINGS
from repro.errors import HarnessError
from repro.exec import (
    ExecutionService,
    SweepOutcome,
    SweepRequest,
    resolve_backend,
)
from repro.exec.units import RunnerSpec
from repro.fp.types import FPType
from repro.harness.runner import PairResult
from repro.stacks import DEFAULT_STACK_PAIR, get_stack
from repro.oracle.ledger import OracleLedger, OracleLedgerState
from repro.oracle.relations import (
    FastMathFlag,
    Relation,
    RelationViolation,
    RELATION_NAMES,
    resolve_relations,
)
from repro.telemetry.spans import get_tracer
from repro.utils.rng import derive_seed
from repro.utils.tables import Table
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import build_corpus
from repro.varity.testcase import TestCase

__all__ = [
    "OracleConfig",
    "OracleResult",
    "run_oracle",
    "oracle_requests_for",
    "oracle_check_outcomes",
    "oracle_violation_table",
]


@dataclass(frozen=True)
class OracleConfig:
    """Size and shape of one oracle session."""

    seed: int = 2024
    #: FP32 by default: fast-math/FTZ relations only have teeth there.
    fptype: FPType = FPType.FP32
    n_programs: int = 40
    inputs_per_program: int = 3
    opts: Tuple[OptSetting, ...] = PAPER_OPT_SETTINGS
    relations: Tuple[str, ...] = RELATION_NAMES
    #: Num/Num drift budget (ULPs) for approximate relations; exact
    #: relations ignore it, class flips always violate.
    ulp_bound: int = 4
    #: the (lhs, rhs) stack pair every base/variant sweep runs on —
    #: relations are single-stack oracles, so each selected stack is
    #: checked independently against its own base.
    stacks: Tuple[str, str] = DEFAULT_STACK_PAIR
    workers: int = 0
    #: Execution backend (None = worker-count rule; "serial"/"pool"/
    #: "bridge").  Pure scheduling, like ``workers`` — excluded from the
    #: fingerprint.
    backend: Optional[str] = None
    bridge_url: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_programs < 1:
            raise HarnessError("n_programs must be >= 1")
        if self.workers < 0:
            raise HarnessError("workers must be >= 0")
        if not self.relations:
            raise HarnessError("at least one relation is required")
        try:
            resolve_relations(self.relations)
        except ValueError as exc:
            raise HarnessError(str(exc)) from None
        if len(self.stacks) != 2 or self.stacks[0] == self.stacks[1]:
            raise HarnessError("stacks must name two distinct stacks")
        for name in self.stacks:
            get_stack(name)  # raises HarnessError on unknown names

    @property
    def corpus_seed(self) -> int:
        return derive_seed(self.seed, "oracle-corpus", self.fptype.value)

    def generator_config(self) -> GeneratorConfig:
        cfg = GeneratorConfig(
            fptype=self.fptype, inputs_per_program=self.inputs_per_program
        )
        cfg.validate()
        return cfg

    def fingerprint(self) -> Dict[str, object]:
        """The result-determining identity of this config.

        ``workers`` is excluded (pure scheduling, like the campaign
        checkpoint and fuzz ledger).  ``n_programs`` is excluded too: the
        corpus stream is a pure function of (generator config, corpus
        seed, index), so the program count only says where to stop — a
        ledger written with ``--programs 20`` resumes under
        ``--programs 40`` to check the remaining 20, the oracle analogue
        of the fuzz ledger's budget rule.

        The ``stacks`` key is emitted only for non-default pairs (the
        conditional-key compat rule shared with the campaign checkpoint
        and fuzz ledger), so pre-registry oracle ledgers still resume.
        """
        fp: Dict[str, object] = {
            "format": 1,
            "seed": self.seed,
            "fptype": self.fptype.value,
            "inputs_per_program": self.inputs_per_program,
            "opts": [o.label for o in self.opts],
            "relations": list(self.relations),
            "ulp_bound": self.ulp_bound,
        }
        if tuple(self.stacks) != DEFAULT_STACK_PAIR:
            fp["stacks"] = list(self.stacks)
        return fp


@dataclass
class OracleResult:
    """Everything one oracle session checked and found."""

    config: OracleConfig
    violations: List[RelationViolation]
    programs_checked: int
    resumed_programs: int = 0
    checked_by_relation: Dict[str, int] = field(default_factory=dict)
    pair_runs: int = 0
    elapsed_seconds: float = 0.0
    #: :meth:`repro.exec.ExecutionService.stats` of the executed work —
    #: ``deduped`` is the zero-redundant-runs proof.
    exec_metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def violations_by_relation(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.violations:
            out[v.relation] = out.get(v.relation, 0) + 1
        return out

    @property
    def violated_programs(self) -> int:
        return len({v.test_id for v in self.violations})

    def table(self) -> Table:
        return oracle_violation_table(
            self.checked_by_relation, self.violations, self.config.relations
        )


def oracle_violation_table(
    checked_by_relation: Dict[str, int],
    violations: List[RelationViolation],
    relation_order: Tuple[str, ...] = RELATION_NAMES,
    title: str = "Metamorphic-relation violations",
) -> Table:
    """Per-relation violation accounting (CLI and campaign report)."""
    by_relation: Dict[str, List[RelationViolation]] = {}
    for v in violations:
        by_relation.setdefault(v.relation, []).append(v)
    table = Table(
        title=title,
        headers=["Relation", "Programs checked", "Violations", "Programs", "Platforms"],
    )
    for name in relation_order:
        vs = by_relation.get(name, [])
        platforms = sorted({v.platform for v in vs})
        table.add_row(
            [
                name,
                checked_by_relation.get(name, 0),
                len(vs),
                len({v.test_id for v in vs}),
                ", ".join(platforms) or "—",
            ]
        )
    return table


# ---------------------------------------------------------------------------
# Chunk construction / checking (shared with the campaign's oracle arm)
# ---------------------------------------------------------------------------


@dataclass
class _ProgramPlan:
    """One program's oracle work: its chunk and how to interpret it."""

    index: int
    test: TestCase
    requests: List[SweepRequest]
    #: names of the relations applicable to this program, registry order.
    checked: List[str]


def relation_applicable(
    rel: Relation,
    variants: List[Tuple[str, TestCase]],
    opts: Tuple[OptSetting, ...],
) -> bool:
    """Whether a relation has anything to check on this program.

    The base-sweep-only ``fastmath-flag`` relation applies whenever both
    of its sweep columns are in the session's opts; every transforming
    relation applies when it found a site.  The one place this policy
    lives — the oracle engine and the fuzz evaluator both build their
    requests through :func:`build_relation_requests`.
    """
    if isinstance(rel, FastMathFlag):
        labels = {o.label for o in opts}
        return rel.plain_label in labels and rel.fm_label in labels
    return bool(variants)


def build_relation_requests(
    test: TestCase,
    tag_head: object,
    seed: int,
    rng_token: object,
    relations: List[Relation],
    opts: Tuple[OptSetting, ...],
    stacks: Tuple[str, str] = DEFAULT_STACK_PAIR,
) -> Tuple[List[SweepRequest], List[str]]:
    """Per-relation base + variant requests for one program.

    Tags are ``(tag_head, relation, label)`` — the oracle engine passes
    the corpus index as ``tag_head``, the fuzz evaluator the literal
    ``"oracle"``.  ``rng_token`` addresses the site-choice RNG
    (``derive_seed(seed, "oracle-site", relation, token)``): a corpus
    index or a content-stable test id, so either caller rebuilds
    identical variants on resume.  ``stacks`` selects the pair the
    sweeps run on; relations check each of its stacks independently.
    Every base-reading relation issues its own base request; the service
    dedups the copies (same content, opts, runner) down to one
    execution, which is what makes the per-relation accounting free.
    """
    runner = RunnerSpec(stacks=tuple(stacks))
    requests: List[SweepRequest] = []
    checked: List[str] = []
    for rel in relations:
        rng = random.Random(derive_seed(seed, "oracle-site", rel.name, rng_token))
        variants = rel.variants(test, rng)
        if not relation_applicable(rel, variants, opts):
            continue
        checked.append(rel.name)
        if rel.needs_base:
            requests.append(
                SweepRequest(
                    test=test,
                    opts=opts,
                    tag=(tag_head, rel.name, "base"),
                    runner=runner,
                )
            )
        for label, variant in variants:
            requests.append(
                SweepRequest(
                    test=variant,
                    opts=opts,
                    tag=(tag_head, rel.name, label),
                    runner=runner,
                )
            )
    return requests, checked


def oracle_requests_for(
    test: TestCase,
    index: int,
    seed: int,
    relations: List[Relation],
    opts: Tuple[OptSetting, ...],
    stacks: Tuple[str, str] = DEFAULT_STACK_PAIR,
) -> _ProgramPlan:
    """Build one program's chunk (see :func:`build_relation_requests`)."""
    requests, checked = build_relation_requests(
        test, index, seed, index, relations, opts, stacks
    )
    return _ProgramPlan(index=index, test=test, requests=requests, checked=checked)


def check_relation_outcomes(
    outcomes: List[SweepOutcome],
    relations: List[Relation],
    fptype: FPType,
    ulp_bound: int,
    test_id: Optional[str] = None,
) -> List[RelationViolation]:
    """Fold one program's oracle outcomes through the relation checkers.

    Outcomes carry ``(_, relation, label)`` tags; each relation's base
    and variant sweeps are regrouped and checked in registry order, so
    the violation list is deterministic.  A relation with no recorded
    outcomes (not applicable on this program) contributes nothing —
    presence in the outcome stream IS the applicability record.

    ``test_id`` names the checked program; checkers that compare two
    *variants* (``demote-roundtrip``) read a variant's synthetic content
    id off the run records, so every violation is normalized to the
    program's own id — one program, one id, however many relations flag
    it.
    """
    base_by_rel: Dict[str, Dict[str, PairResult]] = {}
    variants_by_rel: Dict[str, Dict[str, Dict[str, PairResult]]] = {}
    for outcome in outcomes:
        _, rel_name, label = outcome.tag
        if label == "base":
            base_by_rel[str(rel_name)] = outcome.pairs
        else:
            variants_by_rel.setdefault(str(rel_name), {})[str(label)] = outcome.pairs
    tracer = get_tracer()
    violations: List[RelationViolation] = []
    for rel in relations:
        base = base_by_rel.get(rel.name, {})
        variants = variants_by_rel.get(rel.name, {})
        if rel.needs_base and not base:
            continue
        if not base and not variants:
            continue
        t0 = time.perf_counter_ns() if tracer.enabled else 0
        found = rel.check(fptype, base, variants, ulp_bound)
        if tracer.enabled:
            tracer.record(
                "oracle.relation",
                t0,
                time.perf_counter_ns(),
                relation=rel.name,
                violations=len(found),
            )
        violations.extend(found)
    if test_id is not None:
        violations = [
            replace(v, test_id=test_id) if v.test_id != test_id else v
            for v in violations
        ]
    return violations


def oracle_check_outcomes(
    plan: _ProgramPlan,
    outcomes: List[SweepOutcome],
    relations: List[Relation],
    ulp_bound: int,
) -> Tuple[List[RelationViolation], int]:
    """One chunk's violations plus its executed (non-deduped) pair count."""
    runs = sum(o.pair_runs for o in outcomes if not o.deduped)
    violations = check_relation_outcomes(
        outcomes, relations, plan.test.fptype, ulp_bound, plan.test.test_id
    )
    return violations, runs


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------


def run_oracle(
    config: Optional[OracleConfig] = None,
    *,
    ledger: Optional[Union[str, Path]] = None,
    resume: Union[bool, str] = False,
    progress=None,
) -> OracleResult:
    """Run one oracle session; returns violations and accounting.

    ``ledger`` names the JSONL file; a resumed session continues from the
    first unrecorded corpus index (``resume`` follows
    :meth:`~repro.utils.checkpoint.JsonlCheckpoint.open_session`).
    ``progress`` is an optional ``(phase, done, total)`` callable.
    """
    config = config or OracleConfig()
    t0 = time.perf_counter()

    relations = resolve_relations(config.relations)
    corpus = build_corpus(
        config.generator_config(), config.n_programs, config.corpus_seed, prefix="oracle"
    )

    book, loaded = OracleLedger.open_session(ledger, config.fingerprint(), resume)
    state: OracleLedgerState = loaded or OracleLedgerState()

    # A ledger may already record more programs than this session asks
    # for (resume under a smaller --programs); the reloaded violations
    # and per-relation counts cover the recorded extent, so the session
    # reports that extent rather than under-claiming its own numbers.
    start = min(state.programs_done, config.n_programs)
    programs_total = max(state.programs_done, config.n_programs)
    violations: List[RelationViolation] = list(state.violations)
    checked_by_relation: Dict[str, int] = dict(state.checked_by_relation)
    pair_runs = state.pair_runs

    service = ExecutionService(
        resolve_backend(config.backend, config.workers, config.bridge_url)
    )
    try:
        plans = [
            oracle_requests_for(
                corpus.tests[index],
                index,
                config.seed,
                relations,
                config.opts,
                config.stacks,
            )
            for index in range(start, config.n_programs)
        ]
        chunk_iter = service.run_sweeps(p.requests for p in plans if p.requests)
        for plan in plans:
            outcomes: List[SweepOutcome] = []
            if plan.requests:
                outcomes = next(chunk_iter)
            found, runs = oracle_check_outcomes(
                plan, outcomes, relations, config.ulp_bound
            )
            violations.extend(found)
            pair_runs += runs
            for name in plan.checked:
                checked_by_relation[name] = checked_by_relation.get(name, 0) + 1
            if book is not None:
                book.append_program(
                    plan.index, plan.test.test_id, plan.checked, runs, found
                )
            if progress is not None:
                progress("oracle", plan.index + 1, config.n_programs)
        exec_metrics = service.stats()
    finally:
        service.close()
        if book is not None:
            book.close()

    return OracleResult(
        config=config,
        violations=violations,
        programs_checked=programs_total,
        resumed_programs=start,
        checked_by_relation=checked_by_relation,
        pair_runs=pair_runs,
        elapsed_seconds=time.perf_counter() - t0,
        exec_metrics=exec_metrics,
    )
