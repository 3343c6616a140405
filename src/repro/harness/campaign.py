"""Campaign orchestration — the §IV-B experiment grid.

A campaign has up to five *arms* — the paper's three columns plus the
reduced-precision extension pair:

* ``fp64``        — native CUDA vs native HIP, double precision;
* ``fp64_hipify`` — the same FP64 programs, HIP side produced by HIPIFY;
* ``fp32``        — native CUDA vs native HIP, single precision;
* ``fp16``        — native CUDA vs native HIP, IEEE binary16 half
  precision (``repro-campaign --include-fp16``; off by default because
  the paper's grid stops at FP32);
* ``fp16_hipify`` — the same FP16 programs through HIPIFY, fused with
  ``fp16`` exactly like the FP64 pair so its CUDA half replays from the
  run store.  Gated on ``include_hipify`` like ``fp64_hipify``, so
  ``--no-hipify`` skips both HIPIFY arms.

Each arm runs ``programs × inputs`` tests at each of the five optimization
settings on both platforms.

**Stack-pair arms.**  With more than the legacy two stacks selected
(``repro-campaign --stacks nvcc,hipcc,cpu``), every precision lane
expands into one arm per 2-combination of the selected stacks: the
legacy pair keeps its un-suffixed arm names (and its HIPIFY twins, which
only make sense for the nvcc→hipcc conversion), while every other pair
gets a ``lane@lhs-rhs`` arm (``fp64@nvcc-cpu``, ``fp32@hipcc-cpu``, …).
All pairs of one lane share the *same* corpus — :meth:`CampaignConfig
.arm_seed` keys on the lane, not the pair — and execute fused in one
plan group, so every nvcc-lhs pair replays the lane's nvcc runs from the
chunk's content-keyed store exactly like the HIPIFY twin does.

**Run accounting.**  Runs are counted *per optimization setting per
compiler* (:attr:`ArmResult.runs_by_opt`), after skips: a test whose
execution traps at one setting but not another contributes different run
counts to the two settings, and ``total_runs`` is the exact sum
``2 × Σ_opt runs_by_opt[opt]`` — never a single setting's count
extrapolated across the grid.  Every reported ``discrepancy_percent`` is
a ratio over that exact total, which is what makes the Table IV–X
percentages trustworthy.  ``runs_per_option_per_compiler`` survives as
the *nominal* per-setting count (the maximum across settings) for the
paper-shaped summary rows.

**Cross-arm reuse invariant.**  The ``fp64_hipify`` arm tests the *same*
FP64 programs and inputs as the ``fp64`` arm; HIPIFY conversion only
changes how the HIP side is compiled (``Program.via_hipify`` is consulted
by the hipcc model alone).  The CUDA half of the hipify arm is therefore
bit-identical to the fp64 arm's, and the execution service replays it
from the content-keyed :class:`~repro.exec.store.RunStore` — native test
and twin share one content id, and cached trap outcomes replay too, so
skips replay exactly.  The two arms execute *fused*: each plan step's
chunk interleaves the native request and its hipified twin back to back,
which halves the nvcc executions of a three-arm campaign whether serial
or parallel.  :attr:`ArmResult.nvcc_executions` /
:attr:`ArmResult.nvcc_cache_hits` expose the proof.

**Execution plan & checkpoints.**  ``run_campaign`` expands the config
into deterministic :class:`PlanStep` slices (chunking depends only on the
program count, never on worker count), turns each pending step into one
chunk of :class:`~repro.exec.units.SweepRequest`\\ s, and executes the
chunks through :class:`~repro.exec.service.ExecutionService` — serially
or on a process pool whose workers *regenerate* their tests from the
campaign seed (deterministic generation ⇒ no IR pickling).  Chunk results
come back in plan order at any worker count, and each completed step
streams into a JSONL checkpoint.  ``resume=True`` reloads completed steps
from the checkpoint — after validating the config fingerprint — and only
executes the remainder, so an interrupted paper-scale grid continues
instead of restarting.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING, Union

from repro.compilers.options import OptSetting, PAPER_OPT_SETTINGS
from repro.errors import HarnessError
from repro.exec import (
    CorpusTestSpec,
    ExecutionService,
    SweepOutcome,
    SweepRequest,
    make_backend,
)
from repro.exec.units import RunnerSpec
from repro.fp.types import FPType
from repro.harness.differential import Discrepancy
from repro.harness.runner import PairResult
from repro.stacks import DEFAULT_STACK_PAIR, pair_name, stack_pairs
from repro.telemetry.spans import get_tracer
from repro.utils.checkpoint import JsonlCheckpoint
from repro.utils.rng import derive_seed
from repro.varity.config import GeneratorConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (oracle uses harness)
    from repro.oracle.relations import RelationViolation

__all__ = [
    "CampaignConfig",
    "ArmResult",
    "CampaignResult",
    "PlanStep",
    "build_plan",
    "run_campaign",
    "ARM_NAMES",
]

ARM_NAMES = ("fp64", "fp64_hipify", "fp32", "fp16", "fp16_hipify", "oracle")

#: Campaign precision of each arm lane (hipify twins share their native
#: arm's; the oracle arm runs FP32, where the fast-math/FTZ relations have
#: teeth).  Stack-pair arms (``fp64@nvcc-cpu``) resolve through their lane
#: prefix.
_ARM_FPTYPES = {
    "fp64": FPType.FP64,
    "fp64_hipify": FPType.FP64,
    "fp32": FPType.FP32,
    "fp16": FPType.FP16,
    "fp16_hipify": FPType.FP16,
    "oracle": FPType.FP32,
}

#: The precision lanes with HIPIFY twins (the twin models nvcc→hipcc
#: source conversion, so it exists only on the legacy stack pair).
_HIPIFY_LANES = ("fp64", "fp16")


def _arm_lane(arm: str) -> str:
    """Lane of an arm name: ``fp64@nvcc-cpu`` → ``fp64``; legacy names map
    to themselves (``fp64_hipify`` keeps its suffix — same fptype row)."""
    return arm.partition("@")[0]


def _arm_pair(arm: str) -> Tuple[str, str]:
    """Stack pair of an arm name; un-suffixed arms are the legacy pair."""
    _, sep, spec = arm.partition("@")
    if not sep:
        return DEFAULT_STACK_PAIR
    lhs, _, rhs = spec.partition("-")
    return (lhs, rhs)


@dataclass(frozen=True)
class CampaignConfig:
    """Size and shape of one campaign."""

    seed: int = 2024
    n_programs_fp64: int = 300
    n_programs_fp32: int = 240
    n_programs_fp16: int = 200
    inputs_per_program: int = 7
    include_hipify: bool = True
    include_fp32: bool = True
    #: The reduced-precision extension pair (fp16 + fp16_hipify); not part
    #: of the paper's grid, so off unless requested.
    include_fp16: bool = False
    #: The metamorphic-oracle arm (`repro-campaign --oracle`): single-stack
    #: relation checking over its own FP32 corpus; violations land on
    #: :attr:`ArmResult.oracle_violations`, not on the discrepancy lists.
    include_oracle: bool = False
    n_programs_oracle: int = 60
    oracle_ulp_bound: int = 4
    #: The compiler stacks the campaign sweeps; every 2-combination (in
    #: registry order) becomes one arm per precision lane.  The default
    #: is the paper's nvcc/hipcc pair, whose arms keep their legacy names.
    stacks: Tuple[str, ...] = DEFAULT_STACK_PAIR
    opts: Tuple[OptSetting, ...] = PAPER_OPT_SETTINGS
    workers: int = 0  # 0/1 = serial
    #: Replay the fp64 arm's nvcc runs for the fp64_hipify arm instead of
    #: re-executing them (see the module docstring's reuse invariant).
    #: Disabling this runs every arm standalone, like the seed engine —
    #: kept for benchmarking and equivalence testing.
    reuse_nvcc_runs: bool = True

    # ------------------------------------------------------------- presets
    @classmethod
    def tiny(cls, seed: int = 2024) -> "CampaignConfig":
        """Smoke-test scale (seconds)."""
        return cls(
            seed=seed,
            n_programs_fp64=24,
            n_programs_fp32=20,
            n_programs_fp16=16,
            inputs_per_program=3,
        )

    @classmethod
    def default(cls, seed: int = 2024, workers: int = 0) -> "CampaignConfig":
        """Bench scale: ≈1/12 of the paper's program counts."""
        return cls(seed=seed, workers=workers)

    @classmethod
    def paper_scale(cls, seed: int = 2024, workers: Optional[int] = None) -> "CampaignConfig":
        """The full §IV-B grid: 3,540 FP64 + 2,840 FP32 programs.

        The paper's inputs-per-program ratios are 6.99 (FP64: 24,750 runs
        per option per compiler) and 5.55 (FP32: 15,760); with a uniform
        7 inputs per program this preset yields 694,400 runs vs the
        paper's 652,600 — within 7%, same program counts.  ``workers``
        defaults to one per CPU: the parent of a pool run mostly waits
        on its workers, and one CPU (or an unknown count) runs serially."""
        if workers is None:
            workers = os.cpu_count() or 1
        return cls(
            seed=seed,
            n_programs_fp64=3540,
            n_programs_fp32=2840,
            inputs_per_program=7,
            workers=workers,
        )

    def generator_config(self, fptype: FPType) -> GeneratorConfig:
        cfg = GeneratorConfig(fptype=fptype, inputs_per_program=self.inputs_per_program)
        cfg.validate()
        return cfg

    def stack_pair_list(self) -> List[Tuple[str, str]]:
        """The stack pairs this campaign sweeps, in registry order."""
        return list(stack_pairs(self.stacks))

    def lane_arms(self, lane: str) -> List[str]:
        """All arms of one precision lane, legacy pair (and its HIPIFY
        twin) first, then one ``lane@lhs-rhs`` arm per remaining pair."""
        pairs = self.stack_pair_list()
        arms: List[str] = []
        if DEFAULT_STACK_PAIR in pairs:
            arms.append(lane)
            if self.include_hipify and lane in _HIPIFY_LANES:
                arms.append(f"{lane}_hipify")
        for pair in pairs:
            if pair != DEFAULT_STACK_PAIR:
                arms.append(f"{lane}@{pair_name(pair)}")
        return arms

    def arm_names(self) -> List[str]:
        arms = self.lane_arms("fp64")
        if self.include_fp32:
            arms.extend(self.lane_arms("fp32"))
        if self.include_fp16:
            arms.extend(self.lane_arms("fp16"))
        if self.include_oracle:
            arms.append("oracle")
        return arms

    def arm_programs(self, arm: str) -> int:
        lane = _arm_lane(arm)
        if lane in ("fp64", "fp64_hipify"):
            return self.n_programs_fp64
        if lane == "fp32":
            return self.n_programs_fp32
        if lane in ("fp16", "fp16_hipify"):
            return self.n_programs_fp16
        if lane == "oracle":
            return self.n_programs_oracle
        raise HarnessError(f"unknown arm {arm!r}")

    def arm_fptype(self, arm: str) -> FPType:
        try:
            return _ARM_FPTYPES[_arm_lane(arm)]
        except KeyError:
            raise HarnessError(f"unknown arm {arm!r}") from None

    def arm_seed(self, arm: str) -> int:
        # A native arm, its hipify twin, and every stack-pair arm of the
        # lane share programs AND inputs (the paper converts the same
        # tests with HIPIFY; cross-stack comparison needs one corpus);
        # each precision is an independent corpus.
        base_arm = _arm_lane(arm)
        if base_arm.endswith("_hipify"):
            base_arm = base_arm[: -len("_hipify")]
        return derive_seed(self.seed, "arm", base_arm)

    def fingerprint(self) -> Dict[str, object]:
        """The result-determining identity of this config.

        Two configs with equal fingerprints produce identical results, so
        a checkpoint written under one may be resumed under the other.
        ``workers`` is deliberately excluded: it only changes scheduling.

        Compatibility: the FP16 keys (``include_fp16`` /
        ``n_programs_fp16``) are emitted only when the fp16 arms are
        included.  A config without them has exactly the pre-FP16
        fingerprint — ``n_programs_fp16`` cannot influence results then —
        so every checkpoint written before the FP16 lane still resumes.
        A checkpoint *with* fp16 arms is refused by the old engine (and
        vice versa), which is correct: one of the two cannot express the
        recorded grid.
        """
        fp: Dict[str, object] = {
            "seed": self.seed,
            "n_programs_fp64": self.n_programs_fp64,
            "n_programs_fp32": self.n_programs_fp32,
            "inputs_per_program": self.inputs_per_program,
            "include_hipify": self.include_hipify,
            "include_fp32": self.include_fp32,
            "opts": [o.label for o in self.opts],
            "reuse_nvcc_runs": self.reuse_nvcc_runs,
        }
        if tuple(self.stacks) != DEFAULT_STACK_PAIR:
            # Same compatibility rule as the FP16/oracle keys: the legacy
            # pair omits the key, so every pre-registry checkpoint still
            # resumes under the default stack selection.
            fp["stacks"] = list(self.stacks)
        if self.include_fp16:
            fp["include_fp16"] = True
            fp["n_programs_fp16"] = self.n_programs_fp16
        if self.include_oracle:
            # Same compatibility rule as the FP16 keys: emitted only when
            # the arm is on, so every pre-oracle checkpoint still resumes.
            # The relation catalogue is part of the identity (like the
            # standalone OracleConfig fingerprint): a checkout whose
            # registry grew or renamed a relation must refuse the
            # checkpoint rather than merge incomparable per-relation
            # tables.
            from repro.oracle.relations import RELATION_NAMES

            fp["include_oracle"] = True
            fp["n_programs_oracle"] = self.n_programs_oracle
            fp["oracle_ulp_bound"] = self.oracle_ulp_bound
            fp["oracle_relations"] = list(RELATION_NAMES)
        return fp


@dataclass
class ArmResult:
    """All measurements of one campaign arm.

    ``runs_by_opt`` / ``skipped_by_opt`` hold the *true* per-optimization
    totals (per compiler): a run appears under the setting it executed
    at, and a skipped (trapped) input is counted where it trapped.
    """

    arm: str
    n_programs: int
    opt_labels: Tuple[str, ...]
    runs_by_opt: Dict[str, int] = field(default_factory=dict)
    skipped_by_opt: Dict[str, int] = field(default_factory=dict)
    discrepancies: List[Discrepancy] = field(default_factory=list)
    #: nvcc device executions attempted for this arm (0 when the arm was
    #: replayed entirely from another arm's cache).
    nvcc_executions: int = 0
    #: per-input nvcc outcomes served from a cross-arm RunCache.
    nvcc_cache_hits: int = 0
    #: metamorphic-relation violations (oracle arm only; empty elsewhere).
    oracle_violations: List["RelationViolation"] = field(default_factory=list)
    #: per-relation count of programs where the relation applied.
    oracle_checked: Dict[str, int] = field(default_factory=dict)
    #: the (lhs, rhs) stack pair this arm compared; the ``nvcc_*`` counter
    #: names above are the legacy spellings for the lhs slot.
    stacks: Tuple[str, str] = DEFAULT_STACK_PAIR

    def __post_init__(self) -> None:
        for label in self.opt_labels:
            self.runs_by_opt.setdefault(label, 0)
            self.skipped_by_opt.setdefault(label, 0)

    @property
    def runs_per_option_per_compiler(self) -> int:
        """Nominal per-setting count: the maximum across settings.

        Equal to every setting's count when no skip varies by setting
        (the common case); the exact per-setting totals are
        :attr:`runs_by_opt`."""
        return max(self.runs_by_opt.values(), default=0)

    @property
    def runs_per_option(self) -> int:
        return 2 * self.runs_per_option_per_compiler

    @property
    def runs_per_compiler(self) -> int:
        """Exact runs on one compiler: Σ over settings of the true count."""
        return sum(self.runs_by_opt.values())

    @property
    def total_runs(self) -> int:
        return 2 * self.runs_per_compiler

    @property
    def n_skipped_tests(self) -> int:
        return sum(self.skipped_by_opt.values())

    @property
    def n_discrepancies(self) -> int:
        return len(self.discrepancies)

    @property
    def discrepancy_percent(self) -> float:
        return 100.0 * self.n_discrepancies / self.total_runs if self.total_runs else 0.0

    @property
    def n_oracle_violations(self) -> int:
        return len(self.oracle_violations)

    @property
    def violations_by_relation(self) -> Dict[str, int]:
        """Per-relation violation counts (the oracle arm's report unit)."""
        out: Dict[str, int] = {}
        for v in self.oracle_violations:
            out[v.relation] = out.get(v.relation, 0) + 1
        return out

    def by_opt(self) -> Dict[str, List[Discrepancy]]:
        out: Dict[str, List[Discrepancy]] = {label: [] for label in self.opt_labels}
        for d in self.discrepancies:
            out[d.opt_label].append(d)
        return out

    def merge(self, other: "ArmResult") -> None:
        if other.arm != self.arm or other.opt_labels != self.opt_labels:
            raise HarnessError("cannot merge mismatched arm results")
        self.n_programs += other.n_programs
        for label in self.opt_labels:
            self.runs_by_opt[label] += other.runs_by_opt.get(label, 0)
            self.skipped_by_opt[label] += other.skipped_by_opt.get(label, 0)
        self.discrepancies.extend(other.discrepancies)
        self.nvcc_executions += other.nvcc_executions
        self.nvcc_cache_hits += other.nvcc_cache_hits
        self.oracle_violations.extend(other.oracle_violations)
        for name, count in other.oracle_checked.items():
            self.oracle_checked[name] = self.oracle_checked.get(name, 0) + count

    # -- checkpoint (de)serialization ---------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "arm": self.arm,
            "n_programs": self.n_programs,
            "opt_labels": list(self.opt_labels),
            "runs_by_opt": dict(self.runs_by_opt),
            "skipped_by_opt": dict(self.skipped_by_opt),
            "nvcc_executions": self.nvcc_executions,
            "nvcc_cache_hits": self.nvcc_cache_hits,
            "discrepancies": [d.to_json_dict() for d in self.discrepancies],
        }
        if self.stacks != DEFAULT_STACK_PAIR:
            # Emitted only for non-legacy pairs, so pre-registry
            # checkpoint lines and legacy-pair lines stay byte-identical.
            data["stacks"] = list(self.stacks)
        if self.oracle_violations:
            # Emitted only when present, so pre-oracle checkpoint lines
            # and new non-oracle lines stay byte-compatible.
            data["oracle_violations"] = [
                v.to_json_dict() for v in self.oracle_violations
            ]
        if self.oracle_checked:
            data["oracle_checked"] = dict(self.oracle_checked)
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "ArmResult":
        return cls(
            arm=str(data["arm"]),
            n_programs=int(data["n_programs"]),  # type: ignore[arg-type]
            opt_labels=tuple(data["opt_labels"]),  # type: ignore[arg-type]
            runs_by_opt={k: int(v) for k, v in data["runs_by_opt"].items()},  # type: ignore[union-attr]
            skipped_by_opt={k: int(v) for k, v in data["skipped_by_opt"].items()},  # type: ignore[union-attr]
            discrepancies=[
                Discrepancy.from_json_dict(d) for d in data["discrepancies"]  # type: ignore[union-attr]
            ],
            nvcc_executions=int(data.get("nvcc_executions", 0)),  # type: ignore[union-attr,arg-type]
            nvcc_cache_hits=int(data.get("nvcc_cache_hits", 0)),  # type: ignore[union-attr,arg-type]
            oracle_violations=_violations_from_json(
                data.get("oracle_violations", [])  # type: ignore[arg-type]
            ),
            oracle_checked={
                str(k): int(v)
                for k, v in data.get("oracle_checked", {}).items()  # type: ignore[union-attr]
            },
            stacks=tuple(data.get("stacks", DEFAULT_STACK_PAIR)),  # type: ignore[arg-type]
        )


def _violations_from_json(items: List[Dict[str, object]]) -> List["RelationViolation"]:
    if not items:
        return []
    # Deferred: repro.oracle imports the harness layer (cycle guard).
    from repro.oracle.relations import RelationViolation

    return [RelationViolation.from_json_dict(v) for v in items]


@dataclass
class CampaignResult:
    """Results of all arms plus timing."""

    config: CampaignConfig
    arms: Dict[str, ArmResult]
    elapsed_seconds: float
    #: plan steps reloaded from a checkpoint instead of executed.
    resumed_steps: int = 0
    #: execution-service counters for the steps this run actually
    #: executed (resumed steps replay from the checkpoint and are not
    #: re-counted here).  See :meth:`repro.exec.ExecutionService.stats`.
    exec_metrics: Dict[str, object] = field(default_factory=dict)
    #: wall seconds per plan group (arm or fused-arm label), summed from
    #: ``exec.chunk`` spans when a tracer is active — empty otherwise.
    #: Telemetry-only: never serialized into checkpoints or ``--json``.
    group_wall_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def total_runs(self) -> int:
        return sum(a.total_runs for a in self.arms.values())

    @property
    def total_discrepancies(self) -> int:
        return sum(a.n_discrepancies for a in self.arms.values())

    @property
    def nvcc_cache_hits(self) -> int:
        return sum(a.nvcc_cache_hits for a in self.arms.values())

    @property
    def nvcc_executions(self) -> int:
        return sum(a.nvcc_executions for a in self.arms.values())


# ---------------------------------------------------------------------------
# Execution plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    """One schedulable slice of the campaign: a program range of one or
    more arms (fused arms share the range *and* the generated programs)."""

    arms: Tuple[str, ...]
    start: int
    stop: int

    @property
    def key(self) -> str:
        """Stable identity used by checkpoint files."""
        return f"{'+'.join(self.arms)}:{self.start}:{self.stop}"

    @property
    def label(self) -> str:
        return "+".join(self.arms)


def _chunk_size(n_programs: int) -> int:
    """Checkpoint/scheduling granularity.

    Depends only on the program count — never on worker count — so a
    checkpoint written by an 8-worker run resumes correctly under any
    other worker count."""
    return max(4, min(64, n_programs // 8))


def build_plan(config: CampaignConfig) -> List[PlanStep]:
    """Expand a config into its deterministic list of plan steps.

    A lane's arms fuse into one group when ``reuse_nvcc_runs`` is on and
    the lane has more than one arm (hipify twin and/or stack-pair arms):
    fused arms share each step's chunk store, so everything with the
    lane's lhs stack replays instead of re-executing.  With reuse off
    every arm runs standalone, like the seed engine.
    """
    groups: List[Tuple[str, ...]] = []

    def _lane_groups(lane: str) -> None:
        arms = config.lane_arms(lane)
        if config.reuse_nvcc_runs and len(arms) > 1:
            groups.append(tuple(arms))
        else:
            groups.extend((arm,) for arm in arms)

    _lane_groups("fp64")
    if config.include_fp32:
        _lane_groups("fp32")
    if config.include_fp16:
        _lane_groups("fp16")
    if config.include_oracle:
        groups.append(("oracle",))
    steps: List[PlanStep] = []
    for arms in groups:
        n = config.arm_programs(arms[0])
        chunk = _chunk_size(n)
        for lo in range(0, n, chunk):
            steps.append(PlanStep(arms, lo, min(lo + chunk, n)))
    return steps


def _oracle_step_plans(config: CampaignConfig, step: PlanStep):
    """The oracle arm's per-program plans for one step's index range.

    Deterministic in (config, step) alone, so requests and results can
    rebuild the same plans independently (the transforms are cheap; only
    execution is expensive).  Variants ship as concrete tests — like fuzz
    mutants, they cannot be regenerated from a generator seed.
    """
    from repro.oracle.engine import oracle_requests_for
    from repro.oracle.relations import RELATION_NAMES, resolve_relations
    from repro.varity.corpus import build_corpus_slice

    gen = config.generator_config(config.arm_fptype("oracle"))
    relations = resolve_relations(RELATION_NAMES)
    # prefix "oracle", not "prog": the fp32 arm already mints
    # prog-fp32-NNNNNN ids from a different seed, and a campaign JSON
    # must never carry one test_id naming two different programs.
    tests = build_corpus_slice(
        gen, step.start, step.stop, config.arm_seed("oracle"), prefix="oracle"
    ).tests
    return [
        oracle_requests_for(
            test, step.start + offset, config.seed, relations, config.opts
        )
        for offset, test in enumerate(tests)
    ], relations


def _step_requests(config: CampaignConfig, step: PlanStep) -> List[SweepRequest]:
    """One plan step as one execution-service chunk.

    A fused step interleaves each program's arms back to back — the
    HIPIFY twin and every nvcc-lhs stack-pair arm share the legacy arm's
    content id, so their CUDA halves replay from the chunk's run store;
    standalone steps have nothing to pair and skip the store entirely,
    like the seed engine's from-scratch walk.  An oracle step's chunk
    holds each program's per-relation base + variant requests; the
    service dedups the repeated base down to one execution.
    """
    if step.arms == ("oracle",):
        plans, _ = _oracle_step_plans(config, step)
        return [req for plan in plans for req in plan.requests]
    gen = config.generator_config(config.arm_fptype(step.arms[0]))
    root_seed = config.arm_seed(step.arms[0])
    fused = len(step.arms) > 1
    requests: List[SweepRequest] = []
    for index in range(step.start, step.stop):
        for arm in step.arms:
            spec = CorpusTestSpec(
                gen=gen,
                index=index,
                root_seed=root_seed,
                hipify=arm.endswith("_hipify"),
            )
            requests.append(
                SweepRequest(
                    test=spec,
                    opts=config.opts,
                    tag=(arm,),
                    reuse=fused,
                    runner=RunnerSpec(stacks=_arm_pair(arm)),
                )
            )
    return requests


def _step_results(
    config: CampaignConfig, step: PlanStep, outcomes: List[SweepOutcome]
) -> Dict[str, ArmResult]:
    """Fold one chunk's outcomes back into per-arm results."""
    if step.arms == ("oracle",):
        return {"oracle": _oracle_step_result(config, step, outcomes)}
    opt_labels = tuple(o.label for o in config.opts)
    results = {
        arm: ArmResult(
            arm=arm, n_programs=0, opt_labels=opt_labels, stacks=_arm_pair(arm)
        )
        for arm in step.arms
    }
    for outcome in outcomes:
        out = results[outcome.tag[0]]
        _accumulate(out, outcome.pairs)
        out.nvcc_executions += outcome.nvcc_executions
        out.nvcc_cache_hits += outcome.nvcc_cache_hits
        out.n_programs += 1
    return results


def _oracle_step_result(
    config: CampaignConfig, step: PlanStep, outcomes: List[SweepOutcome]
) -> ArmResult:
    """Fold an oracle step: run accounting plus relation checking.

    Cross-vendor discrepancies in the sweeps are deliberately NOT
    recorded — this arm reports single-stack relation violations, and
    the differential arms already cover vendor-vs-vendor.  Deduped
    outcomes contribute no runs (no new work executed).
    """
    from repro.oracle.engine import oracle_check_outcomes

    plans, relations = _oracle_step_plans(config, step)
    out = ArmResult(
        arm="oracle",
        n_programs=len(plans),
        opt_labels=tuple(o.label for o in config.opts),
    )
    by_index: Dict[int, List[SweepOutcome]] = {}
    for outcome in outcomes:
        by_index.setdefault(int(outcome.tag[0]), []).append(outcome)
        if not outcome.deduped:
            for label, pair in outcome.pairs.items():
                out.runs_by_opt[label] += len(pair.lhs_runs)
                out.skipped_by_opt[label] += len(pair.skipped_inputs)
            out.nvcc_executions += outcome.nvcc_executions
            out.nvcc_cache_hits += outcome.nvcc_cache_hits
    for plan in plans:
        violations, _ = oracle_check_outcomes(
            plan, by_index.get(plan.index, []), relations, config.oracle_ulp_bound
        )
        out.oracle_violations.extend(violations)
        for name in plan.checked:
            out.oracle_checked[name] = out.oracle_checked.get(name, 0) + 1
    return out


def _accumulate(out: ArmResult, sweep: Dict[str, PairResult]) -> None:
    for label, pair in sweep.items():
        out.runs_by_opt[label] += len(pair.lhs_runs)
        out.skipped_by_opt[label] += len(pair.skipped_inputs)
        out.discrepancies.extend(pair.discrepancies)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


class _Checkpoint(JsonlCheckpoint):
    """Append-only JSONL checkpoint: a header line with the config
    fingerprint (see :class:`~repro.utils.checkpoint.JsonlCheckpoint`),
    then one ``step`` line per completed plan step."""

    noun = "checkpoint"
    writer = "a campaign"

    def load(self, fingerprint: Dict[str, object]) -> Dict[str, Dict[str, ArmResult]]:
        """Completed steps by plan-step key."""
        done: Dict[str, Dict[str, ArmResult]] = {}
        for data in self.iter_records(fingerprint):
            if data.get("kind") != "step":
                continue
            done[str(data["key"])] = {
                name: ArmResult.from_json_dict(arm_data)
                for name, arm_data in data["arms"].items()
            }
        return done

    def append_step(self, key: str, arms: Dict[str, ArmResult]) -> None:
        self.append_record(
            {
                "kind": "step",
                "key": key,
                "arms": {name: arm.to_json_dict() for name, arm in arms.items()},
            }
        )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_campaign(
    config: Optional[CampaignConfig] = None,
    *,
    progress=None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: Union[bool, str] = False,
) -> CampaignResult:
    """Run a full campaign; returns per-arm results.

    ``progress`` is an optional callable ``(group_label, done, total)``
    invoked as plan steps complete (used by the CLI).  ``checkpoint``
    names a JSONL file that receives each completed step; a resumed run
    reloads the steps recorded there instead of re-executing them
    (``resume`` follows :meth:`~repro.utils.checkpoint.JsonlCheckpoint.open_session`).
    """
    config = config or CampaignConfig.default()
    t0 = time.perf_counter()

    plan = build_plan(config)
    ckpt, loaded = _Checkpoint.open_session(checkpoint, config.fingerprint(), resume)
    completed: Dict[str, Dict[str, ArmResult]] = loaded or {}

    # Progress is reported per plan group ("fp64+fp64_hipify", "fp32", …).
    group_totals: Dict[str, int] = {}
    group_done: Dict[str, int] = {}
    for step in plan:
        group_totals[step.label] = group_totals.get(step.label, 0) + 1
        group_done.setdefault(step.label, 0)

    # Pre-seed every included arm so a zero-program arm (no plan steps)
    # still reports an empty ArmResult instead of going missing.
    opt_labels = tuple(o.label for o in config.opts)
    merged: Dict[str, ArmResult] = {
        name: ArmResult(
            arm=name, n_programs=0, opt_labels=opt_labels, stacks=_arm_pair(name)
        )
        for name in config.arm_names()
    }

    def _absorb(step: PlanStep, arms: Dict[str, ArmResult]) -> None:
        for name, part in arms.items():
            if name in merged:
                merged[name].merge(part)
            else:
                merged[name] = part
        group_done[step.label] += 1
        if progress is not None:
            progress(step.label, group_done[step.label], group_totals[step.label])

    resumed_steps = 0
    pending: List[PlanStep] = []
    for step in plan:
        if step.key in completed:
            _absorb(step, completed[step.key])
            resumed_steps += 1
        else:
            pending.append(step)

    # Multiple pending steps are the only parallelism opportunity; a
    # single chunk runs in-process under any worker count.
    workers = config.workers if len(pending) > 1 else 0
    service = ExecutionService(make_backend(workers))
    try:
        chunks = (_step_requests(config, step) for step in pending)
        # Steps are checkpointed the moment they complete — a kill loses
        # at most the steps still in flight, whatever their plan position
        # — while absorption is re-ordered to plan order so the merged
        # result (and the --json payload) is identical at any worker
        # count.  Checkpoint line order is scheduling-dependent; resume
        # keys steps by PlanStep.key, so that never matters.
        buffered: Dict[int, Dict[str, ArmResult]] = {}
        next_absorb = 0
        for index, outcomes in service.run_sweeps_unordered(chunks):
            step = pending[index]
            arms = _step_results(config, step, outcomes)
            if ckpt is not None:
                ckpt.append_step(step.key, arms)
            buffered[index] = arms
            while next_absorb in buffered:
                _absorb(pending[next_absorb], buffered.pop(next_absorb))
                next_absorb += 1
        exec_metrics = service.stats()
    finally:
        service.close()
        if ckpt is not None:
            ckpt.close()

    # Per-arm-group wall time from the tracer's exec.chunk spans: chunk
    # index == pending index (the chunks generator runs in pending
    # order), so attribution is deterministic at any worker count.
    group_wall: Dict[str, float] = {}
    tracer = get_tracer()
    if tracer.enabled:
        for index, seconds in sorted(tracer.seconds_by_chunk("exec.chunk").items()):
            if 0 <= index < len(pending):
                label = pending[index].label
                group_wall[label] = group_wall.get(label, 0.0) + seconds

    # Present arms in canonical order regardless of plan/completion order.
    arms_ordered = {name: merged[name] for name in config.arm_names()}
    return CampaignResult(
        config=config,
        arms=arms_ordered,
        elapsed_seconds=time.perf_counter() - t0,
        resumed_steps=resumed_steps,
        exec_metrics=exec_metrics,
        group_wall_seconds=group_wall,
    )
