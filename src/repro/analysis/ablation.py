"""Mechanism ablation: which modeled difference causes how much divergence.

DESIGN.md §5 lists five divergence mechanisms.  This harness re-runs a
corpus with individual mechanisms *equalized* between the two stacks and
measures how many discrepancies disappear — the in-model analogue of the
paper's root-cause attribution (Q3), and the ablation study for the
reproduction's own design choices.

Ablations:

* ``identical-mathlib``   — the AMD device runs NVIDIA's libdevice model
  (kills mechanism 1: vendor library algorithms & ULP placement);
* ``identical-contraction`` — hipcc contracts the same four patterns as
  nvcc (kills mechanism 2);
* ``identical-ftz``       — hipcc flushes FP32 inputs *and* outputs under
  fast math, like nvcc (kills mechanism 4's flush asymmetry);
* ``no-fast-math-extras`` — nvcc's fast-math pipeline drops reassociation,
  reciprocal substitution and finite-math algebra (kills mechanism 3);
* ``all-equalized``       — every knob above at once: any residual
  discrepancy would indicate an unmodeled asymmetry (there is none; this
  is the harness's self-check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compilers.hipcc import HipccCompiler
from repro.compilers.nvcc import NvccCompiler
from repro.compilers.options import OptSetting, PAPER_OPT_SETTINGS
from repro.compilers.passes import (
    ApproxSubstitution,
    ConstantFolding,
    FMAContraction,
    NVCC_PATTERNS,
    Pass,
    ReciprocalDivision,
)
from repro.devices.amd import TIOGA_SPEC
from repro.devices.device import Device
from repro.devices.mathlib.libdevice import LibdeviceMath
from repro.devices.nvidia import nvidia_v100
from repro.fp.env import FlushMode
from repro.fp.types import FPType
from repro.harness.runner import DifferentialRunner
from repro.utils.tables import Table
from repro.varity.corpus import Corpus

__all__ = [
    "AblationSpec",
    "AblationResult",
    "run_ablation",
    "ABLATIONS",
    "ablation_table",
    "build_ablated_runner",
]


@dataclass(frozen=True)
class AblationSpec:
    """One equalization experiment."""

    name: str
    description: str
    same_mathlib: bool = False
    same_contraction: bool = False
    same_ftz: bool = False
    no_fast_math_extras: bool = False


#: The standard ablation suite (baseline first).
ABLATIONS: Tuple[AblationSpec, ...] = (
    AblationSpec("baseline", "full model, as in the campaigns"),
    AblationSpec(
        "identical-mathlib",
        "AMD device runs the NVIDIA math library model",
        same_mathlib=True,
    ),
    AblationSpec(
        "identical-contraction",
        "hipcc contracts the same FMA patterns as nvcc",
        same_contraction=True,
    ),
    AblationSpec(
        "identical-ftz",
        "hipcc flushes FP32 inputs+outputs like nvcc",
        same_ftz=True,
    ),
    AblationSpec(
        "no-fast-math-extras",
        "nvcc fast math without reassoc/reciprocal/algebra",
        no_fast_math_extras=True,
    ),
    AblationSpec(
        "all-equalized",
        "every asymmetry removed (self-check: expect zero)",
        same_mathlib=True,
        same_contraction=True,
        same_ftz=True,
        no_fast_math_extras=True,
    ),
)


class _AblatedHipcc(HipccCompiler):
    """hipcc with selected asymmetries equalized toward nvcc."""

    def __init__(self, spec: AblationSpec) -> None:
        self.spec = spec

    def pipeline(self, opt: OptSetting, fptype: FPType) -> Sequence[Pass]:
        if not self.spec.same_contraction:
            return super().pipeline(opt, fptype)
        if opt.level.value == 0 and not opt.fast_math:
            return ()
        passes: List[Pass] = [ConstantFolding(fold_math_calls=False)]
        if opt.fast_math:
            passes.append(ReciprocalDivision())
        passes.append(FMAContraction(NVCC_PATTERNS))
        if opt.fast_math:
            passes.append(ApproxSubstitution(rewrite_division=False))
        return passes

    def flush_mode(self, opt: OptSetting, fptype: FPType) -> FlushMode:
        if self.spec.same_ftz and opt.fast_math and fptype is FPType.FP32:
            return FlushMode.FLUSH_INPUTS_OUTPUTS
        return super().flush_mode(opt, fptype)


class _AblatedNvcc(NvccCompiler):
    """nvcc with selected asymmetries equalized.

    ``same_mathlib`` also disables host-libm folding of constant math
    calls: that folding is a *library-resolution* asymmetry (compile-time
    host libm vs runtime device library), so equalizing the libraries
    without equalizing resolution would leave a residual divergence source
    and break the all-equalized self-check.
    """

    def __init__(self, spec: AblationSpec) -> None:
        self.spec = spec

    def pipeline(self, opt: OptSetting, fptype: FPType) -> Sequence[Pass]:
        if not (self.spec.no_fast_math_extras or self.spec.same_mathlib):
            return super().pipeline(opt, fptype)
        if opt.level.value == 0 and not opt.fast_math:
            return ()
        from repro.compilers.passes import AlgebraicSimplify, Reassociation

        passes: List[Pass] = [
            ConstantFolding(fold_math_calls=not self.spec.same_mathlib)
        ]
        if opt.fast_math and not self.spec.no_fast_math_extras:
            passes.append(AlgebraicSimplify())
            passes.append(Reassociation())
        if opt.fast_math:
            passes.append(ReciprocalDivision())
        passes.append(FMAContraction(NVCC_PATTERNS))
        if opt.fast_math:
            passes.append(
                ApproxSubstitution(
                    rewrite_division=not self.spec.no_fast_math_extras
                )
            )
        return passes


#: one equalized runner per spec per process (see build_ablated_runner)
_RUNNERS: Dict[AblationSpec, DifferentialRunner] = {}


def build_ablated_runner(spec: AblationSpec) -> DifferentialRunner:
    """A differential runner with the spec's asymmetries equalized.

    Public because the triage engine (:mod:`repro.analysis.triage`) re-runs
    individual discrepancies under targeted ablations to attribute causes.
    Runners hold no result-determining state, so each spec gets one per
    process: its probe caches then persist across discrepancies.
    """
    runner = _RUNNERS.get(spec)
    if runner is None:
        runner = _RUNNERS[spec] = _build_runner(spec)
    return runner


def ablated_runners() -> Tuple[DifferentialRunner, ...]:
    """Every runner :func:`build_ablated_runner` has built in this process."""
    return tuple(_RUNNERS.values())


def _build_runner(spec: AblationSpec) -> DifferentialRunner:
    amd_mathlib = LibdeviceMath() if spec.same_mathlib else None
    if amd_mathlib is not None:
        amd_device = Device(TIOGA_SPEC, amd_mathlib)
    else:
        from repro.devices.amd import amd_mi250x

        amd_device = amd_mi250x()
    runner = DifferentialRunner(nvidia=nvidia_v100(), amd=amd_device)
    runner.nvcc = _AblatedNvcc(spec)
    runner.hipcc = _AblatedHipcc(spec)
    return runner


@dataclass
class AblationResult:
    """Per-spec discrepancy counts."""

    spec: AblationSpec
    by_opt: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.by_opt.values())


#: tests per execution-service chunk: small enough to parallelize a
#: modest corpus, big enough to amortize per-chunk runner construction.
_CHUNK_TESTS = 8


def run_ablation(
    corpus: Corpus,
    specs: Sequence[AblationSpec] = ABLATIONS,
    opts: Sequence[OptSetting] = PAPER_OPT_SETTINGS,
    *,
    service: Optional["ExecutionService"] = None,
    workers: int = 0,
) -> List[AblationResult]:
    """Run the corpus under each ablation spec.

    Every (spec, test) sweep goes through the execution service — each
    spec's equalized runner is reconstructed per chunk from its
    :class:`~repro.exec.units.RunnerSpec`, so chunks are deterministic
    wherever they run and the counts are identical at any worker count.
    Pass a ``service`` to share one (and its backend) across studies, or
    ``workers`` to parallelize this call alone.
    """
    from repro.exec import ExecutionService, NO_CACHE, RunnerSpec, SweepRequest

    owns = service is None
    if service is None:
        service = ExecutionService.for_workers(workers)
    opts = tuple(opts)
    tests = list(corpus)
    results = [
        AblationResult(spec=spec, by_opt={o.label: 0 for o in opts}) for spec in specs
    ]
    chunks: List[List[SweepRequest]] = []
    owner: List[int] = []
    for index, spec in enumerate(specs):
        runner_spec = RunnerSpec(ablation=spec)
        for lo in range(0, len(tests), _CHUNK_TESTS):
            chunks.append(
                [
                    SweepRequest(
                        test=t,
                        opts=opts,
                        tag=(spec.name,),
                        cache=NO_CACHE,
                        runner=runner_spec,
                    )
                    for t in tests[lo : lo + _CHUNK_TESTS]
                ]
            )
            owner.append(index)
    try:
        for index, outcomes in zip(owner, service.run_sweeps(chunks)):
            by_opt = results[index].by_opt
            for outcome in outcomes:
                for label, pair in outcome.pairs.items():
                    by_opt[label] += len(pair.discrepancies)
    finally:
        if owns:
            service.close()
    return results


def ablation_table(results: Sequence[AblationResult], title: str = "") -> Table:
    """Render the ablation study."""
    if not results:
        raise ValueError("no ablation results")
    opts = list(results[0].by_opt)
    baseline = results[0].total
    table = Table(
        title=title or "Mechanism ablation (discrepancy counts)",
        headers=["Ablation", "Total", "Δ vs baseline"] + opts,
    )
    for r in results:
        delta = r.total - baseline if r.spec.name != "baseline" else 0
        table.add_row(
            [r.spec.name, r.total, f"{delta:+d}"] + [r.by_opt[o] for o in opts]
        )
    return table
