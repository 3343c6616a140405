"""Case-study tooling (§IV-D).

The paper root-causes discrepancies by inspecting intermediate values and
the generated assembly.  Our in-model analogue:

* run both platforms with per-statement tracing and locate the **first
  divergent store** (same statement path, different value) or the first
  **control-flow divergence** (the trace paths themselves differ);
* report the compiled pass pipelines (the "assembly diff" stand-in);
* render the whole thing in the layout of the paper's Figs. 4–6
  (program / input / outputs / isolated expression).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.codegen.base import EmitterConfig, render_kernel_body, render_signature
from repro.codegen.cuda import render_cuda
from repro.compilers.options import OptSetting
from repro.harness.differential import Discrepancy, DiscrepancyClass
from repro.harness.runner import DifferentialRunner
from repro.varity.testcase import TestCase

if TYPE_CHECKING:
    from repro.harness.campaign import ArmResult

__all__ = ["DivergencePoint", "CaseStudyReport", "isolate_divergence", "select_case_studies"]


@dataclass(frozen=True)
class DivergencePoint:
    """First place the two executions part ways."""

    kind: str  # "value" | "control-flow" | "output-only"
    path: str
    target: str
    nvcc_value: Optional[float]
    hipcc_value: Optional[float]

    def describe(self) -> str:
        if self.kind == "value":
            return (
                f"first divergent store at {self.path} ({self.target}): "
                f"nvcc={self.nvcc_value!r} vs hipcc={self.hipcc_value!r}"
            )
        if self.kind == "control-flow":
            return f"control flow diverges at {self.path} (statement paths differ)"
        return "no traced store diverged; only the final printed value differs"


@dataclass
class CaseStudyReport:
    """A Fig. 4/5/6-style self-contained report for one discrepancy."""

    test: TestCase
    opt: OptSetting
    input_index: int
    nvcc_printed: str
    hipcc_printed: str
    nvcc_passes: Tuple[str, ...]
    hipcc_passes: Tuple[str, ...]
    divergence: Optional[DivergencePoint]

    def render(self) -> str:
        kernel = self.test.program.kernel
        cfg = EmitterConfig(fptype=kernel.fptype, dialect="cuda")
        lines = [
            "=" * 72,
            f"Case study: {self.test.test_id}  [{self.opt.label}]",
            "=" * 72,
            f"void {kernel.name}({render_signature(kernel, cfg)}) {{",
            render_kernel_body(kernel, cfg),
            "}",
            "",
            f"Input   : {self.test.inputs[self.input_index].line}",
            "Output  :",
            f"  nvcc  -{self.opt.label}: {self.nvcc_printed}",
            f"  hipcc -{self.opt.label}: {self.hipcc_printed}",
            f"nvcc passes : {', '.join(self.nvcc_passes) or '(none)'}",
            f"hipcc passes: {', '.join(self.hipcc_passes) or '(none)'}",
        ]
        if self.divergence is not None:
            lines.append(f"Root cause trail: {self.divergence.describe()}")
        return "\n".join(lines)

    def cuda_source(self) -> str:
        """The shippable .cu reproducer (contribution (b)/(c) of §I)."""
        return render_cuda(self.test.program)


def isolate_divergence(
    runner: DifferentialRunner,
    test: TestCase,
    opt: OptSetting,
    input_index: int,
) -> CaseStudyReport:
    """Trace both platforms and find the first divergent intermediate."""
    rn, ra, ck_nv, ck_amd = runner.run_single(test, opt, input_index, trace=True)

    divergence: Optional[DivergencePoint] = None
    for entry_nv, entry_amd in zip(rn.trace, ra.trace):
        if entry_nv.path != entry_amd.path:
            divergence = DivergencePoint(
                kind="control-flow",
                path=f"{entry_nv.path} / {entry_amd.path}",
                target=f"{entry_nv.target} / {entry_amd.target}",
                nvcc_value=entry_nv.value,
                hipcc_value=entry_amd.value,
            )
            break
        same = (
            entry_nv.value == entry_amd.value
            or (entry_nv.value != entry_nv.value and entry_amd.value != entry_amd.value)
        )
        if not same:
            divergence = DivergencePoint(
                kind="value",
                path=entry_nv.path,
                target=entry_nv.target,
                nvcc_value=entry_nv.value,
                hipcc_value=entry_amd.value,
            )
            break
    else:
        if len(rn.trace) != len(ra.trace):
            shorter = min(len(rn.trace), len(ra.trace))
            tail_nv = rn.trace[shorter] if len(rn.trace) > shorter else None
            tail_amd = ra.trace[shorter] if len(ra.trace) > shorter else None
            divergence = DivergencePoint(
                kind="control-flow",
                path=(tail_nv or tail_amd).path,  # type: ignore[union-attr]
                target=(tail_nv or tail_amd).target,  # type: ignore[union-attr]
                nvcc_value=tail_nv.value if tail_nv else None,
                hipcc_value=tail_amd.value if tail_amd else None,
            )
        elif rn.printed != ra.printed:
            divergence = DivergencePoint(
                kind="output-only",
                path="(printf)",
                target="comp",
                nvcc_value=rn.value,
                hipcc_value=ra.value,
            )

    return CaseStudyReport(
        test=test,
        opt=opt,
        input_index=input_index,
        nvcc_printed=rn.printed,
        hipcc_printed=ra.printed,
        nvcc_passes=ck_nv.passes_applied,
        hipcc_passes=ck_amd.passes_applied,
        divergence=divergence,
    )


def select_case_studies(
    arm: ArmResult,
    per_class: int = 1,
    classes: Sequence[DiscrepancyClass] = (),
) -> List[Discrepancy]:
    """Pick representative discrepancies, at most ``per_class`` each.

    With no explicit ``classes``, every observed class is represented —
    the way the paper picked one real-valued, one Inf-valued, and one
    Inf-vs-NaN case.
    """
    wanted = list(classes) if classes else None
    chosen: Dict[DiscrepancyClass, List[Discrepancy]] = {}
    for d in arm.discrepancies:
        if wanted is not None and d.dclass not in wanted:
            continue
        bucket = chosen.setdefault(d.dclass, [])
        if len(bucket) < per_class:
            bucket.append(d)
    out: List[Discrepancy] = []
    for dclass in sorted(chosen, key=lambda c: c.value):
        out.extend(chosen[dclass])
    return out
