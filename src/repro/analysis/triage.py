"""Automated root-cause triage of discrepancies.

The paper's stated future work (§VII): "develop automated debugging tools
to efficiently identify and resolve these inconsistencies, minimizing
manual analysis."  This module implements that tool for the modeled
stacks.  For one discrepancy it runs three probes:

1. **Optimization probe** — rerun at ``-O0``: if the platforms agree
   there, the divergence is optimization-induced; the differing pass lists
   name the transformation (the in-model analogue of diffing SASS).
2. **Library probe** — rerun with the math libraries equalized
   (:func:`repro.analysis.ablation.build_ablated_runner`): if the
   divergence disappears, it is a math-library difference, and the first
   divergent traced statement names the function(s) involved.
3. **FTZ probe** (FP32 fast-math only) — rerun with the flush modes
   equalized: attributes the flush-point asymmetry.

Anything that survives all probes is reported ``unknown`` with the full
isolation report attached — the case a human (or a vendor) should look at.

Every probe is one :meth:`~repro.harness.runner.DifferentialRunner.run_single`
(cached compiles, memoized results).  The traced isolation run is the
expensive one, so it runs only for the verdicts that read it —
math-library (its first divergent statement names the functions),
fast-math approximation and unknown; optimization-induced and
ftz-asymmetry verdicts take their pass lists from the compile and leave
``isolation`` empty.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.ablation import AblationSpec, build_ablated_runner
from repro.analysis.case_studies import CaseStudyReport, isolate_divergence
from repro.compilers.options import OptLevel, OptSetting
from repro.fp.classify import outcomes_equivalent
from repro.fp.types import FPType
from repro.harness.differential import Discrepancy
from repro.harness.runner import DifferentialRunner
from repro.ir.nodes import Call
from repro.ir.visitor import collect
from repro.utils.tables import Table
from repro.varity.testcase import TestCase

__all__ = ["Cause", "TriageVerdict", "triage_discrepancy", "triage_tests", "triage_table"]

#: Cause labels, from most to least specific.
class Cause:
    MATH_LIBRARY = "math-library"
    OPTIMIZATION = "optimization-induced"
    FTZ = "ftz-asymmetry"
    FAST_MATH_LIBRARY = "fast-math approximation"
    UNKNOWN = "unknown"
    #: Namespace of single-stack metamorphic-oracle causes: a fuzz
    #: session running with oracle relations signs relation violations
    #: as ``oracle:<relation-name>`` — not a triage probe result but a
    #: relation checker's verdict (the platform rides in the signature's
    #: functions slot).  These causes entered the ledger vocabulary with
    #: fingerprint format 3.
    ORACLE_PREFIX = "oracle:"


@dataclass
class TriageVerdict:
    """Attribution for one discrepancy."""

    test_id: str
    input_index: int
    opt_label: str
    cause: str
    functions: Tuple[str, ...] = ()
    nvcc_passes: Tuple[str, ...] = ()
    hipcc_passes: Tuple[str, ...] = ()
    isolation: Optional[CaseStudyReport] = None

    def describe(self) -> str:
        detail = ""
        if self.functions:
            detail = f" via {', '.join(self.functions)}"
        elif self.cause == Cause.OPTIMIZATION:
            extra = set(self.nvcc_passes) ^ set(self.hipcc_passes)
            if extra:
                detail = f" (asymmetric passes: {', '.join(sorted(extra))})"
        return (
            f"{self.test_id}#{self.input_index}@{self.opt_label}: "
            f"{self.cause}{detail}"
        )


def _functions_near_divergence(test: TestCase, report: CaseStudyReport) -> Tuple[str, ...]:
    """Math functions appearing in the statement that first diverged."""
    if report.divergence is None:
        return ()
    # Statement paths look like "s3.f[i=2].s1": the leading segment indexes
    # the top-level statement; walk it and gather Call names.
    path = report.divergence.path
    head = path.split(".")[0]
    if not head.startswith("s"):
        return ()
    try:
        index = int(head[1:])
    except ValueError:
        return ()
    body = test.program.kernel.body
    if index >= len(body):
        return ()
    calls = collect(body[index], lambda n: isinstance(n, Call))
    return tuple(sorted({c.func for c in calls}))  # type: ignore[union-attr]


_O0 = OptSetting(OptLevel.O0)
_SAME_FTZ = AblationSpec("ftz", "", same_ftz=True)
_SAME_MATHLIB = AblationSpec("mathlib", "", same_mathlib=True)


def triage_discrepancy(
    runner: DifferentialRunner,
    test: TestCase,
    opt: OptSetting,
    input_index: int,
    *,
    o0_values: Optional[Tuple[float, float]] = None,
    passes: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]] = None,
) -> TriageVerdict:
    """Attribute one discrepancy to a modeled mechanism.

    ``o0_values`` answers the O0 probe without running it: the (lhs,
    rhs) values of this input in an O0 sweep the caller already ran on
    the same runner configuration.  ``passes`` likewise answers the
    compile: the (lhs, rhs) ``passes_applied`` of that sweep at ``opt``
    (:class:`~repro.harness.runner.PairResult`), so a verdict the sweep
    answers compiles nothing.
    """
    if passes is None:
        ck_lhs, ck_rhs = runner.compile_pair(test, opt)
        passes = (ck_lhs.passes_applied, ck_rhs.passes_applied)
    verdict = TriageVerdict(
        test_id=test.test_id,
        input_index=input_index,
        opt_label=opt.label,
        cause=Cause.UNKNOWN,
        nvcc_passes=passes[0],
        hipcc_passes=passes[1],
    )
    fp32_fast = opt.fast_math and test.fptype is FPType.FP32

    def agrees(probe_runner: DifferentialRunner) -> bool:
        rn, ra, _, _ = probe_runner.run_single(test, opt, input_index)
        return outcomes_equivalent(rn.value, ra.value)

    # Probe 1: does -O0 agree?  Then optimization introduced it.
    if opt.label != "O0":
        if o0_values is None:
            rn0, ra0, _, _ = runner.run_single(test, _O0, input_index)
            o0_values = (rn0.value, ra0.value)
        if outcomes_equivalent(*o0_values):
            # Sharpen: under fast math on FP32, check the FTZ probe first.
            if fp32_fast and agrees(build_ablated_runner(_SAME_FTZ)):
                verdict.cause = Cause.FTZ
            else:
                verdict.cause = Cause.OPTIMIZATION
            return verdict

    # Probe 2: identical math libraries.
    if agrees(build_ablated_runner(_SAME_MATHLIB)):
        verdict.cause = Cause.FAST_MATH_LIBRARY if fp32_fast else Cause.MATH_LIBRARY
    # Probe 3 (FP32 fast math): flush-point asymmetry.
    elif fp32_fast and agrees(build_ablated_runner(_SAME_FTZ)):
        verdict.cause = Cause.FTZ
        return verdict

    report = isolate_divergence(runner, test, opt, input_index)
    verdict.isolation = report
    if verdict.cause != Cause.UNKNOWN:
        verdict.functions = _functions_near_divergence(test, report)
    return verdict


def triage_tests(
    runner: DifferentialRunner,
    tests_by_id: Dict[str, TestCase],
    discrepancies: Sequence[Discrepancy],
    limit: Optional[int] = None,
) -> List[TriageVerdict]:
    """Triage a batch of campaign discrepancies (optionally capped).

    ``limit=0`` means "triage none" — only ``None`` means unlimited.
    """
    verdicts: List[TriageVerdict] = []
    for d in discrepancies[: limit if limit is not None else len(discrepancies)]:
        test = tests_by_id.get(d.test_id)
        if test is None:
            continue
        verdicts.append(
            triage_discrepancy(
                runner, test, OptSetting.from_label(d.opt_label), d.input_index
            )
        )
    return verdicts


def triage_table(verdicts: Sequence[TriageVerdict], title: str = "") -> Table:
    """Cause histogram plus the functions most often implicated.

    Function counts are tallied *per cause*: a function implicated nine
    times under ``math-library`` and once under ``fast-math`` shows ×9 and
    ×1 on the respective rows, not a global ×10 on both.
    """
    causes = Counter(v.cause for v in verdicts)
    table = Table(
        title=title or "Automated root-cause triage",
        headers=["Cause", "Count", "Most implicated functions"],
    )
    for cause, count in causes.most_common():
        functions = Counter(
            f for v in verdicts if v.cause == cause for f in v.functions
        )
        implicated = ", ".join(
            f"{name}×{n}" for name, n in functions.most_common(3)
        )
        table.add_row([cause, count, implicated or "—"])
    return table
