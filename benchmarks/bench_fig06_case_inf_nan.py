"""Figure 6 / Case Study 3 — Inf-vs-NaN divergence appearing under
optimization.

Paper: the kernel prints -inf on both platforms at -O0, and at -O1 the
hipcc build switches to -nan — divergence introduced by optimization, not
by a math function.

Our model runs (a) the paper's verbatim kernel (whose published O0
behaviour is not IEEE-derivable — pure IEEE evaluation of the shown input
produces NaN on both platforms; see ``repro.apps.paper_kernels``) and (b) an engineered
companion exhibiting the same phenomenon through modeled FMA-contraction
asymmetry: agreement at -O0, Inf (nvcc) vs NaN (hipcc) at -O1.
"""

from __future__ import annotations

from repro.apps.paper_kernels import case3_engineered_testcase, fig6_testcase
from repro.compilers.options import OptLevel, OptSetting
from repro.fp.classify import OutcomeClass, classify_value
from repro.harness.differential import DiscrepancyClass, classify_pair
from repro.harness.runner import DifferentialRunner
from repro.utils.tables import Table

from conftest import emit

O0 = OptSetting(OptLevel.O0)
O1 = OptSetting(OptLevel.O1)


def test_fig06_case_study_inf_nan(benchmark, results_dir):
    runner = DifferentialRunner()
    verbatim = fig6_testcase()
    engineered = case3_engineered_testcase()

    def run_all():
        rows = []
        for name, test in (("fig6-verbatim", verbatim), ("case3-engineered", engineered)):
            for opt in (O0, O1):
                rn, ra, ck_nv, ck_amd = runner.run_single(test, opt, 0)
                rows.append((name, opt.label, rn.printed, ra.printed,
                             ck_nv.passes_applied, ck_amd.passes_applied))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        title="Figure 6 — Inf/NaN behaviour across optimization levels (measured)",
        headers=["Kernel", "Opt", "nvcc output", "hipcc output"],
    )
    for name, opt, nv, amd, _, _ in rows:
        table.add_row([name, opt, nv, amd])
    emit(results_dir, "fig06_case_inf_nan", table.render())

    by = {(name, opt): (nv, amd) for name, opt, nv, amd, _, _ in rows}

    # Verbatim kernel: internally consistent (NaN on both platforms).
    for opt in ("O0", "O1"):
        nv, amd = by[("fig6-verbatim", opt)]
        assert classify_value(float(nv)) is OutcomeClass.NAN
        assert classify_value(float(amd)) is OutcomeClass.NAN

    # Engineered companion: the paper's phenomenon.
    nv0, amd0 = by[("case3-engineered", "O0")]
    assert classify_pair(float(nv0), float(amd0)) is None  # consistent at O0
    nv1, amd1 = by[("case3-engineered", "O1")]
    assert classify_pair(float(nv1), float(amd1)) is DiscrepancyClass.NAN_INF
    assert classify_value(float(nv1)) is OutcomeClass.INF
    assert classify_value(float(amd1)) is OutcomeClass.NAN
