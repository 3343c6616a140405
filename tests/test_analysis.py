"""Tests for the analysis layer (tables, adjacency matrices, case studies)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.adjacency import adjacency_counts, adjacency_table, adjacency_tables
from repro.analysis.case_studies import isolate_divergence, select_case_studies
from repro.analysis.per_opt import per_opt_counts, per_opt_table
from repro.analysis.report import render_campaign_report
from repro.analysis.summary import summary_dict, summary_table
from repro.compilers.options import OptLevel, OptSetting
from repro.fp.classify import OutcomeClass
from repro.harness.campaign import ArmResult, CampaignConfig, CampaignResult, run_campaign
from repro.harness.differential import Discrepancy, DiscrepancyClass


def _disc(opt, dclass, nv_out, hip_out, test_id="t", idx=0):
    return Discrepancy(
        test_id=test_id,
        input_index=idx,
        opt_label=opt,
        dclass=dclass,
        lhs_printed="x",
        rhs_printed="y",
        lhs_outcome=nv_out,
        rhs_outcome=hip_out,
    )


@pytest.fixture()
def synthetic_arm():
    labels = ("O0", "O1", "O2", "O3", "O3_FM")
    arm = ArmResult(
        arm="fp64",
        n_programs=10,
        opt_labels=labels,
        runs_by_opt={label: 50 for label in labels},
    )
    arm.discrepancies = [
        _disc("O0", DiscrepancyClass.NUM_NUM, OutcomeClass.NUMBER, OutcomeClass.NUMBER),
        _disc("O0", DiscrepancyClass.INF_NUM, OutcomeClass.INF, OutcomeClass.NUMBER),
        _disc("O3_FM", DiscrepancyClass.NAN_INF, OutcomeClass.NAN, OutcomeClass.INF, idx=1),
        _disc("O3_FM", DiscrepancyClass.NAN_INF, OutcomeClass.INF, OutcomeClass.NAN, idx=2),
        _disc("O3_FM", DiscrepancyClass.NUM_ZERO, OutcomeClass.NUMBER, OutcomeClass.ZERO, idx=3),
    ]
    return arm


@pytest.fixture(scope="module")
def tiny_result():
    return run_campaign(CampaignConfig.tiny(seed=77))


# ----------------------------------------------------------------- summary
class TestSummary:
    def test_dict_accounting(self, tiny_result):
        data = summary_dict(tiny_result)
        for arm in ("fp64", "fp64_hipify", "fp32"):
            row = data[arm]
            assert row["runs_per_option"] == 2 * row["runs_per_option_per_compiler"]
            assert row["total_runs"] == row["runs_per_option"] * 5
            assert 0 <= row["discrepancy_percent"] <= 100

    def test_table_has_paper_rows(self, tiny_result):
        text = summary_table(tiny_result).render()
        for label in (
            "Total Programs",
            "Total Runs per Option per Compiler",
            "Runs on NVCC",
            "Runs on HIPCC",
            "Total Discrepancies (% of Total Runs)",
        ):
            assert label in text

    def test_table_columns(self, tiny_result):
        text = summary_table(tiny_result).render()
        assert "FP64 with HIPIFY" in text and "FP32" in text


# ----------------------------------------------------------------- per-opt
class TestPerOpt:
    def test_counts_zero_filled(self, synthetic_arm):
        counts = per_opt_counts(synthetic_arm)
        assert counts["O1"][DiscrepancyClass.NUM_NUM] == 0
        assert counts["O0"][DiscrepancyClass.NUM_NUM] == 1
        assert counts["O3_FM"][DiscrepancyClass.NAN_INF] == 2

    def test_table_totals(self, synthetic_arm):
        text = per_opt_table(synthetic_arm, "Table V test").render()
        lines = text.splitlines()
        total_line = [l for l in lines if l.startswith("Total")][0]
        assert total_line.split()[1] == "5"

    def test_table_columns_in_paper_order(self, synthetic_arm):
        text = per_opt_table(synthetic_arm, "t").render()
        header = text.splitlines()[2]
        assert header.index("NaN, Inf") < header.index("Num, Zero") < header.index("Num, Num")


# --------------------------------------------------------------- adjacency
class TestAdjacency:
    def test_directional_counts(self, synthetic_arm):
        m = adjacency_counts(synthetic_arm, "O3_FM")
        # One NaN(nvcc)/Inf(hipcc) and one Inf(nvcc)/NaN(hipcc):
        assert m[(OutcomeClass.NAN, OutcomeClass.INF)] == (1, 1)
        # Num(nvcc)/Zero(hipcc): stored in the (Zero, Num) upper cell as
        # the reverse orientation.
        assert m[(OutcomeClass.ZERO, OutcomeClass.NUMBER)] == (0, 1)

    def test_num_num_diagonal_doubled(self, synthetic_arm):
        m = adjacency_counts(synthetic_arm, "O0")
        assert m[(OutcomeClass.NUMBER, OutcomeClass.NUMBER)] == (1, 1)

    def test_cell_sums_match_class_totals(self, tiny_result):
        for arm in tiny_result.arms.values():
            counts = per_opt_counts(arm)
            for opt in arm.opt_labels:
                m = adjacency_counts(arm, opt)
                total_cells = sum(
                    a + b for (r, c), (a, b) in m.items() if r is not c
                )
                total_cells += m[(OutcomeClass.NUMBER, OutcomeClass.NUMBER)][0]
                assert total_cells == sum(counts[opt].values())

    def test_table_renders_triangle(self, synthetic_arm):
        text = adjacency_table(synthetic_arm, "O0").render()
        assert "—" in text and "NVCC \\ HIPCC" in text

    def test_all_levels_rendered(self, synthetic_arm):
        tables = adjacency_tables(synthetic_arm, "Table VI")
        assert len(tables) == 5


# ------------------------------------------------------------ case studies
class TestCaseStudies:
    def test_select_representatives(self, synthetic_arm):
        picks = select_case_studies(synthetic_arm, per_class=1)
        classes = {d.dclass for d in picks}
        assert classes == {
            DiscrepancyClass.NUM_NUM,
            DiscrepancyClass.INF_NUM,
            DiscrepancyClass.NAN_INF,
            DiscrepancyClass.NUM_ZERO,
        }

    def test_select_with_filter(self, synthetic_arm):
        picks = select_case_studies(
            synthetic_arm, per_class=2, classes=[DiscrepancyClass.NAN_INF]
        )
        assert len(picks) == 2
        assert all(d.dclass is DiscrepancyClass.NAN_INF for d in picks)

    def test_isolate_fig5_divergence(self, runner):
        """Case Study 2: isolation pinpoints the ceil-feeding statement."""
        from repro.apps.paper_kernels import fig5_testcase

        report = isolate_divergence(runner, fig5_testcase(), OptSetting(OptLevel.O0), 0)
        assert report.nvcc_printed == "inf"
        assert report.hipcc_printed == "1.34887e-306"
        assert report.divergence is not None
        assert report.divergence.kind == "value"
        assert report.divergence.target == "comp"
        text = report.render()
        assert "paper-fig5" in text and "Root cause trail" in text

    def test_isolate_fig4_divergence(self, runner):
        from repro.apps.paper_kernels import fig4_testcase

        report = isolate_divergence(runner, fig4_testcase(), OptSetting(OptLevel.O0), 0)
        assert report.divergence is not None
        # First divergent store is inside the loop (the fmod accumulation).
        assert "f[i=0]" in report.divergence.path

    def test_report_includes_cuda_source(self, runner):
        from repro.apps.paper_kernels import fig5_testcase

        report = isolate_divergence(runner, fig5_testcase(), OptSetting(OptLevel.O0), 0)
        assert "__global__" in report.cuda_source()


# ------------------------------------------------------------------ report
class TestReport:
    def test_full_report_contains_all_tables(self, tiny_result):
        text = render_campaign_report(tiny_result)
        assert "Table IV" in text
        assert "Table V" in text and "Table VII" in text and "Table IX" in text
        assert "Table VI" in text and "Table VIII" in text and "Table X" in text

    def test_adjacency_can_be_omitted(self, tiny_result):
        text = render_campaign_report(tiny_result, include_adjacency=False)
        assert "Adjacency matrices" not in text

    def test_header_prepended(self, tiny_result):
        text = render_campaign_report(tiny_result, header="HEADER LINE")
        assert text.startswith("HEADER LINE")
