"""Tests for the differential-testing harness."""

from __future__ import annotations

import math
import os

import pytest

from dataclasses import replace

from repro.compilers.options import OptLevel, OptSetting, PAPER_OPT_SETTINGS
from repro.errors import GrammarError, HarnessError, MetadataError, TrapError
from repro.fp.classify import OutcomeClass
from repro.fp.types import FPType
from repro.harness.campaign import ArmResult, CampaignConfig, run_campaign
from repro.harness.differential import (
    DISCREPANCY_CLASS_ORDER,
    Discrepancy,
    DiscrepancyClass,
    classify_pair,
)
from repro.harness.metadata import CampaignMetadata, SystemResults
from repro.harness.outcomes import RunRecord
from repro.exec import RunStore, make_backend
from repro.harness.runner import DifferentialRunner, pair_discrepancies
from repro.harness.transfer import (
    SYSTEM1,
    SYSTEM2,
    between_platform_campaign,
    collect_discrepancies,
    run_system1,
    run_system2,
)
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import build_corpus

O0 = OptSetting(OptLevel.O0)


def _record(value: float, compiler: str = "nvcc", printed=None) -> RunRecord:
    return RunRecord(
        test_id="t", input_index=0, opt_label="O0", compiler=compiler,
        printed=printed if printed is not None else repr(value), value=value,
    )


# ------------------------------------------------------------ differential
class TestClassifyPair:
    @pytest.mark.parametrize("a,b,expected", [
        (math.nan, math.inf, DiscrepancyClass.NAN_INF),
        (math.nan, 0.0, DiscrepancyClass.NAN_ZERO),
        (math.nan, 1.5, DiscrepancyClass.NAN_NUM),
        (math.inf, 0.0, DiscrepancyClass.INF_ZERO),
        (-math.inf, 2.0, DiscrepancyClass.INF_NUM),
        (3.0, 0.0, DiscrepancyClass.NUM_ZERO),
        (3.0, 3.0000001, DiscrepancyClass.NUM_NUM),
    ])
    def test_classes(self, a, b, expected):
        assert classify_pair(a, b) is expected
        assert classify_pair(b, a) is expected  # class is unordered

    @pytest.mark.parametrize("a,b", [
        (math.nan, -math.nan),
        (math.inf, -math.inf),
        (0.0, -0.0),
        (1.5, 1.5),
    ])
    def test_equivalent_pairs_are_none(self, a, b):
        assert classify_pair(a, b) is None

    def test_class_order_matches_paper_columns(self):
        assert [c.value for c in DISCREPANCY_CLASS_ORDER] == [
            "NaN, Inf", "NaN, Zero", "NaN, Num", "Inf, Zero",
            "Inf, Num", "Num, Zero", "Num, Num",
        ]


class TestDiscrepancyRecords:
    def test_from_records(self):
        d = Discrepancy.from_records(_record(1.0), _record(2.0, "hipcc"))
        assert d is not None and d.dclass is DiscrepancyClass.NUM_NUM
        assert d.lhs_outcome is OutcomeClass.NUMBER

    def test_equivalent_records_give_none(self):
        assert Discrepancy.from_records(_record(1.0), _record(1.0, "hipcc")) is None

    def test_mismatched_keys_rejected(self):
        other = RunRecord("u", 0, "O0", "hipcc", "1.0", 1.0)
        with pytest.raises(ValueError):
            Discrepancy.from_records(_record(1.0), other)

    def test_pair_discrepancies_joins(self):
        nv = [_record(1.0), RunRecord("t", 1, "O0", "nvcc", "inf", math.inf)]
        hip = [_record(1.0, "hipcc"), RunRecord("t", 1, "O0", "hipcc", "5", 5.0)]
        out = pair_discrepancies(nv, hip)
        assert len(out) == 1 and out[0].dclass is DiscrepancyClass.INF_NUM

    def test_json_dict(self):
        d = Discrepancy.from_records(_record(1.0), _record(2.0, "hipcc"))
        data = d.to_json_dict()
        assert data["class"] == "Num, Num" and data["test_id"] == "t"


# ------------------------------------------------------------------ runner
class TestDifferentialRunner:
    def test_run_pair_counts(self, runner, small_fp64_corpus):
        pair = runner.run_pair(small_fp64_corpus.tests[0], O0)
        n = len(small_fp64_corpus.tests[0].inputs)
        assert len(pair.lhs_runs) == len(pair.rhs_runs) == n - len(pair.skipped_inputs)

    def test_records_carry_identity(self, runner, small_fp64_corpus):
        t = small_fp64_corpus.tests[1]
        pair = runner.run_pair(t, O0)
        for r in pair.lhs_runs:
            assert r.test_id == t.test_id and r.compiler == "nvcc" and r.opt_label == "O0"

    def test_printed_parses_back(self, runner, small_fp64_corpus):
        pair = runner.run_pair(small_fp64_corpus.tests[2], O0)
        for r in pair.lhs_runs + pair.rhs_runs:
            v = float(r.printed)
            assert v == r.value or (math.isnan(v) and math.isnan(r.value))

    def test_flags_recording_optional(self, small_fp64_corpus):
        plain = DifferentialRunner()
        rec = DifferentialRunner(record_flags=True)
        t = small_fp64_corpus.tests[0]
        assert plain.run_pair(t, O0).lhs_runs[0].flags is None
        assert rec.run_pair(t, O0).lhs_runs[0].flags is not None

    def test_run_single_traces(self, runner, small_fp64_corpus):
        rn, ra, ck_nv, ck_amd = runner.run_single(small_fp64_corpus.tests[0], O0, 0, trace=True)
        assert ck_nv.vendor.value == "nvidia" and ck_amd.vendor.value == "amd"
        # O0 compiles are untransformed → statement-aligned traces.
        assert [e.path for e in rn.trace] == [e.path for e in ra.trace]


# ---------------------------------------------------------------- campaign
class TestCampaign:
    def test_tiny_campaign_accounting(self):
        config = CampaignConfig.tiny(seed=11)
        result = run_campaign(config)
        assert set(result.arms) == {"fp64", "fp64_hipify", "fp32"}
        fp64 = result.arms["fp64"]
        assert fp64.n_programs == config.n_programs_fp64
        assert fp64.runs_per_option == 2 * fp64.runs_per_option_per_compiler
        assert fp64.total_runs == fp64.runs_per_option * 5
        assert result.total_runs == sum(a.total_runs for a in result.arms.values())

    def test_fp16_arms_follow_hipify_gating(self):
        import dataclasses

        base = CampaignConfig.tiny(seed=11)
        pair = dataclasses.replace(base, include_fp16=True)
        assert pair.arm_names() == ["fp64", "fp64_hipify", "fp32", "fp16", "fp16_hipify"]
        # --no-hipify skips BOTH hipify arms, fp16's included.
        nohip = dataclasses.replace(base, include_fp16=True, include_hipify=False)
        assert nohip.arm_names() == ["fp64", "fp32", "fp16"]

    def test_fingerprint_backward_compatible_without_fp16(self):
        """Configs without the fp16 arms fingerprint exactly as before the
        FP16 lane, so pre-FP16 checkpoints keep resuming."""
        import dataclasses

        base = CampaignConfig.tiny(seed=11)
        fp = base.fingerprint()
        assert "include_fp16" not in fp and "n_programs_fp16" not in fp
        # n_programs_fp16 is inert while the arms are off...
        assert dataclasses.replace(base, n_programs_fp16=999).fingerprint() == fp
        # ...and fingerprinted once they are on.
        on = dataclasses.replace(base, include_fp16=True).fingerprint()
        assert on["include_fp16"] is True and on["n_programs_fp16"] == base.n_programs_fp16

    def test_campaign_deterministic(self):
        config = CampaignConfig(
            seed=5, n_programs_fp64=10, n_programs_fp32=6, inputs_per_program=2
        )
        a = run_campaign(config)
        b = run_campaign(config)
        for arm in a.arms:
            da = [(d.test_id, d.input_index, d.opt_label, d.dclass) for d in a.arms[arm].discrepancies]
            db = [(d.test_id, d.input_index, d.opt_label, d.dclass) for d in b.arms[arm].discrepancies]
            assert da == db

    def test_hipify_arm_shares_tests_with_fp64(self):
        config = CampaignConfig(
            seed=5, n_programs_fp64=8, n_programs_fp32=4, inputs_per_program=2
        )
        result = run_campaign(config)
        # arm accounting identical: same programs, same inputs
        assert (
            result.arms["fp64"].runs_per_option_per_compiler
            == result.arms["fp64_hipify"].runs_per_option_per_compiler
        )

    def test_arms_can_be_disabled(self):
        config = CampaignConfig(
            seed=5, n_programs_fp64=5, inputs_per_program=2,
            include_hipify=False, include_fp32=False,
        )
        result = run_campaign(config)
        assert set(result.arms) == {"fp64"}

    def test_parallel_matches_serial(self):
        serial = CampaignConfig(
            seed=9, n_programs_fp64=16, inputs_per_program=2,
            include_hipify=False, include_fp32=False, workers=0,
        )
        parallel = CampaignConfig(
            seed=9, n_programs_fp64=16, inputs_per_program=2,
            include_hipify=False, include_fp32=False, workers=2,
        )
        ra = run_campaign(serial)
        rb = run_campaign(parallel)
        key = lambda d: (d.test_id, d.input_index, d.opt_label, d.dclass.value)
        assert sorted(map(key, ra.arms["fp64"].discrepancies)) == sorted(
            map(key, rb.arms["fp64"].discrepancies)
        )
        assert ra.arms["fp64"].total_runs == rb.arms["fp64"].total_runs

    def test_arm_result_merge_guard(self):
        a = ArmResult("fp64", 1, ("O0",), {"O0": 5})
        b = ArmResult("fp32", 1, ("O0",), {"O0": 5})
        with pytest.raises(HarnessError):
            a.merge(b)

    def test_arm_result_merge_sums_per_opt(self):
        a = ArmResult("fp64", 2, ("O0", "O3"), {"O0": 5, "O3": 4}, {"O0": 0, "O3": 1})
        b = ArmResult("fp64", 3, ("O0", "O3"), {"O0": 7, "O3": 7}, {"O0": 0, "O3": 0})
        a.merge(b)
        assert a.n_programs == 5
        assert a.runs_by_opt == {"O0": 12, "O3": 11}
        assert a.skipped_by_opt == {"O0": 0, "O3": 1}
        assert a.total_runs == 2 * (12 + 11)

    def test_paper_scale_config_numbers(self):
        cfg = CampaignConfig.paper_scale()
        assert cfg.n_programs_fp64 == 3540
        assert cfg.n_programs_fp32 == 2840
        # Paper: 652,600 runs with 6.99 (FP64) / 5.55 (FP32) inputs per
        # program; our uniform 7 inputs gives 694,400 — within ~7%.
        total = 2 * (2 * 3540 + 2840) * cfg.inputs_per_program * 5
        assert total == 694400
        assert abs(total - 652600) / 652600 < 0.07

    @pytest.mark.parametrize("cpus, workers", [(None, 1), (1, 1), (2, 2), (8, 8)])
    def test_paper_scale_defaults_to_one_worker_per_cpu(self, monkeypatch, cpus, workers):
        """The parent of a pool run mostly waits, so the preset takes
        every CPU; one CPU (or an unknown count) runs serially."""
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert CampaignConfig.paper_scale().workers == workers
        assert CampaignConfig.paper_scale(workers=0).workers == 0
        assert make_backend(workers).name == ("serial" if workers == 1 else "process-pool")


# --------------------------------------------------------- campaign engine
class _TrapAtOpt:
    """Wraps a device: raises TrapError for one program at one opt label."""

    def __init__(self, inner, opt_label: str, id_suffix: str = "-000000") -> None:
        self._inner = inner
        self._opt_label = opt_label
        self._id_suffix = id_suffix

    def _traps(self, compiled) -> bool:
        return compiled.opt.label == self._opt_label and compiled.program_id.endswith(
            self._id_suffix
        )

    def execute(self, compiled, inputs, *, trace: bool = False, events: bool = True):
        if self._traps(compiled):
            raise TrapError("synthetic step-budget trap")
        return self._inner.execute(compiled, inputs, trace=trace, events=events)

    def execute_batch(self, compiled, rows, *, events: bool = True):
        if self._traps(compiled):
            return [None] * len(rows)
        return self._inner.execute_batch(compiled, rows, events=events)


def _trap_at(monkeypatch, opt_label: str) -> None:
    """Build every runner with a left device that traps at ``opt_label``.

    The execution service builds its runners from repro.harness.runner
    (RunnerSpec.build), so that is where the trap wrapper hooks in; it
    takes effect because each test starts with an empty runner registry
    (the autouse fixture in conftest.py), so no warm runner is reused.  The
    trap keys on the opt label, not the kernel, so the sweep's cross-opt
    execution memo, which could answer the trapping setting from an
    identical kernel compiled at an earlier one, is bypassed.
    """
    import repro.harness.runner as runner_mod

    def factory(*args, **kwargs):
        runner = DifferentialRunner(*args, **kwargs)
        runner.lhs_device = _TrapAtOpt(runner.lhs_device, opt_label)
        return runner

    def execute_batch(device, compiled, rows, *, memo=None, events=True):
        return device.execute_batch(compiled, rows, events=events)

    monkeypatch.setattr(runner_mod, "DifferentialRunner", factory)
    monkeypatch.setattr(runner_mod, "_execute_batch", execute_batch)


def _disc_keys(arm):
    return sorted(
        (d.test_id, d.input_index, d.opt_label, d.dclass.value)
        for d in arm.discrepancies
    )


class TestCampaignEngine:
    def test_per_opt_accounting_with_uneven_traps(self, monkeypatch):
        """Regression for the runs_counted latch: a program that traps at
        -O3 -ffast-math but not -O0 must shrink only O3_FM's run total."""
        _trap_at(monkeypatch, "O3_FM")
        config = CampaignConfig(
            seed=3, n_programs_fp64=6, inputs_per_program=2,
            include_hipify=False, include_fp32=False,
        )
        arm = run_campaign(config).arms["fp64"]
        assert arm.runs_by_opt["O0"] == 12
        assert arm.runs_by_opt["O3_FM"] == 10
        assert arm.skipped_by_opt["O3_FM"] == 2 and arm.n_skipped_tests == 2
        assert arm.total_runs == 2 * (4 * 12 + 10)
        # The seed engine extrapolated the first setting across the grid;
        # the true total differs from that estimate.
        assert arm.total_runs != arm.runs_per_option * len(arm.opt_labels)

    def test_trap_outcomes_replay_identically_across_arms(self, monkeypatch):
        """Cached nvcc traps skip the same inputs in the hipify arm."""
        _trap_at(monkeypatch, "O3_FM")
        config = CampaignConfig(
            seed=3, n_programs_fp64=6, inputs_per_program=2, include_fp32=False
        )
        result = run_campaign(config)
        fp64, hip = result.arms["fp64"], result.arms["fp64_hipify"]
        assert hip.nvcc_executions == 0
        assert hip.runs_by_opt == fp64.runs_by_opt
        assert hip.skipped_by_opt == fp64.skipped_by_opt

    def test_reuse_matches_standalone(self):
        """Cached fp64_hipify equals a from-scratch (seed-style) run while
        executing the nvcc side zero times."""
        base = CampaignConfig(
            seed=5, n_programs_fp64=10, n_programs_fp32=6, inputs_per_program=2
        )
        cached = run_campaign(base)
        scratch = run_campaign(replace(base, reuse_nvcc_runs=False))
        for name in cached.arms:
            assert _disc_keys(cached.arms[name]) == _disc_keys(scratch.arms[name])
            assert cached.arms[name].runs_by_opt == scratch.arms[name].runs_by_opt
        n_inputs = 10 * 2 * len(base.opts)
        assert cached.arms["fp64_hipify"].nvcc_executions == 0
        assert cached.arms["fp64_hipify"].nvcc_cache_hits == n_inputs
        assert cached.nvcc_cache_hits == n_inputs
        assert scratch.arms["fp64_hipify"].nvcc_executions == n_inputs
        assert scratch.nvcc_cache_hits == 0

    def test_cached_nvcc_records_equal_from_scratch(self, small_fp64_corpus):
        """The content-keyed store replay hands back records bit-identical
        to what a fresh nvcc execution of the hipified twin would produce."""
        test = small_fp64_corpus.tests[0]
        store = RunStore()
        DifferentialRunner().run_sweep(
            test, PAPER_OPT_SETTINGS, lhs_cache=store.view_for(test)
        )
        twin = test.hipified()
        # The twin shares the native test's content id: its view hits.
        via_cache = DifferentialRunner().run_sweep(
            twin, PAPER_OPT_SETTINGS, lhs_cache=store.view_for(twin)
        )
        from_scratch = DifferentialRunner().run_sweep(twin, PAPER_OPT_SETTINGS)
        # NaN values defeat dataclass equality; the printed %.17g line
        # round-trips every payload bit, so compare records through it.
        rec_key = lambda r: (r.test_id, r.input_index, r.opt_label, r.compiler, r.printed)
        for label, pair in via_cache.items():
            assert list(map(rec_key, pair.lhs_runs)) == list(
                map(rec_key, from_scratch[label].lhs_runs)
            )
            assert list(map(rec_key, pair.rhs_runs)) == list(
                map(rec_key, from_scratch[label].rhs_runs)
            )
            assert pair.skipped_inputs == from_scratch[label].skipped_inputs

    def test_resume_completes_interrupted_campaign(self, tmp_path):
        config = CampaignConfig(
            seed=7, n_programs_fp64=8, n_programs_fp32=4, inputs_per_program=2
        )
        ck = tmp_path / "campaign.jsonl"
        full = run_campaign(config, checkpoint=ck)
        lines = ck.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) > 2  # header + several steps
        # Deliberately interrupt: keep the header and the first step only.
        ck.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
        resumed = run_campaign(config, checkpoint=ck, resume=True)
        assert resumed.resumed_steps == 1
        for name in full.arms:
            assert resumed.arms[name].total_runs == full.arms[name].total_runs
            assert resumed.arms[name].runs_by_opt == full.arms[name].runs_by_opt
            assert _disc_keys(resumed.arms[name]) == _disc_keys(full.arms[name])
        # A second resume finds every step done and executes nothing new.
        again = run_campaign(config, checkpoint=ck, resume=True)
        assert again.resumed_steps == len(lines) - 1  # every step reloaded
        assert again.total_runs == full.total_runs

    def test_resume_requires_matching_config(self, tmp_path):
        config = CampaignConfig(
            seed=7, n_programs_fp64=4, inputs_per_program=2,
            include_hipify=False, include_fp32=False,
        )
        ck = tmp_path / "campaign.jsonl"
        run_campaign(config, checkpoint=ck)
        with pytest.raises(HarnessError):
            run_campaign(replace(config, seed=8), checkpoint=ck, resume=True)

    def test_resume_without_checkpoint_rejected(self):
        with pytest.raises(HarnessError):
            run_campaign(CampaignConfig.tiny(), resume=True)

    def test_pair_discrepancies_mismatch_raises(self):
        nv = [_record(1.0)]
        with pytest.raises(HarnessError):
            pair_discrepancies(nv, [])
        misindexed = [RunRecord("t", 1, "O0", "hipcc", "1.0", 1.0)]
        with pytest.raises(HarnessError):
            pair_discrepancies(nv, misindexed)
        # Duplicates on either side are rejected, not silently collapsed.
        hip0 = _record(1.0, "hipcc")
        hip1 = RunRecord("t", 1, "O0", "hipcc", "1.0", 1.0)
        with pytest.raises(HarnessError):
            pair_discrepancies([_record(1.0), _record(2.0)], [hip0, hip1])
        with pytest.raises(HarnessError):
            pair_discrepancies(nv * 2, [hip0, hip0])

    def test_zero_program_arm_reports_empty_result(self):
        config = CampaignConfig(
            seed=5, n_programs_fp64=4, n_programs_fp32=0, inputs_per_program=2,
            include_hipify=False,
        )
        result = run_campaign(config)
        assert set(result.arms) == {"fp64", "fp32"}
        fp32 = result.arms["fp32"]
        assert fp32.n_programs == 0 and fp32.total_runs == 0
        assert fp32.discrepancy_percent == 0.0

    def test_resume_tolerates_torn_checkpoint_tail(self, tmp_path):
        config = CampaignConfig(
            seed=7, n_programs_fp64=8, inputs_per_program=2,
            include_hipify=False, include_fp32=False,
        )
        ck = tmp_path / "campaign.jsonl"
        full = run_campaign(config, checkpoint=ck)
        lines = ck.read_text(encoding="utf-8").strip().splitlines()
        # A run killed mid-write leaves a half line with no newline.
        ck.write_text("\n".join(lines[:2]) + '\n{"kind": "step", "key', encoding="utf-8")
        resumed = run_campaign(config, checkpoint=ck, resume=True)
        assert resumed.total_runs == full.total_runs
        # The torn fragment was trimmed: the file parses clean end to end,
        # so the *next* resume reloads every step.
        again = run_campaign(config, checkpoint=ck, resume=True)
        assert again.resumed_steps == len(lines) - 1
        assert again.total_runs == full.total_runs

    def test_resume_auto_falls_back_on_mismatch(self, tmp_path):
        config = CampaignConfig(
            seed=7, n_programs_fp64=4, inputs_per_program=2,
            include_hipify=False, include_fp32=False,
        )
        ck = tmp_path / "campaign.jsonl"
        run_campaign(config, checkpoint=ck)
        other = replace(config, seed=8)
        # strict resume refuses, auto starts fresh and rewrites the header
        with pytest.raises(HarnessError):
            run_campaign(other, checkpoint=ck, resume=True)
        result = run_campaign(other, checkpoint=ck, resume="auto")
        assert result.resumed_steps == 0 and result.total_runs > 0
        # ...and the refreshed checkpoint now resumes under the new config.
        again = run_campaign(other, checkpoint=ck, resume="auto")
        assert again.resumed_steps > 0 and again.total_runs == result.total_runs

    def test_generator_config_validates(self):
        with pytest.raises(GrammarError):
            CampaignConfig(inputs_per_program=0).generator_config(FPType.FP64)
        gen = CampaignConfig(inputs_per_program=4).generator_config(FPType.FP32)
        assert gen.inputs_per_program == 4 and gen.fptype is FPType.FP32


# ---------------------------------------------------------------- metadata
class TestMetadata:
    def test_runstore_roundtrip(self):
        store = SystemResults()
        store.record_printed("O0", "prog-1", 0, "1.5")
        store.record_printed("O3_FM", "prog-2", 3, "-nan")
        rebuilt = SystemResults.from_json_dict(store.to_json_dict())
        assert rebuilt.get("O0", "prog-1", 0) == "1.5"
        assert rebuilt.get("O3_FM", "prog-2", 3) == "-nan"
        assert len(rebuilt) == 2

    def test_runstore_bad_key_rejected(self):
        with pytest.raises(MetadataError):
            SystemResults.from_json_dict({"no-separators": "1.0"})

    def test_metadata_save_load(self, tmp_path):
        cfg = GeneratorConfig.fp64(inputs_per_program=2)
        corpus = build_corpus(cfg, 4, root_seed=77)
        meta = CampaignMetadata.from_corpus(corpus, ["O0", "O1"])
        meta.register_system("sys", compiler="nvcc", device="v100", flags=["-O0"])
        meta.store_for("sys").record_printed("O0", corpus.tests[0].test_id, 0, "3.25")
        path = tmp_path / "meta.json"
        meta.save(path)
        loaded = CampaignMetadata.load(path)
        assert loaded.fptype is FPType.FP64
        assert loaded.opt_labels == ("O0", "O1")
        assert loaded.store_for("sys").get("O0", corpus.tests[0].test_id, 0) == "3.25"

    def test_rebuild_tests_bit_identical(self, tmp_path):
        cfg = GeneratorConfig.fp64(inputs_per_program=2)
        corpus = build_corpus(cfg, 5, root_seed=31)
        meta = CampaignMetadata.from_corpus(corpus, ["O0"])
        meta.save(tmp_path / "m.json")
        rebuilt = CampaignMetadata.load(tmp_path / "m.json").rebuild_tests()
        for orig, new in zip(corpus, rebuilt):
            assert new.program.kernel == orig.program.kernel
            assert new.inputs == orig.inputs

    def test_unknown_system_rejected(self):
        cfg = GeneratorConfig.fp64(inputs_per_program=1)
        meta = CampaignMetadata.from_corpus(build_corpus(cfg, 1, 1), ["O0"])
        with pytest.raises(MetadataError):
            meta.store_for("ghost")


# ---------------------------------------------------------------- transfer
class TestBetweenPlatform:
    @pytest.fixture(scope="class")
    def corpus(self):
        cfg = GeneratorConfig.fp64(inputs_per_program=2)
        return build_corpus(cfg, 10, root_seed=2024)

    def test_full_round_trip(self, corpus, tmp_path):
        meta, discrepancies = between_platform_campaign(
            corpus, tmp_path, opts=[OptSetting(OptLevel.O0), OptSetting(OptLevel.O3)]
        )
        assert (tmp_path / "metadata.system1.json").exists()
        assert (tmp_path / "metadata.merged.json").exists()
        assert SYSTEM1 in meta.systems and SYSTEM2 in meta.systems
        # both systems produced a result for every (opt, test, input)
        assert len(meta.store_for(SYSTEM1)) == len(meta.store_for(SYSTEM2))

    def test_matches_in_process_runner(self, corpus, tmp_path, runner):
        """The Fig. 3 file workflow finds exactly the discrepancies the
        in-process differential runner finds."""
        opts = [OptSetting(OptLevel.O0)]
        _, via_files = between_platform_campaign(corpus, tmp_path, opts=opts)
        direct = []
        for t in corpus:
            direct.extend(runner.run_pair(t, opts[0]).discrepancies)
        key = lambda d: (d.test_id, d.input_index, d.opt_label, d.dclass.value)
        assert sorted(map(key, via_files)) == sorted(map(key, direct))

    def test_grid_mismatch_rejected(self, corpus, tmp_path):
        run_system1(corpus, tmp_path / "m1.json", opts=[OptSetting(OptLevel.O0)])
        with pytest.raises(MetadataError):
            run_system2(
                tmp_path / "m1.json",
                tmp_path / "m2.json",
                opts=[OptSetting(OptLevel.O3)],
            )

    def test_collect_requires_both_systems(self, corpus, tmp_path):
        meta = run_system1(corpus, tmp_path / "solo.json", opts=[OptSetting(OptLevel.O0)])
        with pytest.raises(MetadataError):
            collect_discrepancies(meta)
