"""Acceptance tests for the stack registry (repro.stacks) and CPU lane.

The refactor's contract, pinned end to end: stacks are registry values
(nvcc / hipcc / cpu) resolved in canonical order; a campaign over N
stacks produces the N-choose-2 stack-pair discrepancy matrix; results
stay worker-count invariant with the CPU stack enabled; and — the
compatibility half — every pre-registry artifact (checkpoints, fuzz
ledgers, warm run stores, discrepancy payloads, two-stack call sites)
keeps working byte-for-byte under the default (nvcc, hipcc) pair.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.compilers.options import OptLevel, OptSetting
from repro.errors import HarnessError
from repro.exec import (
    ExecutionService,
    RunnerSpec,
    RunStore,
    SweepRequest,
)
from repro.fp.classify import OutcomeClass
from repro.fuzz.engine import FuzzConfig, run_fuzz
from repro.fuzz.signature import DiscrepancySignature
from repro.harness.campaign import CampaignConfig, run_campaign
from repro.harness.differential import Discrepancy, DiscrepancyClass, classify_pair
from repro.harness.runner import DifferentialRunner
from repro.stacks import (
    DEFAULT_STACK_PAIR,
    STACK_NAMES,
    STACKS,
    get_stack,
    pair_name,
    resolve_stacks,
    stack_pairs,
)
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import build_corpus

OPTS2 = (OptSetting(OptLevel.O0), OptSetting(OptLevel.O3, fast_math=True))

ALL_STACKS = ("nvcc", "hipcc", "cpu")


@pytest.fixture(scope="module")
def fp32_corpus():
    return build_corpus(GeneratorConfig.fp32(inputs_per_program=2), 6, root_seed=424)


# ---------------------------------------------------------------- registry
class TestRegistry:
    def test_canonical_order(self):
        assert STACK_NAMES == ("nvcc", "hipcc", "cpu")
        assert DEFAULT_STACK_PAIR == ("nvcc", "hipcc")

    def test_stack_entries_are_complete(self):
        for name, stack in STACKS.items():
            assert stack.name == name
            assert stack.compiler() is not None
            assert stack.device(0) is not None
        assert get_stack("cpu").compiler().name == "clang"
        assert get_stack("cpu").dialect == "c"
        assert get_stack("cpu").source_extension == ".c"
        assert get_stack("cpu").mathlib_name == "libm"

    def test_unknown_stack_raises(self):
        with pytest.raises(HarnessError):
            get_stack("icc")

    def test_resolve_normalizes_to_registry_order(self):
        assert resolve_stacks("cpu,nvcc") == ("nvcc", "cpu")
        assert resolve_stacks("hipcc, nvcc , cpu") == ALL_STACKS
        assert resolve_stacks(["cpu", "hipcc", "cpu"]) == ("hipcc", "cpu")
        assert resolve_stacks(None) == DEFAULT_STACK_PAIR
        assert resolve_stacks("nvcc,hipcc") == DEFAULT_STACK_PAIR

    def test_resolve_rejects_bad_selections(self):
        with pytest.raises(HarnessError):
            resolve_stacks("nvcc")  # differential testing needs two
        with pytest.raises(HarnessError):
            resolve_stacks("nvcc,bogus")
        with pytest.raises(HarnessError):
            resolve_stacks("")

    def test_pair_enumeration(self):
        assert stack_pairs(ALL_STACKS) == (
            ("nvcc", "hipcc"),
            ("nvcc", "cpu"),
            ("hipcc", "cpu"),
        )
        # Order of the selection never matters, only registry order.
        assert stack_pairs(("cpu", "nvcc")) == (("nvcc", "cpu"),)
        assert pair_name(("hipcc", "cpu")) == "hipcc-cpu"

    def test_cpu_stack_renders_c_dialect(self, fp32_corpus):
        src = get_stack("cpu").render(fp32_corpus.tests[0].program)
        assert "#include <math.h>" in src and "__global__" not in src


# ---------------------------------------------------------------- CPU lane
class TestCpuLane:
    def test_runner_sweeps_a_cpu_pair(self, fp32_corpus):
        runner = DifferentialRunner(stacks=("nvcc", "cpu"))
        sweep = runner.run_sweep(fp32_corpus.tests[0], OPTS2)
        for pair in sweep.values():
            assert pair.stacks == ("nvcc", "cpu")
            assert len(pair.lhs_runs) == len(pair.rhs_runs) > 0
            for d in pair.discrepancies:
                assert d.stacks == ("nvcc", "cpu")
        assert runner.lhs_executions > 0 and runner.rhs_executions > 0

    def test_default_runner_unchanged(self, fp32_corpus):
        runner = DifferentialRunner()
        assert runner.stacks == DEFAULT_STACK_PAIR
        sweep = runner.run_sweep(fp32_corpus.tests[0], OPTS2)
        for pair in sweep.values():
            assert pair.stacks == DEFAULT_STACK_PAIR


# ----------------------------------------------------- campaign pair matrix
class TestCampaignStackMatrix:
    def _payload(self, tmp_path, workers):
        from repro.cli import main

        out = tmp_path / f"matrix-w{workers}.json"
        assert (
            main(
                [
                    "--seed", "7", "--fp64-programs", "4", "--fp32-programs", "3",
                    "--inputs", "2", "--stacks", "nvcc,hipcc,cpu",
                    "--workers", str(workers), "--json", str(out), "--no-adjacency",
                ]
            )
            == 0
        )
        data = json.loads(out.read_text())
        data.pop("elapsed_seconds")
        data["config"].pop("workers")
        data["exec"].pop("phase_seconds")
        return data

    def test_three_choose_two_matrix(self, tmp_path):
        """The headline acceptance check: three stacks produce one arm
        per (precision lane × stack pair), the legacy arms keep their
        legacy names, and every arm records its pair."""
        data = self._payload(tmp_path, 0)
        assert set(data["arms"]) == {
            "fp64", "fp64_hipify", "fp64@nvcc-cpu", "fp64@hipcc-cpu",
            "fp32", "fp32@nvcc-cpu", "fp32@hipcc-cpu",
        }
        assert data["config"]["stacks"] == ["nvcc", "hipcc", "cpu"]
        assert data["arms"]["fp64"]["stacks"] == ["nvcc", "hipcc"]
        assert data["arms"]["fp64@nvcc-cpu"]["stacks"] == ["nvcc", "cpu"]
        assert data["arms"]["fp64@hipcc-cpu"]["stacks"] == ["hipcc", "cpu"]
        for arm in data["arms"].values():
            assert arm["total_runs"] > 0
        # The satellite: per-stack execution counters in the exec block.
        by_stack = data["exec"]["executions_by_stack"]
        assert set(by_stack) == set(ALL_STACKS)
        assert all(n > 0 for n in by_stack.values())

    def test_nvcc_lhs_pairs_replay_the_lane_corpus(self, tmp_path):
        """All arms of one lane share a corpus and a fused plan group, so
        every nvcc-lhs pair replays the lane's nvcc runs from the run
        store; a hipcc-lhs pair must *not* (qualified cache key)."""
        data = self._payload(tmp_path, 0)
        native = data["arms"]["fp64"]
        nvcc_cpu = data["arms"]["fp64@nvcc-cpu"]
        hipcc_cpu = data["arms"]["fp64@hipcc-cpu"]
        assert native["nvcc_executions"] > 0
        assert nvcc_cpu["nvcc_executions"] == 0
        assert nvcc_cpu["nvcc_cache_hits"] == native["nvcc_executions"]
        assert hipcc_cpu["nvcc_executions"] > 0  # its lhs is hipcc: real work

    def test_matrix_json_invariant_across_workers(self, tmp_path):
        serial = self._payload(tmp_path, 0)
        pooled = self._payload(tmp_path, 2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)

    def test_discrepancies_carry_their_pair(self, tmp_path):
        data = self._payload(tmp_path, 0)
        legacy = data["arms"]["fp32"]["discrepancies"]
        cpu_pair = data["arms"]["fp32@nvcc-cpu"]["discrepancies"]
        assert legacy and cpu_pair
        for d in legacy:  # default pair: byte-compatible legacy keys
            assert "stacks" not in d and "nvcc" in d and "hipcc" in d
        for d in cpu_pair:
            assert d["stacks"] == ["nvcc", "cpu"] and "lhs" in d and "rhs" in d

    def test_pair_subset_without_hipcc(self, tmp_path):
        """--stacks nvcc,cpu: the CPU lane stands alone — no AMD stack
        model anywhere, no legacy unsuffixed arms."""
        config = CampaignConfig(
            seed=7, n_programs_fp64=3, inputs_per_program=2,
            include_fp32=False, stacks=("nvcc", "cpu"),
        )
        assert config.arm_names() == ["fp64@nvcc-cpu"]
        result = run_campaign(config)
        arm = result.arms["fp64@nvcc-cpu"]
        assert arm.stacks == ("nvcc", "cpu") and arm.total_runs > 0

    def test_fingerprint_stacks_gated_on_non_default(self):
        plain = CampaignConfig(seed=7).fingerprint()
        assert "stacks" not in plain
        wide = CampaignConfig(seed=7, stacks=ALL_STACKS).fingerprint()
        assert wide["stacks"] == list(ALL_STACKS)
        assert {k: v for k, v in wide.items() if k != "stacks"} == plain


# ------------------------------------------------------- fuzz pair matrix
class TestFuzzStackMatrix:
    CONFIG = FuzzConfig(
        seed=11, n_seed_programs=8, inputs_per_program=2,
        max_mutants=8, batch_size=4, minimize=False, stacks=ALL_STACKS,
    )

    def test_fingerprint_format_gated_on_stacks(self):
        plain = dataclasses.replace(self.CONFIG, stacks=DEFAULT_STACK_PAIR)
        assert plain.fingerprint()["format"] == 2
        assert "stacks" not in plain.fingerprint()
        wide = self.CONFIG.fingerprint()
        assert wide["format"] == 4
        assert wide["stacks"] == list(ALL_STACKS)

    def test_per_pair_findings_and_baseline(self, tmp_path):
        result = run_fuzz(self.CONFIG, ledger=tmp_path / "wide.jsonl")
        pairs_seen = {s.stacks for s in result.baseline_signatures}
        assert ("nvcc", "cpu") in pairs_seen and ("hipcc", "cpu") in pairs_seen
        arms = {f.arm for f in result.findings}
        assert arms & {"nvcc-cpu", "hipcc-cpu"}, arms
        for f in result.findings:
            if f.arm in ("nvcc-cpu", "hipcc-cpu"):
                assert f.signature.key.endswith(f"|{f.arm}")
                assert pair_name(f.signature.stacks) == f.arm
        header = json.loads(
            (tmp_path / "wide.jsonl").read_text().splitlines()[0]
        )
        assert header["fingerprint"]["format"] == 4

    @pytest.mark.parametrize("workers", [2, 4])
    def test_ledger_invariant_across_workers(self, tmp_path, workers):
        run_fuzz(self.CONFIG, ledger=tmp_path / "serial.jsonl")
        run_fuzz(
            dataclasses.replace(self.CONFIG, workers=workers),
            ledger=tmp_path / "pooled.jsonl",
        )
        assert (tmp_path / "serial.jsonl").read_bytes() == (
            tmp_path / "pooled.jsonl"
        ).read_bytes()

    def test_wide_ledger_resumes(self, tmp_path):
        path = tmp_path / "wide.jsonl"
        first = run_fuzz(self.CONFIG, ledger=path)
        resumed = run_fuzz(self.CONFIG, ledger=path, resume=True)
        assert resumed.resumed_iterations == self.CONFIG.max_mutants
        assert {f.signature.key for f in resumed.findings} == {
            f.signature.key for f in first.findings
        }


# ------------------------------------------------------------ back-compat
class TestBackCompat:
    def test_classify_pair_keyword_aliases(self):
        """The pre-registry ``nvcc_value``/``hipcc_value`` keywords are
        gone: the sides are positional (or ``lhs_value``/``rhs_value``)."""
        nan = float("nan")
        with pytest.raises(TypeError):
            classify_pair(nvcc_value=1.0, hipcc_value=nan)
        assert classify_pair(lhs_value=1.0, rhs_value=nan) == classify_pair(1.0, nan)
        with pytest.raises(TypeError):
            classify_pair(1.0)  # one side missing

    def test_discrepancy_legacy_kwargs(self):
        """The pre-registry ``nvcc_*``/``hipcc_*`` keywords are gone:
        the slots are ``lhs_*``/``rhs_*``, on the default pair."""
        fields = dict(
            test_id="t", input_index=0, opt_label="O3",
            dclass=DiscrepancyClass.NAN_NUM,
        )
        legacy = Discrepancy(
            **fields,
            lhs_printed="nan", rhs_printed="1.5",
            lhs_outcome=OutcomeClass.NAN, rhs_outcome=OutcomeClass.NUMBER,
        )
        assert legacy.stacks == DEFAULT_STACK_PAIR
        assert legacy.lhs_printed == "nan"
        assert legacy.rhs_outcome is OutcomeClass.NUMBER
        with pytest.raises(TypeError):
            Discrepancy(
                **fields,
                nvcc_printed="nan", hipcc_printed="1.5",
                nvcc_outcome=OutcomeClass.NAN, hipcc_outcome=OutcomeClass.NUMBER,
            )

    def test_discrepancy_old_payload_deserializes(self):
        """A pre-registry checkpoint payload (nvcc/hipcc keys, no stacks)
        loads onto the default pair and re-serializes byte-identically."""
        old = {
            "test_id": "t", "input_index": 1, "opt": "O3_FM",
            "class": "Num, Zero", "nvcc": "1e-40", "hipcc": "0",
            "nvcc_outcome": "Num", "hipcc_outcome": "Zero",
        }
        d = Discrepancy.from_json_dict(dict(old))
        assert d.stacks == DEFAULT_STACK_PAIR
        assert d.to_json_dict() == old
        # Non-default pairs round-trip through the stack-neutral layout.
        wide = Discrepancy(
            test_id="t", input_index=1, opt_label="O3",
            dclass=DiscrepancyClass.NUM_NUM,
            lhs_printed="1.0", rhs_printed="2.0",
            lhs_outcome=OutcomeClass.NUMBER, rhs_outcome=OutcomeClass.NUMBER,
            stacks=("hipcc", "cpu"),
        )
        again = Discrepancy.from_json_dict(wide.to_json_dict())
        assert again == wide and again.stacks == ("hipcc", "cpu")

    def test_signature_key_and_json_gated_on_default_pair(self):
        base = dict(
            cause="ftz-asymmetry", functions=(), opt_label="O3_FM",
            nvcc_outcome="Num", hipcc_outcome="Zero", fptype="fp32",
        )
        legacy = DiscrepancySignature(**base)
        wide = DiscrepancySignature(**base, stacks=("nvcc", "cpu"))
        assert "|" + pair_name(("nvcc", "cpu")) not in legacy.key
        assert "stacks" not in legacy.to_json_dict()
        assert wide.key == legacy.key + "|nvcc-cpu"
        assert DiscrepancySignature.from_json_dict(wide.to_json_dict()) == wide
        assert DiscrepancySignature.from_json_dict(legacy.to_json_dict()) == legacy

    def test_pre_registry_checkpoint_resumes(self, tmp_path):
        """A default-pair checkpoint contains no stack keys at all — it
        is a pre-registry checkpoint — and a fresh default-pair config
        resumes every step from it."""
        config = CampaignConfig(
            seed=7, n_programs_fp64=3, n_programs_fp32=2, inputs_per_program=2
        )
        path = tmp_path / "legacy.jsonl"
        first = run_campaign(config, checkpoint=path)
        assert '"stacks"' not in path.read_text()
        resumed = run_campaign(config, checkpoint=path, resume=True)
        assert resumed.resumed_steps == 2  # every step reloaded, none re-run
        assert {
            n: (a.total_runs, len(a.discrepancies))
            for n, a in resumed.arms.items()
        } == {
            n: (a.total_runs, len(a.discrepancies))
            for n, a in first.arms.items()
        }

    def test_warm_store_replays_nvcc_lhs_pairs_only(self, fp32_corpus):
        """Content keys are stack-independent and the run store caches
        the pair's left side under the bare key for nvcc — so a warm
        pre-registry store serves any nvcc-lhs pair, while a hipcc-lhs
        pair's qualified key misses it."""
        test = fp32_corpus.tests[0]
        store = RunStore()
        warm = ExecutionService(store=store)
        (legacy,) = warm.run_chunk(
            [SweepRequest(test=test, opts=OPTS2, tag=("warm",))]
        )
        assert legacy.nvcc_executions > 0
        warm.close()

        service = ExecutionService(store=store)
        nvcc_cpu, hipcc_cpu = service.run_chunk(
            [
                SweepRequest(
                    test=test, opts=OPTS2, tag=("a",),
                    runner=RunnerSpec(stacks=("nvcc", "cpu")),
                ),
                SweepRequest(
                    test=test, opts=OPTS2, tag=("b",),
                    runner=RunnerSpec(stacks=("hipcc", "cpu")),
                ),
            ]
        )
        assert nvcc_cpu.content_key == legacy.content_key == hipcc_cpu.content_key
        assert nvcc_cpu.nvcc_executions == 0  # replayed the warm nvcc runs
        assert nvcc_cpu.nvcc_cache_hits == len(OPTS2) * len(test.inputs)
        assert hipcc_cpu.nvcc_executions > 0  # hipcc lhs: no replay
        service.close()

    def test_runner_spec_default_equals_explicit_pair(self):
        assert RunnerSpec() == RunnerSpec(stacks=DEFAULT_STACK_PAIR)
        assert RunnerSpec() != RunnerSpec(stacks=("nvcc", "cpu"))
