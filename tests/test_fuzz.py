"""Tests for the feedback-guided fuzzing subsystem (repro.fuzz).

The contracts pinned down here are the ones the ledger format and the
acceptance criteria depend on: mutator determinism (same seed → identical
mutant) and validity (every produced mutant passes ``validate_kernel``),
signature dedup, byte-identical ledgers for repeated seeded sessions, and
resume equivalence (interrupt, resume, identical findings set).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import HarnessError
from repro.exec.content import content_text
from repro.fuzz.engine import FuzzConfig, run_fuzz, run_random_session
from repro.fuzz.ledger import FindingsLedger, LineageStep
from repro.fuzz.mutators import MUTATION_NAMES, apply_mutation
from repro.fuzz.signature import DiscrepancySignature, signature_histogram
from repro.ir.validate import validate_kernel
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import build_corpus

#: One small, fast session config shared by the engine tests.
TINY = FuzzConfig(
    seed=11,
    n_seed_programs=15,
    inputs_per_program=2,
    max_mutants=30,
    batch_size=10,
    minimize=False,
)


@pytest.fixture(scope="module")
def fuzz_corpus():
    cfg = GeneratorConfig.fp32(inputs_per_program=2)
    return build_corpus(cfg, 20, root_seed=77)


class TestMutators:
    def test_registry_has_all_seven_classes(self):
        assert set(MUTATION_NAMES) == {
            "op-swap",
            "const-perturb",
            "call-mutate",
            "fma-shape",
            "splice",
            "guard-toggle",
            "precision-cast",
        }

    @pytest.mark.parametrize("mutation", MUTATION_NAMES)
    def test_deterministic(self, fuzz_corpus, mutation):
        """Same (seed, mutation_id) → structurally identical mutant."""
        donor = fuzz_corpus.tests[1].program.kernel
        for test in fuzz_corpus.tests[:8]:
            kernel = test.program.kernel
            a = apply_mutation(kernel, mutation, seed=123, donor=donor)
            b = apply_mutation(kernel, mutation, seed=123, donor=donor)
            if a is None:
                assert b is None
                continue
            assert content_text(a, ()) == content_text(b, ())

    @pytest.mark.parametrize("mutation", MUTATION_NAMES)
    def test_seed_changes_mutant(self, fuzz_corpus, mutation):
        """Different seeds explore different sites (on at least one test)."""
        donor = fuzz_corpus.tests[2].program.kernel
        differs = False
        for test in fuzz_corpus.tests[:10]:
            kernel = test.program.kernel
            a = apply_mutation(kernel, mutation, seed=1, donor=donor)
            b = apply_mutation(kernel, mutation, seed=2, donor=donor)
            if a is not None and b is not None and content_text(a, ()) != content_text(b, ()):
                differs = True
                break
        assert differs, f"{mutation} ignored its seed on every test"

    @pytest.mark.parametrize("mutation", MUTATION_NAMES)
    def test_validity_preserved(self, fuzz_corpus, mutation):
        """Every mutant over many (test, seed) pairs passes validation."""
        donor = fuzz_corpus.tests[0].program.kernel
        produced = 0
        for test in fuzz_corpus.tests:
            for seed in range(5):
                mutant = apply_mutation(
                    test.program.kernel, mutation, seed=seed, donor=donor
                )
                if mutant is None:
                    continue
                produced += 1
                issues = validate_kernel(mutant)
                assert not issues, (
                    f"{mutation} produced invalid kernel: {issues[0]}"
                )
                # Signature must be untouched: parent inputs stay usable.
                assert mutant.params == test.program.kernel.params
        assert produced > 0, f"{mutation} never applied"

    def test_splice_requires_donor(self, fuzz_corpus):
        kernel = fuzz_corpus.tests[0].program.kernel
        assert apply_mutation(kernel, "splice", seed=5, donor=None) is None

    def test_precision_cast_wraps_demote(self, fuzz_corpus):
        """The precision-cast mutant carries a __demote_fp16 wrapper."""
        from repro.devices.mathlib.base import DEMOTE_FP16
        from repro.ir.nodes import Call
        from repro.ir.visitor import collect

        wrapped = 0
        for test in fuzz_corpus.tests[:10]:
            mutant = apply_mutation(test.program.kernel, "precision-cast", seed=9)
            if mutant is None:
                continue
            demotes = [
                n
                for stmt in mutant.body
                for n in collect(stmt, lambda n: isinstance(n, Call) and n.func == DEMOTE_FP16)
            ]
            assert len(demotes) == 1
            wrapped += 1
        assert wrapped > 0

    def test_precision_cast_noop_on_fp16_kernels(self):
        from repro.varity.config import GeneratorConfig as GC

        corpus16 = build_corpus(GC.fp16(inputs_per_program=2), 4, root_seed=5)
        for test in corpus16.tests:
            assert apply_mutation(test.program.kernel, "precision-cast", seed=1) is None

    def test_precision_cast_changes_interpreted_value(self, fuzz_corpus):
        """The round trip really coarsens: some mutant prints a different
        value than its parent on the same inputs."""
        from repro.compilers.options import OptSetting
        from repro.harness.runner import DifferentialRunner

        runner = DifferentialRunner()
        opt = OptSetting.from_label("O0")
        changed = False
        for test in fuzz_corpus.tests:
            mutant_kernel = apply_mutation(test.program.kernel, "precision-cast", seed=3)
            if mutant_kernel is None:
                continue
            mutant = dataclasses.replace(
                test,
                program=dataclasses.replace(test.program, kernel=mutant_kernel),
            )
            for index in range(len(test.inputs)):
                a, _, _, _ = runner.run_single(test, opt, index)
                b, _, _, _ = runner.run_single(mutant, opt, index)
                if a.printed != b.printed:
                    changed = True
                    break
            if changed:
                break
        assert changed, "precision-cast never changed an interpreted value"

    def test_unknown_mutation_rejected(self, fuzz_corpus):
        with pytest.raises(ValueError):
            apply_mutation(fuzz_corpus.tests[0].program.kernel, "rot13", seed=1)

    def test_const_perturb_roundtrips_text(self, fuzz_corpus):
        """Perturbed literals carry text that parses back to their value."""
        from repro.ir.nodes import Const
        from repro.ir.visitor import collect

        for test in fuzz_corpus.tests:
            mutant = apply_mutation(test.program.kernel, "const-perturb", seed=3)
            if mutant is None:
                continue
            for stmt in mutant.body:
                for node in collect(stmt, lambda n: isinstance(n, Const)):
                    if node.text is not None:
                        assert float(node.text.rstrip("Ff")) == node.value
            return
        pytest.skip("no test had a literal to perturb")


class TestSignature:
    def _sig(self, **overrides) -> DiscrepancySignature:
        base = dict(
            cause="math-library",
            functions=("fmod",),
            opt_label="O0",
            nvcc_outcome="Num",
            hipcc_outcome="NaN",
            fptype="fp32",
        )
        base.update(overrides)
        return DiscrepancySignature(**base)

    def test_key_roundtrip(self):
        sig = self._sig()
        assert DiscrepancySignature.from_json_dict(sig.to_json_dict()) == sig

    def test_dedup_by_equality(self):
        assert self._sig() == self._sig()
        assert len({self._sig(), self._sig()}) == 1
        assert self._sig() != self._sig(opt_label="O3")
        assert self._sig().key != self._sig(hipcc_outcome="Inf").key

    def test_directional_outcomes(self):
        a = self._sig(nvcc_outcome="Num", hipcc_outcome="NaN")
        b = self._sig(nvcc_outcome="NaN", hipcc_outcome="Num")
        assert a.key != b.key

    def test_histogram_renders(self):
        table = signature_histogram([self._sig(), self._sig(opt_label="O3")])
        text = table.render()
        assert "math-library" in text and "fmod" in text


class TestEngine:
    @pytest.fixture(scope="class")
    def session(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "ledger.jsonl"
        result = run_fuzz(TINY, ledger=path)
        return result, path

    def test_budget_respected(self, session):
        result, _ = session
        assert result.iterations == TINY.max_mutants
        attempts = (
            result.mutants_run
            + result.fresh_explored
            + result.mutants_no_site
            + result.mutants_invalid
            + result.mutants_noop
            + result.duplicates
        )
        assert attempts == result.iterations

    def test_signature_dedup_across_findings(self, session):
        result, _ = session
        keys = [f.signature.key for f in result.findings]
        assert len(keys) == len(set(keys))
        # Nothing from the baseline may be reported as novel.
        baseline = {s.key for s in result.baseline_signatures}
        assert not baseline.intersection(keys)

    def test_hipify_twin_served_from_cache(self, session):
        result, _ = session
        # Every evaluated program's twin replays the CUDA half: hit count
        # equals execution count exactly (same sweeps, zero extra).
        assert result.nvcc_cache_hits == result.nvcc_executions
        assert result.cache_hit_rate == pytest.approx(0.5)

    def test_ledger_structure(self, session):
        result, path = session
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        assert lines[0]["fingerprint"] == TINY.fingerprint()
        assert lines[1]["kind"] == "baseline"
        batches = [l for l in lines if l["kind"] == "batch"]
        assert batches[-1]["stop"] == TINY.max_mutants
        ledger_findings = [f for b in batches for f in b["findings"]]
        assert len(ledger_findings) == len(result.findings)

    def test_rerun_is_byte_identical(self, session, tmp_path):
        _, path = session
        again = tmp_path / "again.jsonl"
        run_fuzz(TINY, ledger=again)
        assert again.read_bytes() == path.read_bytes()

    def test_finding_lineage_replays(self, session):
        from repro.fuzz.engine import _LazyCorpus
        from repro.fuzz.search import replay_lineage

        result, _ = session
        if not result.findings:
            pytest.skip("no findings at this scale")
        corpus = _LazyCorpus(TINY)
        f = result.findings[0]
        kernel = replay_lineage(corpus, f.corpus_index, f.lineage)
        assert not validate_kernel(kernel)

    def test_resume_completed_session_is_noop(self, session, tmp_path):
        result, path = session
        resumed = run_fuzz(TINY, ledger=path, resume=True)
        assert resumed.resumed_iterations == TINY.max_mutants
        assert resumed.mutants_run == 0
        assert [f.signature.key for f in resumed.findings] == [
            f.signature.key for f in result.findings
        ]

    def test_interrupted_resume_reproduces_straight_run(self, session, tmp_path):
        """Interrupt mid-session, resume: identical findings set."""
        straight, _ = session
        path = tmp_path / "interrupted.jsonl"
        run_fuzz(dataclasses.replace(TINY, max_mutants=20), ledger=path)
        resumed = run_fuzz(TINY, ledger=path, resume=True)
        assert resumed.resumed_iterations == 20
        key = lambda f: (f.iteration, f.arm, f.mutant_id, f.signature.key)
        assert [key(f) for f in resumed.findings] == [key(f) for f in straight.findings]

    def test_resume_refuses_mismatched_config(self, session, tmp_path):
        _, path = session
        other = dataclasses.replace(TINY, seed=999)
        with pytest.raises(HarnessError):
            run_fuzz(other, ledger=path, resume=True)
        # "auto" falls back to a fresh session instead.
        fresh = run_fuzz(
            dataclasses.replace(other, max_mutants=0),
            ledger=tmp_path / "auto.jsonl",
            resume="auto",
        )
        assert fresh.resumed_iterations == 0

    def test_resume_without_ledger_rejected(self):
        with pytest.raises(HarnessError):
            run_fuzz(TINY, resume=True)

    def test_wall_clock_budget_stops_early(self, tmp_path):
        config = dataclasses.replace(TINY, max_mutants=10_000, max_seconds=0.0)
        result = run_fuzz(config)
        assert result.stopped_by == "wall-clock"
        assert result.iterations < 10_000

    def test_random_session_uses_fresh_programs(self):
        result = run_random_session(TINY, n_programs=3)
        assert result.n_programs == 3
        assert result.pair_runs > 0


class TestLedgerRobustness:
    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        run_fuzz(dataclasses.replace(TINY, max_mutants=10), ledger=path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "batch", "index": 99, "start"')  # killed mid-write
        resumed = run_fuzz(TINY, ledger=path, resume=True)
        assert resumed.resumed_iterations == 10
        assert resumed.iterations == TINY.max_mutants

    def test_headerless_ledger_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "batch"}\n', encoding="utf-8")
        with pytest.raises(HarnessError):
            FindingsLedger(path).load(TINY.fingerprint())

    def test_lineage_step_roundtrip(self):
        for step in (LineageStep("op-swap", 42), LineageStep("splice", 7, 3)):
            assert LineageStep.from_json(step.to_json()) == step


class TestOracleMode:
    """Fuzzing with metamorphic-oracle relations (ledger format 3)."""

    ORACLE = dataclasses.replace(
        TINY, max_mutants=20, oracle_relations=("fastmath-flag", "mul-one")
    )

    @pytest.fixture(scope="class")
    def oracle_session(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz-oracle") / "ledger.jsonl"
        result = run_fuzz(self.ORACLE, ledger=path)
        return result, path

    def test_fingerprint_format_gated_on_oracle(self):
        """Non-oracle configs fingerprint exactly as format 2 — no oracle
        keys — which is the whole compatibility story."""
        plain = TINY.fingerprint()
        assert plain["format"] == 2
        assert "oracle_relations" not in plain
        assert "oracle_ulp_bound" not in plain
        with_oracle = self.ORACLE.fingerprint()
        assert with_oracle["format"] == 3
        assert with_oracle["oracle_relations"] == ["fastmath-flag", "mul-one"]
        # Apart from max_mutants (a budget, never fingerprinted) the two
        # configs differ only in the oracle fields, so every shared key
        # must carry the same value.
        for key, value in plain.items():
            if key != "format":
                assert with_oracle[key] == value

    def test_format2_ledger_still_resumes(self, tmp_path):
        """A ledger written by a non-oracle (format-2) config resumes
        under the same non-oracle config after the oracle lane landed."""
        path = tmp_path / "fmt2.jsonl"
        first = run_fuzz(TINY, ledger=path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["fingerprint"]["format"] == 2
        resumed = run_fuzz(TINY, ledger=path, resume=True)
        assert resumed.resumed_iterations == TINY.max_mutants
        assert {f.signature.key for f in resumed.findings} == {
            f.signature.key for f in first.findings
        }

    def test_format2_ledger_refused_by_oracle_config(self, tmp_path):
        """An oracle config cannot continue a format-2 trajectory (its
        scheduler would disagree); strict resume reports the mismatch."""
        path = tmp_path / "fmt2.jsonl"
        run_fuzz(dataclasses.replace(TINY, max_mutants=5), ledger=path)
        with pytest.raises(HarnessError):
            run_fuzz(
                dataclasses.replace(self.ORACLE, max_mutants=10),
                ledger=path,
                resume=True,
            )

    def test_oracle_violations_become_findings(self, oracle_session):
        result, _ = oracle_session
        assert result.oracle_violations > 0
        oracle_findings = [f for f in result.findings if f.arm == "oracle"]
        assert oracle_findings, "no oracle-cause finding surfaced"
        for f in oracle_findings:
            assert f.signature.cause.startswith("oracle:")
            # single-stack verdicts: the implicated platform rides in the
            # functions slot, and the differential reducer never ran.
            assert f.signature.functions[0] in ("nvcc", "hipcc")
            assert f.reduced_size is None

    def test_oracle_ledger_rerun_byte_identical(self, oracle_session, tmp_path):
        _, path = oracle_session
        again = tmp_path / "again.jsonl"
        run_fuzz(self.ORACLE, ledger=again)
        assert again.read_bytes() == path.read_bytes()

    def test_oracle_ledger_worker_invariant(self, oracle_session, tmp_path):
        _, path = oracle_session
        pooled = tmp_path / "pooled.jsonl"
        run_fuzz(dataclasses.replace(self.ORACLE, workers=2), ledger=pooled)
        assert pooled.read_bytes() == path.read_bytes()

    def test_oracle_resume_matches_straight_run(self, oracle_session, tmp_path):
        """Interrupt mid-session, resume: identical findings trajectory
        (batch boundaries differ at the interruption point, as for any
        interrupted fuzz session, so compare findings, not bytes)."""
        straight, _ = oracle_session
        split = tmp_path / "split.jsonl"
        run_fuzz(dataclasses.replace(self.ORACLE, max_mutants=8), ledger=split)
        resumed = run_fuzz(self.ORACLE, ledger=split, resume=True)
        assert resumed.resumed_iterations == 8
        key = lambda f: (f.iteration, f.arm, f.mutant_id, f.signature.key)
        assert [key(f) for f in resumed.findings] == [
            key(f) for f in straight.findings
        ]

    def test_unknown_relation_rejected(self):
        with pytest.raises(HarnessError):
            FuzzConfig(oracle_relations=("no-such-relation",))


class TestConfigValidation:
    """Impossible configs fail at construction, not mid-session."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("inputs_per_program", 0, "inputs_per_program"),
            ("opts", (), "opts"),
            ("oracle_ulp_bound", -1, "oracle_ulp_bound"),
        ],
    )
    def test_bad_value_rejected_with_harness_error(self, field, value, message):
        with pytest.raises(HarnessError, match=message):
            dataclasses.replace(TINY, **{field: value})
