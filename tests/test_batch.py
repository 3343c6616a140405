"""Batched-execution tests (the PR 9 acceptance criteria).

The hard invariant under test: routing execution through
``run_batch``/``execute_batch`` and compilation through the
:class:`~repro.exec.artifacts.ArtifactCache` changes *nothing
observable* — every printed value, flag snapshot, outcome class, step
count, and ledger byte is identical to the per-row scalar reference, at
every worker count.
"""

from __future__ import annotations

import dataclasses
import pickle
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compilers.hipcc import HipccCompiler
from repro.compilers.nvcc import NvccCompiler
from repro.compilers.options import OptLevel, OptSetting, PAPER_OPT_SETTINGS
from repro.devices.batch import (
    SMALL_N,
    batch_stats,
    reset_batch_stats,
    run_batch,
    vectorizable,
)
from repro.errors import HarnessError, TrapError
from repro.exec import (
    ArtifactCache,
    CachePolicy,
    DerivedTestSpec,
    ExecutionService,
    ProcessPoolBackend,
    RunStore,
    SerialBackend,
    SweepRequest,
)
from repro.exec.disk import ContentDB
from repro.exec.units import RunnerSpec
from repro.fuzz.engine import FuzzConfig, run_fuzz
from repro.harness.runner import DifferentialRunner
from repro.stacks import STACK_NAMES, get_stack
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import build_corpus
from repro.varity.generator import ProgramGenerator
from repro.varity.inputs import InputGenerator

seeds = st.integers(min_value=0, max_value=2**31 - 1)
_slow = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CONFIGS = {
    "fp64": GeneratorConfig.fp64,
    "fp32": GeneratorConfig.fp32,
    "fp16": GeneratorConfig.fp16,
}
OPTS2 = (OptSetting(OptLevel.O0), OptSetting(OptLevel.O3, fast_math=True))


def _sig(result):
    """Everything observable about one run, with NaN-sign-exact value bits."""
    if result is None:
        return None
    return (
        result.printed,
        struct.pack("<d", result.value),
        result.outcome,
        dict(result.flags),
        result.steps,
        result.cost_cycles,
    )


def _reference(device, compiled, rows):
    out = []
    for row in rows:
        try:
            out.append(device.execute(compiled, row))
        except TrapError:
            out.append(None)
    return out


def _rows(cfg, kernel, seed, n):
    gen = InputGenerator(cfg)
    return [gen.generate(kernel, seed + i).values for i in range(n)]


# ----------------------------------------------------------- bit equality
class TestBatchBitEquality:
    @given(seed=seeds, lane=st.sampled_from(sorted(CONFIGS)))
    @_slow
    def test_run_batch_matches_scalar_rows(self, seed, lane):
        """run_batch == row-by-row run, bit for bit, on every stack."""
        cfg = CONFIGS[lane]()
        program = ProgramGenerator(cfg).generate(seed)
        rows = _rows(cfg, program.kernel, seed, 4)
        for name in STACK_NAMES:
            stack = get_stack(name)
            device, compiler = stack.device(), stack.compiler()
            for opt in OPTS2:
                compiled = compiler.compile(program, opt)
                batch = device.execute_batch(compiled, rows)
                expected = _reference(device, compiled, rows)
                assert [_sig(r) for r in batch] == [_sig(r) for r in expected]

    def test_large_lane_takes_vector_path(self):
        """Above SMALL_N the vectorized observe/flush mode engages and
        still matches the scalar reference exactly."""
        cfg = GeneratorConfig.fp32()
        stack = get_stack("nvcc")
        device, compiler = stack.device(), stack.compiler()
        n = SMALL_N * 2 + 8
        checked = 0
        for seed in range(6):
            program = ProgramGenerator(cfg).generate(seed)
            if not vectorizable(program.kernel):
                continue
            rows = _rows(cfg, program.kernel, seed, n)
            for opt in PAPER_OPT_SETTINGS:
                compiled = compiler.compile(program, opt)
                reset_batch_stats()
                batch = device.execute_batch(compiled, rows)
                stats = batch_stats()
                assert stats["vector_batches"] == 1 and stats["vector_rows"] == n
                expected = _reference(device, compiled, rows)
                assert [_sig(r) for r in batch] == [_sig(r) for r in expected]
                checked += 1
        assert checked > 0

    def test_trapped_rows_are_none(self):
        """A step budget small enough to trap every row yields all-None,
        exactly like the scalar loop."""
        cfg = GeneratorConfig.fp32()
        program = ProgramGenerator(cfg).generate(3)
        rows = _rows(cfg, program.kernel, 3, 3)
        device = get_stack("nvcc").device()
        compiled = NvccCompiler().compile(program, OPTS2[0])
        tiny = dataclasses.replace(compiled.exec_options, max_steps=1)
        batch = run_batch(device.interpreter, compiled.kernel, rows, tiny)
        assert batch == [None, None, None]

    def test_trace_options_fall_back_to_scalar(self):
        """Trace mode cannot vectorize: the fallback loop runs and the
        results carry traces."""
        cfg = GeneratorConfig.fp32()
        program = ProgramGenerator(cfg).generate(1)
        rows = _rows(cfg, program.kernel, 1, 3)
        device = get_stack("nvcc").device()
        compiled = NvccCompiler().compile(program, OPTS2[0])
        traced = dataclasses.replace(compiled.exec_options, trace=True)
        reset_batch_stats()
        batch = run_batch(device.interpreter, compiled.kernel, rows, traced)
        stats = batch_stats()
        assert stats["fallback_batches"] == 1 and stats["vector_batches"] == 0
        assert all(r is None or r.trace for r in batch)

    def test_vectorize_false_forces_reference_path(self):
        cfg = GeneratorConfig.fp32()
        program = ProgramGenerator(cfg).generate(2)
        rows = _rows(cfg, program.kernel, 2, 4)
        device = get_stack("nvcc").device()
        compiled = NvccCompiler().compile(program, OPTS2[1])
        reset_batch_stats()
        forced = device.execute_batch(compiled, rows, vectorize=False)
        assert batch_stats()["fallback_batches"] == 1
        assert [_sig(r) for r in forced] == [
            _sig(r) for r in _reference(device, compiled, rows)
        ]


# ---------------------------------------------------------- artifact cache
class TestArtifactCache:
    def test_hit_is_equal_to_fresh_compile(self):
        cfg = GeneratorConfig.fp32()
        program = ProgramGenerator(cfg).generate(5)
        cache = ArtifactCache()
        compiler = NvccCompiler()
        first = cache.compile_sweep(compiler, program, PAPER_OPT_SETTINGS)
        again = cache.compile_sweep(compiler, program, PAPER_OPT_SETTINGS)
        assert cache.hits == len(PAPER_OPT_SETTINGS)
        for label in first:
            assert first[label] == again[label]
            assert first[label] == compiler.compile(program, first[label].opt)

    def test_hipify_twin_shares_nvcc_artifact_not_hipcc(self):
        """nvcc compiles a twin byte-identically (shared artifact);
        hipcc's preprocess diverges, so the twin gets its own key."""
        cfg = GeneratorConfig.fp32()
        program = ProgramGenerator(cfg).generate(6)
        twin = dataclasses.replace(program, via_hipify=True)
        cache = ArtifactCache()
        opt = PAPER_OPT_SETTINGS[0]
        assert cache.key(NvccCompiler(), program, opt) == cache.key(
            NvccCompiler(), twin, opt
        )
        assert cache.key(HipccCompiler(), program, opt) != cache.key(
            HipccCompiler(), twin, opt
        )

    def test_hit_rebinds_program_id(self):
        cfg = GeneratorConfig.fp32()
        program = ProgramGenerator(cfg).generate(7)
        clone = dataclasses.replace(program, program_id="prog-clone")
        cache = ArtifactCache()
        opt = PAPER_OPT_SETTINGS[0]
        cache.compile(NvccCompiler(), program, opt)
        hit = cache.compile(NvccCompiler(), clone, opt)
        assert cache.hits == 1
        assert hit.program_id == "prog-clone"
        assert hit.kernel == cache.compile(NvccCompiler(), program, opt).kernel

    def test_persistent_tier_round_trip(self, tmp_path):
        cfg = GeneratorConfig.fp32()
        program = ProgramGenerator(cfg).generate(8)
        opt = PAPER_OPT_SETTINGS[2]
        first = ArtifactCache(path=tmp_path / "store.sqlite")
        fresh = first.compile(NvccCompiler(), program, opt)
        first.close()
        reopened = ArtifactCache(path=tmp_path / "store.sqlite")
        warm = reopened.compile(NvccCompiler(), program, opt)
        assert reopened.disk_hits == 1 and reopened.misses == 0
        assert warm == fresh
        reopened.close()

    def test_torn_artifact_recompiles(self, tmp_path):
        """A torn (truncated) blob in the artifacts table is a miss and
        is recompiled, never replayed."""
        cfg = GeneratorConfig.fp32()
        program = ProgramGenerator(cfg).generate(9)
        opt = PAPER_OPT_SETTINGS[0]
        path = tmp_path / "store.sqlite"
        fresh = NvccCompiler().compile(program, opt)
        cache = ArtifactCache(path=path)
        key = cache.key(NvccCompiler(), program, opt)
        db = ContentDB(path)
        db.put_artifact(key, pickle.dumps(fresh)[:40])
        db.close()
        compiled = cache.compile(NvccCompiler(), program, opt)
        assert cache.misses == 1 and cache.disk_hits == 0
        assert compiled == fresh
        cache.close()

    def test_corrupt_artifact_is_healed_on_recompile(self, tmp_path):
        """The recompile of a blob that did not unpickle overwrites it:
        the next session hits on disk with a fresh compile's bytes."""
        cfg = GeneratorConfig.fp32()
        program = ProgramGenerator(cfg).generate(10)
        opt = PAPER_OPT_SETTINGS[1]
        path = tmp_path / "store.sqlite"
        fresh = NvccCompiler().compile(program, opt)
        key = ArtifactCache().key(NvccCompiler(), program, opt)
        db = ContentDB(path)
        db.put_artifact(key, b"not a pickle")
        db.close()
        first = ArtifactCache(path=path)
        assert first.compile(NvccCompiler(), program, opt) == fresh
        assert first.misses == 1 and first.disk_hits == 0
        first.close()
        second = ArtifactCache(path=path)
        assert second.compile(NvccCompiler(), program, opt) == fresh
        assert second.disk_hits == 1 and second.misses == 0
        second.close()
        db = ContentDB(path)
        assert db.artifact(key) == pickle.dumps(fresh)
        db.close()

    def test_plain_and_ablated_compilers_never_collide(self):
        """Regression: ablated compilers inherit ``name`` ("nvcc"/
        "hipcc"), and hipcc's FMA pass shares nvcc's name, so keying
        pipelines by name served one compiler's kernel to the other.
        One cache compiles both of every pair; each result must equal
        that compiler's own fresh compile."""
        from repro.analysis.ablation import AblationSpec, _AblatedHipcc, _AblatedNvcc

        program = ProgramGenerator(GeneratorConfig.fp32()).generate(4)
        pairs = [
            (HipccCompiler(), _AblatedHipcc(AblationSpec("ftz", "", same_ftz=True))),
            (NvccCompiler(), _AblatedNvcc(AblationSpec("lib", "", same_mathlib=True))),
            (
                HipccCompiler(),
                _AblatedHipcc(AblationSpec("fma", "", same_contraction=True)),
            ),
        ]
        cache = ArtifactCache()
        for plain, ablated in pairs:
            differs = False
            for opt in PAPER_OPT_SETTINGS:
                for compiler in (plain, ablated):
                    assert cache.compile(compiler, program, opt) == compiler.compile(
                        program, opt
                    ), (type(compiler).__name__, opt.label)
                differs |= plain.compile(program, opt) != ablated.compile(program, opt)
            assert differs  # the pair really compiles differently somewhere

    def test_jsonl_file_is_a_named_error(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"kind": "header", "format": "repro-runstore-v1"}\n')
        with pytest.raises(HarnessError, match="repro-bridge migrate"):
            ArtifactCache(path=path)


# --------------------------------------------------- ledger byte equality
def _flatten(service, chunks):
    out = []
    try:
        for outcomes in service.run_sweeps(chunks):
            for o in outcomes:
                out.append(
                    (
                        o.tag,
                        o.test_id,
                        o.nvcc_executions,
                        o.nvcc_cache_hits,
                        sorted(
                            (d.test_id, d.input_index, d.opt_label, d.dclass.value)
                            for d in o.iter_discrepancies()
                        ),
                    )
                )
    finally:
        service.close()
    return out


class TestLedgerEquality:
    def _chunks(self, corpus, cache):
        return [
            [
                SweepRequest(test=t, opts=OPTS2, tag=("native",), cache=cache),
                SweepRequest(
                    test=DerivedTestSpec(base=t),
                    opts=OPTS2,
                    tag=("hipify",),
                    cache=cache,
                ),
            ]
            for t in corpus.tests
        ]

    def test_outcomes_invariant_to_artifact_cache_and_workers(self, tmp_path):
        """The headline invariant: outcomes are identical with the
        artifact cache on or off, at workers 0, 2, and 4 — and the two
        serial lanes persist byte-identical run stores.  (Pool workers
        use chunk-private stores by design, so the parent store file is
        a serial-lane artifact only.)"""
        corpus = build_corpus(
            GeneratorConfig.fp32(inputs_per_program=2), 6, root_seed=99
        )
        results = {}
        lanes = [
            ("on-w0", True, SerialBackend()),
            ("off-w0", False, SerialBackend()),
            ("on-w2", True, ProcessPoolBackend(2)),
            ("on-w4", True, ProcessPoolBackend(4)),
        ]
        for label, artifacts, backend in lanes:
            cache = CachePolicy(reuse=True, scope="shared", artifacts=artifacts)
            store_path = tmp_path / f"store-{label}.jsonl"
            service = ExecutionService(
                backend=backend, store=RunStore(path=store_path)
            )
            results[label] = _flatten(service, self._chunks(corpus, cache))
            if label == "on-w0":
                assert service.artifacts.hits > 0
        baseline = results["on-w0"]
        for label, _, _ in lanes[1:]:
            assert results[label] == baseline, label
        assert (tmp_path / "store-off-w0.jsonl").read_bytes() == (
            tmp_path / "store-on-w0.jsonl"
        ).read_bytes()

    def test_scalar_lane_matches_batched(self, tmp_path):
        """vectorize=False (per-row scalar interpreter) produces the same
        outcomes and the same persisted store bytes."""
        corpus = build_corpus(
            GeneratorConfig.fp32(inputs_per_program=3), 4, root_seed=17
        )

        def lane(label, runner):
            shared = CachePolicy(reuse=True, scope="shared")
            chunks = [
                [SweepRequest(test=t, opts=OPTS2, runner=runner, cache=shared)]
                for t in corpus.tests
            ]
            store_path = tmp_path / f"store-{label}.jsonl"
            service = ExecutionService(store=RunStore(path=store_path))
            return _flatten(service, chunks), store_path.read_bytes()

        batched, batched_store = lane("batched", RunnerSpec())
        scalar, scalar_store = lane("scalar", RunnerSpec(vectorize=False))
        assert batched == scalar
        assert batched_store == scalar_store

    def test_fuzz_ledger_invariant_at_workers_0_2_4(self, tmp_path):
        config = FuzzConfig(
            seed=23,
            n_seed_programs=8,
            inputs_per_program=2,
            max_mutants=8,
            batch_size=4,
            minimize=False,
        )
        for workers in (0, 2, 4):
            run_fuzz(
                dataclasses.replace(config, workers=workers),
                ledger=tmp_path / f"w{workers}.jsonl",
            )
        w0 = (tmp_path / "w0.jsonl").read_bytes()
        assert (tmp_path / "w2.jsonl").read_bytes() == w0
        assert (tmp_path / "w4.jsonl").read_bytes() == w0


# ------------------------------------------------------- runner rename
class TestRunSweepRename:
    def test_legacy_cache_keywords_still_work(self):
        corpus = build_corpus(
            GeneratorConfig.fp32(inputs_per_program=2), 1, root_seed=5
        )
        test = corpus.tests[0]
        store = RunStore()
        from repro.exec.content import content_id, content_text
        from repro.exec.store import BoundRunCache

        key = content_id(
            test.fptype, content_text(test.program.kernel, test.inputs)
        )
        new = DifferentialRunner()
        new_view = BoundRunCache(store, key)
        new.run_sweep(test, OPTS2, populate_lhs_cache=new_view)
        legacy = DifferentialRunner()
        legacy_view = BoundRunCache(store, key)
        pairs = legacy.run_sweep(test, OPTS2, lhs_cache=legacy_view)
        assert legacy.lhs_executions == 0  # replayed through the view
        assert legacy_view.hits == 2 * len(test.inputs)
        assert all(p.nvcc_runs for p in pairs.values())
