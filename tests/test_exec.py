"""Tests for the unified execution-service layer (repro.exec).

The contracts pinned here are the redesign's acceptance criteria:
content keying (a HIPIFY twin shares its native test's identity), the
two-tier RunStore's rebinding / LRU eviction / disk round-trip, service
dedup of identical work, backend equivalence, and — the headline —
worker-count invariance of campaign JSON and fuzz ledgers.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sqlite3
import struct
from pathlib import Path

import pytest

from repro.compilers.options import OptLevel, OptSetting, PAPER_OPT_SETTINGS
from repro.errors import HarnessError
from repro.exec import (
    CHUNK_CACHE,
    CorpusTestSpec,
    ExecutionService,
    NO_CACHE,
    ProcessPoolBackend,
    RunStore,
    SHARED_CACHE,
    SerialBackend,
    SweepRequest,
    content_id,
    make_backend,
    content_id_for,
)
from repro.exec.store import migrate_jsonl
from repro.fp.types import FPType
from repro.fuzz.engine import FuzzConfig, run_fuzz
from repro.harness.outcomes import RunRecord
from repro.harness.runner import DifferentialRunner
from repro.telemetry.spans import Tracer, set_tracer
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import build_corpus

OPTS2 = (OptSetting(OptLevel.O0), OptSetting(OptLevel.O3, fast_math=True))


@pytest.fixture(scope="module")
def fp32_corpus():
    return build_corpus(GeneratorConfig.fp32(inputs_per_program=2), 8, root_seed=424)


def _record(idx: int, value: float, printed=None, flags=None) -> RunRecord:
    return RunRecord(
        test_id="orig",
        input_index=idx,
        opt_label="O0",
        compiler="nvcc",
        printed=printed if printed is not None else repr(value),
        value=value,
        flags=flags,
    )


def _write_jsonl(path, entries) -> None:
    """A ``repro-runstore-v1`` JSONL store: header, one line per entry."""
    lines = [json.dumps({"kind": "header", "format": "repro-runstore-v1"})]
    for key, value in entries:
        bits = struct.unpack("<Q", struct.pack("<d", value))[0]
        runs = [{"i": 0, "p": repr(value), "b": bits}]
        lines.append(json.dumps({"kind": "entry", "k": key, "o": "O0", "r": runs}))
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _outcome_lines(outcome):
    return [
        (label, r.test_id, r.input_index, r.compiler, r.printed, r.flags)
        for label, pair in outcome.pairs.items()
        for r in (*pair.lhs_runs, *pair.rhs_runs)
    ]


# ----------------------------------------------------------------- content
class TestContentKeying:
    def test_twin_shares_native_identity(self, fp32_corpus):
        test = fp32_corpus.tests[0]
        assert content_id_for(test) == content_id_for(test.hipified())

    def test_different_programs_differ(self, fp32_corpus):
        assert content_id_for(fp32_corpus.tests[0]) != content_id_for(
            fp32_corpus.tests[1]
        )

    def test_prefix_namespaces_only_the_rendering(self):
        a = content_id(FPType.FP32, "body", prefix="fuzz")
        b = content_id(FPType.FP32, "body")
        assert a.startswith("fuzz-fp32-") and b.startswith("ck-fp32-")
        assert a.split("-")[-1] == b.split("-")[-1]  # same hash


# ------------------------------------------------------------------- store
class TestRunStore:
    def test_rebinds_to_requesting_test_id(self):
        store = RunStore()
        store.put("key", "O0", [_record(0, 1.5), None, _record(2, math.inf)])
        out = store.get("key", "O0", test_id="other")
        assert out[1] is None
        assert out[0].test_id == "other" and out[0].value == 1.5
        assert out[2].value == math.inf
        assert store.hits == 1 and store.misses == 0

    def test_nan_payload_bits_survive(self):
        nan = math.nan
        store = RunStore()
        store.put("key", "O0", [_record(0, nan, printed="-nan")])
        (rec,) = store.get("key", "O0", test_id="t")
        assert math.isnan(rec.value) and rec.printed == "-nan"

    def test_miss_counted(self):
        store = RunStore()
        assert store.get("ghost", "O0", test_id="t") is None
        assert store.misses == 1

    def test_lru_eviction(self):
        store = RunStore(max_entries=2)
        for i in range(3):
            store.put(f"k{i}", "O0", [_record(0, float(i))])
        assert len(store) == 2 and store.evictions == 1
        assert store.get("k0", "O0", test_id="t") is None  # evicted, no disk
        assert store.get("k2", "O0", test_id="t") is not None

    def test_disk_round_trip(self, tmp_path):
        path = tmp_path / "store.sqlite"
        first = RunStore(path=path)
        first.put(
            "key", "O0", [_record(0, 2.5, flags={"inexact": 1}), None]
        )
        first.close()
        reopened = RunStore(path=path)
        out = reopened.get("key", "O0", test_id="fresh")
        assert out[0].test_id == "fresh" and out[0].value == 2.5
        assert out[0].flags == {"inexact": 1}
        assert out[1] is None
        assert reopened.disk_hits == 1

    def test_evicted_entry_served_from_disk(self, tmp_path):
        store = RunStore(path=tmp_path / "store.sqlite", max_entries=1)
        store.put("k0", "O0", [_record(0, 1.0)])
        store.put("k1", "O0", [_record(0, 2.0)])  # evicts k0 from memory
        assert store.evictions == 1
        out = store.get("k0", "O0", test_id="t")
        assert out is not None and out[0].value == 1.0
        assert store.disk_hits == 1

    def test_torn_disk_tail_ignored(self, tmp_path):
        """Importing a JSONL store skips its torn final line and any
        unparseable line, and the import is idempotent."""
        jsonl = tmp_path / "store.jsonl"
        _write_jsonl(jsonl, [("k0", 1.0), ("k1", 2.0)])
        with jsonl.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "entry", "k": "k2"')  # killed mid-append
        lines = jsonl.read_text(encoding="utf-8").split("\n")
        lines.insert(2, "not json at all")
        jsonl.write_text("\n".join(lines), encoding="utf-8")
        path = tmp_path / "store.sqlite"
        assert migrate_jsonl(jsonl, path) == 2
        assert migrate_jsonl(jsonl, path) == 0
        with RunStore(path=path) as reopened:
            assert reopened.get("k0", "O0", test_id="t")[0].value == 1.0
            assert reopened.get("k1", "O0", test_id="t")[0].value == 2.0
            assert reopened.get("k2", "O0", test_id="t") is None

    def test_append_after_torn_tail_survives_reopen(self, tmp_path):
        """Entries put after a torn-tail import sit beside the imported
        ones — a third open has to serve both old and new entries."""
        jsonl = tmp_path / "store.jsonl"
        _write_jsonl(jsonl, [("k0", 1.0)])
        with jsonl.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "entry", "k": "torn"')
        path = tmp_path / "store.sqlite"
        migrate_jsonl(jsonl, path)
        second = RunStore(path=path)
        second.put("k1", "O0", [_record(0, 2.0)])
        second.close()
        third = RunStore(path=path)
        assert third.get("k0", "O0", test_id="t")[0].value == 1.0
        assert third.get("k1", "O0", test_id="t")[0].value == 2.0

    def test_jsonl_file_is_a_named_error(self, tmp_path):
        """An old JSONL store opened as the SQLite tier names the import
        command instead of raising sqlite3.DatabaseError."""
        jsonl = tmp_path / "store.jsonl"
        _write_jsonl(jsonl, [("k0", 1.0)])
        with pytest.raises(HarnessError, match="repro-bridge migrate"):
            RunStore(path=jsonl)

    def test_corrupt_row_is_a_miss_and_re_executes(self, tmp_path, fp32_corpus):
        test = fp32_corpus.tests[0]
        path = tmp_path / "store.sqlite"
        request = SweepRequest(test=test, opts=OPTS2, cache=SHARED_CACHE)
        with ExecutionService(store=RunStore(path=path)) as warm:
            (fresh,) = warm.run_chunk([request])
        with sqlite3.connect(str(path)) as conn:
            conn.execute("UPDATE runs SET r = '[{\"i\": 0, \"p\"'")
        conn.close()
        with ExecutionService(store=RunStore(path=path)) as service:
            (replayed,) = service.run_chunk([request])
            assert service.store.disk_hits == 0
            assert service.store.misses == len(OPTS2)
        assert replayed.nvcc_executions == fresh.nvcc_executions > 0
        assert _outcome_lines(replayed) == _outcome_lines(fresh)

    def test_view_pairs_native_with_twin(self, fp32_corpus):
        """The store view replays a twin's CUDA half bit-identically —
        the fused-arm invariant, now by content instead of test id."""
        test = fp32_corpus.tests[0]
        store = RunStore()
        DifferentialRunner().run_sweep(test, OPTS2, lhs_cache=store.view_for(test))
        twin = test.hipified()
        view = store.view_for(twin)
        runner = DifferentialRunner()
        sweep = runner.run_sweep(twin, OPTS2, lhs_cache=view)
        assert runner.lhs_executions == 0
        assert view.hits == len(OPTS2) * len(test.inputs)
        scratch = DifferentialRunner().run_sweep(twin, OPTS2)
        key = lambda r: (r.test_id, r.input_index, r.opt_label, r.printed)
        for label in sweep:
            assert list(map(key, sweep[label].lhs_runs)) == list(
                map(key, scratch[label].lhs_runs)
            )


# ------------------------------------------------------ run-store golden
#: ``tests/goldens/runstore_v1.jsonl`` — a ``repro-runstore-v1`` JSONL store
#: written by the JSONL ``RunStore`` disk tier: four entries from a real
#: nvcc-lhs and cpu-lhs service sweep (so two keys are ``cpu@``-qualified),
#: then hand-put entries with flags, a trapped input, NaN / ±inf, -0.0 and
#: a subnormal, then a torn final line appended by hand.  Each expected run
#: is ``None`` (trapped) or ``(input_index, printed, value_bits, flags)``
#: exactly as that writer's own reader returned it; the JSONL format is now
#: only an import source, so this file is its one readable specimen.
RUNSTORE_GOLDEN = Path(__file__).parent / "goldens" / "runstore_v1.jsonl"
_REAL = (
    (0, "8.8762001322964783e-16", 4381996774517112832, None),
    (1, "0.0007871100096963346", 4560399031724933120, None),
)
RUNSTORE_GOLDEN_ENTRIES = {
    ("ck-fp32-d26d19a4c98774df", "O0"): _REAL,
    ("ck-fp32-d26d19a4c98774df", "O3_FM"): _REAL,
    ("cpu@ck-fp32-d26d19a4c98774df", "O0"): _REAL,
    ("cpu@ck-fp32-d26d19a4c98774df", "O3_FM"): _REAL,
    ("ck-fp64-00000000golden01", "O0"): (
        (0, "2.5", 4612811918334230528, {"inexact": 1, "underflow": 0}),
        None,
        (2, "4.94066e-324", 1, {"inexact": 1, "underflow": 1}),
    ),
    ("ck-fp64-00000000golden01", "O3_FM"): (
        (0, "-nan", 18444492273895866369, None),
        (1, "inf", 9218868437227405312, None),
        (2, "-inf", 18442240474082181120, None),
    ),
    ("cpu@ck-fp32-00000000golden02", "O1"): (
        None,
        (1, "-0", 9223372036854775808, None),
        (2, "3.40282e+38", 5183643170566569984, None),
    ),
}
RUNSTORE_GOLDEN_TORN = ("ck-fp64-00000000golden03", "O0")


def _replayed(records):
    return tuple(
        None
        if r is None
        else (
            r.input_index,
            r.printed,
            struct.unpack("<Q", struct.pack("<d", r.value))[0],
            r.flags,
        )
        for r in records
    )


class TestRunStoreGolden:
    def test_golden_import_is_idempotent(self, tmp_path):
        path = tmp_path / "store.sqlite"
        assert migrate_jsonl(RUNSTORE_GOLDEN, path) == len(RUNSTORE_GOLDEN_ENTRIES)
        assert migrate_jsonl(RUNSTORE_GOLDEN, path) == 0

    def test_golden_replays_bit_identically(self, tmp_path):
        path = tmp_path / "store.sqlite"
        migrate_jsonl(RUNSTORE_GOLDEN, path)
        with RunStore(path=path) as store:
            for (key, opt), expected in RUNSTORE_GOLDEN_ENTRIES.items():
                out = store.get(key, opt, test_id="t", compiler="x")
                assert _replayed(out) == expected, (key, opt)
            assert store.get(*RUNSTORE_GOLDEN_TORN, test_id="t") is None
            assert store.disk_hits == len(RUNSTORE_GOLDEN_ENTRIES)


# ----------------------------------------------------------------- service
class TestExecutionService:
    def test_identical_requests_dedupe(self, fp32_corpus):
        test = fp32_corpus.tests[0]
        service = ExecutionService()
        a, b = service.run_chunk(
            [
                SweepRequest(test=test, opts=OPTS2, tag=("first",)),
                SweepRequest(test=test, opts=OPTS2, tag=("second",)),
            ]
        )
        assert not a.deduped and b.deduped
        assert b.nvcc_executions == 0 and b.hipcc_executions == 0
        assert service.metrics.deduped == 1
        keys = lambda o: [
            (d.test_id, d.input_index, d.opt_label, d.dclass.value)
            for d in o.iter_discrepancies()
        ]
        assert keys(a) == keys(b)

    def test_twin_request_is_not_a_dupe_but_rides_the_store(self, fp32_corpus):
        test = fp32_corpus.tests[0]
        service = ExecutionService()
        native, twin = service.run_chunk(
            [
                SweepRequest(test=test, opts=OPTS2, tag=("native",), cache=CHUNK_CACHE),
                SweepRequest(
                    test=test.hipified(), opts=OPTS2, tag=("hipify",), cache=CHUNK_CACHE
                ),
            ]
        )
        assert not twin.deduped  # different HIP compilation: real work
        assert twin.nvcc_executions == 0  # ... but the CUDA half replayed
        assert twin.nvcc_cache_hits == len(OPTS2) * len(test.inputs)
        assert native.nvcc_executions > 0 and native.nvcc_cache_hits == 0

    def test_corpus_spec_resolves_like_the_corpus(self, fp32_corpus):
        spec = CorpusTestSpec(
            gen=fp32_corpus.config, index=3, root_seed=fp32_corpus.root_seed
        )
        test = spec.resolve()
        assert test.test_id == fp32_corpus.tests[3].test_id
        assert content_id_for(test) == content_id_for(fp32_corpus.tests[3])

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("method", ["run_sweeps", "run_sweeps_unordered"])
    def test_pool_backend_matches_serial(self, fp32_corpus, method, traced):
        """Every dispatch combination (ordered or unordered, tracing off
        or on) matches the serial run's outcomes and counters."""
        chunks = [
            [
                SweepRequest(test=t, opts=OPTS2, tag=("native",), cache=CHUNK_CACHE),
                SweepRequest(
                    test=t.hipified(), opts=OPTS2, tag=("hipify",), cache=CHUNK_CACHE
                ),
            ]
            for t in fp32_corpus.tests[:4]
        ]

        def run(service):
            tracer = Tracer() if traced else None
            previous = set_tracer(tracer)
            try:
                if method == "run_sweeps":
                    results = list(service.run_sweeps(chunks))
                else:
                    results = [
                        outcomes
                        for _, outcomes in sorted(
                            service.run_sweeps_unordered(chunks),
                            key=lambda item: item[0],
                        )
                    ]
                stats = service.stats()
            finally:
                set_tracer(previous)
                service.close()
            del stats["phase_seconds"]
            out = [
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
                for outcomes in results
                for o in outcomes
            ]
            return out, stats, tracer

        serial, serial_stats, _ = run(ExecutionService(backend=SerialBackend()))
        pooled, pooled_stats, tracer = run(
            ExecutionService(backend=ProcessPoolBackend(2))
        )
        assert serial == pooled
        assert serial_stats == pooled_stats
        if traced:
            spans = [r for r in tracer.records() if r.name == "exec.chunk"]
            assert sorted(r.chunk for r in spans) == list(range(len(chunks)))
            assert all(r.pid != os.getpid() for r in spans)

    def test_make_backend(self):
        assert make_backend(0).name == "serial"
        assert make_backend(1).name == "serial"
        backend = make_backend(3)
        assert backend.name == "process-pool" and backend.workers == 3
        backend.close()


# ---------------------------------------------------- worker-count invariance
class TestWorkerInvariance:
    def test_campaign_json_invariant_across_workers(self, tmp_path):
        """The acceptance bar: repro-campaign --json at workers=0 and
        workers=2 differ only in the recorded worker count and wall
        clock — every result and counter is byte-identical."""
        from repro.cli import main

        def payload(workers):
            out = tmp_path / f"campaign-w{workers}.json"
            assert (
                main(
                    [
                        "--seed", "7", "--fp64-programs", "8", "--fp32-programs", "4",
                        "--inputs", "2", "--workers", str(workers),
                        "--json", str(out),
                    ]
                )
                == 0
            )
            data = json.loads(out.read_text())
            # The only legitimately scheduling-dependent fields: wall
            # clock, the worker count, and the exec phase timings.
            data.pop("elapsed_seconds")
            data["config"].pop("workers")
            data["exec"].pop("phase_seconds")
            return data

        serial = payload(0)
        pooled = payload(2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)
        assert "exec" in serial and serial["exec"]["nvcc_executions"] > 0

    def test_fp16_arm_json_invariant_across_workers(self, tmp_path):
        """The FP16 acceptance bar: --include-fp16 produces the
        fp16/fp16_hipify pair with nonzero runs, byte-identical across
        worker counts, and the hipify arm's CUDA half fully replayed
        from the fused pair's run store."""
        from repro.cli import main

        def payload(workers):
            out = tmp_path / f"fp16-w{workers}.json"
            assert (
                main(
                    [
                        "--seed", "7", "--fp64-programs", "2", "--no-fp32",
                        "--include-fp16", "--fp16-programs", "6", "--inputs", "2",
                        "--workers", str(workers), "--json", str(out),
                        "--no-adjacency",
                    ]
                )
                == 0
            )
            data = json.loads(out.read_text())
            data.pop("elapsed_seconds")
            data["config"].pop("workers")
            data["exec"].pop("phase_seconds")
            return data

        serial = payload(0)
        pooled = payload(2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)
        assert set(serial["arms"]) == {"fp64", "fp64_hipify", "fp16", "fp16_hipify"}
        fp16 = serial["arms"]["fp16"]
        twin = serial["arms"]["fp16_hipify"]
        assert fp16["total_runs"] > 0 and twin["total_runs"] > 0
        # Cross-arm nvcc replay holds for the new precision pair.
        assert twin["nvcc_executions"] == 0
        assert twin["nvcc_cache_hits"] > 0

    def test_fuzz_ledger_invariant_across_workers(self, tmp_path):
        config = FuzzConfig(
            seed=11,
            n_seed_programs=10,
            inputs_per_program=2,
            max_mutants=12,
            batch_size=6,
            minimize=False,
        )
        serial = run_fuzz(config, ledger=tmp_path / "serial.jsonl")
        pooled = run_fuzz(
            dataclasses.replace(config, workers=2), ledger=tmp_path / "pooled.jsonl"
        )
        assert (tmp_path / "serial.jsonl").read_bytes() == (
            tmp_path / "pooled.jsonl"
        ).read_bytes()
        # Committed accounting is invariant too (discarded speculation is
        # never counted).
        for attr in (
            "pair_runs", "nvcc_executions", "nvcc_cache_hits",
            "mutants_run", "fresh_explored", "duplicates", "raw_discrepancies",
        ):
            assert getattr(serial, attr) == getattr(pooled, attr), attr

    def test_workers_excluded_from_fingerprint(self, tmp_path):
        assert FuzzConfig(workers=4).fingerprint() == FuzzConfig().fingerprint()
        # ... so a serial ledger resumes under a parallel config.
        config = FuzzConfig(
            seed=11, n_seed_programs=8, inputs_per_program=2,
            max_mutants=6, batch_size=3, minimize=False,
        )
        run_fuzz(config, ledger=tmp_path / "ledger.jsonl")
        resumed = run_fuzz(
            dataclasses.replace(config, workers=2, max_mutants=6),
            ledger=tmp_path / "ledger.jsonl",
            resume=True,
        )
        assert resumed.resumed_iterations == 6

    def test_ablation_counts_invariant_across_workers(self, fp32_corpus):
        from repro.analysis.ablation import ABLATIONS, run_ablation

        specs = ABLATIONS[:2]
        tests = fp32_corpus.tests[:4]
        corpus = dataclasses.replace(fp32_corpus, tests=tests)
        serial = run_ablation(corpus, specs, OPTS2)
        pooled = run_ablation(corpus, specs, OPTS2, workers=2)
        assert [r.by_opt for r in serial] == [r.by_opt for r in pooled]


class TestFuzzCliWorkers:
    def test_workers_flag_parses(self):
        from repro.fuzz.cli import _config_from_args, build_parser

        parser = build_parser()
        config = _config_from_args(parser, parser.parse_args(["--workers", "3"]))
        assert config.workers == 3
        with pytest.raises(SystemExit):
            _config_from_args(parser, parser.parse_args(["--workers", "-1"]))

    def test_report_prints_exec_metrics(self, capsys):
        from repro.fuzz.cli import main

        assert (
            main(
                [
                    "--seed", "11", "--seed-programs", "6", "--inputs", "2",
                    "--mutants", "4", "--no-minimize", "--report",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Execution service (committed work):" in out
        assert "nvcc cache misses" in out
