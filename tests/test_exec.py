"""Tests for the unified execution-service layer (repro.exec).

The contracts pinned here are the redesign's acceptance criteria:
content keying (a HIPIFY twin shares its native test's identity), the
RunStore's rebinding / bit-exact replay / LRU eviction, service
dedup of identical work, backend equivalence, and — the headline —
worker-count invariance of campaign JSON and fuzz ledgers.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import sys
import threading

import pytest

from repro.compilers.options import OptLevel, OptSetting, PAPER_OPT_SETTINGS
from repro.exec import (
    CorpusTestSpec,
    ExecutionService,
    ProcessPoolBackend,
    RunStore,
    RunnerSpec,
    SerialBackend,
    SweepRequest,
    content_id,
    make_backend,
    content_id_for,
)
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


def _outcome_lines(outcome):
    return [
        (label, r.test_id, r.input_index, r.compiler, r.printed, r.flags)
        for label, pair in outcome.pairs.items()
        for r in (*pair.lhs_runs, *pair.rhs_runs)
    ]


def _outcome_records(outcome):
    return [
        r for pair in outcome.pairs.values() for r in (*pair.lhs_runs, *pair.rhs_runs)
    ]


def _twin_chunks(corpus):
    """One chunk per test: the native sweep plus its HIPIFY twin."""
    return [
        [
            SweepRequest(test=t, opts=OPTS2, tag=("native",)),
            SweepRequest(test=t.hipified(), opts=OPTS2, tag=("hipify",)),
        ]
        for t in corpus.tests[:4]
    ]


def _sweep_summary(service, chunks, method, traced):
    """Run ``chunks`` through ``service`` (then close it); return the
    outcomes' comparable fields, ``stats()`` minus wall-clock phases, and
    the tracer (``None`` untraced)."""
    tracer = Tracer() if traced else None
    previous = set_tracer(tracer)
    try:
        if method == "run_sweeps":
            results = list(service.run_sweeps(chunks))
        else:
            results = [
                outcomes
                for _, outcomes in sorted(
                    service.run_sweeps_unordered(chunks), key=lambda item: item[0]
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
            o.hipcc_executions,
            sorted(
                (d.test_id, d.input_index, d.opt_label, d.dclass.value)
                for d in o.iter_discrepancies()
            ),
        )
        for outcomes in results
        for o in outcomes
    ]
    return out, stats, tracer


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
        assert store.get("k0", "O0", test_id="t") is None  # evicted
        assert store.get("k2", "O0", test_id="t") is not None

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

    def test_replays_every_payload_bit_identically(self):
        """Every neutral field survives a put/get round trip bit for bit:
        a NaN payload and sign, ±inf, -0.0, the smallest subnormal, IEEE
        flags and a trapped input, attributed to the requested stack."""
        entry = [
            _record(0, _float(0xFFF8000000000001), printed="-nan"),
            _record(1, math.inf, printed="inf"),
            _record(2, -math.inf, printed="-inf"),
            _record(3, -0.0, printed="-0"),
            _record(4, _float(1), printed="4.94066e-324",
                    flags={"inexact": 1, "underflow": 1}),
            None,
        ]
        store = RunStore()
        store.put("ck-fp64-payloads", "O3_FM", entry)
        out = store.get("ck-fp64-payloads", "O3_FM", test_id="t", compiler="cpu")
        assert [_replayed(r) for r in out] == [
            (0, "-nan", 0xFFF8000000000001, None),
            (1, "inf", 0x7FF0000000000000, None),
            (2, "-inf", 0xFFF0000000000000, None),
            (3, "-0", 0x8000000000000000, None),
            (4, "4.94066e-324", 1, {"inexact": 1, "underflow": 1}),
            None,
        ]
        assert all(r.test_id == "t" and r.compiler == "cpu" for r in out if r)

    def test_view_for_binds_the_content_id(self, fp32_corpus):
        view = RunStore().view_for(fp32_corpus.tests[0])
        assert view.key == content_id_for(fp32_corpus.tests[0])

    def test_max_entries_validated(self):
        with pytest.raises(ValueError, match="max_entries"):
            RunStore(max_entries=0)

    def test_get_refreshes_lru_order(self):
        """A hit makes its entry the most recent, so the next eviction
        takes the least recently *used* entry, not the oldest put."""
        store = RunStore(max_entries=2)
        store.put("k0", "O0", [_record(0, 0.0)])
        store.put("k1", "O0", [_record(0, 1.0)])
        assert store.get("k0", "O0", test_id="t") is not None
        store.put("k2", "O0", [_record(0, 2.0)])
        assert store.get("k1", "O0", test_id="t") is None
        assert store.get("k0", "O0", test_id="t")[0].value == 0.0

    def test_entries_are_keyed_by_opt_label(self):
        store = RunStore()
        store.put("key", "O0", [_record(0, 1.0)])
        store.put("key", "O3_FM", [_record(0, 3.0)])
        assert len(store) == 2
        assert store.get("key", "O0", test_id="t")[0].value == 1.0
        (rec,) = store.get("key", "O3_FM", test_id="t")
        assert rec.value == 3.0 and rec.opt_label == "O3_FM"
        assert store.get("key", "O1", test_id="t") is None
        assert store.stats() == {
            "entries": 2, "hits": 2, "misses": 1, "puts": 2, "evictions": 0,
        }

    def test_replayed_flags_do_not_alias_the_entry(self):
        """A caller mutating a replayed record's flags cannot change what
        the next replay of the same entry returns."""
        store = RunStore()
        store.put("key", "O0", [_record(0, 1.0, flags={"inexact": 1})])
        (first,) = store.get("key", "O0", test_id="a")
        first.flags["overflow"] = 1
        (second,) = store.get("key", "O0", test_id="b")
        assert second.flags == {"inexact": 1}


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _replayed(record):
    if record is None:
        return None
    bits = struct.unpack("<Q", struct.pack("<d", record.value))[0]
    return (record.input_index, record.printed, bits, record.flags)


# ----------------------------------------------------------------- service
class _RecordingBackend(ProcessPoolBackend):
    """The pool backend's dispatch attributes with its tasks run
    in-process: it records every payload and completes unordered tasks
    in reverse submission order."""

    name = "recording"

    def __init__(self) -> None:
        super().__init__(2)
        self.payloads = []

    def imap(self, fn, payloads):
        payloads = list(payloads)
        self.payloads.extend(payloads)
        return map(fn, payloads)

    def imap_unordered(self, fn, payloads):
        payloads = list(payloads)
        self.payloads.extend(payloads)
        return reversed([fn(p) for p in payloads])


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
                SweepRequest(test=test, opts=OPTS2, tag=("native",)),
                SweepRequest(test=test.hipified(), opts=OPTS2, tag=("hipify",)),
            ]
        )
        assert not twin.deduped  # different HIP compilation: real work
        assert twin.nvcc_executions == 0  # ... but the CUDA half replayed
        assert twin.nvcc_cache_hits == len(OPTS2) * len(test.inputs)
        assert native.nvcc_executions > 0 and native.nvcc_cache_hits == 0

    def test_given_store_replays_across_chunks(self):
        """A service given a store replays every in-process reuse request
        through it, so the second chunk's left side is served from the
        first chunk's runs; without one, and in pool workers, each chunk
        has a private store and executes both sides."""
        test = build_corpus(
            GeneratorConfig.fp32(inputs_per_program=3), 1, root_seed=1
        ).tests[0]
        chunks = [[SweepRequest(test=test, opts=OPTS2)] for _ in range(2)]
        services = {
            "given store": (ExecutionService(store=RunStore()), [(6, 0), (0, 6)]),
            "serial": (ExecutionService(), [(6, 0), (6, 0)]),
            "pool": (ExecutionService(ProcessPoolBackend(2)), [(6, 0), (6, 0)]),
        }
        found = {}
        for label, (service, expected) in services.items():
            with service:
                outcomes = [o for chunk in service.run_sweeps(chunks) for o in chunk]
            counts = [(o.nvcc_executions, o.nvcc_cache_hits) for o in outcomes]
            assert counts == expected, label
            found[label] = [
                [(d.input_index, d.opt_label, d.dclass.value) for d in o.iter_discrepancies()]
                for o in outcomes
            ]
        assert found["serial"][0]  # the test has discrepancies to compare
        assert found["given store"] == found["serial"] == found["pool"]

    def test_no_reuse_request_bypasses_the_given_store(self, fp32_corpus):
        """``reuse=False`` executes both sides in every chunk and leaves
        the service's store untouched, with the outcomes of a reuse
        request."""
        test = fp32_corpus.tests[2]
        store = RunStore()
        with ExecutionService(store=store) as service:
            plain = [
                o
                for chunk in service.run_sweeps(
                    [[SweepRequest(test=test, opts=OPTS2, reuse=False)]] * 2
                )
                for o in chunk
            ]
            executions = len(OPTS2) * len(test.inputs)
            assert [(o.nvcc_executions, o.nvcc_cache_hits) for o in plain] == [
                (executions, 0)
            ] * 2
            assert len(store) == 0 and store.hits == store.misses == 0
            (reused,) = service.run_chunk([SweepRequest(test=test, opts=OPTS2)])
            assert len(store) == len(OPTS2)
        assert reused.nvcc_executions == executions
        assert _outcome_lines(plain[0]) == _outcome_lines(plain[1])
        assert _outcome_lines(plain[0]) == _outcome_lines(reused)

    def test_flag_recording_requests_never_share_flagless_store_entries(
        self, fp32_corpus
    ):
        """On a shared store, a ``record_flags`` request for content a
        plain request ran first gets left-side records with flags, equal
        to a storeless run's, and a plain request after it gets none; each
        replays only its own kind.  Plain entries keep the bare content
        key."""
        test = fp32_corpus.tests[1]
        flagged = RunnerSpec(record_flags=True)
        plain_req = SweepRequest(test=test, opts=OPTS2)
        flag_req = SweepRequest(test=test, opts=OPTS2, runner=flagged)
        with ExecutionService() as fresh:
            (expected,) = fresh.run_chunk([flag_req])
        assert all(r.flags is not None for r in _outcome_records(expected))
        store = RunStore()
        with ExecutionService(store=store) as service:
            (plain,) = service.run_chunk([plain_req])
            assert store.get(content_id_for(test), "O0", test_id=test.test_id)
            (first, again) = [service.run_chunk([flag_req])[0] for _ in range(2)]
            (plain_again,) = service.run_chunk([plain_req])
        assert _outcome_lines(first) == _outcome_lines(expected)
        assert _outcome_lines(again) == _outcome_lines(expected)
        executions = len(OPTS2) * len(test.inputs)
        assert (first.nvcc_executions, first.nvcc_cache_hits) == (executions, 0)
        assert (again.nvcc_executions, again.nvcc_cache_hits) == (0, executions)
        assert (plain_again.nvcc_executions, plain_again.nvcc_cache_hits) == (
            0,
            executions,
        )
        assert all(r.flags is None for r in _outcome_records(plain_again))
        assert _outcome_lines(plain_again) == _outcome_lines(plain)

    def test_chunk_renders_each_content_once(self, fp32_corpus, monkeypatch):
        """A HIPIFY twin and a repeated request share their original's
        content id without rendering the kernel again; the ids equal
        ``content_id_for``."""
        import repro.exec.service as service_mod

        rendered = []
        original = service_mod.content_text

        def counting(kernel, inputs):
            rendered.append(kernel.name)
            return original(kernel, inputs)

        monkeypatch.setattr(service_mod, "content_text", counting)
        a, b = fp32_corpus.tests[:2]
        outcomes = ExecutionService().run_chunk(
            [
                SweepRequest(test=t, opts=OPTS2, tag=(i,))
                for i, t in enumerate((a, a.hipified(), b, a, b.hipified()))
            ]
        )
        assert len(rendered) == 2
        assert [o.content_key for o in outcomes] == [
            content_id_for(t) for t in (a, a, b, a, b)
        ]

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
        chunks = _twin_chunks(fp32_corpus)
        serial, serial_stats, _ = _sweep_summary(
            ExecutionService(backend=SerialBackend()), chunks, method, traced
        )
        pooled, pooled_stats, tracer = _sweep_summary(
            ExecutionService(backend=ProcessPoolBackend(2)), chunks, method, traced
        )
        assert serial == pooled
        assert serial_stats == pooled_stats
        if traced:
            spans = [r for r in tracer.records() if r.name == "exec.chunk"]
            assert sorted(r.chunk for r in spans) == list(range(len(chunks)))
            assert all(r.pid != os.getpid() for r in spans)

    @pytest.mark.parametrize(
        "platform, parked_thread, expected",
        [
            ("linux", False, "fork"),
            ("darwin", False, "spawn"),
            ("linux", True, "spawn"),
        ],
        ids=["linux-single-thread", "macos", "linux-live-thread"],
    )
    def test_pool_start_method_rule(
        self, fp32_corpus, monkeypatch, platform, parked_thread, expected
    ):
        """Fork only from a single-threaded Linux parent; either start
        method reproduces the serial run exactly."""
        monkeypatch.setattr(sys, "platform", platform)
        parked = threading.Event()
        thread = threading.Thread(target=parked.wait, daemon=True)
        if parked_thread:
            thread.start()
        else:
            # A thread some other test left running must not flip the
            # fork branch to spawn.
            monkeypatch.setattr(threading, "active_count", lambda: 1)
        chunks = _twin_chunks(fp32_corpus)
        backend = ProcessPoolBackend(2)
        assert backend.start_method is None
        try:
            pooled, pooled_stats, _ = _sweep_summary(
                ExecutionService(backend=backend), chunks, "run_sweeps", False
            )
        finally:
            parked.set()
            if parked_thread:
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert backend.start_method == expected
        serial, serial_stats, _ = _sweep_summary(
            ExecutionService(backend=SerialBackend()), chunks, "run_sweeps", False
        )
        assert pooled == serial
        assert pooled_stats == serial_stats

    @pytest.mark.skipif(sys.platform != "linux", reason="fork start method is Linux-only")
    def test_forked_workers_ignore_inherited_parent_state(self, fp32_corpus, monkeypatch):
        """A forked worker inherits the parent's process-wide ablated
        runner with the serial run's nonzero execution counters and warm
        caches; outcomes and counters must still equal the serial run's,
        and the pool's work must not run in the parent."""
        from repro.analysis.ablation import ABLATIONS, build_ablated_runner
        from repro.devices.batch import batch_stats

        monkeypatch.setattr(threading, "active_count", lambda: 1)
        spec = ABLATIONS[1]
        chunks = [
            [
                SweepRequest(
                    test=t, opts=OPTS2, tag=(t.test_id,), runner=RunnerSpec(ablation=spec)
                )
                for t in fp32_corpus.tests[lo : lo + 2]
            ]
            for lo in range(0, 4, 2)
        ]
        serial, serial_stats, _ = _sweep_summary(
            ExecutionService(backend=SerialBackend()), chunks, "run_sweeps", False
        )
        assert build_ablated_runner(spec).lhs_executions > 0
        assert all(nv > 0 and hp > 0 for _, _, nv, _, hp, _ in serial)
        backend = ProcessPoolBackend(2)
        parent_batches = batch_stats()
        pooled, pooled_stats, _ = _sweep_summary(
            ExecutionService(backend=backend), chunks, "run_sweeps", False
        )
        assert backend.start_method == "fork"
        assert batch_stats() == parent_batches
        assert pooled == serial
        assert pooled_stats == serial_stats

    @pytest.mark.parametrize("method", ["run_sweeps", "run_sweeps_unordered"])
    def test_remote_backend_gets_one_chunk_per_task(self, fp32_corpus, method):
        """Each remote task carries exactly one indexed chunk, submitted
        in chunk order; out-of-order completion still yields ordered
        results (ordered sweeps) or the right indices (unordered ones),
        and the outcomes equal the serial run's."""
        chunks = _twin_chunks(fp32_corpus) * 2
        backend = _RecordingBackend()
        service = ExecutionService(backend=backend)
        if method == "run_sweeps":
            arrived = list(enumerate(service.run_sweeps(chunks)))
        else:
            arrived = list(service.run_sweeps_unordered(chunks))
            assert [i for i, _ in arrived] == list(reversed(range(len(chunks))))
        assert [
            (traced, [(index, [r.tag for r in requests]) for index, requests in group])
            for traced, group in backend.payloads
        ] == [(False, [(i, [r.tag for r in chunk])]) for i, chunk in enumerate(chunks)]
        by_index = dict(arrived)
        for i, chunk in enumerate(chunks):
            assert [o.tag for o in by_index[i]] == [r.tag for r in chunk]
            assert [o.test_id for o in by_index[i]] == [r.test.test_id for r in chunk]
        recorded, recorded_stats, _ = _sweep_summary(
            ExecutionService(backend=_RecordingBackend()), chunks, method, False
        )
        serial, serial_stats, _ = _sweep_summary(
            ExecutionService(backend=SerialBackend()), chunks, method, False
        )
        assert recorded == serial
        assert recorded_stats == serial_stats

    def test_make_backend(self):
        assert make_backend(0).name == "serial"
        assert make_backend(1).name == "serial"
        backend = make_backend(3)
        assert backend.name == "process-pool" and backend.workers == 3
        backend.close()


class TestRunnerSpec:
    def test_ablation_alone_builds_the_ablated_runner(self):
        from repro.analysis.ablation import ABLATIONS, build_ablated_runner

        spec = ABLATIONS[1]
        assert RunnerSpec(ablation=spec).build() is build_ablated_runner(spec)

    @pytest.mark.parametrize(
        "field, value",
        [("stacks", ("nvcc", "cpu")), ("record_flags", True)],
    )
    def test_ablation_rejects_fields_it_would_ignore(self, field, value):
        """An ablated runner is always the default nvcc/hipcc runner
        without flag recording, so a field it cannot honour is
        an error, not a silently different dedup key."""
        from repro.analysis.ablation import ABLATIONS

        with pytest.raises(ValueError, match=rf"cannot honour {field}$"):
            RunnerSpec(ablation=ABLATIONS[1], **{field: value})


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
        # The store block keeps its shape: ``disk_hits`` stays, always 0.
        for data in (serial, pooled):
            store = data["exec"]["store"]
            assert set(store) == {"hits", "misses", "evictions", "disk_hits"}
            assert store["disk_hits"] == 0

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
