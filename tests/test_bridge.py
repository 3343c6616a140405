"""Tests for the distributed bridge (repro.bridge).

The contracts pinned here are the subsystem's acceptance criteria: the
job queue's lease/ack state machine (expiry re-queues a dead worker's
chunk, the guarded commit is exactly-once), ordered delivery from
:class:`BridgeBackend` making campaign JSON and fuzz ledgers
byte-identical to serial at any worker count, and the SQLite run store
that ``RunStore(path=...)`` opens: shared by concurrent writers, and
fed from an old JSONL store by ``repro-bridge migrate``.

Workers run as in-process threads pulling from a real HTTP server on a
loopback port — the full wire path, without process-spawn latency.  A
SIGKILLed worker is, to the server, a worker that leased a chunk and
went silent; the kill tests model exactly that.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import struct
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.bridge import BridgeBackend, BridgeClient, BridgeError, JobQueue
from repro.bridge.schemas import PROTOCOL_VERSION, decode_blob, encode_blob
from repro.bridge.server import main as bridge_main
from repro.bridge.server import start_server
from repro.bridge.worker import run_worker
from repro.errors import HarnessError
from repro.exec import RunStore, resolve_backend
from repro.exec.store import migrate_jsonl
from repro.fuzz.engine import FuzzConfig, run_fuzz
from repro.harness.campaign import CampaignConfig
from repro.harness.outcomes import RunRecord
from repro.oracle.engine import OracleConfig


# Chunk functions must be module-level (pickled by reference, exactly
# like the process pool's contract).
def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom on {x}")


def _slow_square(x):
    time.sleep(0.5)
    return x * x


def _hammer_store(path, writer, n, barrier):
    """One writer process: its own keys plus keys every writer races on."""
    barrier.wait(timeout=60)  # start together, so the writes contend
    with RunStore(path) as store:
        for i in range(n):
            store.put(f"shared-{i}", "O0", [_record(0, float(writer))])
            store.put(f"w{writer}-{i}", "O0", [_record(0, float(i))])
    return writer


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


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


@contextmanager
def _fleet(tmp_path, n_workers, **server_kwargs):
    """A live bridge server plus ``n_workers`` worker threads."""
    server = start_server(tmp_path / "queue.sqlite", **server_kwargs)
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=run_worker,
            args=(server.url,),
            kwargs=dict(worker_id=f"w{i}", poll_seconds=0.01, stop_event=stop),
            daemon=True,
        )
        for i in range(n_workers)
    ]
    for t in threads:
        t.start()
    try:
        yield server
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)
        server.close()


# ------------------------------------------------------------- job queue
class TestJobQueue:
    def test_submit_lease_complete_collect(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as queue:
            assert queue.submit("r", [(0, "p0"), (1, "p1")]) == 2
            # Re-submitting is idempotent: the first submission wins.
            assert queue.submit("r", [(0, "other")]) == 0
            jobs = queue.lease("w1", max_jobs=2)
            assert [j.index for j in jobs] == [0, 1]
            assert jobs[0].payload == "p0"
            for job in jobs:
                assert queue.complete(
                    job.job_id, "w1", job.lease_token, f"res{job.index}"
                )
            results = queue.collect("r")
            assert [(r.index, r.result, r.attempts, r.worker) for r in results] == [
                (0, "res0", 1, "w1"),
                (1, "res1", 1, "w1"),
            ]
            # Collection is destructive: the queue holds no history.
            assert queue.collect("r") == []
            assert queue.counts() == {"pending": 0, "leased": 0, "done": 0, "failed": 0}

    def test_expired_lease_requeues_and_counts_the_attempt(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite", lease_seconds=0.05) as queue:
            queue.submit("r", [(0, "p")])
            dead = queue.lease("w-dead")[0]
            time.sleep(0.1)  # w-dead goes silent (what SIGKILL looks like)
            released = queue.lease("w-live")
            assert [j.index for j in released] == [0]
            assert queue.attempts_for("r", 0) == 2
            # The dead worker's late commit presents a stale token.
            assert not queue.complete(dead.job_id, "w-dead", dead.lease_token, "stale")
            live = released[0]
            assert queue.complete(live.job_id, "w-live", live.lease_token, "good")
            (result,) = queue.collect("r")
            assert (result.result, result.attempts, result.worker) == ("good", 2, "w-live")

    def test_late_commit_of_expired_unreleased_chunk_is_accepted(self, tmp_path):
        """A slow-but-alive worker whose lease expired still wins the
        commit as long as nobody re-leased the chunk — accepting the
        late result saves the retry."""
        with JobQueue(tmp_path / "q.sqlite", lease_seconds=0.05) as queue:
            queue.submit("r", [(0, "p")])
            job = queue.lease("w1")[0]
            time.sleep(0.1)
            assert queue.collect("r") == []  # scan re-queues the chunk
            assert queue.complete(job.job_id, "w1", job.lease_token, "late")
            (result,) = queue.collect("r")
            assert result.result == "late" and result.attempts == 1

    def test_exhausted_expiries_park_the_chunk_with_a_diagnosis(self, tmp_path):
        with JobQueue(
            tmp_path / "q.sqlite", lease_seconds=0.05, max_attempts=2
        ) as queue:
            queue.submit("r", [(0, "p")])
            for _ in range(2):
                assert queue.lease("w-cursed")
                time.sleep(0.1)
            assert queue.lease("w-next") == []  # parked, not re-queued
            (result,) = queue.collect("r")
            assert result.result is None
            assert "lease expired 2 times" in result.error
            assert "w-cursed" in result.error

    def test_fail_requeues_then_parks_with_the_traceback(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite", max_attempts=2) as queue:
            queue.submit("r", [(0, "p")])
            job = queue.lease("w1")[0]
            assert queue.fail(job.job_id, "w1", job.lease_token, "Trace 1")
            assert queue.counts()["pending"] == 1  # one attempt left
            retry = queue.lease("w2")[0]
            assert queue.fail(retry.job_id, "w2", retry.lease_token, "Trace 2")
            (result,) = queue.collect("r")
            assert result.error == "Trace 2" and result.attempts == 2
            # A stale fail report (job already gone) is rejected.
            assert not queue.fail(retry.job_id, "w2", retry.lease_token, "again")

    def test_double_commit_changes_nothing(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as queue:
            queue.submit("r", [(0, "p")])
            job = queue.lease("w1")[0]
            assert queue.complete(job.job_id, "w1", job.lease_token, "first")
            assert not queue.complete(job.job_id, "w1", job.lease_token, "second")
            (result,) = queue.collect("r")
            assert result.result == "first"

    def test_reopen_requeues_leased_rows(self, tmp_path):
        """Server restart: the old process's monotonic deadlines are
        meaningless, so every leased row goes back to pending."""
        path = tmp_path / "q.sqlite"
        with JobQueue(path, lease_seconds=3600.0) as queue:
            queue.submit("r", [(0, "p")])
            assert queue.lease("w1")
        with JobQueue(path) as reopened:
            assert reopened.counts()["pending"] == 1
            assert [j.index for j in reopened.lease("w2")] == [0]

    def test_cancel_drops_the_run(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as queue:
            queue.submit("r1", [(0, "p"), (1, "p")])
            queue.submit("r2", [(0, "p")])
            assert queue.cancel("r1") == 2
            assert queue.counts()["pending"] == 1

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            JobQueue(tmp_path / "q.sqlite", lease_seconds=0)
        with pytest.raises(ValueError):
            JobQueue(tmp_path / "q.sqlite", max_attempts=0)
        with JobQueue(tmp_path / "q2.sqlite") as queue:
            with pytest.raises(ValueError):
                queue.lease("w", max_jobs=0)


# ------------------------------------------------------- server protocol
class TestBridgeServer:
    def test_health_and_wire_round_trip(self, tmp_path):
        with start_server(tmp_path / "q.sqlite") as server:
            client = BridgeClient(server.url)
            assert client.health()["protocol"] == PROTOCOL_VERSION
            assert client.submit("r", [(0, "p0"), (1, "p1")]) == 2
            jobs = client.lease("worker-a", max_jobs=2)
            assert [j.index for j in jobs] == [0, 1]
            assert client.heartbeat("worker-a", [j.job_id for j in jobs]) == [
                j.job_id for j in jobs
            ]
            for job in jobs:
                assert client.complete(
                    job.job_id, "worker-a", job.lease_token, f"res{job.index}"
                )
            results = client.results("r", wait_seconds=5.0)
            assert [(r.index, r.result) for r in results] == [(0, "res0"), (1, "res1")]

    def test_protocol_mismatch_refused_before_parsing(self, tmp_path):
        with start_server(tmp_path / "q.sqlite") as server:
            req = urllib.request.Request(
                server.url + "/v1/lease",
                data=json.dumps({"protocol": 999, "worker": "w"}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req, timeout=10)
            assert excinfo.value.code == 400
            assert "protocol mismatch" in json.loads(excinfo.value.read())["error"]

    def test_unknown_endpoint_and_malformed_request(self, tmp_path):
        with start_server(tmp_path / "q.sqlite") as server:
            client = BridgeClient(server.url)
            with pytest.raises(BridgeError, match="404"):
                client._request("/v1/nope", {})
            with pytest.raises(BridgeError, match="malformed"):
                client._request("/v1/complete", {"job_id": 1})  # missing fields

    def test_unreachable_server_names_the_fix(self):
        with pytest.raises(BridgeError, match="repro-bridge"):
            BridgeClient("http://127.0.0.1:9", timeout=0.5).health()


# ------------------------------------------------------- backend + worker
class TestBridgeBackend:
    def test_ordered_results_at_any_worker_count(self, tmp_path):
        for n_workers in (1, 3):
            with _fleet(tmp_path / f"f{n_workers}", n_workers) as server:
                backend = BridgeBackend(server.url, poll_seconds=0.2)
                expected = [x * x for x in range(17)]
                assert list(backend.imap(_square, range(17))) == expected
                # Unordered delivers submission order too — it is a valid
                # completion order, and determinism costs nothing.
                assert list(backend.imap_unordered(_square, range(17))) == expected
                backend.close()

    def test_empty_batch_yields_nothing(self, tmp_path):
        with _fleet(tmp_path, 1) as server:
            assert list(BridgeBackend(server.url).imap(_square, [])) == []

    def test_chunk_error_surfaces_attempts_and_traceback(self, tmp_path):
        with _fleet(tmp_path, 1, max_attempts=2) as server:
            backend = BridgeBackend(server.url, poll_seconds=0.2)
            with pytest.raises(BridgeError, match="after 2 attempt") as excinfo:
                list(backend.imap(_boom, [7]))
            assert "boom on 7" in str(excinfo.value)

    def test_backend_fails_fast_when_bridge_is_down(self):
        with pytest.raises(BridgeError, match="unreachable"):
            BridgeBackend("http://127.0.0.1:9")

    def test_abandoned_run_cancels_its_jobs(self, tmp_path):
        with start_server(tmp_path / "q.sqlite") as server:
            backend = BridgeBackend(server.url, poll_seconds=0.05)
            it = backend.imap(_square, range(4))  # no workers: nothing finishes
            it.close()  # abandon the generator mid-run
            assert server.queue.counts()["pending"] == 0

    def test_killed_worker_chunk_requeued_and_executed_exactly_once(self, tmp_path):
        """The durability acceptance test.  A worker leases a chunk and
        dies (to the server: silence — no heartbeat, no commit); after
        lease expiry the chunk is re-queued, a live worker executes it,
        and the dead worker's late result cannot land."""
        with start_server(
            tmp_path / "q.sqlite", lease_seconds=0.3
        ) as server:
            client = BridgeClient(server.url)
            run_id = "run-kill"
            client.submit(
                run_id, [(i, encode_blob((_square, i))) for i in range(3)]
            )
            # The doomed worker takes chunk 0 and is SIGKILLed mid-chunk.
            (doomed,) = client.lease("w-dead", max_jobs=1)
            assert doomed.index == 0

            stop = threading.Event()
            live = threading.Thread(
                target=run_worker,
                args=(server.url,),
                kwargs=dict(worker_id="w-live", poll_seconds=0.02, stop_event=stop),
                daemon=True,
            )
            live.start()
            try:
                results = {}
                deadline = time.monotonic() + 30.0
                while len(results) < 3 and time.monotonic() < deadline:
                    for res in client.results(run_id, wait_seconds=1.0):
                        results[res.index] = res
                assert sorted(results) == [0, 1, 2]
                # Exactly once: chunk 0 ran on its second lease, on the
                # live worker, and produced the one committed result.
                assert results[0].attempts == 2
                assert results[0].worker == "w-live"
                assert all(decode_blob(results[i].result) == i * i for i in range(3))
                assert results[1].attempts == 1 and results[2].attempts == 1
                # The ghost's commit is rejected — its chunk is gone.
                assert not client.complete(
                    doomed.job_id, "w-dead", doomed.lease_token, encode_blob(999)
                )
                assert client.results(run_id) == []
            finally:
                stop.set()
                live.join(timeout=10)

    def test_heartbeat_keeps_a_slow_chunk_alive(self, tmp_path):
        """A chunk slower than its lease survives (the worker heartbeats
        at lease/3); only *dead* workers lose their chunks."""
        with start_server(tmp_path / "q.sqlite", lease_seconds=0.2) as server:
            client = BridgeClient(server.url)
            client.submit("r", [(0, encode_blob((_slow_square, 6)))])
            stop = threading.Event()
            worker = threading.Thread(
                target=run_worker,
                args=(server.url,),
                kwargs=dict(worker_id="w-slow", poll_seconds=0.02, stop_event=stop),
                daemon=True,
            )
            worker.start()
            try:
                (result,) = client.results("r", wait_seconds=30.0)
                assert decode_blob(result.result) == 36
                assert result.attempts == 1  # the lease never expired
            finally:
                stop.set()
                worker.join(timeout=10)

    def test_worker_exit_conditions(self, tmp_path):
        with start_server(tmp_path / "q.sqlite") as server:
            client = BridgeClient(server.url)
            client.submit("r", [(i, encode_blob((_square, i))) for i in range(2)])
            assert run_worker(server.url, max_chunks=2, poll_seconds=0.01) == 2
            assert (
                run_worker(server.url, max_idle_seconds=0.05, poll_seconds=0.01) == 0
            )


# ------------------------------------------------------ backend registry
class TestResolveBackend:
    def test_names(self, tmp_path):
        assert resolve_backend(None, 0).name == "serial"
        pool = resolve_backend(None, 3)
        assert pool.name == "process-pool" and pool.workers == 3
        pool.close()
        assert resolve_backend("serial", 4).name == "serial"
        defaulted = resolve_backend("pool", None)
        assert defaulted.workers == 2
        defaulted.close()
        with start_server(tmp_path / "q.sqlite") as server:
            assert resolve_backend("bridge", None, server.url).name == "bridge"

    def test_errors(self):
        with pytest.raises(HarnessError, match="bridge-url"):
            resolve_backend("bridge", None, None)
        with pytest.raises(HarnessError, match="unknown backend"):
            resolve_backend("warp", None)


# --------------------------------------------- serial/bridge equivalence
class TestBridgeInvariance:
    def test_campaign_json_identical_serial_vs_bridge(self, tmp_path):
        """The acceptance bar: a bridge campaign at 1, 2, and 4 workers
        produces byte-identical JSON to a serial run — every result and
        counter, not just the summary."""
        from repro.cli import main

        def payload(out, extra=()):
            assert (
                main(
                    [
                        "--seed", "7", "--fp64-programs", "4", "--fp32-programs", "2",
                        "--inputs", "2", "--json", str(out), *extra,
                    ]
                )
                == 0
            )
            data = json.loads(out.read_text())
            # The only legitimately scheduling-dependent fields.
            data.pop("elapsed_seconds")
            data["config"].pop("workers")
            data["exec"].pop("phase_seconds")
            return json.dumps(data, sort_keys=True)

        serial = payload(tmp_path / "serial.json")
        for n_workers in (1, 2, 4):
            with _fleet(tmp_path / f"fleet{n_workers}", n_workers) as server:
                bridged = payload(
                    tmp_path / f"bridge-w{n_workers}.json",
                    ("--backend", "bridge", "--bridge-url", server.url),
                )
            assert bridged == serial, f"bridge campaign diverged at {n_workers} workers"

    def test_fuzz_ledger_identical_serial_vs_bridge(self, tmp_path):
        config = FuzzConfig(
            seed=11,
            n_seed_programs=8,
            inputs_per_program=2,
            max_mutants=8,
            batch_size=4,
            minimize=False,
        )
        run_fuzz(config, ledger=tmp_path / "serial.jsonl")
        with _fleet(tmp_path, 2) as server:
            run_fuzz(
                dataclasses.replace(
                    config, backend="bridge", bridge_url=server.url
                ),
                ledger=tmp_path / "bridge.jsonl",
            )
        assert (tmp_path / "serial.jsonl").read_bytes() == (
            tmp_path / "bridge.jsonl"
        ).read_bytes()

    def test_backend_excluded_from_every_fingerprint(self):
        """Backend choice is pure scheduling, like --workers: a serial
        ledger/checkpoint must resume under a bridge config."""
        for cls in (CampaignConfig, FuzzConfig, OracleConfig):
            assert (
                cls(backend="bridge", bridge_url="http://example:1").fingerprint()
                == cls().fingerprint()
            ), cls.__name__


# ---------------------------------------------------------- CLI plumbing
class TestBridgeCliValidation:
    @pytest.mark.parametrize("module", ["repro.cli", "repro.fuzz.cli", "repro.oracle.cli"])
    def test_bridge_flags_validated(self, module):
        import importlib

        main = importlib.import_module(module).main
        with pytest.raises(SystemExit):
            main(["--backend", "bridge"])  # no --bridge-url
        with pytest.raises(SystemExit):
            main(["--bridge-url", "http://x:1"])  # no --backend bridge


# --------------------------------------------------------- SQLite store
class TestSqliteRunStore:
    def test_put_get_rebinds_to_requesting_test(self, tmp_path):
        with RunStore(tmp_path / "store.sqlite") as store:
            store.put("key", "O0", [_record(0, 2.5, flags={"inexact": 1}), None])
            out = store.get("key", "O0", test_id="twin")
            assert out[0].test_id == "twin" and out[0].value == 2.5
            assert out[0].flags == {"inexact": 1}
            assert out[1] is None
            assert store.get("ghost", "O0", test_id="t") is None
            assert store.stats()["misses"] == 1

    def test_survives_reopen_and_counts_disk_hits(self, tmp_path):
        with RunStore(tmp_path / "store.sqlite") as store:
            store.put("key", "O0", [_record(0, 1.5)])
        with RunStore(tmp_path / "store.sqlite") as reopened:
            out = reopened.get("key", "O0", test_id="fresh")
            assert out[0].value == 1.5
            assert reopened.stats()["disk_hits"] == 1

    def test_concurrent_writers_first_wins(self, tmp_path):
        """Two store handles on one file — the fleet's shape.  Both
        write, each serves the other's entries from disk, and the first
        landed entry of a shared key wins everywhere."""
        a = RunStore(tmp_path / "store.sqlite")
        b = RunStore(tmp_path / "store.sqlite")
        a.put("key", "O0", [_record(0, 1.0)])
        b.put("key", "O0", [_record(0, 2.0)])  # loses the disk race
        a.put("only-a", "O0", [_record(0, 3.0)])
        b.put("only-b", "O0", [_record(0, 4.0)])
        assert a.get("only-b", "O0", test_id="t")[0].value == 4.0
        assert b.get("only-a", "O0", test_id="t")[0].value == 3.0
        reader = RunStore(tmp_path / "store.sqlite")
        assert reader.get("key", "O0", test_id="t")[0].value == 1.0
        for store in (a, b, reader):
            store.close()

    def test_concurrent_process_writers_lose_nothing(self, tmp_path):
        """More writer processes than cores racing on one file: no writer
        fails on a locked database, every writer's own keys land, and
        each shared key holds one writer's whole entry."""
        path = tmp_path / "store.sqlite"
        writers, n = 4, 200
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(writers)
        procs = [
            ctx.Process(target=_hammer_store, args=(path, w, n, barrier))
            for w in range(writers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [(p.is_alive(), p.exitcode) for p in procs] == [(False, 0)] * writers
        with RunStore(path) as store:
            for i in range(n):
                for w in range(writers):
                    assert store.get(f"w{w}-{i}", "O0", test_id="t")[0].value == i
                (shared,) = store.get(f"shared-{i}", "O0", test_id="t")
                assert shared.value in range(writers)

    def test_stats_protocol_matches_runstore(self, tmp_path):
        with RunStore(tmp_path / "store.sqlite") as store:
            assert set(store.stats()) == set(RunStore().stats())

    def test_migrate_jsonl_line_for_line(self, tmp_path, capsys):
        jsonl = tmp_path / "runs.jsonl"
        runs = {
            ("k0", "O0"): [{"i": 0, "p": "1.25", "b": 4608308318706860032,
                            "f": [["inexact", 1]]}],
            ("k1", "O3_FM"): [{"i": 0, "p": "nan", "b": 9221120237041090560}, None],
        }
        jsonl.write_text(
            "".join(
                json.dumps({"kind": "entry", "k": k, "o": o, "r": r}) + "\n"
                for (k, o), r in runs.items()
            ),
            encoding="utf-8",
        )
        store = tmp_path / "store.sqlite"
        argv = ["migrate", "--jsonl", str(jsonl), "--store", str(store)]
        assert bridge_main(argv) == 0
        assert bridge_main(argv) == 0  # idempotent re-import
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("migrated 2 entries")
        assert out[1].startswith("migrated 0 entries")
        # A migrated entry replays bit-identically through a fresh handle.
        with RunStore(store) as reopened:
            for (key, opt), expected in runs.items():
                migrated = reopened.get(key, opt, test_id="t")
                assert [
                    None if r is None else [r.printed, _bits(r.value)]
                    for r in migrated
                ] == [None if r is None else [r["p"], r["b"]] for r in expected]

    def test_migrate_missing_source_is_an_error(self, tmp_path, capsys):
        with pytest.raises(HarnessError, match="no JSONL run store"):
            migrate_jsonl(tmp_path / "ghost.jsonl", tmp_path / "store.sqlite")
        argv = ["migrate", "--jsonl", str(tmp_path / "ghost.jsonl"),
                "--store", str(tmp_path / "store.sqlite")]
        assert bridge_main(argv) == 2
        assert "repro-bridge: error: no JSONL run store" in capsys.readouterr().err

    def test_view_for_binds_the_content_id(self, tmp_path):
        from repro.exec import content_id_for
        from repro.varity.config import GeneratorConfig
        from repro.varity.corpus import build_corpus

        corpus = build_corpus(
            GeneratorConfig.fp32(inputs_per_program=1), 1, root_seed=5
        )
        with RunStore(tmp_path / "store.sqlite") as store:
            view = store.view_for(corpus.tests[0])
            assert view.key == content_id_for(corpus.tests[0])

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            RunStore(tmp_path / "s.sqlite", max_entries=0)
