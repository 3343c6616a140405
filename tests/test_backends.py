"""Execution backends and the shared execution flag block.

Two backends run every chunk: :class:`SerialBackend` in-process and
:class:`ProcessPoolBackend` on a persistent local pool, and ``--workers``
alone picks between them (``make_backend``).  Pinned here: the ordering
contract (``imap`` in payload order at any worker count, however chunks
complete), error propagation, pool reuse and teardown, the traced pool's
per-chunk phase spans, and the one flag block the three execution CLIs
share — the worker count reaches each engine's config and never its
fingerprint.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import time

import pytest

from repro.exec import ProcessPoolBackend, SerialBackend, make_backend
from repro.fuzz.engine import FuzzConfig
from repro.harness.campaign import CampaignConfig
from repro.oracle.engine import OracleConfig
from repro.telemetry.spans import Tracer, set_tracer

CLI_MODULES = ["repro.cli", "repro.fuzz.cli", "repro.oracle.cli"]
CONFIGS = [CampaignConfig, FuzzConfig, OracleConfig]


# Module-level so a pool can pickle them.
def _late_first(x: int) -> int:
    """Earlier payloads finish later, so a pool completes out of order."""
    time.sleep(0.01 * (6 - x))
    return x * x


def _pid(_x: int) -> int:
    return os.getpid()


def _fail_on_two(x: int) -> int:
    if x == 2:
        raise ValueError(f"chunk {x} failed")
    return x


@pytest.fixture
def backend_for():
    """``make_backend(workers)``, closed after the test."""
    made = []

    def make(workers):
        backend = make_backend(workers)
        made.append(backend)
        return backend

    yield make
    for backend in made:
        backend.close()


# ----------------------------------------------------------- make_backend
class TestMakeBackend:
    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_zero_or_one_worker_runs_serially(self, workers):
        backend = make_backend(workers)
        assert isinstance(backend, SerialBackend)
        assert backend.name == "serial" and backend.remote is False

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_more_workers_run_a_pool_of_that_size(self, workers):
        backend = make_backend(workers)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.name == "process-pool" and backend.remote is True
        assert backend.workers == workers
        # The pool starts on first use, not at construction.
        assert backend.start_method is None
        backend.close()

    @pytest.mark.parametrize("workers", [-1, 0, 1])
    def test_pool_needs_two_workers(self, workers):
        with pytest.raises(ValueError, match="workers >= 2"):
            ProcessPoolBackend(workers)


# --------------------------------------------------------------- ordering
class TestOrdering:
    @pytest.mark.parametrize("workers", [0, 1, 2, 3])
    def test_imap_yields_in_payload_order(self, backend_for, workers):
        backend = backend_for(workers)
        assert list(backend.imap(_late_first, range(6))) == [
            x * x for x in range(6)
        ]

    @pytest.mark.parametrize("workers", [0, 1, 2, 3])
    def test_imap_unordered_yields_every_result_once(self, backend_for, workers):
        backend = backend_for(workers)
        results = list(backend.imap_unordered(_late_first, range(6)))
        assert sorted(results) == [x * x for x in range(6)]

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("method", ["imap", "imap_unordered"])
    def test_empty_batch_yields_nothing(self, backend_for, workers, method):
        backend = backend_for(workers)
        assert list(getattr(backend, method)(_late_first, [])) == []

    def test_serial_backend_is_lazy(self):
        """Streaming callers interleave their own work between chunks:
        the serial backend runs a chunk only when its result is asked
        for."""
        ran = []

        def note(x):
            ran.append(x)
            return x

        results = SerialBackend().imap(note, range(3))
        assert ran == []
        assert next(results) == 0 and ran == [0]


# ----------------------------------------------------------------- errors
class TestChunkErrors:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_error_surfaces_after_the_chunks_before_it(self, backend_for, workers):
        """A failing chunk raises its own exception, type and message
        intact, after the ordered results that precede it."""
        results = backend_for(workers).imap(_fail_on_two, range(4))
        assert next(results) == 0
        assert next(results) == 1
        with pytest.raises(ValueError, match="chunk 2 failed"):
            next(results)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_unordered_error_surfaces(self, backend_for, workers):
        with pytest.raises(ValueError, match="chunk 2 failed"):
            list(backend_for(workers).imap_unordered(_fail_on_two, range(4)))

    def test_pool_serves_the_next_call_after_a_chunk_error(self, backend_for):
        backend = backend_for(2)
        with pytest.raises(ValueError):
            list(backend.imap(_fail_on_two, range(4)))
        assert list(backend.imap(_late_first, range(3))) == [0, 1, 4]


# ------------------------------------------------------------ pool life
class TestPoolLifetime:
    def test_pool_persists_across_calls(self):
        """Repeated submissions reuse one pool: every chunk of three
        calls runs on at most ``workers`` processes, none the parent."""
        backend = ProcessPoolBackend(2)
        try:
            pids = set()
            for _ in range(3):
                pids.update(backend.imap(_pid, range(4)))
            assert 1 <= len(pids) <= 2
            assert os.getpid() not in pids
        finally:
            backend.close()

    def test_close_is_idempotent_and_a_later_call_starts_a_new_pool(self):
        backend = ProcessPoolBackend(2)
        try:
            before = set(backend.imap(_pid, range(4)))
            backend.close()
            backend.close()
            after = set(backend.imap(_pid, range(4)))
            assert before.isdisjoint(after)
        finally:
            backend.close()

    def test_serial_close_is_a_no_op(self):
        backend = SerialBackend()
        backend.close()
        assert list(backend.imap(_late_first, range(2))) == [0, 1]


# ---------------------------------------------------------------- tracing
class TestTracedPool:
    PHASES = ("pool.pickle", "pool.queue_wait", "pool.execute", "pool.result_wait")

    @pytest.mark.parametrize("method", ["imap", "imap_unordered"])
    def test_each_chunk_records_the_four_phases(self, method):
        """Tracing changes no result, and each chunk gets exactly one
        span per phase; ``pool.execute`` carries the worker's pid."""
        tracer = Tracer()
        backend = ProcessPoolBackend(2)
        previous = set_tracer(tracer)
        try:
            results = list(getattr(backend, method)(_late_first, range(4)))
        finally:
            set_tracer(previous)
            backend.close()
        expected = [x * x for x in range(4)]
        assert (results if method == "imap" else sorted(results)) == expected
        records = tracer.records()
        for phase in self.PHASES:
            chunks = sorted(r.chunk for r in records if r.name == phase)
            assert chunks == [0, 1, 2, 3], phase
        for r in records:
            assert r.dur_ns >= 0, r.name
            if r.name == "pool.execute":
                assert r.pid != os.getpid()
            elif r.name == "pool.pickle":
                assert dict(r.args)["payload_bytes"] > 0


# ------------------------------------------------------ shared flag block
def _cli(module):
    return importlib.import_module(module)


class TestExecutionFlags:
    @pytest.mark.parametrize("module", CLI_MODULES)
    @pytest.mark.parametrize("workers", [0, 1, 3])
    def test_workers_reaches_the_config(self, module, workers):
        cli = _cli(module)
        parser = cli.build_parser()
        args = parser.parse_args(["--workers", str(workers)])
        assert cli._config_from_args(parser, args).workers == workers

    @pytest.mark.parametrize("module", CLI_MODULES)
    def test_negative_workers_named_in_the_error(self, module, capsys):
        cli = _cli(module)
        parser = cli.build_parser()
        args = parser.parse_args(["--workers", "-2"])
        with pytest.raises(SystemExit) as exc:
            cli._config_from_args(parser, args)
        assert exc.value.code == 2
        assert "--workers must be >= 0 (got -2)" in capsys.readouterr().err

    @pytest.mark.parametrize("module", CLI_MODULES)
    def test_non_integer_workers_rejected(self, module, capsys):
        with pytest.raises(SystemExit) as exc:
            _cli(module).build_parser().parse_args(["--workers", "two"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("module", CLI_MODULES)
    def test_flag_block_defaults(self, module):
        """Every execution CLI parses the same block: no worker count
        (the engine's default applies) and no telemetry outputs."""
        args = _cli(module).build_parser().parse_args([])
        assert args.workers is None
        assert args.trace_out is None and args.metrics_out is None

    @pytest.mark.parametrize("module", CLI_MODULES)
    @pytest.mark.parametrize(
        "argv",
        [["--backend", "serial"], ["--backend", "pool"], ["--bridge-url", "http://x:1"]],
        ids=["backend-serial", "backend-pool", "bridge-url"],
    )
    def test_worker_count_is_the_only_backend_choice(self, module, argv, capsys):
        """``--workers`` alone picks serial or pool; a backend name or a
        server URL is an unknown option."""
        with pytest.raises(SystemExit) as exc:
            _cli(module).build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ------------------------------------------------------------ fingerprint
class TestFingerprints:
    @pytest.mark.parametrize("config_cls", CONFIGS, ids=lambda c: c.__name__)
    def test_workers_excluded_from_every_fingerprint(self, config_cls):
        base = config_cls()
        for workers in (0, 2, 8):
            changed = dataclasses.replace(base, workers=workers)
            assert changed.fingerprint() == base.fingerprint()
        assert "workers" not in base.fingerprint()

    @pytest.mark.parametrize("config_cls", CONFIGS, ids=lambda c: c.__name__)
    def test_workers_is_the_only_execution_field(self, config_cls):
        names = {f.name for f in dataclasses.fields(config_cls)}
        assert "workers" in names
        assert not names & {"backend", "bridge_url"}
