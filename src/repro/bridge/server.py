"""The ``repro-bridge`` server: HTTP front of the durable job queue.

Stdlib only (``http.server`` + ``sqlite3``).  Every endpoint speaks a
JSON body and returns a JSON body; opaque chunk payloads/results ride
inside as pickle/base64 blobs (:mod:`~repro.bridge.schemas`).  The
protocol:

==================  ====  ================================================
``/v1/health``      GET   liveness + protocol version + queue counts
``/v1/submit``      POST  ``{run_id, jobs: [[index, payload], ...]}``
``/v1/lease``       POST  ``{worker, max_jobs}`` → leased jobs
``/v1/heartbeat``   POST  ``{worker, job_ids}`` → job ids still held
``/v1/complete``    POST  one chunk's result under its lease token
``/v1/fail``        POST  one chunk's error under its lease token
``/v1/results``     POST  ``{run_id, wait_seconds}`` — long-poll collect
``/v1/cancel``      POST  drop a run's jobs (abandoning client cleanup)
==================  ====  ================================================

Every POST body carries ``protocol``; a version mismatch is refused with
HTTP 400 before any parsing of the rest, so a skewed fleet fails loudly.

The server records ``bridge.submit`` / ``bridge.lease`` /
``bridge.commit`` / ``bridge.collect`` spans into its own tracer;
``repro-bridge serve --trace-out FILE`` writes the Chrome trace on
shutdown (SIGTERM/SIGINT), which is how the CI smoke job captures a
server-side view of the run.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.bridge.queue import JobQueue
from repro.bridge.schemas import PROTOCOL_VERSION
from repro.errors import HarnessError
from repro.telemetry.spans import NullTracer, Tracer

__all__ = ["BridgeServer", "start_server", "main"]

#: Long-poll granularity: how often a waiting /v1/results re-scans.
_POLL_SECONDS = 0.05


class _BridgeError(Exception):
    """A request error the handler turns into an HTTP 400 JSON body."""


class BridgeServer:
    """The queue, the HTTP server, and the tracer, wired together."""

    def __init__(
        self,
        db: Union[str, Path],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.queue = JobQueue(
            db, lease_seconds=lease_seconds, max_attempts=max_attempts
        )
        self.tracer: "Tracer | NullTracer" = (
            tracer if tracer is not None else NullTracer()
        )
        handler = _make_handler(self)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.host, self.port = self.httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def start(self) -> "BridgeServer":
        """Serve on a daemon thread (tests, benches, in-process use)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="bridge-server", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self.httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def close(self) -> None:
        if self._thread is not None:
            self.shutdown()
        self.httpd.server_close()
        self.queue.close()

    def __enter__(self) -> "BridgeServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------- endpoints
    def handle_submit(self, body: Dict[str, Any]) -> Dict[str, Any]:
        run_id = str(body["run_id"])
        jobs: List[Tuple[int, str]] = [
            (int(index), str(payload)) for index, payload in body["jobs"]
        ]
        with self.tracer.span("bridge.submit", run=run_id, jobs=len(jobs)):
            accepted = self.queue.submit(run_id, jobs)
        return {"accepted": accepted}

    def handle_lease(self, body: Dict[str, Any]) -> Dict[str, Any]:
        worker = str(body["worker"])
        max_jobs = int(body.get("max_jobs", 1))
        with self.tracer.span("bridge.lease", worker=worker):
            leased = self.queue.lease(worker, max_jobs)
        return {"jobs": [job.to_json() for job in leased]}

    def handle_heartbeat(self, body: Dict[str, Any]) -> Dict[str, Any]:
        kept = self.queue.heartbeat(
            str(body["worker"]), [int(j) for j in body["job_ids"]]
        )
        return {"kept": kept}

    def handle_complete(self, body: Dict[str, Any]) -> Dict[str, Any]:
        with self.tracer.span("bridge.commit", job=int(body["job_id"])):
            committed = self.queue.complete(
                int(body["job_id"]),
                str(body["worker"]),
                str(body["lease_token"]),
                str(body["result"]),
                start_ns=body.get("start_ns"),
                end_ns=body.get("end_ns"),
            )
        return {"committed": committed}

    def handle_fail(self, body: Dict[str, Any]) -> Dict[str, Any]:
        accepted = self.queue.fail(
            int(body["job_id"]),
            str(body["worker"]),
            str(body["lease_token"]),
            str(body["error"]),
        )
        return {"accepted": accepted}

    def handle_results(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Long-poll collect: destructive, so results go to one client."""
        run_id = str(body["run_id"])
        deadline = time.monotonic() + float(body.get("wait_seconds", 0.0))
        with self.tracer.span("bridge.collect", run=run_id):
            while True:
                results = self.queue.collect(run_id)
                if results or time.monotonic() >= deadline:
                    return {"results": [r.to_json() for r in results]}
                time.sleep(_POLL_SECONDS)

    def handle_cancel(self, body: Dict[str, Any]) -> Dict[str, Any]:
        return {"dropped": self.queue.cancel(str(body["run_id"]))}

    def handle_health(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "counts": self.queue.counts(),
        }


def _make_handler(server: BridgeServer):
    routes = {
        "/v1/submit": server.handle_submit,
        "/v1/lease": server.handle_lease,
        "/v1/heartbeat": server.handle_heartbeat,
        "/v1/complete": server.handle_complete,
        "/v1/fail": server.handle_fail,
        "/v1/results": server.handle_results,
        "/v1/cancel": server.handle_cancel,
    }

    class Handler(BaseHTTPRequestHandler):
        # Long-polls hold a thread each; HTTP/1.1 keep-alive lets one
        # client reuse its connection across thousands of small posts.
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt: str, *args: Any) -> None:
            pass  # request logging would drown the queue's real signal

        def _reply(self, code: int, payload: Dict[str, Any]) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path == "/v1/health":
                self._reply(200, server.handle_health())
            else:
                self._reply(404, {"error": f"unknown endpoint {self.path}"})

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            route = routes.get(self.path)
            if route is None:
                self._reply(404, {"error": f"unknown endpoint {self.path}"})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length) or b"{}")
                got = body.get("protocol")
                if got != PROTOCOL_VERSION:
                    raise _BridgeError(
                        f"protocol mismatch: client sent {got!r}, server "
                        f"speaks {PROTOCOL_VERSION}"
                    )
                self._reply(200, route(body))
            except _BridgeError as exc:
                self._reply(400, {"error": str(exc)})
            except (KeyError, TypeError, ValueError) as exc:
                self._reply(400, {"error": f"malformed request: {exc!r}"})

    return Handler


def start_server(
    db: Union[str, Path],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    lease_seconds: float = 30.0,
    max_attempts: int = 3,
    tracer: Optional[Tracer] = None,
) -> BridgeServer:
    """A serving bridge on a daemon thread (port 0 picks a free one)."""
    return BridgeServer(
        db,
        host=host,
        port=port,
        lease_seconds=lease_seconds,
        max_attempts=max_attempts,
        tracer=tracer,
    ).start()


# ------------------------------------------------------------------ CLI
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bridge",
        description="Bridge server for distributed repro execution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the bridge server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8377)
    serve.add_argument(
        "--db",
        default="bridge-queue.sqlite",
        help="durable job-queue database (survives restarts)",
    )
    serve.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        help="heartbeat deadline before a worker's chunk is re-queued",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="leases per chunk before it fails terminally",
    )
    serve.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write the server's span trace on shutdown (.jsonl: span "
        "log; otherwise Chrome trace-event JSON)",
    )

    migrate = sub.add_parser(
        "migrate", help="import a JSONL run store into a SQLite content store"
    )
    migrate.add_argument("--jsonl", required=True, help="source JSONL store path")
    migrate.add_argument(
        "--store", required=True, help="destination SQLite content store file"
    )

    args = parser.parse_args(argv)

    if args.command == "migrate":
        from repro.exec.store import migrate_jsonl

        try:
            added = migrate_jsonl(args.jsonl, args.store)
        except HarnessError as exc:
            print(f"repro-bridge: error: {exc}", file=sys.stderr)
            return 2
        print(f"migrated {added} entries into {args.store}")
        return 0

    tracer = Tracer() if args.trace_out else None
    server = BridgeServer(
        args.db,
        host=args.host,
        port=args.port,
        lease_seconds=args.lease_seconds,
        max_attempts=args.max_attempts,
        tracer=tracer,
    )
    print(
        f"bridge server listening on {server.url} (db {args.db}, "
        f"lease {args.lease_seconds:g}s, max attempts {args.max_attempts})",
        file=sys.stderr,
    )

    def _shutdown(signum: int, frame: Any) -> None:
        # shutdown() must come from another thread: the signal handler
        # interrupts serve_forever itself, which cannot stop itself.
        threading.Thread(target=server.httpd.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    try:
        server.serve_forever()
    finally:
        server.close()
        if tracer is not None and args.trace_out:
            from repro.telemetry.export import write_trace

            write_trace(tracer.records(), Path(args.trace_out))
            print(f"trace written to {args.trace_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
