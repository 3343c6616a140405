"""CLI wiring shared by the three entry points.

``repro-campaign``, ``repro-fuzz`` and ``repro-oracle`` all surface the
same two flags:

* ``--trace-out FILE`` — span trace; ``.jsonl`` gets the raw span log,
  any other suffix the Chrome trace-event JSON (``chrome://tracing`` /
  Perfetto).
* ``--metrics-out FILE`` — flat metrics snapshot (span totals + the
  exec phase aggregates), the input to ``repro-report render``/``diff``.

When either flag is present a real :class:`~repro.telemetry.spans
.Tracer` is installed for the run and restored afterwards; with neither,
the null tracer stays active and the run is the untraced fast path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, Optional

from repro.telemetry.spans import Tracer, set_tracer

__all__ = ["add_telemetry_args", "TelemetrySession"]


def add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a span trace (.jsonl: span log; otherwise Chrome "
        "trace-event JSON for chrome://tracing / Perfetto)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write a flat metrics snapshot JSON (render/diff it with "
        "repro-report)",
    )


class TelemetrySession:
    """Installs a tracer for the duration of a CLI run when requested."""

    def __init__(
        self, trace_out: Optional[str], metrics_out: Optional[str]
    ) -> None:
        self.trace_out = trace_out
        self.metrics_out = metrics_out
        self.active = bool(trace_out or metrics_out)
        self.tracer: Optional[Tracer] = Tracer() if self.active else None
        self._previous = None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "TelemetrySession":
        return cls(
            getattr(args, "trace_out", None), getattr(args, "metrics_out", None)
        )

    def __enter__(self) -> "TelemetrySession":
        if self.tracer is not None:
            self._previous = set_tracer(self.tracer)
        return self

    def __exit__(self, *exc) -> None:
        if self.tracer is not None:
            set_tracer(self._previous)

    def write(self, exec_metrics: Optional[Dict[str, object]] = None) -> None:
        """Write the requested outputs (call after the run succeeds)."""
        if self.tracer is None:
            return
        from repro.telemetry.export import (
            fold_exec_metrics,
            fold_spans,
            write_metrics_snapshot,
            write_trace,
        )
        from repro.telemetry.metrics import MetricsRegistry

        records = self.tracer.records()
        if self.trace_out:
            write_trace(records, Path(self.trace_out))
            print(f"trace written to {self.trace_out}", file=sys.stderr)
        if self.metrics_out:
            registry = MetricsRegistry()
            fold_spans(registry, records)
            if exec_metrics:
                fold_exec_metrics(registry, exec_metrics)
            write_metrics_snapshot(registry.snapshot(), Path(self.metrics_out))
            print(
                f"metrics snapshot written to {self.metrics_out}",
                file=sys.stderr,
            )
