"""Zero-dependency tracing spans + metrics for the repro engines.

The package is strictly out-of-band: nothing here may influence ledger
bytes, checkpoints, fingerprints, or content keys.  The default tracer
is a no-op (``NullTracer``), so uninstrumented runs pay one attribute
lookup per would-be span.  Workers ship span batches back with their
results and the parent merges them **by chunk index**, never by arrival
time, so traces are deterministic at any worker count.

Layout:

* :mod:`repro.telemetry.spans` — ``Tracer`` / ``NullTracer`` and the
  module-level active-tracer slot (``get_tracer`` / ``set_tracer``).
* :mod:`repro.telemetry.metrics` — process-local ``MetricsRegistry``
  of counters, gauges, and fixed-bucket histograms.
* :mod:`repro.telemetry.export` — JSONL span log, Chrome
  trace-event-format export (loadable in ``chrome://tracing`` or
  Perfetto), and flat metrics snapshot JSON.
* :mod:`repro.telemetry.report` — render a snapshot as a table, diff
  two snapshots with per-phase deltas (the ``repro-report`` entry
  point).
"""

from repro.telemetry.metrics import (
    DEFAULT_TIME_EDGES,
    MetricsRegistry,
)
from repro.telemetry.spans import (
    NullTracer,
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
)

__all__ = [
    "DEFAULT_TIME_EDGES",
    "MetricsRegistry",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_tracer",
]
