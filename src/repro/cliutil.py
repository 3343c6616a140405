"""Shared plumbing for the execution-facing CLIs.

``repro-campaign``, ``repro-fuzz``, and ``repro-oracle`` all drive the
same :class:`~repro.exec.service.ExecutionService` through one session
lifecycle, so they share, declared once here instead of three diverging
copies:

* :func:`add_execution_args` — the flag block: worker count, backend
  selection, bridge address, and the telemetry outputs;
* :func:`resolve_execution_args` — the cross-flag validation every CLI
  must agree on (consistent error text included);
* :func:`parse_names` — the comma-separated name flags (``--mutations``,
  ``--oracle-relations``, ``--relations``);
* :func:`run_session` — the run path: telemetry installed, the engine
  run with the stderr progress printer, a
  :class:`~repro.errors.HarnessError` reported as ``<prog>: error: ...``
  (the CLI then exits 2), and the trace and metrics written.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence, Tuple, TypeVar

from repro.errors import HarnessError
from repro.telemetry.session import TelemetrySession, add_telemetry_args

__all__ = ["add_execution_args", "resolve_execution_args", "parse_names", "run_session"]

_R = TypeVar("_R")


def add_execution_args(
    parser: argparse.ArgumentParser,
    *,
    workers_help: str = "process-pool size (0 = serial)",
) -> None:
    """Add the execution flags every service-backed CLI shares.

    ``--workers``, ``--backend``, ``--bridge-url``, plus the telemetry
    pair (``--trace-out`` / ``--metrics-out``).  ``workers_help`` stays
    per-CLI because each tool documents its own determinism guarantee.
    """
    parser.add_argument(
        "--workers", type=int, default=None, help=workers_help
    )
    parser.add_argument(
        "--backend",
        choices=["serial", "pool", "bridge"],
        default=None,
        help="execution backend (default: serial or pool from --workers; "
        "bridge routes chunks through a repro-bridge server fleet)",
    )
    parser.add_argument(
        "--bridge-url",
        metavar="URL",
        default=None,
        help="address of a running `repro-bridge serve` (with --backend bridge)",
    )
    add_telemetry_args(parser)


def resolve_execution_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Validate the shared execution flags (``parser.error`` on misuse)."""
    if args.workers is not None and args.workers < 0:
        parser.error(f"--workers must be >= 0 (got {args.workers})")
    if args.backend == "bridge" and not args.bridge_url:
        parser.error("--backend bridge requires --bridge-url")
    if args.bridge_url and args.backend != "bridge":
        parser.error("--bridge-url requires --backend bridge")


def parse_names(
    parser: argparse.ArgumentParser,
    flag: str,
    value: str,
    known: Sequence[str],
    noun: str,
) -> Tuple[str, ...]:
    """Split a comma-separated ``flag`` value into registry names
    (``parser.error`` on an unknown name or an empty list)."""
    names = tuple(n.strip() for n in value.split(",") if n.strip())
    unknown = [n for n in names if n not in known]
    if unknown:
        parser.error(
            f"unknown {noun}s: {', '.join(unknown)} (known: {', '.join(known)})"
        )
    if not names:
        parser.error(f"{flag} must name at least one {noun}")
    return names


def run_session(
    prog: str,
    args: argparse.Namespace,
    engine: Callable[..., _R],
    *engine_args,
    unit: str = "",
    **engine_kwargs,
) -> Optional[_R]:
    """Run ``engine(*engine_args, progress=..., **engine_kwargs)`` as a CLI
    session; returns its result, or ``None`` after printing a
    :class:`~repro.errors.HarnessError` as ``<prog>: error: ...``.

    Progress lines (``[phase] done/total<unit>``) go to stderr; the
    ``--trace-out``/``--metrics-out`` files are written once the engine
    returns.
    """

    def progress(phase: str, done: int, total: int) -> None:
        print(f"\r[{phase}] {done}/{total}{unit}", end="", file=sys.stderr, flush=True)
        if done == total:
            print(file=sys.stderr)

    telemetry = TelemetrySession.from_args(args)
    with telemetry:
        try:
            result = engine(*engine_args, progress=progress, **engine_kwargs)
        except HarnessError as exc:
            print(f"{prog}: error: {exc}", file=sys.stderr)
            return None
    telemetry.write(exec_metrics=getattr(result, "exec_metrics", None))
    return result
