"""Command-line interface: ``repro-oracle``.

Runs a metamorphic-relation oracle session against the modeled stacks —
no cross-vendor comparison, defects are flagged within one execution
model — and prints the per-relation violation table.  Examples::

    repro-oracle --programs 40
    repro-oracle --fptype fp64 --seed 7 --programs 100 --report
    repro-oracle --relations mul-one,fastmath-flag --programs 60
    repro-oracle --programs 200 --ledger oracle.jsonl
    repro-oracle --programs 400 --ledger oracle.jsonl --resume
    repro-oracle --programs 200 --workers 4   # same ledger, less wall clock
    repro-oracle --stacks nvcc,cpu            # check the CPU clang lane too
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cliutil import (
    add_execution_args, parse_names, resolve_execution_args, run_session,
)
from repro.errors import HarnessError
from repro.fp.types import FPType
from repro.oracle.engine import OracleConfig, run_oracle
from repro.oracle.relations import RELATION_NAMES
from repro.stacks import DEFAULT_STACK_PAIR, STACK_NAMES, resolve_stacks

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-oracle",
        description="Metamorphic-relation oracle for single-stack numerical defects",
    )
    parser.add_argument("--seed", type=int, default=2024, help="session root seed")
    parser.add_argument(
        "--fptype",
        choices=["fp16", "fp32", "fp64"],
        default="fp32",
        help="kernel precision (default fp32 — the fast-math and FTZ "
        "relations only have teeth there)",
    )
    parser.add_argument(
        "--programs", type=int, default=None, help="corpus size (default 40)"
    )
    parser.add_argument(
        "--inputs", type=int, default=None, help="inputs per program (default 3)"
    )
    parser.add_argument(
        "--relations", default=None,
        help=f"comma-separated relation subset (default: {','.join(RELATION_NAMES)})",
    )
    parser.add_argument(
        "--ulp-bound", type=int, default=None,
        help="Num/Num drift budget in ULPs for approximate relations (default 4)",
    )
    parser.add_argument(
        "--stacks",
        metavar="NAMES",
        default=None,
        help="comma-separated stack pair to sweep, e.g. nvcc,cpu "
        f"(registry: {', '.join(STACK_NAMES)}; default nvcc,hipcc); "
        "relations check each stack of the pair independently",
    )
    parser.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="append per-program results to this JSONL ledger",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="reload --ledger and continue from the first unrecorded program",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="also print every violation and the execution-service "
        "cache/dedup metrics",
    )
    add_execution_args(
        parser,
        workers_help="process-pool size (0 = serial; the ledger is "
        "byte-identical at any worker count)",
    )
    return parser


def _config_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> OracleConfig:
    # `is not None` guards: an explicit 0 must error, not silently fall
    # back to the default (the falsy-zero bug class PR 1 fixed).
    for name, value, minimum in (
        ("--programs", args.programs, 1),
        ("--inputs", args.inputs, 1),
        ("--ulp-bound", args.ulp_bound, 0),
    ):
        if value is not None and value < minimum:
            parser.error(f"{name} must be >= {minimum} (got {value})")
    resolve_execution_args(parser, args)
    if args.resume and args.ledger is None:
        parser.error("--resume requires --ledger")

    base = OracleConfig()
    relations = base.relations
    if args.relations is not None:
        relations = parse_names(
            parser, "--relations", args.relations, RELATION_NAMES, "relation"
        )
    stacks = DEFAULT_STACK_PAIR
    if args.stacks is not None:
        try:
            resolved = resolve_stacks(args.stacks)
        except HarnessError as exc:
            parser.error(str(exc))
        if len(resolved) != 2:
            parser.error(
                f"--stacks must name exactly two stacks (got {len(resolved)})"
            )
        stacks = resolved
    return OracleConfig(
        seed=args.seed,
        fptype=FPType.from_string(args.fptype),
        n_programs=args.programs if args.programs is not None else base.n_programs,
        inputs_per_program=args.inputs if args.inputs is not None else base.inputs_per_program,
        relations=relations,
        ulp_bound=args.ulp_bound if args.ulp_bound is not None else base.ulp_bound,
        stacks=stacks,
        workers=args.workers if args.workers is not None else base.workers,
        backend=args.backend,
        bridge_url=args.bridge_url,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(parser, args)

    result = run_session(
        parser.prog, args, run_oracle, config, ledger=args.ledger, resume=args.resume
    )
    if result is None:
        return 2
    if result.resumed_programs:
        print(
            f"resumed {result.resumed_programs} programs from {args.ledger}",
            file=sys.stderr,
        )
    print(
        f"oracle session: {result.programs_checked} programs, "
        f"{result.pair_runs} run pairs, "
        f"{len(result.violations)} violations in {result.violated_programs} programs"
    )
    print()
    print(result.table().render())
    if args.report:
        if result.violations:
            print()
            for v in result.violations:
                print(f"  {v.describe()}")
        # Execution-service counters: the dedup line proves that every
        # relation's re-request of an already-executed program (the base,
        # or an identical variant) ran zero redundant device work.
        exec_metrics = result.exec_metrics
        store = exec_metrics.get("store", {})
        print()
        print("Execution service (committed work):")
        print(f"  sweep requests       {exec_metrics.get('requests', 0)}")
        print(f"  executed             {exec_metrics.get('executed', 0)}")
        print(f"  deduped (cache hits) {exec_metrics.get('deduped', 0)}  (zero runs each)")
        print(f"  pair runs            {result.pair_runs}")
        print(f"  nvcc executions      {exec_metrics.get('nvcc_executions', 0)}")
        print(f"  store hits/misses    {store.get('hits', 0)}/{store.get('misses', 0)}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
