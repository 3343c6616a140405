"""Command-line interface: ``repro-campaign``.

Runs a differential-testing campaign at a chosen scale and prints the
paper's tables.  Examples::

    repro-campaign --scale tiny
    repro-campaign --scale default --workers 4
    repro-campaign --scale paper --workers 8 --json results.json
    repro-campaign --fp64-programs 500 --inputs 5 --no-hipify
    repro-campaign --scale tiny --include-fp16          # + fp16/fp16_hipify arms
    repro-campaign --include-fp16 --fp16-programs 400
    repro-campaign --scale paper --checkpoint grid.jsonl
    repro-campaign --scale paper --checkpoint grid.jsonl --resume
    repro-campaign --stacks nvcc,hipcc,cpu       # 3-choose-2 stack-pair matrix
    repro-campaign --stacks nvcc,cpu             # CPU lane, no AMD stack model
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import render_campaign_report
from repro.cliutil import add_execution_args, resolve_execution_args, run_session
from repro.errors import HarnessError
from repro.harness.campaign import CampaignConfig, run_campaign
from repro.stacks import DEFAULT_STACK_PAIR, STACK_NAMES, resolve_stacks
from repro.utils.jsonio import dump_json
from repro.utils.tables import Table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Differential GPU-numerics testing campaign (SC'24 reproduction)",
    )
    parser.add_argument(
        "--scale",
        choices=["tiny", "default", "paper"],
        default="tiny",
        help="preset campaign size (tiny: seconds; default: minutes; paper: the "
        "paper's program counts, 694,400 runs, within 7%% of its 652,600)",
    )
    parser.add_argument("--seed", type=int, default=2024, help="campaign root seed")
    parser.add_argument("--fp64-programs", type=int, default=None, help="override FP64 program count")
    parser.add_argument("--fp32-programs", type=int, default=None, help="override FP32 program count")
    parser.add_argument("--fp16-programs", type=int, default=None, help="override FP16 program count")
    parser.add_argument("--inputs", type=int, default=None, help="inputs per program")
    parser.add_argument("--no-hipify", action="store_true", help="skip the HIPIFY arm")
    parser.add_argument("--no-fp32", action="store_true", help="skip the FP32 arm")
    parser.add_argument(
        "--include-fp16",
        action="store_true",
        help="add the reduced-precision fp16 + fp16_hipify arm pair "
        "(half precision; not part of the paper's grid)",
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="add the metamorphic-oracle arm (single-stack relation "
        "checking over an FP32 corpus; see repro-oracle for a "
        "standalone session)",
    )
    parser.add_argument(
        "--oracle-programs", type=int, default=None,
        help="override the oracle arm's program count (default 60)",
    )
    parser.add_argument(
        "--stacks",
        metavar="NAMES",
        default=None,
        help="comma-separated compiler stacks to sweep "
        f"(registry: {', '.join(STACK_NAMES)}; default nvcc,hipcc); every "
        "2-combination becomes one arm per precision lane",
    )
    parser.add_argument("--no-adjacency", action="store_true", help="omit adjacency matrices")
    parser.add_argument("--json", metavar="PATH", default=None, help="also dump results as JSON")
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="stream completed plan steps into this JSONL file",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reload completed steps from --checkpoint and run only the rest",
    )
    add_execution_args(parser)
    return parser


def _config_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> CampaignConfig:
    # Explicit `is not None` checks: `--fp64-programs 0` must be rejected
    # loudly, not silently replaced by the preset (0 is falsy).
    for name, value, minimum in (
        ("--fp64-programs", args.fp64_programs, 1),
        ("--fp32-programs", args.fp32_programs, 1),
        ("--fp16-programs", args.fp16_programs, 1),
        ("--oracle-programs", args.oracle_programs, 1),
        ("--inputs", args.inputs, 1),
    ):
        if value is not None and value < minimum:
            parser.error(f"{name} must be >= {minimum} (got {value})")
    resolve_execution_args(parser, args)
    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint")
    if args.oracle_programs is not None and not args.oracle:
        parser.error("--oracle-programs requires --oracle")
    stacks = DEFAULT_STACK_PAIR
    if args.stacks is not None:
        try:
            stacks = resolve_stacks(args.stacks)
        except HarnessError as exc:
            parser.error(str(exc))

    if args.scale == "paper":
        base = CampaignConfig.paper_scale(seed=args.seed, workers=args.workers)
    elif args.scale == "default":
        base = CampaignConfig.default(
            seed=args.seed, workers=args.workers if args.workers is not None else 0
        )
    else:
        base = CampaignConfig.tiny(seed=args.seed)
    return CampaignConfig(
        seed=base.seed,
        n_programs_fp64=args.fp64_programs if args.fp64_programs is not None else base.n_programs_fp64,
        n_programs_fp32=args.fp32_programs if args.fp32_programs is not None else base.n_programs_fp32,
        n_programs_fp16=args.fp16_programs if args.fp16_programs is not None else base.n_programs_fp16,
        inputs_per_program=args.inputs if args.inputs is not None else base.inputs_per_program,
        include_hipify=not args.no_hipify,
        include_fp32=not args.no_fp32,
        include_fp16=args.include_fp16,
        include_oracle=args.oracle,
        n_programs_oracle=(
            args.oracle_programs
            if args.oracle_programs is not None
            else base.n_programs_oracle
        ),
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
        parser.prog, args, run_campaign, config,
        unit=" steps", checkpoint=args.checkpoint, resume=args.resume,
    )
    if result is None:
        return 2
    if result.resumed_steps:
        print(
            f"resumed {result.resumed_steps} completed steps from {args.checkpoint}",
            file=sys.stderr,
        )
    print(render_campaign_report(result, include_adjacency=not args.no_adjacency))
    if result.group_wall_seconds:
        wall = Table(title="Per-arm wall time (traced)", headers=["arm group", "seconds"])
        for label, seconds in result.group_wall_seconds.items():
            wall.add_row([label, seconds])
        print()
        print(wall.render())

    if args.json:
        payload = {
            "config": {
                "seed": config.seed,
                "n_programs_fp64": config.n_programs_fp64,
                "n_programs_fp32": config.n_programs_fp32,
                "n_programs_fp16": config.n_programs_fp16,
                "inputs_per_program": config.inputs_per_program,
                "include_hipify": config.include_hipify,
                "include_fp32": config.include_fp32,
                "include_fp16": config.include_fp16,
                "include_oracle": config.include_oracle,
                "stacks": list(config.stacks),
                "workers": config.workers,
            },
            "elapsed_seconds": result.elapsed_seconds,
            "resumed_steps": result.resumed_steps,
            "nvcc_cache_hits": result.nvcc_cache_hits,
            # Execution-service counters.  Every count here is a function
            # of the executed plan alone, never of scheduling, so this
            # block is identical at any --workers (the backend name is
            # deliberately omitted for that reason).  The one exception:
            # "phase_seconds" is wall time (lookup/execute/commit) and is
            # legitimately scheduling-dependent, like elapsed_seconds.
            "exec": {
                "stacks": list(config.stacks),
                "nvcc_executions": result.nvcc_executions,
                "nvcc_cache_hits": result.nvcc_cache_hits,
                "executions_by_stack": result.exec_metrics.get(
                    "executions_by_stack", {}
                ),
                "sweep_requests": result.exec_metrics.get("requests", 0),
                "deduped_requests": result.exec_metrics.get("deduped", 0),
                "store": result.exec_metrics.get("store", {}),
                "phase_seconds": result.exec_metrics.get("phase_seconds", {}),
            },
            "arms": {
                name: {
                    "stacks": list(arm.stacks),
                    "total_runs": arm.total_runs,
                    "runs_by_opt": dict(arm.runs_by_opt),
                    "skipped_by_opt": dict(arm.skipped_by_opt),
                    "nvcc_executions": arm.nvcc_executions,
                    "nvcc_cache_hits": arm.nvcc_cache_hits,
                    "discrepancies": [d.to_json_dict() for d in arm.discrepancies],
                    **(
                        {
                            "oracle_checked": dict(arm.oracle_checked),
                            "violations_by_relation": arm.violations_by_relation,
                            "oracle_violations": [
                                v.to_json_dict() for v in arm.oracle_violations
                            ],
                        }
                        if name == "oracle"
                        else {}
                    ),
                }
                for name, arm in result.arms.items()
            },
        }
        dump_json(payload, args.json)
        print(f"JSON results written to {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
