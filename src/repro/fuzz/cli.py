"""Command-line interface: ``repro-fuzz``.

Runs a feedback-guided fuzzing session against the modeled CUDA/HIP
stacks and prints the novel findings.  Examples::

    repro-fuzz --mutants 200
    repro-fuzz --fptype fp64 --seed 7 --mutants 500 --report
    repro-fuzz --mutants 400 --ledger findings.jsonl
    repro-fuzz --mutants 800 --ledger findings.jsonl --resume
    repro-fuzz --max-seconds 120 --mutants 100000 --ledger findings.jsonl
    repro-fuzz --mutants 400 --workers 2      # pool for baseline + triage
    repro-fuzz --stacks nvcc,hipcc,cpu        # per-pair findings, format-4 ledger
    repro-fuzz --search mcts --coverage-report  # tree search, format-5 ledger
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.cliutil import (
    add_execution_args, parse_names, resolve_execution_args, run_session,
)
from repro.errors import HarnessError
from repro.fp.types import FPType
from repro.fuzz.engine import FuzzConfig, run_fuzz
from repro.fuzz.mutators import MUTATION_NAMES
from repro.fuzz.search import STRATEGIES
from repro.fuzz.signature import signature_histogram
from repro.stacks import DEFAULT_STACK_PAIR, STACK_NAMES, resolve_stacks
from repro.utils.tables import Table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="Feedback-guided discrepancy fuzzing (SC'24 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=2024, help="session root seed")
    parser.add_argument(
        "--fptype",
        choices=["fp16", "fp32", "fp64"],
        default="fp32",
        help="kernel precision (default fp32 — the richest discrepancy "
        "surface; fp16 fuzzes the reduced-precision lane)",
    )
    parser.add_argument(
        "--seed-programs", type=int, default=None, help="seed-pool size (default 40)"
    )
    parser.add_argument(
        "--inputs", type=int, default=None, help="inputs per program (default 3)"
    )
    parser.add_argument(
        "--mutants", type=int, default=None,
        help="mutation-iteration budget for the session (default 200)",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=None,
        help="optional wall-clock budget (checked between iterations)",
    )
    parser.add_argument(
        "--batch", type=int, default=None, help="ledger batch size (default 25)"
    )
    parser.add_argument(
        "--no-hipify", action="store_true", help="skip each mutant's HIPIFY twin"
    )
    parser.add_argument(
        "--no-minimize", action="store_true", help="skip delta-debugging of findings"
    )
    parser.add_argument(
        "--mutations", default=None,
        help=f"comma-separated mutation subset (default: {','.join(MUTATION_NAMES)})",
    )
    parser.add_argument(
        "--oracle", action="store_true",
        help="also check every evaluated program against the metamorphic "
        "relations; violations become oracle:<relation> findings "
        "(bumps the ledger fingerprint to format 3)",
    )
    parser.add_argument(
        "--oracle-relations", default=None,
        help="comma-separated relation subset (implies --oracle; "
        "default with --oracle: all relations)",
    )
    parser.add_argument(
        "--stacks",
        metavar="NAMES",
        default=None,
        help="comma-separated compiler stacks every evaluation sweeps "
        f"(registry: {', '.join(STACK_NAMES)}; default nvcc,hipcc); "
        "non-default selections bump the ledger fingerprint to format 4",
    )
    parser.add_argument(
        "--search",
        choices=list(STRATEGIES),
        default="bandit",
        help="iteration-selection strategy: the flat mutation bandit "
        "(default) or UCB1 tree search over IR-edit sequences, whose "
        "reward blends signature novelty, oracle violations, and grammar "
        "coverage (bumps the ledger fingerprint to format 5)",
    )
    parser.add_argument(
        "--coverage-report", action="store_true",
        help="print the grammar-feature coverage histogram after the "
        "session (requires --search mcts, which tracks coverage)",
    )
    parser.add_argument(
        "--coverage-out", metavar="PATH", default=None,
        help="write the grammar-feature coverage summary as JSON "
        "(requires --search mcts)",
    )
    parser.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="append findings to this JSONL ledger",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="reload --ledger and continue the session where it stopped",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="also print the signature histogram of all findings",
    )
    add_execution_args(
        parser,
        workers_help="process-pool size for the seed pool's baseline sweep "
        "and triage fan-out; iterations always evaluate in-process (0 = "
        "serial; the ledger is byte-identical at any worker count)",
    )
    return parser


def _config_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> FuzzConfig:
    # `is not None` guards: an explicit 0 must error, not silently fall
    # back to the default (the falsy-zero bug class PR 1 fixed).
    for name, value, minimum in (
        ("--seed-programs", args.seed_programs, 1),
        ("--inputs", args.inputs, 1),
        ("--mutants", args.mutants, 0),
        ("--batch", args.batch, 1),
    ):
        if value is not None and value < minimum:
            parser.error(f"{name} must be >= {minimum} (got {value})")
    resolve_execution_args(parser, args)
    if args.max_seconds is not None and args.max_seconds <= 0:
        parser.error(f"--max-seconds must be positive (got {args.max_seconds})")
    if args.resume and args.ledger is None:
        parser.error("--resume requires --ledger")
    if args.coverage_report and args.search != "mcts":
        parser.error("--coverage-report requires --search mcts")
    if args.coverage_out is not None and args.search != "mcts":
        parser.error("--coverage-out requires --search mcts")

    base = FuzzConfig()
    mutations = base.mutations
    if args.mutations is not None:
        mutations = parse_names(
            parser, "--mutations", args.mutations, MUTATION_NAMES, "mutation"
        )
    oracle_relations: tuple = ()
    if args.oracle or args.oracle_relations is not None:
        # The relation catalogue loads only for sessions that check it.
        from repro.oracle.relations import RELATION_NAMES

        oracle_relations = RELATION_NAMES
        if args.oracle_relations is not None:
            oracle_relations = parse_names(
                parser, "--oracle-relations", args.oracle_relations,
                RELATION_NAMES, "relation",
            )
    stacks = DEFAULT_STACK_PAIR
    if args.stacks is not None:
        try:
            stacks = resolve_stacks(args.stacks)
        except HarnessError as exc:
            parser.error(str(exc))
    return FuzzConfig(
        seed=args.seed,
        fptype=FPType.from_string(args.fptype),
        n_seed_programs=args.seed_programs if args.seed_programs is not None else base.n_seed_programs,
        inputs_per_program=args.inputs if args.inputs is not None else base.inputs_per_program,
        max_mutants=args.mutants if args.mutants is not None else base.max_mutants,
        max_seconds=args.max_seconds,
        batch_size=args.batch if args.batch is not None else base.batch_size,
        include_hipify=not args.no_hipify,
        minimize=not args.no_minimize,
        mutations=mutations,
        oracle_relations=oracle_relations,
        stacks=stacks,
        workers=args.workers if args.workers is not None else base.workers,
        search=args.search,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(parser, args)

    result = run_session(
        parser.prog, args, run_fuzz, config, ledger=args.ledger, resume=args.resume
    )
    if result is None:
        return 2
    if result.resumed_iterations:
        print(
            f"resumed {result.resumed_iterations} iterations from {args.ledger}",
            file=sys.stderr,
        )
    print(
        f"fuzz session: {result.iterations} iterations, "
        f"{result.mutants_run} mutants executed "
        f"({result.mutants_no_site} no-site, {result.mutants_invalid} invalid, "
        f"{result.mutants_noop} no-op, {result.duplicates} duplicate), "
        f"{result.pair_runs} run pairs (+{result.baseline_pair_runs} baseline)"
    )
    print(
        f"seed pool: {config.n_seed_programs} programs, "
        f"{len(result.hot_seed_indices)} already divergent, "
        f"{len(result.baseline_signatures)} baseline signatures"
    )
    print(
        f"nvcc executions {result.nvcc_executions}, "
        f"cache hits {result.nvcc_cache_hits} "
        f"({100.0 * result.cache_hit_rate:.0f}% of the CUDA side served from cache)"
    )
    if config.oracle_relations:
        print(
            f"oracle: {result.oracle_violations} relation violations on "
            f"committed iterations"
        )
    if config.search == "mcts":
        stats = result.search_stats
        print(
            f"mcts tree: {stats.get('nodes', 0)} nodes "
            f"(max depth {stats.get('max_depth', 0)}, "
            f"{stats.get('dead_nodes', 0)} dead, "
            f"{stats.get('explore_programs', 0)} explore programs), "
            f"{result.coverage.get('features', 0)} grammar features covered"
        )
    if args.coverage_out is not None:
        with open(args.coverage_out, "w", encoding="utf-8") as fh:
            json.dump(result.coverage, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"novel findings: {len(result.findings)} (stopped by {result.stopped_by})")
    for finding in result.findings:
        print(f"  {finding.describe()}")
    if args.coverage_report:
        counts = result.coverage.get("counts", {})
        coverage_table = Table(
            title="Grammar-feature coverage (rarest first)",
            headers=["Feature", "Programs"],
        )
        for feature, count in sorted(counts.items(), key=lambda kv: (kv[1], kv[0])):  # type: ignore[union-attr]
            coverage_table.add_row([feature, count])
        print()
        print(coverage_table.render())
    if args.report:
        print()
        print(
            signature_histogram(
                result.baseline_signatures + result.novel_signatures,
                title="Signature histogram (baseline + findings)",
            ).render()
        )
        # Execution metrics for committed work only — invariant across
        # --workers, like the ledger (mirrors repro-campaign --json's
        # exec block).
        print()
        print("Execution service (committed work):")
        print(f"  pair runs            {result.pair_runs}")
        print(f"  baseline pair runs   {result.baseline_pair_runs}")
        # Per-input accounting: every executed input is a cache miss,
        # every replayed one a hit, so executions ARE the miss count.
        print(f"  nvcc cache misses    {result.nvcc_executions}  (= executions)")
        print(f"  nvcc cache hits      {result.nvcc_cache_hits}")
        print(f"  cache hit rate       {100.0 * result.cache_hit_rate:.0f}%")
        print(f"  duplicates avoided   {result.duplicates}")
        # Triage/minimization probes of this process (pool workers' own
        # probes are not counted, so this block varies with --workers).
        probes = result.probe_stats
        print()
        print("Analysis probes (triage + minimization, this process):")
        print(f"  probes requested     {probes.get('probes', 0)}")
        print(f"  O0 from sweep        {probes.get('o0_from_sweep', 0)}")
        print(f"  memo hits            {probes.get('memo_hits', 0)}")
        print(f"  executed             {probes.get('executed', 0)}")
        print(
            f"  artifact hits/misses {probes.get('artifact_hits', 0)}"
            f"/{probes.get('artifact_misses', 0)}"
        )
        if result.batch_walls:
            wall = Table(
                title="Per-batch wall time (traced)",
                headers=["iterations", "seconds"],
            )
            for start, stop, seconds in result.batch_walls:
                wall.add_row([f"{start}..{stop}", seconds])
            print()
            print(wall.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
