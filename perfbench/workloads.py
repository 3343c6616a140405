"""Workload definitions: which CLI each workload drives, with which flags.

A workload is a fixed suite of *cases*.  A case is one invocation of a
real CLI entry point (``repro-campaign``, ``repro-fuzz`` or
``repro-oracle``), with the workload seed ``2024 + i`` for case ``i``;
the other flags are the family's.  Every run executes the whole suite;
the benchmark's ``--seed`` sets the order (see ``run.py``).

Every case's deterministic output is digested and pinned in
``suite.json`` (regenerate it with ``pin.py``):

* campaign: the ``--json`` payload minus the scheduling-dependent keys
  (``elapsed_seconds``, ``resumed_steps``, ``exec.phase_seconds``,
  ``config.workers``);
* fuzz and oracle: the ledger bytes.

``campaign`` and ``campaign-pool`` share one family of pins, which
checks the byte-identity contract between serial and pool runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: Workload seed of case 0; case ``i`` uses ``BASE_SEED + i``.
BASE_SEED = 2024

#: Cases per family: about 1.5 to 2 s of work per workload on a 2-core
#: x86 container, so that a 25 s run fits seven or more samples.  Case cost
#: is uneven (oracle case 0 takes six times as long as case 1).  A
#: campaign case has 15 chunks, which the pool sends as two tasks.
SUITE_SIZE = {"campaign": 1, "fuzz": 2, "oracle": 2}


@dataclass(frozen=True)
class Family:
    """One CLI with fixed flags; the cases vary only the ``--seed``."""

    name: str
    #: dotted module of the CLI whose ``main(argv)`` runs a case
    cli_module: str
    #: the entry point inside ``cli_module`` that returns the result object
    entry: str
    #: flags shared by every case (seed and output path are appended)
    flags: Tuple[str, ...]
    #: flag naming the output file that is digested
    output_flag: str
    output_name: str

    def argv(self, case: int, output: str, extra: Tuple[str, ...] = ()) -> List[str]:
        return [
            *self.flags,
            *extra,
            "--seed",
            str(BASE_SEED + case),
            self.output_flag,
            output,
        ]


FAMILIES: Dict[str, Family] = {
    # fp64 + fp64_hipify + fp32 arms, 7 inputs per program (the paper's
    # runs/programs ratio).
    "campaign": Family(
        name="campaign",
        cli_module="repro.cli",
        entry="run_campaign",
        flags=(
            "--fp64-programs", "32",
            "--fp32-programs", "28",
            "--inputs", "7",
            "--no-adjacency",
        ),
        output_flag="--json",
        output_name="campaign.json",
    ),
    # fp32 bandit session; triage and reduction run on every new finding.
    "fuzz": Family(
        name="fuzz",
        cli_module="repro.fuzz.cli",
        entry="run_fuzz",
        flags=(
            "--fptype", "fp32",
            "--seed-programs", "6",
            "--inputs", "3",
            "--mutants", "20",
        ),
        output_flag="--ledger",
        output_name="fuzz.jsonl",
    ),
    # fp32, all six relations.
    "oracle": Family(
        name="oracle",
        cli_module="repro.oracle.cli",
        entry="run_oracle",
        flags=(
            "--fptype", "fp32",
            "--programs", "5",
            "--inputs", "3",
        ),
        output_flag="--ledger",
        output_name="oracle.jsonl",
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    #: flags added to the family's (they must not change the output)
    extra: Tuple[str, ...]
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "campaign", "campaign", (),
            "the paper's pipeline: execution and compile dominate, triage never runs",
        ),
        Workload(
            "campaign-pool", "campaign", ("--workers", "2"),
            "the only workload through the process-pool transport; output "
            "byte-identical to campaign",
        ),
        Workload(
            "fuzz", "fuzz", (),
            "bandit fuzzing: most time in triage and reduction through the "
            "scalar, uncached run_single",
        ),
        Workload(
            "oracle", "oracle", (),
            "metamorphic relations: the most execution-heavy workload; every "
            "relation re-requests the base",
        ),
    )
}


# -- output digests ---------------------------------------------------------


def _campaign_digest(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.pop("elapsed_seconds", None)
    payload.pop("resumed_steps", None)
    payload.get("exec", {}).pop("phase_seconds", None)
    payload.get("config", {}).pop("workers", None)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


DIGESTS: Dict[str, Callable[[str], str]] = {
    "campaign": _campaign_digest,
    "fuzz": _file_digest,
    "oracle": _file_digest,
}


# -- committed pair runs ----------------------------------------------------


def pair_runs(family: str, result) -> int:
    """Committed differential pair runs of one case's result object."""
    if family == "campaign":
        return int(result.total_runs)
    if family == "fuzz":
        return int(result.pair_runs + result.baseline_pair_runs)
    return int(result.pair_runs)


def digest_output(family: str, path: str) -> str:
    digest = DIGESTS[family](path)
    os.unlink(path)
    return digest
