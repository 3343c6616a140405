"""Append-only JSONL findings ledger with campaign-style resume.

The file discipline (fingerprint header, flushed appends, torn-tail
recovery) is :class:`repro.utils.checkpoint.JsonlCheckpoint` — shared
with the campaign engine's plan-step checkpoint.  On top of it the
ledger's record vocabulary is:

* a ``header`` line carrying the fuzz config fingerprint;
* one ``baseline`` line recording the seed pool's own signatures and the
  corpus indices that already diverge (so a resumed session neither
  re-runs the baseline nor mistakes an old signature for a novel one);
* one ``batch`` line per completed batch of mutation iterations, carrying
  that batch's findings and its pool *promotions* — discrepant mutants
  that joined the seed pool without carrying a novel signature (the AFL
  "interesting input" queue).  Promotions are part of the ledger because
  the pool's evolution must be reconstructible on resume.

Every line is written deterministically — no timestamps, no elapsed
times, fixed key order — so two complete runs of the same seeded config
produce byte-identical ledgers, and a torn final line (session killed
mid-append) is dropped on reopen exactly like a campaign checkpoint's.

Format compatibility: the header fingerprint carries a ``format`` version
(see :meth:`repro.fuzz.engine.FuzzConfig.fingerprint`).  Format 2 — the
FP16 lane — added the ``precision-cast`` mutation to the default set and
an ``fptype`` field to every signature record; format-1 ledgers are
rejected on resume rather than silently misread.  Format 3 — the
metamorphic-oracle lane — adds ``oracle:<relation>`` signature causes
(``arm: "oracle"`` findings whose outcome pair is base-vs-variant on one
platform, the implicated platform riding in the functions slot).  The
format-3 keys are emitted only when ``oracle_relations`` is non-empty, so
a non-oracle config fingerprints exactly as format 2 and every existing
format-2 ledger still resumes; an oracle session's ledger is refused by a
format-2 engine (and vice versa), which is correct — neither can replay
the other's trajectory.  Format 4 — the stack registry — adds per-pair
findings (``arm`` carries a pair name like ``nvcc-cpu`` and the signature
records a ``stacks`` pair); its keys are emitted only for non-default
``stacks`` selections, so default-pair configs fingerprint exactly as
before and every format-2 and format-3 ledger still resumes.  Format 5 —
tree search — adds a per-batch ``search`` trace: one
``[iteration, corpus_index, lineage, reward]`` record per *evaluated*
iteration, which is what lets a resumed mcts session rebuild its tree
statistics (rewards are evaluation results, not replayable from the
config).  The ``search`` key is emitted only when ``FuzzConfig.search``
is ``"mcts"``, so bandit-mode ledgers — the default — stay byte-for-byte
format 2/3/4 and keep resuming under older engines.

A :class:`Finding` records, besides the discrepancy and its signature,
the full *lineage* of the mutant: the corpus index it started from and
the ``(mutation_id, seed[, donor])`` steps applied.  Mutated IR cannot be
regenerated from a ProgramGenerator seed, but it can be *replayed* —
deterministic generation plus deterministic mutation make the lineage a
complete recipe, which is how a resumed session checks that its re-run
selections match the recorded ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fuzz.signature import DiscrepancySignature
from repro.harness.differential import Discrepancy
from repro.utils.checkpoint import JsonlCheckpoint

__all__ = ["LineageStep", "Finding", "Promotion", "SearchTrace", "FindingsLedger"]


@dataclass(frozen=True)
class LineageStep:
    """One mutation applied on the way to a mutant.

    ``donor_index`` is the corpus index of the splice donor (``None`` for
    donor-free mutations).
    """

    mutation: str
    seed: int
    donor_index: Optional[int] = None

    def to_json(self) -> List[object]:
        if self.donor_index is None:
            return [self.mutation, self.seed]
        return [self.mutation, self.seed, self.donor_index]

    @classmethod
    def from_json(cls, data: Sequence[object]) -> "LineageStep":
        return cls(
            mutation=str(data[0]),
            seed=int(data[1]),  # type: ignore[arg-type]
            donor_index=int(data[2]) if len(data) > 2 else None,  # type: ignore[arg-type]
        )


@dataclass
class Finding:
    """One novel-signature discrepancy discovered by the fuzzer."""

    iteration: int
    arm: str  # "native" | "hipify" | "oracle" (format 3)
    mutant_id: str
    corpus_index: int
    lineage: Tuple[LineageStep, ...]
    signature: DiscrepancySignature
    discrepancy: Discrepancy
    original_size: int
    reduced_size: Optional[int] = None
    reduced_cuda: Optional[str] = None

    @property
    def minimized(self) -> bool:
        return self.reduced_size is not None

    def describe(self) -> str:
        mutations = "→".join(step.mutation for step in self.lineage) or "(seed)"
        size = (
            f", minimized {self.original_size}→{self.reduced_size} nodes"
            if self.minimized
            else ""
        )
        return (
            f"#{self.iteration} [{self.arm}] {self.signature.describe()} "
            f"via {mutations}{size}"
        )

    def to_json_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "iteration": self.iteration,
            "arm": self.arm,
            "mutant_id": self.mutant_id,
            "corpus_index": self.corpus_index,
            "lineage": [step.to_json() for step in self.lineage],
            "signature": self.signature.to_json_dict(),
            "discrepancy": self.discrepancy.to_json_dict(),
            "original_size": self.original_size,
        }
        if self.reduced_size is not None:
            data["reduced_size"] = self.reduced_size
        if self.reduced_cuda is not None:
            data["reduced_cuda"] = self.reduced_cuda
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "Finding":
        return cls(
            iteration=int(data["iteration"]),  # type: ignore[arg-type]
            arm=str(data["arm"]),
            mutant_id=str(data["mutant_id"]),
            corpus_index=int(data["corpus_index"]),  # type: ignore[arg-type]
            lineage=tuple(
                LineageStep.from_json(step) for step in data["lineage"]  # type: ignore[union-attr]
            ),
            signature=DiscrepancySignature.from_json_dict(data["signature"]),  # type: ignore[arg-type]
            discrepancy=Discrepancy.from_json_dict(data["discrepancy"]),  # type: ignore[arg-type]
            original_size=int(data["original_size"]),  # type: ignore[arg-type]
            reduced_size=(
                int(data["reduced_size"]) if "reduced_size" in data else None  # type: ignore[arg-type]
            ),
            reduced_cuda=(
                str(data["reduced_cuda"]) if "reduced_cuda" in data else None
            ),
        )


@dataclass(frozen=True)
class Promotion:
    """A discrepant mutant added to the pool without a novel signature."""

    iteration: int
    corpus_index: int
    lineage: Tuple[LineageStep, ...]

    def to_json(self) -> List[object]:
        return [
            self.iteration,
            self.corpus_index,
            [step.to_json() for step in self.lineage],
        ]

    @classmethod
    def from_json(cls, data: Sequence[object]) -> "Promotion":
        return cls(
            iteration=int(data[0]),  # type: ignore[arg-type]
            corpus_index=int(data[1]),  # type: ignore[arg-type]
            lineage=tuple(LineageStep.from_json(s) for s in data[2]),  # type: ignore[union-attr]
        )


@dataclass(frozen=True)
class SearchTrace:
    """One evaluated mcts iteration: which node, what reward (format 5).

    Skipped iterations are *not* recorded: tree selection is a pure
    function of the tree state and the iteration's derived rng, so a
    resumed session reproduces them by replaying ``prepare``.  The
    reward is the only evaluation-dependent quantity the tree absorbs,
    which is why it is the only thing the trace must carry;
    ``corpus_index``/``lineage`` double as a consistency check that the
    replayed selection matches the recorded one.
    """

    iteration: int
    corpus_index: int
    lineage: Tuple[LineageStep, ...]
    reward: float
    #: whether the program diverged at all (novel signature or not) —
    #: divergence promotes the mutant into the tree without paying
    #: ancestor reward, so replay needs it alongside the reward.
    diverged: bool = False

    def to_json(self) -> List[object]:
        return [
            self.iteration,
            self.corpus_index,
            [step.to_json() for step in self.lineage],
            self.reward,
            1 if self.diverged else 0,
        ]

    @classmethod
    def from_json(cls, data: Sequence[object]) -> "SearchTrace":
        return cls(
            iteration=int(data[0]),  # type: ignore[arg-type]
            corpus_index=int(data[1]),  # type: ignore[arg-type]
            lineage=tuple(LineageStep.from_json(s) for s in data[2]),  # type: ignore[union-attr]
            reward=float(data[3]),  # type: ignore[arg-type]
            diverged=bool(data[4]) if len(data) > 4 else False,  # type: ignore[arg-type]
        )


@dataclass
class LedgerState:
    """Everything a resumed session reloads from an existing ledger."""

    baseline_signatures: List[DiscrepancySignature] = field(default_factory=list)
    hot_corpus_indices: List[int] = field(default_factory=list)
    baseline_runs: int = 0
    findings: List[Finding] = field(default_factory=list)
    promotions: List[Promotion] = field(default_factory=list)
    #: format-5 (mcts) per-iteration search records, in ledger order;
    #: empty for bandit-mode ledgers.
    search_steps: List[SearchTrace] = field(default_factory=list)
    iterations_completed: int = 0
    batches_completed: int = 0
    has_baseline: bool = False


class FindingsLedger(JsonlCheckpoint):
    """The append-only JSONL file behind ``repro-fuzz --ledger``."""

    noun = "ledger"
    writer = "a fuzz session"

    # ------------------------------------------------------------------ read
    def load(self, fingerprint: Dict[str, object]) -> LedgerState:
        """Read a ledger back, validating its header against ``fingerprint``."""
        state = LedgerState()
        for data in self.iter_records(fingerprint):
            kind = data.get("kind")
            if kind == "baseline":
                state.has_baseline = True
                state.baseline_runs = int(data.get("runs", 0))
                state.baseline_signatures = [
                    DiscrepancySignature.from_json_dict(s)
                    for s in data.get("signatures", [])
                ]
                state.hot_corpus_indices = [int(i) for i in data.get("hot", [])]
            elif kind == "batch":
                state.batches_completed += 1
                state.iterations_completed = max(
                    state.iterations_completed, int(data["stop"])
                )
                state.findings.extend(
                    Finding.from_json_dict(f) for f in data.get("findings", [])
                )
                state.promotions.extend(
                    Promotion.from_json(p) for p in data.get("promoted", [])
                )
                state.search_steps.extend(
                    SearchTrace.from_json(s) for s in data.get("search", [])
                )
        return state

    # ----------------------------------------------------------------- write
    def append_baseline(
        self,
        runs: int,
        signatures: Sequence[DiscrepancySignature],
        hot_corpus_indices: Sequence[int],
    ) -> None:
        self.append_record(
            {
                "kind": "baseline",
                "runs": runs,
                "signatures": [s.to_json_dict() for s in signatures],
                "hot": list(hot_corpus_indices),
            }
        )

    def append_batch(
        self,
        index: int,
        start: int,
        stop: int,
        findings: Sequence[Finding],
        promoted: Sequence[Promotion] = (),
        search: Optional[Sequence[SearchTrace]] = None,
    ) -> None:
        """``search=None`` (bandit mode) omits the format-5 key entirely,
        keeping bandit batch lines byte-identical to earlier formats; an
        mcts session passes a list — empty batches included — so every
        format-5 batch line is self-describing."""
        record: Dict[str, object] = {
            "kind": "batch",
            "index": index,
            "start": start,
            "stop": stop,
            "findings": [f.to_json_dict() for f in findings],
            "promoted": [p.to_json() for p in promoted],
        }
        if search is not None:
            record["search"] = [s.to_json() for s in search]
        self.append_record(record)
