"""Search strategies: how a fuzz session spends its iteration budget.

:func:`repro.fuzz.engine.run_fuzz` owns what every strategy shares — the
baseline, the speculative evaluation window, counters, triage and
findings.  A :class:`SearchStrategy` owns the rest: which program to
evaluate next and what each result teaches it.  ``FuzzConfig.search``
picks one from :data:`STRATEGIES`:

* ``"bandit"`` (:class:`BanditSearch`, the default) — a win-count bandit
  over the mutators plus a fresh-generation arm, mutating an
  energy-weighted flat pool of fertile programs;
* ``"mcts"`` (:class:`MctsSearch`) — UCB1 tree search over IR-edit
  sequences with a novelty/oracle/coverage reward blend.

The engine builds the strategy once the baseline is known and replays
the ledger into it.  Then, window by window, it prepares iterations
ahead and commits them in order, calling ``invalidate`` whenever a
commit reports that later selections changed.
A third strategy is one class with the protocol's methods plus one
:data:`STRATEGIES` entry: ``FuzzConfig`` validation, the ``repro-fuzz
--search`` choices and the ledger fingerprint all read the registry.

Tree search
-----------

The bandit strategy picks a *single* mutation of an energy-weighted pool
entry each iteration; its unit of learning is the mutation operator.
Tree search's unit of learning is the **edit sequence**: tree nodes are
``(corpus_index, lineage)`` programs — exactly the identity the ledger
already uses — rooted at the seed pool.  Selection walks the tree by
UCB1; at the selected node the search *expands*: it applies one of the
registered mutators (chosen by a per-node UCB1 over mutation arms, each
arm re-triable with every iteration's fresh derived seed — a fertile
program can be re-mutated indefinitely, which is what the flat bandit's
pool promotions do well).  A mutant that earns reward is promoted to a
child node, so paying edit sequences compound into deeper chains; a
zero-reward mutant leaves only arm statistics behind.  A root-level
*explore arm* generates a fresh corpus program, competing with the seed
subtrees on the same UCB terms.  Reward is a deterministic blend of what
the session actually wants:

* novel discrepancy signatures (weight 1.0) — the paper's currency;
* oracle-relation violations (0.25) — dense single-stack signal the
  tree can steer toward (violations are program-structural, so they
  cluster in subtrees);
* new grammar-coverage features (0.125, :mod:`repro.fuzz.coverage`) —
  densest early, steering toward under-covered program shapes before
  any signature has been seen.

``reward = raw / (1 + raw)`` keeps every simulation's reward in
``[0, 1)`` so UCB1's exploration term stays calibrated.

Determinism and the speculative window
--------------------------------------

The engine evaluates a window of upcoming iterations concurrently and
commits in order (see :mod:`repro.fuzz.engine`).  Classic MCTS breaks
that — every simulation touches the tree.  The resolution here is to
split each simulation's state changes by *what they depend on*:

* **Prepare-time** (``prepare``): visit increments (path, root, explore,
  per-arm) and dead marks (a mutation with no applicable site, a node
  with nothing left to try).  These depend only on the tree as it
  stands — never on the new program's evaluation — so speculated
  iterations may apply them eagerly.  Every change is recorded in an
  undo delta.
* **Commit-time** (``commit`` and its resume twin in ``replay``): reward
  backpropagation, child-node promotion, coverage observation.  These
  need the evaluation's results and run strictly in iteration order.

A commit whose reward is ``0.0`` changes nothing any later ``prepare``
reads (no promotion, nothing added to any reward sum), so the engine
keeps its speculation.  A nonzero reward invalidates the window; the
engine calls :meth:`MctsSearch.invalidate`, which unwinds the
outstanding deltas in reverse order, and re-prepares against the updated
tree.  The committed trajectory is therefore exactly the serial one and
the ledger stays byte-identical at every worker count.

Resume
------

Both strategies resume the same way: ``replay`` re-runs ``prepare`` for
every completed iteration (mutation only, never execution), adds each
evaluated content id to the dedup set, and commits the outcome the
ledger recorded.  The bandit reads that outcome from the batch lines'
findings and promotions.  For tree search, the ledger's per-iteration
``search`` trace (format 5) records
``(iteration, corpus_index, lineage, reward)`` for every *evaluated*
iteration.  Skipped iterations need no record: ``prepare`` is a pure
function of the tree state and the iteration's derived rng, so replaying
``prepare`` reproduces the same skips, the same dead marks, and the same
visit counts.  Replay therefore re-runs ``prepare`` for each completed
iteration, checks the prepared ``(corpus_index, lineage)`` against the
recorded one, and commits the *recorded* reward — rebuilding the tree
statistics, the promoted nodes, the coverage map, and the full
evaluated-content dedup set without re-executing anything.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any, Dict, List, Optional, Protocol, Sequence, Set, Tuple, Type,
)

from repro.errors import HarnessError
from repro.exec import content_id, content_text
from repro.fp.types import FPType
from repro.fuzz.coverage import CoverageTracker, kernel_features
from repro.fuzz.ledger import LedgerState, LineageStep, Promotion, SearchTrace
from repro.fuzz.mutators import MUTATORS, apply_mutation
from repro.ir.program import Kernel, Program
from repro.ir.validate import validate_kernel
from repro.telemetry.spans import get_tracer
from repro.utils.rng import derive_seed
from repro.varity.testcase import TestCase

__all__ = [
    "MAX_DEPTH",
    "EXPLORATION_C",
    "STRATEGIES",
    "BanditSearch",
    "MctsSearch",
    "PreparedIteration",
    "SearchStrategy",
    "blend_reward",
    "replay_lineage",
]

#: Edit-sequence depth cap.  Deep chains are the point of tree search,
#: but mutants further than this from any seed are mostly mutation noise;
#: the cap also bounds the ledger's lineage records.
MAX_DEPTH = 8

#: UCB1 exploration constant.  Rewards live in [0, 1) but most
#: simulations score 0, so the empirical means UCB compares are small;
#: a sub-1 constant keeps selection exploitative enough to re-mutate
#: paying programs instead of sweeping the whole frontier round-robin.
EXPLORATION_C = 0.5

#: Energy the bandit adds to a seed for each novel signature it (or its
#: mutant) produced — the power schedule's feedback term.
NOVELTY_BONUS = 8.0

#: Selection energy of promoted (discrepant-but-known-signature) pool
#: entries; kept near the cold-seed weight so the queue widens the
#: search without drowning out confirmed-novel regions.
PROMOTION_ENERGY = 1.0

#: The explore arm's optimistic prior (virtual wins): fresh programs
#: stay competitive until the seed subtrees prove they pay better.
EXPLORE_PRIOR = 2.0

#: Each node's expand action starts with one virtual win too, so a
#: freshly promoted node gets re-mutated before its subtree must win
#: selection on real evidence.
EXPAND_PRIOR = 1.0

#: How much global (cross-node) arm evidence seeds a node's own
#: mutation bandit — virtual pulls at the global mean, so a fresh node
#: starts from what the whole session has learned about each mutator
#: instead of re-sampling all arms in registry order.
GLOBAL_PRIOR_WEIGHT = 2.0

#: Reward blend weights (see module docstring).
REWARD_NOVEL = 1.0
REWARD_ORACLE = 0.25
REWARD_COVERAGE = 0.125

#: A diverged-but-stale mutant (known signature) earns no backprop —
#: otherwise a discrepancy-rich subtree addicts selection while minting
#: nothing new — but it IS promoted into the tree, seeded with this
#: prior, because discrepant programs are fertile ground for further
#: edits (the flat bandit's pool promotions exploit exactly this).
DIVERGED_PRIOR = 0.125


def blend_reward(novel: int, violations: int, new_features: int) -> float:
    """The deterministic reward for one evaluated program."""
    raw = (
        REWARD_NOVEL * novel
        + REWARD_ORACLE * violations
        + REWARD_COVERAGE * new_features
    )
    return raw / (1.0 + raw)


def mutant_content_id(fptype: FPType, content: str) -> str:
    """Mutant program ids keep their historical ``fuzz-`` shape."""
    return content_id(fptype, content, prefix="fuzz")


def replay_lineage(corpus, corpus_index: int, lineage: Sequence[LineageStep]) -> Kernel:
    """Rebuild a mutant kernel from its ledger lineage."""
    kernel = corpus.get(corpus_index).program.kernel
    for step in lineage:
        donor = (
            corpus.get(step.donor_index).program.kernel
            if step.donor_index is not None
            else None
        )
        mutated = apply_mutation(kernel, step.mutation, step.seed, donor)
        if mutated is None:
            raise HarnessError(
                f"ledger lineage does not replay: {step.mutation} produced no mutant"
            )
        kernel = mutated
    return kernel


@dataclass
class PreparedIteration:
    """One speculated iteration: everything selection decided, nothing
    committed.  ``skip`` names the counter a non-evaluable iteration
    lands in; otherwise ``test`` is the candidate to evaluate.
    ``parent`` is the bandit's pool entry (``None`` under tree search)."""

    iteration: int
    arm: str
    skip: Optional[str] = None  # "no_site" | "invalid" | "noop" | "duplicate"
    kind: str = ""  # "explore" | "mutant"
    test: Optional[TestCase] = None
    content: str = ""
    content_id: str = ""
    corpus_index: int = -1
    lineage: Tuple[LineageStep, ...] = ()
    parent: Optional[object] = None


class SearchStrategy(Protocol):
    """What :func:`repro.fuzz.engine.run_fuzz` needs from a strategy
    (see the module docstring for the call order).  Subclasses inherit
    the no-op ``commit_skip`` and ``invalidate`` and the empty ``stats``
    and ``coverage_summary``."""

    def __init__(self, config, corpus, hot_indices: Sequence[int]) -> None:
        """A fresh strategy over ``corpus`` once the baseline is known;
        ``hot_indices`` are the seed programs that already diverge."""

    @classmethod
    def fingerprint_keys(cls) -> Dict[str, object]:
        """Keys this strategy adds to the ledger fingerprint (a ``format``
        key overrides the base format)."""

    def prepare(
        self, i: int, evaluated: Set[str], overlay: Set[str]
    ) -> PreparedIteration:
        """Select iteration ``i`` against the committed state.
        ``evaluated`` holds every committed content id and ``overlay``
        the window's own; a prepared candidate adds its id to
        ``overlay``."""

    def commit(
        self, prep: PreparedIteration, novel: int, violations: int, diverged: bool
    ) -> bool:
        """Fold in an evaluated iteration: its count of novel findings and
        of oracle violations, and whether it diverged across vendors.
        True when a later selection could differ."""

    def commit_skip(self, prep: PreparedIteration) -> None:
        """Fold in a skipped iteration."""
        return None

    def invalidate(self) -> None:
        """Undo every prepared-but-uncommitted iteration."""
        return None

    def replay(self, state: LedgerState, evaluated: Set[str]) -> None:
        """Rebuild the committed state of ``state``'s completed iterations
        by re-running ``prepare`` for each, adding every evaluated content
        id to ``evaluated``."""

    def take_batch_records(self) -> Dict[str, Any]:
        """This batch's strategy records as ``append_batch`` keywords;
        resets the batch."""

    def stats(self) -> Dict[str, object]:
        """Out-of-band statistics for ``FuzzResult.search_stats``."""
        return {}

    def coverage_summary(self) -> Dict[str, object]:
        """Grammar-feature coverage for ``FuzzResult.coverage``."""
        return {}


@dataclass
class _PoolEntry:
    """One power-scheduled seed: a corpus program or a promoted mutant."""

    test: TestCase
    corpus_index: int
    lineage: Tuple[LineageStep, ...]
    content: str
    energy: float = 1.0


class BanditSearch(SearchStrategy):
    """The default ``search="bandit"`` strategy: a power-scheduled flat
    pool plus a win-count bandit over the iteration's action.

    The arms are "explore" — evaluate a fresh generated program instead
    of mutating — plus the registered mutators.  An arm's
    selection weight is ``1 + its novel-signature findings so far``, so
    budget flows to whatever is currently paying: a barren pool drifts
    toward blind generation, a rich one concentrates on the mutators that
    keep producing.  (Novelty rewards arrive in bursts — one divergent
    program can yield several signatures across optimization settings —
    which is why the simple win-count rule empirically beats rate-
    normalized and UCB variants at session-sized attempt counts: it
    commits to a paying region immediately instead of waiting for rate
    estimates to stabilize.)

    Each novel finding adds :data:`NOVELTY_BONUS` energy to the mutated
    parent, and every diverging mutant joins the pool: at ``1 +
    NOVELTY_BONUS`` energy when it carried a novel signature, at
    :data:`PROMOTION_ENERGY` otherwise (a ledgered :class:`Promotion` — AFL's
    "interesting input" queue).  Selection reads only wins and the pool,
    so :meth:`prepare` touches nothing and :meth:`invalidate` has nothing
    to undo.  Resume re-runs :meth:`prepare` for every completed
    iteration and commits the ledgered findings count and promotion,
    which reconstructs both exactly (see :meth:`replay`).
    """

    def __init__(self, config, corpus, hot_indices: Sequence[int]) -> None:
        self.config = config
        self.corpus = corpus
        self.arms: Tuple[str, ...] = ("explore",) + config.mutations
        self.wins: Dict[str, int] = {a: 0 for a in self.arms}
        self.pool: List[_PoolEntry] = [
            _PoolEntry(
                test=test,
                corpus_index=index,
                lineage=(),
                content=content_text(test.program.kernel, test.inputs),
            )
            for index, test in enumerate(corpus.seed_tests())
        ]
        self._promotions: List[Promotion] = []
        for index in hot_indices:
            self.pool[index].energy += NOVELTY_BONUS

    @classmethod
    def fingerprint_keys(cls) -> Dict[str, object]:
        return {}  # bandit ledgers keep their pre-search formats 2–4

    def prepare(
        self, i: int, evaluated: Set[str], overlay: Set[str]
    ) -> PreparedIteration:
        config = self.config
        rng = random.Random(derive_seed(config.seed, "select", i))
        arm = rng.choices(
            self.arms, weights=[1 + self.wins[a] for a in self.arms], k=1
        )[0]

        if arm == "explore":
            # A fresh generated program; its index extends the corpus,
            # so any finding's (corpus_index, lineage=()) replays.
            corpus_index = config.n_seed_programs + i
            test = self.corpus.get(corpus_index)
            content = content_text(test.program.kernel, test.inputs)
            cid = mutant_content_id(config.fptype, content)
            overlay.add(cid)
            return PreparedIteration(
                iteration=i,
                arm=arm,
                kind="explore",
                test=test,
                content=content,
                content_id=cid,
                corpus_index=corpus_index,
                lineage=(),
            )

        parent = rng.choices(self.pool, weights=[e.energy for e in self.pool], k=1)[0]
        donor_index: Optional[int] = None
        donor: Optional[Kernel] = None
        if MUTATORS[arm].needs_donor:
            # Donors come from corpus-backed entries (so the lineage
            # stays a flat recipe) but are drawn energy-weighted:
            # divergence-prone subexpressions travel first.
            candidates = [e for e in self.pool if not e.lineage]
            donor_entry = rng.choices(
                candidates, weights=[e.energy for e in candidates], k=1
            )[0]
            donor_index = donor_entry.corpus_index
            donor = donor_entry.test.program.kernel
        mseed = derive_seed(config.seed, "mutant", i)
        kernel = apply_mutation(parent.test.program.kernel, arm, mseed, donor)
        if kernel is None:
            return PreparedIteration(iteration=i, arm=arm, skip="no_site")
        if validate_kernel(kernel):
            return PreparedIteration(iteration=i, arm=arm, skip="invalid")
        content = content_text(kernel, parent.test.inputs)
        if content == parent.content:
            return PreparedIteration(iteration=i, arm=arm, skip="noop")
        cid = mutant_content_id(config.fptype, content)
        if cid in evaluated or cid in overlay:
            return PreparedIteration(iteration=i, arm=arm, skip="duplicate")
        overlay.add(cid)
        program = Program(
            program_id=cid, kernel=kernel, seed=mseed, source_note="fuzz mutant"
        )
        return PreparedIteration(
            iteration=i,
            arm=arm,
            kind="mutant",
            test=TestCase(program, parent.test.inputs),
            content=content,
            content_id=cid,
            corpus_index=parent.corpus_index,
            lineage=parent.lineage + (LineageStep(arm, mseed, donor_index),),
            parent=parent,
        )

    def commit(
        self, prep: PreparedIteration, novel: int, violations: int, diverged: bool
    ) -> bool:
        if not diverged and not violations:
            return False
        assert prep.test is not None
        entry = _PoolEntry(
            test=prep.test,
            corpus_index=prep.corpus_index,
            lineage=prep.lineage,
            content=prep.content,
        )
        if novel:
            self._reward(prep.arm, prep.parent, novel)
            entry.energy = 1.0 + NOVELTY_BONUS
        else:
            # Discrepant but nothing novel: still an interesting input.
            # It joins the pool — chains of mutations walk the signature
            # space further than one hop can — and the promotion is
            # ledgered so a resume rebuilds the same pool.
            self._promotions.append(
                Promotion(prep.iteration, prep.corpus_index, prep.lineage)
            )
            entry.energy = PROMOTION_ENERGY
        self.pool.append(entry)
        return True

    def _reward(self, arm: str, parent: Optional[object], novel: int) -> None:
        """One novelty credit per novel finding, to the arm and the parent."""
        for _ in range(novel):
            if isinstance(parent, _PoolEntry):
                parent.energy += NOVELTY_BONUS
            if arm in self.wins:
                self.wins[arm] += 1

    def replay(self, state: LedgerState, evaluated: Set[str]) -> None:
        """Re-run each completed iteration's selection (mutation only,
        never execution) and commit its recorded outcome: the ledgered
        findings count and promotion.  This rebuilds the wins, the pool
        and the full evaluated-content dedup set."""
        novel = Counter(f.iteration for f in state.findings)
        recorded = {f.iteration: (f.corpus_index, f.lineage) for f in state.findings}
        recorded.update(
            (p.iteration, (p.corpus_index, p.lineage)) for p in state.promotions
        )
        for i in range(state.iterations_completed):
            p = self.prepare(i, evaluated, set())
            if p.skip is None:
                evaluated.add(p.content_id)
            if i not in recorded:
                continue
            if p.skip is not None or recorded[i] != (p.corpus_index, p.lineage):
                raise HarnessError(f"ledger does not replay at iteration {i}")
            self.commit(p, novel[i], 0, True)
        self._promotions = []  # already in the ledger

    def take_batch_records(self) -> Dict[str, Any]:
        promoted, self._promotions = self._promotions, []
        return {"promoted": promoted}


@dataclass
class _Node:
    """One *rewarded* edit sequence: a corpus program plus zero or more
    mutations, promoted into the tree because it paid.

    ``arm_visits``/``arm_reward`` are the node's own mutation bandit:
    every arm may be tried any number of times (each iteration derives a
    fresh mutation seed), so a fertile program keeps producing distinct
    mutants.  ``dead_arms`` holds mutations with no applicable site in
    this program — a property of the content, not of the seed, so one
    failure retires the arm."""

    corpus_index: int
    lineage: Tuple[LineageStep, ...]
    test: TestCase
    content: str
    parent: Optional["_Node"]
    visits: int = 1
    reward_sum: float = 0.0
    arm_visits: Dict[str, int] = field(default_factory=dict)
    arm_reward: Dict[str, float] = field(default_factory=dict)
    dead_arms: Set[str] = field(default_factory=set)
    children: List["_Node"] = field(default_factory=list)
    dead: bool = False

    @property
    def depth(self) -> int:
        return len(self.lineage)

    @property
    def mean(self) -> float:
        return self.reward_sum / self.visits


#: Sentinel for the root's fresh-generation arm.
_EXPLORE = object()


@dataclass
class _Outstanding:
    """A prepared-but-uncommitted iteration's tree bookkeeping: the undo
    delta, the selection path, and everything commit needs to credit the
    arm and (when the reward is nonzero) promote the mutant."""

    delta: List[Tuple[str, object]]
    path: List[_Node] = field(default_factory=list)
    node: Optional[_Node] = None  # the expansion site (mutants only)
    arm: str = ""
    test: Optional[TestCase] = None
    content: str = ""
    corpus_index: int = -1
    lineage: Tuple[LineageStep, ...] = ()
    explore: bool = False


class MctsSearch(SearchStrategy):
    """The ``search="mcts"`` strategy: UCB1 tree search (module docstring)."""

    def __init__(self, config, corpus, hot_indices: Sequence[int]) -> None:
        self.config = config
        self.corpus = corpus
        self.coverage = CoverageTracker()
        #: this batch's per-iteration search records (format 5).
        self._traces: List[SearchTrace] = []
        self.mutations: Tuple[str, ...] = config.mutations
        #: root children, in creation order: the seed pool, then every
        #: rewarded program the explore arm generated.
        self.children: List[_Node] = []
        #: the explore arm starts with one virtual visit worth
        #: ``EXPLORE_PRIOR`` wins, counted at the root like a seed's.
        self.root_visits = 1
        self.explore_visits = 1
        self.explore_reward = EXPLORE_PRIOR
        #: cross-node mutation-arm evidence: visits accrue at prepare
        #: (undo-able), reward only at commit — the prior every node's
        #: own arm bandit shrinks toward.
        self.global_arm_visits: Dict[str, int] = {}
        self.global_arm_reward: Dict[str, float] = {}
        self._outstanding: Dict[int, _Outstanding] = {}
        hot = set(hot_indices)
        for index, test in enumerate(corpus.seed_tests()):
            node = _Node(
                corpus_index=index,
                lineage=(),
                test=test,
                content=content_text(test.program.kernel, test.inputs),
                parent=None,
                reward_sum=1.0 if index in hot else 0.0,
            )
            self.children.append(node)
            self.coverage.observe(kernel_features(test.program.kernel))
            self.root_visits += 1

    @classmethod
    def fingerprint_keys(cls) -> Dict[str, object]:
        return {"format": 5, "search": "mcts"}

    # ------------------------------------------------------------ selection
    def _ucb(self, mean: float, visits: int, parent_visits: int) -> float:
        return mean + EXPLORATION_C * math.sqrt(
            math.log(parent_visits + 1.0) / visits
        )

    def _select_root(self):
        """The root action: a live child subtree or ``_EXPLORE``.
        Deterministic: strict-greater comparison makes the earliest-created
        winner of a tie stable, and the explore arm yields ties to
        subtrees."""
        best = None
        best_value = -math.inf
        for node in self.children:
            if node.dead:
                continue
            value = self._ucb(node.mean, node.visits, self.root_visits)
            if value > best_value:
                best, best_value = node, value
        value = self._ucb(
            self.explore_reward / self.explore_visits,
            self.explore_visits,
            self.root_visits,
        )
        if value > best_value:
            return _EXPLORE
        return best

    def _expand_stats(self, node: _Node) -> Tuple[float, int]:
        """The node's expand action as (mean, visits): its own mutation
        bandit's aggregate, under one optimistic virtual win."""
        visits = 1 + sum(node.arm_visits.values())
        total = EXPAND_PRIOR + sum(node.arm_reward.values())
        return total / visits, visits

    def _live_arms(self, node: _Node) -> List[str]:
        if node.depth >= MAX_DEPTH:
            return []
        return [m for m in self.mutations if m not in node.dead_arms]

    def _global_mean(self, arm: str) -> float:
        visits = self.global_arm_visits.get(arm, 0)
        if visits == 0:
            return 1.0  # optimistic: globally untried arms get sampled
        return self.global_arm_reward.get(arm, 0.0) / visits

    def _select_arm(self, node: _Node, live: Sequence[str]) -> str:
        """Per-node UCB1 over mutation arms, each node's sparse evidence
        shrunk toward the global arm means; registry order breaks ties,
        so the choice is deterministic."""
        _, expand_visits = self._expand_stats(node)
        best = None
        best_value = -math.inf
        for arm in live:
            visits = node.arm_visits.get(arm, 0)
            mean = (
                node.arm_reward.get(arm, 0.0)
                + GLOBAL_PRIOR_WEIGHT * self._global_mean(arm)
            ) / (visits + GLOBAL_PRIOR_WEIGHT)
            value = self._ucb(mean, visits + 1, expand_visits)
            if value > best_value:
                best, best_value = arm, value
        assert best is not None
        return best

    # -------------------------------------------------------------- prepare
    def prepare(
        self, i: int, evaluated: Set[str], overlay: Set[str]
    ) -> PreparedIteration:
        """One simulation's select+expand, against the current tree.

        Mutates only prepare-time state (visit counts, dead marks), all
        recorded in an undo delta; commit-time state (rewards, promoted
        nodes, coverage, counters) is untouched.  ``overlay`` carries
        the window's own content ids so speculated iterations dedup
        against each other exactly as committed ones would.
        """
        tracer = get_tracer()
        t0 = time.perf_counter_ns() if tracer.enabled else 0
        rng = random.Random(derive_seed(self.config.seed, "select", i))
        delta: List[Tuple[str, object]] = []
        while True:
            choice = self._select_root()
            if choice is _EXPLORE:
                if tracer.enabled:
                    tracer.record(
                        "fuzz.mcts.select", t0, time.perf_counter_ns(),
                        iteration=i, action="explore",
                    )
                return self._prepare_explore(i, evaluated, overlay, delta)
            node = choice
            path = [node]
            while True:
                live = self._live_arms(node)
                # The expand action (mutate *this* program, one more
                # time) competes with descending into each child
                # subtree on the same UCB terms; children must strictly
                # beat it, so a paying node is milked before its
                # descendants take over.
                descend: Optional[_Node] = None
                best_value = -math.inf
                if live:
                    mean, visits = self._expand_stats(node)
                    best_value = self._ucb(mean, visits, node.visits)
                for child in node.children:
                    if child.dead:
                        continue
                    value = self._ucb(child.mean, child.visits, node.visits)
                    if value > best_value:
                        descend, best_value = child, value
                if descend is not None:
                    node = descend
                    path.append(node)
                    continue
                if live:
                    if tracer.enabled:
                        tracer.record(
                            "fuzz.mcts.select", t0, time.perf_counter_ns(),
                            iteration=i, action="expand", depth=node.depth,
                        )
                    return self._prepare_expansion(
                        i, node, path, live, rng, evaluated, overlay, delta
                    )
                # No live arm and no live child: the subtree is spent.
                # Prune and restart from the root — each restart kills
                # one node, so the walk terminates.
                node.dead = True
                delta.append(("dead", node))
                break

    def _bump_visits(
        self, path: Sequence[_Node], delta: List[Tuple[str, object]]
    ) -> None:
        self.root_visits += 1
        delta.append(("root-visit", None))
        for node in path:
            node.visits += 1
            delta.append(("visit", node))

    def _prepare_explore(
        self,
        i: int,
        evaluated: Set[str],
        overlay: Set[str],
        delta: List[Tuple[str, object]],
    ) -> PreparedIteration:
        """The fresh-generation arm: corpus program ``n_seed_programs + i``
        (the same index rule as the bandit's explore arm, so a finding's
        ``(corpus_index, ())`` replays); promoted to a root child at
        commit if it earns reward."""
        corpus_index = self.config.n_seed_programs + i
        test = self.corpus.get(corpus_index)
        content = content_text(test.program.kernel, test.inputs)
        cid = mutant_content_id(self.config.fptype, content)
        self._bump_visits((), delta)
        self.explore_visits += 1
        delta.append(("explore-visit", None))
        if cid in evaluated or cid in overlay:
            self._outstanding[i] = _Outstanding(delta=delta)
            return PreparedIteration(iteration=i, arm="explore", skip="duplicate")
        overlay.add(cid)
        self._outstanding[i] = _Outstanding(
            delta=delta,
            test=test,
            content=content,
            corpus_index=corpus_index,
            lineage=(),
            explore=True,
        )
        return PreparedIteration(
            iteration=i,
            arm="explore",
            kind="explore",
            test=test,
            content=content,
            content_id=cid,
            corpus_index=corpus_index,
            lineage=(),
        )

    def _prepare_expansion(
        self,
        i: int,
        node: _Node,
        path: List[_Node],
        live: List[str],
        rng: random.Random,
        evaluated: Set[str],
        overlay: Set[str],
        delta: List[Tuple[str, object]],
    ) -> PreparedIteration:
        """Apply one mutation at ``node`` with this iteration's derived
        seed.  A mutation with no applicable site retires that arm (a
        property of the program text); any other failure just costs the
        arm one unrewarded visit."""
        tracer = get_tracer()
        t0 = time.perf_counter_ns() if tracer.enabled else 0
        arm = self._select_arm(node, live)
        node.arm_visits[arm] = node.arm_visits.get(arm, 0) + 1
        delta.append(("arm-visit", (node, arm)))
        self.global_arm_visits[arm] = self.global_arm_visits.get(arm, 0) + 1
        delta.append(("global-arm-visit", arm))
        mseed = derive_seed(self.config.seed, "mutant", i)
        donor_index: Optional[int] = None
        donor = None
        if MUTATORS[arm].needs_donor:
            # Donors are corpus-backed root children (flat lineages),
            # drawn reward-weighted: paying subtrees' material travels.
            candidates = [c for c in self.children if not c.lineage]
            donor_node = rng.choices(
                candidates, weights=[1.0 + c.reward_sum for c in candidates], k=1
            )[0]
            donor_index = donor_node.corpus_index
            donor = donor_node.test.program.kernel
        kernel = apply_mutation(node.test.program.kernel, arm, mseed, donor)
        skip: Optional[str] = None
        content = ""
        cid = ""
        if kernel is None:
            skip = "no_site"
            node.dead_arms.add(arm)
            delta.append(("dead-arm", (node, arm)))
        elif validate_kernel(kernel):
            skip = "invalid"
        else:
            content = content_text(kernel, node.test.inputs)
            if content == node.content:
                skip = "noop"
            else:
                cid = mutant_content_id(self.config.fptype, content)
                if cid in evaluated or cid in overlay:
                    skip = "duplicate"
        self._bump_visits(path, delta)
        if tracer.enabled:
            tracer.record(
                "fuzz.mcts.expand", t0, time.perf_counter_ns(),
                iteration=i, mutation=arm, outcome=skip or "mutant",
            )
        if skip is not None:
            self._outstanding[i] = _Outstanding(delta=delta)
            return PreparedIteration(iteration=i, arm=arm, skip=skip)
        overlay.add(cid)
        program = Program(
            program_id=cid, kernel=kernel, seed=mseed, source_note="fuzz mutant"
        )
        lineage = node.lineage + (LineageStep(arm, mseed, donor_index),)
        test = TestCase(program, node.test.inputs)
        self._outstanding[i] = _Outstanding(
            delta=delta,
            path=path,
            node=node,
            arm=arm,
            test=test,
            content=content,
            corpus_index=node.corpus_index,
            lineage=lineage,
        )
        return PreparedIteration(
            iteration=i,
            arm=arm,
            kind="mutant",
            test=test,
            content=content,
            content_id=cid,
            corpus_index=node.corpus_index,
            lineage=lineage,
        )

    # --------------------------------------------------------------- commit
    def commit(
        self, prep: PreparedIteration, novel: int, violations: int, diverged: bool
    ) -> bool:
        """Commit and trace one evaluation.  A zero-reward commit adds
        nothing tree selection reads, so the speculative window survives
        it (parallelism improves as the coverage map saturates); a
        diverged one grows the tree even at zero reward."""
        reward = self.commit_evaluated(prep, novel, violations, diverged)
        self._traces.append(
            SearchTrace(
                prep.iteration, prep.corpus_index, prep.lineage, reward, diverged
            )
        )
        return reward != 0.0 or diverged

    def commit_evaluated(
        self,
        prep: PreparedIteration,
        novel: int,
        violations: int,
        diverged: bool = False,
    ) -> float:
        """Fold one evaluated iteration's results in, in iteration order;
        returns the blended reward (nonzero ⇒ later speculation is stale)."""
        rec = self._pop(prep)
        assert rec.test is not None
        new_features = self.coverage.observe(
            kernel_features(rec.test.program.kernel)
        )
        reward = blend_reward(novel, violations, new_features)
        self._absorb(rec, reward, diverged, prep.iteration)
        return reward

    def commit_skip(self, prep: PreparedIteration) -> None:
        """A skipped iteration's prepare-time marks simply stand."""
        self._pop(prep)

    def replay(self, state: LedgerState, evaluated: Set[str]) -> None:
        """Re-run each completed iteration's *selection* against the
        growing tree (mutation application only, never execution) and
        fold in the ledger-recorded rewards.  This rebuilds the tree
        statistics, the coverage map and the full evaluated-content
        dedup set, so the continuation is byte-identical to an
        uninterrupted session."""
        trace_by_iter = {t.iteration: t for t in state.search_steps}
        for i in range(state.iterations_completed):
            p = self.prepare(i, evaluated, set())
            rec = trace_by_iter.get(i)
            if p.skip is not None:
                if rec is not None:
                    raise HarnessError(
                        "ledger search trace does not replay: iteration "
                        f"{i} re-prepared as a {p.skip} skip"
                    )
                self.commit_skip(p)
                continue
            if (
                rec is None
                or rec.corpus_index != p.corpus_index
                or rec.lineage != p.lineage
            ):
                raise HarnessError(
                    f"ledger search trace does not replay at iteration {i}"
                )
            evaluated.add(p.content_id)
            # the recorded reward, with coverage re-observed
            outstanding = self._pop(p)
            assert outstanding.test is not None
            self.coverage.observe(kernel_features(outstanding.test.program.kernel))
            self._absorb(outstanding, rec.reward, rec.diverged, i)

    def take_batch_records(self) -> Dict[str, Any]:
        # Every format-5 batch line carries the key, empty batches included.
        traces, self._traces = self._traces, []
        return {"search": traces}

    def _pop(self, prep: PreparedIteration) -> _Outstanding:
        rec = self._outstanding.pop(prep.iteration, None)
        if rec is None:
            raise HarnessError(
                f"mcts commit without prepare at iteration {prep.iteration}"
            )
        return rec

    def _absorb(
        self, rec: _Outstanding, reward: float, diverged: bool, iteration: int
    ) -> None:
        """Backpropagate the reward and promote the mutant to a tree node
        when it paid — or when it merely diverged, in which case it joins
        the tree (fertile material for deeper chains) without crediting
        its ancestors (a stale discrepancy is not evidence the subtree
        will mint anything new)."""
        tracer = get_tracer()
        t0 = time.perf_counter_ns() if tracer.enabled else 0
        if reward:
            for node in rec.path:
                node.reward_sum += reward
            if rec.explore:
                self.explore_reward += reward
            else:
                site = rec.node
                assert site is not None
                site.arm_reward[rec.arm] = (
                    site.arm_reward.get(rec.arm, 0.0) + reward
                )
                self.global_arm_reward[rec.arm] = (
                    self.global_arm_reward.get(rec.arm, 0.0) + reward
                )
        if reward or diverged:
            assert rec.test is not None
            child = _Node(
                corpus_index=rec.corpus_index,
                lineage=rec.lineage,
                test=rec.test,
                content=rec.content,
                parent=rec.node,
                reward_sum=reward if reward else DIVERGED_PRIOR,
            )
            if rec.explore:
                self.children.append(child)
            elif len(rec.lineage) <= MAX_DEPTH:
                assert rec.node is not None
                rec.node.children.append(child)
        if tracer.enabled:
            tracer.record(
                "fuzz.mcts.backprop", t0, time.perf_counter_ns(),
                iteration=iteration, reward=reward, depth=len(rec.path),
            )

    # ----------------------------------------------------------- invalidate
    def invalidate(self) -> None:
        """Unwind every prepared-but-uncommitted iteration, newest first,
        restoring the tree to the last committed state."""
        for i in sorted(self._outstanding, reverse=True):
            rec = self._outstanding.pop(i)
            for kind, payload in reversed(rec.delta):
                if kind == "visit":
                    payload.visits -= 1  # type: ignore[union-attr]
                elif kind == "root-visit":
                    self.root_visits -= 1
                elif kind == "explore-visit":
                    self.explore_visits -= 1
                elif kind == "arm-visit":
                    node, arm = payload  # type: ignore[misc]
                    node.arm_visits[arm] -= 1
                    if node.arm_visits[arm] == 0:
                        del node.arm_visits[arm]
                elif kind == "global-arm-visit":
                    self.global_arm_visits[payload] -= 1  # type: ignore[index]
                    if self.global_arm_visits[payload] == 0:  # type: ignore[index]
                        del self.global_arm_visits[payload]  # type: ignore[arg-type]
                elif kind == "dead-arm":
                    node, arm = payload  # type: ignore[misc]
                    node.dead_arms.discard(arm)
                else:  # "dead"
                    payload.dead = False  # type: ignore[union-attr]

    # ---------------------------------------------------------------- stats
    def stats(self) -> Dict[str, object]:
        nodes = 0
        dead = 0
        max_depth = 0
        stack = list(self.children)
        while stack:
            node = stack.pop()
            nodes += 1
            dead += 1 if node.dead else 0
            max_depth = max(max_depth, node.depth)
            stack.extend(node.children)
        return {
            "nodes": nodes,
            "dead_nodes": dead,
            "max_depth": max_depth,
            "root_visits": self.root_visits,
            "explore_visits": self.explore_visits,
            "explore_programs": len(self.children) - self.corpus.n_seed_programs,
            "coverage_features": len(self.coverage.counts),
        }

    def coverage_summary(self) -> Dict[str, object]:
        return self.coverage.as_dict()


#: Every ``FuzzConfig.search`` value and the strategy it selects.
STRATEGIES: Dict[str, Type[SearchStrategy]] = {
    "bandit": BanditSearch,
    "mcts": MctsSearch,
}
