"""Property-based tests (hypothesis) for the mcts search layer.

The tree search sits between the deterministic mutation layer and the
byte-identical ledger, so its own invariants are load-bearing for every
replay path:

* every edit sequence the search emits is **valid IR** and **replays**
  — ``replay_lineage`` over the recorded ``(corpus_index, lineage)``
  rebuilds the exact program content (this is what ledger resume leans
  on);
* the whole trajectory — expansion order, skips, rewards — is a pure
  function of ``(seed, tree policy)``: two fresh searches driven
  identically produce identical traces;
* coverage extraction is **total**: any generated program, and any
  mutant of one, yields a feature set without raising.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz.coverage import CoverageTracker, kernel_features
from repro.fuzz.engine import FuzzConfig, _LazyCorpus
from repro.fuzz.mutators import MUTATION_NAMES, apply_mutation
from repro.fuzz.search import MAX_DEPTH, MctsSearch, blend_reward, replay_lineage
from repro.exec import content_text
from repro.ir.validate import validate_kernel
from repro.varity.config import GeneratorConfig
from repro.varity.generator import ProgramGenerator

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _make_search(seed: int):
    """A tiny standalone search (no execution service needed): the tree
    is driven directly with synthetic rewards."""
    config = FuzzConfig(
        seed=seed, n_seed_programs=4, inputs_per_program=1, minimize=False
    )
    corpus = _LazyCorpus(config)
    return config, corpus, MctsSearch(config, corpus, hot_indices=[0])


def _drive(search: MctsSearch, steps: int):
    """Run ``steps`` simulations with a deterministic synthetic reward
    schedule (novel signature every 5th evaluation, one violation every
    7th); returns the full per-iteration trace."""
    trace = []
    evaluated: set = set()
    for i in range(steps):
        p = search.prepare(i, evaluated)
        if p.skip is not None:
            search.commit_skip(p)
            trace.append((i, "skip", p.skip, p.arm))
            continue
        evaluated.add(p.content_id)
        reward = search.commit_evaluated(
            p, novel=1 if i % 5 == 0 else 0, violations=1 if i % 7 == 0 else 0
        )
        trace.append((i, p.kind, p.arm, p.corpus_index, p.lineage, reward))
    return trace


def _tree_state(search: MctsSearch):
    """A comparable snapshot of everything ``prepare`` reads."""
    nodes = []

    def walk(node):
        nodes.append(
            (
                node.corpus_index,
                node.lineage,
                node.visits,
                node.reward_sum,
                tuple(sorted(node.arm_visits.items())),
                tuple(sorted(node.arm_reward.items())),
                tuple(sorted(node.dead_arms)),
                node.dead,
                len(node.children),
            )
        )
        for child in node.children:
            walk(child)

    for child in search.children:
        walk(child)
    return (
        tuple(nodes),
        search.root_visits,
        search.explore_visits,
        search.explore_reward,
        tuple(sorted(search.global_arm_visits.items())),
        tuple(sorted(search.global_arm_reward.items())),
    )


class TestEditChains:
    @given(seed=seeds, steps=st.integers(min_value=1, max_value=40))
    @settings(max_examples=12, deadline=None)
    def test_prepared_chains_are_valid_and_replay(self, seed, steps):
        """Every evaluated prep carries valid IR whose recorded lineage
        replays to the identical program content, at bounded depth."""
        config, corpus, search = _make_search(seed)
        evaluated: set = set()
        for i in range(steps):
            p = search.prepare(i, evaluated)
            if p.skip is not None:
                search.commit_skip(p)
                continue
            kernel = p.test.program.kernel
            assert not validate_kernel(kernel)
            assert len(p.lineage) <= MAX_DEPTH
            replayed = replay_lineage(corpus, p.corpus_index, p.lineage)
            assert content_text(replayed, p.test.inputs) == p.content
            evaluated.add(p.content_id)
            search.commit_evaluated(p, novel=i % 2, violations=0)

    @given(seed=seeds, steps=st.integers(min_value=1, max_value=40))
    @settings(max_examples=10, deadline=None)
    def test_same_seed_same_trace(self, seed, steps):
        """Same (seed, policy) ⇒ identical expansion order, identical
        skips, identical reward trace — across fresh search instances."""
        _, _, first = _make_search(seed)
        _, _, second = _make_search(seed)
        assert _drive(first, steps) == _drive(second, steps)
        assert _tree_state(first) == _tree_state(second)

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_rewards_bounded_and_monotone(self, seed):
        """The blend maps counts into [0, 1), monotonically."""
        del seed  # blend is count-driven; the property needs no rng
        last = -1.0
        for novel in range(6):
            reward = blend_reward(novel, 0, 0)
            assert 0.0 <= reward < 1.0
            assert reward > last
            last = reward
        assert blend_reward(1, 0, 0) > blend_reward(0, 1, 0) > blend_reward(0, 0, 1) > 0.0
        assert blend_reward(0, 0, 0) == 0.0


class TestCoverageTotality:
    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_extraction_total_over_generated_programs(self, seed):
        """kernel_features never raises and always yields the structural
        minimum (precision + the three depth features)."""
        program = ProgramGenerator(GeneratorConfig.fp32()).generate(seed)
        features = kernel_features(program.kernel)
        assert features
        assert any(f.startswith("fptype:") for f in features)
        for axis in ("call-depth:", "expr-depth:", "loop-depth:"):
            assert any(f.startswith(axis) for f in features)

    @given(seed=seeds, mutation_index=st.integers(min_value=0, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_extraction_total_over_mutants(self, seed, mutation_index):
        """Totality survives the mutators, donor-based ones included."""
        gen = ProgramGenerator(GeneratorConfig.fp32())
        kernel = gen.generate(seed).kernel
        donor = gen.generate(seed + 1).kernel
        mutation = MUTATION_NAMES[mutation_index]
        mutant = apply_mutation(kernel, mutation, seed, donor)
        if mutant is not None:
            assert kernel_features(mutant)

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_observe_novelty_is_first_time_only(self, seed):
        """Observing the same program twice mints novelty exactly once."""
        program = ProgramGenerator(GeneratorConfig.fp32()).generate(seed)
        features = kernel_features(program.kernel)
        tracker = CoverageTracker()
        assert tracker.observe(features) == len(features)
        assert tracker.observe(features) == 0
        assert tracker.programs_observed == 2
        assert tracker.seen == set(features)
