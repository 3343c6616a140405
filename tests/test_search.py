"""Integration tests for ``--search mcts``: format-5 ledgers, worker
invariance, interrupt/resume equivalence, and back-compat of every older
ledger format against the new engine.

The golden ledgers under ``tests/goldens/`` were written by the engine
*before* the search layer landed (PR 9's bandit scheduler):

* ``fuzz_bandit_ledger.jsonl`` — the TINY config, format 2;
* ``fuzz_bandit_format4.jsonl`` — TINY on the (nvcc, cpu) stack pair
  with a 10-mutant budget, format 4.

``--search bandit`` (the default) must keep producing those exact bytes,
and both goldens must resume untouched — the search layer is strictly
additive to the on-disk contract.  Two more goldens were written by the
engine before the search-strategy split, one for each remaining format:

* ``fuzz_oracle_format3.jsonl`` — TINY with the ``fma-rewrite`` and
  ``mul-one`` oracle relations, format 3;
* ``fuzz_mcts_format5.jsonl`` — the MCTS config, format 5.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil

import pytest

from repro.errors import HarnessError
from repro.fuzz.cli import build_parser
from repro.fuzz.engine import FuzzConfig, run_fuzz
from repro.fuzz.ledger import LineageStep, SearchTrace
from repro.fuzz.search import STRATEGIES, BanditSearch

GOLDENS = pathlib.Path(__file__).parent / "goldens"

TINY = FuzzConfig(
    seed=11,
    n_seed_programs=15,
    inputs_per_program=2,
    max_mutants=30,
    batch_size=10,
    minimize=False,
)
MCTS = dataclasses.replace(TINY, search="mcts")
FORMAT4 = dataclasses.replace(TINY, stacks=("nvcc", "cpu"), max_mutants=10)
ORACLE3 = dataclasses.replace(TINY, oracle_relations=("fma-rewrite", "mul-one"))

#: (golden file, the config that wrote it) for every readable format.
GOLDEN_CONFIGS = {
    "fuzz_bandit_ledger.jsonl": TINY,
    "fuzz_oracle_format3.jsonl": ORACLE3,
    "fuzz_bandit_format4.jsonl": FORMAT4,
    "fuzz_mcts_format5.jsonl": MCTS,
}


@pytest.fixture(scope="module")
def mcts_session(tmp_path_factory):
    """One straight (uninterrupted, serial) mcts session; the reference
    every invariance test compares against."""
    path = tmp_path_factory.mktemp("mcts") / "ledger.jsonl"
    result = run_fuzz(MCTS, ledger=path)
    return result, path


class TestFingerprintGating:
    def test_bandit_fingerprint_has_no_search_key(self):
        fp = TINY.fingerprint()
        assert "search" not in fp
        assert fp["format"] == 2

    def test_mcts_fingerprint_is_format5(self):
        fp = MCTS.fingerprint()
        assert fp["format"] == 5
        assert fp["search"] == "mcts"

    def test_format4_config_stays_format4(self):
        fp = FORMAT4.fingerprint()
        assert fp["format"] == 4
        assert "search" not in fp

    def test_unknown_strategy_rejected(self):
        with pytest.raises(HarnessError):
            FuzzConfig(search="genetic")


class TestStrategyRegistry:
    def test_cli_choices_follow_registry(self):
        parser = build_parser()
        (search,) = [a for a in parser._actions if a.dest == "search"]
        assert list(search.choices) == list(STRATEGIES) == ["bandit", "mcts"]

    def test_registered_strategy_runs_without_engine_changes(self, monkeypatch):
        """A third registry entry is all a new strategy needs: validation
        accepts it, the fingerprint carries its keys, and the engine
        drives it (here a renamed bandit, so the findings must match)."""

        class RenamedBandit(BanditSearch):
            @classmethod
            def fingerprint_keys(cls):
                return {"search": "renamed-bandit"}

        monkeypatch.setitem(STRATEGIES, "renamed-bandit", RenamedBandit)
        short = dataclasses.replace(TINY, max_mutants=10)
        renamed = dataclasses.replace(short, search="renamed-bandit")
        assert renamed.fingerprint()["search"] == "renamed-bandit"
        assert run_fuzz(renamed).findings == run_fuzz(short).findings


class TestPoolScheduling:
    @pytest.mark.parametrize("search", ["bandit", "mcts"])
    def test_pool_throws_no_evaluation_away(self, search):
        """At workers=2 the service runs exactly one chunk per seed
        program's baseline sweep and one per evaluated iteration: no
        chunk is evaluated and then discarded."""
        config = dataclasses.replace(TINY, search=search, workers=2)
        result = run_fuzz(config)
        assert result.mutants_run + result.fresh_explored > 0
        assert result.exec_metrics["chunks"] == (
            config.n_seed_programs + result.mutants_run + result.fresh_explored
        )


class TestSearchTrace:
    def test_round_trip(self):
        trace = SearchTrace(
            iteration=7,
            corpus_index=3,
            lineage=(
                LineageStep(mutation="swap-operator", seed=99),
                LineageStep(mutation="graft-subexpr", seed=12, donor_index=4),
            ),
            reward=0.5,
        )
        assert SearchTrace.from_json(trace.to_json()) == trace

    def test_empty_lineage_round_trip(self):
        trace = SearchTrace(iteration=0, corpus_index=15, lineage=(), reward=0.0)
        assert SearchTrace.from_json(trace.to_json()) == trace


class TestMctsLedger:
    def test_header_and_batches_carry_format5(self, mcts_session):
        _, path = mcts_session
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["fingerprint"]["format"] == 5
        assert lines[0]["fingerprint"]["search"] == "mcts"
        batches = [rec for rec in lines if rec["kind"] == "batch"]
        assert batches
        assert all("search" in rec for rec in batches)
        assert any(rec["search"] for rec in batches)

    def test_rerun_is_byte_identical(self, mcts_session, tmp_path):
        _, path = mcts_session
        again = tmp_path / "again.jsonl"
        run_fuzz(MCTS, ledger=again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_ledger_worker_invariant(self, mcts_session, tmp_path, workers):
        """The acceptance bar: mcts ledger bytes identical at workers
        0/2/4 — the pool's baseline sweep and triage fan-out must leave
        no trace in the tree."""
        _, path = mcts_session
        pooled = tmp_path / f"pooled{workers}.jsonl"
        run_fuzz(dataclasses.replace(MCTS, workers=workers), ledger=pooled)
        assert pooled.read_bytes() == path.read_bytes()

    def test_killed_mid_session_resume_byte_identical(
        self, mcts_session, tmp_path
    ):
        """Kill after two complete batches (plus a torn partial line),
        resume: the replayed tree must steer iterations 20..29 exactly
        as the uninterrupted run did — bytes and tree statistics equal."""
        straight, path = mcts_session
        split = tmp_path / "split.jsonl"
        kept = path.read_text().splitlines(keepends=True)[:4]
        split.write_text("".join(kept) + '{"type": "batch", "start": 20')
        resumed = run_fuzz(MCTS, ledger=split, resume=True)
        assert resumed.resumed_iterations == 20
        assert split.read_bytes() == path.read_bytes()
        assert resumed.search_stats == straight.search_stats
        assert resumed.coverage == straight.coverage

    def test_search_stats_and_coverage_populated(self, mcts_session):
        result, _ = mcts_session
        assert result.search_stats["nodes"] > 0
        # every seed child and the explore arm carry a prior visit; each
        # of the 30 iterations then bumps the root exactly once.
        assert (
            result.search_stats["root_visits"]
            == TINY.max_mutants + TINY.n_seed_programs + 1
        )
        assert result.coverage["features"] > 0
        assert result.coverage["counts"]
        assert result.findings

    def test_mcts_ledger_refused_by_bandit_config(self, mcts_session, tmp_path):
        """A format-5 trajectory cannot be continued by the bandit (its
        scheduler would disagree); strict resume reports the mismatch."""
        _, path = mcts_session
        copy = tmp_path / "copy.jsonl"
        shutil.copy(path, copy)
        with pytest.raises(HarnessError):
            run_fuzz(TINY, ledger=copy, resume=True)


class TestBackCompat:
    def test_bandit_default_matches_pr9_golden(self, tmp_path):
        """``--search bandit`` stays the byte-identical default: the new
        engine reproduces the pre-search golden ledger exactly."""
        fresh = tmp_path / "bandit.jsonl"
        run_fuzz(TINY, ledger=fresh)
        assert fresh.read_bytes() == (GOLDENS / "fuzz_bandit_ledger.jsonl").read_bytes()

    def test_bandit_golden_refused_by_mcts_config(self, tmp_path):
        copy = tmp_path / "bandit.jsonl"
        shutil.copy(GOLDENS / "fuzz_bandit_ledger.jsonl", copy)
        with pytest.raises(HarnessError):
            run_fuzz(MCTS, ledger=copy, resume=True)

    def test_format4_golden_resumes_untouched(self, tmp_path):
        """A pre-search format-4 ledger (non-default stack pair) resumes
        under the new engine without a byte rewritten and without its
        fingerprint migrating to format 5."""
        golden = (GOLDENS / "fuzz_bandit_format4.jsonl").read_bytes()
        copy = tmp_path / "fmt4.jsonl"
        copy.write_bytes(golden)
        resumed = run_fuzz(FORMAT4, ledger=copy, resume=True)
        assert resumed.resumed_iterations == FORMAT4.max_mutants
        assert copy.read_bytes() == golden
        header = json.loads(golden.decode().splitlines()[0])
        assert header["fingerprint"]["format"] == 4

    def test_format2_golden_extends_under_new_engine(self, tmp_path):
        """Raising the budget on a pre-search ledger appends new batches
        behind the same format-2 header — no search key ever appears."""
        copy = tmp_path / "fmt2.jsonl"
        shutil.copy(GOLDENS / "fuzz_bandit_ledger.jsonl", copy)
        grown = dataclasses.replace(TINY, max_mutants=40)
        resumed = run_fuzz(grown, ledger=copy, resume=True)
        assert resumed.resumed_iterations == TINY.max_mutants
        assert resumed.iterations == 40
        lines = [json.loads(line) for line in copy.read_text().splitlines()]
        assert lines[0]["fingerprint"]["format"] == 2
        assert all("search" not in rec for rec in lines if rec["kind"] == "batch")


class TestGoldens:
    """Formats 3 and 5 pinned to goldens like formats 2 and 4."""

    @pytest.mark.parametrize(
        "name", ["fuzz_oracle_format3.jsonl", "fuzz_mcts_format5.jsonl"]
    )
    def test_fresh_run_matches_golden(self, tmp_path, name):
        fresh = tmp_path / name
        run_fuzz(GOLDEN_CONFIGS[name], ledger=fresh)
        assert fresh.read_bytes() == (GOLDENS / name).read_bytes()

    @pytest.mark.parametrize(
        "name", ["fuzz_oracle_format3.jsonl", "fuzz_mcts_format5.jsonl"]
    )
    def test_golden_resumes_untouched(self, tmp_path, name):
        config = GOLDEN_CONFIGS[name]
        golden = (GOLDENS / name).read_bytes()
        copy = tmp_path / name
        copy.write_bytes(golden)
        resumed = run_fuzz(config, ledger=copy, resume=True)
        assert resumed.resumed_iterations == config.max_mutants
        assert resumed.mutants_run == 0
        assert copy.read_bytes() == golden
        header = json.loads(golden.decode().splitlines()[0])
        assert header["fingerprint"] == config.fingerprint()


#: Per-session counters that cover only the iterations a run executed
#: itself, so a prefix run and its resumption must sum to a straight run.
ADDITIVE_COUNTERS = (
    "mutants_run",
    "fresh_explored",
    "mutants_no_site",
    "mutants_invalid",
    "mutants_noop",
    "duplicates",
    "pair_runs",
    "raw_discrepancies",
)


#: seed -> (config, iterations before the interruption).  Seed 14 re-
#: draws an earlier clean mutant after the split, which a resumed session
#: must count as a duplicate exactly as the straight run does.
RESUME_SPLITS = {
    3: (dataclasses.replace(TINY, seed=3), 20),
    11: (TINY, 20),
    14: (
        FuzzConfig(
            seed=14,
            n_seed_programs=3,
            inputs_per_program=2,
            max_mutants=60,
            batch_size=10,
            minimize=False,
        ),
        30,
    ),
}


class TestResumeAccounting:
    @pytest.mark.parametrize("search", ["bandit", "mcts"])
    @pytest.mark.parametrize("seed", sorted(RESUME_SPLITS))
    def test_prefix_plus_resume_adds_up_to_straight(self, tmp_path, search, seed):
        base, split = RESUME_SPLITS[seed]
        config = dataclasses.replace(base, search=search)
        straight = run_fuzz(config)
        path = tmp_path / "split.jsonl"
        prefix = run_fuzz(dataclasses.replace(config, max_mutants=split), ledger=path)
        resumed = run_fuzz(config, ledger=path, resume=True)
        assert resumed.resumed_iterations == split
        for counter in ADDITIVE_COUNTERS:
            assert (
                getattr(prefix, counter) + getattr(resumed, counter)
                == getattr(straight, counter)
            ), counter
        assert resumed.findings == straight.findings
