"""Tests for the ``repro-campaign`` command-line interface."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import _config_from_args, build_parser, main


def _config(argv):
    parser = build_parser()
    return _config_from_args(parser, parser.parse_args(argv))


class TestConfigFromArgs:
    def test_defaults_are_tiny(self):
        config = _config([])
        assert config.n_programs_fp64 == 24 and config.workers == 0

    def test_overrides_apply(self):
        config = _config(["--fp64-programs", "5", "--inputs", "2", "--workers", "3"])
        assert config.n_programs_fp64 == 5
        assert config.inputs_per_program == 2
        assert config.workers == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["--fp64-programs", "0"],
            ["--fp64-programs", "-3"],
            ["--fp32-programs", "0"],
            ["--inputs", "0"],
            ["--inputs", "-1"],
            ["--workers", "-1"],
        ],
    )
    def test_non_positive_overrides_rejected(self, argv):
        """Explicit zero/negative values error out instead of being
        silently swallowed by a falsy-or fallback to the preset."""
        with pytest.raises(SystemExit):
            _config(argv)

    def test_explicit_zero_workers_honored_on_paper_scale(self):
        # `--workers 0` used to be falsy and fall back to the preset's
        # auto-sized pool; it must mean "serial".
        config = _config(["--scale", "paper", "--workers", "0"])
        assert config.workers == 0

    def test_paper_scale_auto_workers_without_override(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        config = _config(["--scale", "paper"])
        assert config.workers == 2

    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            _config(["--resume"])

    def test_arm_toggles(self):
        config = _config(["--no-hipify", "--no-fp32"])
        assert not config.include_hipify and not config.include_fp32


class TestMainEndToEnd:
    def test_checkpointed_run_and_resume(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        out = tmp_path / "results.json"
        argv = [
            "--fp64-programs", "4", "--fp32-programs", "4", "--inputs", "2",
            "--seed", "3", "--no-adjacency",
            "--checkpoint", str(ck), "--json", str(out),
        ]
        assert main(argv) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["nvcc_cache_hits"] > 0
        assert payload["arms"]["fp64_hipify"]["runs_by_opt"]
        # The config payload fully identifies the campaign that produced it.
        assert payload["config"] == {
            "seed": 3,
            "n_programs_fp64": 4,
            "n_programs_fp32": 4,
            "n_programs_fp16": 16,  # the tiny preset's default

            "inputs_per_program": 2,
            "include_hipify": True,
            "include_fp32": True,
            "include_fp16": False,
            "include_oracle": False,
            "stacks": ["nvcc", "hipcc"],
            "workers": 0,
        }

        # Resuming the finished campaign replays the checkpoint without
        # executing anything, and reproduces the results exactly.
        assert main(argv + ["--resume"]) == 0
        resumed = json.loads(out.read_text(encoding="utf-8"))
        assert resumed["resumed_steps"] > 0
        assert resumed["arms"] == payload["arms"]
