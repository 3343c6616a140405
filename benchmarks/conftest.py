"""Shared campaign fixture for the benchmark harness.

The table benches (IV through X) analyze ONE shared medium-scale campaign
run (the expensive part), so `pytest benchmarks/ --benchmark-only` finishes
in minutes while still printing every table at a statistically meaningful
scale.  Set ``REPRO_BENCH_SCALE=paper`` to run the full 694,400-run grid
(uses all cores; the Table IV-X benches took about 105 s on a 2-core
x86 container) or ``REPRO_BENCH_SCALE=tiny`` for a smoke pass.

The shared campaign streams into a checkpoint under ``benchmarks/results/``;
an interrupted bench session resumes from it on the next invocation, and a
finished one replays instantly (delete the file to force a fresh run).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness.campaign import CampaignConfig, run_campaign

RESULTS_DIR = Path(__file__).parent / "results"


def _bench_config() -> CampaignConfig:
    scale = os.environ.get("REPRO_BENCH_SCALE", "default")
    if scale == "paper":
        return CampaignConfig.paper_scale(seed=2024)
    if scale == "tiny":
        return CampaignConfig.tiny(seed=2024)
    return CampaignConfig(
        seed=2024,
        n_programs_fp64=220,
        n_programs_fp32=180,
        inputs_per_program=4,
        # A pool parent mostly waits on its workers, so take every CPU.
        workers=os.cpu_count() or 1,
    )


@pytest.fixture(scope="session")
def campaign_result(results_dir):
    """The shared campaign all table benches analyze."""
    config = _bench_config()
    checkpoint = results_dir / "campaign.checkpoint.jsonl"
    # "auto": resume a matching checkpoint, restart fresh on a stale one
    # (different scale/seed) without touching mid-campaign errors.
    return run_campaign(config, checkpoint=checkpoint, resume="auto")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a reproduced table and persist it under benchmarks/results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
