"""Whole-campaign report rendering.

Combines Table IV, the per-optimization tables, and the adjacency matrices
into one text report — the artifact a campaign prints at the end.
"""

from __future__ import annotations

from typing import List, Optional

from repro.harness.campaign import CampaignResult
from repro.analysis.summary import summary_table
from repro.analysis.per_opt import per_opt_table
from repro.analysis.adjacency import adjacency_tables

__all__ = ["render_campaign_report"]

#: The FP16 arms extend the paper's grid, so their tables carry extension
#: labels instead of paper table numbers.
_PER_OPT_TITLES = {
    "fp64": "Table V — Discrepancies per optimization option, FP64 (measured)",
    "fp64_hipify": "Table VII — Discrepancies per optimization option, HIPIFY-converted FP64 (measured)",
    "fp32": "Table IX — Discrepancies per optimization option, FP32 (measured)",
    "fp16": "Extension — Discrepancies per optimization option, FP16 (measured)",
    "fp16_hipify": "Extension — Discrepancies per optimization option, HIPIFY-converted FP16 (measured)",
}
_ADJACENCY_TITLES = {
    "fp64": "Table VI — Adjacency matrices, FP64 (measured)",
    "fp64_hipify": "Table VIII — Adjacency matrices, HIPIFY-converted FP64 (measured)",
    "fp32": "Table X — Adjacency matrices, FP32 (measured)",
    "fp16": "Extension — Adjacency matrices, FP16 (measured)",
    "fp16_hipify": "Extension — Adjacency matrices, HIPIFY-converted FP16 (measured)",
}


def _per_opt_title(arm_name: str) -> str:
    """Table title for an arm; pair-suffixed arms (``fp64@nvcc-cpu``)
    extend the paper's grid, so they get extension labels built from the
    lane and pair instead of paper table numbers."""
    title = _PER_OPT_TITLES.get(arm_name)
    if title is not None:
        return title
    lane, _, pair = arm_name.partition("@")
    return (
        f"Extension — Discrepancies per optimization option, "
        f"{lane.upper()} {pair} (measured)"
    )


def _adjacency_title(arm_name: str) -> str:
    title = _ADJACENCY_TITLES.get(arm_name)
    if title is not None:
        return title
    lane, _, pair = arm_name.partition("@")
    return f"Extension — Adjacency matrices, {lane.upper()} {pair} (measured)"


def render_campaign_report(
    result: CampaignResult,
    *,
    include_adjacency: bool = True,
    header: Optional[str] = None,
) -> str:
    """Render every table the campaign supports, in paper order."""
    blocks: List[str] = []
    if header:
        blocks.append(header)
    blocks.append(
        f"campaign: {result.total_runs} total runs, "
        f"{result.total_discrepancies} discrepancies, "
        f"{result.elapsed_seconds:.1f}s"
    )
    blocks.append(summary_table(result).render())
    for arm_name, arm in result.arms.items():
        if arm_name == "oracle":
            continue  # no cross-vendor discrepancies: it gets its own table
        blocks.append(per_opt_table(arm, _per_opt_title(arm_name)).render())
    oracle_arm = result.arms.get("oracle")
    if oracle_arm is not None:
        # Per-relation violation accounting — the oracle arm's analogue of
        # the per-optimization discrepancy tables.
        from repro.oracle.engine import oracle_violation_table

        blocks.append(
            oracle_violation_table(
                oracle_arm.oracle_checked,
                oracle_arm.oracle_violations,
                title="Extension — Metamorphic-relation violations, oracle arm (measured)",
            ).render()
        )
    if include_adjacency:
        for arm_name, arm in result.arms.items():
            if arm_name == "oracle":
                continue
            for table in adjacency_tables(arm, _adjacency_title(arm_name)):
                blocks.append(table.render())
    return "\n\n".join(blocks)
