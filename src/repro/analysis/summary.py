"""Table IV — summary of experimental results.

Rows: total programs, runs per option per compiler, runs per option, total
runs, runs per compiler, total discrepancies (count and % of total runs).
Columns: the campaign arms (FP64, FP64-with-HIPIFY, FP32).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import AnalysisError
from repro.harness.campaign import ARM_NAMES, CampaignResult
from repro.utils.tables import Table

__all__ = ["summary_table", "summary_dict", "ARM_TITLES"]

ARM_TITLES = {
    "fp64": "FP64",
    "fp64_hipify": "FP64 with HIPIFY",
    "fp32": "FP32",
    "fp16": "FP16",
    "fp16_hipify": "FP16 with HIPIFY",
    "oracle": "Oracle (FP32)",
}


def _arm_title(name: str) -> str:
    """Column title for an arm; stack-pair arms (``fp64@nvcc-cpu``) have
    no fixed title — the lane and pair name build one."""
    title = ARM_TITLES.get(name)
    if title is not None:
        return title
    lane, _, pair = name.partition("@")
    return f"{lane.upper()} {pair}"


def summary_dict(result: CampaignResult) -> Dict[str, Dict[str, object]]:
    """Machine-readable Table IV: the rows :func:`summary_table` renders."""
    out: Dict[str, Dict[str, object]] = {}
    for arm_name, arm in result.arms.items():
        out[arm_name] = {
            "total_programs": arm.n_programs,
            "runs_per_option_per_compiler": arm.runs_per_option_per_compiler,
            "runs_per_option": arm.runs_per_option,
            "total_runs": arm.total_runs,
            "runs_per_compiler": arm.runs_per_compiler,
            "total_discrepancies": arm.n_discrepancies,
            "discrepancy_percent": arm.discrepancy_percent,
            # True per-optimization totals (per compiler), post-skip; the
            # rows above are the paper-shaped nominal view of these.
            "runs_by_opt": dict(arm.runs_by_opt),
            "skipped_tests": arm.n_skipped_tests,
        }
        if arm.oracle_violations:
            out[arm_name]["oracle_violations"] = arm.n_oracle_violations
            out[arm_name]["violations_by_relation"] = arm.violations_by_relation
    return out


def summary_table(result: CampaignResult) -> Table:
    """Render Table IV for the arms present in ``result``."""
    # Legacy arms keep their paper column order; stack-pair arms follow
    # in campaign order.
    arms = [a for a in ARM_NAMES if a in result.arms]
    arms += [a for a in result.arms if a not in ARM_NAMES]
    if not arms:
        raise AnalysisError("campaign result has no arms")
    table = Table(
        title="Table IV — Summary of experimental results (measured)",
        headers=["Metric"] + [_arm_title(a) for a in arms],
    )
    data = summary_dict(result)

    def row(label: str, key: str, fmt: str = "{:d}") -> List[str]:
        cells = [label]
        for a in arms:
            v = data[a][key]
            cells.append(fmt.format(int(v)) if fmt == "{:d}" else fmt.format(v))
        return cells

    table.add_row(row("Total Programs", "total_programs"))
    table.add_row(row("Total Runs per Option per Compiler", "runs_per_option_per_compiler"))
    table.add_row(row("Total Runs per Option", "runs_per_option"))
    table.add_row(row("Total Runs", "total_runs"))
    table.add_row(row("Runs on NVCC", "runs_per_compiler"))
    table.add_row(row("Runs on HIPCC", "runs_per_compiler"))
    table.add_row(row("Total Discrepancies", "total_discrepancies"))
    table.add_row(
        row("Total Discrepancies (% of Total Runs)", "discrepancy_percent", "{:.2f}%")
    )
    return table
