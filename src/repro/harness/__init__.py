"""Differential-testing harness.

Implements the paper's experimental procedure (§II-C, Fig. 1): compile
each generated test with both compiler models at the same optimization
setting, run both "binaries" on their devices with the same input, compare
the printed ``%.17g`` results, and classify discrepancies into the seven
classes of §IV-B.  The campaign driver scales from smoke tests to the
paper's full 652,600-run grid; the metadata store and transfer module
implement the between-platform workflow of Fig. 3.
"""

from repro.harness.outcomes import RunRecord
from repro.harness.differential import (
    DiscrepancyClass,
    Discrepancy,
    classify_pair,
)
from repro.harness.runner import DifferentialRunner, PairResult
from repro.harness.campaign import (
    ArmResult,
    CampaignConfig,
    CampaignResult,
    PlanStep,
    build_plan,
    run_campaign,
)
from repro.harness.metadata import CampaignMetadata, SystemResults
from repro.harness.transfer import run_system1, run_system2, between_platform_campaign

__all__ = [
    "RunRecord",
    "DiscrepancyClass",
    "Discrepancy",
    "classify_pair",
    "DifferentialRunner",
    "PairResult",
    "ArmResult",
    "CampaignConfig",
    "CampaignResult",
    "PlanStep",
    "build_plan",
    "run_campaign",
    "CampaignMetadata",
    "SystemResults",
    "run_system1",
    "run_system2",
    "between_platform_campaign",
]
