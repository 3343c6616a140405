"""repro — differential testing of GPU numerics.

A complete, self-contained reproduction of *"Testing GPU Numerics: Finding
Numerical Differences Between NVIDIA and AMD GPUs"* (Zahid, Laguna, Le;
SC 2024 / arXiv:2410.09172), with the hardware-gated pieces replaced by
faithful executable models (README, "Package architecture"):

* a Varity-style random program generator (CUDA + HIP + C rendering);
* nvcc / hipcc compiler models with optimization-level pass pipelines;
* simulated V100 / MI250X devices: an IEEE-754 interpreter bound to vendor
  math-library models (libdevice vs OCML) whose documented algorithmic
  differences reproduce the paper's case studies;
* a HIPIFY translation model;
* the differential-testing harness, campaign driver, metadata workflow,
  and table/report generators for every table and figure in the paper.

Quickstart::

    from repro import quick_differential_test
    report = quick_differential_test(seed=7)
    print(report)

or, at the shell, ``repro-campaign --help``.

The names below resolve on first access (PEP 562), so ``import
repro.cli`` does not also load the fuzzer and ``import repro.fuzz.cli``
does not load the campaign engine.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.report import render_campaign_report
    from repro.compilers.hipcc import HipccCompiler
    from repro.compilers.nvcc import NvccCompiler
    from repro.compilers.options import PAPER_OPT_SETTINGS, OptLevel, OptSetting
    from repro.devices.amd import amd_mi250x
    from repro.devices.nvidia import nvidia_v100
    from repro.fp.classify import OutcomeClass
    from repro.fp.types import FPType
    from repro.fuzz.engine import FuzzConfig, run_fuzz
    from repro.harness.campaign import CampaignConfig, run_campaign
    from repro.harness.differential import DiscrepancyClass, classify_pair
    from repro.harness.runner import DifferentialRunner
    from repro.varity.config import GeneratorConfig
    from repro.varity.corpus import build_corpus

__version__ = "1.0.0"

#: Public name -> defining module.
_LAZY = {
    "FPType": "repro.fp.types",
    "OutcomeClass": "repro.fp.classify",
    "OptLevel": "repro.compilers.options",
    "OptSetting": "repro.compilers.options",
    "PAPER_OPT_SETTINGS": "repro.compilers.options",
    "NvccCompiler": "repro.compilers.nvcc",
    "HipccCompiler": "repro.compilers.hipcc",
    "nvidia_v100": "repro.devices.nvidia",
    "amd_mi250x": "repro.devices.amd",
    "GeneratorConfig": "repro.varity.config",
    "build_corpus": "repro.varity.corpus",
    "CampaignConfig": "repro.harness.campaign",
    "run_campaign": "repro.harness.campaign",
    "DifferentialRunner": "repro.harness.runner",
    "DiscrepancyClass": "repro.harness.differential",
    "classify_pair": "repro.harness.differential",
    "render_campaign_report": "repro.analysis.report",
    "FuzzConfig": "repro.fuzz.engine",
    "run_fuzz": "repro.fuzz.engine",
}

__all__ = [
    "FPType",
    "OutcomeClass",
    "OptLevel",
    "OptSetting",
    "PAPER_OPT_SETTINGS",
    "NvccCompiler",
    "HipccCompiler",
    "nvidia_v100",
    "amd_mi250x",
    "GeneratorConfig",
    "build_corpus",
    "CampaignConfig",
    "run_campaign",
    "DifferentialRunner",
    "DiscrepancyClass",
    "classify_pair",
    "render_campaign_report",
    "FuzzConfig",
    "run_fuzz",
    "quick_differential_test",
    "__version__",
]


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def quick_differential_test(seed: int = 2024, n_programs: int = 20) -> str:
    """Generate a few tests, run them on both platforms, report.

    The one-call demo of the whole pipeline (Fig. 1 of the paper).
    """
    from repro.analysis.report import render_campaign_report
    from repro.harness.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(
        seed=seed,
        n_programs_fp64=n_programs,
        n_programs_fp32=max(4, n_programs // 2),
        inputs_per_program=3,
    )
    result = run_campaign(config)
    return render_campaign_report(result, include_adjacency=False)
