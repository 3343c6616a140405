#!/usr/bin/env python3
"""Replay and dissect the paper's three case studies (§IV-D).

For each case study the script runs the exact kernel + input from the
paper's figure on both simulated platforms, prints the outputs next to the
paper's published ones, and isolates the first divergent intermediate —
the same methodology (intermediate-value analysis) the authors used with
SASS/GCN disassembly.

Usage::

    python examples/case_study_explorer.py
"""

from __future__ import annotations

from repro.analysis.case_studies import isolate_divergence
from repro.apps.paper_kernels import (
    FIG4_FMOD_X,
    FIG4_FMOD_Y,
    case3_engineered_testcase,
    fig4_testcase,
    fig5_testcase,
    fig6_testcase,
)
from repro.compilers.options import OptLevel, OptSetting
from repro.devices.mathlib.fmod import amd_fmod, nvidia_fmod
from repro.devices.mathlib.rounding_ops import amd_ceil, nvidia_ceil
from repro.harness.runner import DifferentialRunner

O0 = OptSetting(OptLevel.O0)
O1 = OptSetting(OptLevel.O1)


def main() -> int:
    runner = DifferentialRunner()

    print("#" * 72)
    print("# Case Study 1 (Fig. 4): fmod — Num vs Num at -O0")
    print("#" * 72)
    report = isolate_divergence(runner, fig4_testcase(), O0, 0)
    print(report.render())
    print()
    print("isolated expression fmod(1.5917195493481116e+289, 1.5793E-307):")
    print(f"  nvcc model : {nvidia_fmod(FIG4_FMOD_X, FIG4_FMOD_Y)!r}"
          "   (paper: 1.4424471839615771e-307)")
    print(f"  hipcc model: {amd_fmod(FIG4_FMOD_X, FIG4_FMOD_Y)!r}"
          "   (paper: 7.1923082856620736e-309 — matched bit-exactly)")

    print()
    print("#" * 72)
    print("# Case Study 2 (Fig. 5): ceil — Inf vs Num at -O0 (bit-exact)")
    print("#" * 72)
    report = isolate_divergence(runner, fig5_testcase(), O0, 0)
    print(report.render())
    print()
    print(f"ceil(1.5955E-125): nvcc model → {nvidia_ceil(1.5955e-125):g} (paper: 0), "
          f"hipcc model → {amd_ceil(1.5955e-125):g} (paper: 1)")

    print()
    print("#" * 72)
    print("# Case Study 3 (Fig. 6): Inf vs NaN appearing under -O1")
    print("#" * 72)
    verbatim = fig6_testcase()
    for opt in (O0, O1):
        rn, ra, _, _ = runner.run_single(verbatim, opt, 0)
        print(f"verbatim Fig. 6 kernel @ {opt.label}: nvcc={rn.printed}  hipcc={ra.printed}"
              "   (paper: -inf / -inf at O0; -inf / -nan at O1)")
    print("note: pure IEEE evaluation of the published input yields NaN on both")
    print("platforms (see repro.apps.paper_kernels); the engineered companion below shows")
    print("the same optimization-induced phenomenon end to end:")
    print()
    engineered = case3_engineered_testcase()
    for opt in (O0, O1):
        report = isolate_divergence(runner, engineered, opt, 0)
        print(f"engineered kernel @ {opt.label}: nvcc={report.nvcc_printed}  "
              f"hipcc={report.hipcc_printed}  "
              f"(nvcc passes: {', '.join(report.nvcc_passes) or 'none'})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
