"""Per-function cross-vendor disagreement sweep.

The paper's related work (Innocente & Zimmermann [4]) characterizes math
functions' accuracy directly, complementing Varity's whole-program view.
This module does the same for the modeled libraries: sweep each supported
function over structured operand ranges (normal, tiny, huge, subnormal)
and measure where — and by how many ULPs — the two vendor models disagree.

It answers, function by function, the question the campaign answers only
in aggregate: *which calls are dangerous to port?*
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.devices.mathlib.base import (
    BINARY_FUNCTIONS,
    UNARY_FUNCTIONS,
)
from repro.devices.mathlib.libdevice import LibdeviceMath
from repro.devices.mathlib.ocml import OcmlMath
from repro.fp.classify import classify_value
from repro.fp.types import FPType
from repro.fp.ulp import ulp_distance
from repro.utils.tables import Table

__all__ = ["FunctionSweepResult", "sweep_function", "sweep_all", "sweep_table"]


#: Near-subnormal and near-overflow sweep ranges per precision (the
#: moderate/small/large ranges below are shared by every lane; FP16's
#: "large" band is clipped under HALF_MAX).
_EDGE_RANGES = {
    FPType.FP64: [(1.0e-310, 1.0e-305), (1.0e300, 1.0e305)],
    FPType.FP32: [(1.0e-41, 1.0e-38), (1.0e34, 1.0e37)],
    FPType.FP16: [(1.0e-7, 6.0e-5), (1.0e3, 6.0e4)],
}


def _operand_grid(fptype: FPType, points_per_range: int) -> List[float]:
    """Deterministic operands across the ranges Varity inputs sample."""
    ranges: List[Tuple[float, float]] = [
        (0.1, 10.0),  # moderate
        (1.0e-6, 1.0e-3),  # small
        (1.0e3, 1.0e6) if fptype is not FPType.FP16 else (1.0e1, 1.0e3),  # large
    ]
    try:
        ranges += _EDGE_RANGES[fptype]
    except KeyError:
        raise ValueError(f"no sweep ranges for {fptype!r}") from None
    grid: List[float] = []
    for lo, hi in ranges:
        step = (hi - lo) / points_per_range
        for i in range(points_per_range):
            v = lo + step * i
            grid.append(v)
            grid.append(-v)
    return grid


@dataclass(frozen=True)
class FunctionSweepResult:
    """Disagreement statistics of one function."""

    func: str
    fptype: FPType
    n_points: int
    n_disagreements: int
    n_class_changes: int  # NaN-vs-Num-style, not just value drift
    max_ulps: int

    @property
    def disagreement_rate(self) -> float:
        return self.n_disagreements / self.n_points if self.n_points else 0.0


def sweep_function(
    func: str,
    fptype: FPType = FPType.FP64,
    points_per_range: int = 60,
) -> FunctionSweepResult:
    """Compare the two vendor models pointwise for one function."""
    nv, amd = LibdeviceMath(), OcmlMath()
    grid = _operand_grid(fptype, points_per_range)
    if func in BINARY_FUNCTIONS:
        # Pair operands with a stride so huge/tiny mixes occur.
        cases: List[Tuple[float, ...]] = [
            (grid[i], grid[(i * 7 + 3) % len(grid)]) for i in range(len(grid))
        ]
    else:
        cases = [(x,) for x in grid]

    disagreements = 0
    class_changes = 0
    max_ulps = 0
    for args in cases:
        a = nv.call(func, list(args), fptype)
        b = amd.call(func, list(args), fptype)
        if math.isnan(a) and math.isnan(b):
            continue
        if a == b:
            continue
        disagreements += 1
        if classify_value(a) is not classify_value(b):
            class_changes += 1  # e.g. ceil: 0 vs 1 is Zero-vs-Num
        if math.isfinite(a) and math.isfinite(b):
            max_ulps = max(max_ulps, ulp_distance(a, b, fptype))
    return FunctionSweepResult(
        func=func,
        fptype=fptype,
        n_points=len(cases),
        n_disagreements=disagreements,
        n_class_changes=class_changes,
        max_ulps=max_ulps,
    )


def _sweep_task(payload: Tuple[str, FPType, int]) -> FunctionSweepResult:
    """Module-level task wrapper so the execution service can ship one
    function's sweep to a pool worker."""
    func, fptype, points_per_range = payload
    return sweep_function(func, fptype, points_per_range)


def sweep_all(
    fptype: FPType = FPType.FP64,
    points_per_range: int = 60,
    functions: Sequence[str] = (),
    *,
    service: Optional["ExecutionService"] = None,
    workers: int = 0,
) -> List[FunctionSweepResult]:
    """Sweep every supported function (or an explicit subset).

    Per-function sweeps are independent pure work units, so they run
    through the execution service's generic task map — ordered and
    deterministic at any worker count.
    """
    from repro.exec import ExecutionService, make_backend

    names = list(functions) if functions else list(UNARY_FUNCTIONS + BINARY_FUNCTIONS)
    owns = service is None
    if service is None:
        service = ExecutionService(make_backend(workers))
    try:
        return service.map(
            _sweep_task, [(f, fptype, points_per_range) for f in names]
        )
    finally:
        if owns:
            service.close()


def sweep_table(results: Sequence[FunctionSweepResult], title: str = "") -> Table:
    """Render the sweep, most divergent functions first."""
    table = Table(
        title=title or "Cross-vendor math-function disagreement sweep",
        headers=["Function", "Points", "Disagree", "Rate", "Max ULPs", "Class changes"],
    )
    for r in sorted(results, key=lambda r: -r.disagreement_rate):
        # An algorithmic divergence (fmod/ceil) can be astronomically many
        # ULPs apart; ">1e6" reads better than a 19-digit bit distance.
        ulps = str(r.max_ulps) if r.max_ulps <= 1_000_000 else ">1e6"
        table.add_row([
            r.func,
            r.n_points,
            r.n_disagreements,
            f"{100 * r.disagreement_rate:.1f}%",
            ulps,
            r.n_class_changes,
        ])
    return table
