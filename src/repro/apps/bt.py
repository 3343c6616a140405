"""Table I mini-app: a BT.S-style solver under compiler/flag combinations.

The paper's Table I (from Miao et al.) demonstrates the tradeoff the whole
study revolves around: fast-math builds are faster and less accurate, and
the (runtime, error) profile differs per compiler.  We reproduce the
four-row experiment with a compact structured-grid solver in the same
spirit as NAS BT class S: repeated sweeps updating a solution array from a
right-hand side, with a nonlinear term and a transcendental diagnostic.

The solver is expressed in the library's IR and run under each compiler
model at ``-O0`` and ``-O3 + fast math``.  Runtime is wall-clock of the
simulated execution; "max relative error" compares the final residual
accumulator against a vendor-neutral correctly-rounded reference run
(:class:`repro.devices.mathlib.reference.ReferenceMath`), which plays the
role of the NAS verification values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.compilers.compiler import Compiler
from repro.compilers.hipcc import HipccCompiler
from repro.compilers.nvcc import NvccCompiler
from repro.compilers.options import OptLevel, OptSetting
from repro.devices.amd import amd_mi250x
from repro.devices.device import Device
from repro.devices.interpreter import ExecOptions, Interpreter
from repro.devices.mathlib.reference import ReferenceMath
from repro.devices.nvidia import nvidia_v100
from repro.fp.types import FPType
from repro.ir.builder import IRBuilder
from repro.ir.nodes import IntConst
from repro.ir.program import Program

__all__ = ["build_bt_program", "run_bt_experiment", "BTRow", "BT_GRID_POINTS"]

#: Spatial points per sweep (class-S-like tiny grid).
BT_GRID_POINTS = 24


def build_bt_program(grid_points: int = BT_GRID_POINTS) -> Program:
    """The mini-BT kernel.

    Parameters: ``comp`` (residual accumulator), ``var_1`` (time steps),
    ``var_2`` (relaxation scale), ``var_3`` (forcing), ``var_4`` (u array),
    ``var_5`` (rhs array).

    The body deliberately contains the constructs the optimization levels
    act on: constant coefficient expressions (folded at O1+), a constant
    math call (host-libm-folded by the nvcc model), ``a*b + c`` update
    shapes (FMA-contracted), an addition chain (reassociated under fast
    math), division by a constant (reciprocal-substituted under fast
    math), and transcendental calls (vendor ULP error).
    """
    b = IRBuilder(FPType.FP64)
    j = "i"  # inner spatial loop var must come from the fixed pool (i, j, k)
    u = lambda: b.idx("var_4", j)  # noqa: E731 - tiny local factories
    rhs = lambda: b.idx("var_5", j)  # noqa: E731

    # Coefficient pre-computation: constant expressions at source level.
    coef = b.decl(
        "tmp_1",
        b.mul(b.lit(0.25), b.sub(b.lit(1.0), b.lit(0.02))),
    )
    norm = b.decl("tmp_2", b.div(b.call("exp", b.lit(1.0)), b.lit(2.718281828459045)))

    # De-symmetrize the grid: a linear ramp over the fill value, so every
    # point follows its own trajectory (mirrors BT's non-uniform initial
    # condition; also ensures math calls see distinct operands per point).
    init = b.loop(
        j,
        IntConst(grid_points),
        [b.assign(u(), b.mul(u(), b.add(b.lit(1.0), b.mul(b.lit(2.0e-2), b.var(j)))))],
    )

    sweep = b.loop(
        j,
        IntConst(grid_points),
        [
            # Exponential-integrator update (mul-LEFT-add shape, so both
            # compiler models contract it):
            #   u = coef*(rhs - 1e-3*u*u)*var_2 + u * exp(var_3*(rhs - u))
            # The multiplicative exp factor is the error carrier: a 1-ULP
            # vendor deviation in exp() perturbs u by 1 ULP *relatively*,
            # which survives rounding at any magnitude and compounds over
            # sweeps — additive perturbations would be absorbed once u
            # outgrows them.
            b.assign(
                u(),
                b.add(
                    b.mul(
                        b.mul("tmp_1", b.sub(rhs(), b.mul(b.lit(1.0e-3), b.mul(u(), u())))),
                        "var_2",
                    ),
                    b.mul(u(), b.call("exp", b.mul("var_3", b.sub(rhs(), u())))),
                ),
            ),
            # rhs relaxation with a constant divisor (reciprocal target)
            b.assign(
                rhs(),
                b.add(
                    b.div(rhs(), b.lit(1.0001)),
                    b.mul(b.lit(1.0e-2), b.call("sqrt", b.call("fabs", u()))),
                ),
            ),
            # Residual: multiplicative accumulation through exp, so every
            # library deviation lands as a relative perturbation of comp
            # (an additive ``comp += …`` would absorb sub-ULP deviations
            # once comp grows).  The argument is an addition chain — the
            # fast-math reassociation target.
            b.aug(
                "comp",
                "*",
                b.call(
                    "exp",
                    b.mul(
                        "var_3",
                        b.add(
                            b.add(b.sub(u(), rhs()), b.mul("tmp_2", "var_3")),
                            b.call("log", b.add(b.call("fabs", u()), b.lit(1.0))),
                        ),
                    ),
                ),
            ),
        ],
    )
    timestep = b.loop("k", "var_1", [sweep])
    kernel = b.kernel(
        params=[
            b.fparam("comp"),
            b.iparam("var_1"),
            b.fparam("var_2"),
            b.fparam("var_3"),
            b.aparam("var_4"),
            b.aparam("var_5"),
        ],
        body=[coef, norm, init, timestep],
    )
    return b.program(kernel, program_id="bt-mini", note="BT.S-style mini app")


@dataclass(frozen=True)
class BTRow:
    """One row of the Table I reproduction.

    ``model_cycles`` is the primary runtime measure (modeled device issue
    cycles; see :class:`repro.devices.interpreter.CostModel`) — it reflects
    what the optimization setting changed in the emitted code.
    ``wall_seconds`` is the host wall-clock of the simulation and is
    reported for transparency only.
    """

    compiler: str
    options: str
    model_cycles: int
    wall_seconds: float
    max_rel_error: float

    @property
    def model_runtime(self) -> str:
        return f"{self.model_cycles / 1.0e6:.3f} Mcycles"

    def cells(self) -> Tuple[str, str, str, str]:
        return (
            self.compiler,
            self.options,
            self.model_runtime,
            f"{self.max_rel_error:.5E}",
        )


#: Inputs: comp=1 (multiplicative accumulator), steps, relaxation,
#: forcing, u fill, rhs fill.
def _bt_inputs(steps: int) -> List[float]:
    return [1.0, steps, 0.9, 1.0e-3, 1.0, 0.5]


def _reference_value(program: Program, inputs: Sequence[float]) -> float:
    interp = Interpreter(ReferenceMath())
    result = interp.run(program.kernel, inputs, ExecOptions(events=False))
    return result.value


def run_bt_experiment(steps: int = 40, repeats: int = 3) -> List[BTRow]:
    """The four-row Table I grid: {nvcc, hipcc} × {-O0, -O3 + fast math}.

    ``repeats`` runs each cell several times and keeps the best wall-clock
    (standard benchmarking practice for an interpreter-based runtime).
    """
    program = build_bt_program()
    inputs = _bt_inputs(steps)
    reference = _reference_value(program, inputs)
    if reference == 0.0:
        raise ValueError("degenerate reference value; increase steps")

    grid: List[Tuple[Compiler, Device, OptSetting]] = [
        (NvccCompiler(), nvidia_v100(), OptSetting(OptLevel.O0)),
        (NvccCompiler(), nvidia_v100(), OptSetting(OptLevel.O3, fast_math=True)),
        (HipccCompiler(), amd_mi250x(), OptSetting(OptLevel.O0)),
        (HipccCompiler(), amd_mi250x(), OptSetting(OptLevel.O3, fast_math=True)),
    ]
    rows: List[BTRow] = []
    for compiler, device, opt in grid:
        compiled = compiler.compile(program, opt)
        best = float("inf")
        result = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            result = device.execute(compiled, inputs, events=False)
            best = min(best, time.perf_counter() - t0)
        assert result is not None
        rel_error = abs(result.value - reference) / abs(reference)
        rows.append(
            BTRow(
                compiler=compiler.name,
                options=" ".join(opt.flags_for(compiler.name)),
                model_cycles=result.cost_cycles,
                wall_seconds=best,
                max_rel_error=rel_error,
            )
        )
    return rows
