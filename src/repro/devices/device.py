"""Device abstraction: a vendor math library plus an interpreter.

A :class:`Device` stands in for "a GPU node of one of the two clusters".
The harness compiles a program with the device's matching compiler model
and calls :meth:`Device.execute` (one input row) or
:meth:`Device.execute_batch` (a grid of rows) with the compiled kernel
(anything exposing ``kernel`` and ``exec_options`` — see
:class:`repro.compilers.compiler.CompiledKernel`).  Both run the one
evaluator, the lowered closures of :mod:`repro.devices.batch`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from repro.devices.batch import run_batch
from repro.devices.interpreter import ExecOptions, ExecutionResult, Interpreter
from repro.devices.mathlib.base import MathLibrary
from repro.devices.vendor import Vendor

if TYPE_CHECKING:  # pragma: no cover
    from repro.compilers.compiler import CompiledKernel

__all__ = ["DeviceSpec", "Device", "ExecutionResult"]


@dataclass(frozen=True)
class DeviceSpec:
    """Identity of a simulated GPU (mirrors the paper's §IV-A systems)."""

    name: str
    vendor: Vendor
    gpu_model: str
    cluster: str
    toolchain: str

    def describe(self) -> str:
        return (
            f"{self.name}: {self.gpu_model} ({self.vendor.value}), "
            f"cluster {self.cluster}, toolchain {self.toolchain}"
        )


class Device:
    """One simulated GPU: spec + vendor math library + interpreter."""

    def __init__(
        self,
        spec: DeviceSpec,
        mathlib: MathLibrary,
        cost_model: "CostModel | None" = None,
    ) -> None:
        self.spec = spec
        self.mathlib = mathlib
        self.interpreter = Interpreter(mathlib, cost_model)

    @property
    def vendor(self) -> Vendor:
        return self.spec.vendor

    def execute(
        self,
        compiled: "CompiledKernel",
        inputs: Sequence[Union[float, int]],
        *,
        trace: bool = False,
        events: bool = True,
    ) -> ExecutionResult:
        """Run a compiled kernel on this device (:meth:`Interpreter.run`).

        ``trace`` records the per-store trace; ``events=False`` skips
        IEEE event inference, leaving the result's ``flags`` ``None``.
        The compiled kernel must target this device's vendor — running an
        nvcc binary on an AMD GPU is exactly the mistake real clusters
        reject at load time, so we reject it too.
        """
        self._check_vendor(compiled)
        options = _options(compiled, trace, events)
        return self.interpreter.run(compiled.kernel, inputs, options)

    def execute_batch(
        self,
        compiled: "CompiledKernel",
        input_rows: Sequence[Sequence[Union[float, int]]],
        *,
        events: bool = True,
    ) -> List[Optional[ExecutionResult]]:
        """Run a compiled kernel once per input row (``None`` = trapped).

        Per row what :meth:`execute` returns, with
        :class:`~repro.errors.TrapError` caught as ``None``; the kernel is
        lowered once for all rows (:mod:`repro.devices.batch`).  With
        ``events=False`` the lowering infers no IEEE events and every
        result's ``flags`` is ``None``; values, steps, cycles and traps
        are unchanged.
        """
        self._check_vendor(compiled)
        options = _options(compiled, False, events)
        return run_batch(self.interpreter, compiled.kernel, input_rows, options)

    def _check_vendor(self, compiled: "CompiledKernel") -> None:
        if compiled.vendor is not self.vendor:
            raise ValueError(
                f"binary compiled for {compiled.vendor.value} cannot run on "
                f"{self.vendor.value} device {self.spec.name!r}"
            )

    def __repr__(self) -> str:
        return f"Device({self.spec.name!r}, mathlib={self.mathlib.name})"


def _options(compiled: "CompiledKernel", trace: bool, events: bool) -> ExecOptions:
    """The compiled kernel's options, traced if ``trace`` asks and
    event-free if ``events`` is off."""
    options = compiled.exec_options
    if trace and not options.trace:
        options = dataclasses.replace(options, trace=True)
    if options.events and not events:
        options = dataclasses.replace(options, events=False)
    return options
