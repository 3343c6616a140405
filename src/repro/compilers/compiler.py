"""Compiler base: pass pipelines → compiled kernels.

Passes run one top-level statement at a time through a process-wide
memo keyed by ``(pass key, fptype, value number of the statement)``
(:class:`~repro.compilers.passes.base.Pass`, at most ``MEMO_MAX``
entries; value numbers are interned in a table of at most
``VALUE_TABLE_MAX`` structures, :func:`repro.ir.nodes.value_number`).
A fuzz mutant re-runs the pipeline only on the statements its mutation
touched, and O3_FM only on what O3's passes left different.  A new pass
keeps the memo sound by making its output a function of its ``key``,
the fptype and one top-level statement: expression hooks only, or
statement hooks that never read neighbouring statements.

The front end validates each preprocessed kernel structure once per
process: the verdict is memoized by :meth:`Kernel.structure_key
<repro.ir.program.Kernel.structure_key>` (at most ``VALIDATED_MAX``
entries), so a fuzz mutant the mutator already validated, or a kernel
compiled again by triage, skips the walk.  A malformed kernel still
raises the same :class:`~repro.errors.CompileError` on every compile.

Telemetry: when the active tracer is enabled the base driver records a
``compile.front_end`` span per preprocess+validate, a ``compile`` span
per (program, opt) specialization, and a ``compile.pass`` span per
pipeline pass — covering every subclass (nvcc/hipcc/clang) without
per-subclass instrumentation.  Disabled, the cost is one attribute
lookup per compile.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import CompileError
from repro.fp.env import FlushMode
from repro.fp.types import FPType
from repro.ir.program import Kernel, Program
from repro.ir.validate import validate_kernel
from repro.devices.interpreter import ExecOptions
from repro.devices.vendor import Vendor
from repro.compilers.options import OptSetting
from repro.compilers.passes.base import Pass
from repro.telemetry.spans import get_tracer

__all__ = ["CompiledKernel", "Compiler"]

#: Front-end verdicts kept before the memo starts over.
VALIDATED_MAX = 4096
#: structure key -> the first validation issues, joined ("" when valid).
_validated: Dict[tuple, str] = {}


@dataclass(frozen=True)
class CompiledKernel:
    """The model's "binary": transformed IR + execution environment.

    ``passes_applied`` records the pipeline for metadata files and the
    case-study reports (the analogue of inspecting SASS/GCN ISA in the
    paper's root-cause analysis).
    """

    kernel: Kernel
    vendor: Vendor
    opt: OptSetting
    exec_options: ExecOptions
    passes_applied: Tuple[str, ...] = ()
    program_id: str = ""

    @property
    def label(self) -> str:
        return f"{self.vendor.compiler_name} -{self.opt.label}"


class Compiler(abc.ABC):
    """Common compile driver; subclasses define pipelines and FTZ policy."""

    #: e.g. "nvcc" / "hipcc"
    name: str = "cc"
    vendor: Vendor
    #: True when :meth:`preprocess` depends on ``program.via_hipify`` —
    #: the artifact cache then keys native and HIPIFY-twin compiles
    #: separately (hipcc); compilers that treat the twin byte-identically
    #: (nvcc, clang) share one artifact for both.
    hipify_sensitive: bool = False

    def compile(self, program: Program, opt: OptSetting) -> CompiledKernel:
        """Compile one program at one optimization setting."""
        return self._specialize(program, self._front_end(program), opt)

    def compile_sweep(
        self, program: Program, opts: Sequence[OptSetting]
    ) -> Dict[str, CompiledKernel]:
        """Compile one program at every optimization setting, keyed by label.

        The front end (preprocessing + validation) runs once and is shared
        across all settings; only the per-setting pass pipeline is repeated.
        This is the compile path of the campaign engine's per-program
        execution plan.
        """
        kernel = self._front_end(program)
        return {opt.label: self._specialize(program, kernel, opt) for opt in opts}

    # -- internals ------------------------------------------------------------
    def _front_end(self, program: Program) -> Kernel:
        """Preprocess and validate; the opt-independent half of a compile."""
        tracer = get_tracer()
        t0 = time.perf_counter_ns() if tracer.enabled else 0
        kernel = self.preprocess(program)
        key = kernel.structure_key()
        issues = _validated.get(key)
        if issues is None:
            if len(_validated) >= VALIDATED_MAX:
                _validated.clear()
            issues = _validated[key] = "; ".join(
                str(i) for i in validate_kernel(kernel)[:5]
            )
        if tracer.enabled:
            tracer.record(
                "compile.front_end",
                t0,
                time.perf_counter_ns(),
                compiler=self.name,
            )
        if issues:
            raise CompileError(
                f"{self.name}: program {program.program_id!r} is malformed: "
                + issues
            )
        return kernel

    def _specialize(
        self, program: Program, kernel: Kernel, opt: OptSetting
    ) -> CompiledKernel:
        """Run the pass pipeline for one setting on a validated kernel."""
        tracer = get_tracer()
        applied: List[str] = []
        t0 = time.perf_counter_ns() if tracer.enabled else 0
        for p in self.pipeline(opt, kernel.fptype):
            p0 = time.perf_counter_ns() if tracer.enabled else 0
            new_kernel = p.run(kernel)
            if tracer.enabled:
                tracer.record(
                    "compile.pass",
                    p0,
                    time.perf_counter_ns(),
                    compiler=self.name,
                    opt=opt.label,
                    pass_name=p.name,
                )
            if new_kernel is not kernel:
                applied.append(p.name)
            kernel = new_kernel
        if tracer.enabled:
            tracer.record(
                "compile",
                t0,
                time.perf_counter_ns(),
                compiler=self.name,
                opt=opt.label,
            )
        return CompiledKernel(
            kernel=kernel,
            vendor=self.vendor,
            opt=opt,
            exec_options=ExecOptions(flush=self.flush_mode(opt, kernel.fptype)),
            passes_applied=tuple(applied),
            program_id=program.program_id,
        )

    # -- customization points -------------------------------------------------
    def preprocess(self, program: Program) -> Kernel:
        """Source-level preparation before the pass pipeline (default: none)."""
        return program.kernel

    @abc.abstractmethod
    def pipeline(self, opt: OptSetting, fptype: FPType) -> Sequence[Pass]:
        """The pass list for one optimization setting."""

    @abc.abstractmethod
    def flush_mode(self, opt: OptSetting, fptype: FPType) -> FlushMode:
        """Subnormal handling of the generated code."""

    def __repr__(self) -> str:
        return f"<{self.name} compiler model>"
