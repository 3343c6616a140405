"""First-class compiler stacks.

The paper's methodology — generate a kernel once, compile it through
multiple stacks, differentially compare across optimization levels —
was hardcoded here as exactly two stacks (nvcc/hipcc) threaded through
a ``hipify: bool``.  This registry makes a stack a value: each entry
bundles the codegen dialect, the source extension, the compiler model
with its pass pipeline, and the device (vendor math library + FTZ
policy) it targets.  Adding a fourth stack is one :class:`Stack` entry
plus its compiler/device modules — every layer above (exec, harness,
campaign, fuzz, oracle, CLIs) consumes the registry.

The third registered stack is the CPU lane (ROADMAP item (c)): clang
with ``-ffast-math``/autovectorization-flavoured passes executing the
plain-C dialect, so the harness has a stack pair that runs on any CI
box with no GPU stack model involved.

Compatibility invariants the registry preserves:

* ``DEFAULT_STACK_PAIR`` is ``("nvcc", "hipcc")`` — everything keyed on
  the legacy pair (content keys, checkpoint fingerprints, ledger
  formats, discrepancy JSON) serializes byte-identically to the
  pre-registry layout when only the legacy pair is in play.
* Stack order is canonical: ``STACK_NAMES`` order decides pair order,
  so ``stack_pairs(...)`` always yields (nvcc, hipcc) before
  (nvcc, cpu) before (hipcc, cpu).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple, Union

from repro.errors import HarnessError
from repro.compilers.compiler import Compiler
from repro.compilers.hipcc import HipccCompiler
from repro.compilers.nvcc import NvccCompiler
from repro.devices.amd import amd_mi250x
from repro.devices.device import Device
from repro.devices.nvidia import nvidia_v100
from repro.devices.vendor import Vendor
from repro.ir.program import Program

__all__ = [
    "Stack",
    "STACKS",
    "STACK_NAMES",
    "DEFAULT_STACK_PAIR",
    "get_stack",
    "resolve_stacks",
    "stack_pairs",
    "pair_name",
]


@dataclass(frozen=True)
class Stack:
    """One compiler stack: dialect + compiler model + device model."""

    name: str
    vendor: Vendor
    dialect: str
    source_extension: str
    mathlib_name: str
    render: Callable[[Program], str]
    compiler_factory: Callable[[], Compiler]
    device_factory: Callable[[int], Device]

    def compiler(self) -> Compiler:
        """A fresh compiler model for this stack."""
        return self.compiler_factory()

    def device(self, salt: int = 0) -> Device:
        """A fresh device model for this stack."""
        return self.device_factory(salt)

    def __str__(self) -> str:
        return self.name


def _deferred(module: str, name: str) -> Callable[..., Any]:
    """Calls ``module.name``, importing the module on first call: the
    default pair's compilers and devices are imported eagerly, while the
    renderers and the cpu stack's models load only when a run uses them."""

    def call(*args: Any) -> Any:
        return getattr(importlib.import_module(module), name)(*args)

    return call


#: Registry, in canonical order (decides pair ordering everywhere).
STACKS: Dict[str, Stack] = {
    "nvcc": Stack(
        name="nvcc",
        vendor=Vendor.NVIDIA,
        dialect="cuda",
        source_extension=".cu",
        mathlib_name="libdevice",
        render=_deferred("repro.codegen.cuda", "render_cuda"),
        compiler_factory=NvccCompiler,
        device_factory=nvidia_v100,
    ),
    "hipcc": Stack(
        name="hipcc",
        vendor=Vendor.AMD,
        dialect="hip",
        source_extension=".hip",
        mathlib_name="ocml",
        render=_deferred("repro.codegen.hip", "render_hip"),
        compiler_factory=HipccCompiler,
        device_factory=amd_mi250x,
    ),
    "cpu": Stack(
        name="cpu",
        vendor=Vendor.CPU,
        dialect="c",
        source_extension=".c",
        mathlib_name="libm",
        render=_deferred("repro.codegen.c", "render_c"),
        compiler_factory=_deferred("repro.compilers.clang", "ClangCompiler"),
        device_factory=_deferred("repro.devices.cpu", "cpu_host"),
    ),
}

STACK_NAMES: Tuple[str, ...] = tuple(STACKS)

#: The paper's pair; the legacy serialization default everywhere.
DEFAULT_STACK_PAIR: Tuple[str, str] = ("nvcc", "hipcc")


def get_stack(name: str) -> Stack:
    """Look up one stack by name (raises :class:`HarnessError` if unknown)."""
    try:
        return STACKS[name]
    except KeyError:
        raise HarnessError(
            f"unknown stack {name!r} (registered: {', '.join(STACK_NAMES)})"
        ) from None


def resolve_stacks(spec: Union[str, Sequence[str], None]) -> Tuple[str, ...]:
    """Normalize a stack selection to a canonically-ordered name tuple.

    Accepts a comma-separated string (the CLI spelling), a sequence of
    names, or ``None`` (→ the default pair).  Duplicates collapse;
    order is always registry order, so equal selections are equal
    tuples no matter how they were spelled.
    """
    if spec is None:
        return DEFAULT_STACK_PAIR
    if isinstance(spec, str):
        names: List[str] = [s.strip() for s in spec.split(",") if s.strip()]
    else:
        names = [str(s) for s in spec]
    if not names:
        raise HarnessError("stack selection must name at least one stack")
    for name in names:
        get_stack(name)  # validate
    resolved = tuple(n for n in STACK_NAMES if n in names)
    if len(resolved) < 2:
        raise HarnessError(
            f"differential testing needs at least two stacks (got {names!r})"
        )
    return resolved


def stack_pairs(names: Iterable[str]) -> Tuple[Tuple[str, str], ...]:
    """All 2-combinations of ``names``, in canonical registry order."""
    ordered = [n for n in STACK_NAMES if n in set(names)]
    return tuple(
        (ordered[i], ordered[j])
        for i in range(len(ordered))
        for j in range(i + 1, len(ordered))
    )


def pair_name(pair: Tuple[str, str]) -> str:
    """Stable short name of a stack pair (``"nvcc-cpu"``)."""
    return f"{pair[0]}-{pair[1]}"
