"""Kernel and Program containers.

A :class:`Kernel` is the ``compute`` function of one generated test.  A
:class:`Program` wraps the kernel with campaign identity (program id, the
generator seed, precision) — the unit the metadata store tracks (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.fp.types import FPType
from repro.ir.types import IRType
from repro.ir.nodes import Stmt

__all__ = ["Param", "Kernel", "Program"]


@dataclass(frozen=True)
class Param:
    """One kernel parameter.

    Varity kernels always start with ``comp`` (the FLOAT accumulator whose
    final value is printed) followed by ``var_1`` (INT loop bound) and then
    FLOAT or FLOAT_PTR parameters ``var_2 .. var_N`` (§III-B, Fig. 2).
    """

    name: str
    type: IRType

    def c_decl(self, fp_c_name: str) -> str:
        if self.type is IRType.FLOAT_PTR:
            return f"{fp_c_name}* {self.name}"
        return f"{self.type.c_name(fp_c_name)} {self.name}"


@dataclass
class Kernel:
    """The ``compute`` kernel of one test program."""

    name: str
    params: Tuple[Param, ...]
    body: Tuple[Stmt, ...]
    fptype: FPType

    def __init__(
        self,
        params: Sequence[Param],
        body: Sequence[Stmt],
        fptype: FPType,
        name: str = "compute",
    ) -> None:
        self.name = name
        self.params = tuple(params)
        self.body = tuple(body)
        self.fptype = fptype

    # -- parameter queries ---------------------------------------------------
    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"kernel has no parameter {name!r}")

    @property
    def float_params(self) -> List[Param]:
        return [p for p in self.params if p.type is IRType.FLOAT]

    @property
    def array_params(self) -> List[Param]:
        return [p for p in self.params if p.type is IRType.FLOAT_PTR]

    @property
    def int_params(self) -> List[Param]:
        return [p for p in self.params if p.type is IRType.INT]

    def with_body(self, body: Sequence[Stmt]) -> "Kernel":
        """A new kernel sharing signature/precision with a different body."""
        return Kernel(self.params, body, self.fptype, self.name)

    def __repr__(self) -> str:
        return (
            f"Kernel({self.name!r}, {len(self.params)} params, "
            f"{len(self.body)} stmts, {self.fptype.value})"
        )


@dataclass
class Program:
    """A generated test program with campaign identity.

    ``via_hipify`` marks programs whose HIP side was produced by the HIPIFY
    translator rather than by the native HIP generator (§III-F); the hipcc
    compiler model consults this to apply the compatibility-wrapper
    semantics.
    """

    program_id: str
    kernel: Kernel
    seed: int = 0
    via_hipify: bool = False
    source_note: str = ""
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def fptype(self) -> FPType:
        return self.kernel.fptype

    def with_kernel(self, kernel: Kernel) -> "Program":
        return Program(
            program_id=self.program_id,
            kernel=kernel,
            seed=self.seed,
            via_hipify=self.via_hipify,
            source_note=self.source_note,
            extra=dict(self.extra),
        )

    def marked_hipify(self) -> "Program":
        """Copy of this program flagged as HIPIFY-converted."""
        p = self.with_kernel(self.kernel)
        p.via_hipify = True
        p.source_note = (self.source_note + " [hipify]").strip()
        return p

    def __repr__(self) -> str:
        tag = " via_hipify" if self.via_hipify else ""
        return f"Program({self.program_id!r}, {self.kernel!r}{tag})"
