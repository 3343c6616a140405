"""Typed intermediate representation for Varity-style test programs.

A generated test is a single GPU kernel named ``compute`` (§III-B of the
paper): it takes a scalar ``comp`` accumulator, an ``int`` loop-bound
parameter, and a list of floating-point scalar/array parameters; it runs
straight-line arithmetic, ``for`` loops, and ``if`` conditions; and it
prints ``comp`` with ``%.17g``.  The IR models exactly that program family,
is rendered to CUDA/HIP/C by :mod:`repro.codegen`, transformed by the
compiler models in :mod:`repro.compilers`, and executed by
:mod:`repro.devices.interpreter`.
"""

from repro.ir.types import IRType
from repro.ir.nodes import (
    Node,
    Expr,
    Const,
    IntConst,
    VarRef,
    ArrayRef,
    UnOp,
    BinOp,
    FMA,
    Call,
    Compare,
    BoolOp,
    Stmt,
    Decl,
    Assign,
    AugAssign,
    For,
    If,
    structurally_equal,
)
from repro.ir.program import Param, Kernel, Program
from repro.ir.visitor import Visitor, Transformer, walk, collect
from repro.ir.builder import IRBuilder
from repro.ir.validate import validate_kernel, ValidationIssue
from repro.ir.metrics import ProgramMetrics, compute_metrics

__all__ = [
    "IRType",
    "Node",
    "Expr",
    "Const",
    "IntConst",
    "VarRef",
    "ArrayRef",
    "UnOp",
    "BinOp",
    "FMA",
    "Call",
    "Compare",
    "BoolOp",
    "Stmt",
    "Decl",
    "Assign",
    "AugAssign",
    "For",
    "If",
    "structurally_equal",
    "Param",
    "Kernel",
    "Program",
    "Visitor",
    "Transformer",
    "walk",
    "collect",
    "IRBuilder",
    "validate_kernel",
    "ValidationIssue",
    "ProgramMetrics",
    "compute_metrics",
]
