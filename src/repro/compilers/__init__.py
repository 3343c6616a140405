"""Compiler models for nvcc and hipcc.

A compiler model maps ``(program, optimization setting)`` to a
:class:`~repro.compilers.compiler.CompiledKernel`: a transformed IR plus
execution options (flush-to-zero mode).  The pass pipelines encode the
paper's divergence mechanisms 2–4: FMA-contraction pattern
coverage, fast-math value-unsafe rewrites, FP32 approximate intrinsics and
FTZ.  ``-O1``/``-O2``/``-O3`` run identical pipelines by design — the
paper's Tables V/VII/IX measured identical discrepancy profiles across
them, and our model makes that exact.
"""

from repro.compilers.options import OptLevel, OptSetting, PAPER_OPT_SETTINGS
from repro.compilers.compiler import Compiler, CompiledKernel
from repro.compilers.nvcc import NvccCompiler
from repro.compilers.hipcc import HipccCompiler

__all__ = [
    "OptLevel",
    "OptSetting",
    "PAPER_OPT_SETTINGS",
    "Compiler",
    "CompiledKernel",
    "NvccCompiler",
    "HipccCompiler",
]
