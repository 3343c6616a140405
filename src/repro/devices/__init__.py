"""Simulated GPU devices.

Substitute for the paper's Lassen (NVIDIA V100) and Tioga (AMD MI250X)
clusters: each device couples an IEEE-754 IR interpreter with a vendor
math-library model.  README, "Package architecture", describes the
substitution; :mod:`repro.analysis.ablation` lists the divergence
mechanisms.

There is one evaluator: :mod:`repro.devices.batch` lowers a kernel into
per-row closures, and every execution — single rows, batches, traced
runs — evaluates them.  The tree walk the lowering was derived from is
kept in ``tests/reference_interpreter.py`` as the bit-exactness oracle.
"""

from repro.devices.vendor import Vendor
from repro.devices.device import Device, DeviceSpec, ExecutionResult
from repro.devices.nvidia import nvidia_v100
from repro.devices.amd import amd_mi250x
from repro.devices.interpreter import Interpreter, ExecOptions, TraceEntry
from repro.devices.batch import batch_stats, reset_batch_stats, run_batch

__all__ = [
    "Vendor",
    "Device",
    "DeviceSpec",
    "ExecutionResult",
    "nvidia_v100",
    "amd_mi250x",
    "Interpreter",
    "ExecOptions",
    "TraceEntry",
    "run_batch",
    "batch_stats",
    "reset_batch_stats",
]
