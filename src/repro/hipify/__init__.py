"""HIPIFY model: CUDA → HIP source translation (§III-F).

Two cooperating pieces, mirroring how the paper uses AMD's tool:

* :func:`repro.hipify.translator.hipify_source` — a rule-table,
  text-level translator in the style of ``hipify-perl`` (runtime-call
  renames, header swap, ``<<< >>>`` launch rewriting);
* the *semantic* marker :meth:`repro.ir.program.Program.marked_hipify`,
  consumed by the hipcc compiler model, which resolves a small set of math
  calls through a compatibility wrapper with one extra modeled rounding —
  producing the slightly-elevated discrepancy counts of Tables VII/VIII
  relative to native-HIP FP64 (the paper measures the effect but leaves
  its root cause to future work; the extra rounding is our stand-in,
  calibrated in :mod:`repro.devices.mathlib.accuracy`).
"""

from repro.hipify.rules import HIPIFY_RULES, HipifyRule
from repro.hipify.translator import hipify_source, hipify_program

__all__ = ["HIPIFY_RULES", "HipifyRule", "hipify_source", "hipify_program"]
