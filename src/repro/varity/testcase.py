"""Test cases: a program plus its input vectors.

This is the unit the harness runs and the metadata store (Fig. 3)
round-trips between "clusters".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.fp.types import FPType
from repro.ir.program import Program
from repro.varity.inputs import InputVector

__all__ = ["TestCase"]


@dataclass
class TestCase:
    """One generated program with its generated inputs."""

    #: keep pytest from trying to collect this class as a test suite
    __test__ = False

    program: Program
    inputs: Tuple[InputVector, ...]

    def __init__(self, program: Program, inputs: Sequence[InputVector]) -> None:
        self.program = program
        self.inputs = tuple(inputs)
        if not self.inputs:
            raise ValueError("a test case needs at least one input vector")
        nparams = len(program.kernel.params)
        for vec in self.inputs:
            if len(vec.values) != nparams:
                raise ValueError(
                    f"input vector arity {len(vec.values)} != {nparams} params"
                )

    @property
    def test_id(self) -> str:
        return self.program.program_id

    @property
    def fptype(self) -> FPType:
        return self.program.fptype

    def hipified(self) -> "TestCase":
        """The HIPIFY-converted twin of this test (same inputs)."""
        return TestCase(self.program.marked_hipify(), self.inputs)

    # -- metadata (de)serialization ---------------------------------------------
    def to_meta_dict(self) -> Dict[str, object]:
        """The JSON-able record stored in campaign metadata.

        Programs are regenerated from their seed on the destination system
        (deterministic generation), so only identity + inputs are stored —
        mirroring how the paper ships test files + a JSON of inputs.
        """
        return {
            "test_id": self.test_id,
            "seed": self.program.seed,
            "fptype": self.fptype.value,
            "via_hipify": self.program.via_hipify,
            "inputs": [list(vec.texts) for vec in self.inputs],
        }
