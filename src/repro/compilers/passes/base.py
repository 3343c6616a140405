"""Pass interface."""

from __future__ import annotations

import abc

from repro.ir.program import Kernel

__all__ = ["Pass"]


class Pass(abc.ABC):
    """A kernel-to-kernel transformation.

    Passes must be pure: same input kernel → same output kernel, no
    mutation of the input (the harness compiles one program at five
    settings from the same IR).
    """

    #: Short identifier recorded in CompiledKernel.passes_applied.
    name: str = "pass"

    @property
    def key(self) -> str:
        """The transformation's identity, parameters included.

        The compiled-artifact cache keys pipelines on it, so two passes
        with one key must rewrite every kernel identically.  ``name``
        suffices unless a parameter it does not spell changes the output.
        """
        return self.name

    @abc.abstractmethod
    def run(self, kernel: Kernel) -> Kernel:
        """Return the transformed kernel (may be the input if unchanged)."""

    def __repr__(self) -> str:
        return f"<pass {self.name}>"
