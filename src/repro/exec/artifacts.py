"""The structure-keyed compiled-artifact cache.

Compilation in this model is a pure function of *(source kernel text,
compiler, optimization setting, pass pipeline)* — the front end
(preprocess + validate) and every pass are deterministic IR→IR
transforms.  The campaign and fuzz engines recompile the same handful of
kernels constantly: a test's HIPIFY twin is byte-identical CUDA source,
fuzz mutants share ancestors, and every (test, opt) pair re-enters the
pipeline once per sweep.  :class:`ArtifactCache` memoizes the finished
:class:`~repro.compilers.compiler.CompiledKernel` under a structural key
so identical kernels never re-enter preprocess/validate/pass pipelines.

The key is a tuple of atoms describing the **source** kernel — its
name, fp type, parameters (names and type values) and the value numbers
of its statements (:func:`repro.ir.nodes.value_number`, which tell
``-0.0`` from ``+0.0``, NaN payloads and ``Const.text`` spellings
apart) — qualified by:

* the compiler's registry name;
* ``program.via_hipify`` — only when the compiler declares itself
  :attr:`~repro.compilers.compiler.Compiler.hipify_sensitive` (hipcc's
  preprocess resolves HIPIFY-converted programs differently; nvcc and
  clang compile the twin byte-identically, so their artifacts are
  *shared* between a native test and its twin);
* the pipeline fingerprint: the flush mode, the ordered pass keys
  (parameters included) and, for an ablated compiler, its ablation
  spec, so two pipelines — or a plain and an ablated compiler — never
  share an artifact.

Nothing is rendered or hashed: keying is one tuple build.  A value
number is never reissued, so a key cannot outlive the structure it
names — a kernel rebuilt after the value table starts over gets new
numbers and misses.  Keys are process-local, which suits a cache that
lives only in memory.

The optimization label is *not* part of the key: a compile is a function
of the pipeline and flush mode alone, so settings that run the same
pipeline — O1, O2 and O3 on every modeled stack — share one artifact.
A cache hit rebinds ``program_id`` and ``opt`` to the request and is
otherwise the exact object a fresh compile would produce — the hard
invariant is that routing compiles through the cache leaves every
ledger, fingerprint, and printed value byte-identical.

The cache is one bounded LRU in memory.  The execution service gives
each chunk its own, so a native test and its HIPIFY twin share compiles
wherever the chunk runs; a runner's probe path keeps another.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compilers.compiler import CompiledKernel, Compiler
from repro.compilers.options import OptSetting
from repro.ir.program import Kernel, Program

__all__ = ["ArtifactCache"]


class ArtifactCache:
    """Structure-keyed LRU cache of compiled kernels."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("ArtifactCache needs max_entries >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, CompiledKernel]" = OrderedDict()
        # Flush mode + pipeline fingerprints are deterministic per
        # (compiler type, ablation spec, opt, fptype); memoized so keying
        # costs one dict probe, not a pipeline construction, per compile.
        # The type and spec — never ``compiler.name``, which an ablated
        # subclass inherits — identify the pipeline.
        self._fingerprints: Dict[Tuple[object, ...], str] = {}
        self.hits = 0
        self.misses = 0
        #: settings served by another setting's compile in the same sweep
        self.shared = 0

    # ---------------------------------------------------------------- keys
    def _fingerprint(self, compiler: Compiler, opt: OptSetting, kernel: Kernel) -> str:
        fptype = kernel.fptype
        fp_key = (type(compiler), getattr(compiler, "spec", None), opt, fptype)
        fingerprint = self._fingerprints.get(fp_key)
        if fingerprint is None:
            passes = "+".join(p.key for p in compiler.pipeline(opt, fptype))
            flush = compiler.flush_mode(opt, fptype).value
            fingerprint = f"{flush}\n{passes}"
            if fp_key[1] is not None:
                fingerprint += f"\n{fp_key[1]!r}"
            self._fingerprints[fp_key] = fingerprint
        return fingerprint

    def key(self, compiler: Compiler, program: Program, opt: OptSetting) -> tuple:
        """Structural key of one (program, compiler, opt) compile."""
        kernel = program.kernel
        return (
            compiler.name,
            program.via_hipify and compiler.hipify_sensitive,
            self._fingerprint(compiler, opt, kernel),
            *kernel.structure_key(),
        )

    # -------------------------------------------------------------- lookup
    def _get(self, key: tuple) -> Optional[CompiledKernel]:
        hit = self._entries.get(key)
        if hit is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return hit
        self.misses += 1
        return None

    def _remember(self, key: tuple, compiled: CompiledKernel) -> None:
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------- compile
    def compile(
        self, compiler: Compiler, program: Program, opt: OptSetting
    ) -> CompiledKernel:
        """One (program, opt) compile through the cache."""
        return self.compile_sweep(compiler, program, (opt,))[opt.label]

    def compile_sweep(
        self, compiler: Compiler, program: Program, opts: Sequence[OptSetting]
    ) -> Dict[str, CompiledKernel]:
        """Sweep-compile through the cache; results keyed by opt label.

        Misses share one front end (exactly like
        :meth:`~repro.compilers.compiler.Compiler.compile_sweep`), and
        settings whose keys coincide compile once; every result is
        rebound to the requesting program and setting and is otherwise
        byte-identical to a fresh compile.
        """
        out: Dict[str, CompiledKernel] = {}
        missing: Dict[tuple, List[OptSetting]] = {}
        for opt in opts:
            key = self.key(compiler, program, opt)
            group = missing.get(key)
            if group is not None:
                group.append(opt)
                self.shared += 1
                continue
            hit = self._get(key)
            if hit is not None:
                out[opt.label] = _rebind(hit, program, opt)
            else:
                missing[key] = [opt]
        if missing:
            compiled = compiler.compile_sweep(
                program, [group[0] for group in missing.values()]
            )
            for key, group in missing.items():
                ck = compiled[group[0].label]
                self._remember(key, ck)
                for opt in group:
                    out[opt.label] = _rebind(ck, program, opt)
        return {opt.label: out[opt.label] for opt in opts}

    # --------------------------------------------------------------- stats
    def stats(self) -> Dict[str, int]:
        """Counters; a setting served by a sibling's compile is a hit."""
        return {
            "hits": self.hits + self.shared,
            "misses": self.misses,
            "entries": len(self._entries),
        }

    def __len__(self) -> int:
        return len(self._entries)


def _rebind(
    compiled: CompiledKernel, program: Program, opt: OptSetting
) -> CompiledKernel:
    """A cached kernel under the requesting program's id and setting."""
    if compiled.program_id == program.program_id and compiled.opt == opt:
        return compiled
    return replace(compiled, program_id=program.program_id, opt=opt)
