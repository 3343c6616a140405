"""The content-keyed compiled-artifact cache.

Compilation in this model is a pure function of *(source kernel text,
compiler, optimization setting, pass pipeline)* — the front end
(preprocess + validate) and every pass are deterministic IR→IR
transforms.  The campaign and fuzz engines recompile the same handful of
kernels constantly: a test's HIPIFY twin is byte-identical CUDA source,
fuzz mutants share ancestors, and every (test, opt) pair re-enters the
pipeline once per sweep.  :class:`ArtifactCache` memoizes the finished
:class:`~repro.compilers.compiler.CompiledKernel` under a content key so
identical kernels never re-enter preprocess/validate/pass pipelines.

The key is built from the **source** kernel's canonical rendering (the
post-pass kernel may contain folded literals — e.g. ``inf`` — that the
canonical emitter rejects by design), qualified by:

* the compiler's registry name and the kernel's fp type;
* ``program.via_hipify`` — only when the compiler declares itself
  :attr:`~repro.compilers.compiler.Compiler.hipify_sensitive` (hipcc's
  preprocess resolves HIPIFY-converted programs differently; nvcc and
  clang compile the twin byte-identically, so their artifacts are
  *shared* between a native test and its twin);
* the flush mode and the pass-pipeline fingerprint (the ordered pass
  keys, parameters included), so two pipelines never share an artifact.

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
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen.base import EmitterConfig, render_kernel_body, render_signature
from repro.compilers.compiler import CompiledKernel, Compiler
from repro.compilers.options import OptSetting
from repro.ir.nodes import value_number
from repro.ir.program import Kernel, Program
from repro.utils.hashing import hash_bytes

__all__ = ["ArtifactCache", "kernel_text"]


def kernel_text(kernel: Kernel) -> str:
    """Canonical source rendering of a kernel (no inputs).

    The kernel-only half of :func:`repro.exec.content.content_text`:
    artifact identity must not depend on input vectors, and must render
    the *source* kernel (pre-pass IR is always emittable).
    """
    cfg = EmitterConfig(fptype=kernel.fptype)
    return "\n".join((render_signature(kernel, cfg), render_kernel_body(kernel, cfg)))


class ArtifactCache:
    """Content-keyed LRU cache of compiled kernels."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("ArtifactCache needs max_entries >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, CompiledKernel]" = OrderedDict()
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
            fingerprint = self._fingerprints[fp_key] = f"{flush}\n{passes}"
        return fingerprint

    def key(self, compiler: Compiler, program: Program, opt: OptSetting) -> str:
        """Content key of one (program, compiler, opt) compile."""
        kernel = program.kernel
        hipify = program.via_hipify if compiler.hipify_sensitive else False
        return _artifact_key(
            compiler.name,
            kernel.fptype.value,
            "hipify" if hipify else "native",
            self._fingerprint(compiler, opt, kernel),
            _text_digest(kernel),
        )

    # -------------------------------------------------------------- lookup
    def _get(self, key: str) -> Optional[CompiledKernel]:
        hit = self._entries.get(key)
        if hit is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return hit
        self.misses += 1
        return None

    def _remember(self, key: str, compiled: CompiledKernel) -> None:
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
        missing: Dict[str, List[OptSetting]] = {}
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


#: Kernel-text digests memoized by structure: a sweep keys one kernel
#: once per (compiler, opt), a reduction's candidates and triage's
#: replays rebuild kernels an earlier request rendered, and the
#: canonical render dominates keying cost.
TEXT_MEMO_MAX = 4096
_text_digests: "OrderedDict[tuple, str]" = OrderedDict()


def _text_digest(kernel: Kernel) -> str:
    """Digest of :func:`kernel_text`, keyed on the statements' value numbers."""
    shape = (kernel.name, kernel.fptype, kernel.params, tuple(value_number(s) for s in kernel.body))
    digest = _text_digests.get(shape)
    if digest is None:
        digest = _text_digests[shape] = f"{hash_bytes(kernel_text(kernel).encode('utf-8')):016x}"
        if len(_text_digests) > TEXT_MEMO_MAX:
            _text_digests.popitem(last=False)
    return digest


#: Memoized artifact keys; a sweep keys one kernel once per setting, and
#: O1-O3 (same pipeline) and fuzz re-requests repeat the same five parts.
KEY_MEMO_MAX = 4096


@lru_cache(maxsize=KEY_MEMO_MAX)
def _artifact_key(*parts: str) -> str:
    """The ``art-…`` hash of a key's five parts."""
    text = "\n".join(parts)
    return f"art-{hash_bytes(text.encode('utf-8')):016x}"


def _rebind(
    compiled: CompiledKernel, program: Program, opt: OptSetting
) -> CompiledKernel:
    """A cached kernel under the requesting program's id and setting."""
    if compiled.program_id == program.program_id and compiled.opt == opt:
        return compiled
    return replace(compiled, program_id=program.program_id, opt=opt)
