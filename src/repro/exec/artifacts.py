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
  keys, parameters included), so a pipeline change invalidates
  persisted artifacts instead of replaying stale ones.

The optimization label is *not* part of the key: a compile is a function
of the pipeline and flush mode alone, so settings that run the same
pipeline — O1, O2 and O3 on every modeled stack — share one artifact.
A cache hit rebinds ``program_id`` and ``opt`` to the request and is
otherwise the exact object a fresh compile would produce — the hard
invariant is that routing compiles through the cache leaves every
ledger, fingerprint, and printed value byte-identical.

Tiers mirror :class:`~repro.exec.store.RunStore`: a bounded LRU memory
tier, plus an optional ``path`` naming the SQLite content store
(:class:`~repro.exec.disk.ContentDB`, which it may share with a run
store) whose ``artifacts`` table holds one pickled kernel per key, so a
reopened session starts with a warm compiler.  A blob that does not
unpickle to a compiled kernel is a miss; the recompiled kernel then
overwrites it, so the next session hits.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.codegen.base import EmitterConfig, render_kernel_body, render_signature
from repro.compilers.compiler import CompiledKernel, Compiler
from repro.compilers.options import OptSetting
from repro.ir.program import Kernel, Program
from repro.utils.hashing import hash_bytes

if TYPE_CHECKING:
    from repro.exec.disk import ContentDB

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
    """Two-tier content-keyed cache of compiled kernels."""

    def __init__(
        self,
        max_entries: int = 4096,
        path: Optional[Union[str, Path]] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("ArtifactCache needs max_entries >= 1")
        self.max_entries = max_entries
        self.path = Path(path) if path is not None else None
        self._disk: Optional["ContentDB"] = None
        if self.path is not None:
            from repro.exec.disk import ContentDB

            self._disk = ContentDB(self.path)
        self._entries: "OrderedDict[str, CompiledKernel]" = OrderedDict()
        # Flush mode + pipeline fingerprints are deterministic per
        # (compiler type, ablation spec, opt, fptype); memoized so keying
        # costs one dict probe, not a pipeline construction, per compile.
        # The type and spec — never ``compiler.name``, which an ablated
        # subclass inherits — identify the pipeline.
        self._fingerprints: Dict[Tuple[object, ...], str] = {}
        # Kernel-text digests, memoized by kernel object identity: a
        # sweep keys the same kernel once per (compiler, opt), and the
        # canonical render dominates keying cost.  The stored kernel
        # reference keeps the id stable; the ``is`` check on lookup
        # catches id reuse after an eviction frees one.
        self._kernel_digests: "OrderedDict[int, Tuple[Kernel, str]]" = OrderedDict()
        # disk keys whose blob did not unpickle: their recompile overwrites
        self._corrupt: Set[str] = set()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
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

    def _kernel_digest(self, kernel: Kernel) -> str:
        entry = self._kernel_digests.get(id(kernel))
        if entry is not None and entry[0] is kernel:
            return entry[1]
        digest = f"{hash_bytes(kernel_text(kernel).encode('utf-8')):016x}"
        self._kernel_digests[id(kernel)] = (kernel, digest)
        while len(self._kernel_digests) > 512:
            self._kernel_digests.popitem(last=False)
        return digest

    def key(self, compiler: Compiler, program: Program, opt: OptSetting) -> str:
        """Content key of one (program, compiler, opt) compile."""
        kernel = program.kernel
        hipify = program.via_hipify if compiler.hipify_sensitive else False
        text = "\n".join(
            (
                compiler.name,
                kernel.fptype.value,
                "hipify" if hipify else "native",
                self._fingerprint(compiler, opt, kernel),
                self._kernel_digest(kernel),
            )
        )
        return f"art-{hash_bytes(text.encode('utf-8')):016x}"

    # -------------------------------------------------------------- lookup
    def _get(self, key: str) -> Optional[CompiledKernel]:
        hit = self._entries.get(key)
        if hit is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return hit
        if self._disk is not None:
            blob = self._disk.artifact(key)
            hit = _unpickle(blob)
            if hit is not None:
                self.disk_hits += 1
                self.hits += 1
                self._remember(key, hit, persist=False)
                return hit
            if blob is not None:
                self._corrupt.add(key)
        self.misses += 1
        return None

    def _remember(self, key: str, compiled: CompiledKernel, persist: bool = True) -> None:
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        if persist and self._disk is not None:
            heal = key in self._corrupt
            self._corrupt.discard(key)
            self._disk.put_artifact(key, pickle.dumps(compiled), replace=heal)

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
            "disk_hits": self.disk_hits,
            "entries": len(self._entries),
        }

    def close(self) -> None:
        if self._disk is not None:
            self._disk.close()

    def __len__(self) -> int:
        return len(self._entries)


def _rebind(
    compiled: CompiledKernel, program: Program, opt: OptSetting
) -> CompiledKernel:
    """A cached kernel under the requesting program's id and setting."""
    if compiled.program_id == program.program_id and compiled.opt == opt:
        return compiled
    return replace(compiled, program_id=program.program_id, opt=opt)


def _unpickle(blob: Optional[bytes]) -> Optional[CompiledKernel]:
    """A stored blob back to its kernel; ``None`` when absent or corrupt."""
    if blob is None:
        return None
    try:
        compiled = pickle.loads(blob)
    except Exception:  # corrupt bytes can raise almost any type: recompile
        return None
    return compiled if isinstance(compiled, CompiledKernel) else None
