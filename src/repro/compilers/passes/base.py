"""Pass interface and the per-statement pass memo."""

from __future__ import annotations

import abc
import threading
from collections import Counter, OrderedDict
from typing import List, Optional, Set, Tuple

from repro.fp.types import FPType
from repro.ir.nodes import Stmt, value_number
from repro.ir.program import Kernel
from repro.ir.visitor import Transformer

__all__ = ["Pass"]

#: Memoized (pass, fptype, statement) applications before the least
#: recently used is dropped.
MEMO_MAX = 1 << 14

# (pass key, fptype value, statement value number) -> (output statements,
# or None when the statement came back unchanged; the transformer's count).
# Keys are atoms only, so the garbage collector stops tracking them.
_Entry = Tuple[Optional[Tuple[Stmt, ...]], int]
_memo: "OrderedDict[Tuple[str, str, int], _Entry]" = OrderedDict()
_memo_lock = threading.Lock()
#: hit/miss counts of the memo; only tests read them
_memo_stats: Counter = Counter()


def _clear_memo() -> None:
    """Empty the memo and its counts (for tests comparing cold compiles)."""
    with _memo_lock:
        _memo.clear()
        _memo_stats.clear()


class Pass(abc.ABC):
    """A kernel-to-kernel transformation.

    Passes must be pure: same input kernel → same output kernel, no
    mutation of the input (the harness compiles one program at five
    settings from the same IR).

    A pass supplies a :class:`~repro.ir.visitor.Transformer` whose
    ``n_changed`` counts its rewrites; :meth:`run` drives it one
    top-level statement at a time through a process-wide memo of at most
    :data:`MEMO_MAX` entries keyed by ``(key, fptype, value number of the
    statement)``, so the statements fuzz mutants share with their parent
    (and O3_FM shares with O3) are rewritten once.  The contract a pass
    keeps for that to be sound: its output on one top-level statement is
    a function of :attr:`key`, the fptype and that statement alone, so
    it has expression hooks only, or statement hooks that never read
    neighbouring statements, and its transformer holds no state across
    statements besides the count.
    """

    #: Short identifier recorded in CompiledKernel.passes_applied.
    name: str = "pass"

    @property
    def key(self) -> str:
        """The transformation's identity, parameters included.

        The compiled-artifact cache and the statement memo key on it, so
        two passes with one key must rewrite every kernel identically.
        ``name`` suffices unless a parameter it does not spell changes
        the output.
        """
        return self.name

    @abc.abstractmethod
    def transformer(self, fptype: FPType) -> Transformer:
        """A fresh rewriter for one statement of an ``fptype`` kernel."""

    def applies_to(self, fptype: FPType) -> bool:
        """Whether the pass can change a kernel of this precision."""
        return True

    def run(self, kernel: Kernel) -> Kernel:
        """Return the transformed kernel (the input when nothing counted).

        An uncounted rewrite (constant folding's ``+c → c``) alone leaves
        the input kernel; beside a counted one, both are kept.
        """
        fptype = kernel.fptype
        if not self.applies_to(fptype):
            return kernel
        prefix = (self.key, fptype.value)
        body: List[Stmt] = []
        # ids of the memoized output statements placed in ``body``
        placed: Set[int] = set()
        changed = 0
        for stmt in kernel.body:
            memo_key = prefix + (value_number(stmt),)
            with _memo_lock:
                entry = _memo.get(memo_key)
                if entry is not None:
                    _memo.move_to_end(memo_key)
                _memo_stats["hits" if entry is not None else "misses"] += 1
            if entry is None:
                rewriter = self.transformer(fptype)
                out = rewriter.transform_body((stmt,))
                unchanged = len(out) == 1 and out[0] is stmt
                entry = (None if unchanged else tuple(out), rewriter.n_changed)
                with _memo_lock:
                    _memo[memo_key] = entry
                    while len(_memo) > MEMO_MAX:
                        _memo.popitem(last=False)
            outputs, count = entry
            changed += count
            if outputs is None:
                body.append(stmt)
            elif any(id(s) in placed for s in outputs):
                # An equal statement earlier in this body took these
                # objects; rewrite this one afresh, as a whole-body pass
                # would, so the kernel never holds one statement twice.
                body.extend(self.transformer(fptype).transform_body((stmt,)))
            else:
                placed.update(id(s) for s in outputs)
                body.extend(outputs)
        return kernel.with_body(body) if changed else kernel

    def __repr__(self) -> str:
        return f"<pass {self.name}>"
