"""Grammar-feature coverage — "under-covered region" as a measurable set.

The search strategy needs a dense reward where raw discrepancies are
sparse.  This module extracts a deterministic *feature set* from a typed
IR kernel — the same grammar dimensions the Varity generator samples —
so "this mutant reached a program shape the session has not seen" is a
set-membership fact, not a vibe:

* ``op:<⊕>`` / ``cmp:<⋈>`` / ``bool:<∧>`` — operators used;
* ``call:<f>`` and ``call:<f>:<variant>`` — math functions (and their
  non-default resolution variants: ``approx``, ``hipify``);
* ``call-depth:<d>`` — deepest call nesting (``d`` capped at 3: beyond
  that the numerical mechanism is the same, so deeper nests should not
  mint fresh reward forever);
* ``loop-depth:<d>`` / ``guard:if`` / ``shape:if-in-for`` /
  ``shape:for-in-if`` — control shape (loop depth capped at 3, the
  generator's own nesting limit);
* ``expr-depth:<d>`` — deepest expression tree (capped at 6);
* ``lit-exp:<bucket>`` — literal exponent decile buckets (eight-decade
  bins over the kernel precision's literal range, plus ``zero``), the
  axis the const-perturb mutator walks;
* ``fma`` / ``demote`` / ``array`` / ``augassign`` — node classes with
  their own divergence mechanisms;
* ``fptype:<p>`` — the kernel precision.

Extraction is **total**: any structurally valid kernel (and any mutant
the engine's validator admits) yields a feature set without raising —
pinned by a hypothesis property test.  Unknown node types contribute a
``node:<ClassName>`` feature rather than an error, so a future IR node
degrades coverage resolution, never the session.

:class:`CoverageTracker` accumulates the union over a session.  Its one
reward-facing query — :meth:`CoverageTracker.observe` returning the
number of *new* features — is deterministic and order-dependent only on
the committed iteration order, which is exactly the order the engine
calls it in at every worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.fp.types import FPType
from repro.ir.nodes import (
    ArrayRef,
    Assign,
    AugAssign,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Const,
    Decl,
    Expr,
    FMA,
    For,
    If,
    Node,
    Stmt,
    UnOp,
)
from repro.ir.program import Kernel

__all__ = ["kernel_features", "CoverageTracker"]

#: Caps keep the feature space finite: depth-k chains must saturate the
#: map eventually, or coverage reward would never dry up and the search
#: could farm it by nesting forever.
MAX_CALL_DEPTH = 3
MAX_LOOP_DEPTH = 3
MAX_EXPR_DEPTH = 6

#: Literal exponents are bucketed in eight-decade bins (``-320..306`` for
#: fp64 is ~79 buckets unbinned — too fine to ever saturate; too coarse
#: loses the subnormal/huge distinction the input classes care about).
LITERAL_BUCKET_DECADES = 8


def _literal_bucket(value: float) -> str:
    """Deterministic exponent bucket for one literal value."""
    if value == 0.0:
        return "zero"
    mag = abs(value)
    if math.isinf(mag):
        return "inf"
    if math.isnan(mag):
        return "nan"
    exp = math.floor(math.log10(mag))
    lo = (exp // LITERAL_BUCKET_DECADES) * LITERAL_BUCKET_DECADES
    return f"e{lo}..{lo + LITERAL_BUCKET_DECADES - 1}"


def _expr_features(
    expr: object, out: Set[str], call_depth: int, expr_depth: int
) -> Tuple[int, int]:
    """Tally one expression tree; returns (max call depth, max expr depth)."""
    max_call, max_expr = call_depth, expr_depth
    if isinstance(expr, BinOp):
        out.add(f"op:{expr.op}")
    elif isinstance(expr, UnOp):
        out.add(f"op:unary{expr.op}")
    elif isinstance(expr, Compare):
        out.add(f"cmp:{expr.op}")
    elif isinstance(expr, BoolOp):
        out.add(f"bool:{expr.op}")
    elif isinstance(expr, Call):
        out.add(f"call:{expr.func}")
        if expr.variant != "default":
            out.add(f"call:{expr.func}:{expr.variant}")
        call_depth = min(call_depth + 1, MAX_CALL_DEPTH)
        max_call = max(max_call, call_depth)
    elif isinstance(expr, FMA):
        out.add("fma")
    elif isinstance(expr, Const):
        out.add(f"lit-exp:{_literal_bucket(expr.value)}")
    elif isinstance(expr, ArrayRef):
        out.add("array")
    elif not isinstance(expr, Node):
        return max_call, max_expr
    elif not isinstance(expr, Expr):
        out.add(f"node:{type(expr).__name__}")
    children = expr.children() if isinstance(expr, Node) else ()
    for child in children:
        c, e = _expr_features(
            child, out, call_depth, min(expr_depth + 1, MAX_EXPR_DEPTH)
        )
        max_call = max(max_call, c)
        max_expr = max(max_expr, e)
    return max_call, max_expr


def _stmt_features(
    stmts: Iterable[object], out: Set[str], loop_depth: int, in_if: bool
) -> Tuple[int, int, int]:
    """Tally a statement list; returns (call depth, expr depth, loop depth)."""
    max_call = max_expr = 0
    max_loop = loop_depth
    for stmt in stmts:
        exprs: Tuple[object, ...] = ()
        if isinstance(stmt, Decl):
            exprs = (stmt.init,)
        elif isinstance(stmt, Assign):
            exprs = (stmt.target, stmt.expr)
        elif isinstance(stmt, AugAssign):
            out.add("augassign")
            out.add(f"op:{stmt.op}")
            exprs = (stmt.target, stmt.expr)
        elif isinstance(stmt, For):
            out.add("loop")
            depth = min(loop_depth + 1, MAX_LOOP_DEPTH)
            if in_if:
                out.add("shape:for-in-if")
            c, e, l = _stmt_features(stmt.body, out, depth, in_if)
            max_call, max_expr = max(max_call, c), max(max_expr, e)
            max_loop = max(max_loop, l, depth)
            exprs = (stmt.bound,)
        elif isinstance(stmt, If):
            out.add("guard:if")
            if loop_depth:
                out.add("shape:if-in-for")
            c, e, l = _stmt_features(stmt.body, out, loop_depth, True)
            max_call, max_expr = max(max_call, c), max(max_expr, e)
            max_loop = max(max_loop, l)
            exprs = (stmt.cond,)
        elif isinstance(stmt, Node):
            out.add(f"node:{type(stmt).__name__}")
            exprs = tuple(stmt.children())
        for expr in exprs:
            c, e = _expr_features(expr, out, 0, 1)
            max_call, max_expr = max(max_call, c), max(max_expr, e)
    return max_call, max_expr, max_loop


def kernel_features(kernel: Kernel) -> FrozenSet[str]:
    """The deterministic grammar-feature set of one kernel.

    Total over valid kernels: never raises, always returns at least the
    precision and depth features.
    """
    out: Set[str] = set()
    fptype = kernel.fptype
    out.add(f"fptype:{fptype.value if isinstance(fptype, FPType) else fptype}")
    max_call, max_expr, max_loop = _stmt_features(kernel.body, out, 0, False)
    out.add(f"call-depth:{max_call}")
    out.add(f"expr-depth:{max_expr}")
    out.add(f"loop-depth:{max_loop}")
    return frozenset(out)


@dataclass
class CoverageTracker:
    """Session-cumulative feature coverage.

    ``counts`` tallies how many observed programs carried each feature
    (the ``--coverage-report`` histogram); novelty reads only the *set*
    of seen features, so replaying recorded rewards on resume never
    depends on the counts.
    """

    counts: Dict[str, int] = field(default_factory=dict)
    programs_observed: int = 0

    @property
    def seen(self) -> Set[str]:
        return set(self.counts)

    def observe(self, features: FrozenSet[str]) -> int:
        """Fold one program's features in; returns how many were new."""
        new = 0
        for feature in sorted(features):
            if feature not in self.counts:
                new += 1
                self.counts[feature] = 0
            self.counts[feature] += 1
        self.programs_observed += 1
        return new

    def as_dict(self) -> Dict[str, object]:
        return {
            "features": len(self.counts),
            "programs_observed": self.programs_observed,
            "counts": dict(sorted(self.counts.items())),
        }
