"""Fast-math reassociation (nvcc model only).

``-use_fast_math`` permits value-unsafe reassociation of floating-point
addition/multiplication chains.  The nvcc model rebuilds chains of three
or more ``+`` (or ``*``) terms into a balanced tree — the association a
GPU backend favours for instruction-level parallelism — while the hipcc
model (``-DHIP_FAST_MATH``) leaves source association alone.  Different
association ⇒ different intermediate roundings ⇒ divergence on a
value-dependent subset: divergence mechanism 3 (fast-math value-unsafe
rewrites) and the reason the
paper's O3_FM rows exceed O3.
"""

from __future__ import annotations

from typing import List

from repro.fp.types import FPType
from repro.ir.nodes import BinOp, Expr
from repro.ir.visitor import Transformer
from repro.compilers.passes.base import Pass

__all__ = ["Reassociation"]


def _collect_chain(expr: Expr, op: str, terms: List[Expr]) -> None:
    """Flatten a same-operator chain (left-spine and right-spine)."""
    if isinstance(expr, BinOp) and expr.op == op:
        _collect_chain(expr.left, op, terms)
        _collect_chain(expr.right, op, terms)
    else:
        terms.append(expr)


def _balanced(terms: List[Expr], op: str) -> Expr:
    """Build a balanced binary tree over ``terms`` (pairwise reduction)."""
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    return BinOp(op, _balanced(terms[:mid], op), _balanced(terms[mid:], op))


class _Reassociator(Transformer):
    def __init__(self) -> None:
        self.n_changed = 0

    def _maybe_rebuild(self, node: BinOp) -> Expr:
        terms: List[Expr] = []
        _collect_chain(node, node.op, terms)
        if len(terms) < 3:
            return node
        rebuilt = _balanced(terms, node.op)
        if rebuilt == node:
            return node
        self.n_changed += 1
        return rebuilt

    def visit_BinOp(self, node: BinOp) -> Expr:
        if node.op in ("+", "*"):
            # Only rebuild at chain roots: skip if the parent will handle it.
            # Transformer is bottom-up, so inner chain nodes get rebuilt
            # first; rebuilding is idempotent on balanced trees, and the
            # final shape is determined by the outermost rebuild.
            return self._maybe_rebuild(node)
        return node


class Reassociation(Pass):
    """Balance ``+``/``*`` chains of length ≥ 3."""

    name = "fast-reassoc"

    def transformer(self, fptype: FPType) -> Transformer:
        return _Reassociator()
