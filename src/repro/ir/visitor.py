"""Visitors and transformers over the IR.

``Visitor`` is a read-only dispatch walk; ``Transformer`` rebuilds the tree
bottom-up, returning new nodes where a ``visit_X`` hook changed something
and reusing original nodes elsewhere (cheap structural sharing — compiler
passes over thousands of programs rely on not copying unchanged subtrees).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Sequence, TypeVar

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
    IntConst,
    Node,
    Stmt,
    UnOp,
    VarRef,
)

__all__ = ["Visitor", "Transformer", "walk", "collect"]

T = TypeVar("T")


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all descendants, pre-order."""
    stack: List[Node] = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(current.children()))


def collect(node: Node, predicate: Callable[[Node], bool]) -> List[Node]:
    """All descendants (including ``node``) satisfying ``predicate``."""
    return [n for n in walk(node) if predicate(n)]


class Visitor:
    """Dispatching read-only visitor.

    Subclasses define ``visit_<ClassName>`` methods; unhandled nodes fall
    through to :meth:`generic_visit`, which recurses into children.
    """

    def visit(self, node: Node) -> None:
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            method(node)
        else:
            self.generic_visit(node)

    def generic_visit(self, node: Node) -> None:
        for child in node.children():
            self.visit(child)


class Transformer:
    """Bottom-up rebuilding transformer.

    Hooks are ``visit_<ClassName>(self, node)`` and receive a node whose
    children have ALREADY been transformed; they return a replacement node
    (or the same node to keep it).  Statement hooks may also return a list
    of statements (to expand) or ``None`` (to delete the statement) when
    invoked via :meth:`transform_body`.

    Hooks are class-level: each subclass builds its ``{node class: hook}``
    table once, when it is defined, so a hook set on an instance or added
    to the class afterwards is never called.
    """

    _hooks: Dict[type, Callable] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._hooks = {}
        for node_type in (*Expr.__subclasses__(), *Stmt.__subclasses__()):
            hook = getattr(cls, f"visit_{node_type.__name__}", None)
            if hook is not None:
                cls._hooks[node_type] = hook

    # -- expression dispatch --------------------------------------------------
    def transform_expr(self, node: Expr) -> Expr:
        rebuilt = self._rebuild_expr(node)
        hook = self._hooks.get(type(rebuilt))
        if hook is not None:
            result = hook(self, rebuilt)
            if result is None:
                raise TypeError(
                    f"expression hook visit_{type(rebuilt).__name__} returned None"
                )
            return result
        return rebuilt

    def _rebuild_expr(self, node: Expr) -> Expr:
        if isinstance(node, (Const, IntConst, VarRef)):
            return node
        if isinstance(node, ArrayRef):
            index = self.transform_expr(node.index)
            return node if index is node.index else ArrayRef(node.name, index)
        if isinstance(node, UnOp):
            operand = self.transform_expr(node.operand)
            return node if operand is node.operand else UnOp(node.op, operand)
        if isinstance(node, BinOp):
            left = self.transform_expr(node.left)
            right = self.transform_expr(node.right)
            if left is node.left and right is node.right:
                return node
            return BinOp(node.op, left, right)
        if isinstance(node, FMA):
            a = self.transform_expr(node.a)
            b = self.transform_expr(node.b)
            c = self.transform_expr(node.c)
            if a is node.a and b is node.b and c is node.c:
                return node
            return FMA(a, b, c, node.negate_product)
        if isinstance(node, Call):
            args = tuple(self.transform_expr(a) for a in node.args)
            if all(x is y for x, y in zip(args, node.args)):
                return node
            return Call(node.func, args, node.variant)
        if isinstance(node, Compare):
            left = self.transform_expr(node.left)
            right = self.transform_expr(node.right)
            if left is node.left and right is node.right:
                return node
            return Compare(node.op, left, right)
        if isinstance(node, BoolOp):
            left = self.transform_expr(node.left)
            right = self.transform_expr(node.right)
            if left is node.left and right is node.right:
                return node
            return BoolOp(node.op, left, right)
        raise TypeError(f"unknown expression node {type(node).__name__}")

    # -- statement dispatch ---------------------------------------------------
    def transform_stmt(self, stmt: Stmt):
        """Transform one statement; may return Stmt, list of Stmt, or None."""
        rebuilt = self._rebuild_stmt(stmt)
        hook = self._hooks.get(type(rebuilt))
        if hook is not None:
            return hook(self, rebuilt)
        return rebuilt

    def _rebuild_stmt(self, stmt: Stmt) -> Stmt:
        if isinstance(stmt, Decl):
            init = self.transform_expr(stmt.init)
            return stmt if init is stmt.init else Decl(stmt.name, init)
        if isinstance(stmt, Assign):
            target = self.transform_expr(stmt.target)
            expr = self.transform_expr(stmt.expr)
            if target is stmt.target and expr is stmt.expr:
                return stmt
            return Assign(target, expr)
        if isinstance(stmt, AugAssign):
            target = self.transform_expr(stmt.target)
            expr = self.transform_expr(stmt.expr)
            if target is stmt.target and expr is stmt.expr:
                return stmt
            return AugAssign(target, stmt.op, expr)
        if isinstance(stmt, For):
            bound = self.transform_expr(stmt.bound)
            body = self.transform_body(stmt.body)
            if bound is stmt.bound and len(body) == len(stmt.body) and all(
                x is y for x, y in zip(body, stmt.body)
            ):
                return stmt
            return For(stmt.var, bound, body)
        if isinstance(stmt, If):
            cond = self.transform_expr(stmt.cond)
            body = self.transform_body(stmt.body)
            if cond is stmt.cond and len(body) == len(stmt.body) and all(
                x is y for x, y in zip(body, stmt.body)
            ):
                return stmt
            return If(cond, body)
        raise TypeError(f"unknown statement node {type(stmt).__name__}")

    def transform_body(self, body: Sequence[Stmt]) -> List[Stmt]:
        out: List[Stmt] = []
        for stmt in body:
            result = self.transform_stmt(stmt)
            if result is None:
                continue
            if isinstance(result, list):
                out.extend(result)
            else:
                out.append(result)
        return out
