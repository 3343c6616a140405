"""Float-site enumeration and targeted single-site rewriting.

A *site* is one float-valued expression position in a kernel body,
identified by its pre-order index among all float sites.  Sites exclude
int contexts (array subscripts, loop bounds) and boolean contexts
(conditions, BoolOp operands), so a replacement expression of float kind
is always well-typed where it lands.

This discipline started life inside the fuzz mutators; the metamorphic
oracle's program transforms need the identical site numbering (a
relation's transformed variant must land exactly where its seeded RNG
chose), so the helpers live here in the IR layer and both subsystems
import them.
"""

from __future__ import annotations

from typing import List, Sequence

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
    Stmt,
    UnOp,
    VarRef,
)

__all__ = ["float_sites", "replace_site"]


def _expr_float_sites(expr: Expr, out: List[Expr]) -> None:
    """Pre-order float-valued positions inside one float-context expr."""
    out.append(expr)
    if isinstance(expr, (Const, IntConst, VarRef)):
        return
    if isinstance(expr, ArrayRef):
        return  # index is int context
    if isinstance(expr, UnOp):
        _expr_float_sites(expr.operand, out)
    elif isinstance(expr, BinOp):
        _expr_float_sites(expr.left, out)
        _expr_float_sites(expr.right, out)
    elif isinstance(expr, FMA):
        for sub in (expr.a, expr.b, expr.c):
            _expr_float_sites(sub, out)
    elif isinstance(expr, Call):
        for a in expr.args:
            _expr_float_sites(a, out)


def _cond_float_sites(cond: Expr, out: List[Expr]) -> None:
    """Float positions inside a boolean expression (Compare operands)."""
    if isinstance(cond, BoolOp):
        _cond_float_sites(cond.left, out)
        _cond_float_sites(cond.right, out)
    elif isinstance(cond, Compare):
        _expr_float_sites(cond.left, out)
        _expr_float_sites(cond.right, out)


def float_sites(body: Sequence[Stmt]) -> List[Expr]:
    """All float-valued expression positions in a body, pre-order."""
    out: List[Expr] = []
    for stmt in body:
        if isinstance(stmt, Decl):
            _expr_float_sites(stmt.init, out)
        elif isinstance(stmt, (Assign, AugAssign)):
            _expr_float_sites(stmt.expr, out)
        elif isinstance(stmt, For):
            out.extend(float_sites(stmt.body))
        elif isinstance(stmt, If):
            _cond_float_sites(stmt.cond, out)
            out.extend(float_sites(stmt.body))
    return out


def _replace_expr(expr: Expr, counter: List[int], target: int, repl: Expr) -> Expr:
    """Rebuild ``expr`` with the ``target``-th float site replaced."""
    index = counter[0]
    counter[0] += 1
    if index == target:
        return repl
    if isinstance(expr, (Const, IntConst, VarRef, ArrayRef)):
        return expr
    if isinstance(expr, UnOp):
        return UnOp(expr.op, _replace_expr(expr.operand, counter, target, repl))
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            _replace_expr(expr.left, counter, target, repl),
            _replace_expr(expr.right, counter, target, repl),
        )
    if isinstance(expr, FMA):
        return FMA(
            _replace_expr(expr.a, counter, target, repl),
            _replace_expr(expr.b, counter, target, repl),
            _replace_expr(expr.c, counter, target, repl),
            expr.negate_product,
        )
    if isinstance(expr, Call):
        return Call(
            expr.func,
            [_replace_expr(a, counter, target, repl) for a in expr.args],
            expr.variant,
        )
    return expr


def _replace_cond(cond: Expr, counter: List[int], target: int, repl: Expr) -> Expr:
    if isinstance(cond, BoolOp):
        return BoolOp(
            cond.op,
            _replace_cond(cond.left, counter, target, repl),
            _replace_cond(cond.right, counter, target, repl),
        )
    if isinstance(cond, Compare):
        return Compare(
            cond.op,
            _replace_expr(cond.left, counter, target, repl),
            _replace_expr(cond.right, counter, target, repl),
        )
    return cond


def replace_site(body: Sequence[Stmt], target: int, repl: Expr) -> List[Stmt]:
    """Body with the ``target``-th float site replaced by ``repl``.

    The counter threads through statements in the same pre-order as
    :func:`float_sites`, so site indices agree between enumeration and
    rewriting.
    """
    counter = [0]

    def rewrite(stmts: Sequence[Stmt]) -> List[Stmt]:
        out: List[Stmt] = []
        for stmt in stmts:
            if isinstance(stmt, Decl):
                out.append(Decl(stmt.name, _replace_expr(stmt.init, counter, target, repl)))
            elif isinstance(stmt, Assign):
                out.append(Assign(stmt.target, _replace_expr(stmt.expr, counter, target, repl)))
            elif isinstance(stmt, AugAssign):
                out.append(
                    AugAssign(stmt.target, stmt.op, _replace_expr(stmt.expr, counter, target, repl))
                )
            elif isinstance(stmt, For):
                out.append(For(stmt.var, stmt.bound, rewrite(stmt.body)))
            elif isinstance(stmt, If):
                cond = _replace_cond(stmt.cond, counter, target, repl)
                out.append(If(cond, rewrite(stmt.body)))
            else:
                out.append(stmt)
        return out

    return rewrite(body)

