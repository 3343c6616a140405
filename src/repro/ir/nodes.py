"""AST node definitions.

Nodes are small frozen-ish dataclasses.  Compiler passes build *new* nodes
rather than mutating (see :class:`repro.ir.visitor.Transformer`), so a
kernel can be compiled at several optimization levels from the same source
IR — the harness relies on that when it compiles one program five ways.

Structural equality: ``==`` on nodes compares by structure with float
constants compared by *bit pattern* (so ``-0.0`` and ``+0.0`` differ and a
NaN constant equals itself), which is the right notion for "did this pass
change the program".

Value numbering: :func:`value_number` gives each node a process-local
structural id — equal ids mean equal structure *and* equal ``Const.text``
spellings, so "have I seen this subtree?" is one dict probe (hash-consing
of the lookup key; Filliâtre & Conchon, "Type-Safe Modular Hash-Consing",
ML Workshop 2006).  The compiler's per-statement pass memo keys on it.
Nodes are never mutated after construction; a node caches its number,
and pickling and copying drop that cache.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.fp.bits import float_to_bits

__all__ = [
    "Node",
    "Expr",
    "Const",
    "IntConst",
    "VarRef",
    "ArrayRef",
    "UnOp",
    "BinOp",
    "FMA",
    "Call",
    "Compare",
    "BoolOp",
    "Stmt",
    "Decl",
    "Assign",
    "AugAssign",
    "For",
    "If",
    "BINARY_OPS",
    "COMPARE_OPS",
    "BOOL_OPS",
    "structurally_equal",
    "value_number",
]

#: Arithmetic operators of the Varity grammar (Table III).
BINARY_OPS = ("+", "-", "*", "/")
#: Comparison operators usable in boolean expressions.
COMPARE_OPS = ("<", "<=", ">", ">=", "==", "!=")
#: Short-circuit boolean connectives.
BOOL_OPS = ("&&", "||")


class Node:
    """Common base for expressions and statements."""

    __slots__ = ()

    def children(self) -> Tuple["Node", ...]:
        """Direct child nodes, in evaluation order."""
        return ()

    def __eq__(self, other: object) -> bool:
        return structurally_equal(self, other) if isinstance(other, Node) else NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        # Hash by type + child hashes + scalar fields; adequate for memo sets.
        return hash((type(self).__name__,) + tuple(hash(c) for c in self.children()))

    def __getstate__(self) -> dict:
        # Pickle and copy without the cached value number: a numbered node
        # serializes to the same bytes as before numbering, and a number
        # never reaches another process.
        state = self.__dict__
        if _VN_ATTR in state:
            state = dict(state)
            del state[_VN_ATTR]
        return state


class Expr(Node):
    """Base class of expression nodes."""

    __slots__ = ()


class Stmt(Node):
    """Base class of statement nodes."""

    __slots__ = ()


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(eq=False)
class Const(Expr):
    """A floating-point literal.

    ``text`` is the exact source spelling (Varity format, e.g.
    ``+1.3065E-306``); ``value`` is the double-precision value both real
    compilers would parse from that spelling.  For FP32 kernels the
    interpreter narrows at evaluation time, matching an ``F``-suffixed
    literal.
    """

    value: float
    text: Optional[str] = None

    def children(self) -> Tuple[Node, ...]:
        return ()

    def __hash__(self) -> int:
        return hash(("Const", float_to_bits(self.value)))

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


@dataclass(eq=False)
class IntConst(Expr):
    """An integer literal (loop bounds, array indices)."""

    value: int

    def __hash__(self) -> int:
        return hash(("IntConst", self.value))

    def __repr__(self) -> str:
        return f"IntConst({self.value})"


@dataclass(eq=False)
class VarRef(Expr):
    """Reference to a scalar variable or parameter by name."""

    name: str

    def __hash__(self) -> int:
        return hash(("VarRef", self.name))

    def __repr__(self) -> str:
        return f"VarRef({self.name!r})"


@dataclass(eq=False)
class ArrayRef(Expr):
    """``name[index]`` — array parameter element access."""

    name: str
    index: Expr

    def children(self) -> Tuple[Node, ...]:
        return (self.index,)

    def __hash__(self) -> int:
        return hash(("ArrayRef", self.name, hash(self.index)))

    def __repr__(self) -> str:
        return f"ArrayRef({self.name!r}, {self.index!r})"


@dataclass(eq=False)
class UnOp(Expr):
    """Unary ``+`` or ``-``."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in ("+", "-"):
            raise ValueError(f"bad unary operator {self.op!r}")

    def children(self) -> Tuple[Node, ...]:
        return (self.operand,)

    def __hash__(self) -> int:
        return hash(("UnOp", self.op, hash(self.operand)))


@dataclass(eq=False)
class BinOp(Expr):
    """Binary arithmetic: one of ``+ - * /`` (Table III)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"bad binary operator {self.op!r}")

    def children(self) -> Tuple[Node, ...]:
        return (self.left, self.right)

    def __hash__(self) -> int:
        return hash(("BinOp", self.op, hash(self.left), hash(self.right)))

    def __repr__(self) -> str:
        return f"BinOp({self.op!r}, {self.left!r}, {self.right!r})"


@dataclass(eq=False)
class FMA(Expr):
    """Fused multiply-add ``fma(a, b, c) = round(a*b + c)``.

    Never produced by the generator — only by the FMA-contraction compiler
    pass (divergence mechanism 2: the two compilers contract different
    multiply-add shapes).  ``negate_product`` encodes the ``c - a*b``
    contraction (fused multiply-subtract-reverse).
    """

    a: Expr
    b: Expr
    c: Expr
    negate_product: bool = False

    def children(self) -> Tuple[Node, ...]:
        return (self.a, self.b, self.c)

    def __hash__(self) -> int:
        return hash(("FMA", self.negate_product, hash(self.a), hash(self.b), hash(self.c)))


@dataclass(eq=False)
class Call(Expr):
    """Math-library call, e.g. ``cos(x)`` / ``cosf(x)``.

    ``func`` is the *base* name (``cos``); the FP32 ``f`` suffix is applied
    by codegen from the kernel precision, as Varity does.  ``variant``
    distinguishes library resolution paths:

    * ``"default"`` — the vendor's standard implementation;
    * ``"approx"`` — fast-math approximate intrinsic (``__cosf``-class),
      substituted by the fast-math compiler pass for FP32;
    * ``"hipify"`` — resolved through the HIPIFY compatibility wrapper
      (one extra modeled rounding; divergence mechanism 5).
    """

    func: str
    args: Tuple[Expr, ...]
    variant: str = "default"

    def __init__(self, func: str, args: Sequence[Expr], variant: str = "default") -> None:
        self.func = func
        self.args = tuple(args)
        self.variant = variant

    def children(self) -> Tuple[Node, ...]:
        return self.args

    def __hash__(self) -> int:
        return hash(("Call", self.func, self.variant) + tuple(hash(a) for a in self.args))

    def __repr__(self) -> str:
        v = "" if self.variant == "default" else f", variant={self.variant!r}"
        return f"Call({self.func!r}, {list(self.args)!r}{v})"


@dataclass(eq=False)
class Compare(Expr):
    """Comparison producing a boolean (used by ``if`` conditions)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in COMPARE_OPS:
            raise ValueError(f"bad comparison operator {self.op!r}")

    def children(self) -> Tuple[Node, ...]:
        return (self.left, self.right)

    def __hash__(self) -> int:
        return hash(("Compare", self.op, hash(self.left), hash(self.right)))


@dataclass(eq=False)
class BoolOp(Expr):
    """Short-circuit ``&&`` / ``||`` of two boolean expressions."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BOOL_OPS:
            raise ValueError(f"bad boolean operator {self.op!r}")

    def children(self) -> Tuple[Node, ...]:
        return (self.left, self.right)

    def __hash__(self) -> int:
        return hash(("BoolOp", self.op, hash(self.left), hash(self.right)))


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass(eq=False)
class Decl(Stmt):
    """Local declaration with initializer: ``double tmp_1 = <expr>;``."""

    name: str
    init: Expr

    def children(self) -> Tuple[Node, ...]:
        return (self.init,)

    def __hash__(self) -> int:
        return hash(("Decl", self.name, hash(self.init)))


@dataclass(eq=False)
class Assign(Stmt):
    """Plain assignment to a scalar or array element."""

    target: Union[VarRef, ArrayRef]
    expr: Expr

    def children(self) -> Tuple[Node, ...]:
        return (self.target, self.expr)

    def __hash__(self) -> int:
        return hash(("Assign", hash(self.target), hash(self.expr)))


@dataclass(eq=False)
class AugAssign(Stmt):
    """Compound assignment ``target op= expr`` (Varity's accumulator idiom)."""

    target: Union[VarRef, ArrayRef]
    op: str
    expr: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"bad compound-assignment operator {self.op!r}")

    def children(self) -> Tuple[Node, ...]:
        return (self.target, self.expr)

    def __hash__(self) -> int:
        return hash(("AugAssign", self.op, hash(self.target), hash(self.expr)))


@dataclass(eq=False)
class For(Stmt):
    """``for (int i = 0; i < <bound>; ++i) { body }``.

    ``bound`` is an expression evaluating to an int (in generated programs
    always a reference to the ``var_1`` parameter or an ``IntConst``).
    """

    var: str
    bound: Expr
    body: Tuple[Stmt, ...]

    def __init__(self, var: str, bound: Expr, body: Sequence[Stmt]) -> None:
        self.var = var
        self.bound = bound
        self.body = tuple(body)

    def children(self) -> Tuple[Node, ...]:
        return (self.bound,) + self.body

    def __hash__(self) -> int:
        return hash(("For", self.var, hash(self.bound)) + tuple(hash(s) for s in self.body))


@dataclass(eq=False)
class If(Stmt):
    """``if (<cond>) { body }`` — Varity's grammar has no ``else``."""

    cond: Expr
    body: Tuple[Stmt, ...]

    def __init__(self, cond: Expr, body: Sequence[Stmt]) -> None:
        self.cond = cond
        self.body = tuple(body)

    def children(self) -> Tuple[Node, ...]:
        return (self.cond,) + self.body

    def __hash__(self) -> int:
        return hash(("If", hash(self.cond)) + tuple(hash(s) for s in self.body))


# --------------------------------------------------------------------------
# Structural equality
# --------------------------------------------------------------------------

_SCALAR_FIELDS = {
    "Const": ("value",),
    "IntConst": ("value",),
    "VarRef": ("name",),
    "ArrayRef": ("name",),
    "UnOp": ("op",),
    "BinOp": ("op",),
    "FMA": ("negate_product",),
    "Call": ("func", "variant"),
    "Compare": ("op",),
    "BoolOp": ("op",),
    "Decl": ("name",),
    "Assign": (),
    "AugAssign": ("op",),
    "For": ("var",),
    "If": (),
}


def _scalar_key(node: Node) -> tuple:
    name = type(node).__name__
    fields = _SCALAR_FIELDS.get(name, ())
    key: List[object] = [name]
    for f in fields:
        v = getattr(node, f)
        if isinstance(v, float):
            v = float_to_bits(v)
        key.append(v)
    return tuple(key)


def structurally_equal(a: object, b: object) -> bool:
    """Deep structural comparison with bit-exact float constants."""
    if a is b:
        return True
    if not isinstance(a, Node) or not isinstance(b, Node):
        return False
    if type(a) is not type(b):
        return False
    if _scalar_key(a) != _scalar_key(b):
        return False
    ca, cb = a.children(), b.children()
    if len(ca) != len(cb):
        return False
    return all(structurally_equal(x, y) for x, y in zip(ca, cb))


# --------------------------------------------------------------------------
# Value numbering
# --------------------------------------------------------------------------

#: Interned structures before the table starts over.  A number is never
#: reissued, so starting over only makes later equal structures miss.
VALUE_TABLE_MAX = 1 << 16

_VN_ATTR = "_value_number"
_vn_table: Dict[tuple, int] = {}
_vn_ids = itertools.count()
_pack_double = struct.Struct("<d").pack


def value_number(node: Node) -> int:
    """Structural id of ``node``, cached on the node.

    Two nodes share a number only if they have the same type, the same
    scalar fields (floats by type and bit pattern, so ``-0.0``/``+0.0``,
    NaN payloads and ``1``/``1.0`` stay apart), the same ``Const.text`` —
    which ``==`` ignores — and children with the same numbers.  Ids come
    from one process-wide counter and the intern table is bounded by
    :data:`VALUE_TABLE_MAX`, so eviction can only cause a miss, never a
    shared number for different structures.
    """
    state = node.__dict__
    number = state.get(_VN_ATTR)
    if number is not None:
        return number
    # Names, not classes, in the key: a tuple of atoms only is one the
    # garbage collector stops tracking, so the table costs no GC time.
    cls = type(node)
    key: List[object] = [cls.__name__]
    for name in _VN_FIELDS[cls]:
        v = getattr(node, name)
        key.append((type(v).__name__, _pack_double(v)) if isinstance(v, float) else v)
    for child in node.children():
        key.append(value_number(child))
    frozen = tuple(key)
    number = _vn_table.get(frozen)
    if number is None:
        if len(_vn_table) >= VALUE_TABLE_MAX:
            _vn_table.clear()
        number = _vn_table[frozen] = next(_vn_ids)
    state[_VN_ATTR] = number
    return number


#: Scalar fields per node type: those ``==`` compares, plus ``Const.text``.
#: A node type missing here fails loudly instead of sharing numbers.
_VN_FIELDS: Dict[type, Tuple[str, ...]] = {
    cls: _SCALAR_FIELDS[cls.__name__] + (("text",) if cls is Const else ())
    for cls in (Const, IntConst, VarRef, ArrayRef, UnOp, BinOp, FMA, Call,
                Compare, BoolOp, Decl, Assign, AugAssign, For, If)
}
