"""Production weights of the program grammar.

Table III of the paper describes the program family; the exact production
probabilities are Varity implementation details, so they are exposed here
as a tunable dataclass with defaults calibrated to produce programs shaped
like the paper's figures (Figs. 2, 4, 6): a handful of statements, an
``if`` guard, a ``var_1``-bounded loop, one or two math calls, heavy use of
the accumulator idiom ``comp += …``.

A generator does not draw from these dicts directly: it builds one
:class:`DrawTable` per weight table when it is constructed (see
:meth:`GrammarWeights.draw_tables`) and draws from those for every
program it makes.  Change a ``GrammarWeights`` before building a
generator from it, never after: the tables are not rebuilt.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, NamedTuple, Tuple

__all__ = ["DrawTable", "GrammarTables", "GrammarWeights"]


def _normalized(weights: Dict[str, float]) -> Dict[str, float]:
    total = sum(weights.values())
    if total <= 0:
        raise ValueError("weights must have positive total")
    return {k: v / total for k, v in weights.items()}


class DrawTable:
    """A weight table prepared once for many weighted draws.

    :meth:`draw` is the body of ``rng.choices(names, weights=weights,
    k=1)[0]`` (CPython 3.9-3.12) with the cumulative weights, their float
    total and the bisection bound computed up front: it makes the same
    single ``rng.random()`` call and returns the same name.
    """

    __slots__ = ("names", "cum", "total", "hi")

    def __init__(self, weights: Dict[str, float]) -> None:
        self.names: Tuple[str, ...] = tuple(weights)
        self.cum = list(accumulate(weights.values()))
        self.total = self.cum[-1] + 0.0
        self.hi = len(self.names) - 1

    def draw(self, rng: random.Random) -> str:
        return self.names[bisect_right(self.cum, rng.random() * self.total, 0, self.hi)]


class GrammarTables(NamedTuple):
    """The draw tables of one :class:`GrammarWeights`."""

    interior: DrawTable
    binop_ops: DrawTable
    aug_ops: DrawTable
    leaves: DrawTable
    compare_ops: DrawTable
    math_functions: DrawTable


@dataclass
class GrammarWeights:
    """Probabilities steering random program structure."""

    # -- statement mix (top level) -------------------------------------------
    p_if_block: float = 0.55
    p_loop: float = 0.70
    p_nested_loop: float = 0.25  # probability an inner loop nests once more
    p_decl: float = 0.60  # probability of at least one temporary

    # -- expression interior productions ---------------------------------------
    expr_interior: Dict[str, float] = field(
        default_factory=lambda: {
            "binop": 0.58,
            "call": 0.24,
            "unop": 0.06,
            "leaf": 0.12,
        }
    )
    binop_ops: Dict[str, float] = field(
        default_factory=lambda: {"+": 0.30, "-": 0.25, "*": 0.25, "/": 0.20}
    )
    #: accumulator statement operator mix (comp ?= expr)
    aug_ops: Dict[str, float] = field(
        default_factory=lambda: {"+": 0.70, "-": 0.20, "*": 0.10}
    )
    expr_leaves: Dict[str, float] = field(
        default_factory=lambda: {"const": 0.40, "var": 0.45, "array": 0.15}
    )
    compare_ops: Dict[str, float] = field(
        default_factory=lambda: {
            "<": 0.2, "<=": 0.15, ">": 0.2, ">=": 0.25, "==": 0.15, "!=": 0.05,
        }
    )
    p_bool_connective: float = 0.15  # cond is `a && b` / `a || b`

    #: math functions the generator may emit, with weights; the default mix
    #: leans on the functions the paper's case studies exercise.
    math_functions: Dict[str, float] = field(
        default_factory=lambda: {
            "cos": 1.0,
            "sin": 1.0,
            "tan": 0.4,
            "exp": 0.8,
            "log": 0.8,
            "sqrt": 1.2,
            "cosh": 0.6,
            "sinh": 0.4,
            "tanh": 0.4,
            "fabs": 0.8,
            "ceil": 0.7,
            "floor": 0.5,
            "fmod": 0.9,
            "pow": 0.5,
            "fmin": 0.3,
            "fmax": 0.3,
            "atan": 0.3,
            "asin": 0.2,
            "acos": 0.2,
            "log10": 0.3,
            "exp2": 0.2,
        }
    )

    def draw_tables(self) -> GrammarTables:
        """Every weight table as a :class:`DrawTable`, built now.

        The interior and leaf productions are normalized first, as the
        generator has always drawn them.
        """
        return GrammarTables(
            interior=DrawTable(_normalized(self.expr_interior)),
            binop_ops=DrawTable(self.binop_ops),
            aug_ops=DrawTable(self.aug_ops),
            leaves=DrawTable(_normalized(self.expr_leaves)),
            compare_ops=DrawTable(self.compare_ops),
            math_functions=DrawTable(self.math_functions),
        )

    def validate(self) -> None:
        for name, table in (
            ("expr_interior", self.expr_interior),
            ("binop_ops", self.binop_ops),
            ("aug_ops", self.aug_ops),
            ("expr_leaves", self.expr_leaves),
            ("compare_ops", self.compare_ops),
            ("math_functions", self.math_functions),
        ):
            if not table:
                raise ValueError(f"{name} is empty")
            if any(w < 0 for w in table.values()):
                raise ValueError(f"{name} has negative weights")
            if sum(table.values()) <= 0:
                raise ValueError(f"{name} weights sum to zero")
        for p_name in ("p_if_block", "p_loop", "p_nested_loop", "p_decl", "p_bool_connective"):
            p = getattr(self, p_name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{p_name} must be a probability, got {p}")
