"""Random program generation.

Produces :class:`repro.ir.program.Program` objects shaped like the paper's
figures: a ``compute`` kernel with the canonical Varity signature
(``comp``, ``var_1``, ``var_2…var_N``), straight-line accumulator updates,
an optional ``if`` guard, optional (possibly nested) ``var_1``-bounded
loops with array writes, and math-library calls.  Generation is correct by
construction (every program passes :func:`repro.ir.validate.validate_kernel`)
and fully determined by ``(config, seed)``.

Everything a draw needs that depends on the config alone (the grammar's
draw tables, the literal exponent range and suffix, each math function's
arity) is derived once, when the generator is built; a generator then
draws from those for every program.  Configure a
:class:`~repro.varity.config.GeneratorConfig` completely before building
a generator from it: changing it afterwards does not reach the tables.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.errors import GenerationError
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
    For,
    If,
    Stmt,
    UnOp,
    VarRef,
)
from repro.ir.program import Kernel, Param, Program
from repro.ir.types import IRType
from repro.ir.validate import validate_kernel
from repro.utils.hashing import absorb
from repro.utils.rng import derive_seed
from repro.varity.config import GeneratorConfig

__all__ = ["ProgramGenerator"]

_LOOP_VARS = ("i", "j", "k")


class _GenState:
    """Names visible while generating one program."""

    def __init__(self) -> None:
        self.float_scalars: List[str] = ["comp"]
        self.arrays: List[str] = []
        self.loop_stack: List[str] = []
        self.tmp_counter: int = 0

    def fresh_tmp(self) -> str:
        self.tmp_counter += 1
        return f"tmp_{self.tmp_counter}"


class ProgramGenerator:
    """Generates random Varity-style programs."""

    def __init__(self, config: Optional[GeneratorConfig] = None) -> None:
        from repro.devices.mathlib.base import BINARY_FUNCTIONS

        self.config = cfg = config or GeneratorConfig()
        cfg.validate()
        self._tables = cfg.grammar.draw_tables()
        self._arity: Dict[str, int] = {
            func: 2 if func in BINARY_FUNCTIONS else 1 for func in cfg.grammar.math_functions
        }
        self._literal_exponents = cfg.literal_exponent_range
        self._literal_suffix = cfg.fptype.literal_suffix

    # ------------------------------------------------------------------ API
    def generate(self, seed: int, program_id: Optional[str] = None) -> Program:
        """Generate one program, deterministically from ``seed``."""
        cfg = self.config
        rng = random.Random(seed)
        state = _GenState()

        params = self._make_signature(rng, state)
        body = self._make_body(rng, state)
        kernel = Kernel(params, body, cfg.fptype)

        pid = program_id or f"prog-{cfg.fptype.value}-{seed & 0xFFFFFFFF:08x}"
        program = Program(program_id=pid, kernel=kernel, seed=seed, source_note="varity")

        issues = validate_kernel(kernel)
        if issues:  # pragma: no cover - correct-by-construction guard
            raise GenerationError(
                f"generated program {pid} failed validation: "
                + "; ".join(str(i) for i in issues[:3])
            )
        return program

    def generate_many(self, root_seed: int, count: int, prefix: str = "prog") -> List[Program]:
        """Generate ``count`` programs with ids ``{prefix}-{fptype}-{index:06d}``."""
        # absorb(derive_seed(r, *a), b) == derive_seed(r, *a, *b)
        seeds = derive_seed(root_seed, "program", self.config.fptype.value)
        out = []
        for index in range(count):
            seed = absorb(seeds, (index,))
            pid = f"{prefix}-{self.config.fptype.value}-{index:06d}"
            out.append(self.generate(seed, program_id=pid))
        return out

    # ------------------------------------------------------------ signature
    def _make_signature(self, rng: random.Random, state: _GenState) -> List[Param]:
        cfg = self.config
        n_float = rng.randint(cfg.min_float_params, cfg.max_float_params)
        params = [Param("comp", IRType.FLOAT), Param("var_1", IRType.INT)]
        # Arrays only make sense inside loops; decide loops first.
        self._will_have_loop = rng.random() < cfg.grammar.p_loop
        for k in range(n_float):
            name = f"var_{k + 2}"
            if self._will_have_loop and rng.random() < cfg.p_array_param:
                params.append(Param(name, IRType.FLOAT_PTR))
                state.arrays.append(name)
            else:
                params.append(Param(name, IRType.FLOAT))
                state.float_scalars.append(name)
        return params

    # ----------------------------------------------------------------- body
    def _make_body(self, rng: random.Random, state: _GenState) -> List[Stmt]:
        cfg = self.config
        g = cfg.grammar
        stmts: List[Stmt] = []

        if rng.random() < g.p_decl:
            name = state.fresh_tmp()
            stmts.append(Decl(name, self._expr(rng, state, cfg.max_expr_depth)))
            state.float_scalars.append(name)

        n_top = rng.randint(cfg.min_top_statements, cfg.max_top_statements)
        loop_budget = cfg.max_loop_depth if self._will_have_loop else 0
        wrapped_in_if = rng.random() < g.p_if_block

        core: List[Stmt] = []
        made_loop = False
        for _ in range(n_top):
            roll = rng.random()
            if loop_budget > 0 and not made_loop and roll < 0.5:
                core.append(self._loop(rng, state, depth=0))
                made_loop = True
            elif roll < 0.85 or made_loop:
                core.append(self._aug_comp(rng, state))
            else:
                core.append(self._aug_comp(rng, state))
        if loop_budget > 0 and not made_loop:
            core.append(self._loop(rng, state, depth=0))

        if wrapped_in_if:
            stmts.append(If(self._condition(rng, state), core))
        else:
            stmts.extend(core)

        # Guarantee at least one observable accumulator update outside any
        # guard, so the printed value is rarely just the raw input.
        if wrapped_in_if and rng.random() < 0.5:
            stmts.append(self._aug_comp(rng, state))
        return stmts

    def _loop(self, rng: random.Random, state: _GenState, depth: int) -> For:
        cfg = self.config
        var = _LOOP_VARS[depth]
        state.loop_stack.append(var)
        n = rng.randint(cfg.min_block_statements, cfg.max_block_statements)
        body: List[Stmt] = []
        for _ in range(n):
            if state.arrays and rng.random() < 0.45:
                body.append(self._array_assign(rng, state))
            else:
                body.append(self._aug_comp(rng, state))
        if (
            depth + 1 < cfg.max_loop_depth
            and rng.random() < cfg.grammar.p_nested_loop
        ):
            body.append(self._loop(rng, state, depth + 1))
        if not any(isinstance(s, (AugAssign, For)) for s in body):
            body.append(self._aug_comp(rng, state))
        state.loop_stack.pop()
        return For(var, VarRef("var_1"), body)

    def _array_assign(self, rng: random.Random, state: _GenState) -> Assign:
        arr = rng.choice(state.arrays)
        index = VarRef(state.loop_stack[-1])
        return Assign(ArrayRef(arr, index), self._expr(rng, state, self.config.max_expr_depth))

    def _aug_comp(self, rng: random.Random, state: _GenState) -> AugAssign:
        op = self._tables.aug_ops.draw(rng)
        return AugAssign(VarRef("comp"), op, self._expr(rng, state, self.config.max_expr_depth))

    # ---------------------------------------------------------- expressions
    def _expr(self, rng: random.Random, state: _GenState, depth: int) -> Expr:
        if depth <= 0:
            return self._leaf(rng, state)
        production = self._tables.interior.draw(rng)
        if production == "binop":
            op = self._tables.binop_ops.draw(rng)
            return BinOp(op, self._expr(rng, state, depth - 1), self._expr(rng, state, depth - 1))
        if production == "call":
            return self._call(rng, state, depth)
        if production == "unop":
            return UnOp("-", self._expr(rng, state, depth - 1))
        return self._leaf(rng, state)

    def _call(self, rng: random.Random, state: _GenState, depth: int) -> Call:
        func = self._tables.math_functions.draw(rng)
        args = [self._expr(rng, state, depth - 1) for _ in range(self._arity[func])]
        return Call(func, args)

    def _leaf(self, rng: random.Random, state: _GenState) -> Expr:
        choice = self._tables.leaves.draw(rng)
        if choice == "array" and state.arrays and state.loop_stack:
            return ArrayRef(rng.choice(state.arrays), VarRef(state.loop_stack[-1]))
        if choice == "var" or (choice == "array" and (not state.arrays or not state.loop_stack)):
            return VarRef(rng.choice(state.float_scalars))
        return self._literal(rng)

    def _literal(self, rng: random.Random) -> Const:
        lo, hi = self._literal_exponents
        exponent = rng.randint(lo, hi)
        mantissa = rng.uniform(1.0, 9.9999)
        sign = "-" if rng.random() < 0.5 else "+"
        body = f"{mantissa:.{self.config.literal_mantissa_digits}f}"
        suffix = self._literal_suffix
        text = f"{sign}{body}E{exponent}{suffix}" if exponent else f"{sign}{body}{suffix}"
        numeric = float(f"{sign}{body}E{exponent}")
        return Const(numeric, text)

    def _condition(self, rng: random.Random, state: _GenState) -> Expr:
        g = self.config.grammar
        cond: Expr = self._compare(rng, state)
        if rng.random() < g.p_bool_connective:
            other = self._compare(rng, state)
            op = "&&" if rng.random() < 0.5 else "||"
            cond = BoolOp(op, cond, other)
        return cond

    def _compare(self, rng: random.Random, state: _GenState) -> Compare:
        op = self._tables.compare_ops.draw(rng)
        depth = max(1, self.config.max_expr_depth - 1)
        return Compare(op, self._expr(rng, state, depth), self._expr(rng, state, depth))
