"""Metamorphic relations — single-stack numerical oracles.

The differential campaigns only flag a bug when the two vendor stacks
*disagree*; a defect both models share (or one present when only one
toolchain is available) is invisible to them.  A metamorphic relation is
an oracle that needs no second stack: it transforms a program in a way
whose effect on the result is *provable within the model* — exactly
preserved, or preserved within a small ULP budget — executes base and
variant on the SAME platform, and reports a violation when the observed
drift exceeds what the transformation can explain.

Soundness of the shipped bounds (why a violation is a real signal):

* ``mul-one`` — ``e * 1.0`` is exact in IEEE-754, every precision, every
  rounding mode.  Any difference means the stack did something to the
  multiply that is not IEEE multiplication (in the modeled stacks:
  fast-math FTZ flushing a subnormal product that the unwrapped site
  kept — a genuine fast-math hazard, and hipcc's model fires it because
  only nvcc's folds ``x*1`` away before execution).  Multiplies sitting
  in FMA-contractible ``a*b ± c`` positions are excluded as wrap
  targets: there the wrapper changes the contraction shape — a legal
  one-rounding drift that ``fma-rewrite`` budgets, not a defect (see
  :class:`MulOne`).
* ``commute-swap`` — IEEE ``+`` and ``*`` are commutative bit-for-bit
  (NaN payloads are not modeled; ±0 sums agree), and ``fmin``/``fmax``
  are symmetric.  A violation means compilation is *shape-sensitive*:
  the modeled hipcc contracts ``a*b + c`` but not ``c + a*b``, so the
  swap toggles FMA contraction and moves the result — a single-stack
  reading of the paper's contraction-asymmetry mechanism.
* ``fma-rewrite`` — contracting ``a*b ± c`` to a fused operation removes
  one rounding; the two forms agree in outcome class and differ by at
  most a few ULPs *unless* the intermediate rounding was load-bearing
  (cancellation, overflow boundary).  The checker allows
  ``config.ulp_bound`` ULPs of Num/Num drift and flags class flips —
  the cases the paper's Tables V/VII attribute to contraction.
* ``fmod-identity`` — ``fmod(fmod(x, y), y) == fmod(x, y)`` exactly: a
  correct truncated remainder satisfies ``|r| < |y|``, and fmod is the
  identity on in-range arguments in both vendor models.  A violation
  means the inner fmod returned an out-of-range remainder (the classic
  reduction-loop defect class; the paper's Case Study 1 is an fmod
  reduction drift).  The textbook residual identity
  ``fmod(x,y) + y*trunc(x/y) ≈ x`` is deliberately NOT used as the
  check: its inherent slack is ~1 ULP of *x*, which for the interesting
  huge-``x/y`` inputs is astronomically larger than any plausible
  defect in the remainder (below 1 ULP of *y*), so it can never fire.
* ``demote-roundtrip`` — rounding to binary16 is idempotent:
  ``demote(demote(e)) == demote(e)`` for every input, because the first
  result is exactly representable in binary16.  (Idempotence is the
  observable fragment of round-trip *monotonicity*: a monotone rounding
  is necessarily idempotent.)  A violation means the stack's
  ``__half`` conversion double-rounds or otherwise perturbs.
* ``fastmath-flag`` — compiling with and without the fast-math flag may
  legally move a Number by the documented approximation error, but an
  outcome-*class* flip (Num→NaN, Num→Zero, Inf→Num, …) at the same
  optimization level is the paper's own definition of a reportable
  inconsistency, here observed within one stack.  This relation
  transforms nothing: it compares two columns of the base sweep, so it
  costs zero extra runs.

Relations transform the *typed IR* and execute through
``repro.exec.ExecutionService``; variant programs carry content-derived
ids so identical variants (and re-requests of the base) are deduped and
content-cached.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.devices.mathlib.base import DEMOTE_FP16
from repro.exec.content import content_id, content_text
from repro.fp.classify import classify_value
from repro.fp.types import FPType
from repro.fp.ulp import ulp_distance
from repro.harness.outcomes import RunRecord
from repro.harness.runner import PairResult
from repro.ir.nodes import BinOp, Call, Const, Expr, FMA, UnOp
from repro.ir.program import Program
from repro.ir.rewrite import float_sites, replace_site
from repro.varity.testcase import TestCase

__all__ = [
    "RelationViolation",
    "Relation",
    "RELATIONS",
    "RELATION_NAMES",
    "resolve_relations",
]

#: Calls whose argument order is semantically irrelevant (IEEE symmetric).
_SYMMETRIC_CALLS = ("fmin", "fmax")

#: Historical platform keys; kept for callers that predate the stack
#: registry.  Relation checking itself iterates each ``PairResult``'s own
#: :attr:`~repro.harness.runner.PairResult.stacks`, so oracle sessions
#: over any stack pair (``repro-oracle --stacks nvcc,cpu``) attribute
#: violations to the stacks that actually ran.
_PLATFORMS = ("nvcc", "hipcc")


@dataclass(frozen=True)
class RelationViolation:
    """One metamorphic-relation violation on one platform.

    ``base_printed`` / ``variant_printed`` are the two ``%.17g`` results
    the relation says should have agreed (exactly, or within the ULP
    budget); for the ``fastmath-flag`` relation they are the plain-O3 and
    O3_FM results and ``variant`` is the flag label.
    """

    relation: str
    platform: str  # "nvcc" | "hipcc"
    test_id: str
    variant: str
    opt_label: str
    input_index: int
    base_printed: str
    variant_printed: str
    base_outcome: str
    variant_outcome: str
    #: ULP distance for Num/Num violations; None for class flips.
    ulp_distance: Optional[int] = None

    def describe(self) -> str:
        drift = (
            f"{self.ulp_distance} ULPs"
            if self.ulp_distance is not None
            else f"{self.base_outcome}->{self.variant_outcome}"
        )
        return (
            f"{self.relation}[{self.variant}] on {self.platform} "
            f"@ {self.opt_label}#{self.input_index}: {drift} "
            f"({self.base_printed} vs {self.variant_printed})"
        )

    def to_json_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "relation": self.relation,
            "platform": self.platform,
            "test_id": self.test_id,
            "variant": self.variant,
            "opt": self.opt_label,
            "input_index": self.input_index,
            "base": self.base_printed,
            "value": self.variant_printed,
            "base_outcome": self.base_outcome,
            "outcome": self.variant_outcome,
        }
        if self.ulp_distance is not None:
            data["ulps"] = self.ulp_distance
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "RelationViolation":
        return cls(
            relation=str(data["relation"]),
            platform=str(data["platform"]),
            test_id=str(data["test_id"]),
            variant=str(data["variant"]),
            opt_label=str(data["opt"]),
            input_index=int(data["input_index"]),  # type: ignore[arg-type]
            base_printed=str(data["base"]),
            variant_printed=str(data["value"]),
            base_outcome=str(data["base_outcome"]),
            variant_outcome=str(data["outcome"]),
            ulp_distance=int(data["ulps"]) if "ulps" in data else None,  # type: ignore[arg-type]
        )


def _variant_test(base: TestCase, relation: str, label: str, body) -> TestCase:
    """Package a transformed kernel as a runnable test (same inputs).

    The program id is content-derived so the execution service dedupes
    and caches variants by what actually runs, exactly like fuzz mutants.
    """
    kernel = base.program.kernel.with_body(body)
    content = content_text(kernel, base.inputs)
    program = Program(
        program_id=content_id(base.fptype, content, prefix="oracle"),
        kernel=kernel,
        seed=base.program.seed,
        source_note=f"oracle {relation}:{label}",
    )
    return TestCase(program, base.inputs)


class Relation(abc.ABC):
    """One metamorphic relation.

    ``variants`` builds the transformed programs to execute (empty for
    relations that only re-read the base sweep); ``check`` compares the
    executed sweeps platform-by-platform and returns violations.  Site
    choices draw from ``rng`` only, so a relation applied with the same
    seed produces the same variants — the ledger's determinism rests on
    that.
    """

    #: registry name (stable; appears in ledgers and signatures).
    name: str = "abstract"
    doc: str = ""
    #: True = bit-exact equality required; False = the session's Num/Num
    #: ULP budget applies (class flips always violate).
    exact: bool = True
    #: whether :meth:`check` reads the base program's sweep (relations
    #: that only compare variants against each other set this False, and
    #: the engine skips their base request).
    needs_base: bool = True

    @abc.abstractmethod
    def variants(
        self, test: TestCase, rng: random.Random
    ) -> List[Tuple[str, TestCase]]:
        """Transformed (label, test) pairs, or [] when not applicable.

        Relations that compare within the base sweep itself return [];
        their applicability is decided by the engines'
        :func:`repro.oracle.engine.relation_applicable` policy.
        """

    def check(
        self,
        fptype: FPType,
        base: Dict[str, PairResult],
        variants: Dict[str, Dict[str, PairResult]],
        ulp_bound: int,
    ) -> List[RelationViolation]:
        """Default checker: every variant must match the base per
        (platform, opt, input) — exactly, or within ``ulp_bound`` ULPs of
        Num/Num drift for approximate relations."""
        out: List[RelationViolation] = []
        bound = None if self.exact else ulp_bound
        for label, pairs in variants.items():
            out.extend(
                _compare_sweeps(self.name, label, base, pairs, bound, fptype)
            )
        return out


def _records_by_input(pair: PairResult, platform: str) -> Dict[int, RunRecord]:
    """One side's records, addressed by the pair's own stack names."""
    if platform == pair.stacks[0]:
        runs = pair.lhs_runs
    elif platform == pair.stacks[1]:
        runs = pair.rhs_runs
    else:
        runs = []
    return {r.input_index: r for r in runs}


def _compare_records(
    relation: str,
    variant: str,
    base_rec: RunRecord,
    var_rec: RunRecord,
    bound: Optional[int],
    fptype: FPType,
    platform: str,
    opt_label: str,
) -> Optional[RelationViolation]:
    """One (platform, opt, input) cell: equal, within budget, or violation."""
    if base_rec.printed == var_rec.printed:
        return None
    b_cls, v_cls = classify_value(base_rec.value), classify_value(var_rec.value)
    if b_cls is v_cls and b_cls.value == "Num":
        if float(base_rec.value) == float(var_rec.value):
            return None  # -0.0 printed differently can't happen for Num, but be safe
        ulps = ulp_distance(base_rec.value, var_rec.value, fptype)
        if bound is not None and ulps <= bound:
            return None
        return RelationViolation(
            relation=relation,
            platform=platform,
            test_id=base_rec.test_id,
            variant=variant,
            opt_label=opt_label,
            input_index=base_rec.input_index,
            base_printed=base_rec.printed,
            variant_printed=var_rec.printed,
            base_outcome=b_cls.value,
            variant_outcome=v_cls.value,
            ulp_distance=ulps,
        )
    if b_cls is v_cls:
        # Same non-Num class (sign-only NaN/Inf/Zero differences): the
        # paper's rules say not a numerical difference, so not a violation.
        return None
    return RelationViolation(
        relation=relation,
        platform=platform,
        test_id=base_rec.test_id,
        variant=variant,
        opt_label=opt_label,
        input_index=base_rec.input_index,
        base_printed=base_rec.printed,
        variant_printed=var_rec.printed,
        base_outcome=b_cls.value,
        variant_outcome=v_cls.value,
    )


def _compare_sweeps(
    relation: str,
    variant: str,
    base: Dict[str, PairResult],
    var: Dict[str, PairResult],
    bound: Optional[int],
    fptype: FPType,
) -> List[RelationViolation]:
    """Compare two sweeps per (platform, opt, input); skipped inputs on
    either side are not compared (a trap is not a value)."""
    out: List[RelationViolation] = []
    for opt_label, base_pair in base.items():
        var_pair = var.get(opt_label)
        if var_pair is None:
            continue
        for platform in base_pair.stacks:
            base_recs = _records_by_input(base_pair, platform)
            var_recs = _records_by_input(var_pair, platform)
            for idx in sorted(base_recs.keys() & var_recs.keys()):
                v = _compare_records(
                    relation,
                    variant,
                    base_recs[idx],
                    var_recs[idx],
                    bound,
                    fptype,
                    platform,
                    opt_label,
                )
                if v is not None:
                    out.append(v)
    return out


# ---------------------------------------------------------------------------
# Concrete relations
# ---------------------------------------------------------------------------


class FMARewrite(Relation):
    """FMA contraction/expansion equivalence.

    Contracts one ``a*b + c`` / ``a*b - c`` shape into an explicit fused
    node, or — when the kernel already carries FMA nodes (fuzz mutants
    can) — expands one back to the two-rounding form.  The two programs
    must agree in outcome class and within the ULP budget.
    """

    name = "fma-rewrite"
    doc = "contract a*b±c to fused / expand a fused node back"
    exact = False

    def variants(
        self, test: TestCase, rng: random.Random
    ) -> List[Tuple[str, TestCase]]:
        body = test.program.kernel.body
        sites = float_sites(body)
        contractible = [
            i
            for i, e in enumerate(sites)
            if isinstance(e, BinOp)
            and e.op in ("+", "-")
            and isinstance(e.left, BinOp)
            and e.left.op == "*"
        ]
        fused = [i for i, e in enumerate(sites) if isinstance(e, FMA)]
        if not contractible and not fused:
            return []
        if contractible:
            target = rng.choice(contractible)
            node = sites[target]
            assert isinstance(node, BinOp) and isinstance(node.left, BinOp)
            c: Expr = node.right if node.op == "+" else UnOp("-", node.right)
            repl: Expr = FMA(node.left.left, node.left.right, c)
            label = "contract"
        else:
            target = rng.choice(fused)
            node = sites[target]
            assert isinstance(node, FMA)
            prod: Expr = BinOp("*", node.a, node.b)
            if node.negate_product:
                prod = UnOp("-", prod)
            repl = BinOp("+", prod, node.c)
            label = "expand"
        return [(label, _variant_test(test, self.name, label, replace_site(body, target, repl)))]


class DemoteRoundTrip(Relation):
    """Idempotence of the binary16 round trip (``__demote_fp16``).

    Two variants of one site: demoted once, demoted twice.  Rounding is
    idempotent, so the two must agree bit-for-bit on every platform at
    every setting.  Applicable to FP32/FP64 kernels (an FP16 value is
    already binary16).
    """

    name = "demote-roundtrip"
    doc = "demote(e) must equal demote(demote(e)) bit-for-bit"
    exact = True
    needs_base = False

    def variants(
        self, test: TestCase, rng: random.Random
    ) -> List[Tuple[str, TestCase]]:
        if test.fptype is FPType.FP16:
            return []
        body = test.program.kernel.body
        sites = float_sites(body)
        candidates = [
            i
            for i, e in enumerate(sites)
            if not (isinstance(e, Call) and e.func == DEMOTE_FP16)
        ]
        if not candidates:
            return []
        target = rng.choice(candidates)
        site = sites[target]
        once = Call(DEMOTE_FP16, [site])
        twice = Call(DEMOTE_FP16, [Call(DEMOTE_FP16, [site])])
        return [
            ("once", _variant_test(test, self.name, "once", replace_site(body, target, once))),
            ("twice", _variant_test(test, self.name, "twice", replace_site(body, target, twice))),
        ]

    def check(
        self,
        fptype: FPType,
        base: Dict[str, PairResult],
        variants: Dict[str, Dict[str, PairResult]],
        ulp_bound: int,
    ) -> List[RelationViolation]:
        """Compare the two demoted variants against each other (the base
        sweep legitimately differs from both — demotion coarsens)."""
        once = variants.get("once")
        twice = variants.get("twice")
        if once is None or twice is None:
            return []
        return _compare_sweeps(self.name, "twice", once, twice, None, fptype)


class MulOne(Relation):
    """Algebraic identity ``e * 1`` — exact in IEEE arithmetic.

    Site exclusion for soundness: a multiply that is itself an operand
    of ``+``/``-`` sits in an FMA-contractible position, and wrapping it
    changes the *contraction shape* — ``a*b + c`` contracts to
    ``fma(a, b, c)`` (unrounded product) but ``(a*b)*1.0 + c`` to
    ``fma(a*b, 1.0, c)`` (product pre-rounded) — a legal one-rounding
    difference that belongs to ``fma-rewrite``'s ULP budget, not to this
    bit-exact relation.  Every other position is safe: the inserted
    multiply either executes as an exact IEEE ``*1.0`` or contracts to
    ``fma(e, 1.0, c) == round(e + c)``, identical to the unwrapped form.
    """

    name = "mul-one"
    doc = "wrapping a site in (e)*1.0 must not change anything"
    exact = True

    def variants(
        self, test: TestCase, rng: random.Random
    ) -> List[Tuple[str, TestCase]]:
        body = test.program.kernel.body
        sites = float_sites(body)
        contractible_muls = {
            id(e.left)
            for e in sites
            if isinstance(e, BinOp)
            and e.op in ("+", "-")
            and isinstance(e.left, BinOp)
            and e.left.op == "*"
        } | {
            id(e.right)
            for e in sites
            if isinstance(e, BinOp)
            and e.op in ("+", "-")
            and isinstance(e.right, BinOp)
            and e.right.op == "*"
        }
        candidates = [i for i, e in enumerate(sites) if id(e) not in contractible_muls]
        if not candidates:
            return []
        target = rng.choice(candidates)
        one = Const(1.0, None)
        repl = BinOp("*", sites[target], one)
        return [("x*1", _variant_test(test, self.name, "x*1", replace_site(body, target, repl)))]


class FmodIdentity(Relation):
    """Remainder-range identity: ``fmod(fmod(x, y), y) == fmod(x, y)``.

    Exact for any correct fmod (|r| < |y| and fmod is the identity on
    in-range arguments); fires when a reduction loop returns an
    out-of-range remainder.  See the module docstring for why this form
    is used instead of the slack-swamped residual identity.
    """

    name = "fmod-identity"
    doc = "fmod must be idempotent in its second argument"
    exact = True

    def variants(
        self, test: TestCase, rng: random.Random
    ) -> List[Tuple[str, TestCase]]:
        body = test.program.kernel.body
        sites = float_sites(body)
        fmods = [
            i
            for i, e in enumerate(sites)
            if isinstance(e, Call) and e.func == "fmod" and len(e.args) == 2
        ]
        if not fmods:
            return []
        target = rng.choice(fmods)
        call = sites[target]
        assert isinstance(call, Call)
        repl = Call("fmod", [call, call.args[1]], call.variant)
        return [
            ("refmod", _variant_test(test, self.name, "refmod", replace_site(body, target, repl)))
        ]


class CommuteSwap(Relation):
    """Operand-order invariance of commutative operations.

    Swaps the operands of one ``+``/``*`` node or of one symmetric
    call (``fmin``/``fmax``) — IEEE-commutative, so results must be
    bit-identical.  A violation means compilation is shape-sensitive
    (e.g. one-sided FMA contraction).
    """

    name = "commute-swap"
    doc = "swap operands of one commutative + / * / fmin / fmax"
    exact = True

    def variants(
        self, test: TestCase, rng: random.Random
    ) -> List[Tuple[str, TestCase]]:
        body = test.program.kernel.body
        sites = float_sites(body)
        swappable = [
            i
            for i, e in enumerate(sites)
            if (isinstance(e, BinOp) and e.op in ("+", "*"))
            or (
                isinstance(e, Call)
                and e.func in _SYMMETRIC_CALLS
                and len(e.args) == 2
            )
        ]
        if not swappable:
            return []
        target = rng.choice(swappable)
        node = sites[target]
        if isinstance(node, BinOp):
            repl: Expr = BinOp(node.op, node.right, node.left)
        else:
            assert isinstance(node, Call)
            repl = Call(node.func, [node.args[1], node.args[0]], node.variant)
        return [("swap", _variant_test(test, self.name, "swap", replace_site(body, target, repl)))]


class FastMathFlag(Relation):
    """Fast-math-flag sensitivity, read out of the base sweep itself.

    Compares each platform's O3 result against its O3_FM result per
    input.  Approximation error may legally move a Number (no ULP check
    here — approx intrinsics are documented to drift arbitrarily far on
    extreme arguments), but an outcome-class flip under the flag is the
    paper's own inconsistency definition, observed single-stack.  Costs
    zero additional runs: both columns are already in the sweep.
    """

    name = "fastmath-flag"
    doc = "O3 vs O3_FM outcome classes must agree per platform"
    exact = True

    #: the sweep columns compared (both must be in the session's opts).
    plain_label = "O3"
    fm_label = "O3_FM"

    def variants(
        self, test: TestCase, rng: random.Random
    ) -> List[Tuple[str, TestCase]]:
        return []

    def check(
        self,
        fptype: FPType,
        base: Dict[str, PairResult],
        variants: Dict[str, Dict[str, PairResult]],
        ulp_bound: int,
    ) -> List[RelationViolation]:
        plain = base.get(self.plain_label)
        fm = base.get(self.fm_label)
        if plain is None or fm is None:
            return []
        out: List[RelationViolation] = []
        for platform in plain.stacks:
            plain_recs = _records_by_input(plain, platform)
            fm_recs = _records_by_input(fm, platform)
            for idx in sorted(plain_recs.keys() & fm_recs.keys()):
                b, v = plain_recs[idx], fm_recs[idx]
                b_cls, v_cls = classify_value(b.value), classify_value(v.value)
                if b_cls is v_cls:
                    continue
                out.append(
                    RelationViolation(
                        relation=self.name,
                        platform=platform,
                        test_id=b.test_id,
                        variant=self.fm_label,
                        opt_label=self.plain_label,
                        input_index=idx,
                        base_printed=b.printed,
                        variant_printed=v.printed,
                        base_outcome=b_cls.value,
                        variant_outcome=v_cls.value,
                    )
                )
        return out


#: Registry, in canonical order (ledger and report order).
RELATIONS: Dict[str, Relation] = {
    r.name: r
    for r in (
        FMARewrite(),
        DemoteRoundTrip(),
        MulOne(),
        FmodIdentity(),
        CommuteSwap(),
        FastMathFlag(),
    )
}

RELATION_NAMES: Tuple[str, ...] = tuple(RELATIONS)


def resolve_relations(names: Sequence[str]) -> List[Relation]:
    """Relation objects for a name list, rejecting unknown names."""
    unknown = [n for n in names if n not in RELATIONS]
    if unknown:
        raise ValueError(f"unknown relations: {', '.join(unknown)}")
    return [RELATIONS[n] for n in names]

