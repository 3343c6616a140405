"""Typed work units of the execution service.

A :class:`SweepRequest` is the system's one schedulable primitive: *run
one test across an optimization sweep on both platforms*.  Making it data
— a test (or a regenerable spec of one), the opt settings, whether to
reuse stored runs, a runner spec, and opaque caller metadata — is what
lets the campaign engine, the fuzzer, and the analysis harnesses share
one scheduler, one cache rule, and one set of counters instead of four
private loops.

Requests must be picklable: the process-pool backend ships whole chunks
to pool workers.  Campaign requests therefore carry a
:class:`CorpusTestSpec` (the worker regenerates the program from its
seed — no IR pickling at scale), while fuzz mutants, which cannot be
regenerated from a generator seed, ship their small concrete
:class:`~repro.varity.testcase.TestCase` directly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple, TYPE_CHECKING, Union

from repro.compilers.options import OptSetting
from repro.harness.runner import PairResult
from repro.stacks import DEFAULT_STACK_PAIR
from repro.varity.config import GeneratorConfig
from repro.varity.testcase import TestCase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (ablation uses exec)
    from repro.analysis.ablation import AblationSpec
    from repro.harness.runner import DifferentialRunner

__all__ = [
    "RunnerSpec",
    "built_runners",
    "clear_runners",
    "CorpusTestSpec",
    "DerivedTestSpec",
    "SweepRequest",
    "SweepOutcome",
]


@dataclass(frozen=True)
class RunnerSpec:
    """How to build the differential runner a request executes on.

    A *spec* rather than a runner instance so requests stay picklable and
    every backend — in-process or pool worker — constructs an identical,
    deterministic runner.  :meth:`build` returns the calling thread's one
    runner for the spec, built on first use, so its devices, call memos
    and probe caches stay warm across chunks, sessions and triage.
    ``stacks`` selects the (lhs, rhs) stack pair from the
    :mod:`repro.stacks` registry; being a field of a frozen spec it
    participates in the service's dedup key, so requests for different
    pairs never collapse into each other.  ``ablation`` selects an
    equalized runner from :data:`repro.analysis.ablation.ABLATIONS`-style
    specs (ablations are defined on the legacy nvcc/hipcc pair without
    flag recording, so ``ablation`` combined with any other non-default
    field raises ``ValueError`` instead of being ignored).  Every runner
    executes on the devices' one evaluator (:mod:`repro.devices.batch`).
    """

    ablation: Optional["AblationSpec"] = None
    record_flags: bool = False
    stacks: Tuple[str, str] = DEFAULT_STACK_PAIR

    def __post_init__(self) -> None:
        if self.ablation is None:
            return
        ignored = [
            f.name
            for f in fields(self)
            if f.name != "ablation" and getattr(self, f.name) != f.default
        ]
        if ignored:
            raise ValueError(
                "RunnerSpec(ablation=...) always builds the default "
                f"nvcc/hipcc runner; it cannot honour {', '.join(ignored)}"
            )

    def build(self) -> "DifferentialRunner":
        """This thread's runner for the spec, built on first use.

        Sharing is sound because a runner's caches are pure memos: what
        it returns never depends on what it ran before.  Callers that
        count work read a runner's execution counters as deltas.  The
        registry is per thread, so bridge workers running as threads
        never share counters.
        """
        runners = _thread_runners()
        runner = runners.get(self)
        if runner is None:
            runner = runners[self] = self._construct()
        return runner

    def _construct(self) -> "DifferentialRunner":
        if self.ablation is not None:
            from repro.analysis.ablation import _build_runner

            return _build_runner(self.ablation)
        from repro.harness.runner import DifferentialRunner

        return DifferentialRunner(
            record_flags=self.record_flags,
            stacks=self.stacks,
        )


_REGISTRY = threading.local()


def _thread_runners() -> Dict[RunnerSpec, "DifferentialRunner"]:
    runners = getattr(_REGISTRY, "runners", None)
    if runners is None:
        runners = _REGISTRY.runners = {}
    return runners


def built_runners() -> Tuple["DifferentialRunner", ...]:
    """Every runner :meth:`RunnerSpec.build` has built on this thread."""
    return tuple(_thread_runners().values())


def clear_runners() -> None:
    """Forget this thread's runners; the next build of each spec starts cold."""
    _thread_runners().clear()


DEFAULT_RUNNER = RunnerSpec()


@dataclass(frozen=True)
class CorpusTestSpec:
    """A regenerable test: absolute corpus index + generation identity.

    Workers rebuild the test from the seed instead of unpickling IR —
    the campaign's chunking discipline.  ``hipify`` marks the HIPIFY twin
    (same program and inputs; only the HIP compilation changes).
    """

    gen: GeneratorConfig
    index: int
    root_seed: int
    prefix: str = "prog"
    hipify: bool = False

    def resolve(self, memo: Optional[Dict[object, TestCase]] = None) -> TestCase:
        from repro.varity.corpus import build_corpus_slice

        # The memo is shared across a whole chunk, which may mix specs
        # from different generator configs; id(gen) keeps them distinct
        # (requests of one arm share the config *object*, pickled or not).
        key = (id(self.gen), self.root_seed, self.prefix, self.index)
        base = memo.get(key) if memo is not None else None
        if base is None:
            base = build_corpus_slice(
                self.gen, self.index, self.index + 1, self.root_seed, self.prefix
            ).tests[0]
            if memo is not None:
                memo[key] = base
        return base.hipified() if self.hipify else base


@dataclass(frozen=True)
class DerivedTestSpec:
    """A test derived from a concrete base case at resolve time.

    Used for the HIPIFY twin of a non-regenerable test (fuzz mutants,
    benchmark corpora shipped as concrete cases): the spec holds a
    *reference* to the same :class:`~repro.varity.testcase.TestCase`
    object the native request carries, so pickling a chunk containing
    both serializes the program IR once (pickle's object memo), roughly
    halving pool payloads, and the twin is materialized with
    ``.hipified()`` on the worker.
    """

    base: TestCase
    hipify: bool = True

    def resolve(self, memo: Optional[Dict[object, TestCase]] = None) -> TestCase:
        return self.base.hipified() if self.hipify else self.base


@dataclass(frozen=True)
class SweepRequest:
    """One unit of schedulable work: a test swept across opt settings."""

    test: Union[TestCase, CorpusTestSpec, DerivedTestSpec]
    opts: Tuple[OptSetting, ...]
    #: opaque caller metadata echoed on the outcome (arm name, index, ...).
    tag: Tuple[object, ...] = ()
    #: replay the pair's left side from the run store and store what it
    #: executes (``False`` executes everything: the standalone-arm
    #: semantics).  The service picks the store, not the request.
    reuse: bool = True
    runner: RunnerSpec = DEFAULT_RUNNER

    def resolve_test(self, memo: Optional[Dict[object, TestCase]] = None) -> TestCase:
        if isinstance(self.test, TestCase):
            return self.test
        return self.test.resolve(memo)


@dataclass
class SweepOutcome:
    """Everything one executed (or deduped) request produced.

    The ``nvcc_*``/``hipcc_*`` counter names are the pre-registry
    spellings for the pair's left/right slots (the campaign and fuzz
    accounting read them by these names); ``stacks`` says which stacks
    the slots actually were.
    """

    tag: Tuple[object, ...]
    test_id: str
    content_key: str
    pairs: Dict[str, PairResult] = field(default_factory=dict)
    nvcc_executions: int = 0
    nvcc_cache_hits: int = 0
    hipcc_executions: int = 0
    #: served from an identical request earlier in the same chunk; the
    #: counters above are zero because no new work ran.
    deduped: bool = False
    stacks: Tuple[str, str] = DEFAULT_STACK_PAIR

    @property
    def pair_runs(self) -> int:
        """Compared record pairs across the sweep (the campaign run unit)."""
        return sum(len(p.lhs_runs) for p in self.pairs.values())

    def iter_discrepancies(self):
        for pair in self.pairs.values():
            for d in pair.discrepancies:
                yield d
