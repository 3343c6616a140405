"""Single-test differential execution.

:meth:`DifferentialRunner.run_sweep` is the execution service's unit of
work: one test compiled once per compiler (front end shared across the
optimization settings) and executed at every setting — each setting's
whole input grid in one :meth:`Device.execute_batch` call.  The
``lhs_cache`` / ``populate_lhs_cache`` arguments take a cache *view* —
any object with
``get(test_id, opt_label)``, ``put(test_id, opt_label, outcomes)`` and a
``hits`` counter, in practice a content-keyed
:class:`~repro.exec.store.BoundRunCache` — letting a later request replay
an earlier one's left-stack run outcomes verbatim: the ``fp64_hipify``
arm, every fuzz mutant's HIPIFY twin, and every extra stack pair sharing
the same left stack run the *same* kernels through that compiler, so
their records are bit-identical and never need re-executing.

:meth:`DifferentialRunner.run_single` is the probe path of triage and
reduction: one input row, compiled through the runner's own
:class:`~repro.exec.artifacts.ArtifactCache` and memoized per
(artifact pair, input-row bits) in a small LRU, so the same probe asked
by triage, by an ablated re-run of a later discrepancy, or by the
reducer's candidate checks executes once.

The runner is stack-pair generic: ``stacks=("nvcc", "cpu")`` builds the
left/right compiler and device models from the :mod:`repro.stacks`
registry.  The default pair is the paper's (nvcc, hipcc), and the
pre-registry attribute spellings (``runner.nvcc``, ``runner.amd``,
``runner.nvcc_executions``, …) remain as aliases for the left/right
slots so existing ablation and analysis code keeps working.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.compilers.compiler import CompiledKernel, Compiler
from repro.compilers.options import OptSetting
from repro.devices.device import Device
from repro.errors import HarnessError, TrapError
from repro.fp.bits import float_to_bits
from repro.harness.differential import Discrepancy
from repro.harness.outcomes import RunRecord
from repro.stacks import DEFAULT_STACK_PAIR, get_stack
from repro.varity.testcase import TestCase

if TYPE_CHECKING:  # pragma: no cover - runtime import would be circular
    from repro.exec.artifacts import ArtifactCache
    from repro.exec.store import BoundRunCache

__all__ = ["DifferentialRunner", "PairResult", "pair_discrepancies"]

#: compiled kernels the probe path's artifact cache keeps per runner.
PROBE_ARTIFACT_ENTRIES = 256
#: probe results (one input row on both stacks) memoized per runner.
PROBE_MEMO_ENTRIES = 256


@dataclass
class PairResult:
    """Both stacks' runs for one (test, opt) across all inputs.

    ``stacks`` names the (lhs, rhs) pair the runs came from; the
    ``nvcc_runs``/``hipcc_runs`` field spellings are the pre-registry
    names for the left and right slots and are kept because every
    consumer (exec accounting, campaign folding, oracle relations)
    reads them — ``lhs_runs``/``rhs_runs`` are the neutral aliases.
    """

    nvcc_runs: List[RunRecord]
    hipcc_runs: List[RunRecord]
    discrepancies: List[Discrepancy]
    skipped_inputs: List[int]
    stacks: Tuple[str, str] = field(default=DEFAULT_STACK_PAIR)

    @property
    def lhs_runs(self) -> List[RunRecord]:
        return self.nvcc_runs

    @property
    def rhs_runs(self) -> List[RunRecord]:
        return self.hipcc_runs


def pair_discrepancies(
    lhs_runs: Sequence[RunRecord],
    rhs_runs: Sequence[RunRecord],
    stacks: Tuple[str, str] = DEFAULT_STACK_PAIR,
) -> List[Discrepancy]:
    """Pair the two stacks' records by ``input_index``; keep discrepancies.

    Records are matched explicitly (not positionally), so a harness bug
    that dropped one side's record for an input surfaces as a
    :class:`HarnessError` instead of silently misattributing every
    discrepancy after the gap.
    """
    lhs_name, rhs_name = stacks
    by_index: Dict[int, RunRecord] = {}
    for r in rhs_runs:
        if r.input_index in by_index:
            raise HarnessError(
                f"duplicate {rhs_name} record for input {r.input_index} of {r.test_id!r}"
            )
        by_index[r.input_index] = r
    if len(lhs_runs) != len(by_index):
        raise HarnessError(
            f"unpaired run records: {len(lhs_runs)} {lhs_name} vs "
            f"{len(by_index)} {rhs_name}"
        )
    out: List[Discrepancy] = []
    seen_lhs: set = set()
    for lhs in lhs_runs:
        if lhs.input_index in seen_lhs:
            raise HarnessError(
                f"duplicate {lhs_name} record for input {lhs.input_index} of "
                f"{lhs.test_id!r}"
            )
        seen_lhs.add(lhs.input_index)
        rhs = by_index.get(lhs.input_index)
        if rhs is None:
            raise HarnessError(
                f"no {rhs_name} record for input {lhs.input_index} of {lhs.test_id!r}"
            )
        d = Discrepancy.from_records(lhs, rhs, stacks=stacks)
        if d is not None:
            out.append(d)
    return out


def _execute_batch(device, compiled, rows, *, vectorize: bool, memo=None):
    """``device.execute_batch`` with a scalar fallback for duck-typed
    device wrappers (trap injectors, ablation shims) that only implement
    ``execute``.

    ``memo`` (a per-sweep list) dedups physical execution across opt
    settings whose post-pass kernels came out identical — common for
    small kernels, where O1/O2/O3 converge to the same IR.  Execution is
    a pure function of (kernel, exec options, input rows), so reusing
    the raw results is bit-exact; rows are matched by element *identity*
    (NaN-safe, and only true for the same sweep's input tuples).  The
    memo is never offered for wrapper devices without ``execute_batch``
    — per-opt trap injectors are exactly the stubs whose behavior is
    not a pure function of the compiled kernel.
    """
    batch = getattr(device, "execute_batch", None)
    if batch is None:
        out = []
        for row in rows:
            try:
                out.append(device.execute(compiled, row))
            except TrapError:
                out.append(None)
        return out
    if memo is not None:
        for prev_ck, prev_rows, prev_out in memo:
            if (
                prev_ck.exec_options == compiled.exec_options
                and len(prev_rows) == len(rows)
                and all(a is b for a, b in zip(prev_rows, rows))
                and prev_ck.kernel == compiled.kernel
            ):
                return prev_out
    out = batch(compiled, rows, vectorize=vectorize)
    if memo is not None:
        memo.append((compiled, rows, out))
    return out


class DifferentialRunner:
    """Owns one device + compiler per stack and runs tests through both.

    ``stacks`` selects the (lhs, rhs) pair from the registry; the
    ``nvidia``/``amd`` parameters override the left/right *device*
    (their names predate the registry — for the default pair they are
    exactly the simulated V100/MI250X).

    ``record_flags=True`` attaches the IEEE exception snapshot to each run
    record (slower; used by the analysis examples, not by campaigns).

    ``lhs_executions`` / ``rhs_executions`` count device executions
    attempted (including ones that trapped); the campaign engine uses
    them to prove the cross-arm cache really avoided the left side.
    """

    def __init__(
        self,
        nvidia: Optional[Device] = None,
        amd: Optional[Device] = None,
        record_flags: bool = False,
        *,
        stacks: Tuple[str, str] = DEFAULT_STACK_PAIR,
        vectorize: bool = True,
    ) -> None:
        lhs_stack = get_stack(stacks[0])
        rhs_stack = get_stack(stacks[1])
        self.stacks: Tuple[str, str] = (lhs_stack.name, rhs_stack.name)
        self.lhs_device = nvidia or lhs_stack.device()
        self.rhs_device = amd or rhs_stack.device()
        self.lhs_compiler: Compiler = lhs_stack.compiler()
        self.rhs_compiler: Compiler = rhs_stack.compiler()
        self.record_flags = record_flags
        #: route each (test, opt)'s input grid through the batched device
        #: API (bit-identical per row; ``False`` forces the per-row
        #: scalar reference path).
        self.vectorize = vectorize
        self.lhs_executions = 0
        self.rhs_executions = 0
        self._artifacts: Optional["ArtifactCache"] = None
        self._memo: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._memo_devices: Tuple[object, object] = (None, None)
        #: probe-path counters: ``run_single`` calls and memo answers.
        self.probes = 0
        self.probe_memo_hits = 0

    # -- pre-registry attribute aliases (lhs/rhs slots) ---------------------
    @property
    def nvidia(self) -> Device:
        return self.lhs_device

    @nvidia.setter
    def nvidia(self, device: Device) -> None:
        self.lhs_device = device

    @property
    def amd(self) -> Device:
        return self.rhs_device

    @amd.setter
    def amd(self, device: Device) -> None:
        self.rhs_device = device

    @property
    def nvcc(self) -> Compiler:
        return self.lhs_compiler

    @nvcc.setter
    def nvcc(self, compiler: Compiler) -> None:
        self.lhs_compiler = compiler

    @property
    def hipcc(self) -> Compiler:
        return self.rhs_compiler

    @hipcc.setter
    def hipcc(self, compiler: Compiler) -> None:
        self.rhs_compiler = compiler

    @property
    def nvcc_executions(self) -> int:
        return self.lhs_executions

    @nvcc_executions.setter
    def nvcc_executions(self, n: int) -> None:
        self.lhs_executions = n

    @property
    def hipcc_executions(self) -> int:
        return self.rhs_executions

    @hipcc_executions.setter
    def hipcc_executions(self, n: int) -> None:
        self.rhs_executions = n

    # ------------------------------------------------------------------ api
    @property
    def artifacts(self) -> "ArtifactCache":
        """The probe path's compiled-artifact cache (built on first use)."""
        if self._artifacts is None:
            from repro.exec.artifacts import ArtifactCache

            self._artifacts = ArtifactCache(max_entries=PROBE_ARTIFACT_ENTRIES)
        return self._artifacts

    def compile_pair(
        self, test: TestCase, opt: OptSetting
    ) -> Tuple[CompiledKernel, CompiledKernel]:
        return (
            self.artifacts.compile(self.lhs_compiler, test.program, opt),
            self.artifacts.compile(self.rhs_compiler, test.program, opt),
        )

    def run_pair(self, test: TestCase, opt: OptSetting) -> PairResult:
        """Compile once per compiler, run every input on both devices."""
        ck_lhs, ck_rhs = self.compile_pair(test, opt)
        return self._run_inputs(test, opt, ck_lhs, ck_rhs)

    def run_sweep(
        self,
        test: TestCase,
        opts: Sequence[OptSetting],
        *,
        lhs_cache: Optional["BoundRunCache"] = None,
        populate_lhs_cache: Optional["BoundRunCache"] = None,
        artifacts: Optional["ArtifactCache"] = None,
    ) -> Dict[str, PairResult]:
        """One test across every optimization setting, keyed by opt label.

        Each compiler's front end runs once for the whole sweep (see
        :meth:`Compiler.compile_sweep`); with ``artifacts`` (an
        :class:`~repro.exec.artifacts.ArtifactCache`) both compiles are
        served content-keyed, so an identical kernel compiled earlier —
        the HIPIFY twin's CUDA side, a replayed fuzz ancestor — never
        re-enters the pass pipeline.  When ``lhs_cache`` (a
        content-keyed store view) holds this test's entry at an opt
        setting, the left side is replayed from the cached outcomes
        instead of executing; ``populate_lhs_cache`` stores this sweep's
        left-stack outcomes for a later request to reuse.
        """
        if artifacts is not None:
            lhs_kernels = artifacts.compile_sweep(
                self.lhs_compiler, test.program, opts
            )
            rhs_kernels = artifacts.compile_sweep(
                self.rhs_compiler, test.program, opts
            )
        else:
            lhs_kernels = self.lhs_compiler.compile_sweep(test.program, opts)
            rhs_kernels = self.rhs_compiler.compile_sweep(test.program, opts)
        out: Dict[str, PairResult] = {}
        # Per-sweep execution memos (one per side): opt settings whose
        # pass pipelines produced identical kernels execute once and
        # share raw results.  Counters are charged per opt regardless —
        # they count the sweep's logical runs, byte-identical to the
        # undeduped path.  Only the batched lane dedups; vectorize=False
        # is the untouched per-row reference.
        lhs_memo = [] if self.vectorize else None
        rhs_memo = [] if self.vectorize else None
        for opt in opts:
            out[opt.label] = self._run_inputs(
                test,
                opt,
                lhs_kernels[opt.label],
                rhs_kernels[opt.label],
                lhs_cache=lhs_cache,
                populate_lhs_cache=populate_lhs_cache,
                lhs_memo=lhs_memo,
                rhs_memo=rhs_memo,
            )
        return out

    def run_single(
        self, test: TestCase, opt: OptSetting, input_index: int, *, trace: bool = False
    ):
        """One input on both stacks; returns the raw ExecutionResults.

        The probe path of triage, reduction and the case-study tooling
        (which needs traces).  Results are memoized per (lhs artifact,
        rhs artifact, input-row bits); a traced result also answers an
        untraced call.  A :class:`~repro.errors.TrapError` is never
        memoized — it is raised again on every call.  Wrapper devices
        without ``execute_batch`` (trap injectors, shims) are not
        assumed pure and always execute.
        """
        self.probes += 1
        ck_lhs, ck_rhs = self.compile_pair(test, opt)
        values = test.inputs[input_index].values
        memo = self._probe_memo()
        key = None
        if memo is not None:
            key = (
                self.artifacts.key(self.lhs_compiler, test.program, opt),
                self.artifacts.key(self.rhs_compiler, test.program, opt),
                tuple(float_to_bits(v) if isinstance(v, float) else v for v in values),
            )
            hit = memo.get(key)
            if hit is not None and (hit[2] or not trace):
                memo.move_to_end(key)
                self.probe_memo_hits += 1
                return hit[0], hit[1], ck_lhs, ck_rhs
        rl = self.lhs_device.execute(ck_lhs, values, trace=trace)
        rr = self.rhs_device.execute(ck_rhs, values, trace=trace)
        if memo is not None:
            memo[key] = (rl, rr, trace)
            memo.move_to_end(key)
            while len(memo) > PROBE_MEMO_ENTRIES:
                memo.popitem(last=False)
        return rl, rr, ck_lhs, ck_rhs

    def probe_stats(self) -> Dict[str, int]:
        """Probe-path counters: calls, memo hits, artifact hits/misses."""
        art = self._artifacts.stats() if self._artifacts is not None else {}
        return {
            "probes": self.probes,
            "memo_hits": self.probe_memo_hits,
            "artifact_hits": art.get("hits", 0),
            "artifact_misses": art.get("misses", 0),
        }

    def _probe_memo(self) -> "Optional[OrderedDict[tuple, tuple]]":
        """The probe memo for the current devices; ``None`` for wrappers.

        Reassigning a device (``runner.amd = ...``) starts a fresh memo.
        """
        devices = (self.lhs_device, self.rhs_device)
        if not all(hasattr(d, "execute_batch") for d in devices):
            return None
        if any(a is not b for a, b in zip(devices, self._memo_devices)):
            self._memo.clear()
            self._memo_devices = devices
        return self._memo

    # ------------------------------------------------------------- internals
    def _run_inputs(
        self,
        test: TestCase,
        opt: OptSetting,
        ck_lhs: CompiledKernel,
        ck_rhs: CompiledKernel,
        *,
        lhs_cache: Optional["BoundRunCache"] = None,
        populate_lhs_cache: Optional["BoundRunCache"] = None,
        lhs_memo=None,
        rhs_memo=None,
    ) -> PairResult:
        cached = (
            lhs_cache.get(test.test_id, opt.label) if lhs_cache is not None else None
        )
        if cached is not None and len(cached) != len(test.inputs):
            raise HarnessError(
                f"cached {self.stacks[0]} outcomes for {test.test_id!r} at "
                f"{opt.label} cover {len(cached)} inputs, test has {len(test.inputs)}"
            )
        if cached is not None:
            lhs_cache.hits += len(test.inputs)
            lhs_outcomes: List[Optional[RunRecord]] = list(cached)
        else:
            self.lhs_executions += len(test.inputs)
            lhs_results = _execute_batch(
                self.lhs_device,
                ck_lhs,
                [vec.values for vec in test.inputs],
                vectorize=self.vectorize,
                memo=lhs_memo,
            )
            lhs_outcomes = [
                None
                if rl is None
                else self._record(test, idx, opt, self.stacks[0], rl)
                for idx, rl in enumerate(lhs_results)
            ]
        # A ``None`` outcome means the left side trapped (step budget):
        # the test is dropped on both stacks, like a timed-out job in the
        # real campaign, and the right side is never executed for that
        # input.
        skipped = [idx for idx, rec in enumerate(lhs_outcomes) if rec is None]
        live = [idx for idx, rec in enumerate(lhs_outcomes) if rec is not None]
        self.rhs_executions += len(live)
        rhs_results = _execute_batch(
            self.rhs_device,
            ck_rhs,
            [test.inputs[idx].values for idx in live],
            vectorize=self.vectorize,
            memo=rhs_memo,
        )
        lhs_runs: List[RunRecord] = []
        rhs_runs: List[RunRecord] = []
        for idx, rr in zip(live, rhs_results):
            if rr is None:
                skipped.append(idx)
                continue
            lhs_runs.append(lhs_outcomes[idx])
            rhs_runs.append(self._record(test, idx, opt, self.stacks[1], rr))
        skipped.sort()
        if populate_lhs_cache is not None:
            populate_lhs_cache.put(test.test_id, opt.label, lhs_outcomes)
        return PairResult(
            lhs_runs,
            rhs_runs,
            pair_discrepancies(lhs_runs, rhs_runs, stacks=self.stacks),
            skipped,
            stacks=self.stacks,
        )

    def _record(
        self, test: TestCase, idx: int, opt: OptSetting, compiler: str, result
    ) -> RunRecord:
        return RunRecord(
            test_id=test.test_id,
            input_index=idx,
            opt_label=opt.label,
            compiler=compiler,
            printed=result.printed,
            value=result.value,
            flags=dict(result.flags) if self.record_flags else None,
        )
