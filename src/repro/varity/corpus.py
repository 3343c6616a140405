"""Corpus construction: programs × inputs, fully seeded.

A corpus is the generated half of a campaign.  Everything is derived from
``(config, root_seed)`` with identity-based seed derivation, so a corpus
can be *recreated* on another system from the metadata alone — the
property the paper's Fig. 3 workflow depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.fp.types import FPType
from repro.utils.rng import derive_seed
from repro.varity.config import GeneratorConfig
from repro.varity.generator import ProgramGenerator
from repro.varity.inputs import InputGenerator
from repro.varity.testcase import TestCase

__all__ = ["Corpus", "build_corpus", "regenerate_test"]


@dataclass
class Corpus:
    """A generated test population for one precision."""

    config: GeneratorConfig
    root_seed: int
    tests: Tuple[TestCase, ...]

    @property
    def fptype(self) -> FPType:
        return self.config.fptype

    @property
    def n_programs(self) -> int:
        return len(self.tests)

    @property
    def n_runs_per_option_per_compiler(self) -> int:
        return sum(len(t.inputs) for t in self.tests)

    def __iter__(self) -> Iterator[TestCase]:
        return iter(self.tests)

    def __len__(self) -> int:
        return len(self.tests)

    def hipified(self) -> "Corpus":
        """The HIPIFY-converted twin corpus (same programs and inputs)."""
        return Corpus(
            config=self.config,
            root_seed=self.root_seed,
            tests=tuple(t.hipified() for t in self.tests),
        )


def build_corpus(
    config: GeneratorConfig,
    n_programs: int,
    root_seed: int,
    prefix: str = "prog",
) -> Corpus:
    """Generate ``n_programs`` tests, each with ``config.inputs_per_program``
    input vectors."""
    return build_corpus_slice(config, 0, n_programs, root_seed, prefix)


def build_corpus_slice(
    config: GeneratorConfig,
    start: int,
    stop: int,
    root_seed: int,
    prefix: str = "prog",
) -> Corpus:
    """Generate the [start, stop) index slice of a corpus.

    Seeds are derived from absolute indices, so the union of slices equals
    the full corpus — this is what lets campaign workers regenerate their
    own chunks instead of receiving pickled programs.
    """
    config.validate()
    program_gen = ProgramGenerator(config)
    input_gen = InputGenerator(config)
    tests: List[TestCase] = []
    for index in range(start, stop):
        program_seed = derive_seed(root_seed, "program", config.fptype.value, index)
        pid = f"{prefix}-{config.fptype.value}-{index:06d}"
        program = program_gen.generate(program_seed, program_id=pid)
        input_seed = derive_seed(root_seed, "inputs", config.fptype.value, index)
        inputs = input_gen.generate_many(
            program.kernel, input_seed, config.inputs_per_program
        )
        tests.append(TestCase(program, inputs))
    return Corpus(config=config, root_seed=root_seed, tests=tuple(tests))


def regenerate_test(
    config: GeneratorConfig,
    seed: int,
    test_id: str,
    input_texts: Sequence[Sequence[str]],
    via_hipify: bool = False,
) -> TestCase:
    """Rebuild a test from metadata (the System-2 side of Fig. 3).

    ``seed`` is the stored per-program seed; inputs come back as the exact
    text lines that ran on System 1.
    """
    from repro.varity.inputs import InputVector

    program = ProgramGenerator(config).generate(seed, program_id=test_id)
    if via_hipify:
        program = program.marked_hipify()
    inputs = [InputVector.from_texts(texts, program.kernel) for texts in input_texts]
    return TestCase(program, inputs)
