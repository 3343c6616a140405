"""Corpus generation is pinned bit for bit.

The generator draws from tables built once per generator (cumulative
weights, input-class tables, absorbed seed prefixes).  These tests pin
what it draws: a SHA-256 golden over rendered programs and input lines
that any moved draw breaks, and equivalence checks of each precomputed
shortcut against the general routine it replaces.
"""

from __future__ import annotations

import hashlib
import random
import struct

import pytest

from repro.codegen.cuda import render_cuda
from repro.hipify.translator import hipify_program
from repro.utils.hashing import absorb, splitmix64
from repro.utils.rng import derive_seed
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import build_corpus_slice
from repro.varity.generator import ProgramGenerator
from repro.varity.grammar import GrammarWeights
from repro.varity.inputs import InputGenerator, InputVector


def _digest(tests, render) -> str:
    h = hashlib.sha256()
    for test in tests:
        program = test.program
        h.update(f"{program.program_id} {program.seed}\n".encode())
        h.update(render(program).encode())
        for vec in test.inputs:
            h.update((vec.line + "\n").encode())
            h.update(repr(vec.values).encode())
    return h.hexdigest()


def _hip_text(program) -> str:
    return hipify_program(program)[1]


#: Computed with the generator as it stood before its draw tables; a
#: change that moves any random draw, literal or input value breaks it.
CORPUS_GOLDENS = {
    "fp64": "88d99c2dd705223fa7890e7003163708f6306e606ef261fa187330157058b1fd",
    "fp32": "301748dc22c47807f6d8c03a83a5021f3525395d960afcf0c5719f3a296d60f2",
    "fp16": "212b251dcb84d77d0a8998e3f3cbfdeb6a1aaf511eb1f2cd7593b0133b79c17b",
    "fp32-hipify": "2bd0ad51854c1f6a16d87cc58c44b9a72d5eb0ce0820f3272fde259ac40edc51",
    "fp64-oracle": "65d8ed62916fe6c99a845169d74e8722b76ac0d4b96f78eb0d8390a475751674",
}


def _golden_case(name: str) -> str:
    if name == "fp32-hipify":
        corpus = build_corpus_slice(GeneratorConfig.fp32(inputs_per_program=5), 0, 40, 2024)
        return _digest(corpus.hipified().tests, _hip_text)
    if name == "fp64-oracle":
        corpus = build_corpus_slice(
            GeneratorConfig.fp64(inputs_per_program=5), 10, 50, 7, prefix="oracle"
        )
        return _digest(corpus.tests, render_cuda)
    config = {
        "fp64": GeneratorConfig.fp64,
        "fp32": GeneratorConfig.fp32,
        "fp16": GeneratorConfig.fp16,
    }[name](inputs_per_program=5)
    return _digest(build_corpus_slice(config, 0, 40, 2024).tests, render_cuda)


@pytest.mark.parametrize("name", sorted(CORPUS_GOLDENS))
def test_corpus_golden(name):
    assert _golden_case(name) == CORPUS_GOLDENS[name]


# ------------------------------------------------------------ draw tables
def _weight_tables(weights: GrammarWeights):
    """(table, the weights ``rng.choices`` used to draw it from)."""
    tables = weights.draw_tables()

    def normalized(table):
        total = sum(table.values())
        return {k: v / total for k, v in table.items()}

    return [
        (tables.interior, normalized(weights.expr_interior)),
        (tables.binop_ops, weights.binop_ops),
        (tables.aug_ops, weights.aug_ops),
        (tables.leaves, normalized(weights.expr_leaves)),
        (tables.compare_ops, weights.compare_ops),
        (tables.math_functions, weights.math_functions),
    ]


@pytest.mark.parametrize(
    "weights",
    [
        GrammarWeights(),
        GrammarWeights(
            expr_interior={"binop": 3.0, "call": 0.0, "unop": 1.0, "leaf": 2.5},
            aug_ops={"+": 1e-9, "-": 7.0},
        ),
    ],
    ids=["default", "custom"],
)
def test_table_draw_equals_random_choices(weights):
    for table, source in _weight_tables(weights):
        names = list(source)
        for seed in range(2000):
            ours, theirs = random.Random(seed), random.Random(seed)
            picked = table.draw(ours)
            assert picked == theirs.choices(names, weights=list(source.values()), k=1)[0]
            assert ours.getstate() == theirs.getstate()


def test_input_class_table_equals_random_choices():
    classes = GeneratorConfig().inputs.as_dict()
    table = InputGenerator(GeneratorConfig())._classes
    for seed in range(2000):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert table.draw(ours) == theirs.choices(
            list(classes), weights=list(classes.values()), k=1
        )[0]
        assert ours.getstate() == theirs.getstate()


# ---------------------------------------------------------- input vectors
def _bits(value):
    if isinstance(value, int):
        return ("int", value)
    return ("float", struct.pack("<d", value))


@pytest.mark.parametrize("fptype", ["fp64", "fp32", "fp16"])
def test_drawn_vectors_equal_parsed_texts(fptype):
    config = getattr(GeneratorConfig, fptype)(inputs_per_program=9)
    corpus = build_corpus_slice(config, 0, 60, 11)
    for test in corpus:
        for vec in test.inputs:
            parsed = InputVector.from_texts(vec.texts, test.program.kernel)
            assert parsed.texts == vec.texts
            assert [_bits(v) for v in vec.values] == [_bits(v) for v in parsed.values]


# ---------------------------------------------------------------- seeds
@pytest.mark.parametrize("root_seed", [0, 1, 2024, 7, 2**63 + 5, -3])
def test_prefix_seeds_equal_derive_seed(root_seed):
    for head in (("program", "fp64"), ("inputs", "fp32"), ("program", "fp16"), ("input",)):
        prefix = derive_seed(root_seed, *head)
        for index in (0, 1, 39, 999_999, 2**40):
            assert absorb(prefix, (index,)) == derive_seed(root_seed, *head, index)
    assert derive_seed(root_seed) == splitmix64(root_seed & (2**64 - 1))


def test_generate_many_matches_per_seed_generation():
    config = GeneratorConfig.fp32()
    programs = ProgramGenerator(config).generate_many(5, 4)
    fresh = ProgramGenerator(config)
    for index, program in enumerate(programs):
        assert program.kernel == fresh.generate(
            derive_seed(5, "program", "fp32", index)
        ).kernel
    kernel = programs[0].kernel
    vectors = InputGenerator(config).generate_many(kernel, 9, 3)
    assert vectors == [
        InputGenerator(config).generate(kernel, derive_seed(9, "input", i)) for i in range(3)
    ]


# ------------------------------------------------------- generators reuse
def test_slice_rejects_generators_of_another_config():
    from repro.varity.corpus import CorpusGenerators

    generators = CorpusGenerators(GeneratorConfig.fp64())
    with pytest.raises(ValueError):
        build_corpus_slice(GeneratorConfig.fp64(), 0, 1, 3, generators=generators)


def test_resolve_builds_generators_once_per_config_in_a_chunk(monkeypatch):
    from repro.exec.units import CorpusTestSpec
    from repro.varity import corpus as corpus_mod

    built = []
    original = corpus_mod.CorpusGenerators.__init__

    def counting(self, config):
        built.append(config)
        original(self, config)

    monkeypatch.setattr(corpus_mod.CorpusGenerators, "__init__", counting)
    fp64, fp32 = GeneratorConfig.fp64(inputs_per_program=2), GeneratorConfig.fp32()
    memo = {}
    specs = [CorpusTestSpec(fp64, i, 3) for i in range(4)]
    specs += [CorpusTestSpec(fp32, i, 3, hipify=True) for i in range(3)]
    resolved = [spec.resolve(memo) for spec in specs]
    assert [id(c) for c in built] == [id(fp64), id(fp32)]
    expected = build_corpus_slice(fp64, 0, 4, 3).tests
    for got, want in zip(resolved, expected):
        assert got.program.kernel == want.program.kernel
        assert got.inputs == want.inputs
    assert all(t.program.via_hipify for t in resolved[4:])
