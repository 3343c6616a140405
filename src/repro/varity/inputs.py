"""Random input generation (§II-B1 value classes).

For each kernel parameter an :class:`InputVector` carries one value:
float for FLOAT, int for INT (the loop bound), and a float *fill value*
for FLOAT_PTR parameters (Varity's ``main()`` initializes every array
element with the scalar read from the input line — visible in Fig. 4,
where the ``double*`` parameter receives ``+0.0``).

Float values are drawn from exceptional-value classes (±0, subnormal,
near-minimum-normal, huge, moderate, small) as Varity literal *text*,
because the real harness passes inputs as decimal text on the command
line — the value a test consumes is the parsed text, identically on both
platforms.  A drawn vector's values are still derived from its texts, by
the conversion :meth:`InputVector.from_texts` applies to a suffix-less
literal (``float(dtype.type(float(text)))``); the generator just applies
it directly instead of going back through the general literal parser.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.fp.literals import parse_varity_literal
from repro.ir.program import Kernel
from repro.ir.types import IRType
from repro.utils.hashing import absorb
from repro.utils.rng import derive_seed
from repro.varity.config import GeneratorConfig
from repro.varity.grammar import DrawTable

__all__ = ["InputVector", "InputGenerator"]

Value = Union[float, int]


@dataclass(frozen=True)
class InputVector:
    """One test input: positional values plus their text form.

    ``texts`` is the exact whitespace-separated input line of the Fig. 4
    style metadata; values are derived from the texts, never the other way
    round, so save/load cycles are bit-stable.
    """

    values: Tuple[Value, ...]
    texts: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.texts):
            raise ValueError("values/texts length mismatch")

    @property
    def line(self) -> str:
        """The input rendered as a Varity input line."""
        return " ".join(self.texts)

    @classmethod
    def from_texts(cls, texts: Sequence[str], kernel: Kernel) -> "InputVector":
        """Parse an input line against a kernel signature."""
        if len(texts) != len(kernel.params):
            raise ValueError(
                f"{len(texts)} inputs for {len(kernel.params)} parameters"
            )
        values: List[Value] = []
        for text, param in zip(texts, kernel.params):
            if param.type is IRType.INT:
                values.append(int(text))
            else:
                values.append(float(parse_varity_literal(text, kernel.fptype)))
        return cls(tuple(values), tuple(texts))


class InputGenerator:
    """Draws input vectors for a kernel signature.

    The class table, exponent ranges and value conversion are derived
    from the config when the generator is built; changing the config
    afterwards does not reach them.
    """

    def __init__(self, config: GeneratorConfig) -> None:
        self.config = config
        classes = config.inputs.as_dict()
        self._classes = DrawTable(classes)
        self._exponents: Dict[str, Tuple[int, int]] = {
            klass: config.exponent_range(klass) for klass in classes if klass != "zero"
        }
        self._to_dtype = config.fptype.dtype.type

    def generate(self, kernel: Kernel, seed: int) -> InputVector:
        rng = random.Random(seed)
        lo, hi = self.config.min_loop_bound, self.config.max_loop_bound
        to_dtype = self._to_dtype
        texts: List[str] = []
        values: List[Value] = []
        # As in parse_varity_literal: what narrowing does to a text is the
        # compiled program's real behaviour, not a warning.
        with np.errstate(all="ignore"):
            for param in kernel.params:
                if param.type is IRType.INT:
                    bound = rng.randint(lo, hi)
                    texts.append(str(bound))
                    values.append(bound)
                else:
                    text = self._float_text(rng)
                    texts.append(text)
                    values.append(float(to_dtype(float(text))))
        return InputVector(tuple(values), tuple(texts))

    def generate_many(self, kernel: Kernel, root_seed: int, count: int) -> List[InputVector]:
        # absorb(derive_seed(r, *a), b) == derive_seed(r, *a, *b)
        seeds = derive_seed(root_seed, "input")
        return [self.generate(kernel, absorb(seeds, (index,))) for index in range(count)]

    # ----------------------------------------------------------------- float
    def _float_text(self, rng: random.Random) -> str:
        klass = self._classes.draw(rng)
        sign = "-" if rng.random() < 0.5 else "+"
        if klass == "zero":
            return f"{sign}0.0"
        lo, hi = self._exponents[klass]
        exponent = rng.randint(lo, hi)
        mantissa = rng.uniform(1.0, 9.9999)
        digits = self.config.literal_mantissa_digits
        text = f"{sign}{mantissa:.{digits}f}E{exponent}"
        # Clamp pathological roundings (mantissa 9.99995 → "10.0000").
        if text[1:3] == "10":
            text = f"{sign}9.{'9' * digits}E{exponent}"
        return text
