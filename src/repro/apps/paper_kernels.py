"""The paper's published kernels, verbatim in IR.

Each function rebuilds one of the figures' ``compute`` kernels with the
exact literals and the exact failure-inducing input vector from the paper,
so the case-study benches run the *same tests* the authors shipped.

* Fig. 2 — the sample FP64 generated program (generator showcase);
* Fig. 4 — Case Study 1: ``fmod`` Num-vs-Num divergence at ``-O0``;
* Fig. 5 — Case Study 2: ``ceil`` Inf-vs-Num divergence at ``-O0``
  (reproduces bit-exactly, including the ``1.34887e-306`` output);
* Fig. 6 — Case Study 3: the verbatim Inf/NaN kernel, plus an engineered
  companion (:func:`case3_engineered_testcase`) that exhibits the same
  phenomenon class — agreement at ``-O0``, Inf-vs-NaN divergence at
  ``-O1`` — through our modeled FMA-contraction asymmetry.  (The verbatim
  kernel's published O0 behaviour is not IEEE-derivable — pure IEEE
  evaluation of the shown input yields NaN on both platforms, which our
  model faithfully produces; ``tests/test_apps.py`` pins it.)
"""

from __future__ import annotations

from typing import List

from repro.fp.types import FPType
from repro.ir.builder import IRBuilder
from repro.ir.program import Program
from repro.varity.inputs import InputVector
from repro.varity.testcase import TestCase

__all__ = [
    "fig2_program",
    "fig4_testcase",
    "fig5_testcase",
    "fig6_testcase",
    "case3_engineered_testcase",
]


def _vec(program: Program, texts: List[str]) -> InputVector:
    return InputVector.from_texts(texts, program.kernel)


# ---------------------------------------------------------------------------
# Fig. 2 — sample random program
# ---------------------------------------------------------------------------


def fig2_program() -> Program:
    """The FP64 sample test of Fig. 2."""
    b = IRBuilder(FPType.FP64)
    kernel = b.kernel(
        params=[
            b.fparam("comp"),
            b.iparam("var_1"),
            b.fparam("var_2"),
            b.fparam("var_3"),
            b.fparam("var_4"),
            b.fparam("var_5"),
            b.fparam("var_6"),
            b.fparam("var_7"),
            b.fparam("var_8"),
        ],
        body=[
            b.when(
                b.cmp("==", "comp", b.add(b.raw_lit("-1.3857E-36", -1.3857e-36), "var_2")),
                [
                    b.decl("tmp_1", b.div(b.raw_lit("+1.3305E12", 1.3305e12), "var_3")),
                    b.aug("comp", "+", b.mul(b.raw_lit("-1.7744E-2", -1.7744e-2), "tmp_1")),
                    b.aug(
                        "comp",
                        "+",
                        b.call(
                            "cos",
                            b.sub(
                                "var_4",
                                b.mul(
                                    b.raw_lit("+1.4014E2", 1.4014e2),
                                    b.add("var_5", b.mul("var_6", "var_7")),
                                ),
                            ),
                        ),
                    ),
                    b.loop(
                        "i",
                        "var_1",
                        [
                            b.aug(
                                "comp",
                                "-",
                                b.call("sqrt", b.add("var_8", b.raw_lit("-1.7976E3", -1.7976e3))),
                            )
                        ],
                    ),
                ],
            )
        ],
    )
    return b.program(kernel, program_id="paper-fig2", note="paper Fig. 2")


# ---------------------------------------------------------------------------
# Fig. 4 — Case Study 1 (fmod)
# ---------------------------------------------------------------------------


def fig4_testcase() -> TestCase:
    """Case Study 1: kernel + the failure-inducing input of Fig. 4."""
    b = IRBuilder(FPType.FP64)
    # -1.9289E305 / (-1.2924E-311 - +0.0 + var_7 + +1.3278E-316)
    denom = b.add(
        b.add(
            b.sub(b.raw_lit("-1.2924E-311", -1.2924e-311), b.raw_lit("+0.0", 0.0)),
            b.var("var_7"),
        ),
        b.raw_lit("+1.3278E-316", 1.3278e-316),
    )
    stmt_arr = b.assign(
        b.idx("var_5", "i"),
        b.sub(
            b.div(b.raw_lit("-0.0", -0.0), b.raw_lit("-1.5942E305", -1.5942e305)),
            b.call(
                "fmod",
                b.add(b.raw_lit("+1.7085E-315", 1.7085e-315), "var_6"),
                b.div(b.raw_lit("-1.9289E305", -1.9289e305), denom),
            ),
        ),
    )
    big_arg = b.mul(
        b.raw_lit("-1.7538E305", -1.7538e305),
        b.div(
            "var_8",
            b.sub(
                b.div(b.raw_lit("+0.0", 0.0), "var_9"),
                b.raw_lit("+1.3065E-306", 1.3065e-306),
            ),
        ),
    )
    stmt_acc = b.aug(
        "comp",
        "+",
        b.sub(b.idx("var_5", "i"), b.call("fmod", big_arg, b.raw_lit("+1.5793E-307", 1.5793e-307))),
    )
    stmt_tail = b.aug(
        "comp", "+", b.add(b.raw_lit("+1.8753E-306", 1.8753e-306), "var_10")
    )
    kernel = b.kernel(
        params=[
            b.fparam("comp"),
            b.iparam("var_1"),
            b.fparam("var_2"),
            b.fparam("var_3"),
            b.fparam("var_4"),
            b.aparam("var_5"),
            b.fparam("var_6"),
            b.fparam("var_7"),
            b.fparam("var_8"),
            b.fparam("var_9"),
            b.fparam("var_10"),
        ],
        body=[
            b.when(
                b.cmp(">=", "comp", b.mul("var_2", b.add("var_3", "var_4"))),
                [b.loop("i", "var_1", [stmt_arr, stmt_acc, stmt_tail])],
            )
        ],
    )
    program = b.program(kernel, program_id="paper-fig4", note="paper Fig. 4 / case study 1")
    inputs = _vec(
        program,
        [
            "+0.0", "5", "+1.7612E-322", "+1.1649E-307", "-0.0", "+0.0",
            "+1.5461E-311", "-1.3680E306", "+1.1757E-322", "+1.7130E-319",
            "+1.6782E-321",
        ],
    )
    return TestCase(program, [inputs])


#: The isolated expression of Fig. 4's third panel.
FIG4_FMOD_X = 1.5917195493481116e289
FIG4_FMOD_Y = 1.5793e-307


# ---------------------------------------------------------------------------
# Fig. 5 — Case Study 2 (ceil)
# ---------------------------------------------------------------------------


def fig5_testcase() -> TestCase:
    """Case Study 2: kernel + input of Fig. 5 (bit-exact reproduction)."""
    b = IRBuilder(FPType.FP64)
    kernel = b.kernel(
        params=[b.fparam("comp")],
        body=[
            b.decl("tmp_1", b.raw_lit("+1.1147E-307", 1.1147e-307)),
            b.aug(
                "comp",
                "+",
                b.div("tmp_1", b.call("ceil", b.raw_lit("+1.5955E-125", 1.5955e-125))),
            ),
        ],
    )
    program = b.program(kernel, program_id="paper-fig5", note="paper Fig. 5 / case study 2")
    return TestCase(program, [_vec(program, ["+1.2374E-306"])])


# ---------------------------------------------------------------------------
# Fig. 6 — Case Study 3 (Inf vs NaN under optimization)
# ---------------------------------------------------------------------------


def fig6_testcase() -> TestCase:
    """The verbatim Fig. 6 kernel and input."""
    b = IRBuilder(FPType.FP64)
    tmp_init = b.sub(
        b.raw_lit("-1.8007E-323", -1.8007e-323),
        b.call(
            "cosh",
            b.add(
                b.div("var_2", b.raw_lit("-1.7569E192", -1.7569e192)),
                b.add(
                    b.div(
                        b.raw_lit("-1.9894E-307", -1.9894e-307),
                        b.raw_lit("+1.7323E-313", 1.7323e-313),
                    ),
                    "var_3",
                ),
            ),
        ),
    )
    cond_rhs = b.sub(
        b.raw_lit("-1.4205E305", -1.4205e305),
        b.mul(
            b.raw_lit("-1.4055E-312", -1.4055e-312),
            b.add("var_6", b.div(b.raw_lit("-1.7892E214", -1.7892e214), "var_7")),
        ),
    )
    kernel = b.kernel(
        params=[
            b.fparam("comp"),
            b.iparam("var_1"),
            b.fparam("var_2"),
            b.fparam("var_3"),
            b.fparam("var_4"),
            b.fparam("var_5"),
            b.fparam("var_6"),
            b.fparam("var_7"),
            b.fparam("var_8"),
        ],
        body=[
            b.decl("tmp_1", tmp_init),
            b.aug(
                "comp",
                "+",
                b.add(
                    "tmp_1",
                    b.call("fabs", b.sub(b.raw_lit("+1.5726E-307", 1.5726e-307), "var_4")),
                ),
            ),
            b.loop(
                "i",
                "var_1",
                [b.aug("comp", "+", b.div(b.raw_lit("+1.9903E306", 1.9903e306), "var_5"))],
            ),
            b.when(
                b.cmp(">=", "comp", cond_rhs),
                [b.aug("comp", "+", b.mul(b.raw_lit("+1.3803E305", 1.3803e305), "var_8"))],
            ),
        ],
    )
    program = b.program(kernel, program_id="paper-fig6", note="paper Fig. 6 / case study 3")
    inputs = _vec(
        program,
        [
            "-1.5548E-320", "5", "+1.9121E306", "+0.0", "-1.1577E124",
            "-1.8994E-311", "+1.3675E306", "+1.1296E-318", "+1.2915E306",
        ],
    )
    return TestCase(program, [inputs])


def case3_engineered_testcase() -> TestCase:
    """Engineered Case-Study-3 companion.

    Same phenomenon class as Fig. 6 — platforms agree at ``-O0`` and split
    into Inf vs NaN at ``-O1`` — with a mechanism our model can exhibit
    end-to-end: ``comp += var_2 - var_3 * var_4`` is a ``c - a*b`` shape
    that the nvcc model contracts to a fused multiply-add (finite exact
    result) while the hipcc model evaluates unfused (the product overflows
    to ``+Inf``, so the statement adds ``-Inf``).  The following statement
    adds an overflowing product (``+Inf``): the nvcc side stays finite →
    ``+Inf``; the hipcc side computes ``-Inf + Inf = NaN``.  At ``-O0``
    neither contracts and both print ``nan``.
    """
    b = IRBuilder(FPType.FP64)
    kernel = b.kernel(
        params=[
            b.fparam("comp"),
            b.iparam("var_1"),
            b.fparam("var_2"),
            b.fparam("var_3"),
            b.fparam("var_4"),
            b.fparam("var_5"),
            b.fparam("var_6"),
        ],
        body=[
            b.aug("comp", "+", b.sub("var_2", b.mul("var_3", "var_4"))),
            b.aug("comp", "+", b.mul("var_5", "var_6")),
        ],
    )
    program = b.program(kernel, program_id="case3-engineered", note="engineered case study 3")
    inputs = _vec(
        program,
        ["+0.0", "2", "+1.7000E308", "+1.5000E154", "+1.4000E154", "+1.9000E154", "+1.9000E154"],
    )
    return TestCase(program, [inputs])
