"""Tables VI / VIII / X — per-optimization adjacency matrices.

The paper presents, for each optimization level, a 4×4 upper-triangular
matrix over the outcome classes {NaN, Inf, Zero, Num}.  Each cell holds a
*directional pair* "a, b": ``a`` counts discrepancies where the NVCC run
produced the row class and the HIPCC run the column class; ``b`` counts
the opposite orientation.  The Num/Num diagonal shows the same count twice
(the paper prints "353, 353" for 353 Num-vs-Num discrepancies).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.fp.classify import OutcomeClass
from repro.fp.classify import OUTCOME_ORDER
from repro.harness.campaign import ArmResult
from repro.utils.tables import Table

__all__ = ["adjacency_counts", "adjacency_table", "adjacency_tables"]

Cell = Tuple[int, int]
Matrix = Dict[Tuple[OutcomeClass, OutcomeClass], Cell]

_ROW_LABELS = {
    OutcomeClass.NAN: "(±) NaN",
    OutcomeClass.INF: "(±) Inf",
    OutcomeClass.ZERO: "(±) Zero",
    OutcomeClass.NUMBER: "Num",
}


def adjacency_counts(arm: ArmResult, opt_label: str) -> Matrix:
    """The upper-triangular directional matrix of one optimization level."""
    order = list(OUTCOME_ORDER)
    rank = {c: i for i, c in enumerate(order)}
    matrix: Matrix = {}
    for i, row in enumerate(order):
        for col in order[i:]:
            matrix[(row, col)] = (0, 0)
    for d in arm.discrepancies:
        if d.opt_label != opt_label:
            continue
        lhs, rhs = d.lhs_outcome, d.rhs_outcome
        if lhs is rhs:  # Num vs Num (same class, different value)
            a, b = matrix[(lhs, rhs)]
            matrix[(lhs, rhs)] = (a + 1, b + 1)  # paper prints "n, n"
        elif rank[lhs] <= rank[rhs]:
            a, b = matrix[(lhs, rhs)]
            matrix[(lhs, rhs)] = (a + 1, b)
        else:
            a, b = matrix[(rhs, lhs)]
            matrix[(rhs, lhs)] = (a, b + 1)
    return matrix


def adjacency_table(arm: ArmResult, opt_label: str, title: str = "") -> Table:
    """Render one optimization level's matrix."""
    matrix = adjacency_counts(arm, opt_label)
    order = list(OUTCOME_ORDER)
    headers = ["NVCC \\ HIPCC"] + [_ROW_LABELS[c] for c in order]
    table = Table(title=title or f"Adjacency matrix, {opt_label}", headers=headers)
    for i, row in enumerate(order):
        cells: List[str] = [_ROW_LABELS[row]]
        for j, col in enumerate(order):
            if j < i:
                cells.append("—")
            else:
                a, b = matrix[(row, col)]
                cells.append(f"{a}, {b}")
        table.add_row(cells)
    return table


def adjacency_tables(arm: ArmResult, title_prefix: str) -> List[Table]:
    """All five levels' matrices, in grid order."""
    return [
        adjacency_table(arm, label, f"{title_prefix} — {label}")
        for label in arm.opt_labels
    ]
