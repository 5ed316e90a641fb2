"""Class-transition accounting, transition tables and SankeyMATIC export.

Percentages are computed in exact integer arithmetic and rounded half away
from zero to one decimal, reproducing the published transition tables from
raw counts and class sizes; the mobility rates (top->top, bottom->bottom,
jumpers-up, droppers-down) are cells of the `percent` column.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .classes import CLASS_ORDER


def percent_tenths(count: int, size: int) -> int:
    """100 * count / size in tenths of a percent, half rounded away from zero."""
    if size <= 0:
        raise ValueError("class size must be positive")
    return (2000 * count + size) // (2 * size)


def format_percent(count: int, size: int) -> str:
    tenths = percent_tenths(count, size)
    return f"{tenths // 10}.{tenths % 10}"


@dataclass
class TransitionMatrix:
    """3x3 class-flow counts between two career stages.

    counts is indexed (from_class, to_class) in CLASS_ORDER (top, middle,
    bottom); class_sizes are the row totals.
    """

    from_stage: str
    to_stage: str
    counts: np.ndarray

    @property
    def class_sizes(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def flows(self) -> Iterator[tuple[str, str, int, int]]:
        """(from_class, to_class, count, from-class size) of each of the 9
        flows, by source then target, in CLASS_ORDER."""
        counts, sizes = self.counts.tolist(), self.class_sizes.tolist()
        for from_class, row, size in zip(CLASS_ORDER, counts, sizes):
            for to_class, count in zip(CLASS_ORDER, row):
                yield from_class, to_class, count, size


def transition_matrix_codes(
    from_codes: np.ndarray, to_codes: np.ndarray, from_stage: str, to_stage: str
) -> TransitionMatrix:
    if from_codes.shape != to_codes.shape:
        raise ValueError("class code arrays must cover the same authors")
    cells = np.bincount(from_codes.astype(np.int64) * 3 + to_codes, minlength=9)
    return TransitionMatrix(from_stage, to_stage, cells.reshape(3, 3))


def sankey_lines(matrices: Sequence[TransitionMatrix]) -> list[str]:
    """SankeyMATIC flow lines, one matrix after another.

    Nodes carry stage-qualified labels ("Early Top"); flows are ordered
    top -> middle -> bottom by source then target; zero-count flows are
    omitted.
    """
    return [
        f"{matrix.from_stage.capitalize()} {from_class.capitalize()} "
        f"[{format_percent(count, size)}] "
        f"{matrix.to_stage.capitalize()} {to_class.capitalize()}"
        for matrix in matrices
        for from_class, to_class, count, size in matrix.flows()
        if count
    ]


def sankey_export(matrices: Sequence[TransitionMatrix]) -> str:
    return "\n".join(sankey_lines(matrices)) + "\n"


MATRIX_TABLE_HEADER = (
    "from_stage",
    "from_class",
    "to_stage",
    "to_class",
    "count",
    "class_size",
    "percent",
)


def matrix_table_rows(
    matrices: Iterable[TransitionMatrix], final_summary: bool = True
) -> list[tuple]:
    """Rows in the published table's column structure, one per flow, with
    class-size summary rows (percent 100.0) appended for the final stage."""
    matrices = list(matrices)
    rows: list[tuple] = []
    for matrix in matrices:
        for from_class, to_class, count, size in matrix.flows():
            pct = format_percent(count, size) if size else ""
            rows.append((matrix.from_stage, from_class, matrix.to_stage, to_class, count, size, pct))
    if matrices and final_summary:
        last = matrices[-1]
        for to_class, size in zip(CLASS_ORDER, last.counts.sum(axis=0).tolist()):
            rows.append((last.to_stage, to_class, "", "", size, size, "100.0" if size else ""))
    return rows
