"""Class-transition accounting, transition tables and SankeyMATIC export.

Percentages are computed in exact integer arithmetic and rounded half away
from zero to one decimal, reproducing the published transition tables from
raw counts and class sizes; the mobility rates (top->top, bottom->bottom,
jumpers-up, droppers-down) are cells of the `percent` column.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .classes import CLASS_ORDER

STAGE_LABELS = {"early": "Early", "mid": "Mid", "late": "Late"}


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
    ptype: str
    scope: str
    counts: np.ndarray

    @property
    def class_sizes(self) -> np.ndarray:
        return self.counts.sum(axis=1)


def transition_matrix_codes(
    from_codes: np.ndarray, to_codes: np.ndarray, from_stage: str, to_stage: str, ptype: str, scope: str
) -> TransitionMatrix:
    if from_codes.shape != to_codes.shape:
        raise ValueError("class code arrays must cover the same authors")
    cells = np.bincount(from_codes.astype(np.int64) * 3 + to_codes, minlength=9)
    return TransitionMatrix(from_stage, to_stage, ptype, scope, cells.reshape(3, 3))


def sankey_lines(matrices: Sequence[TransitionMatrix]) -> list[str]:
    """SankeyMATIC flow lines, one matrix after another.

    Nodes carry stage-qualified labels ("Early Top"); flows are ordered
    top -> middle -> bottom by source then target; zero-count flows are
    omitted. All matrices must share a ptype and scope.
    """
    if not matrices:
        return []
    ptypes = {m.ptype for m in matrices}
    scopes = {m.scope for m in matrices}
    if len(ptypes) > 1 or len(scopes) > 1:
        raise ValueError("matrices must share a ptype and scope")
    lines = []
    for matrix in matrices:
        sizes = matrix.class_sizes
        from_label = STAGE_LABELS[matrix.from_stage]
        to_label = STAGE_LABELS[matrix.to_stage]
        for i, from_class in enumerate(CLASS_ORDER):
            for j, to_class in enumerate(CLASS_ORDER):
                count = int(matrix.counts[i, j])
                if count == 0:
                    continue
                pct = format_percent(count, int(sizes[i]))
                lines.append(
                    f"{from_label} {from_class.capitalize()} [{pct}] "
                    f"{to_label} {to_class.capitalize()}"
                )
    return lines


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
        sizes = matrix.class_sizes
        for i, from_class in enumerate(CLASS_ORDER):
            for j, to_class in enumerate(CLASS_ORDER):
                size = int(sizes[i])
                pct = format_percent(int(matrix.counts[i, j]), size) if size else ""
                rows.append(
                    (
                        matrix.from_stage,
                        from_class,
                        matrix.to_stage,
                        to_class,
                        int(matrix.counts[i, j]),
                        size,
                        pct,
                    )
                )
    if matrices and final_summary:
        last = matrices[-1]
        final_sizes = last.counts.sum(axis=0)
        for j, to_class in enumerate(CLASS_ORDER):
            size = int(final_sizes[j])
            rows.append((last.to_stage, to_class, "", "", size, size, "100.0" if size else ""))
    return rows
