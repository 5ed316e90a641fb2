from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from careerflow.mobility import (
    TransitionMatrix,
    format_percent,
    matrix_table_rows,
    percent_tenths,
    sankey_export,
    sankey_lines,
    transition_matrix_codes,
)

GOLDEN = Path(__file__).parent / "data" / "sankey_golden.txt"

# published early->mid and mid->late count tables, prestige-normalized full
# counting, rows and columns in (top, middle, bottom) order
EARLY_MID_COUNTS = [
    [39083, 25109, 731],
    [24788, 142042, 27867],
    [1057, 27593, 36373],
]
MID_LATE_COUNTS = [
    [39039, 24102, 1787],
    [24213, 137633, 32898],
    [1673, 32790, 30508],
]


def published(counts, from_stage, to_stage, ptype="P1") -> TransitionMatrix:
    return TransitionMatrix(from_stage, to_stage, ptype, "all", np.array(counts, dtype=np.int64))


def percent_cells(matrix: TransitionMatrix) -> dict[tuple[str, str], str]:
    """(from_class, to_class) -> the percent cell analyze writes for it."""
    return {(r[1], r[3]): r[6] for r in matrix_table_rows([matrix], final_summary=False)}


def test_published_percentage_accounting():
    assert format_percent(36373, 65023) == "55.9"
    assert format_percent(1057, 65023) == "1.6"
    assert format_percent(39083, 64923) == "60.2"
    assert format_percent(731, 64923) == "1.1"


def test_percent_rounds_half_away_from_zero():
    assert format_percent(1, 8) == "12.5"
    assert format_percent(1, 16) == "6.3"  # 6.25 rounds up, not to even
    assert format_percent(3, 16) == "18.8"  # 18.75 rounds up
    assert format_percent(0, 7) == "0.0"
    assert format_percent(7, 7) == "100.0"


def test_published_matrix_rates():
    matrix = published(EARLY_MID_COUNTS, "early", "mid")
    assert matrix.class_sizes.tolist() == [64923, 194697, 65023]
    cells = percent_cells(matrix)
    assert cells["top", "top"] == "60.2"
    assert cells["bottom", "bottom"] == "55.9"
    assert cells["bottom", "top"] == "1.6"  # jumpers-up
    assert cells["top", "bottom"] == "1.1"  # droppers-down


def test_identity_class_maps_give_diagonal_matrix():
    codes = np.array([0, 1, 2] * 4, dtype=np.int8)
    matrix = transition_matrix_codes(codes, codes, "early", "mid", "P1", "all")
    assert np.count_nonzero(matrix.counts - np.diag(np.diag(matrix.counts))) == 0
    cells = percent_cells(matrix)
    assert (cells["top", "top"], cells["bottom", "bottom"]) == ("100.0", "100.0")
    assert (cells["bottom", "top"], cells["top", "bottom"]) == ("0.0", "0.0")


def test_six_author_fixture_matches_brute_force():
    classes_from = [0, 0, 1, 1, 2, 2]
    classes_to = [0, 2, 1, 0, 2, 0]
    matrix = transition_matrix_codes(
        np.array(classes_from, dtype=np.int8), np.array(classes_to, dtype=np.int8),
        "early", "mid", "P1", "all",
    )
    # independent enumeration over all six authors
    expected = Counter(zip(classes_from, classes_to))
    for i in range(3):
        for j in range(3):
            assert matrix.counts[i, j] == expected.get((i, j), 0)
    assert matrix.counts.sum() == 6


def test_mismatched_author_sets_fatal():
    with pytest.raises(ValueError):
        transition_matrix_codes(
            np.zeros(3, dtype=np.int8), np.zeros(4, dtype=np.int8), "early", "mid", "P1", "all"
        )


def test_empty_from_class_rate_is_absent_not_zero():
    matrix = transition_matrix_codes(
        np.ones(6, dtype=np.int8), np.zeros(6, dtype=np.int8), "early", "mid", "P1", "all"
    )
    cells = percent_cells(matrix)
    for from_class in ("top", "bottom"):
        assert [cells[from_class, to] for to in ("top", "middle", "bottom")] == ["", "", ""]
    assert cells["middle", "top"] == "100.0"


def test_two_stage_published_numbers():
    counts = [
        [28884, 31848, 4191],
        [31568, 126275, 36854],
        [4473, 36402, 24148],
    ]
    assert format_percent(24148, 65023) == "37.1"  # bottom -> bottom
    assert format_percent(28884, 64923) == "44.5"  # top -> top
    cells = percent_cells(published(counts, "early", "late"))
    assert cells["bottom", "bottom"] == "37.1"
    assert cells["top", "top"] == "44.5"


def test_scope_matrices_stage_pairs():
    from careerflow.pipeline import scope_matrices

    codes = np.zeros((9, 3, 4), dtype=np.int8)
    matrices = scope_matrices(codes, np.ones(9, dtype=bool), "P3", "all")
    assert [(m.from_stage, m.to_stage) for m in matrices] == [
        ("early", "mid"), ("mid", "late"), ("early", "late")
    ]
    assert {(m.ptype, m.scope) for m in matrices} == {("P3", "all")}


def test_row_accounting_and_percent_sum():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(30, 400))
        cf = rng.integers(0, 3, size=n).astype(np.int8)
        ct = rng.integers(0, 3, size=n).astype(np.int8)
        matrix = transition_matrix_codes(cf, ct, "early", "mid", "P1", "all")
        assert matrix.class_sizes.tolist() == np.bincount(cf, minlength=3).tolist()
        assert matrix.counts.sum() == n
        rows = matrix_table_rows([matrix], final_summary=False)
        for i in range(3):
            if matrix.class_sizes[i] > 0:
                row_pct = [float(row[6]) for row in rows[3 * i : 3 * i + 3]]
                assert abs(sum(row_pct) - 100.0) <= 0.1 + 1e-9


def test_aggregating_disciplines_equals_combined():
    rng = np.random.default_rng(15)
    cf = rng.integers(0, 3, size=200).astype(np.int8)
    ct = rng.integers(0, 3, size=200).astype(np.int8)
    discs = np.repeat(np.arange(4), 50)
    per_disc = [
        transition_matrix_codes(cf[discs == d], ct[discs == d], "early", "mid", "P1", f"D{d}")
        for d in range(4)
    ]
    combined = transition_matrix_codes(cf, ct, "early", "mid", "P1", "all")
    assert (sum(m.counts for m in per_disc) == combined.counts).all()


# ---------------------------------------------------------------------------
# Sankey export


def test_sankey_top_row_lines():
    lines = sankey_lines([published(EARLY_MID_COUNTS, "early", "mid")])
    assert lines[0] == "Early Top [60.2] Mid Top"
    assert lines[1] == "Early Top [38.7] Mid Middle"
    assert lines[2] == "Early Top [1.1] Mid Bottom"


def test_sankey_identity_three_lines_at_100():
    codes = np.array([0, 1, 2] * 2, dtype=np.int8)
    lines = sankey_lines([transition_matrix_codes(codes, codes, "early", "mid", "P1", "all")])
    assert lines == [
        "Early Top [100.0] Mid Top",
        "Early Middle [100.0] Mid Middle",
        "Early Bottom [100.0] Mid Bottom",
    ]


def test_sankey_zero_flows_omitted():
    counts = [[5, 0, 0], [0, 5, 0], [2, 0, 3]]
    lines = sankey_lines([published(counts, "early", "mid")])
    assert len(lines) == 4
    assert "Early Bottom [40.0] Mid Top" in lines


def test_sankey_golden_file_byte_exact():
    early_mid = published(EARLY_MID_COUNTS, "early", "mid")
    mid_late = published(MID_LATE_COUNTS, "mid", "late")
    assert sankey_export([early_mid, mid_late]) == GOLDEN.read_text(encoding="utf-8")


def test_jumpers_bounded_by_bottom_row():
    rng = np.random.default_rng(77)
    for _ in range(20):
        cf = rng.integers(0, 3, size=60).astype(np.int8)
        ct = rng.integers(0, 3, size=60).astype(np.int8)
        matrix = transition_matrix_codes(cf, ct, "early", "mid", "P1", "all")
        bottom = int(matrix.class_sizes[2])
        if bottom:
            jumpers_up = percent_tenths(int(matrix.counts[2, 0]), bottom)
            bottom_to_bottom = percent_tenths(int(matrix.counts[2, 2]), bottom)
            assert jumpers_up <= 1000 - bottom_to_bottom + 1


def test_pipeline_scope_matrices_aggregate_to_all():
    from careerflow.pipeline import scope_matrices

    rng = np.random.default_rng(91)
    n = 300
    codes = rng.integers(0, 3, size=(n, 3, 4)).astype(np.int8)
    discs = np.array(["D0", "D1", "D2"])[rng.integers(0, 3, size=n)]
    all_mask = np.ones(n, dtype=bool)
    combined = scope_matrices(codes, all_mask, "P2", "all")
    per_disc = [scope_matrices(codes, discs == d, "P2", d) for d in ("D0", "D1", "D2")]
    for k in range(3):  # early->mid, mid->late, early->late
        assert (sum(m[k].counts for m in per_disc) == combined[k].counts).all()


def test_sankey_requires_shared_ptype_and_scope():
    a = published(EARLY_MID_COUNTS, "early", "mid", ptype="P1")
    b = published(MID_LATE_COUNTS, "mid", "late", ptype="P2")
    with pytest.raises(ValueError):
        sankey_lines([a, b])


def test_matrix_table_rows_structure():
    early_mid = published(EARLY_MID_COUNTS, "early", "mid")
    mid_late = published(MID_LATE_COUNTS, "mid", "late")
    rows = matrix_table_rows([early_mid, mid_late])
    assert len(rows) == 9 + 9 + 3
    assert rows[0] == ("early", "top", "mid", "top", 39083, 64923, "60.2")
    # late summary rows report each class against itself at 100 percent
    late_sizes = mid_late.counts.sum(axis=0)
    assert rows[-3] == ("late", "top", "", "", int(late_sizes[0]), int(late_sizes[0]), "100.0")
