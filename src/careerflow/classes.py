"""Career stages, the four productivity counting schemes, and 20/60/20 classes.

Stage windows are calendar intervals derived from the first publication year:
early = publishing years 5-14, mid = years 15-24, late = the fixed last five
calendar years before the reference year. Cohorts are (discipline, stage,
productivity type); classes are assigned by value rank with ties absorbed
into the bottom class and excluded from the top class.
"""
from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .corpus import JournalRecord, PublicationRecord

STAGES = ("early", "mid", "late")
# (first year, length in years) of each stage window; the first year counts
# from the first publication year, the late one's from the reference year
STAGE_WINDOWS = {"early": (4, 10), "mid": (14, 10), "late": (-4, 5)}

PRODUCTIVITY_TYPES = ("P1", "P2", "P3", "P4")
PTYPE_PRESTIGE = {"P1": True, "P2": True, "P3": False, "P4": False}
PTYPE_FRACTIONAL = {"P1": False, "P2": True, "P3": False, "P4": True}

CLASS_ORDER = ("top", "middle", "bottom")
TOP, MIDDLE, BOTTOM = 0, 1, 2
MIN_COHORT_SIZE = 5


def stage_window(first_pub_year: int, stage: str, reference_year: int) -> tuple[int, int]:
    """Inclusive calendar interval of a career stage; elementwise when
    first_pub_year is an array."""
    if stage not in STAGE_WINDOWS:
        raise ValueError(f"unknown stage {stage!r}")
    offset, length = STAGE_WINDOWS[stage]
    lo = (reference_year if stage == "late" else first_pub_year) + offset
    return lo, lo + length - 1


def publication_weight(
    pub: PublicationRecord, ptype: str, journals: dict[str, JournalRecord]
) -> float:
    """Weight of one qualifying publication under a counting scheme.

    Prestige-normalized schemes use the journal's highest per-discipline
    percentile divided by 100; a missing or percentile-less journal weighs 0.
    Fractional schemes divide by the full (uncapped) author count.
    """
    if not pub.qualifying:
        raise ValueError("publication_weight requires an article or conference paper")
    if ptype not in PRODUCTIVITY_TYPES:
        raise ValueError(f"unknown productivity type {ptype!r}")
    if PTYPE_PRESTIGE[ptype]:
        journal = journals.get(pub.journal_id) if pub.journal_id is not None else None
        weight = journal.max_percentile / 100.0 if journal is not None else 0.0
    else:
        weight = 1.0
    if PTYPE_FRACTIONAL[ptype]:
        weight /= len(pub.author_ids)
    return weight


def annual_productivity(
    author_pubs: Iterable[PublicationRecord],
    stage: str,
    ptype: str,
    journals: dict[str, JournalRecord],
    reference_year: int,
) -> float:
    """Weighted qualifying publications per year inside the stage window.

    The window anchors on the author's first publication of any type; an
    empty window yields 0.
    """
    pubs = list(author_pubs)
    first_year = min(p.year for p in pubs)
    lo, hi = stage_window(first_year, stage, reference_year)
    total = sum(
        publication_weight(p, ptype, journals)
        for p in pubs
        if p.qualifying and lo <= p.year <= hi
    )
    return total / STAGE_WINDOWS[stage][1]


# ---------------------------------------------------------------------------
# 20/60/20 assignment


def class_cutoffs(sorted_values: np.ndarray) -> tuple[float, float]:
    """(q20, q80) taken at ascending ranks floor(0.2N) (at least 1) and ceil(0.8N)."""
    n = sorted_values.shape[0]
    rank20 = max(math.floor(0.2 * n), 1)
    rank80 = math.ceil(0.8 * n)
    return float(sorted_values[rank20 - 1]), float(sorted_values[rank80 - 1])


def assign_class_codes(values: np.ndarray) -> tuple[np.ndarray, bool]:
    """Class codes (0 top, 1 middle, 2 bottom) for one cohort's values.

    bottom = value <= q20, top = value > q80. Cohorts below MIN_COHORT_SIZE
    are flagged too-small and assigned entirely to the middle class.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    codes = np.full(n, MIDDLE, dtype=np.int8)
    if n < MIN_COHORT_SIZE:
        return codes, True
    q20, q80 = class_cutoffs(np.sort(values, kind="stable"))
    codes[values <= q20] = BOTTOM
    codes[values > q80] = TOP
    return codes, False


# ---------------------------------------------------------------------------
# bulk productivity and cohort assignment


def stage_masks(years: np.ndarray, first_year: np.ndarray, reference_year: int) -> list[np.ndarray]:
    """One mask over the incidences per stage in STAGES, given each
    incidence's publication year and its author's first publication year:
    the publication falls inside that author's stage window.

    The late window may overlap early or mid for short careers, in which
    case a publication counts in both stages.
    """
    masks = []
    for stage in STAGES:
        lo, hi = stage_window(first_year, stage, reference_year)
        masks.append((years >= lo) & (years <= hi))
    return masks


def incidence_productivity(
    local: np.ndarray, pct: np.ndarray, n_pub_authors: np.ndarray, masks: list[np.ndarray], n: int
) -> np.ndarray:
    """(n, 3, 4) annual productivity per author, stage and counting scheme
    over qualifying incidences, where local is the author index less the
    first author's, pct and n_pub_authors are the float journal percentile
    (negative without one) and full author count of each incidence's
    publication, and masks are their stage_masks.

    Each scheme weighs a publication as publication_weight does, by the
    PTYPE_PRESTIGE and PTYPE_FRACTIONAL tables.
    """
    prestige = np.where(pct < 0, 0.0, pct / 100.0)
    inv_authors = 1.0 / n_pub_authors
    ones = np.ones(pct.shape[0])
    weights = [
        (prestige if PTYPE_PRESTIGE[t] else ones) * (inv_authors if PTYPE_FRACTIONAL[t] else 1.0)
        for t in PRODUCTIVITY_TYPES
    ]
    sums = np.empty((n, len(STAGES), len(PRODUCTIVITY_TYPES)))
    for s, mask in enumerate(masks):
        a = local[mask]
        for t, weight in enumerate(weights):
            sums[:, s, t] = np.bincount(a, weights=weight[mask], minlength=n)
    lengths = np.array([STAGE_WINDOWS[s][1] for s in STAGES], dtype=np.float64)
    return sums / lengths[None, :, None]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique(values) for a 1-d array, in numpy core: numpy 2.4's np.unique
    imports numpy.ma, which analyze otherwise never loads."""
    ordered = np.sort(values)
    first = np.ones(ordered.shape[0], dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def assign_cohort_classes(
    discipline_idx: np.ndarray, productivity: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, str, str]]]:
    """Classes for every (author, stage, ptype) within discipline cohorts.

    discipline_idx and productivity are aligned on sample authors (sorted by
    author id, giving the stable (value, author_id) sort key). Returns codes
    of shape (S, 3, 4) and the list of too-small cohorts as
    (discipline_idx, stage, ptype) tuples.
    """
    codes = np.full(productivity.shape, MIDDLE, dtype=np.int8)
    too_small: list[tuple[int, str, str]] = []
    for disc in sorted_unique(discipline_idx):
        members = np.flatnonzero(discipline_idx == disc)
        for s, stage in enumerate(STAGES):
            for t, ptype in enumerate(PRODUCTIVITY_TYPES):
                cohort_codes, flagged = assign_class_codes(productivity[members, s, t])
                codes[members, s, t] = cohort_codes
                if flagged:
                    too_small.append((int(disc), stage, ptype))
    return codes, too_small
