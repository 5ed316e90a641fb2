"""Per-author portfolio attributes derived from the corpus.

Reference implementations operate on publication record lists and define the
semantics; derive_portfolios is the vectorized bulk path over CorpusColumns
used by the pipeline. Both are cross-checked in tests.

Publication-quality and collaboration metrics (FWCI, AJPR, collaboration
rate, team size) pool qualifying publications (articles and conference
papers) only; academic age and the dominant-value attributes pool every
publication of any type.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .classes import (
    PRODUCTIVITY_TYPES,
    STAGES,
    incidence_productivity,
    stage_masks,
)
from .columnar import CorpusColumns, author_chunks
from .corpus import Corpus, JournalRecord, PublicationRecord, modal_value

# the per-author attributes are computed over chunks of whole authors
# holding at most this many incidences, or one author's if more
_CHUNK = 1 << 13
# an author's top200 flag: their dominant institution ranks this high or
# higher by publication output over the last TOP_INSTITUTION_YEARS calendar
# years
TOP_INSTITUTIONS = 200
TOP_INSTITUTION_YEARS = 4
# a publication's team size counts at most this many authors
TEAM_SIZE_CAP = 10

FieldBaseline = dict[tuple[str, int], float]


# ---------------------------------------------------------------------------
# reference implementations (record level)


def academic_age(author_pubs: Iterable[PublicationRecord], reference_year: int) -> int:
    """Years between the first publication of any type and the reference year."""
    return reference_year - min(p.year for p in author_pubs)


def dominant_discipline(author_pubs: Iterable[PublicationRecord]) -> str | None:
    """Modal discipline over all cited references, lifetime; ties break to the
    lexicographically smallest code. None when no reference carries one."""
    counts: Counter = Counter()
    for pub in author_pubs:
        counts.update(pub.cited_ref_disciplines)
    return modal_value(counts)


def dominant_affiliation(author_pubs: Iterable[PublicationRecord], kind: str) -> str | None:
    """Modal affiliation (kind = "country" or "institution") over all
    publications, lifetime; same tie-break as dominant_discipline."""
    if kind not in ("country", "institution"):
        raise ValueError(f"unknown affiliation kind {kind!r}")
    counts: Counter = Counter()
    for pub in author_pubs:
        values = pub.affiliation_countries if kind == "country" else pub.affiliation_institutions
        counts.update(values)
    return modal_value(counts)


def intl_collab_rate(author_pubs: Iterable[PublicationRecord]) -> float | None:
    """Percent of collaborative publications (>= 2 authors) that are also
    international (>= 2 affiliation countries); None with no collaborations."""
    collaborative = 0
    international = 0
    for pub in author_pubs:
        if len(pub.author_ids) >= 2:
            collaborative += 1
            if len(pub.affiliation_countries) >= 2:
                international += 1
    if collaborative == 0:
        return None
    return 100.0 * international / collaborative


def median_team_size(author_pubs: Iterable[PublicationRecord]) -> float:
    """Median per-publication author count, each capped at TEAM_SIZE_CAP."""
    sizes = sorted(min(len(p.author_ids), TEAM_SIZE_CAP) for p in author_pubs)
    if not sizes:
        raise ValueError("author has no publications")
    mid = len(sizes) // 2
    if len(sizes) % 2:
        return float(sizes[mid])
    return (sizes[mid - 1] + sizes[mid]) / 2.0


def _journal_disciplines(pub: PublicationRecord, journals: dict[str, JournalRecord]) -> tuple[str, ...]:
    if pub.journal_id is None:
        return ()
    return tuple(sorted(journals[pub.journal_id].percentile_by_discipline))


def build_field_baseline(corpus: Corpus) -> FieldBaseline:
    """Mean in-window citation count per (journal discipline, year) cell over
    all corpus publications; a publication contributes once per discipline of
    its journal."""
    sums: dict[tuple[str, int], float] = {}
    counts: dict[tuple[str, int], int] = {}
    for pub in corpus.publications:
        cits = pub.window_citations
        for disc in _journal_disciplines(pub, corpus.journals):
            cell = (disc, pub.year)
            sums[cell] = sums.get(cell, 0.0) + cits
            counts[cell] = counts.get(cell, 0) + 1
    return {cell: sums[cell] / counts[cell] for cell in sums}


def fwci4y(
    pub: PublicationRecord, journals: dict[str, JournalRecord], baseline: FieldBaseline
) -> float | None:
    """In-window citations over the field baseline; multi-discipline journals
    average the per-discipline ratios. None when every baseline is 0/absent."""
    cits = pub.window_citations
    ratios = []
    for disc in _journal_disciplines(pub, journals):
        mean = baseline.get((disc, pub.year))
        if mean:
            ratios.append(cits / mean)
    if not ratios:
        return None
    return sum(ratios) / len(ratios)


def mean_fwci4y(
    author_pubs: Iterable[PublicationRecord],
    journals: dict[str, JournalRecord],
    baseline: FieldBaseline,
) -> tuple[float | None, int]:
    """Mean publication FWCI over qualifying publications; also returns the
    count of journal-bearing publications skipped for zero/absent baselines."""
    values = []
    skipped = 0
    for pub in author_pubs:
        if not pub.qualifying:
            continue
        value = fwci4y(pub, journals, baseline)
        if value is None:
            if pub.journal_id is not None:
                skipped += 1
            continue
        values.append(value)
    if not values:
        return None, skipped
    return sum(values) / len(values), skipped


def ajpr(
    author_pubs: Iterable[PublicationRecord],
    journals: dict[str, JournalRecord],
    window: tuple[int, int],
) -> float | None:
    """Mean of each in-window qualifying publication's highest per-discipline
    journal percentile; None when the window holds no journal publication."""
    lo, hi = window
    percentiles = [
        journals[p.journal_id].max_percentile
        for p in author_pubs
        if p.qualifying and p.journal_id is not None and lo <= p.year <= hi
    ]
    if not percentiles:
        return None
    return sum(percentiles) / len(percentiles)


def top_institution_cutoff(counts: np.ndarray, top_n: int) -> float:
    """Smallest output count still inside the top_n ranks (ties included)."""
    if counts.shape[0] <= top_n:
        return -np.inf
    return float(np.sort(counts)[::-1][top_n - 1])


def top_institutions(corpus: Corpus) -> set[str]:
    """Institutions ranked in the top TOP_INSTITUTIONS by publication output
    over the last TOP_INSTITUTION_YEARS calendar years; ties at the boundary
    rank are all included."""
    window_lo = corpus.reference_year - TOP_INSTITUTION_YEARS + 1
    counts: Counter = Counter()
    names: set[str] = set()
    for pub in corpus.publications:
        names.update(pub.affiliation_institutions)
        if window_lo <= pub.year <= corpus.reference_year:
            counts.update(pub.affiliation_institutions)
    arr = np.array([counts.get(name, 0) for name in sorted(names)], dtype=np.int64)
    cutoff = top_institution_cutoff(arr, TOP_INSTITUTIONS)
    return {name for name in names if counts.get(name, 0) >= cutoff}


def top200_flag(corpus: Corpus, author_id: str) -> bool:
    pubs = [p for p in corpus.publications if author_id in p.author_ids]
    dominant = dominant_affiliation(pubs, "institution")
    return dominant is not None and dominant in top_institutions(corpus)


# ---------------------------------------------------------------------------
# bulk derivation


@dataclass
class BaselineArrays:
    """The field baseline's (publication, journal discipline) pairs whose
    cell mean is positive: the publication index, the cell (disc_idx *
    n_years + year - first year) and the ratio of the publication's
    in-window citations to the cell mean."""

    pubs: np.ndarray
    cells: np.ndarray
    ratios: np.ndarray


@dataclass
class SampleProductivity:
    """The sampled authors' dominant discipline and annual productivity per
    stage and counting scheme, aligned to sample_idx (ascending author
    index = ascending author_id)."""

    columns: CorpusColumns
    sample_idx: np.ndarray
    discipline_idx: np.ndarray
    productivity: np.ndarray  # (S, 3, 4)

    @property
    def n_sample(self) -> int:
        return self.sample_idx.shape[0]

    def scope_mask(self, scope: str) -> np.ndarray | None:
        """The sample authors in *scope*: all of them for "all", else those of
        the discipline with that code; None for a code the corpus lacks."""
        if scope == "all":
            return np.ones(self.n_sample, dtype=bool)
        vocab = self.columns.disc_vocab
        return self.discipline_idx == vocab.index(scope) if scope in vocab else None


@dataclass
class PortfolioTable(SampleProductivity):
    """Every portfolio attribute of the sampled authors, aligned as the
    productivity is. NaN marks undefined real-valued attributes."""

    academic_age: np.ndarray
    top200: np.ndarray
    intl_rate: np.ndarray
    team_median: np.ndarray
    fwci_mean: np.ndarray
    ajpr_stage: np.ndarray  # (S, 3)
    fwci_skipped_pubs: int
    prestige_uncovered_pubs: int


def _group_mean(groups: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Mean of values in each group, over at least n groups; NaN for an
    empty group."""
    sums = np.bincount(groups, weights=values, minlength=n)
    counts = np.bincount(groups, minlength=n)
    return np.divide(sums, counts, out=np.full(sums.shape[0], np.nan), where=counts > 0)


def build_baseline_arrays(columns: CorpusColumns) -> BaselineArrays:
    n_pubs = columns.n_publications
    year_min = int(columns.pub_year.min()) if n_pubs else 0
    n_years = int(columns.pub_year.max()) - year_min + 1 if n_pubs else 1
    n_cells = len(columns.disc_vocab) * n_years
    jd_pub = np.repeat(np.arange(n_pubs, dtype=np.int64), np.diff(columns.jd_starts))
    cells = columns.jd_disc.astype(np.int64) * n_years + (columns.pub_year[jd_pub] - year_min)
    cits = columns.pub_cits4y[jd_pub]
    # every cell read back holds a publication, so no mean read is NaN
    base = _group_mean(cells, cits, n_cells)[cells]
    valid = base > 0
    return BaselineArrays(jd_pub[valid], cells[valid], cits[valid] / base[valid])


def publication_fwci(columns: CorpusColumns, baseline: BaselineArrays) -> tuple[np.ndarray, int]:
    """Per-publication FWCI (NaN undefined) and the skipped-publication count."""
    fwci = _group_mean(baseline.pubs, baseline.ratios, columns.n_publications)
    has_journal = np.diff(columns.jd_starts) > 0
    skipped = int(np.count_nonzero(has_journal & np.isnan(fwci)))
    return fwci, skipped


def cell_fwci_means(baseline: BaselineArrays) -> np.ndarray:
    """Mean per-publication FWCI contribution within each populated cell.

    Normalization check: every entry is 1.0 up to float accumulation error,
    because each publication's contribution to a cell is its citation count
    over that same cell's mean.
    """
    means = _group_mean(baseline.cells, baseline.ratios, 0)
    return means[~np.isnan(means)]


def _segment_median(group: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Median of values per group; NaN for empty groups."""
    out = np.full(n_groups, np.nan)
    order = np.lexsort((values, group))
    sg = group[order]
    sv = values[order]
    counts = np.bincount(sg, minlength=n_groups)
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    nonempty = counts > 0
    lo = starts[nonempty] + (counts[nonempty] - 1) // 2
    hi = starts[nonempty] + counts[nonempty] // 2
    out[nonempty] = (sv[lo] + sv[hi]) / 2.0
    return out


class _Chunk(NamedTuple):
    """One chunk of whole authors, a0 to a1, and its incidences of
    qualifying publications: the publication, its author's index less a0,
    the float journal percentile (negative without one) and full author
    count of the publication, and the incidences' stage_masks."""

    a0: int
    a1: int
    pubs: np.ndarray
    local: np.ndarray
    pct: np.ndarray
    n_pub_authors: np.ndarray
    masks: list[np.ndarray]

    def productivity(self) -> np.ndarray:
        return incidence_productivity(
            self.local, self.pct, self.n_pub_authors, self.masks, self.a1 - self.a0
        )


def _qualifying_chunks(columns: CorpusColumns) -> Iterator[_Chunk]:
    """The corpus's authors in chunks of at most _CHUNK incidences, or one
    author's if more; every per-author attribute pools qualifying
    publications only. Each author's incidences keep their order, so a value
    summed over them is the same for any _CHUNK."""
    author_starts = columns.author_starts
    for a0, a1 in author_chunks(author_starts, _CHUNK):
        lo, hi = author_starts[a0], author_starts[a1]
        pubs = columns.inc_pub[lo:hi]
        qual = columns.pub_qualifying[pubs]
        pubs = pubs[qual]
        authors = columns.inc_author[lo:hi][qual]
        yield _Chunk(
            a0,
            a1,
            pubs,
            authors - a0,
            columns.pub_percentile[pubs].astype(np.float64),
            columns.pub_n_authors[pubs],
            stage_masks(columns.pub_year[pubs], columns.first_pub_year[authors], columns.reference_year),
        )


def stage_productivity(columns: CorpusColumns, sample_idx: np.ndarray) -> SampleProductivity:
    """The stage productivity alone of the authors at *sample_idx*
    (ascending), as derive_portfolios computes it."""
    productivity = np.empty((columns.n_authors, len(STAGES), len(PRODUCTIVITY_TYPES)))
    for chunk in _qualifying_chunks(columns):
        productivity[chunk.a0 : chunk.a1] = chunk.productivity()
    return SampleProductivity(
        columns, sample_idx, columns.dominant_discipline[sample_idx], productivity[sample_idx]
    )


def derive_portfolios(
    columns: CorpusColumns, sample_idx: np.ndarray | None = None
) -> PortfolioTable:
    """Compute every portfolio attribute for the authors at *sample_idx*
    (ascending; default every author).

    Baselines and the institution ranking use the full corpus. The
    per-author attributes are computed over _qualifying_chunks, so memory
    grows with the publication and author counts and _CHUNK, not with the
    incidences.
    """
    n_authors = columns.n_authors
    if sample_idx is None:
        sample_idx = np.arange(n_authors, dtype=np.int64)

    # the baseline and its pairs are let go before the chunk loop
    fwci, fwci_skipped = publication_fwci(columns, build_baseline_arrays(columns))

    intl_rate = np.empty(n_authors)
    team_median = np.empty(n_authors)
    fwci_mean = np.empty(n_authors)
    ajpr_stage = np.empty((n_authors, len(STAGES)))
    productivity = np.empty((n_authors, len(STAGES), len(PRODUCTIVITY_TYPES)))
    for chunk in _qualifying_chunks(columns):
        a0, a1, pubs, local = chunk.a0, chunk.a1, chunk.pubs, chunk.local
        n = a1 - a0
        # a sum of 100.0s is exact, so the mean is 100.0 * intl / collab
        collab = chunk.n_pub_authors >= 2
        intl_rate[a0:a1] = _group_mean(local[collab], 100.0 * columns.pub_intl[pubs[collab]], n)

        team = np.minimum(chunk.n_pub_authors, TEAM_SIZE_CAP).astype(np.float64)
        team_median[a0:a1] = _segment_median(local, team, n)

        pub_fwci = fwci[pubs]
        fwci_ok = np.isfinite(pub_fwci)
        fwci_mean[a0:a1] = _group_mean(local[fwci_ok], pub_fwci[fwci_ok], n)

        # AJPR per stage over publications in journals with a percentile
        has_pct = chunk.pct >= 0
        for s, mask in enumerate(chunk.masks):
            mask = mask & has_pct
            ajpr_stage[a0:a1, s] = _group_mean(local[mask], chunk.pct[mask], n)

        productivity[a0:a1] = chunk.productivity()

    # institution ranking over the last TOP_INSTITUTION_YEARS calendar years
    window_lo = columns.reference_year - TOP_INSTITUTION_YEARS + 1
    in_window = (columns.pub_year >= window_lo) & (columns.pub_year <= columns.reference_year)
    inst_counts = np.bincount(
        columns.inst_flat[np.repeat(in_window, np.diff(columns.inst_starts))],
        minlength=len(columns.inst_vocab),
    ).astype(np.int64)
    top_mask = inst_counts >= top_institution_cutoff(inst_counts, TOP_INSTITUTIONS)
    # the code -1, no institution, picks the trailing False
    top200 = np.append(top_mask, False)[columns.dominant_institution_idx]

    age = columns.reference_year - columns.first_pub_year
    # qualifying publications whose prestige weight is 0 for want of a percentile
    uncovered = int(np.count_nonzero((columns.pub_percentile < 0) & columns.pub_qualifying))

    return PortfolioTable(
        columns=columns,
        sample_idx=sample_idx,
        discipline_idx=columns.dominant_discipline[sample_idx],
        productivity=productivity[sample_idx],
        academic_age=age[sample_idx],
        top200=top200[sample_idx],
        intl_rate=intl_rate[sample_idx],
        team_median=team_median[sample_idx],
        fwci_mean=fwci_mean[sample_idx],
        ajpr_stage=ajpr_stage[sample_idx],
        fwci_skipped_pubs=fwci_skipped,
        prestige_uncovered_pubs=uncovered,
    )
