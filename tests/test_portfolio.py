import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from careerflow import columnar, portfolio
from careerflow.classes import PRODUCTIVITY_TYPES, STAGES, annual_productivity
from careerflow.columnar import columns_from_corpus, gender_gate
from careerflow.corpus import (
    AuthorRecord,
    AuthorSummary,
    SampleFilterConfig,
    accumulate_summaries,
    filter_sample,
    modal_value,
)
from careerflow.portfolio import (
    academic_age,
    ajpr,
    build_baseline_arrays,
    build_field_baseline,
    cell_fwci_means,
    derive_portfolios,
    dominant_affiliation,
    dominant_discipline,
    fwci4y,
    intl_collab_rate,
    mean_fwci4y,
    median_team_size,
    publication_fwci,
    stage_productivity,
    top200_flag,
    top_institution_cutoff,
    top_institutions,
)
from careerflow.classes import stage_window
from careerflow.pipeline import portfolio_lines
from careerflow.synth import CohortConfig, CorpusConfig, gen_corpus

from conftest import make_corpus, make_pub


# ---------------------------------------------------------------------------
# academic age


def test_academic_age_direct_subtraction():
    pubs = [make_pub(year=1997)]
    assert academic_age(pubs, 2022) == 25


def test_academic_age_boundary_zero():
    assert academic_age([make_pub(year=2022)], 2022) == 0


def test_academic_age_any_doc_type_counts():
    pubs = [make_pub(pub_id="p1", year=2001, doc_type="other"), make_pub(pub_id="p2", year=2003)]
    assert academic_age(pubs, 2022) == 21


# ---------------------------------------------------------------------------
# dominant values


def test_dominant_discipline_unique_mode():
    pubs = [make_pub(refs=("MED",) * 5 + ("BIO",) * 2)]
    assert dominant_discipline(pubs) == "MED"


def test_dominant_discipline_tie_breaks_lexicographically():
    pubs = [make_pub(refs=("MED",) * 3 + ("BIO",) * 3)]
    assert dominant_discipline(pubs) == "BIO"


def test_dominant_discipline_singleton():
    assert dominant_discipline([make_pub(refs=("CHEM",))]) == "CHEM"


def test_dominant_discipline_empty_is_none():
    assert dominant_discipline([make_pub(refs=())]) is None


def test_dominant_country_unique_mode():
    pubs = [make_pub(pub_id=f"p{k}", countries=("US",)) for k in range(4)]
    pubs.append(make_pub(pub_id="p5", countries=("JP",)))
    assert dominant_affiliation(pubs, "country") == "US"


def test_dominant_country_tie_breaks_to_jp():
    pubs = [make_pub(pub_id=f"p{k}", countries=("US",)) for k in range(2)]
    pubs += [make_pub(pub_id=f"q{k}", countries=("JP",)) for k in range(2)]
    assert dominant_affiliation(pubs, "country") == "JP"


def test_dominant_single_affiliation():
    assert dominant_affiliation([make_pub(institutions=("inst9",))], "institution") == "inst9"


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(7))))
def test_dominant_permutation_invariant(order):
    base = [
        make_pub(pub_id=f"p{k}", refs=refs, countries=(c,))
        for k, (refs, c) in enumerate(
            [
                (("MED", "BIO"), "US"),
                (("MED",), "JP"),
                (("BIO",), "JP"),
                (("CHEM",), "US"),
                (("MED",), "DE"),
                (("BIO",), "US"),
                (("BIO",), "FR"),
            ]
        )
    ]
    shuffled = [base[i] for i in order]
    assert dominant_discipline(shuffled) == dominant_discipline(base)
    assert dominant_affiliation(shuffled, "country") == dominant_affiliation(base, "country")


# ---------------------------------------------------------------------------
# gender gate


def test_gender_gate_accepts_above_threshold():
    assert gender_gate("male", 0.90) == "male"


def test_gender_gate_boundary_inclusive():
    assert gender_gate("female", 0.85) == "female"


def test_gender_gate_below_threshold_unknown():
    assert gender_gate("male", 0.60) == "unknown"


# ---------------------------------------------------------------------------
# collaboration metrics


def test_intl_collab_rate_half():
    pubs = [
        make_pub(pub_id="p1", authors=("a1",), countries=("US",)),
        make_pub(pub_id="p2", authors=("a1", "a2"), countries=("US",)),
        make_pub(pub_id="p3", authors=("a1", "a2", "a3"), countries=("US", "JP")),
    ]
    assert intl_collab_rate(pubs) == 50.0


def test_intl_collab_rate_solo_only_undefined():
    pubs = [make_pub(pub_id=f"p{k}", authors=("a1",)) for k in range(3)]
    assert intl_collab_rate(pubs) is None


def test_intl_collab_rate_three_of_four():
    pubs = [
        make_pub(pub_id=f"p{k}", authors=("a1", "a2"), countries=("US", "JP"))
        for k in range(3)
    ]
    pubs.append(make_pub(pub_id="p4", authors=("a1", "a2"), countries=("US",)))
    assert intl_collab_rate(pubs) == 75.0


def test_median_team_size_cap():
    pubs = [
        make_pub(pub_id="p1", authors=tuple(f"a{i}" for i in range(3))),
        make_pub(pub_id="p2", authors=tuple(f"a{i}" for i in range(12))),
        make_pub(pub_id="p3", authors=tuple(f"a{i}" for i in range(5))),
    ]
    assert median_team_size(pubs) == 5


def test_median_team_size_single_capped():
    assert median_team_size([make_pub(authors=tuple(f"a{i}" for i in range(15)))]) == 10


def test_median_team_size_even_length():
    pubs = [
        make_pub(pub_id="p1", authors=("a1", "a2")),
        make_pub(pub_id="p2", authors=("a1", "a2", "a3", "a4")),
    ]
    assert median_team_size(pubs) == 3.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=15))
def test_median_in_bounds_and_cap_monotone(sizes):
    pubs = [
        make_pub(pub_id=f"p{k}", authors=tuple(f"a{i}" for i in range(n)))
        for k, n in enumerate(sizes)
    ]
    m = median_team_size(pubs)
    assert 1 <= m <= 10
    # raising one raw count never lowers the median
    bumped = [
        make_pub(pub_id=f"q{k}", authors=tuple(f"a{i}" for i in range(n + 1)))
        for k, n in enumerate(sizes)
    ]
    assert median_team_size(bumped) >= m


# ---------------------------------------------------------------------------
# field baseline and FWCI


def test_baseline_mean_of_two():
    pubs = [
        make_pub(pub_id="p1", year=2000, journal="j1", citations={2000: 4}),
        make_pub(pub_id="p2", year=2000, journal="j1", citations={2004: 9}),  # out of window
    ]
    corpus = make_corpus(pubs, journals={"j1": {"MED": 50}})
    baseline = build_field_baseline(corpus)
    assert baseline[("MED", 2000)] == 2.0


def test_baseline_three_pub_cell():
    pubs = [
        make_pub(pub_id=f"p{k}", year=2000, journal="j1", citations={2001: c})
        for k, c in enumerate([1, 2, 3])
    ]
    corpus = make_corpus(pubs, journals={"j1": {"MED": 50}})
    assert build_field_baseline(corpus)[("MED", 2000)] == 2.0


def test_baseline_empty_cell_absent():
    corpus = make_corpus([make_pub(journal=None)], journals={"j1": {"MED": 50}})
    assert build_field_baseline(corpus) == {}


def test_fwci_identity_and_ratio():
    pubs = [
        make_pub(pub_id="p1", year=2000, journal="j1", citations={2000: 8}),
        make_pub(pub_id="p2", year=2000, journal="j1", citations={2000: 0}),
    ]
    corpus = make_corpus(pubs, journals={"j1": {"MED": 50}})
    baseline = build_field_baseline(corpus)  # cell mean = 4.0
    assert fwci4y(pubs[0], corpus.journals, baseline) == 2.0
    assert fwci4y(pubs[1], corpus.journals, baseline) == 0.0
    # a publication cited exactly at the field mean has FWCI 1.0
    pub_at_mean = make_pub(pub_id="p3", year=2000, journal="j1", citations={2001: 4})
    assert fwci4y(pub_at_mean, corpus.journals, baseline) == 1.0


def test_fwci_multi_discipline_mean_of_ratios():
    pubs = [
        make_pub(pub_id="p1", year=2000, journal="jm", citations={2000: 2}),
        make_pub(pub_id="p2", year=2000, journal="jb", citations={2000: 8}),
        make_pub(pub_id="p3", year=2000, journal="jboth", citations={2000: 4}),
    ]
    corpus = make_corpus(
        pubs, journals={"jm": {"MED": 10}, "jb": {"BIO": 20}, "jboth": {"BIO": 30, "MED": 40}}
    )
    baseline = build_field_baseline(corpus)
    # MED cell: pubs p1, p3 -> mean 3; BIO cell: pubs p2, p3 -> mean 6
    assert baseline[("MED", 2000)] == 3.0
    assert baseline[("BIO", 2000)] == 6.0
    expected = (4 / 3.0 + 4 / 6.0) / 2.0
    assert fwci4y(pubs[2], corpus.journals, baseline) == pytest.approx(expected, abs=1e-12)


def test_mean_fwci_skips_zero_baseline_with_counter():
    pubs = [
        make_pub(pub_id="p1", year=2000, journal="j1", citations={}),
        make_pub(pub_id="p2", year=2000, journal="j1", citations={}),
        make_pub(pub_id="p3", year=2001, journal="j1", citations={2001: 3}),
    ]
    corpus = make_corpus(pubs, journals={"j1": {"MED": 50}})
    baseline = build_field_baseline(corpus)
    mean, skipped = mean_fwci4y(pubs, corpus.journals, baseline)
    assert skipped == 2  # the 2000 cell has mean 0
    assert mean == 1.0  # only p3 contributes, at its own cell mean


def test_cell_normalization_on_random_corpus():
    corpus = gen_corpus(
        CorpusConfig(cohort=CohortConfig(n_authors=50, n_disciplines=3, seed=21, ability_spread=0.7))
    )
    columns = columns_from_corpus(corpus)
    means = cell_fwci_means(build_baseline_arrays(columns))
    assert means.shape[0] > 0
    assert np.abs(means - 1.0).max() < 1e-9


# ---------------------------------------------------------------------------
# AJPR


def test_ajpr_mean_of_percentiles():
    pubs = [
        make_pub(pub_id="p1", year=2000, journal="j90"),
        make_pub(pub_id="p2", year=2001, journal="j40"),
    ]
    corpus = make_corpus(pubs, journals={"j90": {"MED": 90}, "j40": {"MED": 40}})
    assert ajpr(pubs, corpus.journals, (1998, 2005)) == 65.0


def test_ajpr_uses_highest_percentile_discipline():
    pubs = [make_pub(pub_id="p1", year=2000, journal="jboth")]
    corpus = make_corpus(pubs, journals={"jboth": {"MED": 80, "BIO": 92}})
    assert ajpr(pubs, corpus.journals, (2000, 2000)) == 92.0


def test_ajpr_empty_window_absent():
    pubs = [make_pub(pub_id="p1", year=2000, journal="j90")]
    corpus = make_corpus(pubs, journals={"j90": {"MED": 90}})
    assert ajpr(pubs, corpus.journals, (2005, 2010)) is None


def test_stage_windows():
    assert stage_window(1990, "early", 2022) == (1994, 2003)
    assert stage_window(1990, "mid", 2022) == (2004, 2013)
    assert stage_window(1990, "late", 2022) == (2018, 2022)


# ---------------------------------------------------------------------------
# top-200 institutions


def test_top200_degenerate_small_corpus_all_true():
    pubs = [
        make_pub(pub_id=f"p{k}", year=2021, authors=("a1",), institutions=(f"inst{k}",))
        for k in range(3)
    ]
    corpus = make_corpus(pubs)
    assert top_institutions(corpus) == {"inst0", "inst1", "inst2"}
    assert top200_flag(corpus, "a1") is True


def test_top_institution_cutoff_rank_201_no_tie():
    counts = np.arange(300, 0, -1)  # 300 institutions, all distinct
    cutoff = top_institution_cutoff(counts, 200)
    assert cutoff == 101  # the 200th largest
    assert np.count_nonzero(counts >= cutoff) == 200
    # rank 201 (count 100) is excluded
    assert 100 < cutoff


def test_top_institution_tie_spanning_rank_200():
    # distinct counts for ranks 1..198, then four tied institutions spanning
    # ranks 199-202; the tie at rank 200 pulls all four inside
    counts = np.concatenate([np.arange(1000, 802, -1), [700, 700, 700, 700], [5, 4, 3]])
    cutoff = top_institution_cutoff(counts, 200)
    assert cutoff == 700
    assert np.count_nonzero(counts >= cutoff) == 202


def test_bulk_top200_with_no_institution_and_no_journal():
    """An empty institution ranking flags no author, and no journal gives
    no baseline pair."""
    corpus = gen_corpus(CorpusConfig(cohort=CohortConfig(n_authors=20, n_disciplines=2, seed=5)))
    for pub in corpus.publications:
        pub.affiliation_institutions, pub.journal_id = (), None
    columns = columns_from_corpus(corpus)
    assert columns.inst_vocab == []
    table = derive_portfolios(columns)
    assert top_institutions(corpus) == set()
    assert table.top200.tolist() == [top200_flag(corpus, aid) for aid in columns.author_ids]
    assert not table.top200.any()
    assert np.isnan(table.fwci_mean).all()


# ---------------------------------------------------------------------------
# bulk path parity with the reference implementations


def test_bulk_matches_reference_on_synthetic_corpus():
    corpus = gen_corpus(
        CorpusConfig(
            cohort=CohortConfig(n_authors=40, n_disciplines=2, seed=13, ability_spread=0.6),
            min_academic_age=25,
        )
    )
    retained, _ = filter_sample(corpus, SampleFilterConfig())
    columns = columns_from_corpus(corpus)
    index = {a: i for i, a in enumerate(columns.author_ids)}
    table = derive_portfolios(columns, np.array(sorted(index[a] for a in retained)))
    baseline = build_field_baseline(corpus)
    top_set = top_institutions(corpus)

    by_author: dict[str, list] = {}
    for pub in corpus.publications:
        for aid in pub.author_ids:
            by_author.setdefault(aid, []).append(pub)

    records = {r["author_id"]: r for r in map(json.loads, portfolio_lines(table))}
    assert set(records) == retained

    for aid in sorted(retained):
        pubs = by_author[aid]
        qual = [p for p in pubs if p.qualifying]
        rec = records[aid]
        assert rec["academic_age"] == academic_age(pubs, corpus.reference_year)
        assert rec["dominant_discipline"] == dominant_discipline(pubs)
        assert rec["dominant_country"] == dominant_affiliation(pubs, "country")
        assert rec["dominant_institution"] == dominant_affiliation(pubs, "institution")
        assert rec["top200"] == (rec["dominant_institution"] in top_set)

        ref_rate = intl_collab_rate(qual)
        if ref_rate is None:
            assert rec["intl_collab_rate"] is None
        else:
            assert rec["intl_collab_rate"] == pytest.approx(ref_rate, abs=1e-6)
        assert rec["median_team_size"] == pytest.approx(median_team_size(qual), abs=1e-9)

        ref_fwci, _ = mean_fwci4y(pubs, corpus.journals, baseline)
        if ref_fwci is None:
            assert rec["mean_fwci4y"] is None
        else:
            assert rec["mean_fwci4y"] == pytest.approx(ref_fwci, abs=1e-6)

        first = min(p.year for p in pubs)
        for stage in ("early", "mid", "late"):
            window = stage_window(first, stage, corpus.reference_year)
            ref_ajpr = ajpr(pubs, corpus.journals, window)
            if ref_ajpr is None:
                assert stage not in rec["ajpr_by_stage"]
            else:
                assert rec["ajpr_by_stage"][stage] == pytest.approx(ref_ajpr, abs=1e-6)


def test_publication_fwci_matches_reference():
    corpus = gen_corpus(CorpusConfig(cohort=CohortConfig(n_authors=25, n_disciplines=2, seed=2)))
    columns = columns_from_corpus(corpus)
    arrays = build_baseline_arrays(columns)
    bulk_fwci, _ = publication_fwci(columns, arrays)
    baseline = build_field_baseline(corpus)
    for i, pub in enumerate(corpus.publications):
        ref = fwci4y(pub, corpus.journals, baseline)
        if ref is None:
            assert not math.isfinite(bulk_fwci[i])
        else:
            assert bulk_fwci[i] == pytest.approx(ref, abs=1e-9)


# ---------------------------------------------------------------------------
# modal values in author chunks

CHUNKS = [1, 2, 3, 7]


def reference_modes(corpus) -> dict[str, tuple]:
    """Each author's modal discipline, country and institution from the
    record-level reference, None where the author lists no value."""
    summaries = accumulate_summaries(corpus.publications, corpus.reference_year, 5)
    institutions: dict[str, Counter] = {}
    for pub in corpus.publications:
        for aid in pub.author_ids:
            institutions.setdefault(aid, Counter()).update(pub.affiliation_institutions)
    empty = AuthorSummary()
    return {
        aid: (
            modal_value(summaries.get(aid, empty).disciplines),
            modal_value(summaries.get(aid, empty).countries),
            modal_value(institutions.get(aid, Counter())),
        )
        for aid in corpus.authors
    }


def columnar_modes(corpus, chunk: int) -> dict[str, tuple]:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(columnar, "_CHUNK", chunk)
        columns = columns_from_corpus(corpus)

    def name(vocab, code):
        return vocab[code] if code >= 0 else None

    return {
        aid: (
            name(columns.disc_vocab, columns.dominant_discipline[i]),
            name(columns.country_vocab, columns.dominant_country_idx[i]),
            name(columns.inst_vocab, columns.dominant_institution_idx[i]),
        )
        for i, aid in enumerate(columns.author_ids)
    }


@pytest.mark.parametrize("chunk", CHUNKS)
def test_modal_values_match_the_record_reference(chunk):
    corpus = gen_corpus(
        CorpusConfig(
            cohort=CohortConfig(n_authors=60, n_disciplines=3, seed=17),
            n_countries=2,
            n_institutions=4,
        )
    )
    # zz-tie holds one of each value twice over, listed largest code first;
    # zz-empty has a publication with no values, zz-none no publication;
    # zz-heavy alone lists more values than any chunk, from a vocabulary
    # wider than a chunk
    for aid in ("zz-tie", "zz-empty", "zz-none", "zz-heavy"):
        corpus.authors[aid] = AuthorRecord(aid, "unknown", 0.0)
    corpus.publications += [
        make_pub(
            pub_id=f"zz-{country}",
            authors=("zz-tie",),
            countries=(country,),
            institutions=(inst,),
            refs=(disc,),
        )
        for country, inst, disc in (("C01", "inst0003", "D02"), ("C00", "inst0001", "D00"))
    ]
    corpus.publications.append(
        make_pub(pub_id="zz-empty", authors=("zz-empty",), countries=(), institutions=())
    )
    wide = [f"W{k:02d}" for k in range(12)]
    corpus.publications += [
        make_pub(
            pub_id=f"zz-heavy-{k}",
            authors=("zz-heavy",),
            countries=wide[k:],
            institutions=wide[: k + 1],
            refs=tuple(wide[k:]) + ("W05",) * k,
        )
        for k in range(10)
    ]
    assert len(corpus.publications[-1].cited_ref_disciplines) > max(CHUNKS)

    modes = columnar_modes(corpus, chunk)
    assert modes == reference_modes(corpus)
    assert modes["zz-tie"] == ("D00", "C00", "inst0001")
    assert modes["zz-empty"] == modes["zz-none"] == (None, None, None)
    assert modes["zz-heavy"] == ("W05", "W09", "W00")


VALUES = st.sampled_from([f"V{k:02d}" for k in range(10)])


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from([f"a{k}" for k in range(8)]), min_size=1, max_size=3, unique=True),
            st.lists(VALUES, max_size=3),
            st.lists(VALUES, max_size=4),
            st.lists(VALUES, max_size=12),
        ),
        max_size=25,
    )
)
def test_modal_values_match_the_record_reference_on_fuzzed_corpora(chunk, spec):
    pubs = [
        make_pub(pub_id=f"p{k}", authors=authors, countries=countries, institutions=insts, refs=refs)
        for k, (authors, countries, insts, refs) in enumerate(spec)
    ]
    corpus = make_corpus(pubs)
    assert columnar_modes(corpus, chunk) == reference_modes(corpus)


def test_modal_value_memory_is_bounded_by_incidences_and_chunk(monkeypatch):
    """Every publication cites 40 to 60 disciplines, so the (author, value)
    entries outnumber the incidences fifty-fold; the tracemalloc peak of
    each _modal_from_ragged call must not grow with them."""
    rng = np.random.default_rng(5)
    discs = [f"D{k:02d}" for k in range(16)]
    pubs = [
        make_pub(
            pub_id=f"p{k}",
            authors={f"a{a:04d}" for a in rng.integers(0, 1500, rng.integers(1, 5))},
            institutions=(f"I{rng.integers(0, 9)}",),
            refs=[discs[d] for d in rng.integers(0, 16, rng.integers(40, 61))],
        )
        for k in range(6000)
    ]
    real = columnar._modal_from_ragged
    calls = []

    def traced(inc_author, inc_pub, starts, values, n_values, n_authors):
        entries = int((starts[inc_pub + 1] - starts[inc_pub]).sum())
        tracemalloc.start()
        try:
            return real(inc_author, inc_pub, starts, values, n_values, n_authors)
        finally:
            calls.append((inc_author.shape[0], entries, tracemalloc.get_traced_memory()[1]))
            tracemalloc.stop()

    monkeypatch.setattr(columnar, "_modal_from_ragged", traced)
    columns_from_corpus(make_corpus(pubs))
    n_inc, entries, _ = calls[0]  # the cited disciplines
    assert entries >= 40 * n_inc
    # 64 bytes per incidence and per entry of a chunk of the shipped size
    for n_inc, entries, peak in calls:
        assert peak <= 64 * (n_inc + (1 << 16)), (n_inc, entries, peak)


# ---------------------------------------------------------------------------
# per-author attributes in author chunks


def chunked_attributes(columns, chunk: int) -> dict[str, np.ndarray]:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(portfolio, "_CHUNK", chunk)
        table = derive_portfolios(columns)
    return {
        name: getattr(table, name)
        for name in ("intl_rate", "team_median", "fwci_mean", "ajpr_stage", "productivity")
    }


@pytest.mark.parametrize("chunk", [1, 7, portfolio._CHUNK])
def test_stage_productivity_is_the_derived_productivity(chunk):
    """The productivity-only path gives the full derivation's productivity
    and disciplines bit for bit, for a sample and any chunk size."""
    corpus = gen_corpus(CorpusConfig(cohort=CohortConfig(n_authors=60, n_disciplines=3, seed=21)))
    columns = columns_from_corpus(corpus)
    sample_idx = np.arange(1, columns.n_authors, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(portfolio, "_CHUNK", chunk)
        table = derive_portfolios(columns, sample_idx)
        sample = stage_productivity(columns, sample_idx)
    assert type(sample) is portfolio.SampleProductivity
    assert sample.sample_idx is sample_idx
    assert sample.productivity.tobytes() == table.productivity.tobytes()
    assert sample.discipline_idx.tobytes() == table.discipline_idx.tobytes()
    assert sample.productivity.any()


def assert_matches_record_reference(corpus, columns, attributes: dict[str, np.ndarray]) -> None:
    """Each author's chunked attributes against the record-level reference;
    an undefined reference value is NaN in the columns."""
    baseline = build_field_baseline(corpus)
    by_author: dict[str, list] = {}
    for pub in corpus.publications:
        for aid in pub.author_ids:
            by_author.setdefault(aid, []).append(pub)

    def same(value, ref, tol):
        if ref is None:
            assert math.isnan(value)
        else:
            assert value == pytest.approx(ref, abs=tol)

    for idx, aid in enumerate(columns.author_ids):
        pubs = by_author.get(aid)
        if not pubs:  # nothing is defined, and every productivity is 0
            assert math.isnan(attributes["team_median"][idx])
            assert not attributes["productivity"][idx].any()
            continue
        qual = [p for p in pubs if p.qualifying]
        same(attributes["intl_rate"][idx], intl_collab_rate(qual), 1e-9)
        same(attributes["team_median"][idx], median_team_size(qual) if qual else None, 0)
        same(attributes["fwci_mean"][idx], mean_fwci4y(pubs, corpus.journals, baseline)[0], 1e-9)
        first = min(p.year for p in pubs)
        for s, stage in enumerate(STAGES):
            window = stage_window(first, stage, corpus.reference_year)
            same(attributes["ajpr_stage"][idx, s], ajpr(pubs, corpus.journals, window), 1e-9)
            for t, ptype in enumerate(PRODUCTIVITY_TYPES):
                ref = annual_productivity(pubs, stage, ptype, corpus.journals, corpus.reference_year)
                assert attributes["productivity"][idx, s, t] == pytest.approx(ref, abs=1e-12)


def assert_same_bits(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> None:
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name


@pytest.mark.parametrize("chunk", CHUNKS)
def test_chunked_derive_matches_the_record_reference(chunk):
    corpus = gen_corpus(
        CorpusConfig(cohort=CohortConfig(n_authors=30, n_disciplines=2, seed=23, ability_spread=0.6))
    )
    # zz-other has no qualifying publication and zz-none no publication
    corpus.authors["zz-none"] = AuthorRecord("zz-none", "unknown", 0.0)
    corpus.authors["zz-other"] = AuthorRecord("zz-other", "unknown", 0.0)
    corpus.publications.append(
        make_pub(pub_id="zz-other", year=2010, doc_type="other", authors=("zz-other",))
    )
    columns = columns_from_corpus(corpus)
    # one author's incidences outnumber every chunk size
    assert np.diff(columns.author_starts).max() > max(CHUNKS)
    attributes = chunked_attributes(columns, chunk)
    assert_matches_record_reference(corpus, columns, attributes)
    assert_same_bits(attributes, chunked_attributes(columns, portfolio._CHUNK))


JOURNALS = st.sampled_from([None, "J1", "J2", "J3"])


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from([f"a{k}" for k in range(6)]), min_size=1, max_size=4, unique=True),
            st.integers(1985, 2022),
            st.sampled_from(["article", "conference_paper", "other"]),
            st.lists(st.sampled_from(["C1", "C2", "C3"]), max_size=3),
            JOURNALS,
            st.dictionaries(st.integers(1985, 2022), st.integers(0, 9), max_size=4),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_chunked_derive_matches_the_record_reference_on_fuzzed_corpora(chunk, spec):
    pubs = [
        make_pub(
            pub_id=f"p{k}",
            year=year,
            doc_type=doc_type,
            authors=authors,
            countries=countries,
            journal=journal,
            citations={y: n for y, n in citations.items() if y >= year},
        )
        for k, (authors, year, doc_type, countries, journal, citations) in enumerate(spec)
    ]
    corpus = make_corpus(pubs, journals={"J1": {"D1": 40}, "J2": {"D1": 90, "D2": 10}, "J3": {"D3": 0}})
    columns = columns_from_corpus(corpus)
    attributes = chunked_attributes(columns, chunk)
    assert_matches_record_reference(corpus, columns, attributes)
    assert_same_bits(attributes, chunked_attributes(columns, portfolio._CHUNK))


def test_derive_memory_is_bounded_by_publications_authors_and_chunk():
    """Every publication has 20 to 40 authors, so the incidences outnumber
    the publications thirtyfold; the tracemalloc peak of derive_portfolios
    must grow with the publications, authors and _CHUNK, not with them."""
    rng = np.random.default_rng(11)
    pubs = [
        make_pub(
            pub_id=f"p{k}",
            year=int(rng.integers(1980, 2023)),
            authors={f"a{a:04d}" for a in rng.integers(0, 1500, rng.integers(20, 41))},
            countries=(f"C{rng.integers(0, 3)}", f"C{rng.integers(0, 3)}"),
            journal=f"J{rng.integers(0, 4)}",
            citations={2020: int(rng.integers(0, 9))},
        )
        for k in range(4000)
    ]
    journals = {f"J{k}": {f"D{k}": 25 * k} for k in range(4)}
    columns = columns_from_corpus(make_corpus(pubs, journals=journals))
    n_inc = columns.inc_author.shape[0]
    assert n_inc >= 25 * columns.n_publications
    tracemalloc.start()
    try:
        derive_portfolios(columns)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # 64 bytes per publication, 256 per author and 128 per incidence of a
    # chunk of the shipped size
    bound = 64 * columns.n_publications + 256 * columns.n_authors + 128 * portfolio._CHUNK
    assert peak <= bound, (n_inc, peak, bound)
