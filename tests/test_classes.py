import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from careerflow.classes import (
    BOTTOM,
    CLASS_ORDER,
    MIDDLE,
    TOP,
    annual_productivity,
    assign_class_codes,
    assign_cohort_classes,
    publication_weight,
    stage_window,
)
from careerflow.columnar import columns_from_corpus
from careerflow.classes import sorted_unique
from careerflow.corpus import JournalRecord
from careerflow.portfolio import derive_portfolios
from careerflow.synth import CohortConfig, CorpusConfig, gen_corpus

from conftest import make_pub

J50 = {"j50": JournalRecord("j50", {"MED": 50})}


# ---------------------------------------------------------------------------
# publication weights


def test_weight_full_counting_is_one():
    assert publication_weight(make_pub(), "P3", {}) == 1.0


def test_weight_fractional_four_authors():
    pub = make_pub(authors=("a1", "a2", "a3", "a4"))
    assert publication_weight(pub, "P4", {}) == 0.25


def test_weight_prestige_percentile_over_100():
    journals = {"j90": JournalRecord("j90", {"MED": 90})}
    assert publication_weight(make_pub(journal="j90"), "P1", journals) == 0.90


def test_weight_prestige_uses_max_discipline_percentile():
    journals = {"j": JournalRecord("j", {"MED": 30, "BIO": 70})}
    assert publication_weight(make_pub(journal="j"), "P1", journals) == 0.70


def test_weight_prestige_fractional_combines():
    journals = {"j80": JournalRecord("j80", {"MED": 80})}
    pub = make_pub(authors=("a1", "a2"), journal="j80")
    assert publication_weight(pub, "P2", journals) == 0.40


def test_weight_missing_journal_is_zero_for_prestige():
    assert publication_weight(make_pub(journal=None), "P1", {}) == 0.0
    assert publication_weight(make_pub(journal=None), "P3", {}) == 1.0


def test_weight_requires_qualifying_doc_type():
    with pytest.raises(ValueError):
        publication_weight(make_pub(doc_type="other"), "P3", {})


# ---------------------------------------------------------------------------
# annual productivity


def test_annual_productivity_division_by_window():
    # 12 full-counting units inside the 10-year early window
    pubs = [make_pub(pub_id="f", year=1990)]
    pubs += [
        make_pub(pub_id=f"p{k}", year=1994 + (k % 10), journal="j50")
        for k in range(12)
    ]
    assert annual_productivity(pubs, "early", "P3", J50, 2022) == pytest.approx(1.2)


def test_annual_productivity_empty_window_zero():
    pubs = [make_pub(pub_id="f", year=1990)]
    assert annual_productivity(pubs, "late", "P3", J50, 2022) == 0.0


def test_annual_productivity_prestige_late_window():
    # percentiles {99, 49, 0} in the late window -> (0.99 + 0.49 + 0) / 5
    journals = {
        "j99": JournalRecord("j99", {"MED": 99}),
        "j49": JournalRecord("j49", {"MED": 49}),
        "j00": JournalRecord("j00", {"MED": 0}),
    }
    pubs = [make_pub(pub_id="f", year=1990)]
    pubs += [
        make_pub(pub_id=f"p{k}", year=2019 + k, journal=jid)
        for k, jid in enumerate(["j99", "j49", "j00"])
    ]
    value = annual_productivity(pubs, "late", "P1", journals, 2022)
    assert value == pytest.approx(0.296)


def test_non_qualifying_docs_never_counted():
    pubs = [make_pub(pub_id="f", year=1990)]
    pubs += [make_pub(pub_id=f"o{k}", year=2019, doc_type="other") for k in range(5)]
    assert annual_productivity(pubs, "late", "P3", {}, 2022) == 0.0


# ---------------------------------------------------------------------------
# 20/60/20 assignment


def test_assign_distinct_one_to_ten():
    codes, too_small = assign_class_codes(np.arange(1.0, 11.0))
    assert not too_small
    assert codes.tolist() == [BOTTOM] * 2 + [MIDDLE] * 6 + [TOP] * 2


def test_assign_ties_pulled_into_bottom():
    codes, _ = assign_class_codes(np.array([0, 0, 0, 1, 2, 3, 4, 5, 6, 7], dtype=np.float64))
    assert np.count_nonzero(codes == BOTTOM) == 3


def test_assign_total_tie_degenerate():
    codes, _ = assign_class_codes(np.full(8, 2.5))
    assert (codes == BOTTOM).all()


def test_assign_too_small_cohort_all_middle():
    codes, too_small = assign_class_codes(np.array([1.0, 2.0, 3.0, 4.0]))
    assert too_small
    assert (codes == MIDDLE).all()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=5,
        max_size=200,
        unique=True,
    )
)
def test_assign_distinct_exact_sizes(values):
    codes, too_small = assign_class_codes(np.array(values))
    assert not too_small
    n = len(values)
    assert np.count_nonzero(codes == BOTTOM) == math.floor(0.2 * n)
    assert np.count_nonzero(codes == TOP) == n - math.ceil(0.8 * n)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=5, max_size=100),
    st.sampled_from(["exp", "cube", "affine"]),
)
def test_assign_invariant_under_increasing_transform(values, transform):
    arr = np.array(values, dtype=np.float64)
    fns = {"exp": np.exp, "cube": lambda x: x**3, "affine": lambda x: 3.0 * x + 11.0}
    base, _ = assign_class_codes(arr)
    mapped, _ = assign_class_codes(fns[transform](arr))
    assert (base == mapped).all()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=100))
def test_tie_asymmetry_top_never_exceeds_twenty_percent(values):
    codes, _ = assign_class_codes(np.array(values, dtype=np.float64))
    n = len(values)
    assert np.count_nonzero(codes == TOP) <= 0.2 * n
    assert np.count_nonzero(codes == BOTTOM) >= math.floor(0.2 * n)


def test_every_sample_author_gets_exactly_one_class_per_stage_ptype():
    corpus = gen_corpus(CorpusConfig(cohort=CohortConfig(n_authors=30, n_disciplines=2, seed=4)))
    columns = columns_from_corpus(corpus)
    productivity = derive_portfolios(columns).productivity
    codes, _ = assign_cohort_classes(columns.dominant_discipline, productivity)
    assert codes.shape == (30, 3, 4)
    assert set(np.unique(codes)) <= {TOP, MIDDLE, BOTTOM}


def test_bulk_productivity_matches_reference():
    corpus = gen_corpus(
        CorpusConfig(cohort=CohortConfig(n_authors=25, n_disciplines=2, seed=17, ability_spread=0.5))
    )
    columns = columns_from_corpus(corpus)
    productivity = derive_portfolios(columns).productivity
    by_author: dict[str, list] = {}
    for pub in corpus.publications:
        for aid in pub.author_ids:
            by_author.setdefault(aid, []).append(pub)
    for idx, aid in enumerate(columns.author_ids):
        pubs = by_author[aid]
        for s, stage in enumerate(("early", "mid", "late")):
            for t, ptype in enumerate(("P1", "P2", "P3", "P4")):
                ref = annual_productivity(pubs, stage, ptype, corpus.journals, 2022)
                assert productivity[idx, s, t] == pytest.approx(ref, abs=1e-9), (aid, stage, ptype)


def test_stage_windows_cover_publishing_years():
    # publishing year k maps to calendar year first + (k - 1)
    first = 1980
    early = stage_window(first, "early", 2022)
    mid = stage_window(first, "mid", 2022)
    assert early == (first + 4, first + 13)  # publishing years 5..14
    assert mid == (first + 14, first + 23)  # publishing years 15..24
    assert early[1] - early[0] + 1 == 10
    assert mid[1] - mid[0] + 1 == 10
    late = stage_window(first, "late", 2022)
    assert late == (2018, 2022)
    assert late[1] - late[0] + 1 == 5


def test_class_order_constant():
    assert CLASS_ORDER == ("top", "middle", "bottom")
    assert (TOP, MIDDLE, BOTTOM) == (0, 1, 2)


@pytest.mark.parametrize("values", [[], [3], [2, -1, 2, 0, -1, 7, 3], list(range(5, -2, -1)) * 3])
def test_sorted_unique_matches_np_unique(values):
    values = np.array(values, dtype=np.int32)
    got = sorted_unique(values)
    assert got.dtype == values.dtype
    assert np.array_equal(got, np.unique(values))
