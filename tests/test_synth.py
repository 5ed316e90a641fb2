import io
import math

import numpy as np
import pytest

from careerflow.classes import assign_class_codes
from careerflow.corpus import (
    MIN_YEAR,
    CorpusError,
    author_to_json,
    parse_corpus,
    publication_to_json,
    serialize_corpus,
)
from careerflow.synth import (
    CohortConfig,
    CorpusConfig,
    calibrate_persistence,
    config_from_mapping,
    gen_cohort,
    gen_corpus,
    write_synthetic_corpus,
    _AuthorGenerator,
)


def test_cohort_determinism():
    a = gen_cohort(CohortConfig(n_authors=500, seed=12))
    b = gen_cohort(CohortConfig(n_authors=500, seed=12))
    assert (a.values == b.values).all()
    assert (a.disciplines == b.disciplines).all()


def test_cohort_config_invariant():
    with pytest.raises(CorpusError):
        CohortConfig(n_authors=4, n_disciplines=1)
    with pytest.raises(CorpusError):
        CohortConfig(n_authors=100, n_disciplines=30)
    with pytest.raises(CorpusError):
        CohortConfig(n_authors=10, persistence=1.5)


def test_full_persistence_identical_classes():
    sample = gen_cohort(CohortConfig(n_authors=2000, persistence=1.0, seed=3))
    assert np.allclose(sample.values[:, 0], sample.values[:, 1])
    assert np.allclose(sample.values[:, 1], sample.values[:, 2])
    c0, _ = assign_class_codes(sample.values[:, 0])
    c2, _ = assign_class_codes(sample.values[:, 2])
    assert (c0 == c2).all()


def test_degenerate_all_equal_exercises_total_tie():
    sample = gen_cohort(
        CohortConfig(n_authors=100, persistence=0.0, ability_spread=0.0, noise_scale=0.0, seed=1)
    )
    assert np.unique(sample.values).shape[0] == 1
    codes, _ = assign_class_codes(sample.values[:, 0])
    assert (codes == 2).all()  # everyone lands in bottom under the tie rule


def test_zero_persistence_gives_independent_stages():
    sample = gen_cohort(CohortConfig(n_authors=50_000, persistence=0.0, seed=8))
    logs = np.log(sample.values)
    corr01 = np.corrcoef(logs[:, 0], logs[:, 1])[0, 1]
    corr12 = np.corrcoef(logs[:, 1], logs[:, 2])[0, 1]
    assert abs(corr01) < 0.02
    assert abs(corr12) < 0.02
    c0, _ = assign_class_codes(sample.values[:, 0])
    c1, _ = assign_class_codes(sample.values[:, 1])
    top_size = np.count_nonzero(c0 == 0)
    tt = 100.0 * np.count_nonzero((c0 == 0) & (c1 == 0)) / top_size
    assert abs(tt - 20.0) < 1.5


def test_persistence_monotone():
    rates = []
    for rho in (0.2, 0.5, 0.8):
        sample = gen_cohort(CohortConfig(n_authors=50_000, persistence=rho, seed=14))
        c0, _ = assign_class_codes(sample.values[:, 0])
        c1, _ = assign_class_codes(sample.values[:, 1])
        top = np.count_nonzero(c0 == 0)
        rates.append(100.0 * np.count_nonzero((c0 == 0) & (c1 == 0)) / top)
    assert rates[0] < rates[1] + 1.0
    assert rates[1] < rates[2] + 1.0
    assert rates[2] > rates[0] + 5.0


# ---------------------------------------------------------------------------
# corpus generation


def test_small_corpus_passes_ingest_with_zero_rejects():
    corpus = gen_corpus(CorpusConfig(cohort=CohortConfig(n_authors=10, n_disciplines=1, seed=6)))
    pl, jl, al = serialize_corpus(corpus)
    _, rejects = parse_corpus(pl, jl, al, corpus.reference_year)
    assert rejects == []


def test_corpus_dump_deterministic():
    config = CorpusConfig(cohort=CohortConfig(n_authors=12, n_disciplines=2, seed=44))
    dump1 = serialize_corpus(gen_corpus(config))
    dump2 = serialize_corpus(gen_corpus(config))
    assert dump1 == dump2


EDGE_CONFIGS = {
    # a 5-author universe: hyperauthor teams need every other author, so
    # duplicate partner picks are redrawn until the team is complete
    "partner-redraw": ({"n_authors": 5, "n_disciplines": 1}, {"hyperauthor_prob": 0.5}),
    "one-country-one-institution": ({}, {"n_countries": 1, "n_institutions": 1}),
    "one-discipline": ({"n_disciplines": 1}, {}),
    # careers shorter than the stage windows: no gap window, and the windows
    # are cut at the reference year
    "no-gap-window": ({}, {"min_academic_age": 1, "max_academic_age": 8}),
    "three-digit-countries": ({}, {"n_countries": 150}),
    "no-extra-refs-small-teams": ({}, {"ref_count_mean": 0, "team_size_mean": 0.5}),
}


def round_trip_corpus(cohort_kw: dict, corpus_kw: dict):
    """Writes a synthetic corpus and checks it against what parsing makes of it."""
    cohort = CohortConfig(**{"n_authors": 12, "n_disciplines": 2, "seed": 44, **cohort_kw})
    config = CorpusConfig(cohort=cohort, **corpus_kw)
    p, j, a = io.StringIO(), io.StringIO(), io.StringIO()
    counts = write_synthetic_corpus(config, p, j, a)
    lines = p.getvalue().splitlines()
    corpus, rejects = parse_corpus(
        lines, j.getvalue().splitlines(), a.getvalue().splitlines(), config.reference_year
    )
    assert rejects == []
    # the preformatted lines are exactly what the serializer makes of them
    assert [publication_to_json(pub) for pub in corpus.publications] == lines
    pl, jl, al = serialize_corpus(gen_corpus(config))
    assert p.getvalue() == "\n".join(pl) + "\n"
    assert j.getvalue() == "\n".join(jl) + "\n"
    assert a.getvalue() == "\n".join(al) + "\n"
    assert counts == {"publications": len(pl), "journals": len(jl), "authors": cohort.n_authors}
    return corpus


def test_streaming_writer_matches_materialized_corpus():
    round_trip_corpus({}, {})


@pytest.mark.parametrize("cohort_kw,corpus_kw", EDGE_CONFIGS.values(), ids=EDGE_CONFIGS.keys())
def test_streaming_writer_matches_materialized_corpus_on_edge_configs(cohort_kw, corpus_kw):
    pubs = round_trip_corpus(cohort_kw, corpus_kw).publications
    if corpus_kw.get("hyperauthor_prob") == 0.5:
        assert any(len(pub.author_ids) == 5 for pub in pubs)
    if corpus_kw.get("n_countries") == 150:  # "C100" sorts before "C99"
        assert any({len(c) for c in pub.affiliation_countries} == {3, 4} for pub in pubs)
    if corpus_kw.get("n_countries") == 1:
        assert all(len(pub.affiliation_countries) == len(pub.affiliation_institutions) == 1 for pub in pubs)
    if corpus_kw.get("max_academic_age") == 8:
        assert max(pub.year for pub in pubs) == 2022


def test_author_lines_independent_of_generation_order():
    config = CorpusConfig(cohort=CohortConfig(n_authors=30, n_disciplines=3, seed=9))
    generator = _AuthorGenerator(config, gen_cohort(config.cohort))

    def lines(i):
        author, pub_lines = generator.generate(i)
        return author_to_json(author), "".join(pub_lines)

    forward = [lines(i) for i in range(30)]
    backward = [lines(i) for i in reversed(range(30))]
    assert forward == backward[::-1]


def test_corpus_distributions_match_their_analytic_expectations():
    """Shares and means of a 4000-author corpus, each within 4 standard
    errors (binomial or Poisson) of the value the generator's model implies."""
    config = CorpusConfig(cohort=CohortConfig(n_authors=4000, n_disciplines=4, seed=5))
    corpus = gen_corpus(config)
    values = gen_cohort(config.cohort).values
    ref = config.reference_year
    pubs = corpus.publications
    n = len(pubs)
    focal = np.array([int(pub.pub_id[1:8]) for pub in pubs])
    team = np.array([len(pub.author_ids) for pub in pubs])
    first_year = np.full(4000, ref)
    np.minimum.at(first_year, focal, [pub.year for pub in pubs])
    age = ref - first_year  # each author's first article is at their first year

    def close(observed, expected, se):
        assert abs(observed - expected) < 4.0 * se, (observed, expected, se)

    def share(mask, p):
        close(np.mean(mask), p, math.sqrt(p * (1.0 - p) / len(mask)))

    def poisson_total(count, expected):
        close(count, expected, math.sqrt(expected))

    # publication groups per author, from the cohort values and the age
    early, mid = (config.pubs_per_year * 10.0 * values[:, s] for s in (0, 1))
    late = config.pubs_per_year * 5.0 * values[:, 2]
    gap = 0.3 * config.pubs_per_year * values[:, 2] * np.maximum(age - 28, 0)
    other = config.other_doc_rate * (age + 1)
    late_at_least_one = late + np.exp(-late)
    # a third qualifying article is added when only the first article and a
    # single late-window paper qualify
    top_up = np.exp(-(early + mid + gap + late)) * (1.0 + late)
    per_author = 1.0 + early + mid + late_at_least_one + gap + other + top_up
    close(n / 4000, per_author.mean(), math.sqrt((per_author - 1.0).sum()) / 4000)

    doc = np.array([pub.doc_type for pub in pubs])
    poisson_total(np.count_nonzero(doc == "conference_paper"), 0.1 * (early + mid + late_at_least_one).sum())
    poisson_total(np.count_nonzero(doc == "other"), other.sum())
    share(np.array([pub.journal_id is None for pub in pubs]), 0.05)

    extra_mean = config.team_size_mean - 1.0
    tail = 1.0 - sum(math.exp(-extra_mean) * extra_mean**k / math.factorial(k) for k in range(10))
    hyper = config.hyperauthor_prob
    share(team >= 11, hyper + (1.0 - hyper) * tail)
    # extra co-authors: Poisson(2), or 10 + uniform{0..15} for a hyperauthor team
    hyper_mean, hyper_var = 17.5, (16**2 - 1) / 12.0
    mean = (1.0 - hyper) * extra_mean + hyper * hyper_mean
    second = (1.0 - hyper) * (extra_mean + extra_mean**2) + hyper * (hyper_var + hyper_mean**2)
    close(team.mean(), 1.0 + mean, math.sqrt((second - mean**2) / n))

    multi = [pub for pub in pubs if len(pub.author_ids) >= 2]
    share(np.array([len(pub.affiliation_countries) == 2 for pub in multi]), config.intl_collab_prob)

    refs = np.array([len(pub.cited_ref_disciplines) for pub in pubs])
    ref_extra = config.ref_count_mean - 1.0
    close(refs.mean(), 1.0 + ref_extra, math.sqrt(ref_extra / n))


def test_ability_bias_raises_top_decile_ajpr():
    config = CorpusConfig(
        cohort=CohortConfig(n_authors=200, seed=31, ability_spread=1.0),
        percentile_bias=18.0,
    )
    corpus = gen_corpus(config)
    cohort = gen_cohort(config.cohort)
    pct_by_author: dict[str, list[int]] = {}
    for pub in corpus.publications:
        if pub.journal_id is None:
            continue
        pct = corpus.journals[pub.journal_id].max_percentile
        for aid in pub.author_ids:
            pct_by_author.setdefault(aid, []).append(pct)
    order = np.argsort(cohort.ability_z)
    decile = len(order) // 10
    low = [np.mean(pct_by_author[f"a{i:07d}"]) for i in order[:decile]]
    high = [np.mean(pct_by_author[f"a{i:07d}"]) for i in order[-decile:]]
    # co-authored publications carry the focal author's placement, which
    # dilutes the per-author contrast; the deciles must still separate
    assert np.mean(high) > np.mean(low) + 5.0


def test_ages_within_configured_bounds():
    config = CorpusConfig(cohort=CohortConfig(n_authors=50, seed=2), min_academic_age=29)
    corpus = gen_corpus(config)
    first_years: dict[str, int] = {}
    for pub in corpus.publications:
        for aid in pub.author_ids:
            first_years[aid] = min(first_years.get(aid, 9999), pub.year)
    for aid, year in first_years.items():
        age = corpus.reference_year - year
        assert 29 <= age <= 50


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_base_rate_target():
    result = calibrate_persistence(20.0, n_authors=20_000, seed=3)
    assert result.rho < 0.1
    assert abs(result.top_to_top - 20.0) <= 1.0


def test_calibrate_full_persistence_target():
    result = calibrate_persistence(100.0, n_authors=20_000, seed=3)
    assert result.rho > 0.9
    assert result.top_to_top == 100.0


def test_calibrate_mid_target():
    result = calibrate_persistence(60.0, n_authors=20_000, seed=3)
    assert 0.0 < result.rho < 1.0
    assert abs(result.top_to_top - 60.0) <= 1.0


def test_calibrate_unreachable_target_reports_bracket():
    with pytest.raises(CorpusError, match="achievable"):
        calibrate_persistence(10.0, n_authors=5_000, seed=3)


@pytest.mark.parametrize(
    "target, expected",
    [
        (20.0, (0.0, 20.225, 19.75)),
        (45.0, (0.53125, 45.85, 45.375)),
        (60.0, (0.75, 60.375, 60.7)),
        (100.0, (1.0, 100.0, 100.0)),
    ],
)
def test_calibration_pinned_bit_for_bit(target, expected):
    result = calibrate_persistence(target, n_authors=20_000, seed=3)
    assert (result.rho, result.top_to_top, result.bottom_to_bottom) == expected


def test_calibration_error_texts_pinned():
    with pytest.raises(CorpusError) as err:
        calibrate_persistence(10.0, n_authors=2_000)
    assert str(err.value) == "target 10.0% outside achievable range: rho=0 gives 17.5%, rho=1 gives 100.0%"
    with pytest.raises(CorpusError) as err:
        calibrate_persistence(47.3, n_authors=2_000, tol_pp=0.01, max_iter=3)
    assert str(err.value) == (
        "calibration did not converge after 3 bisections; bracket [0.500000, 0.625000]"
    )


def test_config_from_mapping_rejects_unknown_keys():
    with pytest.raises(CorpusError, match="unknown config keys"):
        config_from_mapping({"n_authors": 10, "bogus": 1})
    config = config_from_mapping({"n_authors": 10, "persistence": 0.3, "citation_rate": 2.0})
    assert config.cohort.persistence == 0.3
    assert config.citation_rate == 2.0


def test_careers_may_start_at_min_year_but_not_before():
    config = CorpusConfig(cohort=CohortConfig(n_authors=20, seed=1), reference_year=1950)
    corpus = gen_corpus(config)  # raises on any reject
    assert min(p.year for p in corpus.publications) >= MIN_YEAR
    with pytest.raises(CorpusError, match="reference_year - max_academic_age"):
        CorpusConfig(cohort=CohortConfig(n_authors=20, seed=1), reference_year=1949)
    with pytest.raises(CorpusError, match="reference_year - max_academic_age"):
        config_from_mapping({"n_authors": 20, "reference_year": 1960, "max_academic_age": 61})
