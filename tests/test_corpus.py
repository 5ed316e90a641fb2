import json
import os
import time

import pytest

from careerflow.corpus import (
    GATE_ORDER,
    AuthorRecord,
    SampleFilterConfig,
    filter_sample,
    parse_corpus,
    run_shares,
    serialize_corpus,
)
from careerflow.synth import CohortConfig, CorpusConfig, gen_corpus

from conftest import make_corpus, make_pub

JOURNAL_LINE = '{"journal_id":"j1","percentiles":{"MED":80}}'
AUTHOR_LINE = '{"author_id":"a1","gender_label":"female","gender_probability":0.9}'


def good_pub_line(**overrides):
    obj = {
        "pub_id": "p1",
        "year": 2001,
        "doc_type": "article",
        "author_ids": ["a1"],
        "affiliation_countries": ["US"],
        "affiliation_institutions": ["inst1"],
        "journal_id": "j1",
        "citations_by_year": {"2001": 2},
        "cited_ref_disciplines": ["MED"],
    }
    obj.update(overrides)
    return json.dumps(obj)


def test_parse_single_well_formed_line():
    corpus, rejects = parse_corpus([good_pub_line()], [JOURNAL_LINE], [AUTHOR_LINE], 2022)
    assert len(corpus.publications) == 1
    assert rejects == []
    pub = corpus.publications[0]
    assert pub.pub_id == "p1"
    assert pub.citations_by_year == {2001: 2}


def test_missing_pub_id_rejected():
    obj = json.loads(good_pub_line())
    del obj["pub_id"]
    corpus, rejects = parse_corpus([json.dumps(obj)], [JOURNAL_LINE], [AUTHOR_LINE], 2022)
    assert len(corpus.publications) == 0
    assert len(rejects) == 1
    assert rejects[0].file == "publications"
    assert rejects[0].line_no == 1
    assert "missing pub_id" in rejects[0].reason


def test_unknown_journal_rejected():
    # 2-line fixture: first resolves, second references a journal that does not exist
    lines = [good_pub_line(), good_pub_line(pub_id="p2", journal_id="nope")]
    corpus, rejects = parse_corpus(lines, [JOURNAL_LINE], [AUTHOR_LINE], 2022)
    assert [p.pub_id for p in corpus.publications] == ["p1"]
    assert len(rejects) == 1
    assert rejects[0].line_no == 2
    assert "unresolved journal reference" in rejects[0].reason


def test_unknown_author_rejected():
    lines = [good_pub_line(author_ids=["ghost"])]
    corpus, rejects = parse_corpus(lines, [JOURNAL_LINE], [AUTHOR_LINE], 2022)
    assert corpus.publications == []
    assert "unresolved author reference" in rejects[0].reason


@pytest.mark.parametrize(
    "overrides, reason",
    [
        ({"year": 1850}, "year"),
        ({"year": 2030}, "year"),
        ({"doc_type": "poster"}, "doc_type"),
        ({"author_ids": []}, "author_ids"),
        ({"author_ids": ["a1", "a1"]}, "duplicate author id"),
        ({"citations_by_year": {"1999": 1}}, "precedes"),
        ({"citations_by_year": {"2002": -1}}, "citation count"),
    ],
)
def test_schema_violations_rejected(overrides, reason):
    _, rejects = parse_corpus([good_pub_line(**overrides)], [JOURNAL_LINE], [AUTHOR_LINE], 2022)
    assert len(rejects) == 1
    assert reason in rejects[0].reason


def test_invalid_json_and_duplicates_rejected():
    lines = [good_pub_line(), good_pub_line(), "{not json"]
    _, rejects = parse_corpus(lines, [JOURNAL_LINE], [AUTHOR_LINE], 2022)
    reasons = [r.reason for r in rejects]
    assert any("duplicate pub_id" in r for r in reasons)
    assert any("invalid json" in r for r in reasons)


LONG = "9" * 5000


def test_reject_reason_clips_a_5000_digit_citation_year():
    line = good_pub_line(citations_by_year={LONG: 1})
    _, rejects = parse_corpus([line], [JOURNAL_LINE], [AUTHOR_LINE], 2022)
    assert [r.reason for r in rejects] == ["bad citation year '" + "9" * 63 + "...[5002 chars]"]
    assert len(rejects[0].to_json()) < 200


@pytest.mark.parametrize(
    "pub_lines,author_lines,prefix",
    [
        ([good_pub_line(doc_type="x" + LONG)], [AUTHOR_LINE], "bad doc_type 'x99"),
        ([good_pub_line(author_ids=["a" + LONG])], [AUTHOR_LINE], "unresolved author reference: a99"),
        ([good_pub_line(journal_id="j" + LONG)], [AUTHOR_LINE], "unresolved journal reference: j99"),
        ([good_pub_line(pub_id=LONG)] * 2, [AUTHOR_LINE], "duplicate pub_id 99"),
        ([], [AUTHOR_LINE, json.dumps({"author_id": "a2", "gender_label": LONG})], "bad gender_label '99"),
    ],
    ids=["doc_type", "author", "journal", "duplicate", "gender"],
)
def test_reject_reasons_clip_echoed_values(pub_lines, author_lines, prefix):
    _, rejects = parse_corpus(pub_lines, [JOURNAL_LINE], author_lines, 2022)
    (reject,) = rejects
    assert reject.reason.startswith(prefix)
    assert reject.reason.endswith(" chars]")
    assert len(reject.reason) < 120


@pytest.mark.parametrize(
    "citations,reason",
    [
        ({"2001": 10**30}, "bad citation count for year 2001"),
        ({"99999999999": 1}, "citation year 99999999999 out of range"),
    ],
    ids=["count", "year"],
)
def test_citation_values_past_int32_rejected(citations, reason):
    lines = [good_pub_line(), good_pub_line(pub_id="p2", citations_by_year=citations)]
    corpus, rejects = parse_corpus(lines, [JOURNAL_LINE], [AUTHOR_LINE], 2022)
    assert [(r.line_no, r.reason) for r in rejects] == [(2, reason)]
    assert [p.pub_id for p in corpus.publications] == ["p1"]


def test_citation_values_at_int32_max_accepted():
    line = good_pub_line(citations_by_year={str(2**31 - 1): 2**31 - 1})
    corpus, rejects = parse_corpus([line], [JOURNAL_LINE], [AUTHOR_LINE], 2022)
    assert rejects == []
    assert corpus.publications[0].citations_by_year == {2**31 - 1: 2**31 - 1}


BYTE_FAULTS = [
    (b'\xff\xfe{"x":1}\n', "invalid utf-8"),
    (b"[" * 100_000 + b"\n", "invalid json: nesting too deep"),
    (b'{"year":' + b"1" * 5000 + b"}\n", "invalid json: integer too long"),
]


@pytest.mark.parametrize("file", ["publications", "journals", "authors"])
@pytest.mark.parametrize("bad_line,reason", BYTE_FAULTS, ids=["non-utf8", "deep-nesting", "long-int"])
def test_byte_level_fault_rejects_only_its_line(file, bad_line, reason):
    # lines as bytes, the way ingest reads its input files
    inputs = {
        "publications": [good_pub_line().encode() + b"\n"],
        "journals": [JOURNAL_LINE.encode() + b"\n"],
        "authors": [AUTHOR_LINE.encode() + b"\n"],
    }
    inputs[file].append(bad_line)
    corpus, rejects = parse_corpus(inputs["publications"], inputs["journals"], inputs["authors"], 2022)
    assert [(r.line_no, r.file, r.reason) for r in rejects] == [(2, file, reason)]
    assert [p.pub_id for p in corpus.publications] == ["p1"]


def test_journal_percentile_out_of_range_rejected():
    bad = '{"journal_id":"j2","percentiles":{"MED":120}}'
    _, rejects = parse_corpus([], [JOURNAL_LINE, bad], [AUTHOR_LINE], 2022)
    assert len(rejects) == 1
    assert "percentile out of range" in rejects[0].reason


def test_author_probability_required_when_label_known():
    bad = '{"author_id":"a2","gender_label":"male"}'
    _, rejects = parse_corpus([], [JOURNAL_LINE], [AUTHOR_LINE, bad], 2022)
    assert len(rejects) == 1
    assert "gender_probability" in rejects[0].reason


def test_round_trip_identity():
    corpus = gen_corpus(CorpusConfig(cohort=CohortConfig(n_authors=15, n_disciplines=3, seed=7)))
    pl, jl, al = serialize_corpus(corpus)
    reparsed, rejects = parse_corpus(pl, jl, al, corpus.reference_year)
    assert rejects == []
    pl2, jl2, al2 = serialize_corpus(reparsed)
    assert (pl, jl, al) == (pl2, jl2, al2)
    assert reparsed.publications == corpus.publications
    assert reparsed.journals == corpus.journals
    assert reparsed.authors == corpus.authors


# ---------------------------------------------------------------------------
# sample filter


def five_author_fixture():
    """Hand-enumerated gate outcomes:

    keep1: 3 articles from 1995 (age 27), active 2022        -> retained
    keep2: 4 articles from 1990 (age 32), active 2020        -> retained
    c_out: only 2 qualifying articles                        -> gate min_publications
    d_out: first pub 2022 (age 0)                            -> gate academic_age
    e_out: 3 articles but none within 2018-2022              -> gate recent_activity
    """
    pubs = []

    def add(aid, years, doc="article"):
        for k, year in enumerate(years):
            pubs.append(
                make_pub(
                    pub_id=f"{aid}-{k}",
                    year=year,
                    doc_type=doc,
                    authors=(aid,),
                    countries=("US",),
                    refs=("MED",),
                )
            )

    add("keep1", [1995, 2005, 2022])
    add("keep2", [1990, 2000, 2010, 2020])
    add("c_out", [1994, 2021])
    add("d_out", [2022, 2022, 2022])
    add("e_out", [1993, 2000, 2010])
    return make_corpus(pubs)


def test_filter_fixture_hand_enumerated():
    corpus = five_author_fixture()
    retained, report = filter_sample(corpus, SampleFilterConfig())
    assert retained == {"keep1", "keep2"}
    assert report.removed == {
        "country": 0,
        "discipline": 0,
        "min_publications": 1,
        "academic_age": 1,
        "recent_activity": 1,
    }
    assert report.removed_total == 3
    assert report.retained == 2
    # accounting: gate removals plus retained equals the author total
    assert report.removed_total + report.retained == report.total == 5


def test_author_with_two_articles_excluded_at_min_publications():
    pubs = [
        make_pub(pub_id="q1", year=1995, authors=("a1",), refs=("MED",)),
        make_pub(pub_id="q2", year=2020, authors=("a1",), refs=("MED",)),
    ]
    _, report = filter_sample(make_corpus(pubs), SampleFilterConfig())
    assert report.removed["min_publications"] == 1


def test_first_pub_in_reference_year_excluded_at_age_gate():
    pubs = [
        make_pub(pub_id=f"q{k}", year=2022, authors=("a1",), refs=("MED",)) for k in range(3)
    ]
    _, report = filter_sample(make_corpus(pubs), SampleFilterConfig())
    assert report.removed["academic_age"] == 1


def test_country_and_discipline_gates():
    pubs = [
        make_pub(pub_id=f"p{k}", year=y, authors=("a1",), countries=("XX",), refs=("MED",))
        for k, y in enumerate([1995, 2005, 2020])
    ] + [
        make_pub(pub_id=f"q{k}", year=y, authors=("a2",), countries=("US",), refs=("ART",))
        for k, y in enumerate([1995, 2005, 2020])
    ]
    config = SampleFilterConfig(
        allowed_countries=frozenset({"US"}), allowed_disciplines=frozenset({"MED"})
    )
    retained, report = filter_sample(make_corpus(pubs), config)
    assert retained == set()
    assert report.removed["country"] == 1  # a1: dominant country XX
    assert report.removed["discipline"] == 1  # a2: dominant discipline ART


def test_author_without_discipline_fails_discipline_gate():
    pubs = [
        make_pub(pub_id=f"p{k}", year=y, authors=("a1",), refs=())
        for k, y in enumerate([1995, 2005, 2020])
    ]
    _, report = filter_sample(make_corpus(pubs), SampleFilterConfig())
    assert report.removed["discipline"] == 1


def test_country_override_applies_to_country_gate():
    pubs = [
        make_pub(pub_id=f"p{k}", year=y, authors=("a1",), countries=("XX",), refs=("MED",))
        for k, y in enumerate([1995, 2005, 2020])
    ]
    corpus = make_corpus(pubs)
    corpus.authors["a1"].country_override = "US"
    config = SampleFilterConfig(allowed_countries=frozenset({"US"}))
    retained, _ = filter_sample(corpus, config)
    assert retained == {"a1"}


def test_filter_idempotent():
    corpus = gen_corpus(CorpusConfig(cohort=CohortConfig(n_authors=40, n_disciplines=2, seed=5)))
    config = SampleFilterConfig()
    retained, _ = filter_sample(corpus, config)
    survivors = [p for p in corpus.publications if any(a in retained for a in p.author_ids)]
    sub = make_corpus(survivors)
    for aid in sub.authors:
        if aid in corpus.authors:
            sub.authors[aid] = corpus.authors[aid]
    retained2, report2 = filter_sample(sub, config)
    assert retained <= retained2  # nobody who passed is now removed
    for aid in retained:
        assert aid in retained2


def test_vectorized_gates_match_reference_filter():
    from careerflow.columnar import columns_from_corpus
    from careerflow.columnar import gates_from_columns

    corpus = gen_corpus(
        CorpusConfig(cohort=CohortConfig(n_authors=80, n_disciplines=3, seed=33))
    )
    corpus.authors["a0000003"].country_override = "C00"
    # no publication names a country or cites a discipline, so the
    # discipline vocabulary is empty, the country vocabulary holds the
    # override alone, and every other dominant code is -1
    bare = make_corpus(
        [
            make_pub(pub_id=f"p{k}", year=y, authors=authors, countries=(), refs=())
            for k, (y, authors) in enumerate([(1995, ("a1",)), (2005, ("a1", "a2")), (2020, ("a2",))])
        ]
    )
    bare.authors["a1"].country_override = "C00"
    bare.authors["a3"] = AuthorRecord("a3", "unknown", 0.0, "C00")  # no publications
    configs = [
        SampleFilterConfig(),
        SampleFilterConfig(min_publications=40),
        SampleFilterConfig(min_academic_age=35, max_academic_age=45),
        SampleFilterConfig(allowed_countries=frozenset({"C00", "C01", "C02"})),
        SampleFilterConfig(allowed_disciplines=frozenset({"D00"})),
        SampleFilterConfig(active_window_years=1),
    ]
    for sample in (corpus, bare):
        columns = columns_from_corpus(sample)
        for config in configs:
            ref_set, ref_report = filter_sample(sample, config)
            col_idx, col_report = gates_from_columns(columns, config)
            assert {columns.author_ids[i] for i in col_idx} == ref_set, config
            assert col_report.removed == ref_report.removed, config
            assert (col_report.retained, col_report.total) == (
                ref_report.retained,
                ref_report.total,
            )
    # the columns of bare, the last sample
    assert (columns.country_vocab, columns.disc_vocab) == (["C00"], [])
    assert columns.dominant_country_idx.tolist() == [0, -1, -1]
    assert columns.n_authors == 3 and columns.first_pub_year[2] == -1


def test_gate_accounting_on_synthetic_corpus():
    corpus = gen_corpus(
        CorpusConfig(
            cohort=CohortConfig(n_authors=60, n_disciplines=3, seed=9),
            min_academic_age=25,  # allow short careers so some gates trigger
        )
    )
    config = SampleFilterConfig(min_academic_age=30, min_publications=10)
    retained, report = filter_sample(corpus, config)
    assert list(report.removed) == list(GATE_ORDER)
    assert report.removed_total + report.retained == report.total
    assert report.retained == len(retained)


# ---------------------------------------------------------------------------
# run_shares


@pytest.mark.parametrize("n", [1, 2, 3])
def test_run_shares_returns_the_results_in_share_order(n):
    """Share 0 runs in this process, each other one in a worker."""
    parent = os.getpid()
    shares = [(f"share {i}", lambda i=i: (i, os.getpid() == parent)) for i in range(n)]
    assert run_shares("test", shares) == [(i, i == 0) for i in range(n)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_shares_forks_nothing_for_one_share(monkeypatch):
    def no_fork():
        raise AssertionError("run_shares forked a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_shares("test", [("only share", lambda: 7)]) == [7]


def test_a_worker_result_larger_than_a_pipe_buffer_arrives_intact():
    """The worker blocks on its full pipe until share 0 is done."""
    big = bytes(range(256)) * (1 << 14)  # 4 MiB; a pipe buffer holds 64 KiB by default
    assert run_shares("test", [("share 0", lambda: b""), ("share 1", lambda: big)]) == [b"", big]


def test_an_error_in_share_0_propagates_and_every_worker_is_reaped():
    def fail():
        raise RuntimeError("share 0 failed")

    shares = [("share 0", fail), *((f"share {i}", lambda: time.sleep(60)) for i in (1, 2))]
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="share 0 failed"):
        run_shares("test", shares)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert time.monotonic() - started < 30  # the workers were killed, not waited for
