"""Ingest never aborts on a bad input line, and agrees with the reference.

Generated lines are appended to a small valid corpus and the real CLI ingests
it. Every appended non-blank line must end up either accepted or as exactly
one reject carrying its line number, and the original lines must keep their
results. The CLI's rejects.jsonl and cache must equal those of the
record-level reference path (parse_corpus, then columns_from_corpus and
write_cache under the CLI's cache header) on the same input bytes, however
the publications file is cut into byte ranges for ingest's worker processes.
"""
import contextlib
import io
import json
import os
import pickle
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from careerflow import columnar
from careerflow.cli import main
from careerflow.columnar import (
    CACHE_NAME,
    byte_ranges,
    columns_from_corpus,
    ingest_range,
    load_cache,
    read_cache,
    write_cache,
)
from careerflow.corpus import INT32_MAX, REFERENCE_YEAR, parse_authors, parse_corpus, parse_journals

FILES = ("publications", "journals", "authors")
PUB_FIELDS = (
    "pub_id",
    "year",
    "doc_type",
    "author_ids",
    "affiliation_countries",
    "affiliation_institutions",
    "journal_id",
    "citations_by_year",
    "cited_ref_disciplines",
)
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=120)

# any JSON value, lone surrogates included (they survive json.dumps as \ud800)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(st.characters(exclude_categories=())),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
# citation years are JSON keys, so strings; a map is only checked up to its
# first bad entry, so most years and counts are plausible and unbounded
citation_maps = st.dictionaries(
    st.integers(min_value=1900).map(str) | st.integers().map(str) | st.text(),
    st.integers(min_value=0) | json_values,
    max_size=3,
)


@contextlib.contextmanager
def cut_at_lines(lines: list[int]):
    """Make ingest cut its publications file just before each line index of
    *lines* (0-based; the line count cuts at the end of the file)."""

    def ranges(path: Path) -> list[tuple[int, int]]:
        data = path.read_bytes()
        starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        bounds = [0, *(starts[line] if line < len(starts) else len(data) for line in sorted(lines))]
        return list(zip(bounds, [*bounds[1:], None]))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(columnar, "byte_ranges", ranges)
        yield


@contextlib.contextmanager
def cpus(n: int):
    """Make ingest see *n* CPUs and cut ranges of any size, so it reads the
    publications file in n ranges that byte_ranges chooses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        mp.setattr(columnar, "MIN_RANGE_BYTES", 1)
        yield


def ingest(run: Path) -> tuple[int, str]:
    argv = ["ingest", "--out", str(run)]
    for name in FILES:
        argv += [f"--{'pubs' if name == 'publications' else name}", str(run / f"{name}.jsonl")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


def n_accepted_pubs(stdout: str) -> int:
    line = next(line for line in stdout.splitlines() if line.startswith("publications: "))
    return int(line.split()[1])


def is_blank(line: bytes) -> bool:
    """Whether ingest skips *line* without a reject: it holds only JSON
    whitespace (space, tab, CR, LF)."""
    try:
        return not line.decode("utf-8").strip(" \t\r\n")
    except UnicodeDecodeError:
        return False


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    run = tmp_path_factory.mktemp("base")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(run), "--authors-n", "5", "--seed", "1"]) == 0
    code, stdout = ingest(run)
    assert code == 0
    assert (run / "rejects.jsonl").read_bytes() == b""
    inputs = {name: (run / f"{name}.jsonl").read_bytes() for name in FILES}
    return {
        "inputs": inputs,
        "lines": {name: data.count(b"\n") for name, data in inputs.items()},
        "pubs": n_accepted_pubs(stdout),
        "journals": len(parse_journals(inputs["journals"].split(b"\n"), [])),
        "authors": len(load_cache(run / CACHE_NAME).columns.author_ids),
        "cache": (run / CACHE_NAME).read_bytes(),
        "first_pub": json.loads(inputs["publications"].splitlines()[0]),
    }


def assert_equals_reference(run: Path) -> None:
    """The CLI ingest outputs in *run* equal the reference path's on its inputs."""
    # BytesIO splits lines on b"\n" only, as iterating a file opened "rb" does
    inputs = {name: io.BytesIO((run / f"{name}.jsonl").read_bytes()) for name in FILES}
    corpus, rejects = parse_corpus(
        inputs["publications"], inputs["journals"], inputs["authors"], REFERENCE_YEAR
    )
    assert (run / "rejects.jsonl").read_bytes() == b"".join(
        r.to_json().encode() + b"\n" for r in rejects
    )
    with open(run / CACHE_NAME, "rb") as fh:
        header, _, _ = read_cache(fh)
    expected = io.BytesIO()
    write_cache(expected, header, columns_from_corpus(corpus))
    assert (run / CACHE_NAME).read_bytes() == expected.getvalue()


def check_appended(base: dict, file: str, extra: list[bytes], cuts_from_end: list[int]) -> None:
    """Append *extra* to *file* and ingest it with the publications file cut
    before the lines *cuts_from_end* counted back from its end."""
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp)
        for name in FILES:
            data = base["inputs"][name]
            if name == file:
                data += b"".join(line + b"\n" for line in extra)
            (run / f"{name}.jsonl").write_bytes(data)
        n_lines = (run / "publications.jsonl").read_bytes().count(b"\n")
        with cut_at_lines([max(n_lines - k, 0) for k in cuts_from_end]):
            code, stdout = ingest(run)
        assert code == 0  # a bad line is a reject, never the end of ingest
        assert_equals_reference(run)
        rejects = [json.loads(line) for line in (run / "rejects.jsonl").read_text().splitlines()]
        cache = (run / CACHE_NAME).read_bytes()
        if file == "publications":
            accepted = n_accepted_pubs(stdout) - base["pubs"]
        elif file == "journals":
            with open(run / "journals.jsonl", "rb") as fh:  # split on b"\n" only, as ingest does
                accepted = len(parse_journals(fh, [])) - base["journals"]
        else:
            accepted = len(load_cache(run / CACHE_NAME).columns.author_ids) - base["authors"]

    first = base["lines"][file] + 1
    appended = {first + i for i, line in enumerate(extra) if not is_blank(line)}
    per_line = Counter(r["line_no"] for r in rejects)
    # no original line of any file gained a reject, no line has two, and
    # each appended line is either accepted or rejected
    assert {r["file"] for r in rejects} <= {file}
    assert set(per_line) <= appended
    assert max(per_line.values(), default=0) <= 1
    assert accepted == len(appended) - len(per_line)
    if accepted == 0 or file == "journals":  # a journal no publication cites is not cached
        assert cache == base["cache"]


raw_lines = st.lists(
    st.one_of(st.binary(max_size=120), json_values.map(lambda v: json.dumps(v).encode())).map(
        lambda line: line.replace(b"\n", b"")
    ),
    min_size=1,
    max_size=4,
)


# where the publications file is cut, counted in lines back from its end, so
# that the cuts fall among the appended lines
cuts_from_end = st.lists(st.integers(0, 6), max_size=3)


@FUZZ
@given(file=st.sampled_from(FILES), extra=raw_lines, cuts=cuts_from_end)
def test_ingest_survives_arbitrary_byte_lines(base, file, extra, cuts):
    check_appended(base, file, extra, cuts)


# (pub_id suffix, field, value): a few ids, so duplicates happen too
replacements = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.tuples(st.sampled_from(PUB_FIELDS), json_values)
        | st.tuples(st.just("citations_by_year"), citation_maps),
    ),
    min_size=1,
    max_size=4,
)


@FUZZ
@given(replacements=replacements, cuts=cuts_from_end)
def test_ingest_survives_any_value_in_a_publication_field(base, replacements, cuts):
    extra = []
    for suffix, (name, value) in replacements:
        obj = dict(base["first_pub"], pub_id=f"fuzz{suffix}")
        obj[name] = value
        extra.append(json.dumps(obj).encode())
    check_appended(base, "publications", extra, cuts)


def late_faults(pub: dict) -> dict[str, list[dict | bytes]]:
    """Lines that pass the early checks of a clean line and fail a later one,
    or that only the record path can normalise, keyed by test id."""
    lines: dict[str, list[dict | bytes]] = {"bool-year": [dict(pub, year=True)]}
    for field in ("author_ids", "cited_ref_disciplines", "affiliation_countries", "affiliation_institutions"):
        for name, bad in (("true", True), ("nested", ["x"]), ("empty", "")):
            lines[f"{field}-{name}"] = [dict(pub, **{field: pub[field] + [bad]})]
    for name, key in (
        ("space", " 1999"),
        ("plus", "+1999"),
        ("underscore", "1_999"),
        ("arabic-indic", "\u0661\u0669\u0669\u0669"),
    ):
        lines[f"citation-key-{name}"] = [dict(pub, year=1998, citations_by_year={key: 4})]
    # two keys that int() reads as one year are a reject, not one count
    # overwriting the other
    lines["citation-key-repeated-as-int"] = [
        dict(pub, year=1998, citations_by_year={"1999": 3, "2000": 1, "01999": 5})
    ]
    lines["citation-key-repeated-with-space"] = [dict(pub, year=1998, citations_by_year={"1999": 1, "1999 ": 7})]
    lines["citation-count-bool"] = [dict(pub, citations_by_year={str(pub["year"]): True})]
    lines["citation-year-before-pub"] = [dict(pub, citations_by_year={str(pub["year"] - 1): 1})]
    # a name accepted as an institution is no accepted discipline code
    lines["discipline-first-seen-mid-file"] = [
        dict(pub, pub_id="new1", cited_ref_disciplines=["Z9", "Z9"]),
        dict(pub, pub_id="new2", cited_ref_disciplines=["Z9"]),
        dict(pub, pub_id="new3", affiliation_institutions=["all"]),
        dict(pub, pub_id="new4", cited_ref_disciplines=["all"]),
    ]
    lines["names-first-seen-mid-file"] = [
        dict(pub, pub_id="new1", affiliation_countries=["ZZ", "AA", "ZZ"], affiliation_institutions=["i9"]),
        dict(pub, pub_id="new2", affiliation_countries=["ZZ"], affiliation_institutions=["i9", "i9"]),
    ]
    lines["duplicate-of-rejected-pub-id"] = [
        dict(pub, pub_id="dup", year=1800),
        dict(pub, pub_id="dup"),
        dict(pub, pub_id="dup"),
    ]
    lines["duplicate-author"] = [dict(pub, author_ids=pub["author_ids"] * 2)]
    lines["journal-id-empty"] = [dict(pub, journal_id="")]
    optional = ("affiliation_countries", "affiliation_institutions", "citations_by_year", "cited_ref_disciplines")
    lines["journal-id-null-and-fields-missing"] = [
        {k: v for k, v in dict(pub, journal_id=None).items() if k not in optional}
    ]
    lines["bom"] = [b"\xef\xbb\xbf" + json.dumps(pub).encode()]
    lines["trailing-data"] = [json.dumps(pub).encode() + b" []"]
    return lines


LATE_FAULT_IDS = list(late_faults({**dict.fromkeys(PUB_FIELDS, []), "year": 2000}))


@pytest.mark.parametrize("case", LATE_FAULT_IDS)
def test_ingest_equals_reference_on_late_faults(base, tmp_path, case):
    pub = dict(base["first_pub"], pub_id="late")
    write_inputs(tmp_path, base, late_faults(pub)[case])
    code, _ = ingest(tmp_path)
    assert code == 0
    assert_equals_reference(tmp_path)
    reasons = pub_rejects(tmp_path, base)
    if case == "bom":
        assert reasons == {1: "invalid json: Unexpected UTF-8 BOM (decode using utf-8-sig)"}
    elif case == "duplicate-of-rejected-pub-id":
        assert reasons == {1: "year 1800 out of [1900, 2022]", 3: "duplicate pub_id dup"}
    elif case == "discipline-first-seen-mid-file":
        assert reasons == {4: "bad discipline 'all'"}
    elif case == "trailing-data":
        assert reasons == {1: "invalid json: Extra data"}
    elif case.startswith("citation-key-repeated-"):
        assert reasons == {1: "duplicate citation year 1999"}
    elif case.startswith(("citation-key-", "names-", "journal-id-null")):
        assert reasons == {}
    else:
        assert len(reasons) == 1


def write_inputs(run: Path, base: dict, extra: list[dict | bytes], final_newline: bool = True) -> None:
    """The base corpus with *extra* lines (a dict as its JSON) appended to its
    publications."""
    lines = [line if isinstance(line, bytes) else json.dumps(line).encode() for line in extra]
    for name in FILES:
        data = base["inputs"][name]
        if name == "publications":
            data += b"\n".join(lines) + (b"\n" if final_newline else b"")
        (run / f"{name}.jsonl").write_bytes(data)


def pub_rejects(run: Path, base: dict) -> dict[int, str]:
    """reason by line number among the appended lines (1 is the first)."""
    first = base["lines"]["publications"]
    return {
        r["line_no"] - first: r["reason"]
        for r in map(json.loads, (run / "rejects.jsonl").read_text().splitlines())
    }


def boundary_cases(pub: dict) -> dict[str, tuple[list[dict | bytes], list[int], dict[int, str]]]:
    """(appended lines, cuts before these appended lines (0-based), expected
    rejects by appended line number), keyed by test id."""
    q7 = dict(cited_ref_disciplines=["Q7"], affiliation_countries=["QQ"], affiliation_institutions=["iq"])
    return {
        "duplicate-across-boundary": (
            [dict(pub, pub_id="x1"), dict(pub, pub_id="x1"), dict(pub, pub_id="x1")],
            [1, 2],
            {2: "duplicate pub_id x1", 3: "duplicate pub_id x1"},
        ),
        "duplicate-of-a-line-before-the-first-cut": ([dict(pub)], [0], {1: f"duplicate pub_id {pub['pub_id']}"}),
        "duplicate-whose-first-copy-was-rejected": (
            [dict(pub, pub_id="dup", year=1800), dict(pub, pub_id="dup"), dict(pub, pub_id="dup")],
            [1, 2],
            {1: "year 1800 out of [1900, 2022]", 3: "duplicate pub_id dup"},
        ),
        "code-first-seen-in-a-later-range": (
            [dict(pub, pub_id="n1"), dict(pub, pub_id="n2", **q7), dict(pub, pub_id="n3", **q7)],
            [1, 2],
            {},
        ),
        "code-only-on-a-cross-range-duplicate": (
            [dict(pub, pub_id="d1"), dict(pub, pub_id="d1", **q7)],
            [1],
            {2: "duplicate pub_id d1"},
        ),
        "code-on-a-cross-range-duplicate-and-a-later-line": (
            [dict(pub, pub_id="d1"), dict(pub, pub_id="d1", **q7), dict(pub, pub_id="d2", **q7)],
            [1],
            {2: "duplicate pub_id d1"},
        ),
        "range-of-rejects-only": (
            [b"not json", dict(pub, pub_id="r1", year=1800), b"[]", dict(pub, pub_id="r2")],
            [0, 3],
            {
                1: "invalid json: Expecting value",
                2: "year 1800 out of [1900, 2022]",
                3: "record is not an object",
            },
        ),
        "empty-last-range": ([dict(pub, pub_id="e1")], [1], {}),
        "blank-and-invalid-utf8-at-boundaries": (
            [b"", b"  \t", b"\xff\xfe", dict(pub, pub_id="u1"), b"\xc3", b""],
            [1, 2, 3, 4, 5],
            {3: "invalid utf-8", 5: "invalid utf-8"},
        ),
    }


BOUNDARY_CASE_IDS = list(boundary_cases({"pub_id": "p", "year": 2000}))


@pytest.mark.parametrize("case", BOUNDARY_CASE_IDS)
def test_ingest_equals_reference_with_ranges_cut_at_chosen_lines(base, tmp_path, case):
    lines, cuts, expected = boundary_cases(base["first_pub"])[case]
    write_inputs(tmp_path, base, lines)
    with cut_at_lines([base["lines"]["publications"] + cut for cut in cuts]):
        code, _ = ingest(tmp_path)
    assert code == 0
    assert_equals_reference(tmp_path)
    assert pub_rejects(tmp_path, base) == expected
    if case.startswith("code-"):
        # the codes of a dropped line are interned only if a kept line has them
        columns = load_cache(tmp_path / CACHE_NAME).columns
        interned = {"Q7", "QQ", "iq"} & {*columns.disc_vocab, *columns.country_vocab, *columns.inst_vocab}
        assert interned == (set() if case == "code-only-on-a-cross-range-duplicate" else {"Q7", "QQ", "iq"})


@pytest.mark.parametrize("cut", [1, 2])
def test_final_line_without_newline(base, tmp_path, cut):
    pub = base["first_pub"]
    write_inputs(tmp_path, base, [dict(pub, pub_id="f1")] * 2, final_newline=False)
    with cut_at_lines([base["lines"]["publications"] + cut]):
        code, _ = ingest(tmp_path)
    assert code == 0
    assert_equals_reference(tmp_path)
    assert pub_rejects(tmp_path, base) == {2: "duplicate pub_id f1"}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ingest_equals_reference_on_any_cpu_count(base, tmp_path, n):
    pub = dict(base["first_pub"], pub_id="late")
    write_inputs(tmp_path, base, [line for lines in late_faults(pub).values() for line in lines])
    assert len(byte_ranges(tmp_path / "publications.jsonl")) == 1  # too small to cut
    with cpus(n):
        assert len(byte_ranges(tmp_path / "publications.jsonl")) == n
        code, _ = ingest(tmp_path)
    assert code == 0
    assert_equals_reference(tmp_path)
    assert list(pub_rejects(tmp_path, base).values()).count("duplicate citation year 1999") == 2


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("use", ["unused", "only-on-a-reject", "only-on-a-cross-range-duplicate"])
def test_a_journal_no_kept_publication_cites_adds_no_discipline(base, tmp_path, use, n):
    """Each builder resolves every journal up front, so it interns the
    discipline code of a journal that no kept publication cites; the merge
    leaves that code out of disc_vocab."""
    pub = base["first_pub"]
    extra, expected = {
        "unused": ([], {}),
        "only-on-a-reject": (
            [dict(pub, pub_id="jx1", journal_id="jx", year=1800)],
            {1: "year 1800 out of [1900, 2022]"},
        ),
        # a copy of line 1, which the first range holds, as the last line
        "only-on-a-cross-range-duplicate": (
            [dict(pub, journal_id="jx")],
            {1: f"duplicate pub_id {pub['pub_id']}"},
        ),
    }[use]
    write_inputs(tmp_path, base, extra, final_newline=bool(extra))
    with open(tmp_path / "journals.jsonl", "ab") as fh:
        fh.write(b'{"journal_id":"jx","percentiles":{"JX":50}}\n')
    with cpus(n):
        code, _ = ingest(tmp_path)
    assert code == 0
    assert_equals_reference(tmp_path)
    assert pub_rejects(tmp_path, base) == expected
    disc_vocab = load_cache(tmp_path / CACHE_NAME).columns.disc_vocab
    assert disc_vocab and "JX" not in disc_vocab


# whitespace that str.strip() removes and JSON does not allow
NON_JSON_SPACE = ("\u00a0", "\u3000", "\u0085", "\u001c", "\u001f", "\u2028", "\u2029", "\x0b", "\x0c")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("file", FILES)
def test_non_json_whitespace_makes_a_reject(base, tmp_path, file, n):
    """Only space, tab, CR and LF surround a value or fill a skipped line;
    a line with any other whitespace gets json.loads' reject."""
    first = json.loads(base["inputs"][file].splitlines()[0])
    id_key = {"publications": "pub_id", "journals": "journal_id", "authors": "author_id"}[file]
    record = json.dumps(dict(first, **{id_key: "ws"}))
    lines = ["", " \t\r", f"\u3000{record}\u3000", f"{record}\u3000", *NON_JSON_SPACE, f" \t{record}\r"]
    for name in FILES:
        data = base["inputs"][name]
        if name == file:
            data += "".join(line + "\n" for line in lines).encode()
        (tmp_path / f"{name}.jsonl").write_bytes(data)
    with cpus(n):
        code, stdout = ingest(tmp_path)
    assert code == 0
    assert_equals_reference(tmp_path)
    rejects = [json.loads(line) for line in (tmp_path / "rejects.jsonl").read_text().splitlines()]
    assert {r["file"] for r in rejects} == {file}
    expected = {3: "invalid json: Expecting value", 4: "invalid json: Extra data"}
    expected.update((5 + i, "invalid json: Expecting value") for i in range(len(NON_JSON_SPACE)))
    assert {r["line_no"] - base["lines"][file]: r["reason"] for r in rejects} == expected
    # the last line, a record between JSON whitespace, is accepted
    assert n_accepted_pubs(stdout) == base["pubs"] + (file == "publications")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cits4y_sums_the_window_of_each_publication(base, tmp_path, n):
    """pub_cits4y counts the publication year and the three after it, on
    the clean and the record path, past int32."""
    pub = base["first_pub"]
    year = pub["year"]
    edges = {str(year): 3, str(year + 3): 5, str(year + 4): 7}
    full = {str(year + k): INT32_MAX for k in range(5)}

    def record_path(name: str) -> dict:
        """A first-seen institution, which sends a line to record()."""
        return dict(affiliation_institutions=[*pub["affiliation_institutions"], name])

    lines = [
        dict(pub, pub_id="w1", citations_by_year=edges),
        dict(pub, pub_id="w2", citations_by_year=edges, **record_path("first-seen-1")),
        dict(pub, pub_id="w3", citations_by_year=full),
        dict(pub, pub_id="w4", citations_by_year=full, **record_path("first-seen-2")),
        dict(pub, pub_id="w5", citations_by_year={str(year + 4): 1}),
    ]
    write_inputs(tmp_path, base, lines)
    with cpus(n):
        code, _ = ingest(tmp_path)
    assert code == 0
    assert pub_rejects(tmp_path, base) == {}
    cits4y = load_cache(tmp_path / CACHE_NAME).columns.pub_cits4y
    corpus, _ = parse_corpus(
        *(io.BytesIO((tmp_path / f"{name}.jsonl").read_bytes()) for name in FILES), REFERENCE_YEAR
    )
    assert cits4y.tolist() == [rec.window_citations for rec in corpus.publications]
    assert cits4y[-5:].tolist() == [8, 8, 8_589_934_588, 8_589_934_588, 0]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("pubs", ["empty", "every-line-a-reject"])
def test_ingest_with_no_accepted_publication_equals_reference(base, tmp_path, pubs, n):
    """Known authors and journals, no publication: every range part and
    every vocabulary is empty."""
    pub = base["first_pub"]
    lines = [
        b"not json",
        json.dumps(dict(pub, year=1800)).encode(),
        b"[]",
        json.dumps(dict(pub, author_ids=["nobody"])).encode(),
        json.dumps(dict(pub, journal_id="nowhere")).encode(),
        b"\xff",
    ]
    for name in FILES:
        (tmp_path / f"{name}.jsonl").write_bytes(base["inputs"][name])
    (tmp_path / "publications.jsonl").write_bytes(b"" if pubs == "empty" else b"\n".join(lines) + b"\n")
    with cpus(n):
        n_ranges = len(byte_ranges(tmp_path / "publications.jsonl"))
        code, stdout = ingest(tmp_path)
    assert code == 0
    assert n_ranges == (1 if pubs == "empty" else n)
    assert n_accepted_pubs(stdout) == 0
    assert_equals_reference(tmp_path)
    rejected = [json.loads(line)["line_no"] for line in (tmp_path / "rejects.jsonl").read_text().splitlines()]
    assert rejected == ([] if pubs == "empty" else list(range(1, len(lines) + 1)))
    columns = load_cache(tmp_path / CACHE_NAME).columns
    assert columns.n_publications == 0 and len(columns.author_ids) == base["authors"] > 0
    assert columns.disc_vocab == columns.country_vocab == columns.inst_vocab == []


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_byte_ranges_cut_at_line_starts(tmp_path, n):
    data = b"".join(b"x" * (i % 7) + b"\n" for i in range(50)) + b"no newline"
    path = tmp_path / "publications.jsonl"
    path.write_bytes(data)
    with cpus(n):
        ranges = byte_ranges(path)
    assert len(ranges) == n
    assert ranges[0][0] == 0 and ranges[-1][1] is None
    for (_, end), (start, _) in zip(ranges, ranges[1:]):
        assert end == start and data[start - 1 : start] == b"\n"
    # a line longer than a range leaves fewer, never empty, ranges
    path.write_bytes(b"x" * 100 + b"\n" + b"y\n")
    with cpus(n):
        assert byte_ranges(path) == ([(0, 101), (101, None)] if n > 1 else [(0, None)])
    path.write_bytes(b"")
    with cpus(n):
        assert byte_ranges(path) == [(0, None)]


def test_a_file_below_the_range_minimum_is_ingested_without_a_fork(base, tmp_path):
    def no_fork():
        raise AssertionError("ingest forked a worker")

    write_inputs(tmp_path, base, [])
    assert len(base["inputs"]["publications"]) < 2 * columnar.MIN_RANGE_BYTES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        mp.setattr(os, "fork", no_fork)
        code, _ = ingest(tmp_path)
    assert code == 0
    assert (tmp_path / CACHE_NAME).read_bytes() == base["cache"]


def test_ingest_reads_publications_from_a_pipe(base, tmp_path):
    """A pipe's size reads 0: it is read whole, in one range."""
    write_inputs(tmp_path, base, [])
    fifo = tmp_path / "pipe.jsonl"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(base["inputs"]["publications"],))
    writer.start()
    argv = ["ingest", "--out", str(tmp_path), "--pubs", str(fifo)]
    argv += ["--journals", str(tmp_path / "journals.jsonl"), "--authors", str(tmp_path / "authors.jsonl")]
    with cpus(2), contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (tmp_path / CACHE_NAME).read_bytes() == base["cache"]


@pytest.mark.parametrize("failure", ["worker-raises", "worker-dies", "parent-raises"])
def test_failed_range_keeps_the_previous_cache_and_reaps_every_worker(base, tmp_path, capsys, failure):
    write_inputs(tmp_path, base, [])
    assert ingest(tmp_path)[0] == 0
    before = {name: (tmp_path / name).read_bytes() for name in (CACHE_NAME, "rejects.jsonl")}
    write_inputs(tmp_path, base, [b"not json"])
    parent = os.getpid()
    real = columnar.ingest_range

    def failing(path, start, end, *args):
        in_worker = os.getpid() != parent
        if failure == "worker-dies" and in_worker:
            os._exit(3)
        if failure == ("worker-raises" if in_worker else "parent-raises"):
            raise RuntimeError("range failed")
        return real(path, start, end, *args)

    argv = ["ingest", "--out", str(tmp_path)]
    for name in FILES:
        argv += [f"--{'pubs' if name == 'publications' else name}", str(tmp_path / f"{name}.jsonl")]
    with cpus(3), pytest.MonkeyPatch.context() as mp:
        mp.setattr(columnar, "ingest_range", failing)
        if failure == "parent-raises":
            with pytest.raises(RuntimeError, match="range failed"):
                main(argv)
        else:
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "stage ingest" in err
            assert ("RuntimeError: range failed" in err) == (failure == "worker-raises")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_a_range_is_ingested_without_calling_numpy(base, tmp_path):
    """A forked worker runs ingest_range; numpy may hold threads that do not
    survive a fork, so ingest_range must not call into it."""
    numpy_dir = os.path.dirname(np.__file__)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            calls.append(frame.f_code.co_name)
        elif event == "c_call" and "numpy" in f"{getattr(arg, '__module__', '')} {type(arg).__module__}":
            calls.append(repr(arg))

    write_inputs(tmp_path, base, [b"not json", dict(base["first_pub"], pub_id="n1")])
    journals = parse_journals(io.BytesIO(base["inputs"]["journals"]), [])
    authors = parse_authors(io.BytesIO(base["inputs"]["authors"]), [])
    sys.setprofile(profile)
    try:
        result = ingest_range(tmp_path / "publications.jsonl", 0, None, journals, authors, REFERENCE_YEAR)
    finally:
        sys.setprofile(None)
    assert calls == []
    assert len(result.rejects) == 1 and result.pub_ids[-1] == "n1"
    assert b"numpy" not in pickle.dumps(result)
