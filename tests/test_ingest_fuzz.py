"""Ingest never aborts on a bad input line, and agrees with the reference.

Generated lines are appended to a small valid corpus and the real CLI ingests
it. Every appended non-blank line must end up either accepted or as exactly
one reject carrying its line number, and the original lines must keep their
results. The CLI's rejects.jsonl and the column section of its cache must
equal those of the record-level reference path (parse_corpus, then
columns_from_corpus and dump_columns) on the same input bytes.
"""
import contextlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from careerflow.cli import main
from careerflow.columnar import columns_from_corpus, dump_columns
from careerflow.corpus import parse_corpus, parse_journals
from careerflow.pipeline import CACHE_NAME, load_cache

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
REFERENCE_YEAR = 2022  # the CLI ingest default
COLUMN_KINDS = ("meta", "strings", "overrides", "array")
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
    """Whether ingest skips *line* without a reject."""
    try:
        return not line.decode("utf-8").strip()
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
    columns = io.StringIO()
    dump_columns(columns_from_corpus(corpus), columns)
    cached = [
        line
        for line in (run / CACHE_NAME).read_text(encoding="utf-8").splitlines(keepends=True)
        if json.loads(line)["kind"] in COLUMN_KINDS
    ]
    assert "".join(cached) == columns.getvalue()


def check_appended(base: dict, file: str, extra: list[bytes]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp)
        for name in FILES:
            data = base["inputs"][name]
            if name == file:
                data += b"".join(line + b"\n" for line in extra)
            (run / f"{name}.jsonl").write_bytes(data)
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


@FUZZ
@given(file=st.sampled_from(FILES), extra=raw_lines)
def test_ingest_survives_arbitrary_byte_lines(base, file, extra):
    check_appended(base, file, extra)


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
@given(replacements=replacements)
def test_ingest_survives_any_value_in_a_publication_field(base, replacements):
    extra = []
    for suffix, (name, value) in replacements:
        obj = dict(base["first_pub"], pub_id=f"fuzz{suffix}")
        obj[name] = value
        extra.append(json.dumps(obj).encode())
    check_appended(base, "publications", extra)


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
    # the later count wins, at the place of the first key: 1999 counts 5 in
    # the four-year window 1998-2001
    lines["citation-key-repeated-as-int"] = [
        dict(pub, year=1998, citations_by_year={"1999": 3, "2000": 1, "01999": 5})
    ]
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
    extra = [line if isinstance(line, bytes) else json.dumps(line).encode() for line in late_faults(pub)[case]]
    for name in FILES:
        data = base["inputs"][name]
        if name == "publications":
            data += b"".join(line + b"\n" for line in extra)
        (tmp_path / f"{name}.jsonl").write_bytes(data)
    code, _ = ingest(tmp_path)
    assert code == 0
    assert_equals_reference(tmp_path)
    reasons = {
        r["line_no"] - base["lines"]["publications"]: r["reason"]
        for r in map(json.loads, (tmp_path / "rejects.jsonl").read_text().splitlines())
    }
    if case == "bom":
        assert reasons == {1: "invalid json: Unexpected UTF-8 BOM (decode using utf-8-sig)"}
    elif case == "duplicate-of-rejected-pub-id":
        assert reasons == {1: "year 1800 out of [1900, 2022]", 3: "duplicate pub_id dup"}
    elif case == "discipline-first-seen-mid-file":
        assert reasons == {4: "bad discipline 'all'"}
    elif case == "trailing-data":
        assert reasons == {1: "invalid json: Extra data"}
    elif case.startswith(("citation-key-", "names-", "journal-id-null")):
        assert reasons == {}
    else:
        assert len(reasons) == 1
