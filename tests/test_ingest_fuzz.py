"""Ingest never aborts on a bad input line.

Generated lines are appended to a small valid corpus and the real CLI ingests
it. Every appended non-blank line must end up either accepted or as exactly
one reject carrying its line number, and the original lines must keep their
results.
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
from careerflow.corpus import parse_journals
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
