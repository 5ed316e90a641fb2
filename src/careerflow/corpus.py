"""Corpus data model, line-delimited parsing, and the sample filter chain.

Input is three line-delimited JSON files (publications, journals, authors).
Malformed lines become reject records, never silent drops. Filtering applies
five gates in a fixed order so the removal counts are comparable across runs.
run_shares runs the shares of work that synth and ingest cut, one process
per CPU (share_count), and write_aside gives synth, ingest and analyze their
all-or-nothing file writes.
"""
from __future__ import annotations

import contextlib
import json
import os
import pickle
import re
import signal
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, BinaryIO, Callable, Iterable, Iterator

from . import CorpusError, StageError

DOC_TYPES = ("article", "conference_paper", "other")
QUALIFYING_DOC_TYPES = frozenset(("article", "conference_paper"))
# each label's index is its code in the cache
GENDER_LABELS = ("unknown", "female", "male")

MIN_YEAR = 1900
REFERENCE_YEAR = 2022  # the snapshot year of ingest and synth when none is given
# the latest reference year the CLI takes: four digits, far inside int32
MAX_REFERENCE_YEAR = 9999
ECHO_MAX = 64  # longest input value a reject reason quotes in full
FWCI_WINDOW = 4  # publication year plus three consecutive years
# a citation year must fit the cache's int32 year column, and a count the
# same bound, so sums of counts stay far inside int64; a larger value makes
# the line a reject instead of an OverflowError that aborts ingest
INT32_MAX = 2**31 - 1
# analyze names output files after discipline codes, and "all" is its
# aggregate scope, so these codes cannot name a discipline
RESERVED_DISCIPLINES = frozenset((".", "..", "all"))
# nor can a code with a path separator, a control character (C0, DEL or C1)
# or a line or paragraph separator, which would also split a TSV row or line
# of the outputs it names (str.splitlines() breaks on NEL, U+2028 and U+2029),
# or a lone surrogate, which is not UTF-8 text
BAD_DISCIPLINE_CHARS = re.compile(r"[/\\\x00-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff]")
# file names are limited to 255 bytes, and analyze's longest name built from
# a code, .P1_<code>.tsv.<pid>.tmp, adds at most 20 bytes to it on Linux
# (pid <= 4,194,304)
MAX_DISCIPLINE_BYTES = 200

PUBLICATIONS_FILE = "publications"
JOURNALS_FILE = "journals"
AUTHORS_FILE = "authors"

_raw_decode = json.JSONDecoder().raw_decode


def share_count(total: int, minimum: int) -> int:
    """How many shares to cut *total* units of work into: one per CPU of this
    process's affinity mask (a platform without affinity masks, and without
    fork, has one), but no more than leaves *minimum* units per share, and
    always at least one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, total // minimum))


def run_shares(stage: str, shares: list[tuple[str, Callable[[], object]]]) -> list[object]:
    """Call each share's work, a (what, work) pair, and return the results
    in share order; *what* names the share in errors.

    shares[0] runs in this process, each other share in a forked worker,
    which pickles (True, its result) or (False, the error text) into a pipe
    and leaves by os._exit, so it runs no exit handler and flushes no buffer
    it inherited. The replies are read once shares[0] is done; a failed or
    dead worker is a StageError of *stage*. Every worker is reaped before
    this returns or raises: on an exception, each one still running is
    killed.

    A fork copies only the thread that calls it, so a worker must not call
    into a library that may hold a pool of threads: ingest's workers never
    call numpy, and synth's call numpy's random generators and array
    functions but no BLAS or LAPACK routine.
    """
    running: list[tuple[int, BinaryIO, str]] = []
    try:
        for what, work in shares[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        try:
                            reply = (True, work())
                        except Exception as exc:
                            reply = (False, f"{type(exc).__name__}: {exc}")
                        pickle.dump(reply, pipe, protocol=pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            running.append((pid, open(read_fd, "rb"), what))
        results = [shares[0][1]()]
        while running:
            pid, pipe, what = running[0]
            try:
                ok, reply = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                ok, reply = False, "no result"
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del running[0]
            if not ok or status != 0:
                raise StageError(
                    stage,
                    f"worker for {what} failed "
                    f"(exit {os.waitstatus_to_exitcode(status)}): {reply}",
                )
            results.append(reply)
        return results
    finally:
        for pid, pipe, _ in running:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def aside_path(path: Path) -> Path:
    """The temporary file that write_aside writes for *path*: hidden, beside
    it, and named for this process."""
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


@contextlib.contextmanager
def write_aside() -> Iterator[Callable[..., IO]]:
    """Yield a function open_aside(path, binary=False) that opens
    aside_path(path) for writing, in binary or as UTF-8 text. When the with
    block ends without an exception, every file it opened is closed and
    renamed onto its path, in the order opened; on any exception they are
    removed. So a failure part way leaves no truncated file and keeps every
    previous one, and a path that is a symbolic link is replaced by a
    regular file, never written through."""
    opened: list[tuple[Path, Path, IO]] = []

    def open_aside(path: Path, binary: bool = False) -> IO:
        tmp = aside_path(path)
        fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8")
        opened.append((path, tmp, fh))
        return fh

    try:
        yield open_aside
        for _, _, fh in opened:
            fh.close()
        for path, tmp, _ in opened:
            os.replace(tmp, path)
    finally:
        for _, tmp, fh in opened:
            fh.close()
            tmp.unlink(missing_ok=True)


class _LineError(ValueError):
    """Internal: schema violation on a single input line."""


@dataclass(slots=True)
class PublicationRecord:
    """One indexed publication.

    Set-valued fields (countries, institutions) are stored as sorted
    duplicate-free tuples; author_ids keeps its input order.
    """

    pub_id: str
    year: int
    doc_type: str
    author_ids: tuple[str, ...]
    affiliation_countries: tuple[str, ...]
    affiliation_institutions: tuple[str, ...]
    journal_id: str | None
    citations_by_year: dict[int, int]
    cited_ref_disciplines: tuple[str, ...]

    @property
    def qualifying(self) -> bool:
        return self.doc_type in QUALIFYING_DOC_TYPES

    @property
    def window_citations(self) -> int:
        """Citations in the FWCI_WINDOW years from the publication year."""
        return sum(
            count
            for year, count in self.citations_by_year.items()
            if self.year <= year < self.year + FWCI_WINDOW
        )


@dataclass(slots=True)
class JournalRecord:
    journal_id: str
    percentile_by_discipline: dict[str, int]

    @property
    def max_percentile(self) -> int:
        return max(self.percentile_by_discipline.values())


@dataclass(slots=True)
class AuthorRecord:
    author_id: str
    gender_label: str
    gender_probability: float
    country_override: str | None = None


@dataclass(slots=True)
class Reject:
    line_no: int
    file: str
    reason: str

    def to_json(self) -> str:
        return json.dumps(
            {"line_no": self.line_no, "file": self.file, "reason": self.reason},
            separators=(",", ":"),
        )


@dataclass
class Corpus:
    publications: list[PublicationRecord]
    journals: dict[str, JournalRecord]
    authors: dict[str, AuthorRecord]
    reference_year: int


@dataclass(frozen=True)
class SampleFilterConfig:
    """Gate parameters for sample selection.

    allowed_countries / allowed_disciplines of None mean "no restriction";
    authors whose dominant value is undefined still fail the gate.
    """

    allowed_countries: frozenset[str] | None = None
    allowed_disciplines: frozenset[str] | None = None
    min_publications: int = 3
    min_academic_age: int = 25
    max_academic_age: int = 50
    active_window_years: int = 5

    def __post_init__(self) -> None:
        if self.min_publications < 1:
            raise CorpusError("min_publications must be >= 1")
        if not (0 < self.min_academic_age <= self.max_academic_age):
            raise CorpusError("need 0 < min_academic_age <= max_academic_age")
        if self.active_window_years < 1:
            raise CorpusError("active_window_years must be >= 1")


GATE_ORDER = (
    "country",
    "discipline",
    "min_publications",
    "academic_age",
    "recent_activity",
)


@dataclass
class FilterReport:
    """Removal count per gate, in gate order, plus the retained count."""

    removed: dict[str, int]
    retained: int
    total: int

    @property
    def removed_total(self) -> int:
        return sum(self.removed.values())


# ---------------------------------------------------------------------------
# line-level parsing


def _echo(value: object) -> str:
    """*value* as a reject reason quotes it: cut to ECHO_MAX characters, with
    a marker giving the full length, so one huge field cannot bloat rejects."""
    text = str(value)
    if len(text) <= ECHO_MAX:
        return text
    return f"{text[:ECHO_MAX]}...[{len(text)} chars]"


def _req_str(obj: dict, key: str) -> str:
    val = obj.get(key)
    if not isinstance(val, str) or not val:
        raise _LineError(f"missing {key}")
    return val


def _req_int(obj: dict, key: str) -> int:
    val = obj.get(key)
    if isinstance(val, bool) or not isinstance(val, int):
        raise _LineError(f"missing {key}")
    return val


def _str_list(obj: dict, key: str) -> list[str]:
    val = obj.get(key, [])
    if not isinstance(val, list) or any(not isinstance(v, str) or not v for v in val):
        raise _LineError(f"bad {key}")
    return val


def _check_disciplines(codes: Iterable[str], accepted: set[str]) -> None:
    """Reject a discipline code that cannot name an output file: reserved,
    holding a path separator, a control character or a lone surrogate (not
    UTF-8 encodable), or longer than MAX_DISCIPLINE_BYTES in UTF-8.
    *accepted* holds the codes already passed, so each is tested once."""
    if accepted.issuperset(codes):
        return
    for code in codes:
        # the character test comes first: it leaves only encodable codes
        if (
            code in RESERVED_DISCIPLINES
            or BAD_DISCIPLINE_CHARS.search(code)
            or len(code.encode("utf-8")) > MAX_DISCIPLINE_BYTES
        ):
            raise _LineError(f"bad discipline {_echo(repr(code))}")
        accepted.add(code)


def _sorted_unique(values: list[str]) -> tuple[str, ...]:
    return tuple(sorted(set(values)))


def parse_journal_line(obj: dict) -> JournalRecord:
    journal_id = _req_str(obj, "journal_id")
    raw = obj.get("percentiles")
    if not isinstance(raw, dict) or not raw:
        raise _LineError("missing percentiles")
    percentiles: dict[str, int] = {}
    for disc, pct in raw.items():
        if not isinstance(disc, str) or not disc:
            raise _LineError("bad percentiles key")
        if isinstance(pct, bool) or not isinstance(pct, int) or not 0 <= pct <= 99:
            raise _LineError(f"percentile out of range for {_echo(disc)}")
        percentiles[disc] = pct
    _check_disciplines(percentiles, set())
    return JournalRecord(journal_id, percentiles)


def parse_author_line(obj: dict) -> AuthorRecord:
    author_id = _req_str(obj, "author_id")
    label = obj.get("gender_label", "unknown")
    if label not in GENDER_LABELS:
        raise _LineError(f"bad gender_label {_echo(repr(label))}")
    prob = obj.get("gender_probability")
    if prob is None:
        if label != "unknown":
            raise _LineError("gender_probability required when label known")
        prob = 0.0
    if isinstance(prob, bool) or not isinstance(prob, (int, float)) or not 0.0 <= prob <= 1.0:
        raise _LineError("gender_probability out of [0,1]")
    override = obj.get("country_override")
    if override is not None and (not isinstance(override, str) or not override):
        raise _LineError("bad country_override")
    return AuthorRecord(author_id, label, float(prob), override)


def parse_publication_line(
    obj: dict,
    journals: dict[str, JournalRecord],
    authors: dict[str, AuthorRecord],
    reference_year: int,
) -> PublicationRecord:
    pub_id = _req_str(obj, "pub_id")
    year = _req_int(obj, "year")
    if not MIN_YEAR <= year <= reference_year:
        raise _LineError(f"year {_echo(year)} out of [{MIN_YEAR}, {reference_year}]")
    doc_type = _req_str(obj, "doc_type")
    if doc_type not in DOC_TYPES:
        raise _LineError(f"bad doc_type {_echo(repr(doc_type))}")
    author_ids = _str_list(obj, "author_ids")
    if not author_ids:
        raise _LineError("empty author_ids")
    if len(set(author_ids)) != len(author_ids):
        raise _LineError("duplicate author id")
    for aid in author_ids:
        if aid not in authors:
            raise _LineError(f"unresolved author reference: {_echo(aid)}")
    journal_id = obj.get("journal_id")
    if journal_id is not None:
        if not isinstance(journal_id, str) or not journal_id:
            raise _LineError("bad journal_id")
        if journal_id not in journals:
            raise _LineError(f"unresolved journal reference: {_echo(journal_id)}")
    raw_cits = obj.get("citations_by_year", {})
    if not isinstance(raw_cits, dict):
        raise _LineError("bad citations_by_year")
    citations: dict[int, int] = {}
    for key, cnt in raw_cits.items():
        try:
            cit_year = int(key)
        except (TypeError, ValueError):
            raise _LineError(f"bad citation year {_echo(repr(key))}") from None
        if cit_year < year:
            raise _LineError(f"citation year {_echo(cit_year)} precedes publication year")
        if cit_year > INT32_MAX:
            raise _LineError(f"citation year {_echo(cit_year)} out of range")
        if isinstance(cnt, bool) or not isinstance(cnt, int) or not 0 <= cnt <= INT32_MAX:
            raise _LineError(f"bad citation count for year {_echo(cit_year)}")
        if cit_year in citations:
            raise _LineError(f"duplicate citation year {_echo(cit_year)}")
        citations[cit_year] = cnt
    return PublicationRecord(
        pub_id=pub_id,
        year=year,
        doc_type=doc_type,
        author_ids=tuple(author_ids),
        affiliation_countries=_sorted_unique(_str_list(obj, "affiliation_countries")),
        affiliation_institutions=_sorted_unique(_str_list(obj, "affiliation_institutions")),
        journal_id=journal_id,
        citations_by_year=citations,
        cited_ref_disciplines=tuple(_str_list(obj, "cited_ref_disciplines")),
    )


def iter_json_lines(
    lines: Iterable[str | bytes], file: str, rejects: list[Reject]
) -> Iterator[tuple[int, dict]]:
    """Numbered JSON objects of *lines*; a line that is not one becomes a reject.

    Lines may be str, or bytes as read from a file opened in binary mode, so
    that a bad byte rejects its own line instead of aborting the whole file.
    """
    line_no = 0
    for raw in lines:
        line_no += 1
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                rejects.append(Reject(line_no, file, "invalid utf-8"))
                continue
        # only JSON's own whitespace: any other is a json.loads error
        raw = raw.strip(" \t\r\n")
        if not raw:
            continue
        # the stripped line is one JSON value exactly when raw_decode ends at
        # its end; any other line is parsed again by json.loads for the exact
        # error (a leading U+FEFF is "Unexpected UTF-8 BOM" there, not
        # raw_decode's "Expecting value")
        try:
            obj, end = _raw_decode(raw)
        except (ValueError, RecursionError):
            end = -1
        if end != len(raw):
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                rejects.append(Reject(line_no, file, f"invalid json: {exc.msg}"))
                continue
            except ValueError:  # int() past the interpreter's digit limit
                rejects.append(Reject(line_no, file, "invalid json: integer too long"))
                continue
            except RecursionError:
                rejects.append(Reject(line_no, file, "invalid json: nesting too deep"))
                continue
        if not isinstance(obj, dict):
            rejects.append(Reject(line_no, file, "record is not an object"))
            continue
        yield line_no, obj


def _parse_records(
    lines: Iterable[str | bytes], file: str, key: str, parse_line: Callable[[dict], object], rejects: list[Reject]
) -> dict:
    """The records of a keyed file, by their *key* field: a line that
    parse_line refuses, or whose key an earlier line took, becomes a reject."""
    records: dict = {}
    for line_no, obj in iter_json_lines(lines, file, rejects):
        try:
            rec = parse_line(obj)
        except _LineError as exc:
            rejects.append(Reject(line_no, file, str(exc)))
            continue
        value = getattr(rec, key)
        if value in records:
            rejects.append(duplicate_reject(line_no, file, key, value))
            continue
        records[value] = rec
    return records


def parse_journals(lines: Iterable[str | bytes], rejects: list[Reject]) -> dict[str, JournalRecord]:
    return _parse_records(lines, JOURNALS_FILE, "journal_id", parse_journal_line, rejects)


def parse_authors(lines: Iterable[str | bytes], rejects: list[Reject]) -> dict[str, AuthorRecord]:
    return _parse_records(lines, AUTHORS_FILE, "author_id", parse_author_line, rejects)


def duplicate_reject(line_no: int, file: str, key: str, value: str) -> Reject:
    """The reject of a line whose *key* field holds a value an earlier line took."""
    return Reject(line_no, file, f"duplicate {key} {_echo(value)}")


class PublicationValidator:
    """Line checks of one publication stream, with the state that spans its
    lines: the pub_ids accepted so far, and the discipline codes and the
    country and institution names that accepted lines carried.

    record() is the exact path: every reject reason of a publication line
    comes from it. clean_fields() is a shortcut for lines that pass all of
    record()'s checks; it never accepts a line that record() would reject.
    """

    def __init__(
        self,
        journals: dict[str, JournalRecord],
        authors: dict[str, AuthorRecord],
        reference_year: int,
    ):
        self.journals = journals
        self.authors = authors
        self.reference_year = reference_year
        # accepted pub_ids in acceptance order (a dict keeps it)
        self.seen: dict[str, None] = {}
        self.disciplines: set[str] = set()
        self.names: set[str] = set()

    def record(self, line_no: int, obj: dict, rejects: list[Reject]) -> PublicationRecord | None:
        """*obj* as a validated record, or None with its reject appended."""
        try:
            rec = parse_publication_line(obj, self.journals, self.authors, self.reference_year)
            _check_disciplines(rec.cited_ref_disciplines, self.disciplines)
        except _LineError as exc:
            rejects.append(Reject(line_no, PUBLICATIONS_FILE, str(exc)))
            return None
        if rec.pub_id in self.seen:
            rejects.append(duplicate_reject(line_no, PUBLICATIONS_FILE, "pub_id", rec.pub_id))
            return None
        self.seen[rec.pub_id] = None
        self.names.update(rec.affiliation_countries, rec.affiliation_institutions)
        return rec

    def clean_fields(self, obj: dict) -> tuple | None:
        """(year, doc_type, author_ids, affiliation_countries,
        affiliation_institutions, journal_id, window_citations,
        cited_ref_disciplines) of *obj*, normalised as record() would, when
        the line passes all of record()'s checks; else None, and the line is
        left to record(). An accepted pub_id is marked seen.

        The tests are C-level where they can be. Every element of a list
        field must be a known value: an author id of *authors*, or a
        discipline code or name that an earlier accepted line carried. Known
        values are non-empty strings (as parse_authors and parse_journals
        give ids), so this also checks the element types. A new value, a
        repeated pub_id or a repeated citation year answers None.
        """
        try:
            pub_id = obj.get("pub_id")
            year = obj.get("year")
            author_ids = obj.get("author_ids")
            countries = obj.get("affiliation_countries", [])
            institutions = obj.get("affiliation_institutions", [])
            refs = obj.get("cited_ref_disciplines", [])
            journal_id = obj.get("journal_id")
            raw_cits = obj.get("citations_by_year", {})
            if not (
                type(pub_id) is str
                and pub_id
                and pub_id not in self.seen
                and type(year) is int
                and MIN_YEAR <= year <= self.reference_year
                and obj.get("doc_type") in DOC_TYPES
                and type(author_ids) is list
                and author_ids
                and len(author_set := set(author_ids)) == len(author_ids)
                and self.authors.keys() >= author_set
                and type(countries) is list
                and self.names.issuperset(countries)
                and type(institutions) is list
                and self.names.issuperset(institutions)
                and type(refs) is list
                and self.disciplines.issuperset(refs)
                and (journal_id is None or journal_id in self.journals)
                and type(raw_cits) is dict
            ):
                return None
            cit_years = list(map(int, raw_cits))
            cits4y = 0
            for cit_year, cnt in zip(cit_years, raw_cits.values()):
                if not (year <= cit_year <= INT32_MAX and type(cnt) is int and 0 <= cnt <= INT32_MAX):
                    return None
                if cit_year < year + FWCI_WINDOW:
                    cits4y += cnt
            if len(cit_years) > 1 and len(set(cit_years)) < len(cit_years):
                return None
        except (TypeError, ValueError):
            return None
        self.seen[pub_id] = None
        return (
            year,
            obj["doc_type"],
            author_ids,
            countries if len(countries) < 2 else sorted(set(countries)),
            institutions if len(institutions) < 2 else sorted(set(institutions)),
            journal_id,
            cits4y,
            refs,
        )


def iter_publications(
    lines: Iterable[str | bytes],
    journals: dict[str, JournalRecord],
    authors: dict[str, AuthorRecord],
    reference_year: int,
    rejects: list[Reject],
) -> Iterator[PublicationRecord]:
    """Validated publication stream; schema violations land in *rejects*.

    The record-level reference of ingest: the columnar builder's add_lines
    must agree with it line for line.
    """
    validator = PublicationValidator(journals, authors, reference_year)
    for line_no, obj in iter_json_lines(lines, PUBLICATIONS_FILE, rejects):
        rec = validator.record(line_no, obj, rejects)
        if rec is not None:
            yield rec


def parse_corpus(
    publication_lines: Iterable[str],
    journal_lines: Iterable[str],
    author_lines: Iterable[str],
    reference_year: int,
) -> tuple[Corpus, list[Reject]]:
    """Parse the three input streams into a validated Corpus plus rejects."""
    rejects: list[Reject] = []
    journals = parse_journals(journal_lines, rejects)
    authors = parse_authors(author_lines, rejects)
    pubs = list(iter_publications(publication_lines, journals, authors, reference_year, rejects))
    return Corpus(pubs, journals, authors, reference_year), rejects


# ---------------------------------------------------------------------------
# serialization (round-trip safe)


def publication_to_json(rec: PublicationRecord) -> str:
    obj = {
        "pub_id": rec.pub_id,
        "year": rec.year,
        "doc_type": rec.doc_type,
        "author_ids": list(rec.author_ids),
        "affiliation_countries": list(rec.affiliation_countries),
        "affiliation_institutions": list(rec.affiliation_institutions),
        "journal_id": rec.journal_id,
        "citations_by_year": {str(y): rec.citations_by_year[y] for y in sorted(rec.citations_by_year)},
        "cited_ref_disciplines": list(rec.cited_ref_disciplines),
    }
    return json.dumps(obj, separators=(",", ":"))


def journal_to_json(rec: JournalRecord) -> str:
    obj = {
        "journal_id": rec.journal_id,
        "percentiles": {d: rec.percentile_by_discipline[d] for d in sorted(rec.percentile_by_discipline)},
    }
    return json.dumps(obj, separators=(",", ":"))


def author_to_json(rec: AuthorRecord) -> str:
    obj: dict = {
        "author_id": rec.author_id,
        "gender_label": rec.gender_label,
        "gender_probability": rec.gender_probability,
    }
    if rec.country_override is not None:
        obj["country_override"] = rec.country_override
    return json.dumps(obj, separators=(",", ":"))


def serialize_corpus(corpus: Corpus) -> tuple[list[str], list[str], list[str]]:
    """Corpus back to (publication, journal, author) line lists."""
    pub_lines = [publication_to_json(p) for p in corpus.publications]
    journal_lines = [journal_to_json(corpus.journals[j]) for j in sorted(corpus.journals)]
    author_lines = [author_to_json(corpus.authors[a]) for a in sorted(corpus.authors)]
    return pub_lines, journal_lines, author_lines


# ---------------------------------------------------------------------------
# sample filter


@dataclass
class AuthorSummary:
    """Per-author reductions needed by the filter gates."""

    first_pub_year: int | None = None
    qualifying_count: int = 0
    active_in_window: bool = False
    countries: Counter = field(default_factory=Counter)
    disciplines: Counter = field(default_factory=Counter)


def modal_value(counts: Counter) -> str | None:
    """Most frequent value; ties break to the lexicographically smallest."""
    if not counts:
        return None
    return min(counts.items(), key=lambda item: (-item[1], item[0]))[0]


def accumulate_summaries(
    pubs: Iterable[PublicationRecord],
    reference_year: int,
    active_window_years: int,
) -> dict[str, AuthorSummary]:
    window_start = reference_year - active_window_years + 1
    summaries: dict[str, AuthorSummary] = {}
    for pub in pubs:
        qualifying = pub.qualifying
        active = qualifying and window_start <= pub.year <= reference_year
        for aid in pub.author_ids:
            s = summaries.get(aid)
            if s is None:
                s = summaries[aid] = AuthorSummary()
            if s.first_pub_year is None or pub.year < s.first_pub_year:
                s.first_pub_year = pub.year
            if qualifying:
                s.qualifying_count += 1
            if active:
                s.active_in_window = True
            s.countries.update(pub.affiliation_countries)
            s.disciplines.update(pub.cited_ref_disciplines)
    return summaries


def apply_gates(
    author_ids: Iterable[str],
    summaries: dict[str, AuthorSummary],
    authors: dict[str, AuthorRecord],
    config: SampleFilterConfig,
    reference_year: int,
) -> tuple[set[str], FilterReport]:
    """Run the gate chain over *author_ids* in sorted order."""
    removed = {gate: 0 for gate in GATE_ORDER}
    retained: set[str] = set()
    total = 0
    for aid in sorted(author_ids):
        total += 1
        s = summaries.get(aid)
        country = None
        if s is not None:
            override = authors[aid].country_override if aid in authors else None
            country = override if override is not None else modal_value(s.countries)
        if country is None or (
            config.allowed_countries is not None and country not in config.allowed_countries
        ):
            removed["country"] += 1
            continue
        discipline = modal_value(s.disciplines)
        if discipline is None or (
            config.allowed_disciplines is not None and discipline not in config.allowed_disciplines
        ):
            removed["discipline"] += 1
            continue
        if s.qualifying_count < config.min_publications:
            removed["min_publications"] += 1
            continue
        age = reference_year - s.first_pub_year
        if not config.min_academic_age <= age <= config.max_academic_age:
            removed["academic_age"] += 1
            continue
        if not s.active_in_window:
            removed["recent_activity"] += 1
            continue
        retained.add(aid)
    return retained, FilterReport(removed, len(retained), total)


def filter_sample(corpus: Corpus, config: SampleFilterConfig) -> tuple[set[str], FilterReport]:
    """Apply the five sample gates: country, discipline, nonoccasional count,
    academic age, recent activity. Returns retained author ids and the
    per-gate removal report."""
    summaries = accumulate_summaries(
        corpus.publications, corpus.reference_year, config.active_window_years
    )
    return apply_gates(corpus.authors.keys(), summaries, corpus.authors, config, corpus.reference_year)
