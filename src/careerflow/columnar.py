"""Columnar view of a corpus, ingest, and the ingest cache.

The builder consumes publication lines (ingest) or validated
PublicationRecord objects (an in-memory Corpus) one at a time and keeps only
flat arrays, so corpora with millions of publications never exist as object
lists. Ingest (run_ingest) reads a publications file in byte ranges, one
builder per range (ingest_range), merges them in file order into the columns
(merge_ranges), runs the sample filter's gates over them and writes the
cache. This module writes and loads the cache (write_cache, read_cache,
load_cache): a version line with a sha256 of the rest, one json line with
ingest's header (the filter config, the retained authors' indices and the
filter report), then the arrays as raw little-endian blocks.
corpus.read_cache_head reads the two json lines.

run_ingest is the part of ingest that needs numpy. Before it, the CLI
checks with corpus.ingest_reuse what the last ingest in the run dir left:
a re-ingest of unchanged inputs with the same gates has nothing left to
do, and one with other gates takes its columns from the verified cache and
runs only the gates.
"""
from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import json
import os
from array import array
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import BinaryIO, Collection, Iterable, Iterator

import numpy as np

from .corpus import (
    AUTHORS_FILE,
    CACHE_ALIGN,
    CACHE_DAMAGED,
    CACHE_NAME,
    CACHE_VERSION,
    FILTER_REPORT_NAME,
    GATE_ORDER,
    GENDER_LABELS,
    INGEST_REUSE_NAME,
    JOURNALS_FILE,
    PUBLICATIONS_FILE,
    QUALIFYING_DOC_TYPES,
    REJECTS_NAME,
    AuthorRecord,
    Corpus,
    CorpusError,
    FilterReport,
    IngestResult,
    IngestReuse,
    JournalRecord,
    PublicationRecord,
    PublicationValidator,
    Reject,
    SampleFilterConfig,
    _filter_config_dict,
    _stamp,
    duplicate_reject,
    iter_json_lines,
    open_regular,
    parse_authors,
    parse_journals,
    read_cache_head,
    run_shares,
    share_count,
    write_aside,
    write_filter_report,
    write_reuse_state,
)

GENDER_CODES = {label: code for code, label in enumerate(GENDER_LABELS)}
GENDER_FEMALE, GENDER_MALE = GENDER_CODES["female"], GENDER_CODES["male"]
GENDER_THRESHOLD = 0.85

# buffers are reinterpreted as int32; 'i' must be 4 bytes on this platform
assert array("i").itemsize == 4

# the modal values are counted in chunks of whole authors that expand to at
# most this many (author, value) entries, or to one author's if that is more
_CHUNK = 1 << 16

# ingest cuts a publications file into one byte range per CPU it may run on,
# but into no more ranges than leaves each this many bytes on average, so a
# small file is read in one process
MIN_RANGE_BYTES = 1 << 20

# the builder's per-publication buffers, and each flat buffer with the
# per-publication length buffer that delimits it
_PUB_BUFFERS = (
    "_pub_year",
    "_pub_qual",
    "_pub_pct",
    "_pub_nauth",
    "_jd_len",
    "_ref_len",
    "_country_len",
    "_inst_len",
    "_pub_cits4y",
)
_FLAT_BUFFERS = {
    "_inc_author": "_pub_nauth",
    "_jd_flat": "_jd_len",
    "_ref_flat": "_ref_len",
    "_country_flat": "_country_len",
    "_inst_flat": "_inst_len",
}
# the flat buffers that hold indices into each vocabulary
_VOCAB_BUFFERS = (("_jd_flat", "_ref_flat"), ("_country_flat",), ("_inst_flat",))


def gender_gate(label: str, probability: float) -> str:
    """Accept the inferred label only at or above GENDER_THRESHOLD."""
    return label if label != "unknown" and probability >= GENDER_THRESHOLD else "unknown"


class _Index(dict):
    """Vocabulary index: looking up a new name gives it the next index."""

    def __missing__(self, name: str) -> int:
        idx = self[name] = len(self)
        return idx


def author_chunks(bounds: np.ndarray, size: int) -> Iterator[tuple[int, int]]:
    """Runs [k0, k1) of consecutive groups, in order, where group k spans
    bounds[k]:bounds[k + 1] of a sequence (bounds ascending from 0). A run
    spans at most *size*, or is one group alone that spans more."""
    k, n = 0, bounds.shape[0] - 1
    while k < n:
        k1 = max(int(np.searchsorted(bounds, bounds[k] + size, "right")) - 1, k + 1)
        yield k, k1
        k = k1


def _modal_from_ragged(
    inc_author: np.ndarray,
    inc_pub: np.ndarray,
    starts: np.ndarray,
    values: np.ndarray,
    n_values: int,
    n_authors: int,
) -> np.ndarray:
    """Per-author modal value over the pooled per-publication value lists of
    the incidences, which are sorted by author.

    The incidences are walked in chunks of whole authors (_CHUNK), so memory
    grows with the incidence count and _CHUNK, not with the expanded entries.
    Ties break to the smallest index; vocabularies are sorted, so that is the
    lexicographically smallest code. Returns -1 for authors with no values.
    """
    dominant = np.full(n_authors, -1, dtype=np.int32)
    if n_values == 0 or inc_author.shape[0] == 0:
        return dominant
    # entries up to the end of each incidence's value list, built in place
    ends = starts[inc_pub + 1]
    ends -= starts[inc_pub]
    np.cumsum(ends, out=ends)
    # each author's incidences, and its entries, as a run of each sequence
    last = np.flatnonzero(inc_author[1:] != inc_author[:-1])
    inc_bounds = np.concatenate(([0], last + 1, [inc_author.shape[0]]))
    entry_bounds = np.concatenate(([0], ends[last], ends[-1:]))
    for k0, k1 in author_chunks(entry_bounds, _CHUNK):
        lo, hi = int(inc_bounds[k0]), int(inc_bounds[k1])
        done, top = int(entry_bounds[k0]), int(entry_bounds[k1])
        if top > done:
            lens = np.diff(ends[lo:hi], prepend=done)
            a0 = int(inc_author[lo])
            keys = np.repeat((inc_author[lo:hi] - a0).astype(np.int64) * n_values, lens)
            # an entry's index into values: its list's start plus its place in it
            offsets = np.repeat(starts[inc_pub[lo:hi]] - ends[lo:hi] + lens, lens)
            offsets += np.arange(done, top)
            keys += values[offsets]
            del offsets
            uniq, counts = np.unique(keys, return_counts=True)
            authors, vals = np.divmod(uniq, n_values)
            order = np.lexsort((vals, -counts, authors))
            authors = authors[order]
            first = np.ones(authors.shape[0], dtype=bool)
            first[1:] = authors[1:] != authors[:-1]
            dominant[authors[first] + a0] = vals[order][first]
    return dominant


@dataclass
class CorpusColumns:
    """Flat-array corpus: per-author, per-publication, and incidence tables.

    Incidences (author-publication pairs) are sorted by (author, year, pub);
    author_starts delimits each author's segment, whose first entry is that
    author's earliest publication.
    """

    reference_year: int
    # authors (sorted by author_id)
    author_ids: list[str]
    gender_code: np.ndarray
    first_pub_year: np.ndarray
    dominant_discipline: np.ndarray
    dominant_country_idx: np.ndarray
    dominant_institution_idx: np.ndarray
    # publications (input order)
    pub_year: np.ndarray
    pub_qualifying: np.ndarray
    pub_percentile: np.ndarray
    pub_n_authors: np.ndarray
    pub_intl: np.ndarray
    pub_cits4y: np.ndarray
    # incidence
    inc_author: np.ndarray
    inc_pub: np.ndarray
    author_starts: np.ndarray
    # journal disciplines per publication (ragged)
    jd_starts: np.ndarray
    jd_disc: np.ndarray
    # institutions per publication (ragged), for output ranking
    inst_starts: np.ndarray
    inst_flat: np.ndarray
    # vocabularies (sorted)
    disc_vocab: list[str]
    country_vocab: list[str]
    inst_vocab: list[str]

    @property
    def n_authors(self) -> int:
        return len(self.author_ids)

    @property
    def n_publications(self) -> int:
        return self.pub_year.shape[0]

    def dominant_country(self, idx: int) -> str | None:
        code = self.dominant_country_idx[idx]
        return self.country_vocab[code] if code >= 0 else None

    def dominant_institution(self, idx: int) -> str | None:
        code = self.dominant_institution_idx[idx]
        return self.inst_vocab[code] if code >= 0 else None

    def discipline_of(self, idx: int) -> str | None:
        code = self.dominant_discipline[idx]
        return self.disc_vocab[code] if code >= 0 else None


class ColumnsBuilder:
    """Accumulates validated publications into flat buffers."""

    def __init__(
        self,
        journals: dict[str, JournalRecord],
        authors: dict[str, AuthorRecord],
        reference_year: int,
    ):
        self._author_idx = {a: i for i, a in enumerate(sorted(authors))}
        self._disc_idx = _Index()
        self._country_idx = _Index()
        self._inst_idx = _Index()
        # journal_id -> (max percentile, discipline indices); no journal is
        # (-1, ()). The codes of a journal no kept publication cites are
        # interned here too, but merge_ranges drops them from the vocabulary.
        self._journals: dict[str | None, tuple[int, tuple[int, ...]]] = {None: (-1, ())}
        for jid, jrec in journals.items():
            discs = tuple(map(self._disc_idx.__getitem__, sorted(jrec.percentile_by_discipline)))
            self._journals[jid] = (jrec.max_percentile, discs)

        self._pub_year = array("i")
        self._pub_qual = array("b")
        self._pub_pct = array("i")
        self._pub_nauth = array("i")
        self._pub_cits4y = array("q")
        self._inc_author = array("i")
        self._jd_flat = array("i")
        self._jd_len = array("i")
        self._ref_flat = array("i")
        self._ref_len = array("i")
        self._country_flat = array("i")
        self._country_len = array("i")
        self._inst_flat = array("i")
        self._inst_len = array("i")
        # line number of each publication add_lines accepted; its pub_id is
        # the matching entry of self._validator.seen
        self._pub_line = array("i")
        self._validator = PublicationValidator(journals, authors, reference_year)

    def add_lines(self, lines: Iterable[str | bytes], rejects: list[Reject]) -> None:
        """Parse, validate and add publication lines.

        A line that PublicationValidator.clean_fields passes is appended from
        its JSON object directly. Any other line takes the record path
        (PublicationValidator.record, then add), which gives its exact reject,
        so the columns and *rejects* equal those of add() over
        corpus.iter_publications.
        """
        validator = self._validator
        clean_fields = validator.clean_fields
        append = self._append
        pub_line = self._pub_line.append
        for line_no, obj in iter_json_lines(lines, PUBLICATIONS_FILE, rejects):
            fields = clean_fields(obj)
            if fields is not None:
                append(*fields)
            else:
                rec = validator.record(line_no, obj, rejects)
                if rec is None:
                    continue
                self.add(rec)
            pub_line(line_no)

    def add(self, pub: PublicationRecord) -> None:
        self._append(
            pub.year,
            pub.doc_type,
            pub.author_ids,
            pub.affiliation_countries,
            pub.affiliation_institutions,
            pub.journal_id,
            pub.window_citations,
            pub.cited_ref_disciplines,
        )

    def _append(
        self,
        year: int,
        doc_type: str,
        author_ids: Collection[str],
        countries: Collection[str],
        institutions: Collection[str],
        journal_id: str | None,
        cits4y: int,
        refs: Collection[str],
    ) -> None:
        """One validated publication, with countries and institutions sorted
        and unique and its window_citations."""
        self._pub_year.append(year)
        self._pub_qual.append(doc_type in QUALIFYING_DOC_TYPES)
        self._pub_nauth.append(len(author_ids))
        self._pub_cits4y.append(cits4y)
        self._inc_author.extend(map(self._author_idx.__getitem__, author_ids))

        pct, discs = self._journals[journal_id]
        self._pub_pct.append(pct)
        self._jd_flat.extend(discs)
        self._jd_len.append(len(discs))
        self._ref_len.append(len(refs))
        self._ref_flat.extend(map(self._disc_idx.__getitem__, refs))
        self._country_len.append(len(countries))
        self._country_flat.extend(map(self._country_idx.__getitem__, countries))
        self._inst_len.append(len(institutions))
        self._inst_flat.extend(map(self._inst_idx.__getitem__, institutions))

    def result(self, rejects: list[Reject], n_lines: int) -> RangeResult:
        """Everything added, as the result of one range of *n_lines* lines
        with *rejects*. It hands over the builder's buffers and calls no
        numpy."""
        return RangeResult(
            buffers={name: getattr(self, name) for name in (*_PUB_BUFFERS, *_FLAT_BUFFERS)},
            vocabs=(list(self._disc_idx), list(self._country_idx), list(self._inst_idx)),
            rejects=rejects,
            n_lines=n_lines,
            pub_ids=list(self._validator.seen),
            pub_lines=self._pub_line,
        )


def columns_from_corpus(corpus: Corpus) -> CorpusColumns:
    builder = ColumnsBuilder(corpus.journals, corpus.authors, corpus.reference_year)
    for pub in corpus.publications:
        builder.add(pub)
    return merge_ranges([builder.result([], 0)], corpus.authors, corpus.reference_year)[0]


# ---------------------------------------------------------------------------
# byte ranges of a publications file


def byte_ranges(path: Path) -> list[tuple[int, int | None]]:
    """(start, end) byte offsets that cut *path* into ranges at line starts:
    one per CPU of this process's affinity mask, but no more than leaves
    MIN_RANGE_BYTES per range, and always at least one. The last range ends
    at the end of the file (None), so a pipe, whose size reads 0, is read
    whole, and never opened here."""
    size = os.path.getsize(path)
    n = share_count(size, MIN_RANGE_BYTES)
    bounds = [0]
    if n > 1:
        with open(path, "rb") as fh:
            for i in range(1, n):
                # the first line start at or after i/n of the file
                fh.seek(i * size // n - 1)
                fh.readline()
                if bounds[-1] < fh.tell() < size:
                    bounds.append(fh.tell())
    return list(zip(bounds, [*bounds[1:], None]))


@dataclass
class RangeResult:
    """One byte range of a publications file, ingested: the builder's
    buffers; its vocabularies (discipline, country, institution) in insertion
    order; its rejects, with line numbers counted from the range's first
    line; its line count; and the pub_id and line number of each accepted
    publication, in order. It holds no numpy object, so a forked worker
    makes one without calling into numpy, and it pickles."""

    buffers: dict[str, array]
    vocabs: tuple[list[str], list[str], list[str]]
    rejects: list[Reject]
    n_lines: int
    pub_ids: list[str]
    pub_lines: array


def ingest_range(
    path: Path,
    start: int,
    end: int | None,
    journals: dict[str, JournalRecord],
    authors: dict[str, AuthorRecord],
    reference_year: int,
) -> RangeResult:
    """Stream the lines of *path* from byte *start*, a line start, up to byte
    *end*, a line start or None for the end of the file, through
    ColumnsBuilder.add_lines."""
    builder = ColumnsBuilder(journals, authors, reference_year)
    rejects: list[Reject] = []
    n_lines = 0

    def lines(fh: BinaryIO) -> Iterator[bytes]:
        nonlocal n_lines
        left = float("inf") if end is None else end - start
        while left > 0 and (line := fh.readline()):
            n_lines += 1
            yield line
            left -= len(line)

    with open(path, "rb") as fh:
        if start:
            fh.seek(start)
        builder.add_lines(lines(fh), rejects)
    return builder.result(rejects, n_lines)


def _drop_publications(buffers: dict[str, np.ndarray], dropped: list[int]) -> dict[str, np.ndarray]:
    """*buffers* without the publications at indices *dropped*."""
    keep = np.ones(buffers["_pub_year"].shape[0], dtype=bool)
    keep[dropped] = False
    kept = {name: buffers[name][np.repeat(keep, buffers[lens])] for name, lens in _FLAT_BUFFERS.items()}
    kept.update((name, buffers[name][keep]) for name in _PUB_BUFFERS)
    return kept


def merge_ranges(
    results: list[RangeResult],
    authors: dict[str, AuthorRecord],
    reference_year: int,
) -> tuple[CorpusColumns, list[Reject]]:
    """The columns of the publications of *results*, the byte ranges of one
    file in file order, as if one builder had read the whole file; and their
    rejects with file line numbers. It consumes the results' pub_ids and
    buffers, letting go of each range's part of a buffer once it is in a
    column.

    A range's line numbers are offset by the lines of the ranges before it.
    A publication whose pub_id an earlier range accepted is dropped with the
    reject record() gives a repeated pub_id: it passed every other check, so
    a sequential read rejects it for that reason too. Each vocabulary is
    rebuilt, sorted, from the codes the kept publications reference; those
    are the codes a sequential read interns, as only accepted lines intern
    codes. The country vocabulary also holds every author's country
    override, which is the country of each author with a publication.
    """
    seen: set[str] = set()
    rejects: list[Reject] = []
    offset = 0
    parts: list[dict[str, np.ndarray]] = []
    for i, res in enumerate(results):
        # range 0 has no earlier range, and no range follows the last
        dropped = [k for k, pub_id in enumerate(res.pub_ids) if pub_id in seen] if i else []
        if i < len(results) - 1:
            seen.update(res.pub_ids)
        local = [Reject(r.line_no + offset, r.file, r.reason) for r in res.rejects]
        duplicates = [
            duplicate_reject(res.pub_lines[k] + offset, PUBLICATIONS_FILE, "pub_id", res.pub_ids[k])
            for k in dropped
        ]
        rejects.extend(heapq.merge(local, duplicates, key=lambda r: r.line_no))
        offset += res.n_lines
        res.pub_ids.clear()
        buffers = {name: np.asarray(buf) for name, buf in res.buffers.items()}
        res.buffers.clear()
        parts.append(_drop_publications(buffers, dropped) if dropped else buffers)
    # the pub_id strings are let go before any column is built, so that
    # they do not add to its peak
    del seen

    # the names each vocabulary holds whether or not a publication references
    # them: the country overrides
    extra = ((), {rec.country_override for rec in authors.values()} - {None}, ())
    vocabs = []
    for kind, flat_names in enumerate(_VOCAB_BUFFERS):
        used: list[np.ndarray] = []
        for res, buffers in zip(results, parts):
            mask = np.zeros(len(res.vocabs[kind]), dtype=bool)
            for name in flat_names:
                mask[buffers[name]] = True
            used.append(np.flatnonzero(mask))
        names = {res.vocabs[kind][i] for res, idx in zip(results, used) for i in idx}
        vocab = sorted(names.union(extra[kind]))
        index = {name: i for i, name in enumerate(vocab)}
        for res, buffers, idx in zip(results, parts, used):
            perm = np.full(len(res.vocabs[kind]), -1, dtype=np.int32)
            perm[idx] = [index[res.vocabs[kind][i]] for i in idx]
            for name in flat_names:
                buffers[name] = perm[buffers[name]]
        vocabs.append(vocab)
    disc_vocab, country_vocab, inst_vocab = vocabs

    def column(name: str, dtype: type) -> np.ndarray:
        """Buffer *name* of every part, joined as *dtype*; the parts let go of it."""
        return np.concatenate([buffers.pop(name) for buffers in parts]).astype(dtype, copy=False)

    author_ids = sorted(authors)
    n_authors = len(author_ids)
    pub_year = column("_pub_year", np.int32)
    n_pubs = pub_year.shape[0]
    pub_qual = column("_pub_qual", bool)
    pub_pct = column("_pub_pct", np.int16)
    pub_nauth = column("_pub_nauth", np.int32)
    pub_cits4y = column("_pub_cits4y", np.int64)

    inc_author = column("_inc_author", np.int32)
    inc_pub = np.repeat(np.arange(n_pubs, dtype=np.int32), pub_nauth)
    # canonical order: (author, year, pub); segment heads are earliest pubs.
    # inc_pub ascends here and lexsort is stable, so pub breaks the ties.
    order = np.lexsort((pub_year[inc_pub], inc_author))
    inc_author = inc_author[order]
    inc_pub = inc_pub[order]
    del order
    author_starts = np.zeros(n_authors + 1, dtype=np.int64)
    np.cumsum(np.bincount(inc_author, minlength=n_authors), out=author_starts[1:])

    first_pub_year = np.full(n_authors, -1, dtype=np.int32)
    has_pubs = author_starts[1:] > author_starts[:-1]
    first_pub_year[has_pubs] = pub_year[inc_pub[author_starts[:-1][has_pubs]]]

    def ragged(flat: str, lens: str) -> tuple[np.ndarray, np.ndarray]:
        starts = np.zeros(n_pubs + 1, dtype=np.int64)
        np.cumsum(column(lens, np.int32), out=starts[1:])
        return starts, column(flat, np.int32)

    jd_starts, jd_disc = ragged("_jd_flat", "_jd_len")
    inst_starts, inst_flat = ragged("_inst_flat", "_inst_len")
    ref_starts, ref_disc = ragged("_ref_flat", "_ref_len")
    dominant_disc = _modal_from_ragged(
        inc_author, inc_pub, ref_starts, ref_disc, len(disc_vocab), n_authors
    )
    del ref_starts, ref_disc
    country_starts, country_flat = ragged("_country_flat", "_country_len")
    # a publication's countries are unique, so two or more is international
    pub_intl = np.diff(country_starts) >= 2
    dominant_country = _modal_from_ragged(
        inc_author, inc_pub, country_starts, country_flat, len(country_vocab), n_authors
    )
    del country_starts, country_flat
    dominant_inst = _modal_from_ragged(
        inc_author, inc_pub, inst_starts, inst_flat, len(inst_vocab), n_authors
    )

    # an author without publications keeps no country, override or not
    country_code = {name: i for i, name in enumerate(country_vocab)}
    gender_code = np.zeros(n_authors, dtype=np.int8)
    for idx, aid in enumerate(author_ids):
        rec = authors[aid]
        gender_code[idx] = GENDER_CODES[gender_gate(rec.gender_label, rec.gender_probability)]
        if rec.country_override is not None and has_pubs[idx]:
            dominant_country[idx] = country_code[rec.country_override]

    return CorpusColumns(
        reference_year=reference_year,
        author_ids=author_ids,
        gender_code=gender_code,
        first_pub_year=first_pub_year,
        dominant_discipline=dominant_disc,
        dominant_country_idx=dominant_country,
        dominant_institution_idx=dominant_inst,
        pub_year=pub_year,
        pub_qualifying=pub_qual,
        pub_percentile=pub_pct,
        pub_n_authors=pub_nauth,
        pub_intl=pub_intl,
        pub_cits4y=pub_cits4y,
        inc_author=inc_author,
        inc_pub=inc_pub,
        author_starts=author_starts,
        jd_starts=jd_starts,
        jd_disc=jd_disc,
        inst_starts=inst_starts,
        inst_flat=inst_flat,
        disc_vocab=disc_vocab,
        country_vocab=country_vocab,
        inst_vocab=inst_vocab,
    ), rejects


# ---------------------------------------------------------------------------
# the ingest cache

def _compact(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("ascii") + b"\n"


def write_cache(fh: BinaryIO, header: dict, columns: CorpusColumns) -> str:
    """Write *header* (a json object) and *columns* as a cache, and return
    the sha256 of its body. Line 1 gives the cache version and the sha256 of
    every byte after it. Line 2 is a json object: *header*, each field of
    *columns* that is not an array, and a [name, dtype, length] descriptor
    per array. The arrays follow as raw little-endian blocks in that order."""
    layout: dict = {"header": header, "arrays": []}
    blocks = []
    for field in fields(CorpusColumns):
        value = getattr(columns, field.name)
        if isinstance(value, np.ndarray):
            block = np.ascontiguousarray(value, value.dtype.newbyteorder("<"))
            layout["arrays"].append([field.name, block.dtype.str, block.shape[0]])
            blocks += [block.data, bytes(-block.nbytes % CACHE_ALIGN)]
        else:
            layout[field.name] = value
    line = _compact(layout)
    body = [line, bytes(-len(line) % CACHE_ALIGN), *blocks]
    digest = hashlib.sha256()
    for part in body:
        digest.update(part)
    fh.write(_compact({"cache_version": CACHE_VERSION, "sha256": digest.hexdigest()}))
    for part in body:
        fh.write(part)
    return digest.hexdigest()


def read_cache(fh: BinaryIO) -> tuple[dict, CorpusColumns, str]:
    """The header and columns that write_cache wrote to *fh*, a regular file,
    and the sha256 of the body after line 1, which line 1 records. The body
    is read once, and each array is a writable view of it. What
    corpus.read_cache_head refuses, or a body that does not match its
    sha256, is a CorpusError."""
    layout, sha256, start = read_cache_head(fh)
    end = fh.tell() - start
    fh.seek(start)
    body = bytearray(os.fstat(fh.fileno()).st_size - start)
    fh.readinto(body)
    if hashlib.sha256(body).hexdigest() != sha256:
        raise CorpusError(CACHE_DAMAGED)
    offset = end + -end % CACHE_ALIGN
    for name, dtype, n in layout.pop("arrays"):
        arr = np.frombuffer(body, np.dtype(dtype), n, offset)
        layout[name] = arr.astype(arr.dtype.newbyteorder("="), copy=False)
        offset += arr.nbytes + -arr.nbytes % CACHE_ALIGN
    header = layout.pop("header")
    return header, CorpusColumns(**layout), sha256


@dataclass
class LoadedCache:
    columns: CorpusColumns
    sample_idx: np.ndarray  # the retained authors' indices, ascending
    report: FilterReport
    sha256: str  # of the cache body, as its line 1 records it


def cache_not_found(cache_path: Path) -> str:
    """The error for a missing cache, with the hint that mends it."""
    return f"cache not found: {cache_path} (run ingest first)"


def load_cache(cache_path: Path) -> LoadedCache:
    if not cache_path.exists():
        raise CorpusError(cache_not_found(cache_path))
    with open(cache_path, "rb") as fh:
        header, columns, sha256 = read_cache(fh)
    retained = header["retained"]
    # ints, strictly ascending, within [0, n_authors); checked before numpy
    # sees them, as it takes a bool or a float for an int
    if not (
        isinstance(retained, list)
        and all(type(i) is int for i in retained)
        and all(a < b for a, b in itertools.pairwise([-1, *retained, columns.n_authors]))
    ):
        raise CorpusError("cache header: the retained authors are not ascending author indices (re-run ingest)")
    sample_idx = np.array(retained, dtype=np.int64)
    return LoadedCache(columns, sample_idx, FilterReport(**header["report"]), sha256)


# ---------------------------------------------------------------------------
# filter gates over columns


def _allowed(codes: np.ndarray, vocab: list[str], allowed: frozenset[str] | None) -> np.ndarray:
    """Whether each vocabulary code of *codes* names a value in *allowed*
    (any value, if None); the code -1, no value, never passes."""
    ok = np.array([allowed is None or name in allowed for name in vocab] + [False], dtype=bool)
    return ok[codes]


def gates_from_columns(
    columns: CorpusColumns, config: SampleFilterConfig
) -> tuple[np.ndarray, FilterReport]:
    """Vectorized gate chain; agrees with corpus.filter_sample exactly. The
    retained authors are returned as their indices, ascending."""
    n = columns.n_authors
    has_pubs = columns.first_pub_year >= 0

    country_pass = _allowed(columns.dominant_country_idx, columns.country_vocab, config.allowed_countries)
    disc_pass = _allowed(columns.dominant_discipline, columns.disc_vocab, config.allowed_disciplines)

    def counts(pub_mask: np.ndarray) -> np.ndarray:
        """Each author's count of the publications in *pub_mask*."""
        return np.bincount(columns.inc_author[pub_mask[columns.inc_pub]], minlength=n)

    count_pass = counts(columns.pub_qualifying) >= config.min_publications

    age = columns.reference_year - columns.first_pub_year
    age_pass = has_pubs & (age >= config.min_academic_age) & (age <= config.max_academic_age)

    window_lo = columns.reference_year - config.active_window_years + 1
    active_pub = (
        columns.pub_qualifying
        & (columns.pub_year >= window_lo)
        & (columns.pub_year <= columns.reference_year)
    )
    active_pass = counts(active_pub) > 0

    remaining = np.ones(n, dtype=bool)
    removed: dict[str, int] = {}
    for gate, mask in zip(GATE_ORDER, (country_pass, disc_pass, count_pass, age_pass, active_pass)):
        removed[gate] = int(np.count_nonzero(remaining & ~mask))
        remaining &= mask
    retained = np.flatnonzero(remaining)
    return retained, FilterReport(removed, retained.size, n)


# ---------------------------------------------------------------------------
# ingest

def _parse_inputs(
    pubs_path: Path, journals_path: Path, authors_path: Path, reference_year: int
) -> tuple[CorpusColumns, list[Reject]]:
    """The columns of the three inputs, and their rejects in file order."""
    rejects: list[Reject] = []
    with open(journals_path, "rb") as fh:
        journals = parse_journals(fh, rejects)
    with open(authors_path, "rb") as fh:
        authors = parse_authors(fh, rejects)

    # the publications file is cut into byte ranges, one share each, and the
    # ranges are merged in file order, so the columns and rejects are the
    # same for any range count
    results = run_shares(
        "ingest",
        [
            (
                f"bytes {start}-{end or 'end'} of {pubs_path}",
                functools.partial(
                    ingest_range, pubs_path, start, end, journals, authors, reference_year
                ),
            )
            for start, end in byte_ranges(pubs_path)
        ],
    )
    columns, pub_rejects = merge_ranges(results, authors, reference_year)
    return columns, rejects + pub_rejects


def _reused_columns(cache_path: Path, sha256: str) -> CorpusColumns | None:
    """The columns of the cache at *cache_path*, a regular file and not a
    symbolic link, when its body has *sha256*; else None."""
    try:
        with open_regular(cache_path) as fh:
            _, columns, found = read_cache(fh)
    except (OSError, ValueError):  # missing or not a regular file, damaged
        return None
    return columns if found == sha256 else None


def run_ingest(
    paths: dict[str, Path], out_dir: Path, reference_year: int, config: SampleFilterConfig, reuse: IngestReuse
) -> IngestResult:
    """Ingest the inputs *paths*, each named by its input file kind, into
    *out_dir*, whose lock the caller holds and whose last ingest
    corpus.ingest_reuse checked (*reuse*). The gates run over the cache's
    columns when reuse allows it and the cache still has the digest the
    state records, and over a full parse otherwise; then the outputs are
    written, and the reuse state when the inputs were hashed."""
    columns = None
    if reuse.outputs:
        columns = _reused_columns(out_dir / CACHE_NAME, reuse.outputs[CACHE_NAME])
    rejects = None
    if columns is not None:
        n_rejects, rejects_sha256 = reuse.n_rejects, reuse.outputs[REJECTS_NAME]
    else:
        columns, rejects = _parse_inputs(
            paths[PUBLICATIONS_FILE], paths[JOURNALS_FILE], paths[AUTHORS_FILE], reference_year
        )
        n_rejects = len(rejects)
    retained, report = gates_from_columns(columns, config)
    report_obj = asdict(report)

    header = {
        "filter": _filter_config_dict(config),
        "retained": retained.tolist(),
        "report": report_obj,
    }
    # the cache is renamed last: analyze reads it. Reused rejects stay in
    # place.
    cache_path = out_dir / CACHE_NAME
    with write_aside() as open_aside:
        if rejects is not None:
            digest = hashlib.sha256()
            with open_aside(out_dir / REJECTS_NAME, binary=True) as fh:
                for reject in rejects:
                    line = f"{reject.to_json()}\n".encode()
                    digest.update(line)
                    fh.write(line)
            rejects_sha256 = digest.hexdigest()
        with open_aside(out_dir / FILTER_REPORT_NAME) as fh:
            write_filter_report(fh, report_obj)
        with open_aside(cache_path, binary=True) as fh:
            cache_sha256 = write_cache(fh, header, columns)

    # the state is renamed after the outputs, and written only when no
    # input was changed or replaced while ingest read it
    if reuse.key is not None and [_stamp(path) for path in paths.values()] == reuse.stamps:
        outputs = {REJECTS_NAME: rejects_sha256, CACHE_NAME: cache_sha256}
        write_reuse_state(out_dir / INGEST_REUSE_NAME, reuse.key, outputs)
    return IngestResult(cache_path, columns.n_publications, n_rejects, report)
