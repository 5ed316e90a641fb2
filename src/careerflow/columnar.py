"""Columnar view of a corpus for vectorized derivation at scale.

The builder consumes publication lines (ingest) or validated
PublicationRecord objects (an in-memory Corpus) one at a time and keeps only
flat arrays, so corpora with millions of publications never exist as object
lists. Ingest reads a publications file in byte ranges, one builder per range
(ingest_range), and merges them in file order into the columns
(merge_ranges). This module also owns the ingest cache format (write_cache,
read_cache): a version line with a sha256 of the rest, one json line, then
the arrays as raw little-endian blocks.
"""
from __future__ import annotations

import hashlib
import heapq
import json
import os
from array import array
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO, Collection, Iterable, Iterator

import numpy as np

from .corpus import (
    GENDER_LABELS,
    PUBLICATIONS_FILE,
    QUALIFYING_DOC_TYPES,
    AuthorRecord,
    Corpus,
    CorpusError,
    JournalRecord,
    PublicationRecord,
    PublicationValidator,
    Reject,
    duplicate_reject,
    iter_json_lines,
    share_count,
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
    country_override: list[str | None]
    first_pub_year: np.ndarray
    qualifying_count: np.ndarray
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

    def author_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.author_ids)}

    def dominant_country(self, idx: int) -> str | None:
        override = self.country_override[idx]
        if override is not None:
            return override
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
    codes.
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

    vocabs = []
    for kind, flat_names in enumerate(_VOCAB_BUFFERS):
        used: list[np.ndarray] = []
        for res, buffers in zip(results, parts):
            mask = np.zeros(len(res.vocabs[kind]), dtype=bool)
            for name in flat_names:
                mask[buffers[name]] = True
            used.append(np.flatnonzero(mask))
        vocab = sorted({res.vocabs[kind][i] for res, idx in zip(results, used) for i in idx})
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

    qual_count = np.bincount(
        inc_author[pub_qual[inc_pub]], minlength=n_authors
    ).astype(np.int64)

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

    gender_code = np.zeros(n_authors, dtype=np.int8)
    override: list[str | None] = [None] * n_authors
    for idx, aid in enumerate(author_ids):
        rec = authors[aid]
        gender_code[idx] = GENDER_CODES[gender_gate(rec.gender_label, rec.gender_probability)]
        override[idx] = rec.country_override

    return CorpusColumns(
        reference_year=reference_year,
        author_ids=author_ids,
        gender_code=gender_code,
        country_override=override,
        first_pub_year=first_pub_year,
        qualifying_count=qual_count,
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

CACHE_VERSION = 2
# the json line and each array block are zero-padded to a multiple of this,
# so every block is aligned for its dtype
_ALIGN = 8


def _compact(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("ascii") + b"\n"


def write_cache(fh: BinaryIO, header: dict, columns: CorpusColumns) -> None:
    """Write *header* (a json object) and *columns* as a cache. Line 1 gives
    the cache version and the sha256 of every byte after it. Line 2 is a
    json object: *header*, each field of *columns* that is not an array, and
    a [name, dtype, length] descriptor per array. The arrays follow as raw
    little-endian blocks in that order."""
    layout: dict = {"header": header, "arrays": []}
    blocks = []
    for field in fields(CorpusColumns):
        value = getattr(columns, field.name)
        if isinstance(value, np.ndarray):
            block = np.ascontiguousarray(value, value.dtype.newbyteorder("<"))
            layout["arrays"].append([field.name, block.dtype.str, block.shape[0]])
            blocks += [block.data, bytes(-block.nbytes % _ALIGN)]
        else:
            layout[field.name] = value
    line = _compact(layout)
    body = [line, bytes(-len(line) % _ALIGN), *blocks]
    digest = hashlib.sha256()
    for part in body:
        digest.update(part)
    fh.write(_compact({"cache_version": CACHE_VERSION, "sha256": digest.hexdigest()}))
    for part in body:
        fh.write(part)


def read_cache(fh: BinaryIO) -> tuple[dict, CorpusColumns]:
    """The header and columns that write_cache wrote to *fh*, a regular file.
    The body after line 1 is read once, and each array is a writable view
    of it. Another cache version, a body that does not match its sha256, or
    a line 2 that is not a json object with a list of arrays, is a
    CorpusError."""
    try:
        top = json.loads(fh.readline())
    except ValueError:
        top = None
    version = top.get("cache_version") if isinstance(top, dict) else None
    if version != CACHE_VERSION:
        raise CorpusError(f"cache version {version!r}, expected {CACHE_VERSION} (re-run ingest)")
    body = bytearray(os.fstat(fh.fileno()).st_size - fh.tell())
    fh.readinto(body)
    if hashlib.sha256(body).hexdigest() != top.get("sha256"):
        raise CorpusError("cache is damaged: its sha256 does not match (re-run ingest)")
    end = body.find(b"\n") + 1
    try:
        layout = json.loads(body[:end])
    except ValueError:
        layout = None
    if not isinstance(layout, dict) or not isinstance(layout.get("arrays"), list):
        raise CorpusError("cache line 2 is not a cache layout (re-run ingest)")
    offset = end + -end % _ALIGN
    for name, dtype, n in layout.pop("arrays"):
        arr = np.frombuffer(body, np.dtype(dtype), n, offset)
        layout[name] = arr.astype(arr.dtype.newbyteorder("="), copy=False)
        offset += arr.nbytes + -arr.nbytes % _ALIGN
    header = layout.pop("header")
    return header, CorpusColumns(**layout)
