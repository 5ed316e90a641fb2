"""Columnar view of a corpus for vectorized derivation at scale.

The builder consumes publication lines (ingest) or validated
PublicationRecord objects (an in-memory Corpus) one at a time and keeps only
flat arrays, so corpora with millions of publications never exist as object
lists. Columns serialize to a line-delimited text form (json section lines;
array payloads base64-encoded with explicit little-endian dtypes) used by the
ingest cache.
"""
from __future__ import annotations

import base64
import json
from array import array
from dataclasses import dataclass, fields
from typing import Collection, Iterable, TextIO

import numpy as np

from .corpus import (
    PUBLICATIONS_FILE,
    QUALIFYING_DOC_TYPES,
    AuthorRecord,
    Corpus,
    JournalRecord,
    PublicationRecord,
    PublicationValidator,
    Reject,
    iter_json_lines,
)

GENDER_UNKNOWN, GENDER_FEMALE, GENDER_MALE = 0, 1, 2
GENDER_CODES = {"unknown": GENDER_UNKNOWN, "female": GENDER_FEMALE, "male": GENDER_MALE}
GENDER_NAMES = {v: k for k, v in GENDER_CODES.items()}
GENDER_THRESHOLD = 0.85

# buffers are reinterpreted as int32; 'i' must be 4 bytes on this platform
assert array("i").itemsize == 4

# dense author x value count tables are used below this cell budget, and
# are built this many incidences at a time to bound the expanded keys
_DENSE_COUNT_LIMIT = 20_000_000
_DENSE_CHUNK = 1_000_000


def gender_gate(label: str, probability: float) -> str:
    """Accept the inferred label only at or above GENDER_THRESHOLD."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be within [0, 1]")
    return label if label != "unknown" and probability >= GENDER_THRESHOLD else "unknown"


class _Index(dict):
    """Vocabulary index: looking up a new name gives it the next index."""

    def __missing__(self, name: str) -> int:
        idx = self[name] = len(self)
        return idx


def _vocab_remap(index: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """Sorted vocabulary plus a permutation from insertion to sorted indices."""
    vocab = sorted(index)
    order = {name: i for i, name in enumerate(vocab)}
    perm = np.empty(len(index), dtype=np.int32)
    for name, old in index.items():
        perm[old] = order[name]
    return vocab, perm


def _ragged_keys(
    inc_author: np.ndarray,
    inc_pub: np.ndarray,
    starts: np.ndarray,
    values: np.ndarray,
    n_values: int,
) -> np.ndarray:
    """author * n_values + value for each value listed by each incidence's publication."""
    # built in place, so fewer full-length int64 arrays are alive at once
    lens = starts[inc_pub + 1] - starts[inc_pub]
    keys = np.repeat(inc_author.astype(np.int64) * n_values, lens)
    offsets = np.repeat(starts[inc_pub], lens)
    offsets += np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens)
    keys += values[offsets]
    return keys


def _dense_counts(
    inc_author: np.ndarray,
    inc_pub: np.ndarray,
    starts: np.ndarray,
    values: np.ndarray,
    n_values: int,
    n_authors: int,
) -> np.ndarray:
    """(A, V) count of each value per author. Returning only the counts frees
    the last chunk's keys before the caller copies rows out of them."""
    counts = np.zeros(n_authors * n_values, dtype=np.int64)
    for lo in range(0, inc_author.shape[0], _DENSE_CHUNK):
        hi = lo + _DENSE_CHUNK
        keys = _ragged_keys(inc_author[lo:hi], inc_pub[lo:hi], starts, values, n_values)
        counts += np.bincount(keys, minlength=n_authors * n_values)
    return counts.reshape(n_authors, n_values)


def _modal_from_ragged(
    inc_author: np.ndarray,
    inc_pub: np.ndarray,
    starts: np.ndarray,
    values: np.ndarray,
    n_values: int,
    n_authors: int,
) -> np.ndarray:
    """Per-author modal value over the pooled per-publication value lists.

    Ties break to the smallest index; vocabularies are sorted, so that is the
    lexicographically smallest code. Returns -1 for authors with no values.
    """
    dominant = np.full(n_authors, -1, dtype=np.int32)
    if n_values == 0 or inc_author.shape[0] == 0:
        return dominant
    if n_authors * n_values <= _DENSE_COUNT_LIMIT:
        counts = _dense_counts(inc_author, inc_pub, starts, values, n_values, n_authors)
        has_any = counts.sum(axis=1) > 0
        dominant[has_any] = np.argmax(counts[has_any], axis=1).astype(np.int32)
        return dominant
    # sparse path for wide vocabularies
    keys = _ragged_keys(inc_author, inc_pub, starts, values, n_values)
    uniq, cnts = np.unique(keys, return_counts=True)
    authors = uniq // n_values
    vals = (uniq % n_values).astype(np.int32)
    order = np.lexsort((vals, -cnts, authors))
    authors = authors[order]
    first = np.ones(authors.shape[0], dtype=bool)
    first[1:] = authors[1:] != authors[:-1]
    dominant[authors[first]] = vals[order][first]
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
        self.reference_year = reference_year
        self.author_ids = sorted(authors)
        self._author_idx = {a: i for i, a in enumerate(self.author_ids)}
        self._authors = authors
        self._disc_idx = _Index()
        self._country_idx = _Index()
        self._inst_idx = _Index()
        # journal percentile cache: journal_id -> (max pct, tuple of disc idx)
        self._journal_cache: dict[str, tuple[int, tuple[int, ...]]] = {}
        self._journals = journals

        self._pub_year = array("i")
        self._pub_qual = array("b")
        self._pub_pct = array("i")
        self._pub_nauth = array("i")
        self._pub_intl = array("b")
        self._inc_author = array("i")
        self._jd_flat = array("i")
        self._jd_len = array("i")
        self._ref_flat = array("i")
        self._ref_len = array("i")
        self._country_flat = array("i")
        self._country_len = array("i")
        self._inst_flat = array("i")
        self._inst_len = array("i")
        self._ce_len = array("i")  # citation entries per pub, for ce_pub expansion
        self._ce_year = array("i")
        self._ce_count = array("q")

    def add_lines(self, lines: Iterable[str | bytes], rejects: list[Reject]) -> int:
        """Parse, validate and add publication lines; returns how many were added.

        A line that PublicationValidator.clean_fields passes is appended from
        its JSON object directly. Any other line takes the record path
        (PublicationValidator.record, then add), which gives its exact reject,
        so the columns and *rejects* equal those of add() over
        corpus.iter_publications.
        """
        validator = PublicationValidator(self._journals, self._authors, self.reference_year)
        clean_fields = validator.clean_fields
        append = self._append
        n_before = len(self._pub_year)
        for line_no, obj in iter_json_lines(lines, PUBLICATIONS_FILE, rejects):
            fields = clean_fields(obj)
            if fields is not None:
                append(*fields)
                continue
            rec = validator.record(line_no, obj, rejects)
            if rec is not None:
                self.add(rec)
        return len(self._pub_year) - n_before

    def add(self, pub: PublicationRecord) -> None:
        self._append(
            pub.year,
            pub.doc_type,
            pub.author_ids,
            pub.affiliation_countries,
            pub.affiliation_institutions,
            pub.journal_id,
            pub.citations_by_year.keys(),
            pub.citations_by_year.values(),
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
        cit_years: Collection[int],
        cit_counts: Iterable[int],
        refs: Collection[str],
    ) -> None:
        """One validated publication; countries and institutions sorted and
        unique, citation years unique."""
        self._pub_year.append(year)
        self._pub_qual.append(doc_type in QUALIFYING_DOC_TYPES)
        self._pub_nauth.append(len(author_ids))
        self._pub_intl.append(len(countries) >= 2)
        self._inc_author.extend(map(self._author_idx.__getitem__, author_ids))

        if journal_id is None:
            self._pub_pct.append(-1)
            self._jd_len.append(0)
        else:
            cached = self._journal_cache.get(journal_id)
            if cached is None:
                jrec = self._journals[journal_id]
                discs = tuple(map(self._disc_idx.__getitem__, sorted(jrec.percentile_by_discipline)))
                cached = self._journal_cache[journal_id] = (jrec.max_percentile, discs)
            self._pub_pct.append(cached[0])
            self._jd_flat.extend(cached[1])
            self._jd_len.append(len(cached[1]))

        self._ref_len.append(len(refs))
        self._ref_flat.extend(map(self._disc_idx.__getitem__, refs))
        self._country_len.append(len(countries))
        self._country_flat.extend(map(self._country_idx.__getitem__, countries))
        self._inst_len.append(len(institutions))
        self._inst_flat.extend(map(self._inst_idx.__getitem__, institutions))
        self._ce_len.append(len(cit_years))
        self._ce_year.extend(cit_years)
        self._ce_count.extend(cit_counts)

    def finalize(self) -> CorpusColumns:
        n_authors = len(self.author_ids)
        pub_year = np.frombuffer(self._pub_year, dtype=np.int32).copy()
        n_pubs = pub_year.shape[0]
        pub_qual = np.frombuffer(self._pub_qual, dtype=np.int8).astype(bool)
        pub_pct = np.frombuffer(self._pub_pct, dtype=np.int32).astype(np.int16)
        pub_nauth = np.frombuffer(self._pub_nauth, dtype=np.int32).copy()
        pub_intl = np.frombuffer(self._pub_intl, dtype=np.int8).astype(bool)

        inc_author = np.frombuffer(self._inc_author, dtype=np.int32).copy()
        inc_pub = np.repeat(np.arange(n_pubs, dtype=np.int32), pub_nauth)
        # canonical order: (author, year, pub); segment heads are earliest pubs
        order = np.lexsort((inc_pub, pub_year[inc_pub], inc_author))
        inc_author = inc_author[order]
        inc_pub = inc_pub[order]
        author_starts = np.zeros(n_authors + 1, dtype=np.int64)
        np.cumsum(np.bincount(inc_author, minlength=n_authors), out=author_starts[1:])

        first_pub_year = np.full(n_authors, -1, dtype=np.int32)
        has_pubs = author_starts[1:] > author_starts[:-1]
        first_pub_year[has_pubs] = pub_year[inc_pub[author_starts[:-1][has_pubs]]]

        qual_count = np.bincount(
            inc_author[pub_qual[inc_pub]], minlength=n_authors
        ).astype(np.int64)

        def ragged(flat: array, lens: array, remap: np.ndarray | None = None):
            vals = np.frombuffer(flat, dtype=np.int32).copy()
            if remap is not None and vals.shape[0]:
                vals = remap[vals]
            lens_arr = np.frombuffer(lens, dtype=np.int32)
            starts = np.zeros(n_pubs + 1, dtype=np.int64)
            np.cumsum(lens_arr, out=starts[1:])
            return starts, vals

        disc_vocab, disc_perm = _vocab_remap(self._disc_idx)
        country_vocab, country_perm = _vocab_remap(self._country_idx)
        inst_vocab, inst_perm = _vocab_remap(self._inst_idx)

        jd_starts, jd_disc = ragged(self._jd_flat, self._jd_len, disc_perm)
        ref_starts, ref_disc = ragged(self._ref_flat, self._ref_len, disc_perm)
        country_starts, country_flat = ragged(self._country_flat, self._country_len, country_perm)
        inst_starts, inst_flat = ragged(self._inst_flat, self._inst_len, inst_perm)

        dominant_disc = _modal_from_ragged(
            inc_author, inc_pub, ref_starts, ref_disc, len(disc_vocab), n_authors
        )
        dominant_country = _modal_from_ragged(
            inc_author, inc_pub, country_starts, country_flat, len(country_vocab), n_authors
        )
        dominant_inst = _modal_from_ragged(
            inc_author, inc_pub, inst_starts, inst_flat, len(inst_vocab), n_authors
        )

        ce_pub = np.repeat(
            np.arange(n_pubs, dtype=np.int32), np.frombuffer(self._ce_len, dtype=np.int32)
        )
        ce_year = np.frombuffer(self._ce_year, dtype=np.int32).copy()
        ce_count = np.frombuffer(self._ce_count, dtype=np.int64).copy()
        # citations in the publication year and the three years after it
        cited_year = pub_year[ce_pub]
        in_window = (ce_year >= cited_year) & (ce_year < cited_year + 4)
        pub_cits4y = np.bincount(
            ce_pub[in_window], weights=ce_count[in_window], minlength=n_pubs
        ).astype(np.int64)

        gender_code = np.zeros(n_authors, dtype=np.int8)
        override: list[str | None] = [None] * n_authors
        for aid, idx in self._author_idx.items():
            rec = self._authors[aid]
            gender_code[idx] = GENDER_CODES[gender_gate(rec.gender_label, rec.gender_probability)]
            override[idx] = rec.country_override

        return CorpusColumns(
            reference_year=self.reference_year,
            author_ids=self.author_ids,
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
        )


def columns_from_corpus(corpus: Corpus) -> CorpusColumns:
    builder = ColumnsBuilder(corpus.journals, corpus.authors, corpus.reference_year)
    for pub in corpus.publications:
        builder.add(pub)
    return builder.finalize()


# ---------------------------------------------------------------------------
# line-delimited serialization

_ARRAY_FIELDS = (
    "gender_code",
    "first_pub_year",
    "qualifying_count",
    "dominant_discipline",
    "dominant_country_idx",
    "dominant_institution_idx",
    "pub_year",
    "pub_qualifying",
    "pub_percentile",
    "pub_n_authors",
    "pub_intl",
    "pub_cits4y",
    "inc_author",
    "inc_pub",
    "author_starts",
    "jd_starts",
    "jd_disc",
    "inst_starts",
    "inst_flat",
)

_STRING_FIELDS = ("author_ids", "disc_vocab", "country_vocab", "inst_vocab")


def _encode_array(arr: np.ndarray) -> tuple[str, str]:
    if arr.dtype == bool:
        portable = arr.astype("<i1")
    else:
        portable = arr.astype(arr.dtype.newbyteorder("<"))
    return portable.dtype.str, base64.b64encode(portable.tobytes()).decode("ascii")


def _decode_array(dtype: str, n: int, payload: str, as_bool: bool) -> np.ndarray:
    arr = np.frombuffer(base64.b64decode(payload), dtype=np.dtype(dtype), count=n)
    arr = arr.astype(arr.dtype.newbyteorder("="))
    return arr.astype(bool) if as_bool else arr


def dump_columns(columns: CorpusColumns, fh: TextIO) -> None:
    """Write every column as one json line; arrays carry base64 payloads."""
    meta = {"kind": "meta", "reference_year": columns.reference_year}
    fh.write(json.dumps(meta, separators=(",", ":")) + "\n")
    for name in _STRING_FIELDS:
        obj = {"kind": "strings", "name": name, "values": getattr(columns, name)}
        fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
    overrides = {
        str(i): code for i, code in enumerate(columns.country_override) if code is not None
    }
    fh.write(
        json.dumps({"kind": "overrides", "values": overrides}, separators=(",", ":")) + "\n"
    )
    for name in _ARRAY_FIELDS:
        arr = getattr(columns, name)
        dtype, payload = _encode_array(arr)
        obj = {
            "kind": "array",
            "name": name,
            "dtype": dtype,
            "n": int(arr.shape[0]),
            "bool": bool(arr.dtype == bool),
            "data": payload,
        }
        fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def load_columns(lines: Iterable[str]) -> CorpusColumns:
    """Inverse of dump_columns; raises KeyError on missing sections."""
    parts: dict = {}
    meta: dict = {}
    overrides_raw: dict[str, str] = {}
    for line in lines:
        obj = json.loads(line)
        kind = obj["kind"]
        if kind == "meta":
            meta = obj
        elif kind == "strings":
            parts[obj["name"]] = obj["values"]
        elif kind == "overrides":
            overrides_raw = obj["values"]
        elif kind == "array":
            parts[obj["name"]] = _decode_array(obj["dtype"], obj["n"], obj["data"], obj["bool"])
        else:
            raise ValueError(f"unknown column section kind {kind!r}")
    override: list[str | None] = [None] * len(parts["author_ids"])
    for key, code in overrides_raw.items():
        override[int(key)] = code
    field_names = {f.name for f in fields(CorpusColumns)}
    kwargs = {name: parts[name] for name in field_names if name in parts}
    return CorpusColumns(
        reference_year=meta["reference_year"], country_override=override, **kwargs
    )
