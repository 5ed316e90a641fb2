"""Seeded synthetic corpora and cohorts with a controllable persistence knob.

Stage values follow a stationary log-autoregression blended with a latent
per-author ability, so the persistence parameter rho is the stage-to-stage
log-space correlation when ability_spread is 0: rho=0 gives independent
stages (base-rate transitions), rho=1 gives identical classes across stages.
Every author draws from a counter-based stream keyed on (seed, author index),
so corpus output is independent of generation order, and
write_synthetic_corpus writes contiguous author ranges on every CPU.
"""
from __future__ import annotations

import contextlib
import functools
import io
import math
import shutil
import tempfile
from dataclasses import dataclass, fields
from typing import Iterator, TextIO, get_type_hints

import numpy as np

from . import stage_errors
from .classes import BOTTOM, MIN_COHORT_SIZE, STAGES, TOP, assign_class_codes, stage_window
from .corpus import (
    DOC_TYPES,
    MAX_REFERENCE_YEAR,
    MIN_YEAR,
    REFERENCE_YEAR,
    AuthorRecord,
    Corpus,
    CorpusError,
    JournalRecord,
    author_to_json,
    journal_to_json,
    parse_corpus,
    run_shares,
    share_count,
)

CITATION_OFFSET_WEIGHTS = (0.35, 0.30, 0.15, 0.10, 0.06, 0.04)
NO_JOURNAL_PROB = 0.05
# doc type codes of the generator index corpus.DOC_TYPES
_ARTICLE, _CONFERENCE, _OTHER = map(DOC_TYPES.index, ("article", "conference_paper", "other"))
# the generator lists every pool entry by name before it writes a line, so a
# pool size is capped to keep a mistyped config from stalling synth
MAX_COUNTRIES = 1_000
MAX_INSTITUTIONS = 1_000_000
# synth writes contiguous author ranges in parallel (author_ranges); a range
# of fewer authors than this is not worth a process
MIN_RANGE_AUTHORS = 100
# the fixed cost of generating and writing an author, in publications: about
# 0.14 ms, against about 4.4 us per publication line (fitted on 2,000 authors
# at pubs_per_year 0 and 2)
AUTHOR_COST_PUBS = 32
# a worker's lines are appended in chunks of this many characters; chunks of
# 1 MiB raised synth's peak RSS by a tenth
COPY_CHUNK = 1 << 16


def _check_finite(config: object) -> None:
    """Reject a NaN or infinite real field (json reads NaN and Infinity)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise CorpusError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class CohortConfig:
    n_authors: int = 1000
    n_disciplines: int = 1
    persistence: float = 0.5
    ability_spread: float = 0.0
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.seed < 0:
            raise CorpusError(f"need seed >= 0, got {self.seed}")
        if self.n_disciplines < 1:
            raise CorpusError(f"need n_disciplines >= 1, got {self.n_disciplines}")
        if self.n_authors < MIN_COHORT_SIZE * self.n_disciplines:
            raise CorpusError(f"need n_authors >= {MIN_COHORT_SIZE} * n_disciplines")
        if not 0.0 <= self.persistence <= 1.0:
            raise CorpusError("persistence must be within [0, 1]")
        if self.ability_spread < 0 or self.noise_scale < 0:
            raise CorpusError("spread parameters must be non-negative")


@dataclass(frozen=True)
class CorpusConfig:
    cohort: CohortConfig
    pubs_per_year: float = 0.5
    team_size_mean: float = 3.0
    hyperauthor_prob: float = 0.01
    intl_collab_prob: float = 0.2
    percentile_bias: float = 15.0
    citation_rate: float = 3.0
    other_doc_rate: float = 0.03
    ref_count_mean: float = 5.0
    own_discipline_ref_share: float = 0.85
    n_countries: int = 10
    n_institutions: int = 250
    min_academic_age: int = 29
    max_academic_age: int = 50
    gender_female_share: float = 0.35
    gender_unknown_prob: float = 0.05
    reference_year: int = REFERENCE_YEAR

    def __post_init__(self) -> None:
        _check_finite(self)
        if not 1 <= self.min_academic_age <= self.max_academic_age:
            raise CorpusError("need 1 <= min_academic_age <= max_academic_age")
        for name in ("pubs_per_year", "citation_rate", "other_doc_rate", "ref_count_mean"):
            if getattr(self, name) < 0:
                raise CorpusError(f"{name} must be non-negative")
        for name in ("hyperauthor_prob", "intl_collab_prob", "gender_unknown_prob",
                     "gender_female_share", "own_discipline_ref_share"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise CorpusError(f"{name} must be a probability")
        if not (1 <= self.n_countries <= MAX_COUNTRIES and 1 <= self.n_institutions <= MAX_INSTITUTIONS):
            raise CorpusError(
                f"need 1 <= n_countries <= {MAX_COUNTRIES} and 1 <= n_institutions <= "
                f"{MAX_INSTITUTIONS}, got {self.n_countries} and {self.n_institutions}"
            )
        if self.reference_year > MAX_REFERENCE_YEAR:
            raise CorpusError(
                f"reference_year must be <= {MAX_REFERENCE_YEAR}, got {self.reference_year}"
            )
        # the oldest career starts max_academic_age years back; ingest
        # rejects every publication dated before MIN_YEAR
        if self.reference_year - self.max_academic_age < MIN_YEAR:
            raise CorpusError(
                f"reference_year - max_academic_age must be >= {MIN_YEAR}, got "
                f"{self.reference_year} - {self.max_academic_age}"
            )


@dataclass
class CohortSample:
    disciplines: np.ndarray  # int32 (N,) author -> discipline index
    values: np.ndarray  # float64 (N, 3) stage productivity values
    ability_z: np.ndarray  # float64 (N,) latent ability z-score
    discipline_codes: list[str]


def discipline_codes(n: int) -> list[str]:
    width = max(2, len(str(max(n - 1, 0))))
    return [f"D{d:0{width}d}" for d in range(n)]


def gen_cohort(config: CohortConfig) -> CohortSample:
    """Per-author stage values for three career stages.

    log v_0 = sigma*z + tau*e_0; log v_s = rho*log v_{s-1} +
    (1-rho)*sigma*z + tau*sqrt(1-rho^2)*e_s.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_authors
    z = rng.standard_normal(n)
    eps = rng.standard_normal((n, 3))
    rho = config.persistence
    tau = config.noise_scale
    log_a = config.ability_spread * z
    log_v = np.empty((n, 3))
    log_v[:, 0] = log_a + tau * eps[:, 0]
    innovation = tau * math.sqrt(max(0.0, 1.0 - rho * rho))
    for s in (1, 2):
        log_v[:, s] = rho * log_v[:, s - 1] + (1.0 - rho) * log_a + innovation * eps[:, s]
    disciplines = (np.arange(n, dtype=np.int32) % config.n_disciplines).astype(np.int32)
    # an overflow raises here, not a warning and then numpy's refusal of the draws
    with np.errstate(over="raise"):
        values = np.exp(log_v)
    return CohortSample(
        disciplines=disciplines,
        values=values,
        ability_z=z,
        discipline_codes=discipline_codes(config.n_disciplines),
    )


# ---------------------------------------------------------------------------
# corpus generation


def journal_table(config: CorpusConfig) -> dict[str, JournalRecord]:
    """One journal per (discipline, percentile), covering 0..99."""
    journals: dict[str, JournalRecord] = {}
    for disc in discipline_codes(config.cohort.n_disciplines):
        for pct in range(100):
            jid = _journal_id(disc, pct)
            journals[jid] = JournalRecord(jid, {disc: pct})
    return journals


def _author_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 1, index))))


def _author_id(index: int) -> str:
    return f"a{index:07d}"


def _journal_id(disc: str, pct: int) -> str:
    return f"{disc}-j{pct:02d}"


def _partner_draws(rng: np.random.Generator, universe: int, self_index: int, counts: list[int]) -> list[int]:
    """counts[k] distinct co-author indexes for publication k, never self_index.

    Draws skip self by shifting the draw past it; a pick that repeats an
    earlier pick of the same publication is redrawn until none repeats.
    """
    picks = rng.integers(universe - 1, size=sum(counts))
    picks += picks >= self_index
    # the usual case: no publication repeats a pick
    listed = picks.tolist()
    start = 0
    for count in counts:
        if count > 1 and len(set(listed[start : start + count])) < count:
            break
        start += count
    else:
        return listed
    owner = np.repeat(np.arange(len(counts)), counts)
    while True:
        key = owner * universe + picks
        order = np.argsort(key, kind="stable")
        repeats = order[1:][key[order[1:]] == key[order[:-1]]]
        if not len(repeats):
            return picks.tolist()
        redraw = rng.integers(universe - 1, size=len(repeats))
        picks[repeats] = redraw + (redraw >= self_index)


def _moved_to(rng: np.random.Generator, count: int, home: int, pool_size: int) -> list[int]:
    """Destinations of *count* moves: each uniform over the pool minus home."""
    return [(home + d) % pool_size for d in rng.integers(1, pool_size, size=count).tolist()]


def _code_sets(names: list[str], home: int, n: int, moved: list[int], dest: list[int]) -> list[str]:
    """JSON list body of each of *n* publications: the home code, plus the
    destination where moved, sorted."""
    frags = [f'"{names[home]}"'] * n
    for k, d in zip(moved, dest):
        frags[k] = '"{}","{}"'.format(*sorted((names[home], names[d])))
    return frags


class _AuthorGenerator:
    """Generates one author's record and publication lines from their own stream.

    The stream makes the same handful of array draws for every author, in
    this order: the author's scalars (age, home country and institution,
    gender), the five publication group counts, years and doc types, team
    sizes, hyperauthor flags and partners, international and institution
    moves, journal placement, the citation matrix, and cited-reference
    disciplines. The per-publication arrays are a few dozen elements long,
    where a numpy call costs more than a Python loop, so numpy makes the
    draws and everything else runs on Python ints and lists, each float
    expression in numpy's order of operations. The partner and reference
    draws, several times longer, keep one numpy step each: the shift past
    self and the away test. Lines come out preformatted, byte-equal to
    corpus.publication_to_json of the record they parse to.
    """

    def __init__(self, config: CorpusConfig, cohort: CohortSample):
        self.config = config
        self.cohort = cohort
        self.countries = [f"C{k:02d}" for k in range(config.n_countries)]
        self.institutions = [f"inst{k:04d}" for k in range(config.n_institutions)]
        codes = cohort.discipline_codes
        self.disc_json = [f'"{d}"' for d in codes]
        # each id as it follows another in author_ids; an author is someone
        # else's partner about 50 times, so each id is formatted once
        self.coauthor_json = [f',"{_author_id(j)}"' for j in range(config.cohort.n_authors)]
        # indexed by percentile; -1 (no journal) picks the trailing null
        self.journal_json = [[f'"{_journal_id(d, p)}"' for p in range(100)] + ["null"] for d in codes]
        self.cite_weights = np.array(CITATION_OFFSET_WEIGHTS)
        # the citations_by_year keys of a line dated k years before the
        # reference year: one per offset, up to the reference year
        ref = config.reference_year
        self.cite_keys = [
            [f'"{ref - k + j}":' for j in range(min(k + 1, len(CITATION_OFFSET_WEIGHTS)))]
            for k in range(config.max_academic_age + 1)
        ]

    def generate(self, i: int) -> tuple[AuthorRecord, list[str]]:
        cfg = self.config
        rng = _author_rng(cfg.cohort.seed, i)
        ref = cfg.reference_year
        age, home_country, home_inst = rng.integers(
            (cfg.min_academic_age, 0, 0),
            (cfg.max_academic_age + 1, cfg.n_countries, cfg.n_institutions),
        ).tolist()
        unknown, female, clears, score = rng.random(4).tolist()
        if unknown < cfg.gender_unknown_prob:
            author = AuthorRecord(_author_id(i), "unknown", 0.0)
        else:
            label = "female" if female < cfg.gender_female_share else "male"
            # most scores clear the 0.85 acceptance threshold, some do not
            prob = 0.85 + 0.15 * score if clears < 0.8 else 0.65 + 0.2 * score
            author = AuthorRecord(_author_id(i), label, round(prob, 4))
        first_year = ref - age
        v0, v1, v2 = self.cohort.values[i].tolist()
        z = self.cohort.ability_z[i]
        disc = int(self.cohort.disciplines[i])

        # groups: early, mid and late window, the gap between the mid and the
        # late window, and other doc types over the whole career; windows are
        # cut to [first_year, ref], so a short career never publishes past ref
        early, mid, late = (stage_window(first_year, stage, ref) for stage in STAGES)
        windows = [
            (max(lo, first_year), min(hi, ref))
            for lo, hi in (early, mid, late, (mid[1] + 1, late[0] - 1), (first_year, ref))
        ]
        ppy = cfg.pubs_per_year
        per_year = (ppy * v0, ppy * v1, ppy * v2, ppy * (0.3 * v2), cfg.other_doc_rate)
        counts = rng.poisson(
            np.array([rate * max(hi - lo + 1, 0) for rate, (lo, hi) in zip(per_year, windows)])
        ).tolist()
        counts[2] = max(counts[2], 1)
        # one first article at first_year, then the groups, then articles in
        # the late window until three qualify
        top_up = max(0, 2 - sum(counts[:4]))
        lows: list[int] = []
        highs: list[int] = []
        for size, (lo, hi) in zip((1, *counts, top_up), ((first_year, first_year), *windows, windows[2])):
            lows += [lo] * size
            highs += [hi + 1] * size
        n = len(lows)
        years = rng.integers(np.array(lows, dtype=np.int64), np.array(highs, dtype=np.int64)).tolist()
        # the early, mid and late groups hold lines 1 to stage_end - 1; the
        # other doc types follow the gap group
        stage_end = 1 + counts[0] + counts[1] + counts[2]
        other_start = stage_end + counts[3]
        doc = [_ARTICLE] * n
        doc[other_start : other_start + counts[4]] = [_OTHER] * counts[4]
        for k, draw in enumerate(rng.random(n).tolist()[1:stage_end], 1):
            if draw >= 0.9:
                doc[k] = _CONFERENCE

        universe = cfg.cohort.n_authors
        extra = rng.poisson(max(cfg.team_size_mean - 1.0, 0.0), n).tolist()
        hyper = [k for k, draw in enumerate(rng.random(n).tolist()) if draw < cfg.hyperauthor_prob]
        for k, size in zip(hyper, rng.integers(10, 26, size=len(hyper)).tolist()):
            extra[k] = size
        extra = [min(e, universe - 1) for e in extra]
        partners = _partner_draws(rng, universe, i, extra)

        intl_draw, inst_draw = rng.random((2, n)).tolist()
        intl = [k for k, (e, draw) in enumerate(zip(extra, intl_draw)) if e and draw < cfg.intl_collab_prob]
        country_moved = intl if len(self.countries) > 1 else []
        inst_moved = [k for k in intl if inst_draw[k] < 0.5] if len(self.institutions) > 1 else []
        country_dest = _moved_to(rng, len(country_moved), home_country, len(self.countries))
        inst_dest = _moved_to(rng, len(inst_moved), home_inst, len(self.institutions))

        no_journal = rng.random(n).tolist()
        placement = rng.normal(50.0 + cfg.percentile_bias * z, 25.0, n).tolist()
        # np.clip(np.rint(x), 0, 99) for any x, an infinite one included:
        # round() rounds half to even too
        pct = [
            -1 if nj < NO_JOURNAL_PROB else 0 if x < 0.0 else 99 if x > 99.0 else round(x)
            for nj, x in zip(no_journal, placement)
        ]

        rate = cfg.citation_rate
        base = np.array([rate * (0.4 + 0.012 * p) if p >= 0 else rate * 0.4 for p in pct])
        cites = rng.poisson(base[:, None] * self.cite_weights).tolist()

        n_refs = [1 + m for m in rng.poisson(max(cfg.ref_count_mean - 1.0, 0.0), n).tolist()]
        refs = [self.disc_json[disc]] * sum(n_refs)
        n_disc = len(self.disc_json)
        if n_disc > 1:
            away = np.flatnonzero(rng.random(len(refs)) >= cfg.own_discipline_ref_share).tolist()
            for k, d in zip(away, _moved_to(rng, len(away), disc, n_disc)):
                refs[k] = self.disc_json[d]

        head = f'{{"pub_id":"p{i:07d}n'
        journal_json = self.journal_json[disc]
        focal = self.coauthor_json[i][1:]
        countries = _code_sets(self.countries, home_country, n, country_moved, country_dest)
        institutions = _code_sets(self.institutions, home_inst, n, inst_moved, inst_dest)
        coauthors = [self.coauthor_json[j] for j in partners]
        cite_keys = self.cite_keys
        lines = []
        a = r = 0
        for serial, (year, d, e, country, inst, p, row, m) in enumerate(
            zip(years, doc, extra, countries, institutions, pct, cites, n_refs)
        ):
            # cite_keys stops at the reference year, and a count of 0 is not written
            cits = ",".join([f"{key}{c}" for key, c in zip(cite_keys[ref - year], row) if c])
            lines.append(
                f'{head}{serial:04d}","year":{year},"doc_type":"{DOC_TYPES[d]}",'
                f'"author_ids":[{focal}{"".join(coauthors[a : a + e])}],"affiliation_countries":[{country}],'
                f'"affiliation_institutions":[{inst}],"journal_id":{journal_json[p]},'
                f'"citations_by_year":{{{cits}}},"cited_ref_disciplines":[{",".join(refs[r : r + m])}]}}\n'
            )
            a += e
            r += m
        return author, lines


def iter_author_batches(
    generator: _AuthorGenerator, start: int, stop: int
) -> Iterator[tuple[AuthorRecord, list[str]]]:
    """Each author's record and publication lines, for authors start to
    stop - 1 in order."""
    for i in range(start, stop):
        yield generator.generate(i)


def author_ranges(config: CorpusConfig, values: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) ranges that cut the authors into contiguous ranges of
    about equal expected cost: one per CPU of this process's affinity mask,
    but no more than leaves MIN_RANGE_AUTHORS authors per range, and none
    empty. *values* are the cohort's stage values; an author's cost is
    AUTHOR_COST_PUBS plus their expected publications, about ten times
    pubs_per_year per unit of stage value."""
    n = len(values)
    k = share_count(n, MIN_RANGE_AUTHORS)
    cost = np.cumsum(10.0 * config.pubs_per_year * values.sum(axis=1) + AUTHOR_COST_PUBS)
    cuts = np.searchsorted(cost, cost[-1] * np.arange(1, k) / k).tolist()
    bounds = sorted({0, n, *cuts})
    return list(zip(bounds, bounds[1:]))


def _write_authors(
    generator: _AuthorGenerator, start: int, stop: int, pubs_out: TextIO, authors_out: TextIO
) -> int:
    """Write the lines of authors start to stop - 1 and flush them (a worker
    leaves without flushing); returns their publication count."""
    n_pubs = 0
    for author, lines in iter_author_batches(generator, start, stop):
        authors_out.write(author_to_json(author) + "\n")
        pubs_out.write("".join(lines))
        n_pubs += len(lines)
    pubs_out.flush()
    authors_out.flush()
    return n_pubs


def gen_corpus(config: CorpusConfig) -> Corpus:
    """Materialize a full synthetic Corpus by parsing the lines that
    write_synthetic_corpus writes (small/medium scale; the CLI streams them
    straight to files instead)."""
    files = [io.StringIO() for _ in range(3)]
    write_synthetic_corpus(config, *files)
    for fh in files:
        fh.seek(0)
    corpus, rejects = parse_corpus(*files, config.reference_year)
    if rejects:
        first = rejects[0]
        raise CorpusError(
            f"synthetic corpus has {len(rejects)} invalid lines, first {first.file} "
            f"line {first.line_no}: {first.reason}"
        )
    return corpus


def write_synthetic_corpus(
    config: CorpusConfig, pubs_out: TextIO, journals_out: TextIO, authors_out: TextIO
) -> dict[str, int]:
    """Stream the three input files; returns line counts per file.

    The authors are cut into ranges (author_ranges), one share each. This
    process writes the first range straight to the outputs, each other share
    writes its range to two temporary files, and those are appended in range
    order, so every output is the same for any range count. An error in
    any share, this process's or a worker's, is a StageError of synth.
    """
    with stage_errors("synth"):
        journals = journal_table(config)
        for jid in sorted(journals):
            journals_out.write(journal_to_json(journals[jid]) + "\n")
        cohort = gen_cohort(config.cohort)
        generator = _AuthorGenerator(config, cohort)
        ranges = author_ranges(config, cohort.values)
        for out in (pubs_out, journals_out, authors_out):
            out.flush()
        with contextlib.ExitStack() as stack:
            spills = [
                [
                    stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
                    for _ in range(2)
                ]
                for _ in ranges[1:]
            ]
            counts = run_shares(
                "synth",
                [
                    (
                        f"authors {start}-{stop - 1}",
                        functools.partial(_write_authors, generator, start, stop, *files),
                    )
                    for (start, stop), files in zip(ranges, [[pubs_out, authors_out], *spills])
                ],
            )
            for files in spills:
                for spill, out in zip(files, (pubs_out, authors_out)):
                    spill.seek(0)
                    shutil.copyfileobj(spill, out, COPY_CHUNK)
    return {"publications": sum(counts), "journals": len(journals), "authors": config.cohort.n_authors}


# ---------------------------------------------------------------------------
# persistence calibration


@dataclass
class CalibrationResult:
    rho: float
    top_to_top: float
    bottom_to_bottom: float


def calibrate_persistence(
    target_top_to_top: float,
    n_authors: int = 100_000,
    seed: int = 0,
    tol_pp: float = 1.0,
    max_iter: int = 60,
) -> CalibrationResult:
    """Bisect rho until the simulated early->mid top-to-top rate lands within
    tol_pp of the target. Common random numbers (fixed seed) keep the
    simulated rate effectively monotone in rho."""
    # imported here: the synth stage loads no analysis module
    from .mobility import transition_matrix_codes

    if not 0.0 < target_top_to_top <= 100.0:
        raise CorpusError("target rate must be a percentage in (0, 100]")

    def simulate(rho: float) -> CalibrationResult:
        """rho with its raw early->mid top-to-top and bottom-to-bottom percentages."""
        values = gen_cohort(
            CohortConfig(n_authors=n_authors, n_disciplines=1, persistence=rho, seed=seed)
        ).values
        from_codes, to_codes = (assign_class_codes(values[:, s])[0] for s in (0, 1))
        counts = transition_matrix_codes(from_codes, to_codes, STAGES[0], STAGES[1]).counts
        tt, bb = (100.0 * int(counts[c, c]) / int(counts[c].sum()) for c in (TOP, BOTTOM))
        return CalibrationResult(rho, tt, bb)

    lo, hi = simulate(0.0), simulate(1.0)
    if not lo.top_to_top - tol_pp <= target_top_to_top <= hi.top_to_top + tol_pp:
        raise CorpusError(
            f"target {target_top_to_top:.1f}% outside achievable range: "
            f"rho=0 gives {lo.top_to_top:.1f}%, rho=1 gives {hi.top_to_top:.1f}%"
        )
    for end in (lo, hi):
        if abs(end.top_to_top - target_top_to_top) <= tol_pp:
            return end
    for _ in range(max_iter):
        mid = simulate((lo.rho + hi.rho) / 2.0)
        if abs(mid.top_to_top - target_top_to_top) <= tol_pp:
            return mid
        lo, hi = (mid, hi) if mid.top_to_top < target_top_to_top else (lo, mid)
    raise CorpusError(
        f"calibration did not converge after {max_iter} bisections; "
        f"bracket [{lo.rho:.6f}, {hi.rho:.6f}]"
    )


def config_from_mapping(obj: dict) -> CorpusConfig:
    """Declarative config: flat JSON keys for CohortConfig and CorpusConfig.
    An integer field takes an int, a real field an int or a float; a bool is
    neither."""
    types = {**get_type_hints(CohortConfig), **get_type_hints(CorpusConfig)}
    del types["cohort"]
    unknown = set(obj) - set(types)
    if unknown:
        raise CorpusError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in obj.items():
        allowed = (int,) if types[key] is int else (int, float)
        if isinstance(value, bool) or not isinstance(value, allowed):
            kind = "an integer" if types[key] is int else "a number"
            raise CorpusError(f"config key {key} must be {kind}, got {type(value).__name__}")
    cohort_keys = {f.name for f in fields(CohortConfig)}
    cohort = CohortConfig(**{k: v for k, v in obj.items() if k in cohort_keys})
    return CorpusConfig(cohort=cohort, **{k: v for k, v in obj.items() if k not in cohort_keys})
