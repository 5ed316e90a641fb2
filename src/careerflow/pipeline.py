"""Ingest, the analysis pipeline, and output writers.

Ingest parses and validates publications once and writes the corpus in
columnar form to the cache (columnar.write_cache), with a header of its
own: the publication count, the filter config, the retained author ids
and the filter report. Analyze re-reads only the cache.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import MANIFEST_NAME, CorpusError, StageError, stage_errors
from .classes import (
    CLASS_ORDER,
    PRODUCTIVITY_TYPES,
    STAGES,
    assign_cohort_classes,
    sorted_unique,
)
from .columnar import (
    CorpusColumns,
    byte_ranges,
    ingest_range,
    merge_ranges,
    read_cache,
    write_cache,
)
from .corpus import (
    GATE_ORDER,
    GENDER_LABELS,
    FilterReport,
    Reject,
    SampleFilterConfig,
    aside_path,
    parse_authors,
    parse_journals,
    run_shares,
    write_aside,
)
from .mobility import (
    MATRIX_TABLE_HEADER,
    TransitionMatrix,
    matrix_table_rows,
    sankey_export,
    transition_matrix_codes,
)
from .portfolio import PortfolioTable, derive_portfolios
from .regression import (
    MODEL_FAMILIES, Z_95, ModelOutcome, default_predictors, default_spec, grid_rows, run_models, sig_label
)

CACHE_NAME = "corpus.cache"
# analyze owns these directories: a file in them that the manifest does not
# list is a stale output of an earlier run and is removed
OUTPUT_DIRS = ("matrices", "sankey", "regression")

# analyze writes each jsonl output this many lines at a time, and reads
# outputs back this many bytes at a time
LINE_BATCH = 4096
HASH_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# filter gates over columns


def _allowed(codes: np.ndarray, vocab: list[str], allowed: frozenset[str] | None) -> np.ndarray:
    """Whether each vocabulary code of *codes* names a value in *allowed*
    (any value, if None); the code -1, no value, never passes."""
    ok = np.array([allowed is None or name in allowed for name in vocab] + [False], dtype=bool)
    return ok[codes]


def gates_from_columns(
    columns: CorpusColumns, config: SampleFilterConfig
) -> tuple[set[str], FilterReport]:
    """Vectorized gate chain; agrees with corpus.filter_sample exactly."""
    n = columns.n_authors
    has_pubs = columns.first_pub_year >= 0

    country_pass = _allowed(
        columns.dominant_country_idx, columns.country_vocab, config.allowed_countries
    )
    for i, code in enumerate(columns.country_override):
        if code is not None and has_pubs[i]:
            country_pass[i] = config.allowed_countries is None or code in config.allowed_countries

    disc_pass = _allowed(
        columns.dominant_discipline, columns.disc_vocab, config.allowed_disciplines
    )

    count_pass = columns.qualifying_count >= config.min_publications

    age = columns.reference_year - columns.first_pub_year
    age_pass = has_pubs & (age >= config.min_academic_age) & (age <= config.max_academic_age)

    window_lo = columns.reference_year - config.active_window_years + 1
    active_pub = (
        columns.pub_qualifying
        & (columns.pub_year >= window_lo)
        & (columns.pub_year <= columns.reference_year)
    )
    active_counts = np.bincount(
        columns.inc_author[active_pub[columns.inc_pub]], minlength=n
    )
    active_pass = active_counts > 0

    remaining = np.ones(n, dtype=bool)
    removed: dict[str, int] = {}
    for gate, mask in zip(GATE_ORDER, (country_pass, disc_pass, count_pass, age_pass, active_pass)):
        removed[gate] = int(np.count_nonzero(remaining & ~mask))
        remaining &= mask
    retained = {columns.author_ids[i] for i in np.flatnonzero(remaining)}
    return retained, FilterReport(removed, len(retained), n)


# ---------------------------------------------------------------------------
# ingest


@dataclass
class IngestResult:
    cache_path: Path
    n_publications: int
    n_rejects: int
    report: FilterReport


def _filter_config_dict(config: SampleFilterConfig) -> dict:
    """The config's fields in order, each allowlist sorted."""
    return {
        name: sorted(value) if isinstance(value, frozenset) else value
        for name, value in asdict(config).items()
    }


def run_ingest(
    pubs_path: Path,
    journals_path: Path,
    authors_path: Path,
    out_dir: Path,
    reference_year: int,
    config: SampleFilterConfig,
) -> IngestResult:
    for path in (pubs_path, journals_path, authors_path):
        if not path.exists():
            raise CorpusError(f"input file not found: {path}")
    out_dir.mkdir(parents=True, exist_ok=True)
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
    rejects += pub_rejects
    n_pubs = columns.n_publications
    retained, report = gates_from_columns(columns, config)
    report_obj = asdict(report)

    header = {
        "n_publications": n_pubs,
        "filter": _filter_config_dict(config),
        "retained": sorted(retained),
        "report": report_obj,
    }
    # the cache is renamed last: analyze reads it
    cache_path = out_dir / CACHE_NAME
    with write_aside() as open_aside:
        with open_aside(out_dir / "rejects.jsonl") as fh:
            for reject in rejects:
                fh.write(reject.to_json() + "\n")
        with open_aside(out_dir / "filter_report.json") as fh:
            json.dump(report_obj, fh, indent=2)
            fh.write("\n")
        with open_aside(cache_path, binary=True) as fh:
            write_cache(fh, header, columns)
    return IngestResult(cache_path, n_pubs, len(rejects), report)


# ---------------------------------------------------------------------------
# cache loading


@dataclass
class LoadedCache:
    header: dict
    columns: CorpusColumns
    retained: set[str]
    report: FilterReport


def load_cache(cache_path: Path) -> LoadedCache:
    if not cache_path.exists():
        raise CorpusError(f"cache not found: {cache_path} (run ingest first)")
    with open(cache_path, "rb") as fh:
        header, columns = read_cache(fh)
    return LoadedCache(header, columns, set(header["retained"]), FilterReport(**header["report"]))


# ---------------------------------------------------------------------------
# analysis outputs


def _line_batches(lines: Iterable[str]) -> Iterator[str]:
    """The text of *lines*, each ended by a newline, LINE_BATCH lines at a
    time, so a large output is never held whole."""
    lines = iter(lines)
    while batch := list(itertools.islice(lines, LINE_BATCH)):
        yield "\n".join(batch) + "\n"


def _file_sha256(path: Path) -> str:
    """The sha256 of the file at *path*, read HASH_BLOCK bytes at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(HASH_BLOCK):
            digest.update(block)
    return digest.hexdigest()


def _tsv(rows: Iterable[Iterable]) -> str:
    return "\n".join("\t".join(str(cell) for cell in row) for row in rows) + "\n"


def gates_table(report: FilterReport) -> str:
    rows: list[tuple] = [("gate", "removed")]
    rows.extend(report.removed.items())
    rows.append(("retained", report.retained))
    rows.append(("total", report.total))
    return _tsv(rows)


def portfolio_lines(table: PortfolioTable) -> Iterator[str]:
    """One json line per sampled author. Real values are rounded to 6
    places; an undefined rate or FWCI is null and an undefined stage AJPR is
    left out."""
    cols = table.columns
    for row in range(table.n_sample):
        idx = int(table.sample_idx[row])
        rate = float(table.intl_rate[row])
        fwci = float(table.fwci_mean[row])
        obj = {
            "author_id": cols.author_ids[idx],
            "first_pub_year": int(cols.first_pub_year[idx]),
            "academic_age": int(table.academic_age[row]),
            "gender": GENDER_LABELS[int(cols.gender_code[idx])],
            "dominant_discipline": cols.discipline_of(idx),
            "dominant_country": cols.dominant_country(idx),
            "dominant_institution": cols.dominant_institution(idx),
            "top200": bool(table.top200[row]),
            "intl_collab_rate": round(rate, 6) if math.isfinite(rate) else None,
            "median_team_size": round(float(table.team_median[row]), 6),
            "mean_fwci4y": round(fwci, 6) if math.isfinite(fwci) else None,
            "ajpr_by_stage": {
                stage: round(value, 6)
                for stage, value in zip(STAGES, table.ajpr_stage[row].tolist())
                if math.isfinite(value)
            },
        }
        yield json.dumps(obj, separators=(",", ":"))


def class_dump_lines(table: PortfolioTable, codes: np.ndarray) -> Iterator[str]:
    cols = table.columns
    cells = [
        f'"stage":"{stage}","ptype":"{ptype}","value":'
        for stage in STAGES
        for ptype in PRODUCTIVITY_TYPES
    ]
    for row in range(table.n_sample):
        idx = int(table.sample_idx[row])
        author = json.dumps(cols.author_ids[idx])
        disc = json.dumps(cols.discipline_of(idx))
        head = f'{{"author_id":{author},"discipline":{disc},'
        # one conversion per row: indexing a numpy array per cell costs more
        # than formatting the cell
        values, classes = table.productivity[row].ravel().tolist(), codes[row].ravel().tolist()
        for cell, value, cls in zip(cells, values, classes):
            yield f'{head}{cell}{value:.6f},"class":"{CLASS_ORDER[cls]}"}}'


def scope_matrices(codes: np.ndarray, scope_mask: np.ndarray, ptype: str) -> list[TransitionMatrix]:
    """The early->mid, mid->late and early->late matrices of *ptype* over
    the authors in *scope_mask*."""
    t = PRODUCTIVITY_TYPES.index(ptype)
    return [
        transition_matrix_codes(codes[scope_mask, i, t], codes[scope_mask, j, t], STAGES[i], STAGES[j])
        for i, j in ((0, 1), (1, 2), (0, 2))
    ]


def models_table(outcomes: list[ModelOutcome]) -> str:
    """One row per coefficient, or per failed model, in the order of *outcomes*."""
    rows = [
        (
            "discipline",
            "n_used",
            "pseudo_r2",
            "converged",
            "iterations",
            "predictor",
            "coef",
            "se",
            "exp_b",
            "ci_low",
            "ci_high",
            "sig",
            "p_value",
            "scale",
            "note",
        )
    ]
    for outcome in outcomes:
        disc = outcome.spec.discipline
        if outcome.fit is None:
            rows.append((disc, "", "", "", "", "", "", "", "", "", "", "", "", "", outcome.error))
            continue
        fit = outcome.fit
        coef, se, p_values = fit.coef.tolist(), fit.se.tolist(), fit.p_values.tolist()
        odds_ratios, fit_ci_low, fit_ci_high = (
            fit.odds_ratios.tolist(), fit.ci_low.tolist(), fit.ci_high.tolist()
        )
        for i, name in enumerate(fit.names):
            if name == "intercept":
                # Wald bounds for the intercept are reported on the log-odds
                # scale; exponentiated bounds would be misleading here.
                ci_low = coef[i] - Z_95 * se[i]
                ci_high = coef[i] + Z_95 * se[i]
                scale = "log_odds"
            else:
                ci_low = fit_ci_low[i]
                ci_high = fit_ci_high[i]
                scale = "odds_ratio"
            rows.append(
                (
                    disc,
                    fit.n_used,
                    f"{fit.pseudo_r2:.6f}",
                    str(fit.converged).lower(),
                    fit.iterations,
                    name,
                    f"{coef[i]:.6f}",
                    f"{se[i]:.6f}",
                    f"{odds_ratios[i]:.6f}",
                    f"{ci_low:.6f}",
                    f"{ci_high:.6f}",
                    sig_label(p_values[i]),
                    f"{p_values[i]:.6g}",
                    scale,
                    "",
                )
            )
    return _tsv(rows)


def collinearity_table(outcomes: list[ModelOutcome]) -> str:
    rows = [("discipline", "predictor", "vif")]
    for outcome in outcomes:
        if outcome.vif is None:
            continue
        for name, value in outcome.vif.items():
            rows.append((outcome.spec.discipline, name, f"{value:.6f}"))
    return _tsv(rows)


# ---------------------------------------------------------------------------
# analyze driver


@dataclass
class AnalyzeResult:
    out_dir: Path
    manifest: dict[str, str]
    n_sample: int


def run_analyze(
    out_dir: Path,
    ptypes: list[str] | None = None,
    scopes: list[str] | None = None,
) -> AnalyzeResult:
    ptypes = list(dict.fromkeys(ptypes)) if ptypes else list(PRODUCTIVITY_TYPES)
    for ptype in ptypes:
        if ptype not in PRODUCTIVITY_TYPES:
            raise CorpusError(f"unknown ptype {ptype!r}")
    # the stale-output sweep below unlinks files under these directories;
    # through a link it would unlink files outside the run dir
    for sub in OUTPUT_DIRS:
        if (out_dir / sub).is_symlink():
            raise StageError("outputs", f"{sub} is a symbolic link")

    try:
        loaded = load_cache(out_dir / CACHE_NAME)
    except (ValueError, KeyError, TypeError) as exc:  # CorpusError, or a header without its fields
        raise StageError("load-cache", str(exc)) from exc

    columns = loaded.columns
    if not loaded.retained:
        raise StageError("filter", "no authors retained by the sample filter")

    with stage_errors("portfolio"):
        table = derive_portfolios(columns, loaded.retained)
    with stage_errors("classes"):
        codes, too_small = assign_cohort_classes(table.discipline_idx, table.productivity)

    sample_discs = [columns.disc_vocab[d] for d in sorted_unique(table.discipline_idx) if d >= 0]
    if scopes:
        unknown = [s for s in scopes if s != "all" and s not in sample_discs]
        if unknown:
            raise StageError("scopes", f"not in the sample: {', '.join(unknown)}")
        scope_list = list(dict.fromkeys(scopes))
    else:
        scope_list = ["all"] + sample_discs

    # every output is written aside and hashed as it is written; all are
    # renamed into place only once every one is written and read back, the
    # manifest last, so a failure leaves the previous run as it was
    manifest: dict[str, str] = {}
    with write_aside() as open_aside:
        outputs = analyze_outputs(loaded.report, table, codes, too_small, ptypes, scope_list)
        for rel_path, pieces in outputs:
            path = out_dir / rel_path
            path.parent.mkdir(parents=True, exist_ok=True)
            digest = hashlib.sha256()
            with open_aside(path, binary=True) as fh:
                for piece in pieces:
                    data = piece.encode("utf-8")
                    digest.update(data)
                    fh.write(data)
            manifest[rel_path] = digest.hexdigest()
        for rel_path, digest in manifest.items():
            if _file_sha256(aside_path(out_dir / rel_path)) != digest:
                raise StageError("manifest", f"hash mismatch for {rel_path}")
        with open_aside(out_dir / MANIFEST_NAME) as fh:
            for rel_path in sorted(manifest):
                entry = {"path": rel_path, "sha256": manifest[rel_path]}
                fh.write(json.dumps(entry, separators=(",", ":")) + "\n")

    for sub in OUTPUT_DIRS:
        for path in (out_dir / sub).rglob("*"):
            if path.is_file() and path.relative_to(out_dir).as_posix() not in manifest:
                path.unlink()
    return AnalyzeResult(out_dir, manifest, table.n_sample)


def analyze_outputs(
    report: FilterReport,
    table: PortfolioTable,
    codes: np.ndarray,
    too_small: list[tuple[int, str, str]],
    ptypes: list[str],
    scope_list: list[str],
) -> Iterator[tuple[str, Iterable[str]]]:
    """Each output of analyze but the manifest, in the order written: its
    path in the run dir and its text, in pieces. A failure in the mobility
    or regression stage is a StageError of that stage."""
    columns = table.columns
    yield "gates.tsv", [gates_table(report)]
    yield "portfolios.jsonl", _line_batches(portfolio_lines(table))
    yield "classes.jsonl", _line_batches(class_dump_lines(table, codes))
    coverage = {
        "fwci_skipped_publications": table.fwci_skipped_pubs,
        "prestige_weight_uncovered_publications": table.prestige_uncovered_pubs,
        "too_small_cohorts": [
            {"discipline": columns.disc_vocab[d], "stage": s, "ptype": t}
            for d, s, t in too_small
        ],
    }
    yield "coverage.json", [json.dumps(coverage, indent=2, sort_keys=True) + "\n"]

    with stage_errors("mobility"):
        for ptype in ptypes:
            for scope in scope_list:
                matrices = scope_matrices(codes, table.scope_mask(scope), ptype)
                rows = (
                    [MATRIX_TABLE_HEADER]
                    + matrix_table_rows(matrices[:2])
                    + matrix_table_rows([matrices[2]], final_summary=False)
                )
                yield f"matrices/{ptype}_{scope}.tsv", [_tsv(rows)]
                yield f"sankey/{ptype}_{scope}.txt", [sankey_export(matrices[:2])]

    with stage_errors("regression"):
        # every model table lists its disciplines in this order
        model_disciplines = sorted(s for s in scope_list if s != "all")
        if not model_disciplines:
            return
        groups = [(side, stage, ptype) for side, stage in MODEL_FAMILIES for ptype in ptypes]
        specs = [default_spec(*group, disc) for group in groups for disc in model_disciplines]
        results = run_models(table, codes, specs)
        n = len(model_disciplines)
        for k, (side, stage, ptype) in enumerate(groups):
            outcomes = results[k * n : (k + 1) * n]
            name = f"{side}_{stage}_{ptype}.tsv"
            yield f"regression/models_{name}", [models_table(outcomes)]
            yield f"regression/collinearity_{name}", [collinearity_table(outcomes)]
            yield f"regression/grid_{name}", [_tsv(grid_rows(outcomes, default_predictors(stage)))]
