"""Ingest cache format, the analysis pipeline, and output writers.

The cache is a single line-delimited file with a versioned header line
followed by kind-tagged json sections: the corpus in columnar form (array
payloads base64-encoded with explicit dtypes), the retained author set, and
the filter report. Publications are parsed and validated once, at ingest;
analysis re-reads only arrays.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, TextIO

import numpy as np

from .classes import (
    CLASS_ORDER,
    PRODUCTIVITY_TYPES,
    STAGES,
    assign_cohort_classes,
    sorted_unique,
)
from .columnar import (
    GENDER_NAMES,
    ColumnsBuilder,
    CorpusColumns,
    RangeResult,
    byte_ranges,
    dump_columns,
    ingest_range,
    load_columns,
    merge_ranges,
)
from .corpus import (
    MANIFEST_NAME,
    AuthorRecord,
    CorpusError,
    FilterReport,
    JournalRecord,
    Reject,
    SampleFilterConfig,
    StageError,
    parse_authors,
    parse_journals,
)
from .mobility import (
    MATRIX_TABLE_HEADER,
    TransitionMatrix,
    matrix_table_rows,
    sankey_export,
    transition_matrix_codes,
)
from .portfolio import PortfolioTable, derive_portfolios
from .regression import ModelOutcome, default_spec, grid_rows, run_models, sig_label

CACHE_VERSION = 1
CACHE_NAME = "corpus.cache"
# analyze owns these directories: a file in them that the manifest does not
# list is a stale output of an earlier run and is removed
OUTPUT_DIRS = ("matrices", "sankey", "regression")

MODEL_FAMILIES = ("top_mid", "top_late", "bottom_mid", "bottom_late")


# ---------------------------------------------------------------------------
# filter gates over columns


def gates_from_columns(
    columns: CorpusColumns, config: SampleFilterConfig
) -> tuple[set[str], FilterReport]:
    """Vectorized gate chain; agrees with corpus.filter_sample exactly."""
    n = columns.n_authors
    has_pubs = columns.first_pub_year >= 0

    country_idx = columns.dominant_country_idx
    if config.allowed_countries is None:
        country_vocab_ok = np.ones(max(len(columns.country_vocab), 1), dtype=bool)
    else:
        country_vocab_ok = np.array(
            [c in config.allowed_countries for c in columns.country_vocab] or [False], dtype=bool
        )
    country_pass = (country_idx >= 0) & country_vocab_ok[np.maximum(country_idx, 0)]
    for i, code in enumerate(columns.country_override):
        if code is not None and has_pubs[i]:
            country_pass[i] = config.allowed_countries is None or code in config.allowed_countries

    disc_idx = columns.dominant_discipline
    if config.allowed_disciplines is None:
        disc_vocab_ok = np.ones(max(len(columns.disc_vocab), 1), dtype=bool)
    else:
        disc_vocab_ok = np.array(
            [d in config.allowed_disciplines for d in columns.disc_vocab] or [False], dtype=bool
        )
    disc_pass = (disc_idx >= 0) & disc_vocab_ok[np.maximum(disc_idx, 0)]

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
    for gate, mask in (
        ("country", country_pass),
        ("discipline", disc_pass),
        ("min_publications", count_pass),
        ("academic_age", age_pass),
        ("recent_activity", active_pass),
    ):
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
    retained: int


def _filter_config_dict(config: SampleFilterConfig) -> dict:
    return {
        "allowed_countries": sorted(config.allowed_countries)
        if config.allowed_countries is not None
        else None,
        "allowed_disciplines": sorted(config.allowed_disciplines)
        if config.allowed_disciplines is not None
        else None,
        "min_publications": config.min_publications,
        "min_academic_age": config.min_academic_age,
        "max_academic_age": config.max_academic_age,
        "active_window_years": config.active_window_years,
    }


def _fork_range(pubs_path: Path, start: int, end: int | None, *args) -> tuple[int, BinaryIO]:
    """Fork a worker that ingests bytes *start* to *end* of *pubs_path* and
    pickles (True, RangeResult) or (False, error text) into a pipe; returns
    its pid and the read end. The worker runs only ingest_range and pickle,
    never numpy, and leaves by os._exit, so it runs no exit handler it
    inherited."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                try:
                    reply = (True, ingest_range(pubs_path, start, end, *args))
                except Exception as exc:
                    reply = (False, f"{type(exc).__name__}: {exc}")
                pickle.dump(reply, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _ingest_publications(
    pubs_path: Path,
    journals: dict[str, JournalRecord],
    authors: dict[str, AuthorRecord],
    reference_year: int,
) -> tuple[ColumnsBuilder, list[Reject]]:
    """The publications of *pubs_path* in one builder, with their rejects.

    The file is cut into byte ranges (columnar.byte_ranges). A forked worker
    ingests each range but the first, which this process ingests meanwhile,
    and the ranges are merged in file order, so the builder and rejects are
    the same for any range count. Every worker is reaped before this returns
    or raises; a failed worker is a StageError.
    """
    args = (journals, authors, reference_year)
    ranges = byte_ranges(pubs_path)
    workers: dict[int, BinaryIO] = {}
    try:
        for start, end in ranges[1:]:
            pid, pipe = _fork_range(pubs_path, start, end, *args)
            workers[pid] = pipe
        results: list[RangeResult] = [ingest_range(pubs_path, *ranges[0], *args)]
        for (start, end), (pid, pipe) in zip(ranges[1:], list(workers.items())):
            try:
                ok, reply = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                ok, reply = False, "no result"
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if not ok or status != 0:
                raise StageError(
                    "ingest",
                    f"worker for bytes {start}-{end or 'end'} of {pubs_path} failed "
                    f"(exit {os.waitstatus_to_exitcode(status)}): {reply}",
                )
            results.append(reply)
    finally:
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return merge_ranges(results, *args)


def _write_aside(out_dir: Path, writers: dict[str, Callable[[TextIO], None]]) -> None:
    """Write each named file of *out_dir* aside, then rename them all into
    place, so an interrupted ingest leaves no truncated file and keeps every
    previous one until all new ones are written."""
    tmp_paths = {name: out_dir / f".{name}.{os.getpid()}.tmp" for name in writers}
    try:
        for name, write in writers.items():
            with open(tmp_paths[name], "w", encoding="utf-8") as fh:
                write(fh)
        for name, tmp_path in tmp_paths.items():
            os.replace(tmp_path, out_dir / name)
    finally:
        for tmp_path in tmp_paths.values():
            tmp_path.unlink(missing_ok=True)


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

    builder, pub_rejects = _ingest_publications(pubs_path, journals, authors, reference_year)
    rejects += pub_rejects
    columns = builder.finalize()
    n_pubs = columns.n_publications
    retained, report = gates_from_columns(columns, config)
    report_obj = {"removed": report.removed, "retained": report.retained, "total": report.total}

    def write_rejects(fh: TextIO) -> None:
        for reject in rejects:
            fh.write(reject.to_json() + "\n")

    def write_report(fh: TextIO) -> None:
        json.dump(report_obj, fh, indent=2)
        fh.write("\n")

    def write_cache(fh: TextIO) -> None:
        header = {
            "kind": "header",
            "cache_version": CACHE_VERSION,
            "reference_year": reference_year,
            "n_publications": n_pubs,
            "filter": _filter_config_dict(config),
        }
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        dump_columns(columns, fh)
        fh.write(json.dumps({"kind": "retained", "ids": sorted(retained)}, separators=(",", ":")) + "\n")
        fh.write(json.dumps({"kind": "report", **report_obj}, separators=(",", ":")) + "\n")

    # the cache is renamed last: analyze reads it
    _write_aside(
        out_dir,
        {"rejects.jsonl": write_rejects, "filter_report.json": write_report, CACHE_NAME: write_cache},
    )
    return IngestResult(out_dir / CACHE_NAME, n_pubs, len(rejects), report, len(retained))


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
    header: dict | None = None
    report: FilterReport | None = None
    retained: set[str] = set()
    column_lines: list[str] = []
    with open(cache_path, encoding="utf-8") as fh:
        for line in fh:
            # every cache line opens with its kind tag; sniff it without
            # json-parsing multi-megabyte array payloads twice
            obj_kind = line[9 : line.index('"', 9)] if line.startswith('{"kind":"') else ""
            if obj_kind == "header":
                header = json.loads(line)
                if header.get("cache_version") != CACHE_VERSION:
                    raise CorpusError(
                        f"unsupported cache version {header.get('cache_version')!r}"
                    )
            elif obj_kind == "retained":
                retained = set(json.loads(line)["ids"])
            elif obj_kind == "report":
                obj = json.loads(line)
                report = FilterReport(obj["removed"], obj["retained"], obj["total"])
            elif obj_kind in ("meta", "strings", "overrides", "array"):
                column_lines.append(line)
            else:
                raise CorpusError(f"corrupt cache line (kind {obj_kind!r})")
    if header is None or report is None:
        raise CorpusError("cache is incomplete (missing header or filter report)")
    return LoadedCache(header, load_columns(column_lines), retained, report)


# ---------------------------------------------------------------------------
# analysis outputs


def _write_text(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


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
            "gender": GENDER_NAMES[int(cols.gender_code[idx])],
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
        author = json.dumps(cols.author_ids[int(table.sample_idx[row])])
        disc_idx = int(table.discipline_idx[row])
        disc = json.dumps(cols.disc_vocab[disc_idx] if disc_idx >= 0 else None)
        head = f'{{"author_id":{author},"discipline":{disc},'
        # one conversion per row: indexing a numpy array per cell costs more
        # than formatting the cell
        values, classes = table.productivity[row].ravel().tolist(), codes[row].ravel().tolist()
        for cell, value, cls in zip(cells, values, classes):
            yield f'{head}{cell}{value:.6f},"class":"{CLASS_ORDER[cls]}"}}'


def scope_matrices(
    codes: np.ndarray, scope_mask: np.ndarray, ptype: str, scope: str
) -> list[TransitionMatrix]:
    t = PRODUCTIVITY_TYPES.index(ptype)
    pairs = (("early", "mid", 0, 1), ("mid", "late", 1, 2), ("early", "late", 0, 2))
    out = []
    for from_stage, to_stage, i, j in pairs:
        out.append(
            transition_matrix_codes(
                codes[scope_mask, i, t], codes[scope_mask, j, t], from_stage, to_stage, ptype, scope
            )
        )
    return out


def models_table(outcomes: list[ModelOutcome]) -> str:
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
    for outcome in sorted(outcomes, key=lambda o: o.spec.discipline):
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
                ci_low = coef[i] - 1.96 * se[i]
                ci_high = coef[i] + 1.96 * se[i]
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
    for outcome in sorted(outcomes, key=lambda o: o.spec.discipline):
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

    try:
        loaded = load_cache(out_dir / CACHE_NAME)
    except (ValueError, KeyError, TypeError) as exc:  # CorpusError; JSON, base64, dtype faults
        raise StageError("load-cache", str(exc)) from exc

    columns = loaded.columns
    if not loaded.retained:
        raise StageError("filter", "no authors retained by the sample filter")

    try:
        table = derive_portfolios(columns, loaded.retained)
    except Exception as exc:
        raise StageError("portfolio", str(exc)) from exc

    try:
        codes, too_small = assign_cohort_classes(table.discipline_idx, table.productivity)
    except Exception as exc:
        raise StageError("classes", str(exc)) from exc

    sample_discs = sorted(
        {columns.disc_vocab[d] for d in sorted_unique(table.discipline_idx) if d >= 0}
    )
    if scopes:
        unknown = [s for s in scopes if s != "all" and s not in sample_discs]
        if unknown:
            raise StageError("scopes", f"not in the sample: {', '.join(unknown)}")
        scope_list = list(dict.fromkeys(scopes))
    else:
        scope_list = ["all"] + sample_discs

    outputs: dict[str, str] = {}
    outputs["gates.tsv"] = gates_table(loaded.report)
    outputs["portfolios.jsonl"] = "\n".join(portfolio_lines(table)) + "\n"
    outputs["classes.jsonl"] = "\n".join(class_dump_lines(table, codes)) + "\n"
    coverage = {
        "fwci_skipped_publications": table.fwci_skipped_pubs,
        "prestige_weight_uncovered_publications": table.prestige_uncovered_pubs,
        "too_small_cohorts": [
            {"discipline": columns.disc_vocab[d], "stage": s, "ptype": t}
            for d, s, t in too_small
        ],
    }
    outputs["coverage.json"] = json.dumps(coverage, indent=2, sort_keys=True) + "\n"

    try:
        disc_names = [
            columns.disc_vocab[d] if d >= 0 else None for d in table.discipline_idx
        ]
        disc_arr = np.array([d if d is not None else "" for d in disc_names])
        for ptype in ptypes:
            for scope in scope_list:
                mask = np.ones(table.n_sample, dtype=bool) if scope == "all" else disc_arr == scope
                matrices = scope_matrices(codes, mask, ptype, scope)
                rows = (
                    [MATRIX_TABLE_HEADER]
                    + matrix_table_rows(matrices[:2])
                    + matrix_table_rows([matrices[2]], final_summary=False)
                )
                outputs[f"matrices/{ptype}_{scope}.tsv"] = _tsv(rows)
                outputs[f"sankey/{ptype}_{scope}.txt"] = sankey_export(matrices[:2])
    except StageError:
        raise
    except Exception as exc:
        raise StageError("mobility", str(exc)) from exc

    try:
        model_disciplines = [s for s in scope_list if s != "all"]
        jobs = []
        for family in MODEL_FAMILIES:
            outcome_class, target_stage = family.split("_")
            for ptype in ptypes:
                for disc in model_disciplines:
                    jobs.append(default_spec(outcome_class, target_stage, ptype, disc))
        results = run_models(table, codes, jobs)
        by_family: dict[tuple[str, str], list[ModelOutcome]] = {}
        for outcome in results:
            by_family.setdefault((outcome.spec.family, outcome.spec.ptype), []).append(outcome)
        for (family, ptype), outcomes in sorted(by_family.items()):
            outputs[f"regression/models_{family}_{ptype}.tsv"] = models_table(outcomes)
            outputs[f"regression/collinearity_{family}_{ptype}.tsv"] = collinearity_table(outcomes)
            predictors = default_spec(*family.split("_"), ptype, "all").predictors
            outputs[f"regression/grid_{family}_{ptype}.tsv"] = _tsv(
                grid_rows(outcomes, predictors)
            )
    except StageError:
        raise
    except Exception as exc:
        raise StageError("regression", str(exc)) from exc

    manifest: dict[str, str] = {}
    for rel_path, content in sorted(outputs.items()):
        _write_text(out_dir / rel_path, content)
        manifest[rel_path] = hashlib.sha256(content.encode("utf-8")).hexdigest()
    manifest_lines = [
        json.dumps({"path": path, "sha256": manifest[path]}, separators=(",", ":"))
        for path in sorted(manifest)
    ]
    _write_text(out_dir / MANIFEST_NAME, "\n".join(manifest_lines) + "\n")

    for rel_path, digest in manifest.items():
        actual = hashlib.sha256((out_dir / rel_path).read_bytes()).hexdigest()
        if actual != digest:
            raise StageError("manifest", f"hash mismatch for {rel_path}")
    for sub in OUTPUT_DIRS:
        for path in (out_dir / sub).rglob("*"):
            if path.is_file() and path.relative_to(out_dir).as_posix() not in manifest:
                path.unlink()
    return AnalyzeResult(out_dir, manifest, table.n_sample)
