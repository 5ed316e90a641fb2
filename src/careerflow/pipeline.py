"""The analyze driver and its writers.

Analyze reads the cache that ingest wrote (columnar.load_cache) and derives
the portfolios, classes, transition matrices, Sankey files and model tables,
each written aside and listed with its sha256 in the manifest.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import MANIFEST_NAME, CorpusError, StageError, run_dir_lock, stage_errors
from .classes import CLASS_ORDER, PRODUCTIVITY_TYPES, STAGES, assign_cohort_classes, sorted_unique
from .columnar import cache_not_found, load_cache
from .corpus import (
    CACHE_NAME,
    GENDER_LABELS,
    FilterReport,
    _file_sha256,
    _sha256,
    _tsv,
    aside_path,
    gates_table,
    program_digest,
    remove_aside_files,
    reused_outputs,
    write_aside,
    write_reuse_state,
)
from .mobility import (
    MATRIX_TABLE_HEADER,
    TransitionMatrix,
    matrix_table_rows,
    sankey_export,
    transition_matrix_codes,
)
from .portfolio import PortfolioTable, SampleProductivity, derive_portfolios, stage_productivity
from .regression import (
    MODEL_FAMILIES, Z_95, ModelOutcome, default_predictors, default_spec, grid_rows, run_models, sig_label
)

# analyze owns these directories: a file in them that the manifest does not
# list is a stale output of an earlier run and is removed
OUTPUT_DIRS = ("matrices", "sankey", "regression")
# the outputs that depend on the cache and the program alone, not on the
# analysis parameters
PARAMETER_FREE = ("gates.tsv", "portfolios.jsonl", "classes.jsonl", "coverage.json")
# analyze's reuse state, outside the manifest: the cache and program digests
# that the PARAMETER_FREE outputs in the run dir came from, and their digests
REUSE_NAME = ".analyze-reuse.json"

# analyze writes each jsonl output this many lines at a time
LINE_BATCH = 4096


# ---------------------------------------------------------------------------
# analysis outputs


def _line_batches(lines: Iterable[str]) -> Iterator[str]:
    """The text of *lines*, each ended by a newline, LINE_BATCH lines at a
    time, so a large output is never held whole."""
    lines = iter(lines)
    while batch := list(itertools.islice(lines, LINE_BATCH)):
        yield "\n".join(batch) + "\n"


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

    # analyze makes no run dir, so a missing one has no lock file either
    if not out_dir.is_dir():
        raise StageError("load-cache", cache_not_found(out_dir / CACHE_NAME))
    # one writer at a time, which may remove what a killed one left
    with run_dir_lock(out_dir):
        remove_aside_files(out_dir, (MANIFEST_NAME, *PARAMETER_FREE, REUSE_NAME))
        for sub in OUTPUT_DIRS:
            remove_aside_files(out_dir / sub)
        try:
            loaded = load_cache(out_dir / CACHE_NAME)
        except (ValueError, KeyError, TypeError) as exc:  # CorpusError, or a header without its fields
            raise StageError("load-cache", str(exc)) from exc

        columns = loaded.columns
        if not loaded.sample_idx.size:
            raise StageError("filter", "no authors retained by the sample filter")

        sample_discs = [
            columns.disc_vocab[d]
            for d in sorted_unique(columns.dominant_discipline[loaded.sample_idx])
            if d >= 0
        ]
        if scopes:
            unknown = [s for s in scopes if s != "all" and s not in sample_discs]
            if unknown:
                raise StageError("scopes", f"not in the sample: {', '.join(unknown)}")
            scope_list = list(dict.fromkeys(scopes))
        else:
            scope_list = ["all"] + sample_discs

        key = {"cache_sha256": loaded.sha256, "program_sha256": program_digest()}
        reused = reused_outputs(out_dir, REUSE_NAME, key, dict.fromkeys(PARAMETER_FREE, _sha256))
        # with the parameter-free outputs reused and no discipline modelled, the
        # classes are all that is left to derive, and they need the stage
        # productivity alone
        narrow = bool(reused) and scope_list == ["all"]
        with stage_errors("portfolio"):
            if narrow:
                sample = stage_productivity(columns, loaded.sample_idx)
            else:
                sample = derive_portfolios(columns, loaded.sample_idx)
        with stage_errors("classes"):
            codes, too_small = assign_cohort_classes(sample.discipline_idx, sample.productivity)

        # every output is written aside and hashed as it is written; all are
        # renamed into place only once every one is written and read back, the
        # manifest last, so a failure leaves the previous run as it was. A
        # reused output is not written again: the manifest lists the digest it
        # was verified to have.
        written: dict[str, str] = {}
        with write_aside() as open_aside:
            outputs = analyze_outputs(loaded.report, sample, codes, too_small, ptypes, scope_list, bool(reused))
            for rel_path, pieces in outputs:
                path = out_dir / rel_path
                path.parent.mkdir(parents=True, exist_ok=True)
                digest = hashlib.sha256()
                with open_aside(path, binary=True) as fh:
                    for piece in pieces:
                        data = piece.encode("utf-8")
                        digest.update(data)
                        fh.write(data)
                written[rel_path] = digest.hexdigest()
            for rel_path, digest in written.items():
                if _file_sha256(aside_path(out_dir / rel_path)) != digest:
                    raise StageError("manifest", f"hash mismatch for {rel_path}")
            manifest = {**reused, **written}
            with open_aside(out_dir / MANIFEST_NAME) as fh:
                for rel_path in sorted(manifest):
                    entry = {"path": rel_path, "sha256": manifest[rel_path]}
                    fh.write(json.dumps(entry, separators=(",", ":")) + "\n")

        # the reuse state is renamed after the manifest
        if not reused:
            outputs = {rel_path: manifest[rel_path] for rel_path in PARAMETER_FREE}
            write_reuse_state(out_dir / REUSE_NAME, key, outputs)

        for sub in OUTPUT_DIRS:
            for path in (out_dir / sub).rglob("*"):
                if path.is_file() and path.relative_to(out_dir).as_posix() not in manifest:
                    path.unlink()
        return AnalyzeResult(out_dir, manifest, sample.n_sample)


def analyze_outputs(
    report: FilterReport,
    sample: SampleProductivity,
    codes: np.ndarray,
    too_small: list[tuple[int, str, str]],
    ptypes: list[str],
    scope_list: list[str],
    reused: bool,
) -> Iterator[tuple[str, Iterable[str]]]:
    """Each output of analyze but the manifest, in the order written: its
    path in the run dir and its text, in pieces; the PARAMETER_FREE ones only
    when not *reused*. *sample* is a PortfolioTable, unless they are reused
    and no discipline is in *scope_list*. A failure in the mobility or
    regression stage is a StageError of that stage."""
    if not reused:
        columns = sample.columns
        yield "gates.tsv", [gates_table(report)]
        yield "portfolios.jsonl", _line_batches(portfolio_lines(sample))
        yield "classes.jsonl", _line_batches(class_dump_lines(sample, codes))
        coverage = {
            "fwci_skipped_publications": sample.fwci_skipped_pubs,
            "prestige_weight_uncovered_publications": sample.prestige_uncovered_pubs,
            "too_small_cohorts": [
                {"discipline": columns.disc_vocab[d], "stage": s, "ptype": t}
                for d, s, t in too_small
            ],
        }
        yield "coverage.json", [json.dumps(coverage, indent=2, sort_keys=True) + "\n"]

    with stage_errors("mobility"):
        for ptype in ptypes:
            for scope in scope_list:
                matrices = scope_matrices(codes, sample.scope_mask(scope), ptype)
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
        results = run_models(sample, codes, specs)
        n = len(model_disciplines)
        for k, (side, stage, ptype) in enumerate(groups):
            outcomes = results[k * n : (k + 1) * n]
            name = f"{side}_{stage}_{ptype}.tsv"
            yield f"regression/models_{name}", [models_table(outcomes)]
            yield f"regression/collinearity_{name}", [collinearity_table(outcomes)]
            yield f"regression/grid_{name}", [_tsv(grid_rows(outcomes, default_predictors(stage)))]
