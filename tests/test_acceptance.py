"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with its measured runtime. Statistical checks are seed-pinned.
"""
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import careerflow
from careerflow.classes import BOTTOM, TOP, assign_class_codes
from careerflow.cli import main
from careerflow.columnar import columns_from_corpus
from careerflow.mobility import (
    TransitionMatrix,
    format_percent,
    matrix_table_rows,
    sankey_export,
    transition_matrix_codes,
)
from careerflow.portfolio import build_baseline_arrays, cell_fwci_means
from careerflow.regression import SingularCorrelationError, collinearity_diagonal, fit_logistic
from careerflow.synth import (
    CohortConfig,
    CorpusConfig,
    calibrate_persistence,
    gen_cohort,
    gen_corpus,
    write_synthetic_corpus,
)

GOLDEN = Path(__file__).parent / "data" / "sankey_golden.txt"


def _pass(number: int, started: float, message: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE CRITERION {number}: PASS ({elapsed:.1f}s) - {message}")


def test_criterion_01_percentage_accounting_vs_published_counts():
    t0 = time.perf_counter()
    assert format_percent(36_373, 65_023) == "55.9"
    assert format_percent(1_057, 65_023) == "1.6"
    assert format_percent(39_083, 64_923) == "60.2"
    assert format_percent(731, 64_923) == "1.1"
    assert time.perf_counter() - t0 < 1.0
    _pass(1, t0, "published count/size pairs reproduce 55.9 / 1.6 / 60.2 / 1.1 exactly")


def test_criterion_02_class_share_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    sizes = rng.integers(5, 10_001, size=1_000)

    for n in sizes:
        values = rng.permutation(int(n)).astype(np.float64)  # all distinct
        codes, too_small = assign_class_codes(values)
        assert not too_small
        assert np.count_nonzero(codes == BOTTOM) == math.floor(0.2 * n)
        assert np.count_nonzero(codes == TOP) == n - math.ceil(0.8 * n)

    bottom_shares = []
    top_shares = []
    for n in sizes:
        values = rng.poisson(1.0, size=int(n)).astype(np.float64)  # tie-heavy integers
        codes, _ = assign_class_codes(values)
        bottom_share = np.count_nonzero(codes == BOTTOM) / n
        top_share = np.count_nonzero(codes == TOP) / n
        assert bottom_share >= 0.2 - 1e-12
        assert top_share <= 0.2 + 1e-12
        bottom_shares.append(bottom_share)
        top_shares.append(top_share)
    # the published size asymmetry for the non-normalized full-counting type:
    # bottom 72,877 and top 63,937 straddle exactly 20% of N=324,643
    assert 72_877 / 324_643 > 0.2 > 63_937 / 324_643
    assert np.mean(bottom_shares) > 0.2 > np.mean(top_shares)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(2, t0, "exact 20% splits on distinct values; ties inflate bottom, deflate top")


def test_criterion_03_independence_baseline():
    t0 = time.perf_counter()
    sample = gen_cohort(
        CohortConfig(n_authors=100_000, n_disciplines=1, persistence=0.0, seed=303)
    )
    early, _ = assign_class_codes(sample.values[:, 0])
    mid, _ = assign_class_codes(sample.values[:, 1])
    matrix = transition_matrix_codes(early, mid, "early", "mid")
    # the percent column analyze writes, one decimal
    rows = matrix_table_rows([matrix], final_summary=False)
    pct = np.array([float(row[6]) for row in rows]).reshape(3, 3)
    profile = np.array([20.0, 60.0, 20.0])
    for i in range(3):
        assert np.abs(pct[i] - profile).max() <= 1.0, pct
    assert abs(pct[0, 0] - 20.0) <= 1.0  # top -> top
    assert abs(pct[2, 0] - 20.0) <= 1.0  # jumpers-up
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(3, t0, "rho=0 cohort of 100k: all nine cells within 1pp of 20/60/20 row profiles")


def test_criterion_04_persistence_regime():
    t0 = time.perf_counter()
    result = calibrate_persistence(60.0, n_authors=100_000, seed=2024)
    assert abs(result.top_to_top - 60.0) <= 1.0
    assert 40.0 < result.bottom_to_bottom < 70.0
    assert 0.0 < result.rho < 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _pass(
        4,
        t0,
        f"rho*={result.rho:.4f} gives top-to-top {result.top_to_top:.2f}% and "
        f"bottom-to-bottom {result.bottom_to_bottom:.2f}%",
    )


def test_criterion_05_regression_recovery_and_coverage():
    t0 = time.perf_counter()
    true_beta = np.array([0.3, -0.2, 1.5, 2.41])
    intercept = -2.0
    names = ["x1", "x2", "x3", "prior_like"]

    def draw(seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((50_000, 4))
        X[:, 3] = (rng.random(50_000) < 0.2).astype(float)
        eta = intercept + X @ true_beta
        y = (rng.random(50_000) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        return X, y

    X, y = draw(505)
    fit = fit_logistic(X, y, names)
    assert fit.converged
    for i, true in enumerate([intercept, *true_beta]):
        assert abs(fit.coef[i] - true) <= 2.0 * fit.se[i]
    predictor_ors = {name: fit.by_name(name)["odds_ratio"] for name in names}
    assert max(predictor_ors, key=predictor_ors.get) == "prior_like"

    hits = np.zeros(5)
    for rep in range(200):
        Xr, yr = draw(1_000 + rep)
        f = fit_logistic(Xr, yr, names)
        low = f.coef - 1.96 * f.se
        high = f.coef + 1.96 * f.se
        truth = np.array([intercept, *true_beta])
        hits += (low <= truth) & (truth <= high)
    coverage = 100.0 * hits / 200.0
    for i, name in enumerate(["intercept", *names]):
        assert 90.0 <= coverage[i] <= 99.0, (name, coverage[i])
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _pass(
        5,
        t0,
        f"coefficients recovered within 2SE; largest OR is exp(2.41); "
        f"CI coverage {coverage.min():.1f}-{coverage.max():.1f}%",
    )


def test_criterion_06_fwci_normalization():
    t0 = time.perf_counter()
    for seed, disciplines, spread in ((61, 1, 0.0), (62, 4, 0.9)):
        corpus = gen_corpus(
            CorpusConfig(
                cohort=CohortConfig(
                    n_authors=120, n_disciplines=disciplines, seed=seed, ability_spread=spread
                )
            )
        )
        columns = columns_from_corpus(corpus)
        means = cell_fwci_means(build_baseline_arrays(columns))
        assert means.shape[0] > 0
        assert np.abs(means - 1.0).max() <= 1e-9
    _pass(6, t0, "mean publication FWCI is 1.0 +/- 1e-9 in every populated cell")


def test_criterion_07_collinearity_sanity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    raw = rng.standard_normal((400, 5))
    centered = raw - raw.mean(axis=0)
    q, _ = np.linalg.qr(centered)
    vif = collinearity_diagonal(q, [f"x{i}" for i in range(5)])
    for value in vif.values():
        assert abs(value - 1.0) <= 1e-9
    with pytest.raises(SingularCorrelationError):
        collinearity_diagonal(np.column_stack([raw[:, 0], raw[:, 0]]), ["a", "b"])
    _pass(7, t0, "orthogonalized design has unit VIF diagonal; duplicate column raises")


def test_criterion_08_hash_seed_determinism(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "run"
    assert main([
        "synth", "--out", str(out), "--authors-n", "150", "--disciplines-n", "2",
        "--seed", "55", "--rho", "0.5",
    ]) == 0
    assert main([
        "ingest",
        "--pubs", str(out / "publications.jsonl"),
        "--journals", str(out / "journals.jsonl"),
        "--authors", str(out / "authors.jsonl"),
        "--out", str(out),
    ]) == 0
    # fresh interpreters with different string hashes: no output may depend
    # on set or dict iteration order
    src = str(Path(careerflow.__file__).resolve().parents[1])
    manifests = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "careerflow.cli", "analyze", "--out", str(out)],
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        manifests.append((out / "manifest.txt").read_bytes())
    assert manifests[0] and manifests[0] == manifests[1]
    _pass(8, t0, "manifest hashes identical under PYTHONHASHSEED 0 and 1")


def test_criterion_09_sankey_golden_file():
    t0 = time.perf_counter()
    early_mid = TransitionMatrix(
        "early", "mid",
        np.array([[39083, 25109, 731], [24788, 142042, 27867], [1057, 27593, 36373]]),
    )
    mid_late = TransitionMatrix(
        "mid", "late",
        np.array([[39039, 24102, 1787], [24213, 137633, 32898], [1673, 32790, 30508]]),
    )
    text = sankey_export([early_mid, mid_late])
    assert "Early Top [60.2] Mid Top" in text
    assert text == GOLDEN.read_text(encoding="utf-8")
    _pass(9, t0, "byte-exact SankeyMATIC output from the published transition counts")


def test_criterion_10_throughput_100k_authors(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "big"
    out.mkdir()
    config = CorpusConfig(
        cohort=CohortConfig(n_authors=100_000, n_disciplines=16, persistence=0.6, seed=1010),
        pubs_per_year=0.4,
    )
    with open(out / "publications.jsonl", "w") as p, open(
        out / "journals.jsonl", "w"
    ) as j, open(out / "authors.jsonl", "w") as a:
        counts = write_synthetic_corpus(config, p, j, a)
    t_gen = time.perf_counter()
    assert 1_500_000 <= counts["publications"] <= 2_800_000

    assert main([
        "ingest",
        "--pubs", str(out / "publications.jsonl"),
        "--journals", str(out / "journals.jsonl"),
        "--authors", str(out / "authors.jsonl"),
        "--out", str(out),
    ]) == 0
    t_ingest = time.perf_counter()

    t_analyze_start = time.perf_counter()
    assert main(["analyze", "--out", str(out)]) == 0
    analyze_seconds = time.perf_counter() - t_analyze_start
    assert analyze_seconds < 120.0

    manifest_lines = (out / "manifest.txt").read_text().splitlines()
    assert len(manifest_lines) > 100
    with open(out / "portfolios.jsonl") as fh:
        sample = sum(1 for _ in fh)
    _pass(
        10,
        t0,
        f"{counts['publications']:,} publications / {sample:,} sampled authors; "
        f"generate {t_gen - t0:.0f}s, ingest {t_ingest - t_gen:.0f}s (untimed), "
        f"analyze {analyze_seconds:.1f}s < 120s",
    )
