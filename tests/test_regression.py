import math

import numpy as np
import pytest

from careerflow.classes import BOTTOM, MIDDLE, PRODUCTIVITY_TYPES, TOP
from careerflow.columnar import columns_from_corpus
from careerflow.portfolio import derive_portfolios
from careerflow.regression import (
    DesignError,
    ModelSpec,
    RankDeficiencyError,
    SeparationError,
    SingularCorrelationError,
    _fit_stack,
    _intercept_design,
    _ndtr,
    build_design,
    collinearity_diagonal,
    default_predictors,
    default_spec,
    fit_logistic,
    grid_rows,
    nagelkerke_r2,
    run_models,
    sig_label,
)
from careerflow import regression
from careerflow.synth import CohortConfig, CorpusConfig, gen_corpus

from conftest import make_corpus, make_pub


def simulate_logistic(rng, n, beta, intercept=0.0, binary_last=False):
    k = len(beta)
    X = rng.standard_normal((n, k))
    if binary_last:
        X[:, -1] = (rng.random(n) < 0.2).astype(float)
    eta = intercept + X @ np.asarray(beta)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return X, y


# ---------------------------------------------------------------------------
# fitting


def test_null_model_odds_ratios_near_one():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((4000, 3))
    y = (rng.random(4000) < 0.5).astype(float)
    fit = fit_logistic(X, y, ["x1", "x2", "x3"])
    assert fit.converged
    for i in range(1, 4):  # predictors, skipping the intercept
        assert abs(fit.coef[i]) <= 2.0 * fit.se[i]
        assert fit.ci_low[i] <= 1.0 + 1e-9 or fit.ci_high[i] >= 1.0 - 1e-9


def test_recovers_known_coefficients():
    rng = np.random.default_rng(7)
    beta = (0.3, -0.2, 1.5)
    X, y = simulate_logistic(rng, 50_000, beta, intercept=-0.5)
    fit = fit_logistic(X, y, ["x1", "x2", "x3"])
    assert fit.converged
    for i, true in enumerate((-0.5,) + beta):
        assert abs(fit.coef[i] - true) <= 2.0 * fit.se[i]


def test_two_group_closed_form_mle():
    # x=0 group: one success of four; x=1 group: three successes of four
    X = np.array([[0.0]] * 4 + [[1.0]] * 4)
    y = np.array([0, 0, 0, 1, 0, 1, 1, 1], dtype=float)
    fit = fit_logistic(X, y, ["x"])
    assert fit.coef[0] == pytest.approx(math.log(1 / 3), abs=1e-6)
    assert fit.coef[1] == pytest.approx(math.log(9), abs=1e-6)
    # hand-derived Nagelkerke value for this fixture
    assert fit.pseudo_r2 == pytest.approx(0.30693285477399873, abs=1e-6)


def test_p_values_bit_identical_to_scipy_stats_norm_sf():
    # the package computes 2 * ndtr(-|z|) so that it never imports scipy.stats
    from scipy import stats

    X = np.array([[0.0]] * 4 + [[1.0]] * 4)
    y = np.array([0, 0, 0, 1, 0, 1, 1, 1], dtype=float)
    fits = [fit_logistic(X, y, ["x"])]
    X, y = simulate_logistic(np.random.default_rng(7), 2000, (0.3, -0.05, 1.5), intercept=-0.5)
    fits.append(fit_logistic(X, y, ["x1", "x2", "x3"]))
    for fit in fits:
        expected = 2.0 * stats.norm.sf(np.abs(fit.coef / fit.se))
        assert np.array_equal(fit.p_values, expected)


def test_ndtr_port_bit_identical_to_scipy_special():
    from scipy.special import ndtr

    rng = np.random.default_rng(20240425)
    # branch edges: erf/erfc at |a| = sqrt(2), the two erfc fits at 8 sqrt(2),
    # and exp(-a^2 / 2) underflowing at sqrt(2 MAXLOG) ~ 37.68
    underflow = math.sqrt(2.0 * 7.09782712893383996843e2)
    edges = [0.0, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.5, underflow, 38.0, 40.0, math.inf]
    near = []
    for edge in edges:  # each edge and the 20 doubles on either side, both signs
        for direction in (-math.inf, math.inf):
            x = edge
            for _ in range(21):
                near += [x, -x]
                x = math.nextafter(x, direction)
    grid = np.concatenate([rng.uniform(-40.0, 40.0, 100_000), near, [math.nan]])
    ported = np.array([_ndtr(x) for x in grid.tolist()])
    assert np.array_equal(ported, ndtr(grid), equal_nan=True)


def test_exp_log_round_trip_identity():
    # the published prior-class odds ratio and its log-scale coefficient
    assert math.log(11.136) == pytest.approx(2.4102, abs=5e-5)
    assert math.exp(math.log(11.136)) == pytest.approx(11.136, abs=1e-12)
    rng = np.random.default_rng(3)
    X, y = simulate_logistic(rng, 2000, (0.4, -0.3))
    fit = fit_logistic(X, y, ["a", "b"])
    assert np.abs(fit.odds_ratios - np.exp(fit.coef)).max() < 1e-12


def test_wald_ci_symmetric_on_log_scale():
    rng = np.random.default_rng(11)
    X, y = simulate_logistic(rng, 3000, (0.5, 0.1))
    fit = fit_logistic(X, y, ["a", "b"])
    upper_gap = np.log(fit.ci_high) - fit.coef
    lower_gap = fit.coef - np.log(fit.ci_low)
    assert np.abs(upper_gap - lower_gap).max() < 1e-9
    assert (fit.ci_low <= fit.odds_ratios).all()
    assert (fit.odds_ratios <= fit.ci_high).all()


def test_permuting_predictors_permutes_results():
    rng = np.random.default_rng(19)
    X, y = simulate_logistic(rng, 5000, (0.3, -0.6, 0.9))
    fit = fit_logistic(X, y, ["a", "b", "c"])
    perm = [2, 0, 1]
    fit_p = fit_logistic(X[:, perm], y, ["c", "a", "b"])
    for name in ("a", "b", "c"):
        i = fit.names.index(name)
        j = fit_p.names.index(name)
        assert fit.coef[i] == pytest.approx(fit_p.coef[j], abs=1e-10)
        assert fit.se[i] == pytest.approx(fit_p.se[j], abs=1e-10)


def test_perfect_separation_raises():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(300)
    y = (x > 0).astype(float)
    with pytest.raises(SeparationError):
        fit_logistic(x[:, None], y, ["sep"])


def test_rank_deficiency_names_dependent_column():
    rng = np.random.default_rng(9)
    a = rng.standard_normal(200)
    b = rng.standard_normal(200)
    X = np.column_stack([a, b, a + b])
    y = (rng.random(200) < 0.5).astype(float)
    with pytest.raises(RankDeficiencyError) as err:
        fit_logistic(X, y, ["a", "b", "a_plus_b"])
    # the column in the span of the columns before it, in design order
    assert err.value.dependent == ["a_plus_b"]


@pytest.mark.parametrize("position", [0, 1, 2])
def test_rank_deficiency_never_names_the_intercept(position):
    # a constant predictor equals the intercept column, which comes first,
    # so the constant is named wherever it sits (a pivoted QR named either)
    rng = np.random.default_rng(2)
    columns = [rng.standard_normal(200), rng.standard_normal(200)]
    columns.insert(position, np.ones(200))
    names = ["a", "b"]
    names.insert(position, "constant")
    y = (rng.random(200) < 0.5).astype(float)
    with pytest.raises(RankDeficiencyError) as err:
        fit_logistic(np.column_stack(columns), y, names)
    assert err.value.dependent == ["constant"]


def test_constant_outcome_fatal():
    with pytest.raises(DesignError, match="constant outcome"):
        fit_logistic(np.ones((10, 1)), np.ones(10), ["x"])


# ---------------------------------------------------------------------------
# pseudo-R2


def test_nagelkerke_zero_when_no_improvement():
    assert nagelkerke_r2(-100.0, -100.0, 500) == 0.0


def test_nagelkerke_in_unit_interval_on_fixture():
    r2 = nagelkerke_r2(-4.498681156950466, -5.545177444479562, 8)
    assert 0.0 < r2 < 1.0
    assert r2 == pytest.approx(0.30693285477399873, abs=1e-12)


def test_adding_informative_predictor_never_decreases_r2():
    rng = np.random.default_rng(23)
    X, y = simulate_logistic(rng, 4000, (0.8, 0.5))
    reduced = fit_logistic(X[:, :1], y, ["x1"])
    full = fit_logistic(X, y, ["x1", "x2"])
    assert full.pseudo_r2 >= reduced.pseudo_r2 - 1e-12


# ---------------------------------------------------------------------------
# collinearity


def test_orthogonal_predictors_give_unit_diagonal():
    X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    vif = collinearity_diagonal(X, ["a", "b"])
    assert vif["a"] == pytest.approx(1.0, abs=1e-12)
    assert vif["b"] == pytest.approx(1.0, abs=1e-12)


def test_duplicated_predictor_is_singular():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(100)
    with pytest.raises(SingularCorrelationError) as err:
        collinearity_diagonal(np.column_stack([x, x]), ["a", "a_copy"])
    assert "a_copy" in str(err.value)


def test_correlated_design_inflates_diagonal():
    rng = np.random.default_rng(31)
    base = rng.standard_normal(500)
    X = np.column_stack([base, 0.8 * base + 0.6 * rng.standard_normal(500)])
    vif = collinearity_diagonal(X, ["a", "b"])
    assert vif["a"] > 1.2
    assert vif["b"] > 1.2


def test_constant_column_rejected():
    with pytest.raises(DesignError, match="constant"):
        collinearity_diagonal(np.column_stack([np.ones(50), np.arange(50.0)]), ["c", "x"])


def test_three_dependent_columns_are_rank_deficient():
    # no pair passes the 0.999 correlation check, so only a rank check sees it
    rng = np.random.default_rng(0)
    a = rng.standard_normal(200)
    b = rng.standard_normal(200)
    with pytest.raises(RankDeficiencyError) as err:
        collinearity_diagonal(np.column_stack([a, b, a + b]), ["a", "b", "a_plus_b"])
    assert err.value.dependent == ["a_plus_b"]


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("check", ["fit_logistic", "collinearity_diagonal"])
def test_non_finite_design_rejected(check, value):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((100, 2))
    X[7, 1] = value
    y = (rng.random(100) < 0.5).astype(float)
    with pytest.raises(DesignError, match="X must be finite"):
        if check == "fit_logistic":
            fit_logistic(X, y, ["a", "b"])
        else:
            collinearity_diagonal(X, ["a", "b"])


# ---------------------------------------------------------------------------
# model specs and design building


def test_top200_only_in_late_stage_models():
    with pytest.raises(DesignError, match="top200"):
        ModelSpec("top", "mid", ("male", "top200", "prior_class"))
    ModelSpec("top", "late", ("male", "top200", "prior_class"))  # accepted


@pytest.mark.parametrize(
    "fields",
    [
        ("middle", "mid", ("male",), "P1"),
        ("top", "early", ("male",), "P1"),
        ("top", "mid", ("male",), "P5"),
        ("top", "mid", (), "P1"),
        ("top", "mid", ("male", "male"), "P1"),
        ("top", "mid", ("male", "height"), "P1"),
        ("top", "mid", ("male", "top200"), "P1"),
    ],
    ids=["side", "target", "ptype", "empty", "duplicate", "unknown", "top200_mid"],
)
def test_model_spec_refuses_bad_fields(fields):
    with pytest.raises(DesignError):
        ModelSpec(*fields)


def test_default_spec_families():
    spec = default_spec("top", "mid", "P1", "MED")
    assert spec.prior_stage == "early"
    assert "top200" not in spec.predictors
    late = default_spec("bottom", "late", "P2", "MED")
    assert late.prior_stage == "mid"
    assert "top200" in late.predictors


def _tiny_table():
    """Six-author corpus; a3 has unknown gender, a4 a sub-threshold score."""
    pubs = []
    for i in range(1, 7):
        aid = f"a{i}"
        years = [1992, 1997 + i, 2004, 2010, 2019, 2021]
        for k, year in enumerate(years):
            pubs.append(
                make_pub(
                    pub_id=f"{aid}p{k}",
                    year=year,
                    authors=(aid,),
                    journal="j60",
                    citations={year: 1 + (i + k) % 3},
                    refs=("MED",),
                )
            )
    genders = {
        "a1": ("male", 0.99),
        "a2": ("female", 0.95),
        "a3": ("unknown", 0.0),
        "a4": ("male", 0.60),  # below the acceptance threshold
        "a5": ("female", 0.90),
        "a6": ("male", 0.92),
    }
    corpus = make_corpus(pubs, journals={"j60": {"MED": 60}}, author_genders=genders)
    columns = columns_from_corpus(corpus)
    table = derive_portfolios(columns)
    return table


def test_gender_unknown_dropped_from_design():
    table = _tiny_table()
    codes = np.full((6, 3, 4), MIDDLE, dtype=np.int8)
    codes[:, 1, 0] = [TOP, BOTTOM, TOP, BOTTOM, TOP, BOTTOM]  # target stage outcome
    codes[:, 0, 0] = [TOP, BOTTOM, TOP, BOTTOM, BOTTOM, TOP]  # prior stage
    spec = ModelSpec("top", "mid", ("male", "prior_class"), "P1", "MED")
    design = build_design(table, codes, spec)
    # a3 (unknown label) and a4 (score below threshold) are dropped
    assert design.n_used == 4
    assert design.X.shape == (4, 2)


def test_male_top_prior_author_row_coding():
    table = _tiny_table()
    codes = np.full((6, 3, 4), MIDDLE, dtype=np.int8)
    codes[:, 1, 0] = [TOP, BOTTOM, TOP, BOTTOM, TOP, BOTTOM]
    codes[:, 0, 0] = [TOP, BOTTOM, TOP, BOTTOM, BOTTOM, TOP]
    spec = ModelSpec("top", "mid", ("male", "prior_class"), "P1", "MED")
    design = build_design(table, codes, spec)
    # first retained row is a1: male with a top prior class
    assert design.X[0].tolist() == [1.0, 1.0]
    assert design.y[0] == 1.0


def test_constant_outcome_in_design_fatal():
    table = _tiny_table()
    codes = np.full((6, 3, 4), TOP, dtype=np.int8)
    spec = ModelSpec("top", "mid", ("male", "prior_class"), "P1", "MED")
    with pytest.raises(DesignError, match="constant outcome"):
        build_design(table, codes, spec)


def test_run_model_marks_errors_instead_of_raising():
    table = _tiny_table()
    codes = np.full((6, 3, 4), TOP, dtype=np.int8)
    [outcome] = run_models(table, codes, [ModelSpec("top", "mid", ("male", "prior_class"), "P1", "MED")])
    assert outcome.fit is None
    assert "constant outcome" in outcome.error


def _synthetic_table_and_codes(n_disciplines=1):
    corpus = gen_corpus(
        CorpusConfig(
            cohort=CohortConfig(n_authors=400, n_disciplines=n_disciplines, persistence=0.7, seed=29),
            gender_unknown_prob=0.0,
        )
    )
    columns = columns_from_corpus(corpus)
    table = derive_portfolios(columns)
    from careerflow.classes import assign_cohort_classes

    codes, _ = assign_cohort_classes(table.discipline_idx, table.productivity)
    return table, codes


def test_end_to_end_model_on_synthetic_corpus():
    table, codes = _synthetic_table_and_codes()
    [outcome] = run_models(table, codes, [default_spec("top", "mid", "P1", "D00")])
    assert outcome.error is None
    assert outcome.fit.converged
    assert outcome.fit.n_used > 300
    assert outcome.vif is not None
    assert all(v >= 1.0 - 1e-9 for v in outcome.vif.values())
    # persistence makes the prior-class odds ratio exceed 1
    assert outcome.fit.by_name("prior_class")["odds_ratio"] > 1.0


def assert_same_fit(a, b):
    assert a.names == b.names
    for field in ("coef", "se", "p_values"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert (a.loglik, a.null_loglik, a.iterations, a.converged) == (
        b.loglik,
        b.null_loglik,
        b.iterations,
        b.converged,
    )


def test_run_models_equals_its_one_spec_calls():
    table, codes = _synthetic_table_and_codes(n_disciplines=3)
    specs = [
        default_spec(side, stage, ptype, disc)
        for side in ("top", "bottom")
        for stage in ("mid", "late")
        for ptype in ("P1", "P2", "P3", "P4")
        for disc in ("D00", "D01", "D02", "D99")
    ]
    stacked = run_models(table, codes, specs)
    assert [o.spec for o in stacked] == specs
    errors = " ".join(o.error for o in stacked if o.error)
    assert sum(o.fit is not None for o in stacked) >= 24
    assert "perfect separation" in errors and "unknown discipline" in errors
    for spec, outcome in zip(specs, stacked):
        [alone] = run_models(table, codes, [spec])
        assert outcome.error == alone.error
        assert outcome.vif == alone.vif
        assert (outcome.fit is None) == (alone.fit is None)
        if outcome.fit is not None:
            assert_same_fit(outcome.fit, alone.fit)


def _assert_same_outcome(outcome, alone):
    assert outcome.error == alone.error
    assert outcome.vif == alone.vif
    assert (outcome.fit is None) == (alone.fit is None)
    if outcome.fit is not None:
        assert_same_fit(outcome.fit, alone.fit)


def test_run_models_custom_predictor_tuples_equal_their_one_spec_calls():
    table, codes = _synthetic_table_and_codes(n_disciplines=2)
    tuples = {
        "mid": [("male", "prior_class"), ("prior_class",), ("mean_fwci4y", "ajpr", "median_team_size"),
                ("prior_class", "male", "intl_collab_rate")],
        "late": [("top200", "prior_class"), ("male", "ajpr", "top200"), ("ajpr",)],
    }
    specs = [
        ModelSpec(side, stage, predictors, ptype, disc)
        for disc in ("D00", "all", "D01")
        for ptype in ("P1", "P3")
        for stage in ("mid", "late")
        for predictors in tuples[stage] + [default_predictors(stage)]
        for side in ("top", "bottom")
    ]
    stacked = run_models(table, codes, specs)
    assert [o.spec for o in stacked] == specs
    assert sum(o.fit is not None and o.vif is None for o in stacked) >= 4  # one-predictor models
    assert sum(o.vif is not None for o in stacked) >= 40
    for spec, outcome in zip(specs, stacked):
        [alone] = run_models(table, codes, [spec])
        _assert_same_outcome(outcome, alone)


def test_rank_deficient_middle_member_keeps_its_error_and_its_neighbours_fits():
    table, codes = _synthetic_table_and_codes()
    codes = codes.copy()
    codes[:, 0, 2] = MIDDLE  # no P3 early-stage top class: P3's top prior_class is all 0
    specs = [default_spec("top", "mid", ptype, "D00") for ptype in PRODUCTIVITY_TYPES]
    # P4's outcome is constant, on the side opposite to P1's first row
    p1_first = build_design(table, codes, specs[0]).y[0]
    codes[:, 1, 3] = MIDDLE if p1_first else TOP
    outcomes = run_models(table, codes, specs)
    assert outcomes[2].fit is None
    assert outcomes[2].error == "design is rank deficient; dependent columns: prior_class"
    assert outcomes[3].error == (
        f"constant outcome for top_mid/P4/D00: every author is {'outside' if p1_first else 'in'} the top class"
    )
    for spec, outcome in zip(specs, outcomes):
        [alone] = run_models(table, codes, [spec])
        _assert_same_outcome(outcome, alone)
        if outcome.error and "constant" in outcome.error:
            continue
        # the lone fit of the same design gives the same bits and the same error
        design = build_design(table, codes, spec)
        try:
            lone = fit_logistic(design.X, design.y, design.names)
        except RankDeficiencyError as exc:
            assert str(exc) == outcome.error
        else:
            assert_same_fit(outcome.fit, lone)
            assert outcome.vif == collinearity_diagonal(design.X, design.names)


# Three-column designs of five rows, one per VIF outcome. "singular" is
# exact: its correlation matrix is [[1, .5, .5], [.5, 1, -.5], [.5, -.5, 1]]
# up to rounding that leaves LAPACK an exactly zero pivot, with no pair past
# 0.999.
def _vif_members():
    rng = np.random.default_rng(41)
    a, b = np.array([-2.0, -1, 0, 1, 2]), np.array([-2.0, 0, 2, -1, 1])
    constant = rng.standard_normal((5, 3))
    constant[:, 1:] = [2.5, -1.0]  # the first constant column is named
    pair = rng.standard_normal((5, 3))
    pair[:, 2] = 3.0 * pair[:, 1] - 1.0
    return {
        "good": rng.standard_normal((5, 3)),
        "constant": constant,
        "pair": pair,
        "singular": np.column_stack([a, b, a - b]),
        "good_too": rng.standard_normal((5, 3)),
    }


def _vif_alone(X, names):
    try:
        return collinearity_diagonal(X, names)
    except DesignError as exc:
        return str(exc)


def _assert_same_vif(result, alone, X):
    assert isinstance(result, dict) and list(result) == list(alone)
    assert np.array_equal(list(result.values()), list(alone.values()))
    # the bits of np.corrcoef and np.linalg.inv
    assert np.array_equal(list(alone.values()), np.diagonal(np.linalg.inv(np.corrcoef(X, rowvar=False))))


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_vif_stack_equals_lone_collinearity_diagonal(order):
    names = ["a", "b", "c"]
    members = list(_vif_members().items())
    if order == "reversed":
        members.reverse()
    stacked = regression._vif_stack(np.stack([X for _, X in members]), names)
    alone = {name: _vif_alone(X, names) for name, X in members}
    assert alone["constant"] == "constant predictor column: b"
    assert alone["pair"] == "predictor correlation matrix is singular: |r(b, c)| = 1.0000"
    assert alone["singular"] == "predictor correlation matrix is singular: |r(a, c)| = 1.0000"
    for (name, X), result in zip(members, stacked):
        if isinstance(alone[name], str):
            assert isinstance(result, DesignError) and str(result) == alone[name], name
        else:
            _assert_same_vif(result, alone[name], X)


def test_vif_stack_names_the_first_pair_past_the_bound():
    rng = np.random.default_rng(43)
    p, q, noise = rng.standard_normal((3, 60))
    X = np.column_stack([p, q, q + 1e-6 * noise, p + 0.02 * noise])
    corr = np.corrcoef(X, rowvar=False)
    # (0, 3) comes first in (i, j) order; (1, 2) is the closer pair
    assert 0.999 < abs(corr[0, 3]) < abs(corr[1, 2])
    names = ["p", "q", "q_near", "p_near"]
    good = rng.standard_normal((60, 4))
    stacked = regression._vif_stack(np.stack([good, X]), names)
    _assert_same_vif(stacked[0], _vif_alone(good, names), good)
    assert str(stacked[1]) == _vif_alone(X, names)
    assert str(stacked[1]).startswith("predictor correlation matrix is singular: |r(p, p_near)| = 0.999")


# Designs of one shape (18 rows, 2 predictors) whose fits leave the Newton
# loop by every exit; fitted with max_iter=16.
_HALVING = np.array([
    [1.6, -2.1, 0], [-0.9, 0.4, 0], [2.6, 6.0, 1], [-1.1, -2.8, 0], [5.5, 1.1, 1],
    [-0.8, -6.4, 0], [3.2, 2.6, 1], [2.3, 0.7, 1], [-1.1, -5.7, 0], [-0.5, 5.4, 1],
    [1.5, 3.3, 1], [-3.5, 0.5, 0], [-4.8, 0.8, 1], [-5.2, 0.6, 0], [8.6, -5.3, 0],
    [0.3, 0.6, 1], [-42.1, 4.8, 0],
])
_MIRRORED = np.array([[1, 2], [2, -1], [-1, 3], [0, 1], [3, 0], [-2, -2], [1, -3], [2, 2], [-3, 1]], float)
_MAX_ITER = 16


def _logistic_draw(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((18, 2))
    y = (rng.random(18) < 1.0 / (1.0 + np.exp(-(X @ [2.0, 2.0])))).astype(float)
    return X, y


def _exit_members():
    # a column equal to u except on four rows, by +-2^-30 with zero sum and
    # zero inner product with u: full rank, but the rounded information
    # matrix has two equal rows, so LAPACK meets an exactly zero pivot
    u = np.array([1, 2, 3, 4, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 2, 3, 4, 5], float)
    z = np.zeros(18)
    z[:4] = [1, -1, -1, 1]
    a = np.linspace(-1.0, 1.0, 18) + 0.05
    return {
        # y splits each design row evenly, so the score is 0 at beta = 0
        "score": (np.vstack([_MIRRORED, _MIRRORED]), np.repeat([1.0, 0.0], 9)),
        "fast": _logistic_draw(54),
        "slower": _logistic_draw(0),
        # both halve at iteration 6, one step to 1/4, the other to 1/2
        "halving_twice": (np.vstack([_HALVING[:, :2], [1.0, 1.0]]), np.append(_HALVING[:, 2], 1.0)),
        "halving_once": (np.vstack([_HALVING[:, :2], [2.0, 2.0]]), np.append(_HALVING[:, 2], 1.0)),
        "separated": (np.column_stack([a, np.cos(7 * a)]), (a > 0).astype(float)),
        "singular": (np.column_stack([u, u + 2.0**-30 * z]), np.tile([0.0, 1.0], 9)),
        "out_of_iterations": _logistic_draw(2053),
    }


def _lone(X, y):
    try:
        return fit_logistic(X, y, ["a", "b"], max_iter=_MAX_ITER)
    except SeparationError as exc:
        return str(exc)


def test_exit_members_reach_their_exits(monkeypatch):
    loglik_calls = []
    counted = regression._loglik

    def counting(*args):
        loglik_calls.append(1)
        return counted(*args)

    monkeypatch.setattr(regression, "_loglik", counting)
    lone = {}
    halvings = {}
    for name, (X, y) in _exit_members().items():
        loglik_calls.clear()
        lone[name] = _lone(X, y)
        if not isinstance(lone[name], str):
            # one call at the start, one per iteration, one per halving, one at the end
            halvings[name] = len(loglik_calls) - lone[name].iterations - 2
    assert lone["score"].iterations == 1 and lone["score"].converged
    assert not lone["score"].coef.any()
    assert lone["fast"].converged and lone["slower"].converged
    assert lone["fast"].iterations < lone["slower"].iterations < lone["halving_once"].iterations
    assert lone["halving_once"].converged and lone["halving_twice"].converged
    assert halvings["halving_twice"] > halvings["halving_once"] > 0
    assert halvings["fast"] == halvings["slower"] == 0
    bound = float(lone["separated"].split("past ")[1].split(";")[0])
    assert bound > 30.0
    assert "for intercept diverged past 0.0;" in lone["singular"]
    assert not lone["out_of_iterations"].converged
    assert lone["out_of_iterations"].iterations == _MAX_ITER


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_stacked_fit_equals_lone_fits(order):
    members = list(_exit_members().items())
    if order == "reversed":
        members.reverse()
    designs = [_intercept_design(X, y, ["a", "b"]) for _, (X, y) in members]
    stacked = _fit_stack(
        np.stack([Xd for Xd, _, _ in designs]),
        np.stack([y for _, y, _ in designs]),
        ["intercept", "a", "b"],
        max_iter=_MAX_ITER,
    )
    for (name, (X, y)), result in zip(members, stacked):
        lone = _lone(X, y)
        if isinstance(lone, str):
            assert isinstance(result, SeparationError), name
            assert str(result) == lone, name
        else:
            assert_same_fit(result, lone)


# ---------------------------------------------------------------------------
# report grid


def test_sig_label_convention():
    assert sig_label(0.0005) == "0"
    assert sig_label(0.001) == "0"
    assert sig_label(0.049) == "0.049"


def test_grid_blanks_non_significant_cells():
    rng = np.random.default_rng(37)
    X, y = simulate_logistic(rng, 3000, (1.2, 0.0))
    fit = fit_logistic(X, y, ["strong", "noise"])
    assert fit.p_values[fit.names.index("strong")] <= 0.05
    assert fit.p_values[fit.names.index("noise")] > 0.05
    outcome = run_model_stub(fit, discipline="MED")
    rows = grid_rows([outcome], ("strong", "noise"))
    header, r2_row, strong_row, noise_row = rows
    assert header == ["predictor", "MED"]
    assert strong_row[1] != ""
    assert noise_row[1] == ""
    assert "intercept" not in [r[0] for r in rows]


def run_model_stub(fit, discipline):
    from careerflow.regression import ModelOutcome

    spec = ModelSpec("top", "mid", ("male", "prior_class"), "P1", discipline)
    return ModelOutcome(spec=spec, fit=fit)
