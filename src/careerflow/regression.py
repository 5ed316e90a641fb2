"""Maximum-likelihood logistic models of class membership and their
reporting surface: odds ratios, Wald confidence intervals, significance,
Nagelkerke pseudo-R2, and inverse-correlation collinearity diagnostics.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .classes import CLASS_ORDER, PRODUCTIVITY_TYPES, STAGES
from .columnar import GENDER_FEMALE, GENDER_MALE
from .portfolio import PortfolioTable

PREDICTORS = (
    "male",
    "mean_fwci4y",
    "intl_collab_rate",
    "ajpr",
    "median_team_size",
    "top200",
    "prior_class",
)
# (outcome class, target stage) of each model family
MODEL_FAMILIES = tuple(itertools.product(("top", "bottom"), STAGES[1:]))

Z_95 = 1.96
SIG_THRESHOLD = 0.05
# fit_logistic's Newton loop stops when the largest score component or the
# relative log-likelihood change falls below these, and a coefficient past
# the bound means the outcome is separated
SCORE_TOL = 1e-8
LL_TOL = 1e-10
SEPARATION_BOUND = 30.0


class DesignError(ValueError):
    """Unusable design: no rows, constant outcome, or invalid model spec."""


class RankDeficiencyError(DesignError):
    def __init__(self, dependent: list[str]):
        self.dependent = dependent
        super().__init__(f"design is rank deficient; dependent columns: {', '.join(dependent)}")


class SeparationError(DesignError):
    def __init__(self, name: str, value: float):
        super().__init__(
            f"perfect separation suspected: |coefficient| for {name} diverged past "
            f"{value:.1f}; drop or coarsen the offending predictor"
        )


class SingularCorrelationError(DesignError):
    def __init__(self, pair: tuple[str, str], r: float):
        self.pair = pair
        super().__init__(
            f"predictor correlation matrix is singular: |r({pair[0]}, {pair[1]})| = {abs(r):.4f}"
        )


@dataclass(frozen=True)
class ModelSpec:
    """One model: outcome side and stage, ordered predictors, ptype, scope."""

    outcome_class: str  # "top" or "bottom"
    target_stage: str  # "mid" or "late"
    predictors: tuple[str, ...]
    ptype: str = "P1"
    discipline: str = "all"

    def __post_init__(self) -> None:
        if (self.outcome_class, self.target_stage) not in MODEL_FAMILIES:
            raise DesignError(f"unknown model family {self.outcome_class!r}/{self.target_stage!r}")
        if self.ptype not in PRODUCTIVITY_TYPES:
            raise DesignError(f"unknown ptype {self.ptype!r}")
        if not self.predictors:
            raise DesignError("predictors must be non-empty")
        available = default_predictors(self.target_stage)
        for name in self.predictors:
            if name not in available:
                raise DesignError(f"predictor {name!r} is not available for {self.target_stage}-stage models")
        if len(set(self.predictors)) != len(self.predictors):
            raise DesignError("duplicate predictor")

    @property
    def prior_stage(self) -> str:
        return STAGES[STAGES.index(self.target_stage) - 1]

    @property
    def family(self) -> str:
        return f"{self.outcome_class}_{self.target_stage}"


def default_predictors(target_stage: str) -> tuple[str, ...]:
    """Every predictor; top200 only for late-stage models."""
    return tuple(p for p in PREDICTORS if p != "top200" or target_stage == "late")


def default_spec(outcome_class: str, target_stage: str, ptype: str, discipline: str) -> ModelSpec:
    return ModelSpec(
        outcome_class=outcome_class,
        target_stage=target_stage,
        predictors=default_predictors(target_stage),
        ptype=ptype,
        discipline=discipline,
    )


@dataclass
class Design:
    X: np.ndarray  # (n, k) predictors, no intercept column
    y: np.ndarray  # (n,) of {0.0, 1.0}
    names: list[str]
    n_used: int


def build_design(table: PortfolioTable, class_codes: np.ndarray, spec: ModelSpec) -> Design:
    """Assemble the predictor matrix and outcome vector for one model: a
    stack of one of the designs run_models builds."""
    Xd, y, [error] = _design_stack(table, class_codes, [spec])
    if error is not None:
        raise error
    return Design(X=Xd[0, :, 1:], y=y[0], names=list(spec.predictors), n_used=y.shape[1])


def _design_stack(
    table: PortfolioTable, class_codes: np.ndarray, specs: list[ModelSpec]
) -> tuple[np.ndarray, np.ndarray, list[DesignError | None]]:
    """Build the designs of specs that share discipline, target stage and
    predictors as one stack: Xd (B, n, k+1) with the intercept column first,
    y (B, n), and per member the DesignError of its build or None.

    Rows are sample authors in the discipline scope with every required
    predictor defined; indicator predictors are coded {0, 1} and continuous
    predictors enter unstandardized. The members share their rows and every
    column but prior_class, which, like the outcome, depends on the member's
    outcome class and ptype.
    """
    spec = specs[0]
    n_models, k = len(specs), len(spec.predictors)
    cols = table.columns
    t_idx = STAGES.index(spec.target_stage)

    def failed(messages: list[str]) -> tuple[np.ndarray, np.ndarray, list[DesignError | None]]:
        errors: list[DesignError | None] = [DesignError(message) for message in messages]
        return np.empty((n_models, 0, k + 1)), np.empty((n_models, 0)), errors

    usable = table.scope_mask(spec.discipline)
    if usable is None:
        return failed([f"unknown discipline {spec.discipline!r}"] * n_models)

    # a row is usable where every column it uses is finite; male is NaN for
    # an unknown gender
    gender = cols.gender_code[table.sample_idx]
    columns = {
        "male": np.select([gender == GENDER_MALE, gender == GENDER_FEMALE], [1.0, 0.0], np.nan),
        "mean_fwci4y": table.fwci_mean,
        "intl_collab_rate": table.intl_rate,
        "ajpr": table.ajpr_stage[:, t_idx],
        "median_team_size": table.team_median,
        "top200": table.top200,
    }
    for name in spec.predictors:
        if name in columns:  # prior_class has one column per member
            usable &= np.isfinite(columns[name])

    rows = np.flatnonzero(usable)
    if rows.shape[0] == 0:
        return failed([f"no usable rows for {s.family}/{s.ptype}/{s.discipline}" for s in specs])
    # (n, stage, member) class codes and each member's class code
    member_codes = class_codes[rows][:, :, [PRODUCTIVITY_TYPES.index(s.ptype) for s in specs]]
    sides = np.array([CLASS_ORDER.index(s.outcome_class) for s in specs])
    Xd = np.empty((n_models, rows.shape[0], k + 1))
    Xd[:, :, 0] = 1.0
    for j, name in enumerate(spec.predictors, 1):
        if name == "prior_class":
            Xd[:, :, j] = (member_codes[:, STAGES.index(spec.prior_stage)] == sides).T
        else:
            Xd[:, :, j] = columns[name][rows]
    y = np.ascontiguousarray((member_codes[:, t_idx] == sides).T, dtype=np.float64)

    errors: list[DesignError | None] = [None] * n_models
    for b in np.flatnonzero(y.min(axis=1) == y.max(axis=1)).tolist():
        s = specs[b]
        errors[b] = DesignError(
            f"constant outcome for {s.family}/{s.ptype}/{s.discipline}: "
            f"every author is {'in' if y[b, 0] else 'outside'} the {s.outcome_class} class"
        )
    return Xd, y, errors


# ---------------------------------------------------------------------------
# standard normal CDF: a port of Cephes ndtr.c (S. L. Moshier) as compiled
# into scipy.special (BSD-3). The coefficients, the Horner order, the
# (z * p) / q grouping and libm's exp (math.exp, not np.exp, whose SIMD
# kernel can differ in the last bit) keep it bit-identical to
# scipy.special.ndtr.

_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """coef[0] * x**N + ... + coef[N], by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """As _polevl, with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: float) -> float:
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:  # exp(z) underflows
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _p1evl(x, _ERFC_Q)
    else:
        p, q = _polevl(x, _ERFC_R), _p1evl(x, _ERFC_S)
    y = (z * p) / q
    if a < 0:
        y = 2.0 - y
    if y == 0.0:
        return 2.0 if a < 0 else 0.0
    return y


def _ndtr(a: float) -> float:
    """Standard normal CDF at *a*; nan stays nan."""
    x = a * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


# ---------------------------------------------------------------------------
# fitting


@dataclass
class FitResult:
    """Estimates for intercept + predictors, in design order."""

    names: list[str]  # "intercept" first
    coef: np.ndarray
    se: np.ndarray
    p_values: np.ndarray
    loglik: float
    null_loglik: float
    n_used: int
    converged: bool
    iterations: int
    odds_ratios: np.ndarray = field(init=False)
    ci_low: np.ndarray = field(init=False)
    ci_high: np.ndarray = field(init=False)
    pseudo_r2: float = field(init=False)

    def __post_init__(self) -> None:
        # a degenerate predictor can have an enormous SE; the interval end
        # overflows to inf, which is the honest unbounded-CI answer
        with np.errstate(over="ignore"):
            self.odds_ratios = np.exp(self.coef)
            self.ci_low = np.exp(self.coef - Z_95 * self.se)
            self.ci_high = np.exp(self.coef + Z_95 * self.se)
        self.pseudo_r2 = nagelkerke_r2(self.loglik, self.null_loglik, self.n_used)

    def by_name(self, name: str) -> dict[str, float]:
        i = self.names.index(name)
        return {
            "coef": float(self.coef[i]),
            "se": float(self.se[i]),
            "odds_ratio": float(self.odds_ratios[i]),
            "ci_low": float(self.ci_low[i]),
            "ci_high": float(self.ci_high[i]),
            "p": float(self.p_values[i]),
        }


def _loglik(Xd: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Log-likelihood of each member of a stack: Xd (B, n, k), y (B, n),
    beta (B, k)."""
    eta = (Xd @ beta[:, :, None])[:, :, 0]
    return np.sum(y * eta, axis=1) - np.sum(np.logaddexp(0.0, eta), axis=1)


def _probabilities(Xd: np.ndarray, beta: np.ndarray) -> np.ndarray:
    eta = (Xd @ beta[:, :, None])[:, :, 0]
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -500, 500)))


def _dependent_columns(X: np.ndarray, names: list[str]) -> list[str]:
    """The columns that lie in the span of the columns before them, in
    design order. One fixed rule: when two columns are equal the later one
    is named, never the intercept, whatever the rounding."""
    kept: list[int] = []
    dependent = []
    for j, name in enumerate(names):
        if np.linalg.matrix_rank(X[:, kept + [j]]) > len(kept):
            kept.append(j)
        else:
            dependent.append(name)
    return dependent


def _rank_errors(Xd: np.ndarray, names: list[str]) -> list[RankDeficiencyError | None]:
    """One stacked rank check over designs Xd (B, n, k) whose columns share
    *names*: per member a RankDeficiencyError naming its dependent columns,
    or None at full rank. numpy takes the SVD one matrix at a time, so a
    member gets the rank it gets alone."""
    return [
        RankDeficiencyError(_dependent_columns(X, names)) if rank < Xd.shape[2] else None
        for X, rank in zip(Xd, np.linalg.matrix_rank(Xd).tolist())
    ]


def _finite(X: np.ndarray) -> np.ndarray:
    """X as float64; raises DesignError unless every entry is finite."""
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise DesignError("X must be finite")
    return X


def _intercept_design(
    X: np.ndarray, y: np.ndarray, names: list[str]
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Check one design and prepend its intercept column; raises DesignError."""
    X = _finite(X)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DesignError("X must be (n, k) aligned with y")
    if not np.isin(y, (0.0, 1.0)).all():
        raise DesignError("outcome must be coded {0, 1}")
    if y.min() == y.max():
        raise DesignError("constant outcome")
    n, k = X.shape
    if len(names) != k:
        raise DesignError("one name per predictor column required")
    full_names = ["intercept", *names]
    Xd = np.column_stack([np.ones(n), X])
    [error] = _rank_errors(Xd[None], full_names)
    if error is not None:
        raise error
    return Xd, y, full_names


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    names: list[str],
    max_iter: int = 100,
) -> FitResult:
    """Damped-Newton maximum likelihood for a binary outcome.

    Converges when the largest score component drops below SCORE_TOL or the
    relative log-likelihood change drops below LL_TOL. Standard errors come
    from the inverse observed information; p-values are two-sided Wald tests.
    An intercept column is prepended automatically.
    """
    Xd, y, full_names = _intercept_design(X, y, names)
    fit = _fit_stack(Xd[None], y[None], full_names, max_iter)[0]
    if isinstance(fit, SeparationError):
        raise fit
    return fit


def _fit_stack(
    Xd: np.ndarray,
    y: np.ndarray,
    names: list[str],
    max_iter: int = 100,
) -> list[FitResult | SeparationError]:
    """fit_logistic's Newton loop over a stack of designs of one shape: Xd
    (B, n, k) with the intercept column first, y (B, n), whose columns share
    *names*.

    Each member keeps its own beta, log-likelihood, step halving and
    iteration count, and leaves at its own exit: score convergence, the
    log-likelihood test, the separation bound, a singular information matrix
    or max_iter. numpy runs a stacked matmul one (n, k) slice at a time and a
    stacked solve or inverse one LAPACK call per matrix, and the sums run
    along the last axis, so each member gets the same bits as a stack of
    one. Returns a FitResult or a SeparationError per member, in stack order.
    """
    n_models, n, k = Xd.shape
    beta = np.zeros((n_models, k))
    ll = _loglik(Xd, y, beta)
    converged = np.zeros(n_models, dtype=bool)
    iterations = np.zeros(n_models, dtype=np.int64)
    errors: dict[int, SeparationError] = {}

    def separation(b: np.ndarray) -> SeparationError:
        worst = int(np.argmax(np.abs(b)))
        return SeparationError(names[worst], float(np.abs(b[worst])))

    active = np.arange(n_models)  # the members still iterating
    Xa, ya = Xd, y
    for iteration in range(1, max_iter + 1):
        if active.size == 0:
            break
        iterations[active] = iteration
        b, ll_a = beta[active], ll[active]
        XaT = Xa.transpose(0, 2, 1)
        p = _probabilities(Xa, b)
        score = XaT @ (ya - p)[:, :, None]
        # the members that take a step this iteration
        moving = ~(np.max(np.abs(score[:, :, 0]), axis=1) < SCORE_TOL)
        converged[active[~moving]] = True
        w = p * (1.0 - p)
        info = XaT @ (Xa * w[:, :, None])
        try:
            step = np.linalg.solve(info, score)[:, :, 0]
        except np.linalg.LinAlgError:
            # some information matrix is singular: solve member by member
            step = np.zeros_like(b)
            for j in np.flatnonzero(moving):
                try:
                    step[j] = np.linalg.solve(info[j], score[j])[:, 0]
                except np.linalg.LinAlgError:
                    errors[int(active[j])] = separation(b[j])
                    moving[j] = False
        candidate = b + step
        new_ll = _loglik(Xa, ya, candidate)
        # halve a member's step until its log-likelihood stops decreasing;
        # the members still short all started at 1, so they share the scale
        short = np.flatnonzero(moving & ~(new_ll >= ll_a - 1e-12))
        scale = 1.0
        while short.size and scale > 2.0**-12:
            scale /= 2.0
            candidate[short] = b[short] + scale * step[short]
            new_ll[short] = _loglik(Xa[short], ya[short], candidate[short])
            short = short[~(new_ll[short] >= ll_a[short] - 1e-12)]
        separated = moving & (np.max(np.abs(candidate), axis=1) > SEPARATION_BOUND)
        for j in np.flatnonzero(separated):
            errors[int(active[j])] = separation(candidate[j])
        done = moving & ~separated & (np.abs(new_ll - ll_a) < LL_TOL * (np.abs(ll_a) + 1.0))
        converged[active[done]] = True
        beta[active[moving]] = candidate[moving]
        ll[active[moving]] = new_ll[moving]
        keep = moving & ~separated & ~done
        if not keep.all():
            active, Xa, ya = active[keep], Xa[keep], ya[keep]

    results: list[FitResult | SeparationError] = [errors.get(i) for i in range(n_models)]
    fitted = [i for i in range(n_models) if i not in errors]
    if not fitted:
        return results
    Xf, yf, bf = Xd[fitted], y[fitted], beta[fitted]
    p = _probabilities(Xf, bf)
    w = p * (1.0 - p)
    cov = np.linalg.inv(Xf.transpose(0, 2, 1) @ (Xf * w[:, :, None]))
    se = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    z = np.divide(bf, se, out=np.zeros_like(bf), where=se > 0)
    loglik = _loglik(Xf, yf, bf)
    for j, i in enumerate(fitted):
        p_bar = yf[j].mean()
        null_ll = n * (p_bar * math.log(p_bar) + (1.0 - p_bar) * math.log(1.0 - p_bar))
        results[i] = FitResult(
            names=names,
            coef=bf[j],
            se=se[j],
            # scipy.stats.norm.sf(x) is ndtr(-x); the port gives the same bits
            # without importing scipy into every analyze
            p_values=np.array([2.0 * _ndtr(-abs(v)) for v in z[j].tolist()]),
            loglik=float(loglik[j]),
            null_loglik=null_ll,
            n_used=n,
            converged=bool(converged[i]),
            iterations=int(iterations[i]),
        )
    return results


def nagelkerke_r2(loglik: float, null_loglik: float, n: int) -> float:
    """(1 - exp(2(L0 - L1)/n)) / (1 - exp(2 L0 / n))."""
    cox_snell = 1.0 - math.exp(2.0 * (null_loglik - loglik) / n)
    denom = 1.0 - math.exp(2.0 * null_loglik / n)
    if denom == 0.0:
        return 0.0
    return cox_snell / denom


def collinearity_diagonal(X: np.ndarray, names: list[str]) -> dict[str, float]:
    """Main diagonal of the inverted predictor correlation matrix (VIFs).

    Past the constant-column and correlated-pair checks, a design whose
    columns with an intercept are rank deficient is refused too: its
    correlation matrix can invert to meaningless values.
    """
    X = _finite(X)
    if X.ndim != 2 or X.shape[1] < 2:
        raise DesignError("need at least two predictor columns")
    names = list(names)
    [vif] = _vif_stack(X[None], names)
    if isinstance(vif, DesignError):
        raise vif
    [error] = _rank_errors(np.column_stack([np.ones(X.shape[0]), X])[None], ["intercept", *names])
    if error is not None:
        raise error
    return vif


def _vif_stack(X: np.ndarray, names: list[str]) -> list[dict[str, float] | DesignError]:
    """collinearity_diagonal over a stack X (B, n, k) whose columns share
    *names*: per member its VIFs or the DesignError it raises, in stack order.

    The correlation matrices take np.corrcoef's steps in its order (column
    means, the centred X^T X, the 1/(n-1) scale, both divisions by the
    standard deviations, the clip), and numpy runs the stacked matmul and
    inverse one matrix at a time, so each member gets the bits that
    np.corrcoef and np.linalg.inv give it alone.
    """
    n_models, n, k = X.shape
    results: list = [None] * n_models
    constant = X.std(axis=1) == 0.0
    for b in np.flatnonzero(constant.any(axis=1)).tolist():
        results[b] = DesignError(f"constant predictor column: {names[int(np.argmax(constant[b]))]}")
    varying = np.flatnonzero(~constant.any(axis=1))
    Xc = X[varying]
    Xc -= Xc.mean(axis=1, keepdims=True)
    corr = Xc.transpose(0, 2, 1) @ Xc
    corr *= np.true_divide(1, n - 1)
    stddev = np.sqrt(np.diagonal(corr, axis1=1, axis2=2))
    corr /= stddev[:, :, None]
    corr /= stddev[:, None, :]
    np.clip(corr, -1, 1, out=corr)

    # the first pair past 0.999 in (i, j) order
    upper_i, upper_j = np.triu_indices(k, 1)
    high = np.abs(corr[:, upper_i, upper_j]) > 0.999
    for m in np.flatnonzero(high.any(axis=1)).tolist():
        pair = int(np.argmax(high[m]))
        i, j = upper_i[pair], upper_j[pair]
        results[varying[m]] = SingularCorrelationError((names[i], names[j]), float(corr[m, i, j]))
    invertible = np.flatnonzero(~high.any(axis=1))
    try:
        diagonals = list(np.diagonal(np.linalg.inv(corr[invertible]), axis1=1, axis2=2))
    except np.linalg.LinAlgError:
        # some correlation matrix is singular: invert member by member
        diagonals = []
        for c in corr[invertible]:
            try:
                diagonals.append(np.diagonal(np.linalg.inv(c)))
            except np.linalg.LinAlgError:
                diagonals.append(None)
    for m, diagonal in zip(invertible.tolist(), diagonals):
        results[varying[m]] = (
            SingularCorrelationError((names[0], names[-1]), 1.0)
            if diagonal is None
            else dict(zip(names, diagonal.tolist()))
        )
    return results


# ---------------------------------------------------------------------------
# model reports


@dataclass
class ModelOutcome:
    spec: ModelSpec
    fit: FitResult | None = None
    vif: dict[str, float] | None = None
    error: str | None = None


def run_models(
    table: PortfolioTable, class_codes: np.ndarray, specs: list[ModelSpec]
) -> list[ModelOutcome]:
    """Fit the models of *specs*, returning errors as marked outcomes instead
    of raising; outcomes come in spec order.

    The specs that share discipline, target stage and predictors form a
    group, built, checked and fitted as one stack: the default specs of a
    discipline and target stage (top and bottom, every ptype) form one group
    of 8. A group's designs are dropped before the next is built.
    """
    outcomes: list = [None] * len(specs)
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.discipline, spec.target_stage, spec.predictors), []).append(i)
    for group in groups.values():
        for i, outcome in zip(group, _fit_group(table, class_codes, [specs[i] for i in group])):
            outcomes[i] = outcome
    return outcomes


def _fit_group(
    table: PortfolioTable, class_codes: np.ndarray, specs: list[ModelSpec]
) -> list[ModelOutcome]:
    """The outcomes of one group of run_models. A member's first error wins,
    in the order build, rank, separation, VIF; each later check runs, as one
    stack, on the members that passed the earlier ones."""
    Xd, y, errors = _design_stack(table, class_codes, specs)
    names = ["intercept", *specs[0].predictors]
    outcomes = [ModelOutcome(spec=spec) for spec in specs]

    def passing() -> list[int]:
        return [b for b, error in enumerate(errors) if error is None]

    members = passing()
    if members:  # else the build failed every member
        for b, error in zip(members, _rank_errors(Xd[members], names)):
            errors[b] = error
        members = passing()
        fits = dict(zip(members, _fit_stack(Xd[members], y[members], names)))
        for b, fit in fits.items():
            if isinstance(fit, SeparationError):
                errors[b] = fit
        members = passing()
        vifs = _vif_stack(Xd[members, :, 1:], names[1:]) if len(names) > 2 else [None] * len(members)
        for b, vif in zip(members, vifs):
            if isinstance(vif, DesignError):
                errors[b] = vif
            else:
                outcomes[b].fit, outcomes[b].vif = fits[b], vif
    for outcome, error in zip(outcomes, errors):
        if error is not None:
            outcome.error = str(error)
    return outcomes


def sig_label(p: float) -> str:
    """The published convention: "0" means p <= 0.001."""
    return "0" if p <= 0.001 else f"{p:.3f}"


def grid_rows(outcomes: list[ModelOutcome], predictors: tuple[str, ...]) -> list[list[str]]:
    """Per-discipline odds-ratio grid.

    Columns are the disciplines of *outcomes*, in their order;
    non-significant cells (p > 0.05) are blank, unconverged fits are marked
    "(nc)", failed models carry the error in the r2 row. Intercepts are
    excluded.
    """
    header = ["predictor"] + [o.spec.discipline for o in outcomes]
    r2_row = ["r2"] + ["(error)" if o.fit is None else f"{o.fit.pseudo_r2:.3f}" for o in outcomes]
    rows = [header, r2_row]
    for name in predictors:
        row = [name]
        for o in outcomes:
            if o.fit is None or name not in o.fit.names:
                row.append("")
                continue
            stats_row = o.fit.by_name(name)
            if not o.fit.converged:
                row.append("(nc)")
            elif stats_row["p"] > SIG_THRESHOLD:
                row.append("")
            else:
                row.append(f"{stats_row['odds_ratio']:.3f}")
        rows.append(row)
    return rows
