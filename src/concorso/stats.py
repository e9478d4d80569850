"""Statistical engine: correlation, t-tests, Bonferroni, logistic regression
with cluster-robust inference, VIF, and joint Wald tests.

Formulas are computed directly from their textbook definitions; scipy is used
only for tail probabilities (Student t, normal, chi-squared), through the
``scipy.special`` functions that ``scipy.stats`` itself calls. ``scipy.special``
is imported on first use, so ``concorso gen``, which computes no p-value, does
not load scipy. ``import concorso`` loads neither scipy nor numpy: the package
imports this module only when one of its names is first used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInput,
    Nonconvergence,
    RankDeficient,
    SeparationDetected,
)

MAX_ITERATIONS = 100
SCORE_TOL = 1e-8        # max-abs gradient at the optimum
LL_TOL = 1e-10          # log-likelihood change fallback
PROB_PIN = 1e-10        # fitted probabilities this close to 0/1 signal separation
BETA_BLOWUP = 30.0


@dataclass
class TestResult:
    statistic: float
    df: float
    p_one_sided: float
    p_two_sided: float
    r: float | None = None


def pearson(x, y) -> TestResult:
    """Sample correlation with a Student-t significance test.

    The one-sided p covers the positive-association alternative (upper tail).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n != y.size:
        raise DegenerateInput("vectors differ in length")
    if n < 3:
        raise DegenerateInput(f"need at least 3 observations, got {n}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInput("constant vector has no correlation")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if abs(r) == 1.0:
        t = math.inf if r > 0 else -math.inf
    else:
        t = r * math.sqrt(df / (1.0 - r * r))
    p_upper, p_two = _t_tails(df, t)
    return TestResult(statistic=t, df=df, p_one_sided=p_upper,
                      p_two_sided=min(1.0, p_two), r=r)


def two_sample_t(a, b, pooled: bool = True) -> TestResult:
    """Two-sample t-test for mean(a) - mean(b); pooled variance by default,
    Welch when ``pooled`` is false. The one-sided p is the upper tail
    (alternative: mean(a) > mean(b)).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = a.size, b.size
    if na < 2 or nb < 2:
        raise DegenerateInput("each sample needs at least 2 observations")
    ma, mb = float(a.mean()), float(b.mean())
    va = float(((a - ma) ** 2).sum()) / (na - 1)
    vb = float(((b - mb) ** 2).sum()) / (nb - 1)
    if va == 0.0 and vb == 0.0 and ma == mb:
        raise DegenerateInput("both samples constant and equal")
    if pooled:
        df: float = na + nb - 2
        sp2 = ((na - 1) * va + (nb - 1) * vb) / df
        denom = math.sqrt(sp2 * (1.0 / na + 1.0 / nb))
    else:
        denom = math.sqrt(va / na + vb / nb)
        if denom > 0.0:
            df = (va / na + vb / nb) ** 2 / (
                (va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
        else:
            df = na + nb - 2
    if denom == 0.0:
        t = math.inf if ma > mb else -math.inf
    else:
        t = (ma - mb) / denom
    p_upper, p_two = _t_tails(df, t)
    return TestResult(statistic=t, df=df, p_one_sided=p_upper,
                      p_two_sided=min(1.0, p_two))


def _t_tails(df: float, t: float) -> tuple[float, float]:
    """Upper-tail and two-sided Student-t p-values of t."""
    from scipy.special import stdtr
    return float(stdtr(df, -t)), float(2.0 * stdtr(df, -abs(t)))


def _chi2_sf(x: float, df: int) -> float:
    """``scipy.stats.chi2.sf``: 1 below the support, where chdtrc is NaN."""
    from scipy.special import chdtrc
    return float(chdtrc(df, max(x, 0.0)))


def ordered_sum(xs) -> float:
    """The sum of ``xs`` added left to right, with no compensation: the
    builtin ``sum`` compensates float rounding since Python 3.12, so it gives
    other last bits on 3.12+ than on 3.10 and 3.11."""
    total = 0.0
    for x in xs:
        total += x
    return total


def bonferroni(p_values, m: int | None = None) -> list[float]:
    """Family-wise adjustment: p' = min(1, m * p); m defaults to |p_values|."""
    p_values = list(p_values)
    if m is None:
        m = len(p_values)
    return [min(1.0, m * p) for p in p_values]


def adjust_family(cells, p_key: str, adj_key: str) -> int:
    """Bonferroni-adjust one test family in place and return its size m.

    The family is every cell that is not None and whose ``p_key`` is set;
    each gets ``cell[adj_key] = min(1, m * cell[p_key])``.
    """
    family = [c for c in cells if c is not None and c[p_key] is not None]
    for cell in family:
        cell[adj_key] = bonferroni([cell[p_key]], len(family))[0]
    return len(family)


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

@dataclass
class DesignMatrix:
    """Observation matrix with named columns, outcome, and cluster labels."""

    X: np.ndarray
    y: np.ndarray
    clusters: np.ndarray
    columns: list[str]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.clusters = np.asarray(self.clusters)
        if self.X.ndim != 2 or self.X.shape[0] != self.y.size:
            raise DegenerateInput("design and outcome shapes disagree")
        if self.clusters.size != self.y.size:
            raise DegenerateInput("cluster labels must cover every row")
        if self.X.shape[1] != len(self.columns):
            raise DegenerateInput("column names and design width disagree")

    @property
    def n_obs(self) -> int:
        return self.X.shape[0]


@dataclass
class Coefficient:
    name: str
    b: float
    se: float
    z: float
    p: float
    odds_ratio: float
    b_stdx: float | None  # absent for the intercept and binary columns


@dataclass
class RegressionResult:
    coefficients: list[Coefficient]
    log_likelihood: float
    null_log_likelihood: float
    pseudo_r2: float
    wald_chi2: float | None
    wald_df: int
    wald_p: float | None
    n_obs: int
    n_clusters: int
    n_iterations: int
    covariance: np.ndarray = field(repr=False, default=None)

    def coef(self, name: str) -> Coefficient:
        for c in self.coefficients:
            if c.name == name:
                return c
        raise KeyError(name)


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_likelihood(eta: np.ndarray, y: np.ndarray) -> float:
    # sum of y*eta - log(1 + exp(eta)), stable for large |eta|
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def _is_binary(column: np.ndarray) -> bool:
    return bool(np.all((column == 0.0) | (column == 1.0)))


def fit_logit(design: DesignMatrix) -> RegressionResult:
    """Maximum-likelihood logit via Newton iterations with step-halving, at
    most ``MAX_ITERATIONS`` of them.

    Standard errors come from the cluster-robust sandwich: the inverse
    observed information as bread, the outer product of within-cluster score
    sums as meat, scaled by the small-sample factor G/(G-1) for G clusters.
    The joint Wald test covers every non-intercept coefficient under that
    same covariance.
    """
    X, y = design.X, design.y
    n, k = X.shape
    if n == 0:
        raise DegenerateInput("empty design")
    if np.linalg.matrix_rank(X) < k:
        raise RankDeficient(f"design has rank < {k} columns")
    ybar = float(y.mean())
    if ybar == 0.0 or ybar == 1.0:
        raise DegenerateInput("outcome has a single class")

    beta = np.zeros(k)
    eta = X @ beta
    ll = _log_likelihood(eta, y)
    ll_change = math.inf
    # each pass checks the current beta, then takes one Newton step; ``steps``
    # counts the steps, and the bread inverts the last pass's information
    for steps in range(MAX_ITERATIONS + 1):
        p = _sigmoid(eta)
        information = X.T @ (X * (p * (1.0 - p))[:, None])
        if ((p < PROB_PIN) | (p > 1.0 - PROB_PIN)).any() and \
                float(np.abs(beta).max()) > BETA_BLOWUP:
            raise SeparationDetected(
                "fitted probabilities pinned at 0/1 with diverging coefficients")
        if abs(ll_change) < LL_TOL:
            break
        if steps == MAX_ITERATIONS:
            raise Nonconvergence(f"no convergence in {MAX_ITERATIONS} iterations")
        score = X.T @ (y - p)
        if float(np.abs(score).max()) < SCORE_TOL:
            break
        try:
            delta = np.linalg.solve(information, score)
        except np.linalg.LinAlgError:
            raise SeparationDetected("information matrix became singular")
        step = 1.0
        for _ in range(40):
            candidate = beta + step * delta
            eta_new = X @ candidate
            ll_new = _log_likelihood(eta_new, y)
            if ll_new >= ll - 1e-14:
                break
            step *= 0.5
        beta, eta = candidate, eta_new
        ll_change, ll = ll_new - ll, ll_new

    bread = np.linalg.inv(information)

    labels, inverse = np.unique(design.clusters, return_inverse=True)
    n_clusters = labels.size
    if n_clusters < 2:
        raise DegenerateInput("cluster-robust covariance needs >= 2 clusters")
    cluster_scores = np.zeros((n_clusters, k))
    np.add.at(cluster_scores, inverse, X * (y - p)[:, None])
    meat = cluster_scores.T @ cluster_scores
    meat *= n_clusters / (n_clusters - 1)
    cov = bread @ meat @ bread
    se = np.sqrt(np.diag(cov))

    from scipy.special import ndtr
    coefficients = []
    for j, name in enumerate(design.columns):
        b = float(beta[j])
        sj = float(se[j])
        z = b / sj
        pval = float(2.0 * ndtr(-abs(z)))
        if name == "const" or _is_binary(X[:, j]):
            b_stdx = None
        else:
            b_stdx = b * float(X[:, j].std(ddof=1))
        coefficients.append(Coefficient(
            name=name, b=b, se=sj, z=z, p=min(1.0, pval),
            odds_ratio=math.exp(b), b_stdx=b_stdx))

    ll0 = n * (ybar * math.log(ybar) + (1.0 - ybar) * math.log(1.0 - ybar))
    pseudo_r2 = 1.0 - ll / ll0

    free = [j for j, name in enumerate(design.columns) if name != "const"]
    if free:
        b_free = beta[free]
        cov_free = cov[np.ix_(free, free)]
        try:
            wald_chi2 = float(b_free @ np.linalg.solve(cov_free, b_free))
        except np.linalg.LinAlgError:
            raise RankDeficient("cluster covariance of tested coefficients is singular")
        wald_df = len(free)
        wald_p = _chi2_sf(wald_chi2, wald_df)
    else:
        wald_chi2, wald_df, wald_p = None, 0, None

    return RegressionResult(
        coefficients=coefficients,
        log_likelihood=ll,
        null_log_likelihood=ll0,
        pseudo_r2=pseudo_r2,
        wald_chi2=wald_chi2,
        wald_df=wald_df,
        wald_p=wald_p,
        n_obs=n,
        n_clusters=n_clusters,
        n_iterations=steps,
        covariance=cov,
    )


def vif(design: DesignMatrix) -> tuple[dict[str, float], float]:
    """Variance inflation factors for every non-intercept column.

    Each VIF_j is 1/(1 - R^2_j) from the least-squares regression of column
    j on the remaining columns plus an intercept. Exact collinearity raises;
    near-collinearity returns large finite values.
    """
    names = [c for c in design.columns if c != "const"]
    idx = [j for j, c in enumerate(design.columns) if c != "const"]
    if len(idx) < 2:
        raise DegenerateInput("VIF needs at least 2 non-intercept columns")
    if design.n_obs < len(idx) + 2:
        raise DegenerateInput(
            f"VIF needs more observations than regressors, got "
            f"{design.n_obs} rows for {len(idx)} columns")
    base = design.X[:, idx]
    n = base.shape[0]
    with_const = np.column_stack([np.ones(n), base])
    if np.linalg.matrix_rank(with_const) < with_const.shape[1]:
        raise RankDeficient("base regressors are exactly collinear")

    out: dict[str, float] = {}
    for j, name in enumerate(names):
        target = base[:, j]
        others = np.column_stack(
            [np.ones(n)] + [base[:, m] for m in range(len(names)) if m != j])
        coef, _, _, _ = np.linalg.lstsq(others, target, rcond=None)
        resid = target - others @ coef
        sst = float(((target - target.mean()) ** 2).sum())
        if sst == 0.0:
            raise RankDeficient(f"column {name} is constant")
        r2 = 1.0 - float(resid @ resid) / sst
        if r2 >= 1.0:
            raise RankDeficient(f"column {name} is exactly explained by the others")
        out[name] = 1.0 / (1.0 - r2)
    average = ordered_sum(out.values()) / len(out)
    return out, average
