"""Statistical primitives against independent oracles."""

import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.optimize
import scipy.stats

from concorso import stats
from concorso.errors import (
    DegenerateInput,
    Nonconvergence,
    RankDeficient,
    SeparationDetected,
)
from concorso.stats import (
    DesignMatrix,
    _chi2_sf,
    bonferroni,
    fit_logit,
    ordered_sum,
    pearson,
    two_sample_t,
    vif,
)


def make_design(X, y, clusters=None, names=None):
    X = np.asarray(X, dtype=float)
    if clusters is None:
        clusters = np.arange(X.shape[0])  # singleton clusters
    if names is None:
        names = ["const"] + [f"x{j}" for j in range(1, X.shape[1])]
    return DesignMatrix(X=X, y=np.asarray(y, dtype=float),
                        clusters=np.asarray(clusters), columns=names)


def logit_sample(rng, n, beta, cluster_size=1):
    k = len(beta)
    X = np.column_stack([np.ones(n)] +
                        [rng.normal(size=n) for _ in range(k - 1)])
    p = 1.0 / (1.0 + np.exp(-(X @ np.asarray(beta))))
    y = (rng.random(n) < p).astype(float)
    clusters = np.arange(n) // cluster_size
    return X, y, clusters


# --- pearson -----------------------------------------------------------------

def test_pearson_identity():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    res = pearson(x, x)
    assert res.r == 1.0
    assert res.statistic == math.inf
    assert res.p_two_sided == 0.0
    assert res.p_one_sided == 0.0


def test_pearson_perfect_negative():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    res = pearson(x, -2 * x + 1)
    assert res.r == -1.0
    assert res.statistic == -math.inf
    assert res.p_two_sided == 0.0
    assert res.p_one_sided == 1.0


def test_pearson_fixed_dataset_matches_oracle():
    x = [1.0, 2.0, 4.0, 4.5, 7.0, 9.0]
    y = [2.1, 2.2, 3.9, 5.0, 6.5, 9.1]
    res = pearson(x, y)
    r_oracle = np.corrcoef(x, y)[0, 1]
    assert abs(res.r - r_oracle) < 1e-12
    sp = scipy.stats.pearsonr(x, y)
    assert abs(res.r - sp.statistic) < 1e-12
    assert abs(res.p_two_sided - sp.pvalue) < 1e-10
    assert res.df == 4
    # one-sided p is the upper tail of the same t statistic
    t = res.r * math.sqrt(4 / (1 - res.r ** 2))
    assert abs(res.p_one_sided - scipy.stats.t.sf(t, 4)) < 1e-12


def test_pearson_degenerate():
    with pytest.raises(DegenerateInput):
        pearson([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DegenerateInput):
        pearson([1.0, 2.0], [1.0, 2.0])


def test_pearson_type_i_error_calibration():
    rng = np.random.default_rng(101)
    rejections = 0
    trials = 2000
    for _ in range(trials):
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        if pearson(x, y).p_two_sided <= 0.05:
            rejections += 1
    assert 0.03 <= rejections / trials <= 0.07


# --- two-sample t ------------------------------------------------------------

def test_t_identical_samples():
    a = [1.0, 2.0, 3.0, 4.0]
    res = two_sample_t(a, list(a))
    assert res.statistic == 0.0
    assert res.p_two_sided == 1.0
    assert res.df == 6


def test_t_binary_equal_means():
    res = two_sample_t([0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    assert res.statistic == 0.0


def test_t_matches_scipy_pooled_and_welch():
    rng = np.random.default_rng(7)
    a = rng.normal(0.3, 1.0, size=14)
    b = rng.normal(0.0, 2.0, size=23)
    res = two_sample_t(a, b)
    sp = scipy.stats.ttest_ind(a, b)
    assert abs(res.statistic - sp.statistic) < 1e-10
    assert abs(res.p_two_sided - sp.pvalue) < 1e-10
    assert abs(res.p_one_sided -
               scipy.stats.ttest_ind(a, b, alternative="greater").pvalue) < 1e-10

    welch = two_sample_t(a, b, pooled=False)
    spw = scipy.stats.ttest_ind(a, b, equal_var=False)
    assert abs(welch.statistic - spw.statistic) < 1e-10
    assert abs(welch.p_two_sided - spw.pvalue) < 1e-10
    assert welch.df != res.df


def test_welch_df_is_scale_free_down_to_tiny_variances():
    # (va/na)² underflows to 0 near scale 1e-100 while va/na does not, so the
    # df comes from each term's share of their sum; scipy 1.17.1 is no oracle
    # here (at 1e-100 it reads df 1.0 and p 0.137)
    ref = two_sample_t([0.0, 1.0], [3.0, 5.0, 4.0], pooled=False)
    assert (ref.statistic, ref.df, ref.p_two_sided) == pytest.approx(
        (-4.5826, 2.8824, 0.021273), rel=1e-4)
    for scale in (1e-100, 1e-150):
        res = two_sample_t([0.0, scale], [3 * scale, 5 * scale, 4 * scale],
                           pooled=False)
        for key in ("statistic", "df", "p_one_sided", "p_two_sided"):
            assert getattr(res, key) == pytest.approx(getattr(ref, key), rel=1e-12)
    # subnormal variances lose digits, but the df stays finite
    res = two_sample_t([0.0, 1e-160], [3e-160, 5e-160, 4e-160], pooled=False)
    assert math.isfinite(res.df)
    assert res.statistic == pytest.approx(ref.statistic, rel=1e-3)


def test_t_degenerate_and_infinite():
    with pytest.raises(DegenerateInput):
        two_sample_t([2.0, 2.0], [2.0, 2.0, 2.0])
    with pytest.raises(DegenerateInput):
        two_sample_t([1.0], [1.0, 2.0])
    res = two_sample_t([3.0, 3.0], [1.0, 1.0])
    assert res.statistic == math.inf
    assert res.p_two_sided == 0.0


# --- bonferroni --------------------------------------------------------------

def test_bonferroni_examples():
    assert bonferroni([0.01], 10) == [0.1]
    assert bonferroni([0.5], 10) == [1.0]
    assert bonferroni([0.01, 0.02]) == [0.02, 0.04]
    assert bonferroni([], 5) == []


# --- ordered_sum -------------------------------------------------------------

def test_ordered_sum_rounds_each_addition_in_order():
    # the builtin sum of Python 3.12+ compensates and gives 1.0 here
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum(x for x in (1e16, -1e16, 1.0)) == 1.0
    assert ordered_sum([]) == 0.0


# --- logit -------------------------------------------------------------------

def test_logit_matches_bfgs_oracle():
    rng = np.random.default_rng(13)
    X, y, _ = logit_sample(rng, 200, [-0.4, 0.8, -0.5])
    design = make_design(X, y)
    result = fit_logit(design)
    beta = np.array([c.b for c in result.coefficients])

    def neg_ll(b):
        eta = X @ b
        return -(y @ eta - np.logaddexp(0.0, eta).sum())

    def neg_grad(b):
        p = 1.0 / (1.0 + np.exp(-(X @ b)))
        return -(X.T @ (y - p))

    oracle = scipy.optimize.minimize(neg_ll, np.zeros(3), jac=neg_grad,
                                     method="BFGS", options={"gtol": 1e-10})
    assert np.abs(beta - oracle.x).max() < 1e-6
    assert np.abs(neg_grad(beta)).max() < 1e-8
    assert abs(result.log_likelihood + oracle.fun) < 1e-9


def test_logit_cluster_sandwich_matches_loop_oracle():
    rng = np.random.default_rng(29)
    X, y, clusters = logit_sample(rng, 300, [0.2, 0.6, -0.4], cluster_size=5)
    result = fit_logit(make_design(X, y, clusters))
    beta = np.array([c.b for c in result.coefficients])

    p = 1.0 / (1.0 + np.exp(-(X @ beta)))
    W = np.diag(p * (1 - p))
    bread = np.linalg.inv(X.T @ W @ X)
    meat = np.zeros((3, 3))
    for g in set(clusters.tolist()):
        rows = clusters == g
        s_g = X[rows].T @ (y[rows] - p[rows])
        meat += np.outer(s_g, s_g)
    n_clusters = len(set(clusters.tolist()))
    meat *= n_clusters / (n_clusters - 1)
    cov = bread @ meat @ bread
    assert np.abs(result.covariance - cov).max() < 1e-12
    se = np.sqrt(np.diag(cov))
    for c, s in zip(result.coefficients, se):
        assert abs(c.se - s) < 1e-12
        assert abs(c.z - c.b / s) < 1e-10
        assert abs(c.p - 2 * scipy.stats.norm.sf(abs(c.z))) < 1e-12


def test_logit_singleton_clusters_reduce_to_hc0():
    rng = np.random.default_rng(31)
    X, y, _ = logit_sample(rng, 120, [0.1, 0.7])
    n = 120
    result = fit_logit(make_design(X, y))  # singleton clusters
    beta = np.array([c.b for c in result.coefficients])
    p = 1.0 / (1.0 + np.exp(-(X @ beta)))
    bread = np.linalg.inv(X.T @ (X * (p * (1 - p))[:, None]))
    hc0 = bread @ (X.T @ (X * ((y - p) ** 2)[:, None])) @ bread
    expected_se = np.sqrt(np.diag(hc0)) * math.sqrt(n / (n - 1))
    ours = np.array([c.se for c in result.coefficients])
    assert np.abs(ours - expected_se).max() < 1e-12


def test_logit_small_sample_correction_at_25_clusters():
    rng = np.random.default_rng(37)
    X, y, clusters = logit_sample(rng, 100, [0.0, 0.5], cluster_size=4)
    result = fit_logit(make_design(X, y, clusters))
    beta = np.array([c.b for c in result.coefficients])
    p = 1.0 / (1.0 + np.exp(-(X @ beta)))
    bread = np.linalg.inv(X.T @ (X * (p * (1 - p))[:, None]))
    g = 25
    scores = np.array([X[clusters == k].T @ (y - p)[clusters == k]
                       for k in range(g)])
    cov = bread @ (scores.T @ scores) @ bread * (g / (g - 1))
    assert result.n_clusters == g
    assert np.abs(result.covariance - cov).max() < 1e-12
    for c, s in zip(result.coefficients, np.sqrt(np.diag(cov))):
        assert abs(c.se - s) < 1e-12


def test_logit_column_scaling_invariance():
    rng = np.random.default_rng(41)
    X, y, clusters = logit_sample(rng, 250, [-0.2, 0.9, 0.3], cluster_size=5)
    base = fit_logit(make_design(X, y, clusters))
    k = 7.0
    X2 = X.copy()
    X2[:, 1] *= k
    scaled = fit_logit(make_design(X2, y, clusters))
    assert abs(scaled.coef("x1").b - base.coef("x1").b / k) < 1e-8
    assert abs(scaled.coef("x1").z - base.coef("x1").z) < 1e-8
    assert abs(scaled.coef("x1").p - base.coef("x1").p) < 1e-8
    assert abs(scaled.coef("x1").b_stdx - base.coef("x1").b_stdx) < 1e-8
    assert abs(scaled.log_likelihood - base.log_likelihood) < 1e-8
    assert abs(scaled.pseudo_r2 - base.pseudo_r2) < 1e-8


def test_logit_odds_ratio_identity():
    rng = np.random.default_rng(43)
    X, y, clusters = logit_sample(rng, 150, [0.3, -0.6], cluster_size=3)
    result = fit_logit(make_design(X, y, clusters))
    for c in result.coefficients:
        assert abs(math.log(c.odds_ratio) - c.b) < 1e-12


def test_logit_b_stdx_rules():
    rng = np.random.default_rng(47)
    n = 200
    x_cont = rng.normal(size=n)
    x_bin = (rng.random(n) < 0.4).astype(float)
    X = np.column_stack([np.ones(n), x_cont, x_bin])
    p = 1.0 / (1.0 + np.exp(-(0.2 + 0.5 * x_cont - 0.3 * x_bin)))
    y = (rng.random(n) < p).astype(float)
    result = fit_logit(make_design(X, y, names=["const", "xc", "xb"]))
    assert result.coef("const").b_stdx is None
    assert result.coef("xb").b_stdx is None
    expected = result.coef("xc").b * x_cont.std(ddof=1)
    assert abs(result.coef("xc").b_stdx - expected) < 1e-12


def test_logit_pseudo_r2_intercept_only():
    rng = np.random.default_rng(53)
    y = (rng.random(80) < 0.3).astype(float)
    design = make_design(np.ones((80, 1)), y, names=["const"])
    result = fit_logit(design)
    assert abs(result.pseudo_r2) < 1e-12
    assert result.wald_chi2 is None
    assert result.wald_df == 0
    # closed-form intercept: log(ybar/(1-ybar))
    ybar = y.mean()
    assert abs(result.coef("const").b - math.log(ybar / (1 - ybar))) < 1e-6


def test_logit_wald_recomputation():
    rng = np.random.default_rng(59)
    X, y, clusters = logit_sample(rng, 400, [-0.1, 0.8, -0.5], cluster_size=8)
    result = fit_logit(make_design(X, y, clusters))
    beta = np.array([c.b for c in result.coefficients])
    v11 = result.covariance[1:, 1:]
    w = beta[1:] @ np.linalg.solve(v11, beta[1:])
    assert abs(result.wald_chi2 - w) < 1e-10
    assert result.wald_df == 2
    assert abs(result.wald_p - scipy.stats.chi2.sf(w, 2)) < 1e-12


def test_logit_separation_detected():
    x = np.linspace(-2, 2, 40)
    y = (x > 0).astype(float)
    design = make_design(np.column_stack([np.ones(40), x]), y)
    with pytest.raises(SeparationDetected):
        fit_logit(design)


def test_separation_verdict_does_not_depend_on_the_coding_of_g():
    # a binary B that is 1 on all but three rows, and its G interaction, with
    # y constant in the (G, B) cells (0, 0), (1, 0) and (1, 1). Newton's Xβ is
    # the same however G is coded, but β is not: at the last pass max|β| is
    # 25.6 as coded and 46.4 mirrored, so a guard on β tripped on one side only
    cells = {(0, 0): (1, 0), (0, 1): (24, 2), (1, 0): (2, 0), (1, 1): (58, 58)}
    g, b, y = (np.array(v, dtype=float) for v in zip(*(
        (gi, bi, float(k < wins)) for (gi, bi), (n, wins) in cells.items()
        for k in range(n))))
    verdicts = []
    for coded in (g, 1.0 - g):
        X = np.column_stack([np.ones(y.size), coded, b, coded * b])
        design = make_design(X, y, np.arange(y.size) % 7,
                             names=["const", "G", "B", "G*B"])
        # the sandwich of a separated fit can have a negative diagonal (an
        # invalid sqrt); checking it is ROADMAP item 1's remaining half
        with np.errstate(invalid="ignore"):
            try:
                result = fit_logit(design)
                verdicts.append((result.n_iterations, result.log_likelihood))
            except SeparationDetected as exc:
                verdicts.append(str(exc))
    assert verdicts[0] == pytest.approx(verdicts[1], rel=1e-12)


def test_logit_rank_deficient():
    rng = np.random.default_rng(61)
    x = rng.normal(size=50)
    X = np.column_stack([np.ones(50), x, 2 * x])
    y = (rng.random(50) < 0.5).astype(float)
    with pytest.raises(RankDeficient):
        fit_logit(make_design(X, y))


def test_logit_single_class_rejected():
    X = np.column_stack([np.ones(20), np.linspace(0, 1, 20)])
    with pytest.raises(DegenerateInput):
        fit_logit(make_design(X, np.ones(20)))


def test_logit_iteration_cap(monkeypatch):
    rng = np.random.default_rng(67)
    X, y, _ = logit_sample(rng, 100, [0.4, -0.8])
    monkeypatch.setattr(stats, "MAX_ITERATIONS", 1)
    with pytest.raises(Nonconvergence, match="in 1 iterations"):
        fit_logit(make_design(X, y))


def _count_solves(monkeypatch) -> list:
    """Record each np.linalg.solve call: fit_logit makes one per Newton step
    and one for the Wald test."""
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: calls.append(1) or solve(a, b))
    return calls


@pytest.mark.parametrize("seed", range(8))
def test_logit_n_iterations_counts_newton_steps(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    X, y, _ = logit_sample(rng, int(rng.integers(20, 200)), [0.3, 0.8])
    solves = _count_solves(monkeypatch)
    assert fit_logit(make_design(X, y)).n_iterations == len(solves) - 1


def test_logit_takes_no_step_from_a_zero_score(monkeypatch):
    # a balanced outcome uncorrelated with x: beta = 0 has a zero score
    X = np.column_stack([np.ones(20), [0.0, 0.0, 1.0, 1.0] * 5])
    y = np.array([0.0, 1.0, 0.0, 1.0] * 5)
    solves = _count_solves(monkeypatch)
    result = fit_logit(make_design(X, y))
    assert result.n_iterations == 0 and len(solves) == 1
    assert [c.b for c in result.coefficients] == [0.0, 0.0]


def test_logit_log_likelihood_exit_step_count(monkeypatch):
    # x in units of 1e8: rounding keeps the score above SCORE_TOL at the
    # optimum, so the log-likelihood change is what ends the fit (its fifth
    # step changes it by about 4e-15, the fourth by 9e-8)
    X = np.column_stack([np.ones(20), np.arange(1, 21) * 1e8])
    y = np.array([0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1.0])
    solves = _count_solves(monkeypatch)
    result = fit_logit(make_design(X, y))
    assert result.n_iterations == 5 and len(solves) == 6
    beta = np.array([c.b for c in result.coefficients])
    p = 1.0 / (1.0 + np.exp(-(X @ beta)))
    assert np.abs(X.T @ (y - p)).max() >= stats.SCORE_TOL


def test_logit_needs_two_clusters():
    rng = np.random.default_rng(71)
    X, y, _ = logit_sample(rng, 60, [0.1, 0.4])
    with pytest.raises(DegenerateInput):
        fit_logit(make_design(X, y, np.zeros(60)))


def test_design_shape_checks():
    with pytest.raises(DegenerateInput):
        DesignMatrix(X=np.ones((4, 2)), y=np.ones(3),
                     clusters=np.arange(3), columns=["const", "x"])
    with pytest.raises(DegenerateInput):
        DesignMatrix(X=np.ones((4, 2)), y=np.ones(4),
                     clusters=np.arange(4), columns=["const"])


# --- VIF ---------------------------------------------------------------------

def test_vif_orthogonal_columns():
    X = np.array([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]], dtype=float)
    design = make_design(X, [0, 1, 0, 1], names=["const", "a", "b"])
    factors, average = vif(design)
    assert factors["a"] == pytest.approx(1.0, abs=1e-12)
    assert factors["b"] == pytest.approx(1.0, abs=1e-12)
    assert average == pytest.approx(1.0, abs=1e-12)


def near_duplicate(noise, seed=73, n=100, third=True):
    """Columns a and b = a + noise, and with ``third`` an unrelated c."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    noisy = x + rng.normal(scale=noise, size=n)
    columns = [np.ones(n), x, noisy] + ([rng.normal(size=n)] if third else [])
    return make_design(np.column_stack(columns), np.zeros(n),
                       names=["const", "a", "b", "c"][:len(columns)])


def test_vif_matches_per_column_regressions():
    # the definition as reference: 1/(1 - R^2_j) from the least-squares fit of
    # column j on the others plus an intercept, for VIFs from ~1 to ~6e5
    rng = np.random.default_rng(83)
    for noise in (3.0, 0.3, 0.03, 0.003):
        z = rng.normal(size=(80, 4))
        z[:, 3] = z[:, 0] - 2 * z[:, 1] + noise * z[:, 3]
        X = np.column_stack([np.ones(80), z])
        factors, _ = vif(make_design(X, np.zeros(80)))
        for j in range(4):
            others = np.delete(X, j + 1, axis=1)
            coef = np.linalg.lstsq(others, X[:, j + 1], rcond=None)[0]
            resid = X[:, j + 1] - others @ coef
            centred = X[:, j + 1] - X[:, j + 1].mean()
            assert factors[f"x{j + 1}"] == pytest.approx(
                (centred @ centred) / (resid @ resid), rel=1e-9)


def test_vif_near_duplicate_is_large_but_finite():
    factors, _ = vif(near_duplicate(1e-4))
    assert factors["a"] > 10
    assert math.isfinite(factors["a"])


def test_vif_exact_duplicate_rank_deficient():
    x = np.arange(10, dtype=float)
    X = np.column_stack([np.ones(10), x, x])
    with pytest.raises(RankDeficient):
        vif(make_design(X, np.zeros(10), names=["const", "a", "b"]))
    # past the rank check, the inverse correlation matrix gives a: -1.7e20
    # (noise 1e-9), -1.7e26 (1e-12), 2^51 (seed 3, whose correlation rounds to
    # 1 - 2^-53) and no inverse at all (seed 1, a correlation of exactly 1)
    for design in (near_duplicate(1e-9), near_duplicate(1e-12),
                   near_duplicate(1e-13, seed=3, n=50, third=False),
                   near_duplicate(1e-13, seed=1, n=50, third=False)):
        with pytest.raises(RankDeficient, match="column a is exactly explained"):
            vif(design)
    constant = np.column_stack([np.ones(10), x, np.full(10, 3.0)])
    with pytest.raises(RankDeficient, match="base regressors are exactly collinear"):
        vif(make_design(constant, np.zeros(10), names=["const", "a", "b"]))


def test_vif_matches_inverse_correlation_oracle():
    rng = np.random.default_rng(79)
    z = rng.normal(size=(60, 3))
    base = np.column_stack([z[:, 0], 0.7 * z[:, 0] + 0.3 * z[:, 1], z[:, 2]])
    X = np.column_stack([np.ones(60), base])
    factors, average = vif(make_design(X, np.zeros(60),
                                       names=["const", "a", "b", "c"]))
    oracle = np.diag(np.linalg.inv(np.corrcoef(base.T)))
    for name, expected in zip(["a", "b", "c"], oracle):
        assert abs(factors[name] - expected) < 1e-10
    assert abs(average - oracle.mean()) < 1e-10


# --- tail probabilities against mpmath ---------------------------------------

def test_tail_probabilities_match_mpmath():
    # mpmath at 40 digits is the oracle, not scipy: scipy 1.17.1's
    # stdtr(1, -1e-8) is 0.49999999526, 1.6e-9 off the Cauchy value
    half = mpmath.mpf(1) / 2
    welch = [1.37, 4.62, 17.3, 59.99, 60.01, 12345.67, 19636.4]
    magnitudes = [10.0 ** (k / 3) for k in range(-24, 6)] + [1.8, 2.2, 60.0]
    for df in [1, 2, 3, 5, 10, 30, 100, 1e3, 1e4, 1e5] + welch:
        for m in magnitudes:  # P(T > m) = ½·I_x(df/2, ½), x = df/(df + m²)
            with mpmath.workdps(40):
                tail = mpmath.betainc(mpmath.mpf(df) / 2, half, 0,
                                      df / (df + mpmath.mpf(m) ** 2), regularized=True) / 2
                expected = float(tail), float(1 - tail), float(2 * tail)
            upper, two = stats._t_tails(df, m)
            lower, two_of_minus = stats._t_tails(df, -m)
            assert abs(upper - expected[0]) <= 1e-13, (df, m)
            assert abs(lower - expected[1]) <= 1e-13, (df, -m)
            assert abs(two - expected[2]) <= 1e-13 and two_of_minus == two, (df, m)
        assert stats._t_tails(df, math.inf) == (0.0, 0.0)
        assert stats._t_tails(df, -math.inf) == (1.0, 0.0)
        assert stats._t_tails(df, 0.0) == (0.5, 1.0)
    assert abs(stats._t_tails(1, -1e-8)[0] - (0.5 + math.atan(1e-8) / math.pi)) <= 1e-16

    xs = [-5.0, -1e-12, -0.0, 0.0, 1e-300, 1e-8, 0.01, 0.3, 1.0, 2.5, 7.0, 15.0,
          30.0, 60.0, 100.0, 200.0, 1e3]
    for k in range(1, 41):
        for x in xs:
            with mpmath.workdps(40):
                expected = 1.0 if x <= 0 else float(mpmath.gammainc(
                    mpmath.mpf(k) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True))
            assert abs(_chi2_sf(x, k) - expected) <= 1e-13, (k, x)
        assert _chi2_sf(math.inf, k) == 0.0 and _chi2_sf(-math.inf, k) == 1.0

    for z in np.linspace(-40.0, 40.0, 801):
        with mpmath.workdps(40):
            expected = float(mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)) / 2)
        assert abs(stats._norm_sf(z) - expected) <= 1e-13, z

    nan = math.nan
    for value in (*stats._t_tails(nan, 1.0), *stats._t_tails(5, nan),
                  *stats._t_tails(nan, nan), _chi2_sf(nan, 3), stats._norm_sf(nan)):
        assert math.isnan(value)


def test_import_leaves_scipy_stats_unloaded():
    # the tail probabilities are computed in stats.py itself, so neither
    # `import concorso` nor the CLI module loads any part of scipy
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, concorso, concorso.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
