"""Population-wise error rate: correlation structure, calibration, intervals.

Given a realized Design, the joint law of the population test statistics is a
multivariate normal (known variances) or t (unknown homogeneous variances)
with the correlation matrix determined by the cell sizes and variances. This
module builds that model, evaluates PWER(c) = sum_J pi_J (1 - F_J(c_J)),
calibrates the shared critical value, and turns the PWER gradient into the
delta-method prediction interval for the true PWER.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mvprob
from .design import Design, prevalence_weights
from .errors import ConfigError, InfeasibleDesignError, NumericalError

DEFAULT_SOLVER_TOL = 1e-8
DEFAULT_CDF_TOL = 1e-6
DEFAULT_VERIFY_TOL = 1e-7

# Illinois iteration: bracket width at which it stops, and its step limit.
_SOLVER_XTOL = 1e-12
_SOLVER_MAX_ITER = 200


@dataclass(frozen=True)
class TestModel:
    """Joint distribution of the population test statistics.

    kind is "normal" or "t" (df = N minus the number of populated cells);
    full_corr is the m x m correlation matrix of the pooled contrasts, whose
    covariance is W diag(s^2/n) W^T (see build_full_correlation), and
    stratum_corr its principal submatrices in stratum order.
    population_variances holds its diagonal, the V_i used to standardize the
    statistics.
    """

    kind: str
    df: float | None
    m: int
    strata: tuple[frozenset[int], ...]
    full_corr: np.ndarray
    stratum_corr: tuple[mvprob.CorrelationMatrix | None, ...]
    population_variances: np.ndarray

    @property
    def stratum_ok(self) -> np.ndarray:
        """Strata whose joint law is defined (all member populations populated)."""
        return np.array([corr is not None for corr in self.stratum_corr])

    def stratum_cdf(
        self,
        stratum_index: int,
        c: np.ndarray,
        tol: float,
        rng: np.random.Generator | None,
        engines: dict | None = None,
    ) -> mvprob.ProbResult:
        """F_J(c_J) for one stratum: the no-rejection probability at c."""
        members = sorted(self.strata[stratum_index])
        upper = c[[i - 1 for i in members]]
        corr = self.stratum_corr[stratum_index]
        if corr is None:
            raise InfeasibleDesignError(
                f"stratum {members} involves a population with an empty arm"
            )
        if self.kind == "t":
            return mvprob.mvt_cdf(upper, corr, self.df, tol, rng, engines=engines)
        return mvprob.mvn_cdf(upper, corr, tol, rng, engines=engines)

    def tail_quantile(self, p: float) -> float:
        """c with P(single statistic > c) = p under the marginal law."""
        if self.kind == "t":
            return mvprob.t_quantile(1.0 - p, self.df)
        return mvprob.std_normal_quantile(1.0 - p)


def arm_weight_matrix(design: Design) -> np.ndarray:
    """Signed pooling weights W: the pooled contrasts are cell_means @ W.T.

    Row i carries n_cell/n_{i,T} on population i's treatment cells and
    -n_cell/n_{i,C} on its control cells (design.treatment_member and
    control_member); the row of a population with an empty arm is NaN.
    """
    sizes = design.cell_sizes.astype(float)
    treated = design.treatment_member * sizes
    control = design.control_member * sizes
    with np.errstate(invalid="ignore"):  # 0/0 on the rows of empty arms
        treated /= treated.sum(axis=1, keepdims=True)
        control /= control.sum(axis=1, keepdims=True)
    return treated - control


def build_full_correlation(
    design: Design,
    cell_variances: np.ndarray | None = None,
    allow_empty_populations: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Correlation matrix of the population statistics and the variances V_i.

    The cell means are independent with variances s^2/n, so the pooled
    contrasts have Cov = W diag(s^2/n) W^T (W from arm_weight_matrix; empty
    cells carry weight zero). V_i is its diagonal and the correlation its
    normalisation. A population with an empty arm raises
    InfeasibleDesignError; with allow_empty_populations its row and column
    hold NaN off-diagonal and NaN variance instead.
    """
    s2 = design.cell_variances if cell_variances is None else np.asarray(cell_variances, float)
    sizes = design.cell_sizes.astype(float)
    w = arm_weight_matrix(design)
    empty = np.isnan(w[:, 0])
    if empty.any() and not allow_empty_populations:
        i = int(np.argmax(empty))
        arm = "treatment" if design.treatment_member[i] @ design.cell_sizes == 0 else "control"
        raise InfeasibleDesignError(f"population {i + 1} has an empty {arm} arm")
    cov = (w * np.divide(s2, sizes, out=np.zeros_like(sizes), where=sizes > 0)) @ w.T
    v = np.diag(cov).copy()
    corr = cov / np.sqrt(np.outer(v, v))
    np.fill_diagonal(corr, 1.0)
    return corr, v


def build_test_model(
    design: Design,
    *,
    cell_variances: np.ndarray | None = None,
    kind: str | None = None,
    df: float | None = None,
    allow_empty_populations: bool = False,
) -> TestModel:
    """Assemble the TestModel implied by the design's variance mode.

    The keyword overrides let approximation engines (e.g. Satterthwaite)
    substitute observed variances and their own reference distribution. With
    allow_empty_populations, strata touching a population with an empty arm
    get no joint law (stratum_corr entry None) instead of raising; they can
    only ever be evaluated with zero weight.
    """
    if kind is None:
        mode = design.variance_mode
        if mode in ("known_homogeneous", "known_heterogeneous"):
            kind = "normal"
        elif mode == "unknown_homogeneous":
            kind = "t"
            df = float(design.N - design.positive_cell_count())
        else:
            raise ConfigError(
                "unknown heterogeneous variances have no closed-form joint law; "
                "use the bootstrap engine"
            )
    if kind == "t":
        if df is None or df < 1.0:
            raise InfeasibleDesignError(f"t reference needs df >= 1, got {df}")
    elif kind != "normal":
        raise ConfigError(f"unknown model kind {kind!r}")

    corr, v = build_full_correlation(design, cell_variances, allow_empty_populations)
    ok = ~np.isnan(v)
    subs = []
    for stratum in design.strata:
        idx = [i - 1 for i in sorted(stratum)]
        if not ok[idx].all():
            subs.append(None)
            continue
        subs.append(mvprob.CorrelationMatrix(corr[np.ix_(idx, idx)]))
    return TestModel(
        kind=kind,
        df=df if kind == "t" else None,
        m=design.m,
        strata=design.strata,
        full_corr=corr,
        stratum_corr=tuple(subs),
        population_variances=v,
    )


def test_statistics(
    design: Design,
    cell_means: np.ndarray,
    cell_variances: np.ndarray | None = None,
) -> np.ndarray:
    """Standardized pooled treatment-control contrasts per population.

    cell_means is aligned with design.cells; a leading batch axis is allowed
    and preserved. Cells with no patients carry weight zero.
    """
    means = np.asarray(cell_means, dtype=float)
    v = build_full_correlation(design, cell_variances)[1]
    return (means @ arm_weight_matrix(design).T) / np.sqrt(v)


def _c_vector(c, m: int) -> np.ndarray:
    if isinstance(c, CriticalValues):
        return c.c
    arr = np.asarray(c, dtype=float).reshape(-1)
    if arr.shape[0] == 1:
        return np.full(m, float(arr[0]))
    if arr.shape[0] != m:
        raise ConfigError(f"critical value vector has length {arr.shape[0]}, expected {m}")
    return arr


def stratum_cdf_values(
    c,
    model: TestModel,
    tol: float = DEFAULT_VERIFY_TOL,
    rng: np.random.Generator | None = None,
    mask: np.ndarray | None = None,
    engines: dict | None = None,
) -> np.ndarray:
    """F_J(c_J) for every stratum (masked or undefined entries return NaN).

    Without a mask, strata whose joint law is undefined (empty member
    population) are skipped; with a mask, requesting such a stratum raises.
    `engines` keeps the QMC strata's scrambled engines across calls.
    """
    c_vec = _c_vector(c, model.m)
    ok = model.stratum_ok
    out = np.full(len(model.strata), np.nan)
    for j in range(len(model.strata)):
        if mask is None:
            if not ok[j]:
                continue
        elif not mask[j]:
            continue
        out[j] = model.stratum_cdf(j, c_vec, tol, rng, engines).value
    return out


def pwer_value(
    c,
    pi,
    model: TestModel,
    tol: float = DEFAULT_CDF_TOL,
    rng: np.random.Generator | None = None,
) -> float:
    """PWER(c) = sum_J pi_J * (1 - F_J(c_J)); zero-weight strata contribute 0."""
    weights = prevalence_weights(pi, len(model.strata))
    mask = weights > 0.0
    cdf = stratum_cdf_values(c, model, tol, rng, mask=mask)
    return float(np.sum(weights[mask] * (1.0 - cdf[mask])))


@dataclass(frozen=True)
class CriticalValues:
    """Equal critical values calibrated so the estimated PWER hits alpha.

    The one result of every calibration engine. achieved is the solver's PWER
    at c; verified re-evaluates it independently (the exact engine uses a
    tighter tolerance and a fresh integration stream, the empirical engine
    repeats achieved). fwer holds the per-stratum rejection probability
    FWER_J(c) = 1 - F_J(c_J), NaN where a stratum has no defined joint law;
    gradient and true_pwer are both read off it.
    """

    c: np.ndarray
    alpha: float
    achieved: float
    verified: float
    fwer: np.ndarray
    evaluations: int

    @property
    def value(self) -> float:
        return float(self.c[0])

    def gradient(self, factors: np.ndarray | None = None) -> np.ndarray:
        """Gradient of the true-PWER map in the weights: factors_J * -FWER_J(c).

        factors are the chain-rule factors of a prevalence transformation
        (design.transform_weights); without them the map is untransformed.
        Every component lies in [-1, 0].
        """
        if factors is None:
            return -self.fwer
        return np.asarray(factors, float) * -self.fwer

    def true_pwer(self, pi) -> float:
        """PWER at c under the weights pi: sum_J pi_J * FWER_J(c).

        Strata without a defined law (NaN) add 0; callers give them no weight.
        """
        return float(np.nansum(prevalence_weights(pi, self.fwer.shape[0]) * self.fwer))


def solve_critical_values(
    pi,
    model: TestModel,
    alpha: float,
    solver_tol: float = DEFAULT_SOLVER_TOL,
    cdf_tol: float = DEFAULT_CDF_TOL,
    verify_tol: float = DEFAULT_VERIFY_TOL,
    rng: np.random.Generator | None = None,
) -> CriticalValues:
    """Find the shared critical value with PWER(c * 1) = alpha.

    Brackets with the single-test and Bonferroni-like quantiles, verifies both
    ends, then runs an Illinois iteration. All PWER evaluations inside one
    solve reuse one frozen integration seed, which makes the objective a
    smooth deterministic function of c, and one set of scrambled Sobol
    engines per QMC stratum, built by the first evaluation and rewound by
    the later ones. A final verification pass at verify_tol uses an
    independent stream and fresh engines.
    """
    weights = prevalence_weights(pi, len(model.strata))
    if not 0.0 < alpha < 0.5:
        raise ConfigError(f"alpha must lie in (0, 0.5), got {alpha}")
    if not np.any(weights > 0.0):
        raise ConfigError("prevalence vector has no positive component")

    seed = int((rng or np.random.default_rng(0)).integers(0, 2**63 - 1))
    mask = weights > 0.0
    pos_w = weights[mask]
    evaluations = 0
    engines: dict = {}

    def f(c: float) -> float:
        nonlocal evaluations
        evaluations += 1
        cdf = stratum_cdf_values(
            np.full(model.m, c), model, cdf_tol, np.random.default_rng(seed), mask=mask,
            engines=engines,
        )
        return float(np.sum(pos_w * (1.0 - cdf[mask]))) - alpha

    lo = model.tail_quantile(alpha)
    hi = model.tail_quantile(alpha / 2**model.m)
    slack = max(10.0 * solver_tol, 3.0 * cdf_tol)
    f_lo = f(lo)
    if f_lo < -slack:
        raise NumericalError(
            f"bracket failure: PWER({lo:.6f}) = {f_lo + alpha:.3e} already below alpha={alpha}"
        )
    if f_lo <= solver_tol:
        # the single-test bound is already exhausted (disjoint-population case)
        return _finish(lo, f_lo + alpha, weights, model, alpha, verify_tol, cdf_tol, seed, evaluations)
    f_hi = f(hi)
    if f_hi > slack:
        raise NumericalError(
            f"bracket failure: PWER({hi:.6f}) = {f_hi + alpha:.3e} still above alpha={alpha}"
        )
    if f_hi >= -solver_tol:
        return _finish(hi, f_hi + alpha, weights, model, alpha, verify_tol, cdf_tol, seed, evaluations)

    a, b, fa, fb = lo, hi, f_lo, f_hi
    side = 0
    c_star, f_star = a, fa
    for _ in range(_SOLVER_MAX_ITER):
        denom = fb - fa
        x = (a * fb - b * fa) / denom if denom != 0.0 else 0.5 * (a + b)
        if not a < x < b:
            x = 0.5 * (a + b)
        fx = f(x)
        if abs(fx) <= solver_tol:
            c_star, f_star = x, fx
            break
        if fx > 0.0:
            a, fa = x, fx
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = x, fx
            if side == 1:
                fa *= 0.5
            side = 1
        slope = abs(fb - fa) / max(b - a, 1e-300)
        if b - a <= _SOLVER_XTOL or (b - a) * slope <= solver_tol:
            c_star = 0.5 * (a + b)
            f_star = f(c_star)
            break
    else:
        raise NumericalError(
            f"critical value iteration did not converge within {_SOLVER_MAX_ITER} steps "
            f"(bracket [{a:.12f}, {b:.12f}])"
        )
    return _finish(c_star, f_star + alpha, weights, model, alpha, verify_tol, cdf_tol, seed, evaluations)


def _finish(
    c_star: float,
    achieved: float,
    weights: np.ndarray,
    model: TestModel,
    alpha: float,
    verify_tol: float,
    cdf_tol: float,
    seed: int,
    evaluations: int,
) -> CriticalValues:
    c_vec = np.full(model.m, c_star)
    verify_rng = np.random.default_rng(seed ^ 0x9E3779B97F4A7C15)
    fwer = 1.0 - stratum_cdf_values(c_vec, model, verify_tol, verify_rng)
    # strata without a defined law carry NaN and only ever zero weight here
    verified = float(np.nansum(weights * fwer))
    threshold = 3.0 * cdf_tol + 30.0 * verify_tol + 10.0 * abs(achieved - alpha)
    if abs(verified - alpha) > threshold:
        raise NumericalError(
            f"verification pass disagrees with the calibration: PWER={verified:.3e} vs alpha={alpha}"
        )
    return CriticalValues(
        c=c_vec,
        alpha=alpha,
        achieved=achieved,
        verified=verified,
        fwer=fwer,
        evaluations=evaluations,
    )


def delta_gamma(pi, gradient: np.ndarray) -> float:
    """Delta-method standard deviation: sqrt(g' (diag(pi) - pi pi') g).

    The multinomial covariance uses the untransformed prevalence estimate;
    transformations enter through the gradient factors instead.
    """
    g = np.asarray(gradient, dtype=float)
    w = prevalence_weights(pi, g.shape[0])
    # zero-weight strata cannot influence the covariance; this also keeps the
    # NaN gradients of strata without a defined law out of the quadratic form
    g = np.where(w > 0.0, g, 0.0)
    quad = float(np.dot(w, g * g) - np.dot(w, g) ** 2)
    if quad < -1e-14:
        raise NumericalError(f"negative delta-method quadratic form: {quad:.3e}")
    return float(np.sqrt(max(quad, 0.0)))


@dataclass(frozen=True)
class PredictionInterval:
    """Interval [alpha - z*gamma/sqrt(N), alpha + z*gamma/sqrt(N)]."""

    center: float
    half_width: float
    gamma: float
    alpha_prime: float
    N: int

    @property
    def lower(self) -> float:
        return self.center - self.half_width

    @property
    def upper(self) -> float:
        return self.center + self.half_width

    @property
    def length(self) -> float:
        return 2.0 * self.half_width

    def contains(self, x: float, atol: float = 1e-12) -> bool:
        # atol guards degenerate zero-width intervals against float rounding
        return self.lower - atol <= x <= self.upper + atol


def prediction_interval(alpha: float, alpha_prime: float, gamma: float, N: int) -> PredictionInterval:
    if not 0.0 < alpha < 1.0 or not 0.0 < alpha_prime < 1.0:
        raise ConfigError("alpha and alpha_prime must lie in (0, 1)")
    if N < 1:
        raise ConfigError(f"sample size must be >= 1, got {N}")
    if gamma < 0.0:
        raise ConfigError(f"gamma must be nonnegative, got {gamma}")
    z = mvprob.std_normal_quantile(1.0 - alpha_prime / 2.0)
    return PredictionInterval(
        center=float(alpha),
        half_width=float(z * gamma) / math.sqrt(N),
        gamma=float(gamma),
        alpha_prime=float(alpha_prime),
        N=int(N),
    )
