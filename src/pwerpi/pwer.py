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

# The smallest alpha the calibration resolves: below it 1 - F_J(c) carries too
# few significant digits of alpha (at 1e-12 the achieved PWER is off by 6e-5
# relative).
ALPHA_MIN = 1e-10

# Safeguarded secant: bracket width at which it stops, and its step limit.
_SOLVER_XTOL = 1e-12
_SOLVER_MAX_ITER = 200


@dataclass(frozen=True)
class TestModel:
    """Joint distribution of the population test statistics.

    kind is "normal" or "t" (df from build_test_model);
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
    design: Design, allow_empty_populations: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Correlation matrix of the population statistics and the variances V_i.

    The cell means are independent with variances s^2/n (s^2 =
    design.cell_variances), so the pooled contrasts have
    Cov = W diag(s^2/n) W^T (W from arm_weight_matrix; empty cells carry
    weight zero). V_i is its diagonal and the correlation its
    normalisation. A population with an empty arm raises
    InfeasibleDesignError; with allow_empty_populations its row and column
    hold NaN off-diagonal and NaN variance instead.
    """
    sizes = design.cell_sizes.astype(float)
    w = arm_weight_matrix(design)
    empty = np.isnan(w[:, 0])
    if empty.any() and not allow_empty_populations:
        i = int(np.argmax(empty))
        arm = "treatment" if design.treatment_member[i] @ design.cell_sizes == 0 else "control"
        raise InfeasibleDesignError(f"population {i + 1} has an empty {arm} arm")
    s2_over_n = np.divide(design.cell_variances, sizes, out=np.zeros_like(sizes), where=sizes > 0)
    cov = (w * s2_over_n) @ w.T
    v = np.diag(cov).copy()
    corr = cov / np.sqrt(np.outer(v, v))
    np.fill_diagonal(corr, 1.0)
    return corr, v


def build_test_model(
    design: Design, *, df: float | None = None, allow_empty_populations: bool = False
) -> TestModel:
    """Assemble the TestModel of the design's variances and variance mode.

    Known variances give a normal law; unknown homogeneous ones a t law with
    df = N minus the populated cells. Unknown heterogeneous variances have a
    t law only by approximation: df is that approximation's reference df
    (boot.build_satterthwaite_model), and no other mode takes one. With
    allow_empty_populations, strata touching a population with an empty arm
    get no joint law (stratum_corr entry None) instead of raising; they can
    only ever be evaluated with zero weight.
    """
    mode = design.variance_mode
    if df is not None and mode != "unknown_heterogeneous":
        raise ConfigError(f"a reference df applies to unknown heterogeneous variances, not {mode}")
    if mode in ("known_homogeneous", "known_heterogeneous"):
        kind = "normal"
    else:
        kind = "t"
        if mode == "unknown_homogeneous":
            df = float(design.N - design.positive_cell_count())
        elif df is None:
            raise ConfigError(
                "unknown heterogeneous variances have no closed-form joint law; "
                "use the bootstrap engine"
            )
        if df < 1.0:
            raise InfeasibleDesignError(f"t reference needs df >= 1, got {df}")

    corr, v = build_full_correlation(design, allow_empty_populations)
    # validate the populated block once; each stratum's matrix is a principal
    # submatrix of it, indexed by its members' positions in the block
    populated = np.flatnonzero(~np.isnan(v))
    block = mvprob.CorrelationMatrix(corr[np.ix_(populated, populated)]) if populated.size else None
    position = {int(i) + 1: k for k, i in enumerate(populated)}
    subs = []
    for stratum in design.strata:
        if stratum.issubset(position):
            subs.append(block.principal([position[i] for i in sorted(stratum)]))
        else:
            subs.append(None)
    return TestModel(
        kind=kind,
        df=df,
        m=design.m,
        strata=design.strata,
        full_corr=corr,
        stratum_corr=tuple(subs),
        population_variances=v,
    )


def test_statistics(design: Design, cell_means: np.ndarray) -> np.ndarray:
    """Standardized pooled treatment-control contrasts per population.

    cell_means is aligned with design.cells; a leading batch axis is allowed
    and preserved. Cells with no patients carry weight zero.
    """
    means = np.asarray(cell_means, dtype=float)
    v = build_full_correlation(design)[1]
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


def check_alpha(alpha: float) -> None:
    """Reject a familywise level outside [ALPHA_MIN, 0.5)."""
    if not ALPHA_MIN <= alpha < 0.5:
        raise ConfigError(f"alpha must lie in [{ALPHA_MIN:g}, 0.5), got {alpha}")


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

    Brackets with the single-test and Bonferroni-like quantiles and runs a
    safeguarded secant on the quantile scale, z(c) = Q(PWER(c)) - Q(alpha)
    with Q the marginal upper-tail quantile: z is nearly c - c* (exactly for
    disjoint populations), so the first step from the lower end takes slope
    one and the later ones the secant of the last two iterates. A step that
    leaves the bracket, or two steps that fail to halve it, bisect instead.
    The upper end is evaluated, and checked, only once a bisection or an
    exit needs it. All PWER evaluations inside one solve reuse one frozen
    integration seed, which makes the objective a deterministic function of
    c, and one set of scrambled Sobol engines per QMC stratum, built by the
    first evaluation and rewound by the later ones. A final verification
    pass at verify_tol uses an independent stream and fresh engines.

    The solve stops once |PWER - alpha| <= min(solver_tol, 1e-3 * alpha), so
    a small alpha is met to a relative precision too.
    """
    weights = prevalence_weights(pi, len(model.strata))
    check_alpha(alpha)
    if not np.any(weights > 0.0):
        raise ConfigError("prevalence vector has no positive component")

    seed = int((rng or np.random.default_rng(0)).integers(0, 2**63 - 1))
    mask = weights > 0.0
    pos_w = weights[mask]
    evaluations = 0
    engines: dict = {}

    def pwer_at(c: float) -> float:
        nonlocal evaluations
        evaluations += 1
        cdf = stratum_cdf_values(
            np.full(model.m, c), model, cdf_tol, np.random.default_rng(seed), mask=mask,
            engines=engines,
        )
        return float(np.sum(pos_w * (1.0 - cdf[mask])))

    q_alpha = _upper_quantile(model, alpha)

    def z(p: float) -> float:
        return _upper_quantile(model, p) - q_alpha

    def finish(c: float, p: float) -> CriticalValues:
        return _finish(c, p, weights, model, alpha, verify_tol, cdf_tol, seed, evaluations)

    lo = model.tail_quantile(alpha)
    hi = model.tail_quantile(alpha / 2**model.m)
    slack = max(10.0 * solver_tol, 3.0 * cdf_tol)
    f_tol = min(solver_tol, 1e-3 * alpha)
    p_lo = pwer_at(lo)
    if p_lo - alpha < -slack:
        raise NumericalError(
            f"bracket failure: PWER({lo:.6f}) = {p_lo:.3e} already below alpha={alpha}"
        )
    if p_lo - alpha <= f_tol:
        # the single-test bound is already exhausted (disjoint-population case)
        return finish(lo, p_lo)

    # [a, b] holds the root: PWER(a) > alpha, and PWER(b) < alpha once b is
    # evaluated; until then b = hi rests on the bracket's quantile bound
    a, p_a, b, p_b = lo, p_lo, hi, math.nan
    x_prev, z_prev = lo, z(p_lo)
    x = lo - z_prev
    widths = [b - a]
    for _ in range(_SOLVER_MAX_ITER):
        # bisect after a step out of the bracket or two steps that did not halve it
        if not a < x < b or (len(widths) > 2 and widths[-1] > 0.5 * widths[-3]):
            if math.isnan(p_b):
                p_b = pwer_at(hi)
                if p_b - alpha > slack:
                    raise NumericalError(
                        f"bracket failure: PWER({hi:.6f}) = {p_b:.3e} still above alpha={alpha}"
                    )
                if p_b - alpha >= -f_tol:
                    return finish(hi, p_b)
            x = 0.5 * (a + b)
        p = pwer_at(x)
        if abs(p - alpha) <= f_tol:
            return finish(x, p)
        if p > alpha:
            a, p_a = x, p
        else:
            b, p_b = x, p
        widths.append(b - a)
        if b - a <= _SOLVER_XTOL and not math.isnan(p_b):
            return finish(*min((a, p_a), (b, p_b), key=lambda e: abs(e[1] - alpha)))
        z_x = z(p)
        # a flat secant has no root; its infinite step leaves the bracket
        step = z_x * (x - x_prev) / (z_x - z_prev) if z_x != z_prev else math.inf
        x_prev, z_prev, x = x, z_x, x - step
    raise NumericalError(
        f"critical value iteration did not converge within {_SOLVER_MAX_ITER} steps "
        f"(bracket [{a:.12f}, {b:.12f}])"
    )


def _upper_quantile(model: TestModel, p: float) -> float:
    """Upper-tail quantile of p, finite for any p: the negated lower quantile, never 1 - p.

    p is clamped into [1e-100, 1 - 2^-53]; below 1e-100 the t quantile of
    small df can overflow to inf.
    """
    p = min(max(p, 1e-100), 1.0 - 2.0**-53)
    if model.kind == "t":
        return -mvprob.t_quantile(p, model.df)
    return -mvprob.std_normal_quantile(p)


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
