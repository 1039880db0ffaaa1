"""Resampling engines for the cases without a closed-form joint law.

Covers unknown heterogeneous variances under homogeneous null effects (a
Satterthwaite t-approximation and a parametric bootstrap of the global null)
and qualitative null-effect heterogeneity (a projection bootstrap that
redraws strata sizes and projects observed effects onto the null space).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pwer
from .design import Design, prevalence_weights, stratum_members
from .errors import ConfigError, InfeasibleDesignError, NumericalError

# redraw rounds for resamples with an empty population arm before giving up
_MAX_REDRAW_ROUNDS = 1000

# fewest resamples an empirical null may hold, and fewest expected resamples
# beyond the calibrated c (B * alpha) the empirical solver needs in the tail
MIN_RESAMPLES = 1000
MIN_TAIL_RESAMPLES = 20


@dataclass(frozen=True)
class EmpiricalNull:
    """Resampled test statistics under the global null hypothesis."""

    statistics: np.ndarray  # (B, m)
    rejected_resamples: int = 0

    def __post_init__(self):
        stats = np.asarray(self.statistics, dtype=float)
        if stats.ndim != 2 or stats.shape[0] < MIN_RESAMPLES:
            raise ConfigError(f"empirical null needs a (B, m) matrix with B >= {MIN_RESAMPLES}")
        if not np.all(np.isfinite(stats)):
            raise NumericalError("empirical null contains non-finite statistics")
        stats.setflags(write=False)
        object.__setattr__(self, "statistics", stats)

    @property
    def B(self) -> int:
        return self.statistics.shape[0]


def _stratum_maxima(null: EmpiricalNull) -> list[np.ndarray]:
    """Each stratum's resample maxima over its member statistics (design.stratum_members)."""
    return [null.statistics[:, members].max(axis=1) for members in stratum_members(null.statistics.shape[1])]


def fwer_curves(null: EmpiricalNull) -> list[np.ndarray]:
    """Each stratum's resample maxima, sorted: its FWER step function FWER_J(c)."""
    return [np.sort(maxima) for maxima in _stratum_maxima(null)]


def _exceeding(maxima: list[np.ndarray], c: float, B: int) -> np.ndarray:
    """FWER_J(c) of every stratum: the share of its B resample maxima above c."""
    return np.array([np.count_nonzero(m > c) / B for m in maxima])


def null_fwer(null: EmpiricalNull, c: float) -> np.ndarray:
    """FWER_J(c) of every stratum, as CriticalValues.fwer stores it, with no sort."""
    return _exceeding(_stratum_maxima(null), c, null.B)


def welch_df(
    variances: np.ndarray, weights: np.ndarray, cell_dfs: np.ndarray
) -> float | np.ndarray:
    """Welch-Satterthwaite effective degrees of freedom of sum_k w_k s_k^2.

    A 2-D weights array gives one df per row.
    """
    q = weights * variances
    return q.sum(axis=-1) ** 2 / np.sum(q**2 / cell_dfs, axis=-1)


def satterthwaite_df(design: Design) -> float:
    """Shared t degrees of freedom: the minimum of the per-population Welch dfs, at least 1
    (a Welch df is never below its smallest cell df; the bound catches rounding).

    Population i combines the per-cell contributions q = W^2 s^2/n to its V_i
    (W from pwer.arm_weight_matrix, s^2 the design's sample variances); every
    contributing cell needs at least two patients.
    """
    sizes = design.cell_sizes.astype(float)
    pooled = (design.treatment_member | design.control_member) & (sizes > 0)
    small = np.any(pooled & (sizes < 2), axis=1)
    if small.any():
        raise InfeasibleDesignError(
            f"population {int(np.argmax(small)) + 1} has a cell with fewer than 2 patients; "
            "sample variances are undefined"
        )
    populated = sizes > 0
    inv_n = np.divide(1.0, sizes, out=np.zeros_like(sizes), where=populated)
    weights = pwer.arm_weight_matrix(design) ** 2 * inv_n
    dfs = welch_df(design.cell_variances[populated], weights[:, populated], sizes[populated] - 1.0)
    return max(float(dfs.min()), 1.0)


def bootstrap_null_D(design: Design, B: int, rng: np.random.Generator) -> EmpiricalNull:
    """Parametric bootstrap of the global null with the design's observed cell variances.

    Each resample draws every populated cell mean from N(0, s^2/n) and
    studentizes with the V_i built from the same observed variances.
    """
    sizes = design.cell_sizes.astype(float)
    scale = np.where(sizes > 0, np.sqrt(design.cell_variances / np.maximum(sizes, 1.0)), 0.0)
    means = rng.standard_normal((int(B), len(design.cells))) * scale[None, :]
    stats = pwer.test_statistics(design, means)
    return EmpiricalNull(statistics=stats)


def solve_critical_empirical(null: EmpiricalNull, pi_hat, alpha: float) -> pwer.CriticalValues:
    """Smallest shared c with empirical PWER(c) <= alpha.

    The empirical PWER is the pi-weighted mix of the per-stratum rejection
    step functions; the root is reported as the midpoint of the bracketing
    order statistics, so the conservative side of the step is guaranteed.

    Only the merged upper tail of the live strata's maxima is read: every
    maximum at or above q, the largest of their T-th largest maxima, ties at
    q included. The tail is kept once its lowest value is infeasible, which
    puts the root inside it; otherwise T grows, up to the full set. The tail
    holds each value above q whole, in the full set's stable order, and the
    weight above a value sums from the top, so the result equals the
    full-set one bit for bit.
    """
    B, m = null.statistics.shape
    weights = prevalence_weights(pi_hat, 2**m - 1)
    pwer.check_alpha(alpha)
    if B * alpha < MIN_TAIL_RESAMPLES:
        raise ConfigError(
            f"B*alpha = {B * alpha:.1f} < {MIN_TAIL_RESAMPLES}: "
            "not enough resamples to resolve the tail"
        )
    live = np.flatnonzero(weights > 0.0)
    if not live.size:
        raise ConfigError("prevalence vector has no positive component")
    curves = fwer_curves(null)
    maxima = [curves[j] for j in live]
    # at q no stratum rejects more than T/B of its resamples, so with weights
    # summing to one only a T above alpha * B can hold the root
    T = 2 * int(alpha * B)
    while True:
        q = max(s[B - T] for s in maxima) if T < B else -np.inf
        cuts = np.array([np.searchsorted(s, q) for s in maxima])
        values = np.concatenate([s[k:] for s, k in zip(maxima, cuts)])
        atom_w = np.repeat(weights[live] / B, B - cuts)
        order = np.argsort(values, kind="stable")
        values = values[order]
        # the distinct values and each value's group, as np.unique gives them: the
        # values are sorted, so a group starts wherever a value differs from the last
        first = np.concatenate(([True], values[1:] != values[:-1]))
        uniq, inverse = values[first], np.cumsum(first) - 1
        group_w = np.bincount(inverse, weights=atom_w[order])
        above = np.concatenate([np.cumsum(group_w[::-1])[::-1], [0.0]])[1:]  # weight > uniq[g]
        # `above` is nonincreasing and ends at 0, so the first True exists
        g = int(np.argmax(above <= alpha + 1e-15))
        if g > 0 or not cuts.any():
            break
        T *= 4
    c_star = float(0.5 * (uniq[g] + uniq[g + 1])) if g + 1 < uniq.shape[0] else float(uniq[g] + 1.0)
    fwer = _exceeding(curves, c_star, B)
    achieved = float(np.dot(weights, fwer))
    return pwer.CriticalValues(
        c=np.full(m, c_star),
        alpha=alpha,
        achieved=achieved,
        verified=achieved,
        fwer=fwer,
        evaluations=0,
    )


def project_to_null(effects: np.ndarray, weights: np.ndarray, m: int) -> np.ndarray:
    """Euclidean projection onto {theta : sum_{J containing i} w_J theta_J = 0}."""
    theta = np.asarray(effects, dtype=float)
    # (m, S), C-ordered: pinv of the Fortran-ordered transpose differs in the last bits
    constraint = np.ascontiguousarray(np.where(stratum_members(m).T, np.asarray(weights, dtype=float), 0.0))
    return theta - np.linalg.pinv(constraint) @ (constraint @ theta)


def bootstrap_null_E(
    design: Design,
    pi_hat,
    observed_effects: np.ndarray,
    pooled_variance: float,
    B: int,
    rng: np.random.Generator,
) -> EmpiricalNull:
    """Projection bootstrap for qualitative effect heterogeneity (two populations).

    Every resample redraws the strata sizes from multinomial(N, pi_hat),
    reallocates arms evenly, and draws cell means around the observed effects
    projected onto the null space, studentized with the observed pooled
    variance. Resamples with an empty population arm are redrawn and counted.
    """
    if design.m != 2:
        raise ConfigError("the projection bootstrap supports exactly two populations")
    if pooled_variance <= 0.0:
        raise ConfigError(f"pooled variance must be positive, got {pooled_variance}")
    weights = prevalence_weights(pi_hat, design.n_strata)
    theta = project_to_null(observed_effects, weights, design.m)

    n_cells = len(design.cells)
    centers = np.where(design.control_member.any(axis=0), 0.0, theta[design.stratum_of_cell])
    t_member = design.treatment_member.T.astype(float)
    c_member = design.control_member.T.astype(float)

    B = int(B)
    counts = rng.multinomial(design.N, weights, size=B)
    rejected = 0
    for _ in range(_MAX_REDRAW_ROUNDS):
        cell_n = design.split_counts(counts).astype(float)
        n_t = cell_n @ t_member
        n_c = cell_n @ c_member
        if n_t.all() and n_c.all():
            break
        bad = ((n_t == 0) | (n_c == 0)).any(axis=1)
        rejected += int(bad.sum())
        counts[bad] = rng.multinomial(design.N, weights, size=int(bad.sum()))
    else:
        raise NumericalError("projection bootstrap kept producing empty population arms")

    scale = np.sqrt(np.divide(pooled_variance, cell_n, out=np.zeros_like(cell_n), where=cell_n > 0))
    means = centers[None, :] + rng.standard_normal((B, n_cells)) * scale

    # pooled contrasts with the redrawn sizes; homogeneous pooled variance
    totals = means * cell_n
    contrast = totals @ t_member / n_t - totals @ c_member / n_c
    z = contrast / np.sqrt(pooled_variance * (1.0 / n_t + 1.0 / n_c))
    return EmpiricalNull(statistics=z, rejected_resamples=rejected)


def generate_setting_E_study(
    pi_true,
    design: Design,
    sigma: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Draw one qualitatively heterogeneous study at the global null boundary.

    The overlap-stratum effect is uniform on (-1, 1); the singleton effects
    solve the prevalence-weighted zero-mean constraints. Returns the observed
    per-stratum effect estimates and a pooled sample variance.
    """
    if design.m != 2:
        raise ConfigError("setting E studies are defined for exactly two populations")
    if sigma <= 0.0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    pi = prevalence_weights(pi_true, design.n_strata)
    if pi[0] <= 0.0 or pi[1] <= 0.0:
        raise ConfigError("both singleton strata need positive true prevalence")
    theta = np.empty(3)
    theta[2] = rng.uniform(-1.0, 1.0)
    theta[0] = -pi[2] / pi[0] * theta[2]
    theta[1] = -pi[2] / pi[1] * theta[2]

    stratum_of_cell = design.stratum_of_cell
    is_control = design.control_member.any(axis=0)
    sizes = design.cell_sizes.astype(float)
    centers = np.where(is_control, 0.0, theta[stratum_of_cell])
    scale = np.sqrt(np.divide(sigma**2, sizes, out=np.zeros_like(sizes), where=sizes > 0))
    means = centers + rng.standard_normal(len(design.cells)) * scale

    observed = np.zeros(design.n_strata)
    for j, stratum in enumerate(design.strata):
        if design.strata_counts[j] == 0:
            continue
        in_stratum = stratum_of_cell == j
        t_cells = np.flatnonzero(in_stratum & ~is_control & (sizes > 0))
        c_cell = np.flatnonzero(in_stratum & is_control)[0]
        if not t_cells.size or sizes[c_cell] == 0:
            raise InfeasibleDesignError(
                f"stratum {sorted(stratum)} has patients but an empty arm"
            )
        observed[j] = means[t_cells].mean() - means[c_cell]

    df = design.residual_df
    if df < 1:
        raise InfeasibleDesignError("no residual degrees of freedom for the pooled variance")
    pooled_variance = sigma**2 * rng.chisquare(df) / df
    return observed, float(pooled_variance)
