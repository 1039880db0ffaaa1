"""Resampling engines for the cases without a closed-form joint law.

Covers unknown heterogeneous variances under homogeneous null effects (a
Satterthwaite t-approximation and a parametric bootstrap of the global null)
and qualitative null-effect heterogeneity (a projection bootstrap that
redraws strata sizes and projects observed effects onto the null space).

Every engine works on a stack of runs. parametric_nulls and projection_nulls
draw each run's resamples from its own stream, in the order a run drawn
alone reads it, and then studentise the whole stack in one pass; the
stratum maxima, the empirical tail solve (solve_empirical_block) and the
FWER counts (null_fwers) each run once over the stack, and every row has the
bits of its run computed alone. A run that fails fails alone, with the
first error its own computation raises. The one-null functions
(bootstrap_null_D, bootstrap_null_E, solve_critical_empirical, fwer_curves)
are blocks of one of them. chunks() cuts a block of runs into
stacks that stay in cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import pwer
from .design import Design, cell_layout, prevalence_weights, stratum_members
from .errors import ConfigError, InfeasibleDesignError, NumericalError, PwerError

# redraw rounds for resamples with an empty population arm before giving up
_MAX_REDRAW_ROUNDS = 1000

# fewest resamples an empirical null may hold, and fewest expected resamples
# beyond the calibrated c (B * alpha) the empirical solver needs in the tail
MIN_RESAMPLES = 1000
MIN_TAIL_RESAMPLES = 20

# Bytes of resampled cell means one stack of runs holds: 4 runs at B = 2000
# and 6 cells, 1 run at B = 10^4. Stacks of more runs fall out of cache and
# run slower.
_CHUNK_BYTES = 384 * 1024


def chunks(runs: int, B: int, cells: int) -> list[slice]:
    """Consecutive slices of a block's runs, each holding at most _CHUNK_BYTES
    of (B, cells) resampled cell means, and at least one run."""
    size = max(1, _CHUNK_BYTES // (8 * int(B) * cells))
    return [slice(start, min(start + size, runs)) for start in range(0, runs, size)]


_SHAPE_MESSAGE = f"empirical null needs a (B, m) matrix with B >= {MIN_RESAMPLES}"


@dataclass(frozen=True)
class EmpiricalNull:
    """Resampled test statistics under the global null hypothesis."""

    statistics: np.ndarray  # (B, m)
    rejected_resamples: int = 0

    def __post_init__(self):
        stats = np.asarray(self.statistics, dtype=float)
        if stats.ndim != 2:
            raise ConfigError(_SHAPE_MESSAGE)
        failed = _checked(stats.T[None], {})
        if failed:
            raise failed[0]
        stats.setflags(write=False)
        object.__setattr__(self, "statistics", stats)

    @property
    def B(self) -> int:
        return self.statistics.shape[0]


class Nulls(NamedTuple):
    """The resampled null statistics of a stack of runs."""

    statistics: np.ndarray  # (R, m, B), population by population; a failed row's are undefined
    rejected: np.ndarray  # (R,) resamples redrawn for an empty population arm
    failed: dict[int, PwerError]  # row -> the first error its run raised


def _checked(statistics: np.ndarray, failed: dict) -> dict:
    """failed, with EmpiricalNull's checks on every other row of statistics
    (R, m, B): enough resamples, then finite statistics."""
    few = statistics.shape[2] < MIN_RESAMPLES
    bad = range(len(statistics)) if few else np.flatnonzero(~np.isfinite(statistics).all(axis=(1, 2))).tolist()
    for r in bad:
        if r not in failed:
            failed[r] = (ConfigError(_SHAPE_MESSAGE) if few
                         else NumericalError("empirical null contains non-finite statistics"))
    return failed


def _stack(null: EmpiricalNull) -> Nulls:
    """An EmpiricalNull as a stack of one run."""
    return Nulls(null.statistics.T[None], np.array([null.rejected_resamples]), {})


def _one(nulls: Nulls) -> EmpiricalNull:
    """The EmpiricalNull of a stack of one run, or the error it raised."""
    if nulls.failed:
        raise nulls.failed[0]
    return EmpiricalNull(nulls.statistics[0].T, int(nulls.rejected[0]))


def _maxima(statistics: np.ndarray) -> np.ndarray:
    """Each stratum's resample maxima (R, S, B) over its member populations of
    statistics (R, m, B) (design.stratum_members)."""
    return np.stack([statistics[:, members].max(axis=1) for members in stratum_members(statistics.shape[1])],
                    axis=1)


def _exceeding(maxima: np.ndarray, c: np.ndarray) -> np.ndarray:
    """FWER_J(c) of every stratum of every row: the share of its resample maxima
    (R, S, B) above that row's c (R,)."""
    return np.count_nonzero(maxima > c[:, None, None], axis=2) / maxima.shape[2]


def fwer_curves(null: EmpiricalNull) -> list[np.ndarray]:
    """Each stratum's resample maxima, sorted: its FWER step function FWER_J(c)."""
    return list(np.sort(_maxima(_stack(null).statistics), axis=2)[0])


def null_fwers(statistics: np.ndarray, c) -> np.ndarray:
    """FWER_J(c) (R, S) of every row of null statistics (R, m, B) at its c (R,),
    as CriticalValues.fwer stores it, with no sort."""
    return _exceeding(_maxima(statistics), np.asarray(c, dtype=float))


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
    contributing cell needs at least two patients, and every arm a patient
    (else the empty-arm error of pwer.build_test_model).
    """
    sizes = design.cell_sizes.astype(float)
    pooled = (design.treatment_member | design.control_member) & (sizes > 0)
    small = np.any(pooled & (sizes < 2), axis=1)
    if small.any():
        raise InfeasibleDesignError(
            f"population {int(np.argmax(small)) + 1} has a cell with fewer than 2 patients; "
            "sample variances are undefined"
        )
    w = pwer.arm_weight_matrix(design)
    empty = np.isnan(w).any(axis=1)
    if empty.any():
        raise pwer.empty_arm_error(design, empty)
    populated = sizes > 0
    inv_n = np.divide(1.0, sizes, out=np.zeros_like(sizes), where=populated)
    weights = w**2 * inv_n
    dfs = welch_df(design.cell_variances[populated], weights[:, populated], sizes[populated] - 1.0)
    return max(float(dfs.min()), 1.0)


def parametric_nulls(designs: Sequence[Design], B: int, rngs: Sequence[np.random.Generator]) -> Nulls:
    """bootstrap_null_D of every design of one cell layout, design r drawing from rngs[r].

    Each run draws its (B, cells) standard normals into one stack, which is
    scaled in place by s / sqrt(n) and studentised in one
    pwer.test_statistics_block call.
    """
    sizes = np.array([design.cell_sizes for design in designs], dtype=float)
    variances = np.array([design.cell_variances for design in designs])
    means = np.empty((len(designs), int(B), sizes.shape[1]))
    for out, rng in zip(means, rngs):
        rng.standard_normal(out=out)
    means *= np.where(sizes > 0, np.sqrt(variances / np.maximum(sizes, 1.0)), 0.0)[:, None, :]
    stats, failed = pwer.test_statistics_block(designs, means)
    return Nulls(stats, np.zeros(len(designs), dtype=int), _checked(stats, failed))


def bootstrap_null_D(design: Design, B: int, rng: np.random.Generator) -> EmpiricalNull:
    """Parametric bootstrap of the global null with the design's observed cell variances.

    Each resample draws every populated cell mean from N(0, s^2/n) and
    studentizes with the V_i built from the same observed variances. A block
    of one of parametric_nulls.
    """
    return _one(parametric_nulls([design], B, [rng]))


def solve_empirical_block(nulls: Nulls, weights: np.ndarray, alpha: float) -> list[pwer.CriticalValues | PwerError]:
    """solve_critical_empirical of every row of nulls at the prevalence weights
    (R, S) of its row (each as prevalence_weights passes it), or the error of
    that row: the row's own from nulls.failed, else one for a row with no
    positive weight.

    The stratum maxima of the rows are one (R, S, B) array, and their tails
    merge in one pass (_tail_roots); FWER_J(c*) is one count over it.
    """
    R, m, B = nulls.statistics.shape
    pwer.check_alpha(alpha)
    if B * alpha < MIN_TAIL_RESAMPLES:
        raise ConfigError(
            f"B*alpha = {B * alpha:.1f} < {MIN_TAIL_RESAMPLES}: "
            "not enough resamples to resolve the tail"
        )
    out: list = [nulls.failed.get(r) for r in range(R)]
    for r in np.flatnonzero(~(weights > 0.0).any(axis=1)).tolist():
        if out[r] is None:
            out[r] = ConfigError("prevalence vector has no positive component")
    rows = [r for r in range(R) if out[r] is None]
    if not rows:
        return out
    maxima = _maxima(nulls.statistics if len(rows) == R else nulls.statistics[rows])
    weights = weights[rows]
    # at q no stratum rejects more than T/B of its resamples, so with weights
    # summing to one only a T above alpha * B can hold the root
    c_star = _tail_roots(maxima, weights, alpha, 2 * int(alpha * B))
    fwer = _exceeding(maxima, c_star)
    for k, r in enumerate(rows):
        achieved = float(np.dot(weights[k], fwer[k]))
        out[r] = pwer.CriticalValues(
            c=np.full(m, c_star[k]), alpha=alpha, achieved=achieved, verified=achieved, fwer=fwer[k], evaluations=0
        )
    return out


def solve_critical_empirical(null: EmpiricalNull, pi_hat, alpha: float) -> pwer.CriticalValues:
    """Smallest shared c with empirical PWER(c) <= alpha.

    The empirical PWER is the pi-weighted mix of the per-stratum rejection
    step functions; the root is reported as the midpoint of the bracketing
    order statistics, so the conservative side of the step is guaranteed.
    A block of one of solve_empirical_block.
    """
    weights = prevalence_weights(pi_hat, 2 ** null.statistics.shape[1] - 1)
    [cv] = solve_empirical_block(_stack(null), weights[None], alpha)
    if isinstance(cv, Exception):
        raise cv
    return cv


def _tail_roots(maxima: np.ndarray, weights: np.ndarray, alpha: float, T: int) -> np.ndarray:
    """The empirical c* of every row of stratum maxima (R, S, B) at its weights
    (R, S), each with at least one positive weight.

    Only the merged upper tail of a row's live strata is read: one partition
    puts each stratum's T largest maxima on top, and q is the largest of the
    live strata's T-th largest. Every maximum above q is in the tail, so the
    weight above each value from q up is that of the full set; the atoms at q
    itself may be cut, but no result reads their weight. The tail is kept
    once its lowest value (q) is infeasible, which puts the root above it;
    otherwise the row is solved again at 4T, up to the full set. The rows'
    tails, each stratum's sorted, are one (R, S * T) window, the values below
    q and those of strata without weight masked to -inf with weight 0,
    merged by one stable argsort along the rows. Each value keeps its atoms
    in the full set's stable order (a stratum's equal values weigh the same,
    so their order within it does not matter), their weights summed in that
    order by one bincount, and the weight above a value sums from the top,
    so each row equals its full-set solve bit for bit.
    """
    R, S, B = maxima.shape
    live = weights > 0.0
    K = min(T, B)
    if T < B:
        maxima = np.partition(maxima, B - T, axis=2)
        q = np.where(live, maxima[:, :, B - T], -np.inf).max(axis=1)
        cut = (live & (maxima[:, :, :B - T].min(axis=2) < q[:, None])).any(axis=1)  # a live maximum below q
    else:
        q, cut = np.full(R, -np.inf), np.zeros(R, dtype=bool)
    window = np.sort(maxima[:, :, B - K:], axis=2)  # sorted runs merge fast
    inside = ((window >= q[:, None, None]) & live[:, :, None]).reshape(R, S * K)
    values = np.where(inside, window.reshape(R, S * K), -np.inf)
    atoms = np.where(inside, np.repeat(weights / B, K, axis=1), 0.0)
    width = S * K
    base = width * np.arange(R)[:, None]
    order = np.argsort(values, axis=1, kind="stable") + base
    values, atoms = values.ravel()[order], atoms.ravel()[order]
    # each row's distinct values and each value's group, as np.unique gives them:
    # the values are sorted, so a group starts wherever a value differs from the last
    first = np.ones(values.shape, dtype=bool)
    first[:, 1:] = values[:, 1:] != values[:, :-1]
    group = np.cumsum(first, axis=1) - 1
    group_w = np.bincount((group + base).ravel(), weights=atoms.ravel(), minlength=R * width).reshape(R, width)
    # weight > each group's value: the zero weights of the unused groups sum first
    above = np.zeros((R, width))
    above[:, :-1] = np.cumsum(group_w[:, ::-1], axis=1)[:, ::-1][:, 1:]
    # a -inf group (masked values) leads a row; `above` is nonincreasing and ends at 0
    masked = values[:, 0] == -np.inf
    g = np.maximum(np.argmax(above <= alpha + 1e-15, axis=1), masked)
    widen = (g == masked) & cut
    starts = np.flatnonzero(first)  # each group's first value, row after row
    n_groups = group[:, -1] + 1
    offset = np.cumsum(n_groups) - n_groups
    flat = values.ravel()
    low = flat[starts[offset + g]]
    high = flat[starts[offset + np.minimum(g + 1, n_groups - 1)]]
    c_star = np.where(g + 1 < n_groups, 0.5 * (low + high), low + 1.0)
    if widen.any():
        c_star[widen] = _tail_roots(maxima[widen], weights[widen], alpha, 4 * T)
    return c_star


def project_to_null(effects: np.ndarray, weights: np.ndarray, m: int) -> np.ndarray:
    """Euclidean projection onto {theta : sum_{J containing i} w_J theta_J = 0}."""
    theta = np.asarray(effects, dtype=float)
    # (m, S), C-ordered: pinv of the Fortran-ordered transpose differs in the last bits
    constraint = np.ascontiguousarray(np.where(stratum_members(m).T, np.asarray(weights, dtype=float), 0.0))
    return theta - np.linalg.pinv(constraint) @ (constraint @ theta)


def projection_nulls(
    designs: Sequence[Design],
    pi_hat: np.ndarray,
    observed_effects: Sequence[np.ndarray],
    pooled_variances: Sequence[float],
    B: int,
    rngs: Sequence[np.random.Generator],
) -> Nulls:
    """bootstrap_null_E of every design of one cell layout, design r with pi_hat[r],
    observed_effects[r] and pooled_variances[r], drawing from rngs[r].

    Each run checks its inputs and projects its effects alone, then draws from
    its stream in a run's order: the strata sizes, its redraw rounds, the
    normals. The cell sizes and totals of the stack are (R, B, cells), as the
    normals are drawn; the empty-arm checks go round by round over the
    stack, and the contrasts are one matmul over it: at m = 2 each arm sums
    at most two nonzero cells, so every order gives the same bits.
    """
    if designs[0].m != 2:
        raise ConfigError("the projection bootstrap supports exactly two populations")
    layout = cell_layout(2, designs[0].treatment_scheme)
    R, B, S, cells = len(designs), int(B), len(layout.strata), len(layout.cells)
    failed: dict[int, PwerError] = {}
    weights = np.zeros((R, S))
    centers = np.zeros((R, 1, cells))
    is_control = layout.control_member.any(axis=0)
    for r in range(R):
        try:
            if pooled_variances[r] <= 0.0:
                raise ConfigError(f"pooled variance must be positive, got {pooled_variances[r]}")
            weights[r] = prevalence_weights(pi_hat[r], S)
            theta = project_to_null(observed_effects[r], weights[r], 2)
            centers[r, 0] = np.where(is_control, 0.0, theta[layout.stratum_of_cell])
        except pwer.RUN_ERRORS as exc:
            failed[r] = exc
    counts = np.zeros((R, B, S), dtype=np.int64)
    for r in range(R):
        if r not in failed:
            counts[r] = rngs[r].multinomial(designs[r].N, weights[r], size=B)
    t_member = layout.treatment_member.T.astype(float)
    c_member = layout.control_member.T.astype(float)
    cell_n = layout.split_counts(counts).astype(float)
    n_t, n_c = cell_n @ t_member, cell_n @ c_member
    empty = (n_t == 0) | (n_c == 0)
    rejected = np.zeros(R, dtype=int)
    pending = np.array([r for r in np.flatnonzero(empty.any(axis=(1, 2))).tolist() if r not in failed], dtype=int)
    for _ in range(_MAX_REDRAW_ROUNDS - 1):
        if not pending.size:
            break
        for r in pending.tolist():
            redraw = empty[r].any(axis=1)
            rejected[r] += int(redraw.sum())
            counts[r, redraw] = rngs[r].multinomial(designs[r].N, weights[r], size=int(redraw.sum()))
        cell_n[pending] = layout.split_counts(counts[pending])
        n_t[pending], n_c[pending] = cell_n[pending] @ t_member, cell_n[pending] @ c_member
        empty[pending] = (n_t[pending] == 0) | (n_c[pending] == 0)
        pending = pending[empty[pending].any(axis=(1, 2))]
    for r in pending.tolist():
        failed[r] = NumericalError("projection bootstrap kept producing empty population arms")

    drawn = [r for r in range(R) if r not in failed]
    normals = np.empty((len(drawn), B, cells))
    for out, r in zip(normals, drawn):
        rngs[r].standard_normal(out=out)
    if len(drawn) < R:
        cell_n, n_t, n_c, centers = cell_n[drawn], n_t[drawn], n_c[drawn], centers[drawn]
    pooled = np.asarray(pooled_variances, dtype=float)[drawn, None, None]
    # the cell totals n * (center + normal * sqrt(pooled variance / n)), in place
    totals = np.divide(pooled, cell_n, out=np.zeros_like(cell_n), where=cell_n > 0)
    np.sqrt(totals, out=totals)
    totals *= normals
    totals += centers
    totals *= cell_n
    # pooled contrasts with the redrawn sizes; homogeneous pooled variance
    contrast = totals @ t_member / n_t - totals @ c_member / n_c
    stats = np.full((R, 2, B), np.nan)
    stats[drawn] = (contrast / np.sqrt(pooled * (1.0 / n_t + 1.0 / n_c))).transpose(0, 2, 1)
    return Nulls(stats, rejected, _checked(stats, failed))


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
    A block of one of projection_nulls.
    """
    return _one(projection_nulls([design], [pi_hat], [observed_effects], [pooled_variance], B, [rng]))


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
