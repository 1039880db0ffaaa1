"""Population-wise error rate: correlation structure, calibration, intervals.

Given a realized Design, the joint law of the population test statistics is a
multivariate normal (known variances) or t (unknown homogeneous variances)
with the correlation matrix determined by the cell sizes and variances. This
module builds that model, evaluates PWER(c) = sum_J pi_J (1 - F_J(c_J)),
calibrates the shared critical value, and turns the PWER gradient into the
delta-method prediction interval for the true PWER. A model carries one
validated m x m correlation matrix, and each stratum's law has the principal
submatrix on its members. Many calibrations run in lockstep
(solve_lockstep), and a single solve is a lockstep of one. The block is
planned once (_Plan): the runs' matrices stacked once, every stratum of
every run sliced from that stack, grouped by law, dimension and chi-scale
rule into mvprob.OrthantGroups, and every run's weights. Each step
evaluates the strata of every unfinished run in one stacked pass
(_evaluate: one OrthantGroup.evaluate per group; only the strata it leaves
undecided go to mvprob.qmc_cdf, per run, each with a CorrelationMatrix of
its own) and
sums their PWERs in one stacked pass; one array secant steps every run's
c at once (_Secants, _step), in masked numpy operations with the bits of
each run's scalar solve. The finished runs take one stacked verify pass
(_verify). The interval's pieces come stacked too
(delta_gammas, prediction_intervals, true_pwers), one row per run, as do
the test statistics of a stack of bootstrap nulls (test_statistics_block);
the one-run functions are rows of one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import special

from . import mvprob
from .design import Design, prevalence_weights, stratum_members, weight_errors
from .errors import ConfigError, InfeasibleDesignError, NumericalError, PwerError

DEFAULT_SOLVER_TOL = 1e-8
DEFAULT_CDF_TOL = 1e-6
DEFAULT_VERIFY_TOL = 1e-7

# The smallest alpha the calibration resolves: below it 1 - F_J(c) carries too
# few significant digits of alpha (at 1e-12 the achieved PWER is off by 6e-5
# relative).
ALPHA_MIN = 1e-10

# The errors that end one run's calibration and leave the other runs of its
# lockstep running.
RUN_ERRORS = (PwerError, np.linalg.LinAlgError)

# Safeguarded secant: bracket width at which it stops, and its step limit.
_SOLVER_XTOL = 1e-12
_SOLVER_MAX_ITER = 200


@dataclass(frozen=True)
class TestModel:
    """Joint distribution of the population test statistics.

    df is the t law's df (from build_test_model), None for the normal law;
    full_corr is the m x m correlation matrix of the pooled contrasts, whose
    covariance is W diag(s^2/n) W^T (see _full_correlations), validated
    by mvprob.correlation_matrices (read-only, exactly symmetric, unit
    diagonal); the off-diagonal entries of a population with an empty arm
    are NaN. Each stratum's joint law has as correlation the principal
    submatrix on its members. population_variances holds the V_i used to
    standardize the statistics, NaN where a population has an empty arm.
    """

    df: float | None
    m: int
    strata: tuple[frozenset[int], ...]
    full_corr: np.ndarray
    population_variances: np.ndarray

    @property
    def kind(self) -> str:  # the marginal law
        return "normal" if self.df is None else "t"

    def density(self, x: float) -> float:
        """The marginal law's density at x."""
        if self.kind == "t":
            df = self.df
            log_norm = math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
            return math.exp(log_norm - 0.5 * (df + 1.0) * math.log1p(x * x / df))
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def defined_strata(variances: np.ndarray) -> np.ndarray:
    """Which strata have a defined joint law (R, S), from the population
    variances (R, m) of R runs: those whose members all have a variance."""
    return ~(np.isnan(variances)[:, None, :] & stratum_members(variances.shape[1])).any(axis=2)


def arm_weight_matrix(design: Design, sizes: np.ndarray | None = None) -> np.ndarray:
    """Signed pooling weights W: the pooled contrasts are cell_means @ W.T.

    Row i carries n_cell/n_{i,T} on population i's treatment cells and
    -n_cell/n_{i,C} on its control cells (design.treatment_member and
    control_member); the row of a population with an empty arm is NaN.
    sizes (..., cells) replaces design.cell_sizes with cell sizes of the same
    layout, one W per leading index.
    """
    sizes = (design.cell_sizes if sizes is None else sizes).astype(float)[..., None, :]
    treated = design.treatment_member * sizes
    control = design.control_member * sizes
    with np.errstate(invalid="ignore"):  # 0/0 on the rows of empty arms
        treated /= treated.sum(axis=-1, keepdims=True)
        control /= control.sum(axis=-1, keepdims=True)
    return treated - control


def _full_correlations(designs: Sequence[Design]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Correlations (R, m, m) and variances V_i (R, m) of the population statistics of
    designs of one cell layout, and their pooling weights W (R, m, cells).

    The cell means are independent with variances s^2/n (s^2 = design.cell_variances),
    so the pooled contrasts have Cov = W diag(s^2/n) W^T (W from arm_weight_matrix; empty
    cells carry weight zero), one stacked product for all designs. V_i is its diagonal and
    the correlation its normalisation; a population with an empty arm has NaN variance and
    NaN off-diagonal correlations.
    """
    sizes = np.array([design.cell_sizes for design in designs], dtype=float)
    w = arm_weight_matrix(designs[0], sizes)
    variances = np.array([design.cell_variances for design in designs])
    s2_over_n = np.divide(variances, sizes, out=np.zeros_like(sizes), where=sizes > 0)
    cov = (w * s2_over_n[:, None, :]) @ w.transpose(0, 2, 1)
    v = np.diagonal(cov, axis1=1, axis2=2).copy()
    corr = cov / np.sqrt(v[:, :, None] * v[:, None, :])
    corr[:, range(v.shape[1]), range(v.shape[1])] = 1.0
    return corr, v, w


def empty_arm_error(design: Design, empty: np.ndarray) -> InfeasibleDesignError:
    """The error of a design whose populations empty (m,) have an empty arm, naming the first."""
    i = int(np.argmax(empty))
    arm = "treatment" if design.treatment_member[i] @ design.cell_sizes == 0 else "control"
    return InfeasibleDesignError(f"population {i + 1} has an empty {arm} arm")


def _law(design: Design, df: float | None) -> float | None:
    """The df of build_test_model, None for the normal law."""
    mode = design.variance_mode
    if df is not None and mode != "unknown_heterogeneous":
        raise ConfigError(f"a reference df applies to unknown heterogeneous variances, not {mode}")
    if mode in ("known_homogeneous", "known_heterogeneous"):
        return None
    if mode == "unknown_homogeneous":
        df = float(design.residual_df)
    elif df is None:
        raise ConfigError(
            "unknown heterogeneous variances have no closed-form joint law; "
            "use the bootstrap engine"
        )
    if df < 1.0:
        raise InfeasibleDesignError(f"t reference needs df >= 1, got {df}")
    mvprob.check_df(df)
    return df


def build_test_models(
    designs: Sequence[Design],
    dfs: Sequence[float | None] | None = None,
    allow_empty_populations: bool = False,
) -> list[TestModel | Exception]:
    """build_test_model of every design (with dfs[r] as its df): its TestModel,
    or the error that call raises.

    Designs of one cell layout share one stacked W diag(s^2/n) W^T, and their
    correlations are validated in one stacked check
    (mvprob.correlation_matrices), the rows and columns of populations with
    an empty arm standing in as the identity's, so that the populated block
    alone is checked. Every model equals its own build_test_model call bit
    for bit.
    """
    out: list = [None] * len(designs)
    laws = {}
    for r, (design, df) in enumerate(zip(designs, dfs or [None] * len(designs))):
        try:
            laws[r] = _law(design, df)
        except RUN_ERRORS as exc:
            out[r] = exc
    layouts: dict[tuple, list[int]] = {}
    for r in laws:
        layouts.setdefault((designs[r].m, designs[r].treatment_scheme), []).append(r)
    for rows in layouts.values():
        corrs, variances, _ = _full_correlations([designs[r] for r in rows])
        empty = np.isnan(variances)
        m = empty.shape[1]
        off = (empty[:, :, None] | empty[:, None, :]) & ~np.eye(m, dtype=bool)
        checked, failed = mvprob.correlation_matrices(np.where(off, 0.0, corrs))
        full = np.where(off, math.nan, checked)
        full.setflags(write=False)
        for k, r in enumerate(rows):
            if empty[k].any() and not allow_empty_populations:
                out[r] = empty_arm_error(designs[r], empty[k])
            elif k in failed:
                out[r] = failed[k]
            else:
                out[r] = TestModel(laws[r], m, designs[r].strata, full[k], variances[k])
    return out


def build_test_model(
    design: Design, *, df: float | None = None, allow_empty_populations: bool = False
) -> TestModel:
    """Assemble the TestModel of the design's variances and variance mode.

    Known variances give a normal law; unknown homogeneous ones a t law with
    df = N minus the populated cells. Unknown heterogeneous variances have a
    t law only by approximation: df is that approximation's reference df
    (boot.satterthwaite_df), and no other mode takes one. With
    allow_empty_populations, strata touching a population with an empty arm
    get no joint law (defined_strata False) instead of raising; they can
    only ever be evaluated with zero weight. A block of one of
    build_test_models.
    """
    [model] = build_test_models([design], [df], allow_empty_populations)
    if isinstance(model, Exception):
        raise model
    return model


def test_statistics_block(
    designs: Sequence[Design], cell_means: np.ndarray
) -> tuple[np.ndarray, dict[int, InfeasibleDesignError]]:
    """The standardized pooled treatment-control contrasts of every design of
    one cell layout on its own cell means (R, B, cells), population by
    population: (R, m, B), and the error of each row whose design has a
    population with an empty arm (its row is NaN). Cells with no patients
    carry weight zero.

    W and the V_i are one _full_correlations call over the designs, and the
    contrasts one stacked matmul; each row has the bits of its own call.
    """
    _, v, w = _full_correlations(designs)
    empty = np.isnan(v)
    failed = {r: empty_arm_error(designs[r], empty[r]) for r in np.flatnonzero(empty.any(axis=1)).tolist()}
    z = np.ascontiguousarray((cell_means @ w.transpose(0, 2, 1)).transpose(0, 2, 1))
    z /= np.sqrt(v)[:, :, None]
    return z, failed


def _c_vector(c, m: int) -> np.ndarray:
    if isinstance(c, CriticalValues):
        return c.c
    arr = np.asarray(c, dtype=float).reshape(-1)
    if arr.shape[0] == 1:
        return np.full(m, float(arr[0]))
    if arr.shape[0] != m:
        raise ConfigError(f"critical value vector has length {arr.shape[0]}, expected {m}")
    return arr


class _Given(NamedTuple):
    """The integration stream of pwer_value (see _Streams), with no engine store."""

    rng: np.random.Generator | None
    engines = None

    def solve(self) -> np.random.Generator | None:
        return self.rng


class _Plan:
    """The strata of a block of runs of one m, planned once for every evaluation of a lockstep.

    The models share m, so their strata and members are the rows of
    design.stratum_members(m). groups holds one mvprob.OrthantGroup per
    (law, dimension, chi-scale rule), over the strata with a defined law of
    every run, with each row's run, stratum and member populations. The
    runs' full_corr are stacked once, and the correlations of every stratum
    of one dimension, for all its runs, taken from that stack with one fancy
    index for mvprob.orthant_groups. ok marks each run's strata with a
    defined law, tols holds the block's tol of the solve pass and of the
    verify pass, both checked here, and streams each run's _Streams.
    weights holds each run's prevalence weights (one row per run) and mask
    the positive ones; the runs are grouped by mask pattern for the PWER
    sums (pwer).
    """

    def __init__(self, models: Sequence[TestModel], tols: tuple[float, float], streams, weights: np.ndarray):
        if any(model.m != models[0].m for model in models):
            raise ConfigError("the models of one lockstep must share m")
        for tol in tols:
            mvprob.check_tol(tol)
        self.models, self.m, self.streams, self.tols = models, models[0].m, streams, tols
        self.ok = defined_strata(np.array([model.population_variances for model in models]))
        kinds = np.array([model.kind for model in models])
        dfs = _dfs(models)
        full = np.array([model.full_corr for model in models])
        table = stratum_members(self.m)
        dims = table.sum(axis=1)
        self.groups = []
        for d in dict.fromkeys(dims.tolist()):
            of_d = np.flatnonzero(dims == d)
            members_d = np.nonzero(table[of_d])[1].reshape(len(of_d), d)
            for kind in dict.fromkeys(kinds.tolist()):
                runs, at = np.nonzero(self.ok[:, of_d] & (kinds == kind)[:, None])
                if not len(runs):
                    continue
                strata, idx = of_d[at], members_d[at]
                mats = full[runs[:, None, None], idx[:, :, None], idx[:, None, :]]
                for rows, group in mvprob.orthant_groups(mats, dfs[runs] if kind == "t" else None):
                    self.groups.append((group, runs[rows], strata[rows], idx[rows]))
        self.weights = np.array(weights, dtype=float)
        self.mask = self.weights > 0.0
        patterns: dict[bytes, list[int]] = {}
        for r, row in enumerate(self.mask):
            patterns.setdefault(row.tobytes(), []).append(r)
        self.pattern = np.empty(len(models), dtype=int)
        self.columns = []
        for p, runs in enumerate(patterns.values()):
            self.pattern[runs] = p
            self.columns.append(np.flatnonzero(self.mask[runs[0]]))

    def pwer(self, runs: np.ndarray, value: np.ndarray) -> np.ndarray:
        """sum_J pi_J * (1 - F_J) over the positive weights of each run of runs, F (k x S) one row per run.

        One stacked sum per mask pattern over its positive columns only: a
        row summed along axis 1 has the bits of the 1-D np.sum of that row,
        while zero-filling the other strata would change them.
        """
        out = np.empty(len(runs))
        pattern = self.pattern[runs]
        for p in set(pattern.tolist()):
            at = np.flatnonzero(pattern == p)
            cols = self.columns[p]
            out[at] = (self.weights[np.ix_(runs[at], cols)] * (1.0 - value[np.ix_(at, cols)])).sum(axis=1)
        return out


class _Evaluated(NamedTuple):
    """The per-stratum results of an _evaluate call, one row per run.

    A stratum that was not evaluated has value NaN, error inf and points 0;
    failed maps a row to the error that ended its run.
    """

    value: np.ndarray
    error: np.ndarray
    points: np.ndarray
    qmc: np.ndarray
    failed: dict[int, Exception]


def _evaluate(plan: _Plan, runs: np.ndarray, c: np.ndarray, select: np.ndarray, verify: bool = False) -> _Evaluated:
    """F_J(c_J) for the strata select[k] (k x S) of each run runs[k] of the plan at its limits c[k] (k x m).

    Each run's limits and its strata are checked first; the pass (verify or
    solve) reads its tol of the plan. Then each group of the plan takes one
    OrthantGroup.evaluate over the selected rows of these runs. The strata
    it leaves to QMC (five or more dimensions, an unsettled quadrature) take
    one mvprob.qmc_cdf call each, per run in stratum order on that run's
    stream of the pass, so its QMC
    strata read the stream in that order; the verify pass builds fresh
    engines. Every result equals the stratum's own mvn_cdf/mvt_cdf call.
    """
    k, n_strata = select.shape
    tol = plan.tols[int(verify)]
    value = np.full((k, n_strata), math.nan)
    error = np.full((k, n_strata), math.inf)
    points = np.zeros((k, n_strata), dtype=int)
    qmc = np.zeros((k, n_strata), dtype=bool)
    failed = {}
    undefined = select & ~plan.ok[runs]
    bad = ~np.isfinite(c).all(axis=1) | undefined.any(axis=1)
    for pos in np.flatnonzero(bad).tolist():
        try:
            mvprob.check_limits(c[pos])
            j = int(np.argmax(undefined[pos]))
            raise InfeasibleDesignError(
                f"stratum {sorted(plan.models[runs[pos]].strata[j])} involves a population with an empty arm"
            )
        except RUN_ERRORS as exc:
            failed[pos] = exc
    live = np.zeros(plan.ok.shape, dtype=bool)
    live[runs] = select & ~bad[:, None]
    at = np.empty(len(plan.models), dtype=int)
    at[runs] = np.arange(k)
    unsettled = []
    for group, group_runs, strata, members in plan.groups:
        rows = np.flatnonzero(live[group_runs, strata])
        if not len(rows):
            continue
        pos, j = at[group_runs[rows]], strata[rows]
        value[pos, j], error[pos, j], points[pos, j], settled = group.evaluate(
            c[pos[:, None], members[rows]], rows, tol
        )
        if not settled.all():
            unsettled.extend(zip(pos[~settled].tolist(), j[~settled].tolist()))

    by_run: dict[int, list[int]] = {}
    for pos, j in sorted(unsettled):
        by_run.setdefault(pos, []).append(j)
    for pos, strata in by_run.items():
        model, streams = plan.models[runs[pos]], plan.streams[runs[pos]]
        try:
            stream = streams.verify() if verify else streams.solve()
            engines = None if verify else streams.engines
            for j in strata:
                members = np.flatnonzero(stratum_members(plan.m)[j])
                # a principal submatrix of a validated matrix: validating it keeps its bits
                corr = mvprob.CorrelationMatrix(model.full_corr[np.ix_(members, members)])
                value[pos, j], error[pos, j], points[pos, j], qmc[pos, j] = mvprob.qmc_cdf(
                    c[pos, members], corr, model.df, tol, stream, engines
                )
        except RUN_ERRORS as exc:
            failed[pos] = exc
    return _Evaluated(value, error, points, qmc, failed)


def pwer_value(
    c,
    pi,
    model: TestModel,
    tol: float = DEFAULT_CDF_TOL,
    rng: np.random.Generator | None = None,
) -> float:
    """PWER(c) = sum_J pi_J * (1 - F_J(c_J)); zero-weight strata contribute 0."""
    weights = prevalence_weights(pi, len(model.strata))
    plan = _Plan([model], (tol, tol), [_Given(rng)], [weights])
    run = np.zeros(1, dtype=int)
    step = _evaluate(plan, run, _c_vector(c, model.m)[None], plan.mask)
    if step.failed:
        raise step.failed[0]
    return float(plan.pwer(run, step.value)[0])


@dataclass(frozen=True)
class CriticalValues:
    """Equal critical values calibrated so the estimated PWER hits alpha.

    The one result of every calibration engine. achieved is the solver's PWER
    at c and verified the verify pass's. The exact engine's verify pass keeps
    the solver's deterministic strata that meet verify_tol (quadrature does
    not depend on tol or stream, so evaluating them again would give the same
    numbers) and recomputes the others at verify_tol on a fresh integration
    stream; the empirical engine repeats achieved. fwer holds the per-stratum
    rejection probability FWER_J(c) = 1 - F_J(c_J), NaN where a stratum has no
    defined joint law; gradient and true_pwer are both read off it.
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
        """PWER at c under the weights pi: sum_J pi_J * FWER_J(c) (true_pwers of one row).

        Strata without a defined law (NaN) add 0; callers give them no weight.
        """
        return float(true_pwers(pi, self.fwer[None])[0])


def true_pwers(pi, fwer: np.ndarray) -> np.ndarray:
    """CriticalValues.true_pwer(pi) of every row of fwer (R, S), in one stacked sum.

    pi is checked once. Each row, summed along its contiguous axis, has the
    bits of the 1-D sum of that row.
    """
    return np.nansum(prevalence_weights(pi, fwer.shape[1]) * fwer, axis=1)


def check_alpha(alpha: float) -> None:
    """Reject a familywise level outside [ALPHA_MIN, 0.5)."""
    if not ALPHA_MIN <= alpha < 0.5:
        raise ConfigError(f"alpha must lie in [{ALPHA_MIN:g}, 0.5), got {alpha}")


class _Streams:
    """The integration streams of one solve, built when a QMC stratum first reads one.

    Every solver evaluation replays the solve stream from its start, which
    makes the objective a deterministic function of c, and shares one store
    of scrambled Sobol engines, built by the first evaluation and rewound by
    the later ones. The verify pass reads an independent stream with fresh
    engines. Both streams derive from one seed, which seed() gives on first
    read; a solve whose strata are all quadrature never calls it.
    """

    def __init__(self, seed: Callable[[], int]):
        self._seed = seed
        self.engines: dict = {}

    @cached_property
    def seed(self) -> int:
        return self._seed()

    @cached_property
    def _solve(self) -> tuple[np.random.Generator, dict]:
        stream = np.random.default_rng(self.seed)
        return stream, stream.bit_generator.state

    def solve(self) -> np.random.Generator:
        stream, start = self._solve
        stream.bit_generator.state = start
        return stream

    def verify(self) -> np.random.Generator:
        return np.random.default_rng(self.seed ^ 0x9E3779B97F4A7C15)


def _dfs(models: Sequence[TestModel]) -> np.ndarray:
    """Each model's t df, NaN for the normal law."""
    return np.array([model.df for model in models], dtype=float)  # None reads as NaN


def _lower_quantiles(df: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Each row's marginal lower quantile at q: the t law's of df, or the normal's where df is NaN.

    One ndtri or stdtrit call over the rows (both for a block of both laws);
    each entry has the bits of its scalar special.ndtri or special.stdtrit
    call.
    """
    normal = np.isnan(df)
    if normal.all():
        return special.ndtri(q)
    out = special.stdtrit(np.where(normal, 1.0, df), q)
    return np.where(normal, special.ndtri(q), out) if normal.any() else out


def _upper_quantiles(df: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Upper-tail quantile of each p, finite for any p: the negated lower quantile, never 1 - p.

    p is clamped into [1e-100, 1 - 2^-53]; below 1e-100 the t quantile of
    small df can overflow to inf.
    """
    return -_lower_quantiles(df, np.clip(p, 1e-100, 1.0 - 2.0**-53))


# Newton steps of the independence root; from the Bonferroni start they reach
# full precision in at most five for alpha < 0.5
_INDEPENDENCE_MAX_ITER = 50


def _independence_root(
    models: Sequence[TestModel], weights: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """The root x0 of each run's independence model g(c) = sum_J w_J (1 - F(c)^|J|) = alpha, and g'(x0).

    Run r has the model models[r] and the weights row r of weights (R, S);
    the models share m. F is the model's marginal CDF. g is solved in the
    marginal tail v = 1 - F(c), where it is the concave increasing sum_d W_d
    (1 - q^d), q = 1 - v, over the weights W_d of the strata of size d. 1 -
    q^d is taken as v (1 + q + ... + q^(d-1)), a sum of positive terms, so
    that alpha down to ALPHA_MIN keeps its digits. Newton steps from the
    Bonferroni point alpha / sum_d d W_d, where g <= alpha, climb to the root
    without overshooting it; every run steps together, and a run stops once
    its step falls below 1e-15 v. With weights of total at most alpha, g has
    no root, and x0 is the single-test quantile, the lower end of the
    secant's bracket. g'(c) = -f(c) sum_d d W_d q^(d - 1), f the marginal
    density (TestModel.density, run by run). The W_d and the tail sums add
    and multiply in the order of a scalar loop over the strata and over d,
    so each run has the bits of its own scalar solve.
    """
    n, df = len(models), _dfs(models)
    by_size: list = [None] * (models[0].m + 1)  # W_d, a sequential sum over the strata of size d
    for j, d in enumerate(stratum_members(models[0].m).sum(axis=1).tolist()):
        by_size[d] = weights[:, j] if by_size[d] is None else by_size[d] + weights[:, j]
    total = by_size[1]
    for w in by_size[2:]:
        total = total + w
    rooted = total > alpha
    d_weights = [None] + [d * w for d, w in enumerate(by_size[1:], 1)]  # d W_d

    def tail_sums(q, rows=slice(None), slope_only=False):
        """g / v and dg/dv at q = 1 - v: sum_d W_d (1 + ... + q^(d-1)) and sum_d d W_d q^(d-1)."""
        g_over_v, slope, geometric, power = by_size[1][rows], d_weights[1][rows], 1.0, q
        for d in range(2, len(by_size)):
            if not slope_only:
                geometric = geometric + power
                g_over_v = g_over_v + by_size[d][rows] * geometric
            slope = slope + d_weights[d][rows] * power
            power = power * q
        return g_over_v, slope

    v = np.full(n, alpha)
    if rooted.any():
        rows = slice(None) if rooted.all() else rooted
        v_r = alpha / tail_sums(1.0, rows, slope_only=True)[1]
        live = np.ones(len(v_r), dtype=bool)
        for _ in range(_INDEPENDENCE_MAX_ITER):
            g_over_v, slope = tail_sums(1.0 - v_r, rows)
            step = (alpha - v_r * g_over_v) / slope
            stepped = v_r + step
            v_r = np.where(live, stepped, v_r)
            live &= step > 1e-15 * stepped
            if not live.any():
                break
        v[rows] = v_r
    x0 = _upper_quantiles(df, v)
    if not rooted.all():
        x0 = np.where(rooted, x0, _lower_quantiles(df, np.full(n, 1.0 - alpha)))
    density = np.array([model.density(x) for model, x in zip(models, x0.tolist())])
    return x0, -density * tail_sums(1.0 - v, slope_only=True)[1]


class _Secants:
    """The safeguarded secants of a lockstep's unfinished runs, one entry per run.

    rows holds each run's index in the plan, x its pending c and phase what
    that c is: 0 an iterate, 1 the bracket end lo, 2 the end hi. [a, b] is
    the bracket, with PWERs p_a and p_b (NaN until evaluated); w1, w2 and w3
    are its last three widths, NaN before there are three. k counts the
    iterates, and x_prev and z_prev are the last one and its z. slope is
    g'(x0) of the first step, df the marginal law (_dfs) and q_alpha the
    upper quantile of alpha. keep drops the finished runs.
    """

    __slots__ = ("rows", "x", "phase", "k", "a", "p_a", "b", "p_b", "w1", "w2", "w3",
                 "x_prev", "z_prev", "lo", "hi", "slope", "df", "q_alpha")

    def __init__(self, models: Sequence[TestModel], weights: np.ndarray, alpha: float, rows: np.ndarray):
        n = len(rows)
        self.rows = rows
        self.df = _dfs(models)
        self.lo = _lower_quantiles(self.df, np.full(n, 1.0 - alpha))
        self.hi = _lower_quantiles(self.df, np.full(n, 1.0 - alpha / 2 ** models[0].m))
        self.q_alpha = _upper_quantiles(self.df, np.full(n, alpha))
        x, self.slope = _independence_root(models, weights, alpha)
        self.x = np.minimum(np.maximum(x, self.lo), self.hi)
        self.phase, self.k = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
        self.a, self.b, self.w1 = self.lo, self.hi, self.hi - self.lo
        self.p_a, self.p_b, self.w2, self.w3, self.x_prev, self.z_prev = np.full((6, n), math.nan)

    def keep(self, mask: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[mask])


def _step(s: _Secants, p: np.ndarray, alpha: float, f_tol: float, slack: float, failed: dict[int, Exception]):
    """Take every secant of s one step, given the PWER p of its pending c.

    Each run takes the step of a scalar safeguarded secant, in masked numpy
    operations. It starts at the root x0 of the independence model
    (_independence_root), which the Slepian and Sidak inequalities put at or
    above c* when every correlation is nonnegative (for the t law too, by
    association in the shared chi scale): PWER(x0) <= alpha, within 1e-3 on
    the simulated designs. The second point is a Newton step on the
    independence model, x0 - (PWER(x0) - alpha) / g'(x0), and the later ones
    a safeguarded secant on the quantile scale, z(c) = Q(PWER(c)) - Q(alpha)
    with Q the marginal upper-tail quantile, through the last two iterates;
    z is nearly c - c*. The single-test and Bonferroni-like quantiles lo <=
    x0 <= hi bracket the root. A step that leaves the bracket, or two steps
    that fail to halve it, bisect instead; lo and hi are evaluated, and
    checked, only once a bisection needs them or a step lands on them, and a
    run there stops, or fails with a bracket failure, by its PWER. With
    disjoint populations x0 is the single-test quantile and already the
    root. A run stops once |PWER - alpha| <= f_tol, or at the end of its
    closed bracket (width _SOLVER_XTOL) nearer alpha. The masks of the rare
    exits (at lo or hi, a closed bracket) are formed only at the steps that
    reach them.

    failed maps the runs (positions in s) whose evaluation failed to their
    error, and takes the errors of the runs this step fails. Returns the
    bracket end each c now is (True for b), which runs finished, and each
    one's c*, its PWER and the end it is; every other run of s holds its
    next pending c.
    """
    reg = s.phase == 0
    dev = p - alpha
    stop = np.abs(dev) <= f_tol
    at_end = (s.x == s.lo) | (s.x == s.hi)
    if at_end.any():
        at_lo = s.x == s.lo
        at_hi = at_end & ~at_lo
        for pos in np.flatnonzero(at_lo & (dev < -slack)).tolist():
            failed.setdefault(pos, NumericalError(
                f"bracket failure: PWER({s.lo[pos]:.6f}) = {p[pos]:.3e} already below alpha={alpha}"))
        for pos in np.flatnonzero(at_hi & (dev > slack)).tolist():
            failed.setdefault(pos, NumericalError(
                f"bracket failure: PWER({s.hi[pos]:.6f}) = {p[pos]:.3e} still above alpha={alpha}"))
        stop = np.where(at_lo, dev <= f_tol, np.where(at_hi, dev >= -f_tol, stop))
    bad = np.zeros(len(p), dtype=bool)
    bad[list(failed)] = True
    stop &= ~bad
    # an iterate moves the end its PWER falls on, an evaluated end sets its own PWER
    side = np.where(reg, p <= alpha, s.phase == 2)
    s.a, s.p_a = np.where(side, s.a, s.x), np.where(side, s.p_a, p)
    s.b, s.p_b = np.where(side, s.x, s.b), np.where(side, p, s.p_b)
    width = s.b - s.a
    s.w3, s.w2, s.w1 = np.where(reg, s.w2, s.w3), np.where(reg, s.w1, s.w2), np.where(reg, width, s.w1)
    done, c_star, p_star, end = stop, s.x, p, side
    closing = width <= _SOLVER_XTOL
    if closing.any():
        done = stop | (closing & reg & ~bad & ~np.isnan(s.p_a + s.p_b))
        at_b, closed = np.abs(s.p_b - alpha) < np.abs(s.p_a - alpha), done & ~stop
        c_star = np.where(closed, np.where(at_b, s.b, s.a), s.x)
        p_star = np.where(closed, np.where(at_b, s.p_b, s.p_a), p)
        end = np.where(closed, at_b, side)
    if (done | bad).all():
        return side, done, c_star, p_star, end

    go = reg & ~done & ~bad
    z = _upper_quantiles(s.df, p) - s.q_alpha
    rise = z - s.z_prev
    # a flat secant has no root; its infinite step leaves the bracket
    secant = np.divide(z * (s.x - s.x_prev), rise, out=np.full(len(p), math.inf), where=rise != 0.0)
    step = np.where(s.k == 0, dev / s.slope, secant)  # the first step: Newton on the independence model
    s.x_prev, s.z_prev = np.where(go, s.x, s.x_prev), np.where(go, z, s.z_prev)
    s.x, s.k = np.where(go, s.x - step, s.x), s.k + go
    stuck = go & (np.isnan(p) | (s.k == _SOLVER_MAX_ITER))
    for pos in np.flatnonzero(stuck).tolist():
        failed[pos] = ConfigError(f"quantile argument must lie in (0, 1), got {p[pos]}") if math.isnan(p[pos]) \
            else NumericalError(f"critical value iteration did not converge within {_SOLVER_MAX_ITER} steps "
                                f"(bracket [{s.a[pos]:.12f}, {s.b[pos]:.12f}])")
    go &= ~stuck

    # bisect after a step out of the bracket or two steps that did not halve it; an
    # evaluated end that did not stop goes on to the other end or the midpoint
    bisect = go & (~((s.a < s.x) & (s.x < s.b)) | (s.w1 > 0.5 * s.w3)) | ~reg & ~done & ~bad
    if bisect.any():
        to_lo = bisect & reg & np.isnan(s.p_a)
        to_hi = bisect & ~to_lo & (s.phase != 2) & np.isnan(s.p_b)
        s.x = np.where(to_lo, s.lo, np.where(to_hi, s.hi, np.where(bisect, 0.5 * (s.a + s.b), s.x)))
        s.phase = np.where(to_lo, 1, np.where(to_hi, 2, 0))
    return side, done, c_star, p_star, end


def solve_lockstep(
    models: Sequence[TestModel],
    weights: np.ndarray,
    alpha: float,
    seeds: Sequence[Callable[[], int]],
    solver_tol: float = DEFAULT_SOLVER_TOL,
    cdf_tol: float = DEFAULT_CDF_TOL,
    verify_tol: float = DEFAULT_VERIFY_TOL,
) -> list[CriticalValues | Exception]:
    """Calibrate runs of one m together: each run's CriticalValues, or the error that ended it.

    Run r has the model models[r], the prevalence weights row r of weights
    (R, S) and the integration seed seeds[r](), drawn on first need only (see
    _Streams); alpha and the tolerances are the block's, each checked once,
    and each row of weights is checked on its own (weight_errors). The block
    is planned once (_Plan), and one array secant steps every run (_Secants, _step): each
    step evaluates the pending c of every unfinished run in one _evaluate
    call, sums their PWERs in one stacked pass (_Plan.pwer) and moves every
    run's state in masked numpy operations, so each run takes the steps of
    its own scalar solve, bit for bit. The finished runs drop out, so a
    block costs about as many stacked evaluations as its slowest run. Each
    run's per-stratum results are kept at its two bracket ends, where every
    c* lies, and the finished runs take one stacked verify pass (_verify).
    The solve stops once |PWER - alpha| <= min(solver_tol, 1e-3 * alpha), so
    a small alpha is met to a relative precision too. An error of RUN_ERRORS
    ends only the run it belongs to.
    """
    out: list = [None] * len(models)
    if not len(models):
        return out
    check_alpha(alpha)
    weights = np.asarray(weights, dtype=float)
    shape = (len(models), len(models[0].strata))
    if weights.shape != shape:
        raise ConfigError(f"prevalence weights have shape {weights.shape}, expected {shape}")
    plan = _Plan(models, (cdf_tol, verify_tol), [_Streams(seed) for seed in seeds], weights)
    refused = weight_errors(weights)
    for r in np.flatnonzero(~plan.mask.any(axis=1)).tolist():
        refused.setdefault(r, ConfigError("prevalence vector has no positive component"))
    for r, exc in refused.items():
        out[r] = exc
    rows = np.flatnonzero([cv is None for cv in out])
    if not len(rows):
        return out
    s = _Secants([models[r] for r in rows.tolist()], weights[rows], alpha, rows)
    f_tol = min(solver_tol, 1e-3 * alpha)
    slack = max(10.0 * solver_tol, 3.0 * cdf_tol)
    evaluations = np.zeros(len(models), dtype=int)
    # each run's per-stratum results at its bracket ends a (0) and b (1)
    value, error = np.empty((2, *weights.shape)), np.empty((2, *weights.shape))
    qmc = np.empty((2, *weights.shape), dtype=bool)
    finished = []
    while len(s.rows):
        step = _evaluate(plan, s.rows, np.broadcast_to(s.x[:, None], (len(s.rows), plan.m)), plan.mask[s.rows])
        evaluations[s.rows] += 1
        failed = dict(step.failed)
        side, done, c_star, p_star, end = _step(s, plan.pwer(s.rows, step.value), alpha, f_tol, slack, failed)
        at = side.astype(int)
        value[at, s.rows], error[at, s.rows], qmc[at, s.rows] = step.value, step.error, step.qmc
        for pos, exc in failed.items():
            out[s.rows[pos]] = exc
        if done.any():
            finished.append((s.rows[done], c_star[done], p_star[done], end[done]))
        done[list(failed)] = True
        if done.all():
            break
        if done.any():
            s.keep(~done)
    if not finished:
        return out
    runs, c_star, achieved, end = (np.concatenate(parts) for parts in zip(*finished))
    at_c = (value[end.astype(int), runs], error[end.astype(int), runs], qmc[end.astype(int), runs])
    for r, cv in zip(runs.tolist(), _verify(plan, runs, c_star, achieved, at_c, alpha, evaluations[runs])):
        out[r] = cv
    return out


def _verify(
    plan: _Plan,
    runs: np.ndarray,
    c: np.ndarray,
    achieved: np.ndarray,
    at_c: tuple[np.ndarray, np.ndarray, np.ndarray],
    alpha: float,
    evaluations: np.ndarray,
) -> list[CriticalValues | Exception]:
    """The CriticalValues of every finished run, or its error, from one stacked verify pass at its c*.

    Run k is runs[k] of the plan, with c* c[k], the solver's PWER achieved[k]
    and evaluations[k] evaluations; at_c holds its per-stratum values, error
    estimates and QMC flags at c*. A deterministic result within verify_tol
    is what the verify pass would compute, since quadrature does not depend
    on tol or stream, and is kept. The rest are computed at verify_tol on
    each run's verify stream with fresh engines, in one _evaluate call: the
    QMC strata, deterministic ones whose error estimate exceeds verify_tol
    (verify_tol sends them to QMC), and the zero-weight strata with a
    defined law, which true_pwer weighs.
    """
    value, error, qmc = at_c
    cdf_tol, verify_tol = plan.tols
    redo = plan.ok[runs] & (qmc | (error > verify_tol))
    again = np.flatnonzero(redo.any(axis=1))
    failed = {}
    if len(again):
        limits = np.broadcast_to(c[again][:, None], (len(again), plan.m))
        fresh = _evaluate(plan, runs[again], limits, redo[again], True)
        value[again] = np.where(redo[again], fresh.value, value[again])
        failed = {int(again[pos]): exc for pos, exc in fresh.failed.items()}
    fwer = 1.0 - value
    # strata without a defined law carry NaN and only ever zero weight here
    verified = np.nansum(plan.weights[runs] * fwer, axis=1)
    disagrees = np.abs(verified - alpha) > 3.0 * cdf_tol + 30.0 * verify_tol + 10.0 * np.abs(achieved - alpha)
    out: list = []
    rows = zip(c.tolist(), achieved.tolist(), verified.tolist(), evaluations.tolist())
    for k, (c_star, achieved_k, verified_k, evaluations_k) in enumerate(rows):
        if k in failed:
            out.append(failed[k])
        elif disagrees[k]:
            out.append(NumericalError(
                f"verification pass disagrees with the calibration: PWER={verified_k:.3e} vs alpha={alpha}"
            ))
        else:
            out.append(CriticalValues(np.full(plan.m, c_star), alpha, achieved_k, verified_k, fwer[k], evaluations_k))
    return out


def solve_critical_values(
    pi,
    model: TestModel,
    alpha: float,
    solver_tol: float = DEFAULT_SOLVER_TOL,
    cdf_tol: float = DEFAULT_CDF_TOL,
    verify_tol: float = DEFAULT_VERIFY_TOL,
    rng: np.random.Generator | None = None,
) -> CriticalValues:
    """Find the shared critical value with PWER(c * 1) = alpha (see _step).

    A lockstep of one: the integration seed is drawn from rng (a seed-0
    stream when omitted) before the solve starts.
    """
    seed = int((rng or np.random.default_rng(0)).integers(0, 2**63 - 1))
    weights = prevalence_weights(pi, len(model.strata))
    [cv] = solve_lockstep([model], weights[None], alpha, [lambda: seed], solver_tol, cdf_tol, verify_tol)
    if not isinstance(cv, CriticalValues):
        raise cv
    return cv


def delta_gamma(pi, gradient: np.ndarray) -> float:
    """Delta-method standard deviation: sqrt(g' (diag(pi) - pi pi') g).

    The multinomial covariance uses the untransformed prevalence estimate;
    transformations enter through the gradient factors instead. A row of one
    of delta_gammas.
    """
    gamma, failed = delta_gammas(pi, np.asarray(gradient, dtype=float)[None])
    if failed:
        raise failed[0]
    return gamma.tolist()[0]


def delta_gammas(pi, gradient: np.ndarray) -> tuple[np.ndarray, dict[int, PwerError]]:
    """delta_gamma of every row of gradient (R, S), with its row of pi (R, S) or with pi (S,) for all rows.

    Returns the gammas, NaN where a row fails, and the error each failing row's
    delta_gamma call raises: weights that are not finite and nonnegative, or a
    negative quadratic form. Each row has the bits of its own call: both dot
    products are vector @ vector per row, which numpy takes as the 1-D dot,
    and the square of the second is the scalar one (C pow, as np.float64 ** 2
    takes it), taken on a Python float; the array square x * x differs from it
    in about one input in a thousand.
    """
    g = np.asarray(gradient, dtype=float)
    w = np.asarray(pi, dtype=float)
    if w.shape not in (g.shape, g.shape[1:]):
        raise ConfigError(f"prevalence vector has shape {w.shape}, expected ({g.shape[1]},)")
    w = np.broadcast_to(w, g.shape)
    failed: dict[int, PwerError] = weight_errors(w)
    if failed:
        w = w.copy()
        w[list(failed)] = 0.0
    # zero-weight strata cannot influence the covariance; this also keeps the
    # NaN gradients of strata without a defined law out of the quadratic form
    g = np.where(w > 0.0, g, 0.0)
    square = (w[:, None, :] @ (g * g)[:, :, None])[:, 0, 0].tolist()
    mean = (w[:, None, :] @ g[:, :, None])[:, 0, 0].tolist()
    gamma = []
    for r, (a, d) in enumerate(zip(square, mean)):
        quad = a - d**2
        if quad < -1e-14 and r not in failed:
            failed[r] = NumericalError(f"negative delta-method quadratic form: {quad:.3e}")
        gamma.append(math.nan if r in failed else math.sqrt(max(quad, 0.0)))
    return np.array(gamma), failed


@dataclass(frozen=True)
class PredictionInterval:
    """Interval [alpha - z*gamma/sqrt(N), alpha + z*gamma/sqrt(N)].

    prediction_intervals gives half_width and gamma one entry per row, and
    lower, upper, length and contains follow them row by row.
    """

    center: float
    half_width: float | np.ndarray
    gamma: float | np.ndarray
    alpha_prime: float
    N: int

    @property
    def lower(self):
        return self.center - self.half_width

    @property
    def upper(self):
        return self.center + self.half_width

    @property
    def length(self):
        return 2.0 * self.half_width

    def contains(self, x, atol: float = 1e-12):
        # atol guards degenerate zero-width intervals against float rounding
        return (self.lower - atol <= x) & (x <= self.upper + atol)

    def row(self, k: int) -> PredictionInterval:
        """Row k of a stacked interval, its fields builtin floats."""
        return replace(self, half_width=self.half_width[k].item(), gamma=self.gamma[k].item())


def prediction_interval(alpha: float, alpha_prime: float, gamma: float, N: int) -> PredictionInterval:
    """The interval of one gamma, a row of one of prediction_intervals."""
    iv, failed = prediction_intervals(alpha, alpha_prime, [gamma], N)
    if failed:
        raise failed[0]
    return iv.row(0)


def prediction_intervals(
    alpha: float, alpha_prime: float, gamma, N: int
) -> tuple[PredictionInterval, dict[int, ConfigError]]:
    """The intervals of every gamma of a 1-D array, as one PredictionInterval of its rows.

    alpha (check_alpha), alpha_prime and N are checked, and z computed, once; a negative
    gamma fails its own row, returned with its error. Each row has the bits of
    its own prediction_interval call.
    """
    check_alpha(alpha)
    if not 0.0 < alpha_prime < 1.0:
        raise ConfigError(f"alpha_prime must lie in (0, 1), got {alpha_prime}")
    if N < 1:
        raise ConfigError(f"sample size must be >= 1, got {N}")
    gamma = np.asarray(gamma, dtype=float)
    failed = {r: ConfigError(f"gamma must be nonnegative, got {gamma[r].item()}")
              for r in np.flatnonzero(gamma < 0.0).tolist()}
    z = float(special.ndtri(1.0 - alpha_prime / 2.0))
    iv = PredictionInterval(
        center=float(alpha),
        half_width=z * gamma / math.sqrt(N),
        gamma=gamma,
        alpha_prime=float(alpha_prime),
        N=int(N),
    )
    return iv, failed
