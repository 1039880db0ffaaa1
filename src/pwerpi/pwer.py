"""Population-wise error rate: correlation structure, calibration, intervals.

Given a realized Design, the joint law of the population test statistics is a
multivariate normal (known variances) or t (unknown homogeneous variances)
with the correlation matrix determined by the cell sizes and variances. This
module builds that model, evaluates PWER(c) = sum_J pi_J (1 - F_J(c_J)),
calibrates the shared critical value, and turns the PWER gradient into the
delta-method prediction interval for the true PWER. Many calibrations run in
lockstep (solve_lockstep), and a single solve is a lockstep of one. The block
is planned once (_Plan): every stratum of every run, grouped by law,
dimension and chi-scale rule into mvprob.OrthantGroups, and every run's
weights. Each step evaluates the strata of every unfinished run in one
stacked pass (_evaluate: one OrthantGroup.evaluate per group; only the
strata it leaves undecided go to QMC, per run) and sums their PWERs in one
stacked pass; each run's solver (_secant) only sends a float c and receives
a float PWER. The finished runs take one stacked verify pass (_verify).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Generator, NamedTuple, Sequence

import numpy as np

from . import mvprob
from .design import Design, prevalence_weights
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

    @cached_property
    def _members(self) -> list[list[int]]:
        """Each stratum's member populations as sorted 0-based indices."""
        return [[i - 1 for i in sorted(stratum)] for stratum in self.strata]

    def tail_quantile(self, p: float) -> float:
        """c with P(single statistic > c) = p under the marginal law."""
        if self.kind == "t":
            return mvprob.t_quantile(1.0 - p, self.df)
        return mvprob.std_normal_quantile(1.0 - p)


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


def _full_correlations(designs: Sequence[Design]) -> tuple[np.ndarray, np.ndarray]:
    """build_full_correlation of designs of one cell layout, stacked (R, m, m) and (R, m),
    from one stacked W diag(s^2/n) W^T; the rows of populations with an empty arm hold NaN."""
    sizes = np.array([design.cell_sizes for design in designs], dtype=float)
    w = arm_weight_matrix(designs[0], sizes)
    variances = np.array([design.cell_variances for design in designs])
    s2_over_n = np.divide(variances, sizes, out=np.zeros_like(sizes), where=sizes > 0)
    cov = (w * s2_over_n[:, None, :]) @ w.transpose(0, 2, 1)
    v = np.diagonal(cov, axis1=1, axis2=2).copy()
    corr = cov / np.sqrt(v[:, :, None] * v[:, None, :])
    corr[:, range(v.shape[1]), range(v.shape[1])] = 1.0
    return corr, v


def _empty_arm(design: Design, v: np.ndarray) -> InfeasibleDesignError:
    i = int(np.argmax(np.isnan(v)))
    arm = "treatment" if design.treatment_member[i] @ design.cell_sizes == 0 else "control"
    return InfeasibleDesignError(f"population {i + 1} has an empty {arm} arm")


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
    corr, v = _full_correlations([design])
    if np.isnan(v[0]).any() and not allow_empty_populations:
        raise _empty_arm(design, v[0])
    return corr[0], v[0]


def _law(design: Design, df: float | None) -> tuple[str, float | None]:
    """The kind and df of build_test_model."""
    mode = design.variance_mode
    if df is not None and mode != "unknown_heterogeneous":
        raise ConfigError(f"a reference df applies to unknown heterogeneous variances, not {mode}")
    if mode in ("known_homogeneous", "known_heterogeneous"):
        return "normal", df
    if mode == "unknown_homogeneous":
        df = float(design.N - design.positive_cell_count())
    elif df is None:
        raise ConfigError(
            "unknown heterogeneous variances have no closed-form joint law; "
            "use the bootstrap engine"
        )
    if df < 1.0:
        raise InfeasibleDesignError(f"t reference needs df >= 1, got {df}")
    mvprob.check_df(df)
    return "t", df


def build_test_models(
    designs: Sequence[Design],
    dfs: Sequence[float | None] | None = None,
    allow_empty_populations: bool = False,
) -> list[TestModel | Exception]:
    """build_test_model of every design (with dfs[r] as its df): its TestModel,
    or the error that call raises.

    Designs of one cell layout share one stacked W diag(s^2/n) W^T. Those with
    the same populated populations have their populated blocks validated in
    one stacked check (mvprob.correlation_matrices); each stratum's matrix is
    a principal submatrix of the block, indexed by its members' positions in
    it, taken for all of them at once (mvprob.principals). Every model
    equals its own build_test_model call bit for bit.
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
        corrs, variances = _full_correlations([designs[r] for r in rows])
        # rows by their populated populations
        groups: dict[tuple[int, ...], list[int]] = {}
        for k, r in enumerate(rows):
            populated = tuple(np.flatnonzero(~np.isnan(variances[k])).tolist())
            if len(populated) < designs[r].m and not allow_empty_populations:
                out[r] = _empty_arm(designs[r], variances[k])
            else:
                groups.setdefault(populated, []).append(k)
        for populated, ks in groups.items():
            blocks = (
                mvprob.correlation_matrices(corrs[ks][:, populated][:, :, populated])
                if populated else [None] * len(ks)
            )
            kept = []
            for k, block in zip(ks, blocks):
                if isinstance(block, ConfigError):
                    out[rows[k]] = block
                else:
                    kept.append((k, block))
            if not kept:
                continue
            strata = designs[rows[kept[0][0]]].strata
            position = {i + 1: p for p, i in enumerate(populated)}
            columns = [
                mvprob.principals([block for _, block in kept], [position[i] for i in sorted(stratum)])
                if stratum.issubset(position) else [None] * len(kept)
                for stratum in strata
            ]
            for n, (k, _) in enumerate(kept):
                kind, df = laws[rows[k]]
                out[rows[k]] = TestModel(
                    kind=kind,
                    df=df,
                    m=designs[rows[k]].m,
                    strata=strata,
                    full_corr=corrs[k],
                    stratum_corr=tuple(column[n] for column in columns),
                    population_variances=variances[k],
                )
    return out


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
    only ever be evaluated with zero weight. A block of one of
    build_test_models.
    """
    [model] = build_test_models([design], [df], allow_empty_populations)
    if isinstance(model, Exception):
        raise model
    return model


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


class _Given(NamedTuple):
    """The integration stream and engine store of evaluate_strata and pwer_value (see _Streams)."""

    rng: np.random.Generator | None
    engines: dict | None

    def solve(self) -> np.random.Generator | None:
        return self.rng


class _Plan:
    """The strata of a block of runs of one m, planned once for every evaluation of a lockstep.

    groups holds one mvprob.OrthantGroup per (law, dimension, chi-scale
    rule), over the strata with a defined law of every run, with each row's
    run, stratum and member populations; mvprob.orthant_groups has stacked
    their correlations in block order. tols holds each run's tol of the
    solve pass and of the verify pass, streams its _Streams. With weights
    (one row per run), mask marks the positive ones, and the runs are
    grouped by mask pattern for the PWER sums (pwer).
    """

    def __init__(self, models: Sequence[TestModel], tols, streams: Sequence, weights=None):
        # the strata of one m are canonical (design.enumerate_strata), and so are their members
        if any(model.strata != models[0].strata for model in models):
            raise ConfigError("the models of one lockstep must share m")
        self.models, self.m, self.streams = models, models[0].m, streams
        self.tols = np.asarray(tols, dtype=float)
        self.ok = np.array([[corr is not None for corr in model.stratum_corr] for model in models])
        kinds = np.array([model.kind for model in models])
        members = models[0]._members
        self.groups = []
        for kind in ("normal", "t"):
            runs, strata = np.nonzero(self.ok & (kinds == kind)[:, None])
            rows = list(zip(runs.tolist(), strata.tolist()))
            if not rows:
                continue
            corrs = [models[r].stratum_corr[j] for r, j in rows]
            dfs = [models[r].df for r, _ in rows] if kind == "t" else None
            for at, group in mvprob.orthant_groups(corrs, dfs):
                group_strata = strata[at]
                self.groups.append(
                    (group, runs[at], group_strata, np.array([members[j] for j in group_strata.tolist()]))
                )
        if weights is None:
            return
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

    Each run's limits, its tol of the pass (verify or solve) and its strata
    are checked first. Then each group of the plan takes one
    OrthantGroup.evaluate over the selected rows of these runs. The strata
    it leaves to QMC (five or more dimensions, an unsettled quadrature) go
    per run in stratum order on that run's stream of the pass, so its QMC
    strata read the stream in that order; the verify pass builds fresh
    engines. Every result equals the stratum's own mvn_cdf/mvt_cdf call.
    """
    k, n_strata = select.shape
    tol = plan.tols[runs, int(verify)]
    value = np.full((k, n_strata), math.nan)
    error = np.full((k, n_strata), math.inf)
    points = np.zeros((k, n_strata), dtype=int)
    qmc = np.zeros((k, n_strata), dtype=bool)
    failed = {}
    undefined = select & ~plan.ok[runs]
    in_range = (tol >= mvprob.TOL_MIN) & (tol <= mvprob.TOL_MAX)
    bad = ~np.isfinite(c).all(axis=1) | ~in_range | undefined.any(axis=1)
    for pos in np.flatnonzero(bad).tolist():
        try:
            mvprob.check_limits(c[pos])
            mvprob.check_tol(tol[pos])
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
            c[pos[:, None], members[rows]], rows, tol[pos]
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
                corr, upper = model.stratum_corr[j], c[pos, model._members[j]]
                if model.kind == "normal":
                    result = mvprob.mvn_cdf(upper, corr, tol[pos], stream, method="qmc", engines=engines)
                else:
                    result = mvprob.mvt_cdf(upper, corr, model.df, tol[pos], stream, method="qmc", engines=engines)
                value[pos, j], error[pos, j], points[pos, j], qmc[pos, j] = result
        except RUN_ERRORS as exc:
            failed[pos] = exc
    return _Evaluated(value, error, points, qmc, failed)


def evaluate_strata(
    c,
    model: TestModel,
    tol: float = DEFAULT_VERIFY_TOL,
    rng: np.random.Generator | None = None,
    which: np.ndarray | None = None,
    engines: dict | None = None,
) -> list[mvprob.ProbResult | None]:
    """F_J(c_J), the no-rejection probability, of every stratum in one batched call.

    which selects the strata (default: every one with a defined joint law);
    requesting a stratum without one raises, and unselected strata return
    None. The limits and tol are checked once. The strata are evaluated as a
    plan of one run (_evaluate): QMC strata read rng in stratum order, and
    `engines` keeps their scrambled engines across calls. Every result
    equals the stratum's own mvn_cdf/mvt_cdf call.
    """
    plan = _Plan([model], [[tol, tol]], [_Given(rng, engines)])
    select = model.stratum_ok if which is None else np.asarray(which, dtype=bool)
    step = _evaluate(plan, np.zeros(1, dtype=int), _c_vector(c, model.m)[None], select[None])
    if step.failed:
        raise step.failed[0]
    fields = (step.value[0].tolist(), step.error[0].tolist(), step.points[0].tolist(), step.qmc[0].tolist())
    return [mvprob.ProbResult(*result) if chosen else None for chosen, *result in zip(select.tolist(), *fields)]


def pwer_value(
    c,
    pi,
    model: TestModel,
    tol: float = DEFAULT_CDF_TOL,
    rng: np.random.Generator | None = None,
) -> float:
    """PWER(c) = sum_J pi_J * (1 - F_J(c_J)); zero-weight strata contribute 0."""
    weights = prevalence_weights(pi, len(model.strata))
    plan = _Plan([model], [[tol, tol]], [_Given(rng, None)], [weights])
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
        """PWER at c under the weights pi: sum_J pi_J * FWER_J(c).

        Strata without a defined law (NaN) add 0; callers give them no weight.
        """
        return float(np.nansum(prevalence_weights(pi, self.fwer.shape[0]) * self.fwer))


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


class CalibrationTask(NamedTuple):
    """One calibration of solve_lockstep: its inputs, its streams, and its scalar solver."""

    model: TestModel
    weights: np.ndarray
    alpha: float
    cdf_tol: float
    verify_tol: float
    streams: _Streams
    solver: Generator[float, float, tuple[float, float]]


def calibration(
    pi,
    model: TestModel,
    alpha: float,
    seed: Callable[[], int],
    solver_tol: float = DEFAULT_SOLVER_TOL,
    cdf_tol: float = DEFAULT_CDF_TOL,
    verify_tol: float = DEFAULT_VERIFY_TOL,
) -> CalibrationTask:
    """The calibration of solve_critical_values, for solve_lockstep to drive.

    The weights and alpha are checked here. seed() gives the integration
    seed, on first need only (see _Streams). The solver (_secant) yields
    each c it needs PWER at and receives that PWER as a float; the lockstep
    keeps the per-stratum results of every c, and its verify pass reuses the
    deterministic ones at the returned c.
    """
    weights = prevalence_weights(pi, len(model.strata))
    check_alpha(alpha)
    if not np.any(weights > 0.0):
        raise ConfigError("prevalence vector has no positive component")
    return CalibrationTask(
        model, weights, alpha, cdf_tol, verify_tol, _Streams(seed), _secant(model, alpha, solver_tol, cdf_tol)
    )


def _secant(
    model: TestModel, alpha: float, solver_tol: float, cdf_tol: float
) -> Generator[float, float, tuple[float, float]]:
    """The critical value c* with PWER(c*) = alpha, and its PWER, one PWER evaluation at a time.

    A generator: it yields each c, receives PWER(c), and returns (c*,
    PWER(c*)). It brackets with the single-test and Bonferroni-like
    quantiles and runs a safeguarded secant on the quantile scale, z(c) =
    Q(PWER(c)) - Q(alpha) with Q the marginal upper-tail quantile: z is
    nearly c - c* (exactly for disjoint populations), so the first step from
    the lower end takes slope one and the later ones the secant of the last
    two iterates. A step that leaves the bracket, or two steps that fail to
    halve it, bisect instead. The upper end is evaluated, and checked, only
    once a bisection or an exit needs it.

    The solve stops once |PWER - alpha| <= min(solver_tol, 1e-3 * alpha), so
    a small alpha is met to a relative precision too.
    """
    q_alpha = _upper_quantile(model, alpha)

    def z(p: float) -> float:
        return _upper_quantile(model, p) - q_alpha

    lo = model.tail_quantile(alpha)
    hi = model.tail_quantile(alpha / 2**model.m)
    slack = max(10.0 * solver_tol, 3.0 * cdf_tol)
    f_tol = min(solver_tol, 1e-3 * alpha)
    p_lo = yield lo
    if p_lo - alpha < -slack:
        raise NumericalError(
            f"bracket failure: PWER({lo:.6f}) = {p_lo:.3e} already below alpha={alpha}"
        )
    if p_lo - alpha <= f_tol:
        # the single-test bound is already exhausted (disjoint-population case)
        return lo, p_lo

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
                p_b = yield hi
                if p_b - alpha > slack:
                    raise NumericalError(
                        f"bracket failure: PWER({hi:.6f}) = {p_b:.3e} still above alpha={alpha}"
                    )
                if p_b - alpha >= -f_tol:
                    return hi, p_b
            x = 0.5 * (a + b)
        p = yield x
        if abs(p - alpha) <= f_tol:
            return x, p
        if p > alpha:
            a, p_a = x, p
        else:
            b, p_b = x, p
        widths.append(b - a)
        if b - a <= _SOLVER_XTOL and not math.isnan(p_b):
            return min((a, p_a), (b, p_b), key=lambda e: abs(e[1] - alpha))
        z_x = z(p)
        # a flat secant has no root; its infinite step leaves the bracket
        step = z_x * (x - x_prev) / (z_x - z_prev) if z_x != z_prev else math.inf
        x_prev, z_prev, x = x, z_x, x - step
    raise NumericalError(
        f"critical value iteration did not converge within {_SOLVER_MAX_ITER} steps "
        f"(bracket [{a:.12f}, {b:.12f}])"
    )


def solve_lockstep(tasks: list[CalibrationTask]) -> list[CriticalValues | Exception]:
    """Drive calibrations of one m together; each one's CriticalValues, or the error it raised.

    The block is planned once (_Plan). Every step gathers the pending c of
    every unfinished solver, evaluates their positive-weight strata in one
    _evaluate call, sums the PWER of every one of them in one stacked pass
    (_Plan.pwer) and sends each solver its float; the finished ones drop
    out, so a block of runs costs about as many stacked evaluations as its
    slowest run. The per-stratum results at every c are kept, and the
    finished runs take one stacked verify pass (_verify). An error of
    RUN_ERRORS ends only the calibration it belongs to.
    """
    out: list = [None] * len(tasks)
    if not tasks:
        return out
    plan = _Plan(
        [task.model for task in tasks],
        [(task.cdf_tol, task.verify_tol) for task in tasks],
        [task.streams for task in tasks],
        [task.weights for task in tasks],
    )
    at = [math.nan] * len(tasks)  # each solver's pending c
    evaluations = [0] * len(tasks)
    # each run's per-stratum results at every c it evaluated: (step, row of the step)
    solved: list[dict[float, tuple[_Evaluated, int]]] = [{} for _ in tasks]
    finished: dict[int, tuple[float, float]] = {}

    def advance(r: int, p: float | None) -> bool:
        try:
            at[r] = tasks[r].solver.send(p)
        except StopIteration as stop:
            finished[r] = stop.value
            return False
        except RUN_ERRORS as exc:
            out[r] = exc
            return False
        evaluations[r] += 1
        return True

    pending = [r for r in range(len(tasks)) if advance(r, None)]
    while pending:
        runs = np.array(pending)
        c = np.array([at[r] for r in pending])
        step = _evaluate(plan, runs, np.broadcast_to(c[:, None], (len(runs), plan.m)), plan.mask[runs])
        p = plan.pwer(runs, step.value).tolist()
        kept = []
        for pos, r in enumerate(pending):
            if pos in step.failed:
                tasks[r].solver.close()
                out[r] = step.failed[pos]
                continue
            solved[r][at[r]] = (step, pos)
            if advance(r, p[pos]):
                kept.append(r)
        pending = kept
    if finished:
        _verify(plan, tasks, finished, solved, evaluations, out)
    return out


def _verify(
    plan: _Plan,
    tasks: list[CalibrationTask],
    finished: dict[int, tuple[float, float]],
    solved: list[dict[float, tuple[_Evaluated, int]]],
    evaluations: list[int],
    out: list,
) -> None:
    """Verify every finished run's PWER at its c* in one stacked pass, and fill in out.

    A deterministic result within verify_tol is what the verify pass would
    compute, since quadrature does not depend on tol or stream, and is kept.
    The rest are computed at verify_tol on each run's verify stream with
    fresh engines, in one _evaluate call: the QMC strata, deterministic ones
    whose error estimate exceeds verify_tol (verify_tol sends them to QMC),
    and the zero-weight strata with a defined law, which true_pwer weighs.
    """
    runs = np.array(list(finished))
    rows = [solved[r][finished[r][0]] for r in runs.tolist()]
    value = np.array([step.value[pos] for step, pos in rows])
    error = np.array([step.error[pos] for step, pos in rows])
    qmc = np.array([step.qmc[pos] for step, pos in rows])
    redo = plan.ok[runs] & (qmc | (error > plan.tols[runs, 1][:, None]))
    again = np.flatnonzero(redo.any(axis=1))
    failed = {}
    if len(again):
        c = np.array([finished[r][0] for r in runs[again].tolist()])
        fresh = _evaluate(plan, runs[again], np.broadcast_to(c[:, None], (len(again), plan.m)), redo[again], True)
        value[again] = np.where(redo[again], fresh.value, value[again])
        failed = {int(again[pos]): exc for pos, exc in fresh.failed.items()}
    fwer = 1.0 - value
    # strata without a defined law carry NaN and only ever zero weight here
    verified = np.nansum(plan.weights[runs] * fwer, axis=1).tolist()
    for k, r in enumerate(runs.tolist()):
        task, (c_star, achieved) = tasks[r], finished[r]
        if k in failed:
            out[r] = failed[k]
            continue
        threshold = 3.0 * task.cdf_tol + 30.0 * task.verify_tol + 10.0 * abs(achieved - task.alpha)
        if abs(verified[k] - task.alpha) > threshold:
            out[r] = NumericalError(
                f"verification pass disagrees with the calibration: PWER={verified[k]:.3e} vs alpha={task.alpha}"
            )
            continue
        out[r] = CriticalValues(
            c=np.full(plan.m, c_star),
            alpha=task.alpha,
            achieved=achieved,
            verified=verified[k],
            fwer=fwer[k],
            evaluations=evaluations[r],
        )


def solve_critical_values(
    pi,
    model: TestModel,
    alpha: float,
    solver_tol: float = DEFAULT_SOLVER_TOL,
    cdf_tol: float = DEFAULT_CDF_TOL,
    verify_tol: float = DEFAULT_VERIFY_TOL,
    rng: np.random.Generator | None = None,
) -> CriticalValues:
    """Find the shared critical value with PWER(c * 1) = alpha (see _secant).

    A lockstep of one: the integration seed is drawn from rng (a seed-0
    stream when omitted) before the solve starts.
    """
    seed = int((rng or np.random.default_rng(0)).integers(0, 2**63 - 1))
    [cv] = solve_lockstep([calibration(pi, model, alpha, lambda: seed, solver_tol, cdf_tol, verify_tol)])
    if not isinstance(cv, CriticalValues):
        raise cv
    return cv


def _upper_quantile(model: TestModel, p: float) -> float:
    """Upper-tail quantile of p, finite for any p: the negated lower quantile, never 1 - p.

    p is clamped into [1e-100, 1 - 2^-53]; below 1e-100 the t quantile of
    small df can overflow to inf.
    """
    p = min(max(p, 1e-100), 1.0 - 2.0**-53)
    if model.kind == "t":
        return -mvprob.t_quantile(p, model.df)
    return -mvprob.std_normal_quantile(p)


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
