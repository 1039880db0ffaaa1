"""Population-wise error rate: correlation structure, calibration, intervals.

Given a realized Design, the joint law of the population test statistics is a
multivariate normal (known variances) or t (unknown homogeneous variances)
with the correlation matrix determined by the cell sizes and variances. This
module builds that model, evaluates PWER(c) = sum_J pi_J (1 - F_J(c_J)),
calibrates the shared critical value, and turns the PWER gradient into the
delta-method prediction interval for the true PWER. Many calibrations run in
lockstep (solve_lockstep): each step evaluates the strata of every unfinished
one in one stacked pass (_evaluate), and a single solve is a lockstep of one.
The orthant probabilities F_J come from mvprob.orthants, one call per law per
step; this module only sends the strata it leaves undecided to QMC.
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


class _Request(NamedTuple):
    """One evaluation of F_J(c_J) for the strata `which` selects (see evaluate_strata).

    stream() gives the integration stream of its QMC strata; it is called
    once a QMC stratum is reached and reused by the later ones (None makes
    each of them use its own seed-0 stream). engines is the scrambled-engine
    store of their mvn_cdf/mvt_cdf calls, None for fresh engines.
    """

    c: np.ndarray
    model: TestModel
    which: np.ndarray | None
    tol: float
    stream: Callable[[], np.random.Generator | None]
    engines: dict | None


def _picked(model: TestModel, which: np.ndarray | None) -> list[int]:
    if which is None:
        return [j for j, corr in enumerate(model.stratum_corr) if corr is not None]
    picked = np.flatnonzero(which).tolist()
    for j in picked:
        if model.stratum_corr[j] is None:
            raise InfeasibleDesignError(
                f"stratum {sorted(model.strata[j])} involves a population with an empty arm"
            )
    return picked


def _evaluate(requests: list[_Request]) -> list[list[mvprob.ProbResult | None] | Exception]:
    """Every request's per-stratum results, or the error that request raised, in one stacked pass.

    Each request's limits, tol and strata are checked first. Then the strata
    of all requests take one mvprob.orthants call per law (normal, or t with
    a df per row), each stratum at its request's tol. The strata it leaves to
    QMC (five or more dimensions, a degenerate or unsettled quadrature) go
    per request in stratum order, so its QMC strata read its stream in that
    order. Every result equals the stratum's own mvn_cdf/mvt_cdf call.
    """
    out: list = [None] * len(requests)
    picked = {}
    # (request, stratum) pairs by law, for one orthants call each
    laws: dict[str, list[tuple[int, int]]] = {"normal": [], "t": []}
    for i, req in enumerate(requests):
        try:
            mvprob.check_limits(req.c)
            mvprob.check_tol(req.tol)
            picked[i] = _picked(req.model, req.which)
        except RUN_ERRORS as exc:
            out[i] = exc
            continue
        out[i] = [None] * len(req.model.strata)
        laws[req.model.kind].extend((i, j) for j in picked[i])

    for kind, pairs in laws.items():
        if not pairs:
            continue
        models = [requests[i].model for i, _ in pairs]
        results = mvprob.orthants(
            [requests[i].c[model._members[j]] for (i, j), model in zip(pairs, models)],
            [model.stratum_corr[j] for (_, j), model in zip(pairs, models)],
            [model.df for model in models] if kind == "t" else None,
            [requests[i].tol for i, _ in pairs],
        )
        for (i, j), result in zip(pairs, results):
            out[i][j] = result

    for i, strata in picked.items():
        req, results = requests[i], out[i]
        model, stream = req.model, None
        try:
            for j in strata:
                if results[j] is not None:
                    continue
                corr, upper = model.stratum_corr[j], req.c[model._members[j]]
                stream = stream or req.stream()
                if model.kind == "normal":
                    results[j] = mvprob.mvn_cdf(
                        upper, corr, req.tol, stream, method="qmc", engines=req.engines
                    )
                else:
                    results[j] = mvprob.mvt_cdf(
                        upper, corr, model.df, req.tol, stream, method="qmc", engines=req.engines
                    )
        except RUN_ERRORS as exc:
            out[i] = exc
    return out


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
    None. The limits and tol are checked once. The strata are evaluated as one
    request of _evaluate: QMC strata read rng in stratum order, and `engines`
    keeps their scrambled engines across calls. Every result equals the
    stratum's own mvn_cdf/mvt_cdf call.
    """
    [results] = _evaluate([_Request(_c_vector(c, model.m), model, which, tol, lambda: rng, engines)])
    if isinstance(results, Exception):
        raise results
    return results


def _values(results: list[mvprob.ProbResult | None]) -> np.ndarray:
    return np.array([math.nan if r is None else r.value for r in results])


def _pwer(weights: np.ndarray, results: list[mvprob.ProbResult | None]) -> float:
    """sum_J pi_J * (1 - F_J) over the positive weights."""
    mask = weights > 0.0
    return float(np.sum(weights[mask] * (1.0 - _values(results)[mask])))


def pwer_value(
    c,
    pi,
    model: TestModel,
    tol: float = DEFAULT_CDF_TOL,
    rng: np.random.Generator | None = None,
) -> float:
    """PWER(c) = sum_J pi_J * (1 - F_J(c_J)); zero-weight strata contribute 0."""
    weights = prevalence_weights(pi, len(model.strata))
    return _pwer(weights, evaluate_strata(c, model, tol, rng, weights > 0.0))


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


CalibrationSteps = Generator[_Request, list, CriticalValues]


def calibration(
    pi,
    model: TestModel,
    alpha: float,
    seed: Callable[[], int],
    solver_tol: float = DEFAULT_SOLVER_TOL,
    cdf_tol: float = DEFAULT_CDF_TOL,
    verify_tol: float = DEFAULT_VERIFY_TOL,
) -> CalibrationSteps:
    """The calibration of solve_critical_values, one evaluation at a time.

    A generator: it yields each evaluation it needs as a _Request, receives
    that request's per-stratum results (see _evaluate), and returns the
    CriticalValues; solve_lockstep drives many at once. seed() gives the
    integration seed, on first need only (see _Streams).

    It brackets with the single-test and Bonferroni-like quantiles and runs a
    safeguarded secant on the quantile scale, z(c) = Q(PWER(c)) - Q(alpha)
    with Q the marginal upper-tail quantile: z is nearly c - c* (exactly for
    disjoint populations), so the first step from the lower end takes slope
    one and the later ones the secant of the last two iterates. A step that
    leaves the bracket, or two steps that fail to halve it, bisect instead.
    The upper end is evaluated, and checked, only once a bisection or an
    exit needs it. The solver keeps its per-stratum results for every c it
    evaluated. The verify pass (_finish) reuses the deterministic ones at the
    returned c and recomputes only the QMC strata, the deterministic ones
    looser than verify_tol and the zero-weight strata, at verify_tol on the
    verify stream.

    The solve stops once |PWER - alpha| <= min(solver_tol, 1e-3 * alpha), so
    a small alpha is met to a relative precision too.
    """
    weights = prevalence_weights(pi, len(model.strata))
    check_alpha(alpha)
    if not np.any(weights > 0.0):
        raise ConfigError("prevalence vector has no positive component")

    mask = weights > 0.0
    evaluations = 0
    streams = _Streams(seed)
    # the per-stratum results at every c evaluated, for the verify pass
    solved: dict[float, list[mvprob.ProbResult | None]] = {}

    def pwer_at(c: float):
        nonlocal evaluations
        evaluations += 1
        solved[c] = yield _Request(np.full(model.m, c), model, mask, cdf_tol, streams.solve, streams.engines)
        return _pwer(weights, solved[c])

    q_alpha = _upper_quantile(model, alpha)

    def z(p: float) -> float:
        return _upper_quantile(model, p) - q_alpha

    def finish(c: float, p: float):
        return _finish(c, p, weights, model, alpha, verify_tol, cdf_tol, streams, evaluations, solved[c])

    lo = model.tail_quantile(alpha)
    hi = model.tail_quantile(alpha / 2**model.m)
    slack = max(10.0 * solver_tol, 3.0 * cdf_tol)
    f_tol = min(solver_tol, 1e-3 * alpha)
    p_lo = yield from pwer_at(lo)
    if p_lo - alpha < -slack:
        raise NumericalError(
            f"bracket failure: PWER({lo:.6f}) = {p_lo:.3e} already below alpha={alpha}"
        )
    if p_lo - alpha <= f_tol:
        # the single-test bound is already exhausted (disjoint-population case)
        return (yield from finish(lo, p_lo))

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
                p_b = yield from pwer_at(hi)
                if p_b - alpha > slack:
                    raise NumericalError(
                        f"bracket failure: PWER({hi:.6f}) = {p_b:.3e} still above alpha={alpha}"
                    )
                if p_b - alpha >= -f_tol:
                    return (yield from finish(hi, p_b))
            x = 0.5 * (a + b)
        p = yield from pwer_at(x)
        if abs(p - alpha) <= f_tol:
            return (yield from finish(x, p))
        if p > alpha:
            a, p_a = x, p
        else:
            b, p_b = x, p
        widths.append(b - a)
        if b - a <= _SOLVER_XTOL and not math.isnan(p_b):
            return (yield from finish(*min((a, p_a), (b, p_b), key=lambda e: abs(e[1] - alpha))))
        z_x = z(p)
        # a flat secant has no root; its infinite step leaves the bracket
        step = z_x * (x - x_prev) / (z_x - z_prev) if z_x != z_prev else math.inf
        x_prev, z_prev, x = x, z_x, x - step
    raise NumericalError(
        f"critical value iteration did not converge within {_SOLVER_MAX_ITER} steps "
        f"(bracket [{a:.12f}, {b:.12f}])"
    )


def solve_lockstep(calibrations: list[CalibrationSteps]) -> list[CriticalValues | Exception]:
    """Drive calibrations together; each one's CriticalValues, or the error it raised.

    Every step evaluates the pending request of every unfinished calibration
    in one _evaluate call, and the finished ones drop out, so a block of runs
    costs about as many stacked evaluations as its slowest run. An error of
    RUN_ERRORS ends only the calibration it belongs to.
    """
    out: list = [None] * len(calibrations)
    pending: dict[int, _Request] = {}

    def advance(i: int, results) -> None:
        try:
            pending[i] = calibrations[i].send(results)
        except StopIteration as stop:
            out[i] = stop.value
        except RUN_ERRORS as exc:
            out[i] = exc

    for i in range(len(calibrations)):
        advance(i, None)
    while pending:
        order = list(pending)
        for i, results in zip(order, _evaluate([pending.pop(i) for i in order])):
            if isinstance(results, Exception):
                calibrations[i].close()
                out[i] = results
            else:
                advance(i, results)
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
    """Find the shared critical value with PWER(c * 1) = alpha (see calibration).

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


def _finish(
    c_star: float,
    achieved: float,
    weights: np.ndarray,
    model: TestModel,
    alpha: float,
    verify_tol: float,
    cdf_tol: float,
    streams: _Streams,
    evaluations: int,
    solved: list[mvprob.ProbResult | None],
):
    """Verify the solver's PWER at c_star and fill in every stratum's FWER.

    A generator, like calibration: it yields the verify pass's _Request, if
    any. solved holds the solver's per-stratum results at c_star. A
    deterministic one within verify_tol is what the verify pass would
    compute, since quadrature does not depend on tol or stream, and is kept.
    The rest are computed at verify_tol on the verify stream with fresh
    engines: the QMC strata, deterministic ones whose error estimate exceeds
    verify_tol (verify_tol sends them to QMC), and the zero-weight strata with
    a defined law, which true_pwer weighs.
    """
    c_vec = np.full(model.m, c_star)
    redo = model.stratum_ok & np.array(
        [r is None or r.qmc or r.error_estimate > verify_tol for r in solved]
    )
    if redo.any():
        fresh = yield _Request(c_vec, model, redo, verify_tol, streams.verify, None)
        solved = [f if again else r for f, r, again in zip(fresh, solved, redo)]
    fwer = 1.0 - _values(solved)
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
