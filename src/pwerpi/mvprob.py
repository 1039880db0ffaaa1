"""Multivariate normal and t orthant probabilities.

Dimensions up to four use deterministic quadrature: the Drezner-Wesolowsky /
Gauss-Legendre bivariate normal, recursive conditioning on one variable at a
time down to it for the trivariate and four-variate normal, and chi-scale
mixtures of those for the t cases. Each quadrature climbs a ladder of ever
finer rules and stops at the first two adjacent rungs that agree within
TOL_MIN, a fixed constant, so its result never depends on the caller's `tol`;
three times that last gap is the error estimate. A CorrelationMatrix is
validated once and keeps its Cholesky factor and conditioning plan, and its
principal submatrices need no validation of their own. Higher dimensions
integrate the separation-of-variables transform with randomized quasi-Monte
Carlo over scrambled Sobol streams, where the spread across scramblings yields
the error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special
from scipy.stats import qmc

from .errors import ConfigError, NumericalError

_TINY = 1e-300
_ONE = 1.0 - 1e-16

TOL_MIN = 1e-8
TOL_MAX = 1e-3

_EIG_CLIP = -1e-10  # most negative eigenvalue tolerated before hard failure

# conditioning on a pivot degenerates near |rho| = 1
_COND_RHO_MAX = 0.999

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class ProbResult(NamedTuple):
    """A probability with its estimated absolute error and work counter."""

    value: float
    error_estimate: float
    points_used: int


def std_normal_cdf(x: float) -> float:
    return float(special.ndtr(x))


def std_normal_quantile(q: float) -> float:
    if not 0.0 < q < 1.0:
        raise ConfigError(f"quantile argument must lie in (0, 1), got {q}")
    return float(special.ndtri(q))


def t_cdf(x: float, df: float) -> float:
    """Univariate Student-t CDF, real degrees of freedom allowed."""
    return float(special.stdtr(df, x))


def t_quantile(q: float, df: float) -> float:
    if not 0.0 < q < 1.0:
        raise ConfigError(f"quantile argument must lie in (0, 1), got {q}")
    return float(special.stdtrit(df, q))


@dataclass(frozen=True)
class CorrelationMatrix:
    """A validated correlation matrix with a cached Cholesky factor and conditioning plan.

    Symmetry is required within 1e-12 (then symmetrized exactly), the diagonal
    must be 1 within 1e-12, and eigenvalues in [-1e-10, 0) are clipped to zero;
    anything more negative is rejected.
    """

    values: np.ndarray

    def __post_init__(self):
        mat = np.array(self.values, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ConfigError("correlation matrix must be square")
        if not np.all(np.isfinite(mat)):
            raise ConfigError("correlation matrix has non-finite entries")
        if np.max(np.abs(mat - mat.T)) > 1e-12:
            raise ConfigError("correlation matrix must be symmetric within 1e-12")
        if mat.shape[0] and np.max(np.abs(np.diag(mat) - 1.0)) > 1e-12:
            raise ConfigError("correlation matrix diagonal must be 1")
        mat = 0.5 * (mat + mat.T)
        np.fill_diagonal(mat, 1.0)
        if np.max(np.abs(mat)) > 1.0 + 1e-12:
            raise ConfigError("correlation entries must lie in [-1, 1]")
        mat = np.clip(mat, -1.0, 1.0)
        eigvals = np.linalg.eigvalsh(mat)
        if eigvals[0] < _EIG_CLIP:
            raise ConfigError(
                f"correlation matrix is not positive semidefinite (min eigenvalue {eigvals[0]:.3e})"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "values", mat)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def cholesky(self) -> np.ndarray:
        """Lower Cholesky factor; a tiny ridge is added for semidefinite inputs."""
        cached = self.__dict__.get("_chol")
        if cached is not None:
            return cached
        mat = self.values
        chol = None
        for ridge in (0.0, 1e-12, 1e-10):
            try:
                chol = np.linalg.cholesky(mat + ridge * np.eye(self.dim))
                break
            except np.linalg.LinAlgError:
                continue
        if chol is None:
            raise NumericalError("Cholesky factorization failed after ridge repair")
        chol.setflags(write=False)
        object.__setattr__(self, "_chol", chol)
        return chol

    def conditioning(self) -> tuple[list, float] | None:
        """The recursive-conditioning plan of _conditioning, computed once."""
        if "_plan" not in self.__dict__:
            object.__setattr__(self, "_plan", _conditioning(self.values))
        return self.__dict__["_plan"]

    def principal(self, idx) -> CorrelationMatrix:
        """The principal submatrix on the indices idx.

        It equals CorrelationMatrix(values[idx, idx]) exactly and needs no
        validation of its own: every check is entrywise except the eigenvalue
        bound, and by Cauchy interlacing a principal submatrix's smallest
        eigenvalue is no smaller than the whole matrix's.
        """
        sub = object.__new__(CorrelationMatrix)
        values = self.values[np.ix_(idx, idx)]
        values.setflags(write=False)
        object.__setattr__(sub, "values", values)
        return sub


# ---------------------------------------------------------------------------
# deterministic quadratures

_GL_RULES = {n: leggauss(n) for n in (6, 12, 20, 24, 32, 48, 64, 96)}


def _gl_on(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _GL_RULES[n]
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _bvn_upper(h, k, r: float) -> np.ndarray:
    """P(X > h, Y > k) elementwise for standard bivariate normal, scalar r.

    Drezner-Wesolowsky quadrature with Genz's near-singular expansion for
    |r| >= 0.925; |r| must be < 1.
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    if abs(r) < 0.3:
        x, w = _GL_RULES[6]
    elif abs(r) < 0.75:
        x, w = _GL_RULES[12]
    else:
        x, w = _GL_RULES[20]

    hk = h * k
    if abs(r) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(r)
        sn = np.sin(asr * (x + 1.0) / 2.0)
        expo = (hk[..., None] * sn - hs[..., None]) / (1.0 - sn * sn)
        bvn = np.exp(expo) @ w
        return bvn * asr / (4.0 * math.pi) + special.ndtr(-h) * special.ndtr(-k)

    # integrate the difference from the perfectly dependent case
    if r < 0.0:
        k = -k
        hk = -hk
    a_sq = (1.0 - r) * (1.0 + r)
    a = math.sqrt(a_sq)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr0 = -(bs / a_sq + hk) / 2.0
    bvn = np.where(
        asr0 > -100.0,
        a * np.exp(np.maximum(asr0, -700.0))
        * (1.0 - c * (bs - a_sq) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a_sq * a_sq / 5.0),
        0.0,
    )
    b = np.sqrt(bs)
    sp = _SQRT_2PI * special.ndtr(-b / a)
    tail = np.exp(np.maximum(-hk / 2.0, -700.0)) * sp * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
    bvn = bvn - np.where(-hk < 100.0, tail, 0.0)
    half = a / 2.0
    xs = (half * (x + 1.0)) ** 2
    rs = np.sqrt(1.0 - xs)
    asr_v = -(bs[..., None] / xs + hk[..., None]) / 2.0
    sp_v = 1.0 + c[..., None] * xs * (1.0 + d[..., None] * xs)
    ep_v = np.exp(-hk[..., None] * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
    contrib = np.where(asr_v > -100.0, np.exp(np.maximum(asr_v, -700.0)) * (ep_v - sp_v), 0.0)
    bvn = bvn + half * (contrib @ w)
    bvn = -bvn / (2.0 * math.pi)
    if r > 0.0:
        return bvn + special.ndtr(-np.maximum(h, k))
    return -bvn + np.where(k > h, special.ndtr(k) - special.ndtr(h), 0.0)


def bvn_cdf_many(b1, b2, rho: float) -> np.ndarray:
    """P(X <= b1, Y <= b2) elementwise, standard bivariate normal, scalar rho."""
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if rho >= 1.0 - 1e-13:
        return special.ndtr(np.minimum(b1, b2))
    if rho <= -1.0 + 1e-13:
        return np.maximum(0.0, special.ndtr(b1) + special.ndtr(b2) - 1.0)
    return np.clip(_bvn_upper(-b1, -b2, rho), 0.0, 1.0)


def bvn_cdf(b1: float, b2: float, rho: float) -> float:
    return float(bvn_cdf_many(np.float64(b1), np.float64(b2), rho))


def _conditioning(corr: np.ndarray) -> tuple[list, float] | None:
    """The layers of recursive conditioning on one variable at a time.

    Each layer pivots on the variable least correlated with the others (the
    first one on ties) and keeps its (order, r, s), r and s shaped (d-1, 1, 1):
    given the pivot X1 = y, the others are normal with limits (u - r y)/s and
    one conditional correlation matrix for every y, on which the next layer
    pivots. Returns the layers and the correlation of the last two
    variables; None when a pivot's largest correlation makes the
    conditioning degenerate. The matrices are small, so this works on floats.
    """
    rows = corr.tolist()
    layers = []
    while len(rows) > 2:
        scores = [max(abs(v) for j, v in enumerate(row) if j != i) for i, row in enumerate(rows)]
        best = scores.index(min(scores))
        if scores[best] > _COND_RHO_MAX:
            return None
        rest = [i for i in range(len(rows)) if i != best]
        r = [rows[best][i] for i in rest]
        s = [math.sqrt(1.0 - x * x) for x in r]
        layers.append(([best] + rest, np.array(r)[:, None, None], np.array(s)[:, None, None]))
        rows = [
            [min(max((rows[i][j] - r[a] * r[b]) / (s[a] * s[b]), -1.0), 1.0) for b, j in enumerate(rest)]
            for a, i in enumerate(rest)
        ]
    return layers, rows[0][1]


def _cond_quad(upper: np.ndarray, layers: list, rho: float, nodes: tuple[int, ...]) -> np.ndarray:
    """Normal orthant probability of each column of limits by recursive conditioning.

    upper is (d, n): n limit vectors that share the correlation whose
    _conditioning gave `layers` and `rho`. The first layer's pivot is
    integrated over nodes[0] Gauss-Legendre nodes in y, and the conditioned
    rest is one stacked call for every (column, y): the next layer with
    nodes[1:], or the bivariate rule once two variables remain.
    """
    (order, r, s), *inner_layers = layers
    upper = upper[order]
    lo = -8.6
    hi = np.minimum(upper[0], 8.6)
    width = np.maximum(hi - lo, 0.0)
    x, w = _GL_RULES[nodes[0]]
    y = lo + (x[None, :] + 1.0) / 2.0 * width[:, None]
    wt = w[None, :] * width[:, None] / 2.0
    lim = (upper[1:, :, None] - r * y) / s
    if inner_layers:
        inner = _cond_quad(lim.reshape(r.shape[0], -1), inner_layers, rho, nodes[1:]).reshape(y.shape)
    else:
        inner = bvn_cdf_many(lim[0], lim[1], rho)
    phi = np.exp(-0.5 * y * y) / _SQRT_2PI
    return (inner * phi * wt).sum(axis=1)


# The rule ladders, coarse to fine: the Gauss-Legendre node count of each
# conditioning layer, led for the t law by the chi-scale nodes. The normal
# ladder usually stops at its middle rung. The t ladders have two rungs: at 24
# chi-scale nodes the mixture is only accurate to ~2e-7, so a coarser t rung
# would never agree with the next within TOL_MIN.
_NORMAL_RULES = {d: tuple((n,) * (d - 2) for n in (24, 48, 96)) for d in (3, 4)}
_T_RULES = {3: ((32, 48), (64, 96)), 4: ((32, 32, 32), (64, 48, 48))}
# bivariate evaluations per stacked _cond_quad call of the t mixture, which
# bounds its temporaries at a few MB
_QUAD_BLOCK = 1 << 14


def _ladder(rules, evaluate: Callable, floor: float) -> ProbResult:
    """Evaluate the rules in turn until two adjacent ones agree within TOL_MIN.

    evaluate(rule) returns (value, points). The result is the last rule's
    value with three times its gap to the one before as the error estimate
    (at least `floor`); points_used sums the rules evaluated.
    """
    prev, points = evaluate(rules[0])
    for rule in rules[1:]:
        value, n = evaluate(rule)
        points += n
        err = 3.0 * abs(value - prev)
        if err <= TOL_MIN:
            break
        prev = value
    return ProbResult(min(1.0, max(0.0, value)), max(err, floor), points)


def _mvn_det(upper: np.ndarray, corr: CorrelationMatrix) -> ProbResult | None:
    """Deterministic normal orthant probability (d = 3, 4), or None when conditioning degenerates."""
    plan = corr.conditioning()
    if plan is None:
        return None

    def evaluate(nodes):
        return float(_cond_quad(upper[:, None], *plan, nodes)[0]), math.prod(nodes)

    return _ladder(_NORMAL_RULES[corr.dim], evaluate, 1e-10)


def _chi_scale_nodes(df: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes in s = chi_df / sqrt(df), weighted by its density."""
    lo = math.sqrt(2.0 * special.gammaincinv(df / 2.0, 1e-16) / df)
    hi = math.sqrt(2.0 * special.gammaincinv(df / 2.0, 1.0 - 1e-16) / df)
    s, wt = _gl_on(lo, hi, n)
    xs = s * math.sqrt(df)
    log_pdf = (
        (df - 1.0) * np.log(xs)
        - 0.5 * xs * xs
        - (df / 2.0 - 1.0) * math.log(2.0)
        - special.gammaln(df / 2.0)
        + 0.5 * math.log(df)
    )
    return s, wt * np.exp(log_pdf)


def _bvt_det(upper: np.ndarray, rho: float, df: float) -> ProbResult:
    """Bivariate t as a chi-scale mixture of deterministic bivariate normals."""

    def evaluate(n):
        s, w = _chi_scale_nodes(df, n)
        return float(np.sum(w * bvn_cdf_many(s * upper[0], s * upper[1], rho))), n

    return _ladder((32, 64), evaluate, 1e-10)


def _mvt_det(upper: np.ndarray, corr: CorrelationMatrix, df: float) -> ProbResult | None:
    """Deterministic t orthant probability (d = 3, 4) as a chi-scale mixture of
    normal ones, or None when conditioning degenerates."""
    plan = corr.conditioning()
    if plan is None:
        return None

    def evaluate(rule):
        n_chi, *nodes = rule
        s, w = _chi_scale_nodes(df, n_chi)
        step = max(1, _QUAD_BLOCK // math.prod(nodes))
        inner = np.concatenate(
            [_cond_quad(upper[:, None] * s[i:i + step], *plan, nodes) for i in range(0, n_chi, step)]
        )
        return float(np.sum(w * inner)), math.prod(rule)

    return _ladder(_T_RULES[corr.dim], evaluate, 1e-9)


# ---------------------------------------------------------------------------
# randomized quasi-Monte Carlo over the separation-of-variables transform


def _sov_product(chol: np.ndarray, upper: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Conditional-probability product of the transformed integrand.

    upper is one limit vector shared by every point, or one row of limits per
    point (the t case, where limits are scaled by the chi draw); w holds the
    uniforms driving dimensions 2..d.
    """
    n, d = w.shape[0], chol.shape[0]
    e = special.ndtr(upper[..., 0] / chol[0, 0])
    prod = np.full(n, e)
    if d == 1:
        return prod
    y = np.empty((n, d - 1))
    for i in range(1, d):
        z = np.minimum(np.maximum(w[:, i - 1] * e, _TINY), _ONE)
        y[:, i - 1] = special.ndtri(z)
        num = upper[..., i] - y[:, :i] @ chol[i, :i]
        e = special.ndtr(num / chol[i, i])
        prod *= e
    return prod


# Randomized QMC: independent scramblings per integral, the first block size
# (a power of two, so every cumulative count is one too) and the point budget
# beyond which an unconverged integral is an error.
_N_SHIFTS = 12
_N_START = 128
_MAX_POINTS = 1 << 26


def _randomized_qmc(
    dim: int,
    integrand: Callable[[np.ndarray], np.ndarray],
    tol: float,
    rng: np.random.Generator,
    engines: dict | None = None,
) -> ProbResult:
    """Scrambled-Sobol integration on [0,1]^dim.

    Independent scramblings play the role of the random shifts; the estimate
    is their mean and the error three standard errors of their spread.
    Refinement extends each scrambled stream, so cumulative counts stay powers
    of two and every prefix remains a digital net. The scrambling seeds come
    from `rng`. `engines` keeps the scrambled engines across calls, keyed by
    dimension and seeds: a later call drawing the same seeds rewinds them
    instead of scrambling anew, and integrates the same points. Points are
    generated one scrambling's block at a time and never kept.
    """
    seeds = rng.integers(0, 2**63 - 1, size=_N_SHIFTS)
    key = (dim, *seeds.tolist())
    sobol = None if engines is None else engines.get(key)
    if sobol is None:
        sobol = [qmc.Sobol(dim, scramble=True, seed=int(seed)) for seed in seeds]
        if engines is not None:
            engines[key] = sobol
    else:
        for engine in sobol:
            engine.reset()
    totals = np.zeros(_N_SHIFTS)
    count = 0
    n_next = _N_START
    while True:
        for s, engine in enumerate(sobol):
            totals[s] += integrand(engine.random(n_next)).sum()
        count += n_next
        means = totals / count
        estimate = float(means.mean())
        error = float(3.0 * means.std(ddof=1) / math.sqrt(_N_SHIFTS))
        if error <= tol:
            return ProbResult(min(1.0, max(0.0, estimate)), error, count * _N_SHIFTS)
        if count * _N_SHIFTS >= _MAX_POINTS:
            raise NumericalError(
                f"QMC budget of {_MAX_POINTS} points exhausted at error {error:.2e} > tol {tol:.2e}"
            )
        n_next = count


def _check_options(tol: float, method: str) -> None:
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ConfigError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    if method not in ("auto", "qmc"):
        raise ConfigError(f"method must be 'auto' or 'qmc', got {method!r}")


def _check_upper(upper, corr: CorrelationMatrix) -> np.ndarray:
    upper = np.asarray(upper, dtype=float).reshape(-1)
    if upper.shape[0] != corr.dim:
        raise ConfigError(f"limit vector has length {upper.shape[0]}, matrix dimension is {corr.dim}")
    if not np.all(np.isfinite(upper)):
        raise ConfigError("integration limits must be finite")
    return upper


def mvn_cdf(
    upper,
    corr: CorrelationMatrix,
    tol: float = 1e-6,
    rng: np.random.Generator | None = None,
    *,
    method: str = "auto",
    engines: dict | None = None,
) -> ProbResult:
    """P(Z <= upper componentwise) for Z ~ N(0, corr).

    Dimensions up to four are deterministic under method="auto". Larger
    dimensions, method="qmc", inputs with no usable conditioning pivot, and
    three- or four-dimensional ones whose quadrature error estimate exceeds
    `tol` use randomized QMC driven by `rng` (a seed-0 stream when omitted), so
    identical inputs and stream state give bit-identical results. `engines`
    is the scrambled-engine store of _randomized_qmc (None builds fresh
    engines); it changes no result.
    """
    _check_options(tol, method)
    upper = _check_upper(upper, corr)
    d = corr.dim
    if d == 1:
        return ProbResult(float(special.ndtr(upper[0])), 1e-16, 1)
    if d == 2 and method == "auto":
        value = bvn_cdf(upper[0], upper[1], corr.values[0, 1])
        return ProbResult(value, 5e-15, 20)
    if d in _NORMAL_RULES and method == "auto":
        result = _mvn_det(upper, corr)
        if result is not None and result.error_estimate <= tol:
            return result
    if rng is None:
        rng = np.random.default_rng(0)
    chol = corr.cholesky()

    def integrand(w):
        return _sov_product(chol, upper, w)

    return _randomized_qmc(d - 1, integrand, tol, rng, engines)


def mvt_cdf(
    upper,
    corr: CorrelationMatrix,
    df: float,
    tol: float = 1e-6,
    rng: np.random.Generator | None = None,
    *,
    method: str = "auto",
    engines: dict | None = None,
) -> ProbResult:
    """P(T <= upper componentwise) for multivariate t with scale `corr`.

    df may be any real >= 1 (Satterthwaite produces non-integral values).
    Converges to mvn_cdf as df grows. `method`, `rng` and `engines` act as in
    mvn_cdf.
    """
    _check_options(tol, method)
    if df < 1.0:
        raise ConfigError(f"degrees of freedom must be >= 1, got {df}")
    upper = _check_upper(upper, corr)
    d = corr.dim
    if d == 1:
        return ProbResult(float(special.stdtr(df, upper[0])), 1e-14, 1)
    if d == 2:
        rho = corr.values[0, 1]
        if rho >= 1.0 - 1e-13:
            return ProbResult(float(special.stdtr(df, min(upper))), 1e-14, 1)
        if rho <= -1.0 + 1e-13:
            value = max(0.0, float(special.stdtr(df, upper[0]) + special.stdtr(df, upper[1]) - 1.0))
            return ProbResult(value, 1e-14, 1)
        if method == "auto":
            return _bvt_det(upper, rho, df)
    if d in _T_RULES and method == "auto":
        result = _mvt_det(upper, corr, df)
        if result is not None and result.error_estimate <= tol:
            return result
    if rng is None:
        rng = np.random.default_rng(0)
    chol = corr.cholesky()
    half_df = df / 2.0

    def integrand(w):
        # first coordinate drives the chi scaling, the rest the normal SOV
        u = np.minimum(np.maximum(w[:, 0], _TINY), _ONE)
        scale = np.sqrt(2.0 * special.gammaincinv(half_df, u) / df)
        rows = scale[:, None] * upper[None, :]
        return _sov_product(chol, rows, w[:, 1:])

    return _randomized_qmc(d, integrand, tol, rng, engines)
