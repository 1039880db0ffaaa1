"""Multivariate normal and t orthant probabilities.

Dimensions up to four use deterministic quadrature: the Drezner-Wesolowsky /
Gauss-Legendre bivariate normal, recursive conditioning on one variable at a
time down to it for the trivariate and four-variate normal, and for the t law
the chi-weighted sum of those normal orthants at limits upper * s, s =
chi_df / sqrt(df). The chi-scale nodes are the Gauss rule of the chi measure
(Golub-Welsch on the generalized-Laguerre Jacobi matrix) for df >= 80, and
Gauss-Legendre nodes on the range of the chi law, weighted by its density,
below that. Each quadrature climbs a ladder of ever finer rules, one ladder
per dimension and law (each chi-scale family has its own), and
stops at the first two adjacent rungs that agree within TOL_MIN, a fixed
constant, so its result never depends on the caller's `tol`; three times that
last gap is the error estimate. `orthants` evaluates many laws of one kind in
one stacked call, each row with its own correlation and, for t, its own df,
and returns None for the rows that need QMC; every row equals its own call
bit for bit, and mvn_cdf/mvt_cdf are calls of one row. A CorrelationMatrix is
validated once and keeps its Cholesky factor and conditioning plan, and its
principal submatrices need no validation of their own. Higher dimensions
integrate the separation-of-variables transform with randomized quasi-Monte
Carlo over scrambled Sobol streams, where the spread across scramblings yields
the error estimate; scipy.stats.qmc is imported only once QMC runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

from .errors import ConfigError, NumericalError

_TINY = 1e-300
_ONE = 1.0 - 1e-16

TOL_MIN = 1e-8
TOL_MAX = 1e-3

_EIG_CLIP = -1e-10  # most negative eigenvalue tolerated before hard failure

# conditioning on a pivot degenerates near |rho| = 1
_COND_RHO_MAX = 0.999

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def __getattr__(name: str):
    """`qmc` is scipy.stats.qmc, imported on first use: scipy.stats is most of
    the package's import time and memory, and only QMC strata need it."""
    if name == "qmc":
        from scipy.stats import qmc

        return qmc
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ProbResult(NamedTuple):
    """A probability with its estimated absolute error and work counter.

    qmc marks a randomized-QMC estimate; every other result is deterministic
    quadrature and does not depend on the call's tol or stream.
    """

    value: float
    error_estimate: float
    points_used: int
    qmc: bool = False


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
        [checked] = correlation_matrices(mat[None])
        if isinstance(checked, ConfigError):
            raise checked
        object.__setattr__(self, "values", checked.values)

    @classmethod
    def _trusted(cls, values: np.ndarray) -> CorrelationMatrix:
        """A CorrelationMatrix of read-only values known to pass its checks."""
        corr = object.__new__(cls)
        object.__setattr__(corr, "values", values)
        return corr

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
        eigenvalue is no smaller than the whole matrix's. Every 1-dim
        submatrix is the one shared _UNIT_CORRELATION.
        """
        return principals([self], idx)[0]


def correlation_matrices(mats: np.ndarray) -> list[CorrelationMatrix | ConfigError]:
    """CorrelationMatrix(mats[r]) for every matrix of the stack mats (R, k, k),
    or the ConfigError that construction raises.

    Each check runs once over the whole stack, the eigenvalue bound in one
    stacked eigvalsh, and every accepted matrix equals its own construction
    bit for bit.
    """
    mats = np.array(mats, dtype=float)
    k = mats.shape[-1]
    failed = [""] * mats.shape[0]

    def fail(mask: np.ndarray, message) -> None:
        for r in np.flatnonzero(mask).tolist():
            failed[r] = failed[r] or (message(r) if callable(message) else message)

    finite = np.isfinite(mats).all(axis=(1, 2))
    fail(~finite, "correlation matrix has non-finite entries")
    mats[~finite] = np.eye(k)  # keeps them out of the checks below
    fail(np.abs(mats - mats.transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-12,
         "correlation matrix must be symmetric within 1e-12")
    fail(np.abs(np.diagonal(mats, axis1=1, axis2=2) - 1.0).max(axis=1) > 1e-12,
         "correlation matrix diagonal must be 1")
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))
    mats[:, range(k), range(k)] = 1.0
    fail(np.abs(mats).max(axis=(1, 2)) > 1.0 + 1e-12, "correlation entries must lie in [-1, 1]")
    mats = np.clip(mats, -1.0, 1.0)
    checked = np.array([not f for f in failed])[:, None, None]
    smallest = np.linalg.eigvalsh(np.where(checked, mats, np.eye(k)))[:, 0]
    fail(smallest < _EIG_CLIP,
         lambda r: f"correlation matrix is not positive semidefinite (min eigenvalue {smallest[r]:.3e})")
    mats.setflags(write=False)
    return [ConfigError(f) if f else CorrelationMatrix._trusted(mat) for f, mat in zip(failed, mats)]


def principals(corrs: list[CorrelationMatrix], idx) -> list[CorrelationMatrix]:
    """corr.principal(idx) for every corr of one dimension, from one stacked index."""
    if len(idx) == 1:
        return [_UNIT_CORRELATION] * len(corrs)
    values = np.array([corr.values for corr in corrs])[:, idx][:, :, idx]
    values.setflags(write=False)
    return [CorrelationMatrix._trusted(v) for v in values]


# the [[1.0]] of every 1-dim stratum; its diagonal is exact, as in any CorrelationMatrix
_UNIT_CORRELATION = CorrelationMatrix(np.ones((1, 1)))


# ---------------------------------------------------------------------------
# deterministic quadratures

_GL_RULES = {n: leggauss(n) for n in (6, 12, 20, 24, 32, 48, 64, 96)}


def _gl_on(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _GL_RULES[n]
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _bvn_upper(h, k, r, lead: float) -> np.ndarray:
    """P(X > h, Y > k) elementwise for standard bivariate normal.

    Drezner-Wesolowsky quadrature with Genz's near-singular expansion for
    |r| >= 0.925; every |r| must be < 1. r is one correlation, or an array of
    them that broadcasts against h and k; an array's entries share the node
    band, the branch and, in the near-singular branch, the sign of `lead`.
    Each entry of h reduces its own nodes, so a stacked call returns the
    entries of separate calls bit for bit.
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    if abs(lead) < 0.3:
        x, w = _GL_RULES[6]
    elif abs(lead) < 0.75:
        x, w = _GL_RULES[12]
    else:
        x, w = _GL_RULES[20]

    stacked = isinstance(r, np.ndarray)
    hk = h * k
    if abs(lead) < 0.925:
        hs = (h * h + k * k) / 2.0
        # math.asin, not np.arcsin: the two differ in the last bit
        asr = np.array([math.asin(v) for v in r.flat]).reshape(r.shape) if stacked else math.asin(r)
        sn = np.sin((asr[..., None] if stacked else asr) * (x + 1.0) / 2.0)
        expo = (hk[..., None] * sn - hs[..., None]) / (1.0 - sn * sn)
        bvn = np.exp(expo) @ w
        return bvn * asr / (4.0 * math.pi) + special.ndtr(-h) * special.ndtr(-k)

    # integrate the difference from the perfectly dependent case
    if lead < 0.0:
        k = -k
        hk = -hk
    a_sq = (1.0 - r) * (1.0 + r)
    a = np.sqrt(a_sq)
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
    xs = ((half[..., None] if stacked else half) * (x + 1.0)) ** 2
    rs = np.sqrt(1.0 - xs)
    asr_v = -(bs[..., None] / xs + hk[..., None]) / 2.0
    sp_v = 1.0 + c[..., None] * xs * (1.0 + d[..., None] * xs)
    ep_v = np.exp(-hk[..., None] * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
    contrib = np.where(asr_v > -100.0, np.exp(np.maximum(asr_v, -700.0)) * (ep_v - sp_v), 0.0)
    bvn = bvn + half * (contrib @ w)
    bvn = -bvn / (2.0 * math.pi)
    if lead > 0.0:
        return bvn + special.ndtr(-np.maximum(h, k))
    return -bvn + np.where(k > h, special.ndtr(k) - special.ndtr(h), 0.0)


def _bvn_lower(b1: np.ndarray, b2: np.ndarray, r, lead: float) -> np.ndarray:
    """P(X <= b1, Y <= b2) for correlations that share `lead`'s edge or band (see _bvn_upper)."""
    if lead >= 1.0 - 1e-13:
        return special.ndtr(np.minimum(b1, b2))
    if lead <= -1.0 + 1e-13:
        return np.maximum(0.0, special.ndtr(b1) + special.ndtr(b2) - 1.0)
    return np.clip(_bvn_upper(-b1, -b2, r, lead), 0.0, 1.0)


# the |r| bounds of the 6/12/20-node bands and of the near-singular branch
_BVN_BANDS = np.array([0.3, 0.75, 0.925])


def _bvn_rules(rho: np.ndarray) -> np.ndarray:
    """The rule each correlation takes: 0-2 the 6/12/20-node bands, 3 and 4 the
    near-singular branch for r > 0 and r < 0 (and 3 for nan), 5 and 6 the
    edges within 1e-13 of +1 and -1. A few array operations, not a Python
    call per entry: np.select or np.unique would cost more than that loop at
    the tens of entries of a lockstep call."""
    rules = np.searchsorted(_BVN_BANDS, np.abs(rho), side="right")
    rules[(rules == 3) & (rho < 0.0)] = 4
    rules[rho >= 1.0 - 1e-13] = 5
    rules[rho <= -1.0 + 1e-13] = 6
    return rules


def bvn_cdf_many(b1, b2, rho) -> np.ndarray:
    """P(X <= b1, Y <= b2) elementwise, standard bivariate normal.

    rho is one correlation, or a 1-dim array of them, one per entry of the
    leading axis of b1 and b2, which then share one shape. The entries are
    evaluated in groups that share a rule (_bvn_rules), one stacked
    quadrature per group that keeps each entry's trailing axes, and each
    equals, bit for bit, the call with its own rho alone.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if np.ndim(rho) == 0:
        return _bvn_lower(b1, b2, float(rho), float(rho))
    rho = np.asarray(rho, dtype=float)
    rules = _bvn_rules(rho)
    out = np.empty(b1.shape)
    for rule in set(rules.tolist()):
        idx = np.flatnonzero(rules == rule)
        lead = rho[idx[0]]
        if len(idx) == 1:
            out[idx[0]] = _bvn_lower(b1[idx[0]], b2[idx[0]], lead, lead)
            continue
        # the entry's own trailing axes (one, at least), so its nodes reduce as in its own call
        shape = (len(idx),) + (b1.shape[1:] or (1,))
        r = rho[idx].reshape((-1,) + (1,) * (len(shape) - 1))
        values = _bvn_lower(b1[idx].reshape(shape), b2[idx].reshape(shape), r, lead)
        out[idx] = values.reshape(out[idx].shape)
    return out


def bvn_cdf(b1: float, b2: float, rho: float) -> float:
    return float(bvn_cdf_many(np.float64(b1), np.float64(b2), rho))


def _conditioning(corr: np.ndarray) -> tuple[list, np.ndarray] | None:
    """The layers of recursive conditioning on one variable at a time.

    Each layer pivots on the variable least correlated with the others (the
    first one on ties) and keeps its (order, r, s): given the pivot X1 = y,
    the others are normal with limits (u - r y)/s and one conditional
    correlation matrix for every y, on which the next layer pivots. Returns
    the layers and the correlation of the last two variables, stacked as a
    plan of one row (see _stack_plans); None when a pivot's largest
    correlation makes the conditioning degenerate. The matrices are small,
    so this works on floats.
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
        layers.append((np.array([best] + rest)[:, None], np.array(r)[:, None], np.array(s)[:, None]))
        rows = [
            [min(max((rows[i][j] - r[a] * r[b]) / (s[a] * s[b]), -1.0), 1.0) for b, j in enumerate(rest)]
            for a, i in enumerate(rest)
        ]
    return layers, np.array([rows[0][1]])


def _stack_plans(plans: list) -> tuple[list, np.ndarray]:
    """Conditioning plans of one dimension stacked into one, a column per plan."""
    layers = [
        tuple(np.concatenate(part, axis=1) for part in zip(*layer))
        for layer in zip(*(plan[0] for plan in plans))
    ]
    return layers, np.array([plan[1][0] for plan in plans])


def _cond_quad(upper: np.ndarray, layers: list, rho: np.ndarray, nodes: tuple[int, ...]) -> np.ndarray:
    """Normal orthant probability of limits by recursive conditioning.

    upper is (d, n, *t): n rows, row i conditioned on column i of the stacked
    plan (layers, rho), each with the limit vectors t that share its plan.
    The first layer's pivot is integrated over nodes[0] Gauss-Legendre nodes
    in y, and the conditioned rest is one stacked call for every (row, t, y):
    the next layer with nodes[1:], or the bivariate rule once two variables
    remain (with no layer left, upper itself is bivariate). Every entry of
    the (n, *t) result reduces its own nodes, so it equals, bit for bit, its
    row's call with that limit vector alone.
    """
    if not layers:
        return bvn_cdf_many(upper[0], upper[1], rho)
    (order, r, s), *inner_layers = layers
    upper = upper[order, np.arange(order.shape[1])]
    lo = -8.6
    hi = np.minimum(upper[0], 8.6)
    width = np.maximum(hi - lo, 0.0)
    x, w = _GL_RULES[nodes[0]]
    y = lo + (x + 1.0) / 2.0 * width[..., None]
    wt = w * width[..., None] / 2.0
    per_row = (slice(None), slice(None)) + (None,) * (y.ndim - 1)
    lim = (upper[1:, ..., None] - r[per_row] * y) / s[per_row]
    inner = _cond_quad(lim, inner_layers, rho, nodes[1:])
    phi = np.exp(-0.5 * y * y) / _SQRT_2PI
    return (inner * phi * wt).sum(axis=-1)


# The rule ladders, coarse to fine, and the error floor of each deterministic
# law, by (dimension, chi-scale rule): the node count of each conditioning
# layer, led for the t law by the chi-scale nodes. The bivariate normal is one
# rung of its own 6/12/20-node rules, counted as the 20 nodes of its finest
# band. The normal ladder usually stops at its middle rung. A t law with df >=
# _GAMMA_DF takes the Gauss rule of the chi measure ("gamma"), accurate to
# ~5e-11 at 8 nodes, so its ladders start there. Below that df the Gamma rule
# converges slowly (5e-6 at 32 nodes for df = 5), and the chi-scale nodes are
# Gauss-Legendre nodes on the range of the chi law ("legendre"): at 24 of them
# the mixture is only accurate to ~2e-7, so those ladders have two rungs, as a
# coarser rung would never agree with the next within TOL_MIN.
_LADDERS = {
    (2, None): (((20,),), 5e-15),
    (3, None): (((24,), (48,), (96,)), 1e-10),
    (4, None): (((24, 24), (48, 48), (96, 96)), 1e-10),
    (2, "legendre"): (((32,), (64,)), 1e-10),
    (3, "legendre"): (((32, 48), (64, 96)), 1e-9),
    (4, "legendre"): (((32, 32, 32), (64, 48, 48)), 1e-9),
    (2, "gamma"): (((8,), (12,), (16,)), 1e-10),
    (3, "gamma"): (((8, 24), (12, 48), (16, 96)), 1e-9),
    (4, "gamma"): (((8, 24, 24), (12, 48, 48), (16, 96, 96)), 1e-9),
}
_GAMMA_DF = 80.0
# bivariate evaluations per stacked _cond_quad call, which bounds its
# temporaries at about a MB; pieces twice that size run slower out of cache
_QUAD_BLOCK = 1 << 13


def _ladder(rules, evaluate: Callable, floor: float, n: int) -> list[ProbResult]:
    """Climb the rules for n integrals at once, each until two adjacent rules agree within TOL_MIN.

    evaluate(rule, active) returns the values under rule of the integrals
    indexed by the array active, and the points that rule takes per
    integral. An integral's result is the last rule's value with three times
    its gap to the one before as the error estimate (at least `floor`, which
    a ladder of one rule always takes); points_used sums the rules it
    evaluated. The integrals still climbing after a rule are the only ones
    the next rule evaluates.
    """
    out: list[ProbResult | None] = [None] * n
    active, points = np.arange(n), 0
    for k, rule in enumerate(rules, 1):
        value, more = evaluate(rule, active)
        points += more
        if k == 1 < len(rules):
            prev = value
            continue
        # the floor lies below TOL_MIN, so it decides no integral's stop
        err = np.maximum(3.0 * np.abs(value - prev), floor) if k > 1 else None
        done = err <= TOL_MIN if k < len(rules) else slice(None)
        settled = np.minimum(1.0, np.maximum(0.0, value[done])).tolist()
        results = map(ProbResult, settled, repeat(floor) if err is None else err[done].tolist(), repeat(points))
        for i, result in zip(active[done].tolist(), results):
            out[i] = result
        if k == len(rules) or done.all():
            break
        active, prev = active[~done], value[~done]
    return out


def _chi_rule(df: float) -> str:
    """The chi-scale rule of a t law with df degrees of freedom (see _LADDERS)."""
    return "gamma" if df >= _GAMMA_DF else "legendre"


# (df, n) rules kept: a lockstep block of sim's 64 runs, each with its own df
# (Satterthwaite), climbs up to three rungs for each of its t strata
_CHI_RULES_KEPT = 512


@lru_cache(maxsize=_CHI_RULES_KEPT)
def _chi_scale_nodes(df: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n nodes in s = chi_df / sqrt(df) and their weights under its density.

    For df >= _GAMMA_DF, the Gauss rule of the chi measure: x = df s^2 / 2 is
    Gamma(df/2), whose Gauss rule (Golub & Welsch 1969) has as nodes the
    eigenvalues of the generalized-Laguerre Jacobi matrix, with diagonal
    2k + a + 1, off-diagonal sqrt(k (k + a)) and a = df/2 - 1, and as weights
    the squared first components of its eigenvectors. Below it, Gauss-Legendre
    nodes on [F^-1(1e-16), F^-1(1 - 1e-16)] of the chi law, weighted by its
    density. Read-only and cached per (df, n): every PWER evaluation of a
    solve, and every run that shares its df, integrates on the same rule.
    """
    if _chi_rule(df) == "gamma":
        a = df / 2.0 - 1.0
        k = np.arange(1.0, n)
        off = np.sqrt(k * (k + a))
        jacobi = np.diag(2.0 * np.arange(n) + a + 1.0) + np.diag(off, 1) + np.diag(off, -1)
        x, vectors = np.linalg.eigh(jacobi)
        s, w = np.sqrt(2.0 * x / df), vectors[0] ** 2
    else:
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
        w = wt * np.exp(log_pdf)
    s.setflags(write=False)
    w.setflags(write=False)
    return s, w


def _quadrature(
    upper: np.ndarray, layers: list, rho: np.ndarray, df: np.ndarray | None, chi: str | None
) -> list[ProbResult]:
    """The deterministic law of every column of upper (d x n), column i
    conditioned on column i of the stacked plan (layers, rho; see _cond_quad):
    normal, or t with df[i] degrees of freedom as the chi-weighted sum of
    normal orthants at limits upper * s, every df on the chi-scale rule chi.

    The rows climb the ladder of _LADDERS together: each rung is one stacked
    _cond_quad over the rows still climbing, in pieces of at most _QUAD_BLOCK
    bivariate evaluations. A t row's chi-scale nodes are limit vectors of its
    own, in chunks halved until they fit a piece (all of them for a
    bivariate row). Each row reduces its nodes in the shapes of its own call,
    so it equals that call bit for bit.
    """
    d = upper.shape[0]
    rules, floor = _LADDERS[d, chi]

    def evaluate(rule, active):
        limits, columns, nodes = upper[:, active], active, rule
        if df is not None:
            n_chi, *nodes = rule
            scales = [_chi_scale_nodes(v, n_chi) for v in df[active].tolist()]
            # each row's chi-scale nodes in chunks of limit vectors, as few as fit a piece;
            # halving 8, 12 or 16 nodes (or a power of two) keeps every chunk whole
            chunk = n_chi
            while chunk > 1 and chunk * math.prod(nodes) > _QUAD_BLOCK:
                chunk //= 2
            limits = (limits[..., None] * np.array([s for s, _ in scales])).reshape(d, -1, chunk)
            columns = np.repeat(active, n_chi // chunk)
        step = max(1, _QUAD_BLOCK // (math.prod(nodes) * math.prod(limits.shape[2:])))
        parts = []
        for i in range(0, len(columns), step):
            piece = columns[i:i + step]
            sub = [(o[:, piece], r[:, piece], s[:, piece]) for o, r, s in layers]
            parts.append(_cond_quad(limits[:, i:i + step], sub, rho[piece], nodes))
        values = np.concatenate(parts)
        if df is not None:
            values = np.sum(np.array([w for _, w in scales]) * values.reshape(len(active), -1), axis=1)
        return values, math.prod(rule)

    return _ladder(rules, evaluate, floor, upper.shape[1])


def orthants(limits, corrs: list[CorrelationMatrix], df=None, tol=1e-6) -> list[ProbResult | None]:
    """P(X <= limits[i]) for every row i, with X standard normal under the
    correlation corrs[i], or t when df (one value, or one per row) is given;
    None where the row needs QMC.

    The rows are grouped by dimension and, for the t law from two dimensions
    on, by chi-scale rule (see _LADDERS). One-dimensional rows take one
    vectorized marginal CDF, bivariate t rows whose correlation lies within
    1e-13 of +-1 their exact degenerate laws, and the other rows of two to
    four dimensions climb their rule ladder together (_quadrature). A row is
    None when it has five or more dimensions, no usable conditioning pivot,
    or three or four dimensions and an error estimate above tol (one value,
    or one per row); rows of one or two dimensions never are. The limits
    must be finite and df a finite real >= 1 (see check_limits, check_df).
    Each row equals its own call bit for bit.
    """
    n, t = len(corrs), df is not None
    df = np.broadcast_to(np.asarray(df, dtype=float), (n,)) if t else None
    chis = [_chi_rule(v) for v in df.tolist()] if t else [None] * n
    out: list[ProbResult | None] = [None] * n
    groups: dict[tuple[int, str | None], list[int]] = {}
    for i, corr in enumerate(corrs):
        d = len(corr.values)
        groups.setdefault((d, chis[i] if d > 1 else None), []).append(i)
    for (d, chi), rows in groups.items():
        upper = np.array([limits[i] for i in rows], dtype=float)
        if d == 1:
            x = upper[:, 0]
            values = special.stdtr(df[rows], x) if t else special.ndtr(x)
            for i, v in zip(rows, values.tolist()):
                out[i] = ProbResult(v, 1e-14 if t else 1e-16, 1)
            continue
        if (d, chi) not in _LADDERS:
            continue
        if d == 2:  # no conditioning layer, only the correlation
            layers, rho = [], np.array([corrs[i].values[0, 1] for i in rows])
            kept = list(range(len(rows)))
            if t:  # the degenerate laws are exact
                for k in [k for k in kept if abs(rho[k]) >= 1.0 - 1e-13]:
                    cdf = special.stdtr(df[rows[k]], upper[k])
                    value = float(min(cdf)) if rho[k] > 0.0 else max(0.0, float(cdf[0] + cdf[1] - 1.0))
                    out[rows[k]] = ProbResult(value, 1e-14, 1)
                kept = [k for k in kept if out[rows[k]] is None]
                rho = rho[kept]
        else:
            plans = [corrs[i].conditioning() for i in rows]
            kept = [k for k, plan in enumerate(plans) if plan is not None]
            layers, rho = _stack_plans([plans[k] for k in kept])
        if not kept:
            continue
        results = _quadrature(upper[kept].T, layers, rho, df[[rows[k] for k in kept]] if t else None, chi)
        if d > 2:  # QMC takes the rows whose quadrature is looser than their tol
            tols = tol if isinstance(tol, (list, tuple, np.ndarray)) else [tol] * n
            results = [r if r.error_estimate <= tols[rows[k]] else None for k, r in zip(kept, results)]
        for k, result in zip(kept, results):
            out[rows[k]] = result
    return out


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
    from scipy.stats import qmc  # see __getattr__

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
            return ProbResult(min(1.0, max(0.0, estimate)), error, count * _N_SHIFTS, qmc=True)
        if count * _N_SHIFTS >= _MAX_POINTS:
            raise NumericalError(
                f"QMC budget of {_MAX_POINTS} points exhausted at error {error:.2e} > tol {tol:.2e}"
            )
        n_next = count


def check_tol(tol: float) -> None:
    """Reject a requested accuracy outside [TOL_MIN, TOL_MAX]."""
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ConfigError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")


def _check_options(tol: float, method: str) -> None:
    check_tol(tol)
    if method not in ("auto", "qmc"):
        raise ConfigError(f"method must be 'auto' or 'qmc', got {method!r}")


def check_df(df: float) -> None:
    """Reject t degrees of freedom that are not a finite real >= 1."""
    if not (math.isfinite(df) and df >= 1.0):
        raise ConfigError(f"degrees of freedom must be a finite real >= 1, got {df}")


def check_limits(upper: np.ndarray) -> None:
    """Reject integration limits that are not all finite."""
    if not np.isfinite(upper).all():
        raise ConfigError("integration limits must be finite")


def _check_upper(upper, corr: CorrelationMatrix) -> np.ndarray:
    upper = np.asarray(upper, dtype=float).reshape(-1)
    if upper.shape[0] != corr.dim:
        raise ConfigError(f"limit vector has length {upper.shape[0]}, matrix dimension is {corr.dim}")
    check_limits(upper)
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
    if method == "auto" or corr.dim == 1:
        [result] = orthants([upper], [corr], None, tol)
        if result is not None:
            return result
    if rng is None:
        rng = np.random.default_rng(0)
    chol = corr.cholesky()

    def integrand(w):
        return _sov_product(chol, upper, w)

    return _randomized_qmc(corr.dim - 1, integrand, tol, rng, engines)


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
    check_df(df)
    upper = _check_upper(upper, corr)
    # the univariate and degenerate bivariate laws are exact whatever the method
    if method == "auto" or corr.dim == 1 or (corr.dim == 2 and abs(corr.values[0, 1]) >= 1.0 - 1e-13):
        [result] = orthants([upper], [corr], df, tol)
        if result is not None:
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

    return _randomized_qmc(corr.dim, integrand, tol, rng, engines)
