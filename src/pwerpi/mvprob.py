"""Multivariate normal and t orthant probabilities.

Dimensions up to four use deterministic quadrature: the Drezner-Wesolowsky /
Gauss-Legendre bivariate normal, Plackett's identity for the trivariate and
four-variate normal (the closed form at a block-diagonal correlation plus one
Gauss-Legendre integral along the straight path to the true one), and for the
t law the chi-weighted sum of those normal orthants at limits upper * s, s =
chi_df / sqrt(df). The chi-scale nodes are the Gauss rule of the chi measure
(Golub-Welsch on the generalized-Laguerre Jacobi matrix) for df >= 80, and
Gauss-Legendre nodes on the range of the chi law, weighted by its density,
below that. Each quadrature climbs a ladder of ever finer rules, one ladder
per dimension and law (each chi-scale family has its own), and
stops at the first two adjacent rungs that agree within TOL_MIN, a fixed
constant, so its result never depends on the caller's `tol`; three times that
last gap is the error estimate. `orthant_groups` plans many laws of one kind
once from a stack (n, d, d) of correlations, each row with its own
correlation and, for t, its own df: there it computes, once, all that
depends on the correlations alone (the path of the first two rungs, and
the rule, asin and sine nodes of every bivariate call whose correlation
does not depend on the limits). Each OrthantGroup it returns evaluates any
of its rows at any limits in one stacked call on that plan, flagging the
rows that need QMC; mvn_cdf/mvt_cdf evaluate one row of one group, and
every row equals that call bit for bit. `correlation_matrices` validates a
stack of correlation matrices in one pass; a CorrelationMatrix is one
validated matrix with its Cholesky factor, which mvn_cdf/mvt_cdf and QMC
take. Higher dimensions, and the rows of three or four whose error estimate
exceeds the caller's tol, go to `qmc_cdf`, the one QMC entry point for
both laws: it integrates the separation-of-variables transform with
randomized quasi-Monte Carlo over scrambled Sobol streams, where the spread
across scramblings yields the error estimate; scipy.stats.qmc is imported
only once QMC runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    """A validated correlation matrix with a cached Cholesky factor.

    Symmetry is required within 1e-12 (then symmetrized exactly), the diagonal
    must be 1 within 1e-12, and eigenvalues in [-1e-10, 0) are clipped to zero;
    anything more negative is rejected (correlation_matrices of one matrix).
    """

    values: np.ndarray

    def __post_init__(self):
        mat = np.array(self.values, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ConfigError("correlation matrix must be square")
        checked, failed = correlation_matrices(mat[None])
        if failed:
            raise failed[0]
        object.__setattr__(self, "values", checked[0])

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


def correlation_matrices(mats: np.ndarray) -> tuple[np.ndarray, dict[int, ConfigError]]:
    """The stack mats (R, k, k) validated as CorrelationMatrix validates one
    matrix, read-only, and the ConfigError of each row that fails a check
    (whose matrix then means nothing).

    Each check runs once over the whole stack, the eigenvalue bound in one
    stacked eigvalsh, and every accepted matrix equals the values of its own
    CorrelationMatrix bit for bit. Every check is entrywise except the
    eigenvalue bound, and by Cauchy interlacing a principal submatrix's
    smallest eigenvalue is no smaller than the whole matrix's: so a principal
    submatrix of an accepted matrix passes again, and its validation returns
    its bits unchanged.
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
    return mats, {r: ConfigError(f) for r, f in enumerate(failed) if f}


# ---------------------------------------------------------------------------
# deterministic quadratures

_GL_RULES = {n: leggauss(n) for n in (6, 12, 20, 24, 32, 48, 64)}


def _gl_on(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _GL_RULES[n]
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


# the |r| bounds of the 6/12/20-node bands and of the near-singular branch
_BVN_BANDS = np.array([0.3, 0.75, 0.925])
_BAND_NODES = (6, 12, 20)


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


def _bvn_upper(h, k, r, rule: int, nodes: tuple | None) -> np.ndarray:
    """P(X > h, Y > k) elementwise for standard bivariate normal.

    Drezner-Wesolowsky quadrature with Genz's near-singular expansion for
    |r| >= 0.925; every |r| must be < 1. r is one correlation, or an array of
    them that broadcasts against h and k, all of the one rule (_bvn_rules)
    `rule`, 0-4. In a 6/12/20-node band, nodes holds asin r, the sine nodes
    and 1 - sn^2, shaped as r with the nodes last (_Kernel.nodes). Each
    entry of h reduces its own nodes, so a stacked call returns the entries
    of separate calls bit for bit.
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    hk = h * k
    if rule < 3:
        _, w = _GL_RULES[_BAND_NODES[rule]]
        hs = (h * h + k * k) / 2.0
        asr, sn, cos_sq = nodes
        expo = (hk[..., None] * sn - hs[..., None]) / cos_sq
        bvn = np.exp(expo) @ w
        return bvn * asr / (4.0 * math.pi) + special.ndtr(-h) * special.ndtr(-k)

    # integrate the difference from the perfectly dependent case
    x, w = _GL_RULES[20]
    if rule == 4:
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
    xs = np.multiply.outer(half, x + 1.0) ** 2
    rs = np.sqrt(1.0 - xs)
    asr_v = -(bs[..., None] / xs + hk[..., None]) / 2.0
    sp_v = 1.0 + c[..., None] * xs * (1.0 + d[..., None] * xs)
    ep_v = np.exp(-hk[..., None] * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
    contrib = np.where(asr_v > -100.0, np.exp(np.maximum(asr_v, -700.0)) * (ep_v - sp_v), 0.0)
    bvn = bvn + half * (contrib @ w)
    bvn = -bvn / (2.0 * math.pi)
    if rule == 3:
        return bvn + special.ndtr(-np.maximum(h, k))
    return -bvn + np.where(k > h, special.ndtr(k) - special.ndtr(h), 0.0)


def _bvn_lower(b1: np.ndarray, b2: np.ndarray, r, rule: int, nodes: tuple | None) -> np.ndarray:
    """P(X <= b1, Y <= b2) for correlations r of the one rule `rule` (see _bvn_upper)."""
    if rule == 5:
        return special.ndtr(np.minimum(b1, b2))
    if rule == 6:
        return np.maximum(0.0, special.ndtr(b1) + special.ndtr(b2) - 1.0)
    return np.clip(_bvn_upper(-b1, -b2, r, rule, nodes), 0.0, 1.0)


class _Kernel(NamedTuple):
    """What bvn_cdf_many computes from its correlations alone, per entry (_kernel).

    rho, rule and slot share one shape, an entry's correlation, its rule
    (_bvn_rules) and, in a 6/12/20-node band, its row in tables[rule]: asin
    rho, the n sine nodes and n values of 1 - sn^2 of every entry of that
    band, side by side. take selects entries (a[index] of each array) and
    ravel lays them on one axis, broadcast first to `shape` when given;
    both keep the tables.
    """

    rho: np.ndarray
    rule: np.ndarray
    slot: np.ndarray
    tables: dict

    def take(self, index) -> _Kernel:
        return self._replace(rho=self.rho[index], rule=self.rule[index], slot=self.slot[index])

    def ravel(self, shape: tuple | None = None) -> _Kernel:
        def flat(a):
            return (a if shape is None else np.broadcast_to(a, shape)).ravel()

        return self._replace(rho=flat(self.rho), rule=flat(self.rule), slot=flat(self.slot))

    def nodes(self, rule: int, idx: np.ndarray, shape: tuple) -> tuple:
        """The band nodes (_bvn_upper) of the entries idx of band rule, asin rho shaped
        as their correlations `shape`, the sine nodes and 1 - sn^2 with the nodes last."""
        table = self.tables[rule][self.slot[idx]]
        n = table.shape[1] // 2
        sn, cos_sq = table[:, 1:n + 1], table[:, n + 1:]
        return table[:, 0].reshape(shape), sn.reshape(shape + (n,)), cos_sq.reshape(shape + (n,))


def _kernel(rho: np.ndarray) -> _Kernel:
    """The _Kernel of the correlations rho (any shape): each band's math.asin
    and sine nodes computed once, as a stacked bivariate call computes
    them, however many limits the entries are later evaluated at."""
    flat = rho.ravel()
    rule = _bvn_rules(flat)
    slot = np.zeros(flat.shape, dtype=int)
    tables = {}
    for band in set(rule[rule < 3].tolist()):
        at = np.flatnonzero(rule == band)
        slot[at] = np.arange(len(at))
        x, _ = _GL_RULES[_BAND_NODES[band]]
        # math.asin, not np.arcsin: the two differ in the last bit
        asr = np.fromiter(map(math.asin, flat[at].tolist()), float, len(at))
        sn = np.sin(asr[:, None] * (x + 1.0) / 2.0)
        tables[band] = np.concatenate([asr[:, None], sn, 1.0 - sn * sn], axis=1)
    return _Kernel(rho, rule.reshape(rho.shape), slot.reshape(rho.shape), tables)


def bvn_cdf_many(b1, b2, rho) -> np.ndarray:
    """P(X <= b1, Y <= b2) elementwise, standard bivariate normal.

    rho is one correlation, or a 1-dim array of them, one per entry of the
    leading axis of b1 and b2, which then share one shape; or such an
    array's _Kernel, which orthant_groups plans once for correlations that
    are evaluated at many limits. The entries are evaluated in groups that
    share a rule (_bvn_rules), one stacked quadrature per group that keeps
    each entry's trailing axes. So each entry equals, bit for bit, the call
    with its own rho alone at the same trailing shape, and any subset of the
    entries equals the full call; the same numbers regrouped to another
    trailing shape (a (k, c) block flattened to (k * c,), say) sum their
    nodes in another order and may differ in the last bit.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if isinstance(rho, _Kernel):
        kernel = rho
    elif np.ndim(rho) == 0:
        # one correlation for every entry
        kernel = _kernel(np.array([rho], dtype=float))
        rule = int(kernel.rule[0])
        return _bvn_lower(b1, b2, kernel.rho[0], rule, kernel.nodes(rule, [0], ()) if rule < 3 else None)
    else:
        kernel = _kernel(np.asarray(rho, dtype=float))
    out = np.empty(b1.shape)
    for rule in set(kernel.rule.tolist()):
        idx = np.flatnonzero(kernel.rule == rule)
        if len(idx) == 1:
            nodes = kernel.nodes(rule, idx, ()) if rule < 3 else None
            out[idx[0]] = _bvn_lower(b1[idx[0]], b2[idx[0]], kernel.rho[idx[0]], rule, nodes)
            continue
        # the entry's own trailing axes (one, at least), so its nodes reduce as in its own call
        shape = (len(idx),) + (b1.shape[1:] or (1,))
        r = kernel.rho[idx].reshape((-1,) + (1,) * (len(shape) - 1))
        nodes = kernel.nodes(rule, idx, r.shape) if rule < 3 else None
        values = _bvn_lower(b1[idx].reshape(shape), b2[idx].reshape(shape), r, rule, nodes)
        out[idx] = values.reshape(out[idx].shape)
    return out


def bvn_cdf(b1: float, b2: float, rho: float) -> float:
    return float(bvn_cdf_many(np.float64(b1), np.float64(b2), rho))


# Plackett's identity (Plackett 1954; Genz 2004): along the straight path R(t)
# = R0 + t (R - R0), dPhi_d(h; R(t))/dt sums, over the entries R changes,
# r_ij phi_2(h_i, h_j; t r_ij) times the orthant of the other variables given
# X_i = h_i, X_j = h_j. R0 keeps the correlations within the blocks {0, 1}
# and {2} (d = 3) or {2, 3} (d = 4) of a variable order, on which Phi_d(h; R0)
# is a product of closed forms. _SPLITS holds the orders of every candidate R0
# and _OFF_BLOCK, as columns, each off-block pair (i, j) and the rest (p[, q]).
_SPLITS = {
    2: np.array([[0, 1]]),
    3: np.array([[0, 1, 2], [0, 2, 1], [1, 2, 0]]),
    4: np.array([[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2]]),
}
_OFF_BLOCK = {
    2: np.zeros((2, 0), dtype=int),
    3: np.array([[0, 2, 1], [1, 2, 0]]).T,
    4: np.array([[0, 2, 1, 3], [0, 3, 1, 2], [1, 2, 0, 3], [1, 3, 0, 2]]).T,
}
# conditional limits are clipped here, where every normal tail is below 1e-299
# and the bivariate rule still stays finite
_Z_MAX = 37.0


def _block_order(mats: np.ndarray) -> np.ndarray:
    """Each row's variable order for Plackett's path (see _SPLITS): for d = 3
    the pair with the largest |r| leads, for d = 4 the 2 + 2 split with the
    largest |r_01| + |r_23|, the first candidate on ties."""
    splits = _SPLITS[mats.shape[-1]]
    score = sum(np.abs(mats[:, splits[:, a], splits[:, a + 1]]) for a in range(0, splits.shape[1] - 1, 2))
    return splits[np.argmax(score, axis=1)]


def _plackett_base(h: np.ndarray, pairs: _Kernel) -> np.ndarray:
    """Phi_d(h; R0) of every limit vector of h (k, *c, d), rows in block order
    (see _plackett): the bivariate rule times the univariate (d = 3) or
    bivariate (d = 4) one; for d = 2 the bivariate rule itself. pairs is the
    _Kernel of the rows' base pairs, (1, k) entries of the pair (0, 1), or
    (2, k) of (0, 1) and (2, 3) for d = 4, which take one bivariate call."""
    k, d = len(h), h.shape[-1]
    if d < 4:
        value = bvn_cdf_many(h[..., 0], h[..., 1], pairs.take(0))
        return value * special.ndtr(h[..., 2]) if d == 3 else value
    b1, b2 = np.concatenate([h[..., 0], h[..., 2]]), np.concatenate([h[..., 1], h[..., 3]])
    value = bvn_cdf_many(b1, b2, pairs.ravel())
    return value[:k] * value[k:]


class _Path(NamedTuple):
    """Plackett's path of rows of one dimension at the t nodes of one or more
    rungs: all that depends on the correlations alone (_path).

    weights holds each rung's Gauss-Legendre weights, its nodes one rung
    after another. geometry holds arrays (rows, nodes, off-block pairs):
    r_ij, 2 rho, 2 det and 2 pi sqrt(det) of each pair (i, j) at R(t), then
    the regression (a, b) of each conditioned variable on X_i, X_j and its
    residual sd (p, then q for d = 4); cond is the _Kernel of the
    conditional correlations rho_pq (d = 4). take selects rows (or rows and
    nodes), rung one rung's nodes.
    """

    weights: tuple[np.ndarray, ...]
    geometry: tuple[np.ndarray, ...]
    cond: _Kernel | None

    @property
    def nodes(self) -> int:
        return sum(len(w) for w in self.weights)

    def take(self, index, weights: tuple | None = None) -> _Path:
        return _Path(
            self.weights if weights is None else weights,
            tuple(a[index] for a in self.geometry),
            None if self.cond is None else self.cond.take(index),
        )

    def rung(self, k: int) -> _Path:
        start = sum(len(w) for w in self.weights[:k])
        return self.take((slice(None), slice(start, start + len(self.weights[k]))), self.weights[k:k + 1])


def _path(corr: np.ndarray, rungs: tuple[int, ...]) -> _Path:
    """The _Path of the correlations corr (k x d x d, block order) at the
    Gauss-Legendre t nodes of each rung of `rungs` (node counts). Every
    number is elementwise, so a row's path has the same bits whatever rows
    and rungs it is built with."""
    d = corr.shape[-1]
    i, j, *rest = _OFF_BLOCK[d]
    nodes = [_gl_on(0.0, 1.0, n) for n in rungs]
    t = np.concatenate([x for x, _ in nodes])
    path = np.ones((len(t), d, d))
    path[:, i, j] = path[:, j, i] = t[:, None]

    def r(u, v):
        """The entries (u, v) of R(t) = R * path as (k, n, P): R0's, or R's times t."""
        return corr[:, None, u, v] * path[:, u, v]

    rho = r(i, j)
    det = (1.0 - rho) * (1.0 + rho)

    def given_pair(m):
        """The regression (a, b) of X_m on X_i, X_j and its residual sd."""
        r_mi, r_mj = r(m, i), r(m, j)
        a = (r_mi - rho * r_mj) / det
        b = (r_mj - rho * r_mi) / det
        return a, b, np.sqrt(np.maximum(1.0 - a * r_mi - b * r_mj, _TINY))

    given = given_pair(rest[0])
    cond = None
    if d == 4:
        p, q = rest
        a, b, sd = given
        given_q = given_pair(q)
        cov = r(p, q) - a * r(q, i) - b * r(q, j)
        cond = _kernel(np.clip(cov / (sd * given_q[2]), -1.0, 1.0))
        given = given + given_q
    r_ij = np.broadcast_to(corr[:, None, i, j], rho.shape)
    geometry = (r_ij, 2.0 * rho, 2.0 * det, 2.0 * math.pi * np.sqrt(det)) + given
    return _Path(tuple(w for _, w in nodes), geometry, cond)


def _plackett(
    h: np.ndarray, pairs: _Kernel | None, path: _Path | None, base: np.ndarray | None = None
) -> list[np.ndarray]:
    """Normal orthant probability of every limit vector of h (k, *c, d) by
    Plackett's identity, one array (k, *c) per rung of path.

    Row r's limit vectors share its correlation, in block order (see
    _block_order), so that Phi_d(h; R0) is a product of closed forms
    (_plackett_base over the pair kernels `pairs`; `base` passes it in
    when it is already known, as it does not depend on the rung). path is
    the rows' _Path: the path integral over t in (0, 1) takes each rung's
    Gauss-Legendre nodes, and the conditional law of the rest is one ndtr
    (d = 3) or one stacked bivariate call (d = 4) for every (limit vector,
    node, pair) of every rung at once. Every entry of each rung's result
    reduces that rung's nodes alone, so it equals, bit for bit, its row's
    call with that limit vector and that rung alone. For d = 2, path is
    None, R0 is R and the result its bivariate rule.
    """
    value = _plackett_base(h, pairs) if base is None else base
    if path is None:
        return [value]
    d = h.shape[-1]
    i, j, *rest = _OFF_BLOCK[d]

    # the path's (k, n, P) arrays as (k, *1, n, P), against h as (k, *c, 1, d)
    lift = (slice(None),) + (None,) * (h.ndim - 2)
    r_ij, rho2, det2, norm, *given = (a[lift] for a in path.geometry)
    h = h[..., None, :]
    hi, hj = h[..., i], h[..., j]
    density = np.exp(-(hi * hi - rho2 * hi * hj + hj * hj) / det2) / norm

    def limit(m, a, b, sd):
        """The standardized limit of X_m given X_i = h_i, X_j = h_j."""
        return np.clip((h[..., m] - a * hi - b * hj) / sd, -_Z_MAX, _Z_MAX)

    z = limit(rest[0], *given[:3])
    if d == 3:
        cond = special.ndtr(z)
    else:
        z_q = limit(rest[1], *given[3:])
        cond = bvn_cdf_many(z.ravel(), z_q.ravel(), path.cond.take(lift).ravel(z.shape)).reshape(z.shape)
    slope = (r_ij * density * cond).sum(axis=-1)
    rungs, start = [], 0
    for w in path.weights:
        rungs.append(value + (slope[..., start:start + len(w)] * w).sum(axis=-1))
        start += len(w)
    return rungs


# The rule ladders, coarse to fine, and the error floor of each deterministic
# law, by (dimension, chi-scale rule): for d = 3 and 4 the Gauss-Legendre
# node count of Plackett's path integral in t, led for the t law by the
# chi-scale nodes. The bivariate normal is one rung of its own 6/12/20-node
# rules, counted as the 20 nodes of its finest band. Rungs 1 and 2 always
# run, on the path orthant_groups plans, and a normal row runs them together,
# in one pass; the normal ladder usually stops at its middle rung. A t law
# with df >= _GAMMA_DF takes the Gauss rule of the chi measure ("gamma"),
# accurate to ~5e-11 at 8 nodes, so its ladders start there. Below that df
# the Gamma rule converges slowly (5e-6 at 32 nodes for df = 5), and the
# chi-scale nodes are Gauss-Legendre nodes on the range of the chi law
# ("legendre"): at 24 of them the mixture is only accurate to ~2e-7, so
# those ladders have two rungs, as a coarser rung would never agree with the
# next within TOL_MIN.
_LADDERS = {
    (2, None): (((20,),), 5e-15),
    (3, None): (((12,), (24,), (48,)), 1e-10),
    (4, None): (((12,), (24,), (48,)), 1e-10),
    (2, "legendre"): (((32,), (64,)), 1e-10),
    (3, "legendre"): (((32, 24), (64, 48)), 1e-9),
    (4, "legendre"): (((32, 24), (64, 48)), 1e-9),
    (2, "gamma"): (((8,), (12,), (16,)), 1e-10),
    (3, "gamma"): (((8, 12), (12, 24), (16, 48)), 1e-9),
    (4, "gamma"): (((8, 12), (12, 24), (16, 48)), 1e-9),
}
_GAMMA_DF = 80.0
# integrand evaluations (bivariate evaluations for d = 2 and 4) per stacked
# _plackett call, over every rung it takes (12 + 24 nodes per limit vector in
# a normal row's first pass), which bounds its temporaries at about a MB;
# pieces twice that size run slower out of cache
_QUAD_BLOCK = 1 << 13


def _ladder(rules, evaluate: Callable, floor: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Climb the rules for n integrals at once, each until two adjacent rules agree within TOL_MIN.

    evaluate(ks, active) returns, for each index k of the range ks, the
    values under rules[k] of the integrals indexed by the array active. The
    first rule settles no integral, as it has none to compare with, so the
    first two are asked for in one call. An integral's value is the last
    rule's, clipped to [0, 1], its error estimate three times the gap to the
    rule before (at least `floor`, which a ladder of one rule always takes),
    and its points the sum of math.prod(rule) over the rules it evaluated;
    the three come back as arrays. The integrals still climbing after a rule
    are the only ones the next rule evaluates.
    """
    value, error, points_used = np.empty(n), np.empty(n), np.empty(n, dtype=int)
    active, points = np.arange(n), 0
    first = evaluate(range(min(2, len(rules))), active)
    for k, rule in enumerate(rules, 1):
        rung = first[k - 1] if k <= len(first) else evaluate(range(k - 1, k), active)[0]
        points += math.prod(rule)
        if k == 1 < len(rules):
            prev = rung
            continue
        # the floor lies below TOL_MIN, so it decides no integral's stop
        err = np.maximum(3.0 * np.abs(rung - prev), floor) if k > 1 else np.full(len(active), floor)
        done = err <= TOL_MIN if k < len(rules) else np.ones(len(active), dtype=bool)
        settled = active[done]
        value[settled] = np.minimum(1.0, np.maximum(0.0, rung[done]))
        error[settled] = err[done]
        points_used[settled] = points
        if k == len(rules) or done.all():
            break
        active, prev = active[~done], rung[~done]
    return value, error, points_used


def _chi_rule(df):
    """The chi-scale rule of t laws with df degrees of freedom (see _LADDERS):
    a str for one df, a list of them for an array."""
    return np.where(np.asarray(df) >= _GAMMA_DF, "gamma", "legendre").tolist()


# (df, n) rules kept: a lockstep block of sim's 64 runs, each with its own df
# (Satterthwaite), climbs up to three rungs for each of its t strata
_CHI_RULES_KEPT = 512


@lru_cache(maxsize=_CHI_RULES_KEPT)
def _chi_scale_nodes(df: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n nodes in s = chi_df / sqrt(df) and their weights under its density.

    For df >= _GAMMA_DF, the Gauss rule of the chi measure: x = df s^2 / 2 is
    Gamma(df/2), whose Gauss rule (Golub & Welsch 1969) has as nodes the
    eigenvalues of the generalized-Laguerre Jacobi matrix, with diagonal
    2k + a + 1, off-diagonal sqrt(k (k + a)) and a = df/2 - 1 (only its lower
    triangle built, all that eigh reads), and as weights
    the squared first components of its eigenvectors. Below it, Gauss-Legendre
    nodes on [F^-1(1e-16), F^-1(1 - 1e-16)] of the chi law, weighted by its
    density. Read-only and cached per (df, n): every PWER evaluation of a
    solve, and every run that shares its df, integrates on the same rule.
    """
    if _chi_rule(df) == "gamma":
        a = df / 2.0 - 1.0
        k = np.arange(1.0, n)
        off = np.sqrt(k * (k + a))
        # eigh reads the lower triangle only (UPLO='L')
        jacobi = np.diag(2.0 * np.arange(n) + a + 1.0) + np.diag(off, -1)
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
    upper: np.ndarray, group: OrthantGroup, at: np.ndarray, df: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The deterministic law of every row of upper (n x d, in block order),
    the rows `at` of group: normal, or t with df[i] degrees of freedom as the
    chi-weighted sum of normal orthants at limits upper * s, on the group's
    chi-scale rule. Returns _ladder's value, error and points arrays.

    The rows climb the ladder of _LADDERS together, in pieces of at most
    _QUAD_BLOCK integrand evaluations per stacked _plackett call. The first
    two rungs take the group's planned path (orthant_groups); a third rung
    builds the path of the rows that reach it, and only theirs. A normal
    row's Phi_d(h; R0) does not depend on the rung and is computed once, for
    every row, and its limit vectors are the same on every rung, so its
    first two rungs are one _plackett pass over the nodes of both. A t row's
    chi-scale nodes are limit vectors of its own, which differ by rung, so
    each of its rungs is a pass of its own, its nodes in chunks halved until
    they fit a piece (all of them for a bivariate row). Each row reduces
    each rung's nodes in the shapes of its own call, so it equals that call
    bit for bit.
    """
    n, d = upper.shape
    rules, floor = _LADDERS[d, group.chi]
    base = _plackett_base(upper, group.pairs.take((slice(None), at))) if df is None and d > 2 else None

    def per_vector(path: _Path | None) -> int:
        return 1 if path is None else path.nodes * _OFF_BLOCK[d].shape[1]

    def evaluate(ks, active):
        rows = at[active]
        path, pick = group.path, rows
        if d > 2 and ks[0] >= 2:
            path, pick = _path(group.corr[rows], tuple(rules[k][-1] for k in ks)), np.arange(len(rows))
        if df is None:
            step = max(1, _QUAD_BLOCK // per_vector(path))
            parts = [
                _plackett(
                    upper[active[i:i + step]],
                    None if base is not None else group.pairs.take((slice(None), rows[i:i + step])),
                    None if path is None else path.take(pick[i:i + step]),
                    None if base is None else base[active[i:i + step]],
                )
                for i in range(0, len(active), step)
            ]
            return [np.concatenate(rung) for rung in zip(*parts)]
        values = []
        for k in ks:
            rung = None if path is None else path.rung(k - ks[0])
            n_chi = rules[k][0]
            scales = [_chi_scale_nodes(v, n_chi) for v in df[active].tolist()]
            # each row's chi-scale nodes in chunks of limit vectors, as few as fit a piece;
            # halving 8, 12 or 16 nodes (or a power of two) keeps every chunk whole
            chunk = n_chi
            while chunk > 1 and chunk * per_vector(rung) > _QUAD_BLOCK:
                chunk //= 2
            limits = (upper[active][:, None] * np.array([s for s, _ in scales])[..., None]).reshape(-1, chunk, d)
            pieces, picks = np.repeat(rows, n_chi // chunk), np.repeat(pick, n_chi // chunk)
            step = max(1, _QUAD_BLOCK // (per_vector(rung) * chunk))
            rung_values = np.concatenate([
                _plackett(
                    limits[i:i + step],
                    group.pairs.take((slice(None), pieces[i:i + step])),
                    None if rung is None else rung.take(picks[i:i + step]),
                )[0]
                for i in range(0, len(limits), step)
            ])
            values.append(np.sum(np.array([w for _, w in scales]) * rung_values.reshape(len(active), -1), axis=1))
        return values

    return _ladder(rules, evaluate, floor, n)


@dataclass(frozen=True)
class OrthantGroup:
    """Orthant laws of one dimension and kind, planned once and evaluated at any limits.

    orthant_groups builds them. order holds each row's block order
    (_block_order) and corr its correlation in that order, df each t row's
    degrees of freedom and chi their chi-scale rule; exact is +1 or -1 on the
    bivariate t rows whose correlation lies within 1e-13 of +1 or -1, whose
    degenerate laws are exact, and 0 elsewhere. pairs holds the _Kernel of
    each row's base pairs (_plackett_base) and, for three or four
    dimensions, path its _Path at the t nodes of the first two rungs: what
    depends on the correlations alone, computed here once for every
    evaluation, and dropped with the group. Rows of one dimension need no
    correlation, and rows of five or more keep none: they need QMC.
    """

    size: int
    dim: int
    chi: str | None
    df: np.ndarray | None
    order: np.ndarray | None
    corr: np.ndarray | None
    exact: np.ndarray | None
    pairs: _Kernel | None
    path: _Path | None

    def evaluate(
        self, limits, rows: np.ndarray | None = None, tol=1e-6
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The value, error estimate, points and settled flag of each row of
        `rows` (default: every row) at its limits (k x dim, in the variable
        order of the correlations it was planned from).

        settled is False where the row needs QMC: five or more dimensions,
        where the other three hold no number, or three or four and an error
        estimate above tol (one value, or one per row), where they hold the
        quadrature's last rung. Each row equals its own mvn_cdf/mvt_cdf call
        bit for bit.
        """
        upper = np.asarray(limits, dtype=float)
        k, d, t = len(upper), self.dim, self.df is not None
        rows = np.arange(self.size) if rows is None else rows
        df = self.df[rows] if t else None
        if d == 1:
            x = upper[:, 0]
            value = special.stdtr(df, x) if t else special.ndtr(x)
            return value, np.full(k, 1e-14 if t else 1e-16), np.ones(k, dtype=int), np.ones(k, dtype=bool)
        value, error = np.full(k, math.nan), np.full(k, math.nan)
        points, settled = np.zeros(k, dtype=int), np.zeros(k, dtype=bool)
        if self.corr is None:
            return value, error, points, settled
        quad = np.arange(k)
        if self.exact is not None and self.exact[rows].any():  # the degenerate bivariate t laws
            sign = self.exact[rows]
            at = np.flatnonzero(sign)
            cdf = special.stdtr(df[at, None], upper[at])
            value[at] = np.where(sign[at] > 0, cdf.min(axis=1), np.maximum(0.0, cdf[:, 0] + cdf[:, 1] - 1.0))
            error[at], points[at], settled[at] = 1e-14, 1, True
            quad = np.flatnonzero(sign == 0)
        if len(quad):
            order = self.order[rows[quad]]
            value[quad], error[quad], points[quad] = _quadrature(
                np.take_along_axis(upper[quad], order, axis=1),
                self,
                rows[quad],
                df[quad] if t else None,
            )
            # QMC takes the rows whose quadrature is looser than their tol
            settled[quad] = error[quad] <= np.broadcast_to(tol, (k,))[quad] if d > 2 else True
        return value, error, points, settled


def orthant_groups(mats: np.ndarray, df=None) -> list[tuple[np.ndarray, OrthantGroup]]:
    """The laws of the validated correlations mats (n, d, d) of one dimension
    (normal, or t when df, one value or one per row, is given) as
    OrthantGroups, each with the indices of its rows in mats.

    The t rows of two or more dimensions are grouped by chi-scale rule (see
    _LADDERS); every other stack is one group. Each group is planned here,
    once, however often it is evaluated: its correlations put in block
    order, the _Kernel of its base pairs and, for three or four dimensions,
    the _Path of its first two rungs.
    """
    n, d = mats.shape[:2]
    t = df is not None
    df = np.broadcast_to(np.asarray(df, dtype=float), (n,)) if t else None
    if t and d > 1:
        rule = np.broadcast_to(np.array(_chi_rule(df)), (n,))
        parts = [(np.flatnonzero(rule == chi), chi) for chi in ("legendre", "gamma") if (rule == chi).any()]
    else:
        parts = [(np.arange(n), None)]
    groups = []
    for rows, chi in parts:
        order = corr = exact = pairs = path = None
        if d > 1 and (d, chi) in _LADDERS:
            order = _block_order(mats[rows])
            corr = mats[rows[:, None, None], order[:, :, None], order[:, None, :]]
            pairs = _kernel(corr[:, range(0, d - 1, 2), range(1, d, 2)].T)
            if d > 2:
                path = _path(corr, tuple(rule[-1] for rule in _LADDERS[d, chi][0][:2]))
            if t and d == 2:
                rho = corr[:, 0, 1]
                exact = np.where(np.abs(rho) >= 1.0 - 1e-13, np.sign(rho), 0.0)
        group = OrthantGroup(len(rows), d, chi, df[rows] if t else None, order, corr, exact, pairs, path)
        groups.append((rows, group))
    return groups


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


def check_df(df: float) -> None:
    """Reject t degrees of freedom that are not a finite real >= 1."""
    if not (math.isfinite(df) and df >= 1.0):
        raise ConfigError(f"degrees of freedom must be a finite real >= 1, got {df}")


def check_limits(upper: np.ndarray) -> None:
    """Reject integration limits that are not all finite."""
    if not np.isfinite(upper).all():
        raise ConfigError("integration limits must be finite")


def _checked(upper, corr: CorrelationMatrix, df: float | None, tol: float) -> np.ndarray:
    """The limit vector of one law, once tol, df (None for the normal law) and the limits pass their checks."""
    check_tol(tol)
    if df is not None:
        check_df(df)
    upper = np.asarray(upper, dtype=float).reshape(-1)
    if upper.shape[0] != corr.dim:
        raise ConfigError(f"limit vector has length {upper.shape[0]}, matrix dimension is {corr.dim}")
    check_limits(upper)
    return upper


def qmc_cdf(
    upper,
    corr: CorrelationMatrix,
    df: float | None = None,
    tol: float = 1e-6,
    rng: np.random.Generator | None = None,
    engines: dict | None = None,
) -> ProbResult:
    """P(X <= upper componentwise) by randomized QMC, X ~ N(0, corr), or
    multivariate t with scale corr when df (any real >= 1) is given.

    The separation-of-variables transform on corr's Cholesky factor (for t
    led by a coordinate that draws the chi scale s = chi_df / sqrt(df) of
    the limits), integrated to tol by _randomized_qmc. Its scramblings
    are seeded from `rng` (a seed-0 stream when omitted), so identical
    inputs and stream state give bit-identical results. `engines` is the
    scrambled-engine store of _randomized_qmc (None builds fresh engines);
    it changes no result. A one-dimensional normal law has no integral to
    take, and is rejected.
    """
    upper = _checked(upper, corr, df, tol)
    if df is None and corr.dim == 1:
        raise ConfigError("a one-dimensional normal law has no QMC integral; use mvn_cdf")
    if rng is None:
        rng = np.random.default_rng(0)
    chol = corr.cholesky()

    def integrand(w):
        if df is None:
            return _sov_product(chol, upper, w)
        # the first coordinate drives the chi scaling, the rest the normal SOV
        u = np.minimum(np.maximum(w[:, 0], _TINY), _ONE)
        scale = np.sqrt(2.0 * special.gammaincinv(df / 2.0, u) / df)
        return _sov_product(chol, scale[:, None] * upper[None, :], w[:, 1:])

    return _randomized_qmc(corr.dim if df is not None else corr.dim - 1, integrand, tol, rng, engines)


def _cdf(upper, corr: CorrelationMatrix, df: float | None, tol: float, rng: np.random.Generator | None) -> ProbResult:
    """The one law as one row of orthant_groups, or qmc_cdf where that row needs QMC."""
    upper = _checked(upper, corr, df, tol)
    [(_, group)] = orthant_groups(corr.values[None], df)
    value, error, points, settled = (a.tolist() for a in group.evaluate(upper[None], None, tol))
    if settled[0]:
        return ProbResult(value[0], error[0], points[0])
    return qmc_cdf(upper, corr, df, tol, rng)


def mvn_cdf(upper, corr: CorrelationMatrix, tol: float = 1e-6, rng: np.random.Generator | None = None) -> ProbResult:
    """P(Z <= upper componentwise) for Z ~ N(0, corr).

    Deterministic quadrature (orthant_groups) in up to four dimensions,
    whose result does not depend on tol or rng; qmc_cdf, on `rng`, in five
    or more, and in three or four where the quadrature's error estimate
    exceeds `tol`.
    """
    return _cdf(upper, corr, None, tol, rng)


def mvt_cdf(
    upper, corr: CorrelationMatrix, df: float, tol: float = 1e-6, rng: np.random.Generator | None = None
) -> ProbResult:
    """P(T <= upper componentwise) for multivariate t with scale `corr`.

    df may be any real >= 1 (Satterthwaite produces non-integral values).
    Converges to mvn_cdf as df grows, and takes quadrature or QMC as it does.
    """
    return _cdf(upper, corr, df, tol, rng)
