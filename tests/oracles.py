"""Brute-force oracles, independent of the package's integration engine."""

import numpy as np
from scipy import integrate, special, stats


def mvn_orthant_mc(upper, corr, n_draws, seed, chunk=1_000_000):
    """Plain Monte Carlo estimate of P(Z <= upper); returns (p, se)."""
    upper = np.asarray(upper, float)
    chol = np.linalg.cholesky(np.asarray(corr, float))
    rng = np.random.default_rng(seed)
    hits, remaining = 0, int(n_draws)
    while remaining:
        n = min(chunk, remaining)
        z = rng.standard_normal((n, upper.shape[0])) @ chol.T
        hits += int(np.all(z <= upper, axis=1).sum())
        remaining -= n
    p = hits / n_draws
    return p, np.sqrt(p * (1.0 - p) / n_draws)


def mvt_orthant_mc(upper, corr, df, n_draws, seed, chunk=1_000_000):
    """Plain Monte Carlo estimate of P(T <= upper), T multivariate t."""
    upper = np.asarray(upper, float)
    chol = np.linalg.cholesky(np.asarray(corr, float))
    rng = np.random.default_rng(seed)
    hits, remaining = 0, int(n_draws)
    while remaining:
        n = min(chunk, remaining)
        z = rng.standard_normal((n, upper.shape[0])) @ chol.T
        s = np.sqrt(rng.chisquare(df, size=n) / df)
        hits += int(np.all(z / s[:, None] <= upper, axis=1).sum())
        remaining -= n
    p = hits / n_draws
    return p, np.sqrt(p * (1.0 - p) / n_draws)


def equicorrelated_orthant(upper, rho, df=None):
    """P(X <= upper) for unit-variance equicorrelation rho >= 0 by adaptive quadrature.

    Z_i = sqrt(rho) W + sqrt(1 - rho) E_i reduces the normal case to
    int phi(w) prod_i Phi((u_i + sqrt(rho) w) / sqrt(1 - rho)) dw; the t case
    (T = Z / S, S = chi_df / sqrt(df)) mixes that over the chi density.
    """
    upper = np.asarray(upper, float)
    a, b = np.sqrt(rho), np.sqrt(1.0 - rho)

    def normal(u):
        def f(w):
            return np.exp(-0.5 * w * w) / np.sqrt(2.0 * np.pi) * np.prod(special.ndtr((u + a * w) / b))
        return integrate.quad(f, -12.0, 12.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]

    if df is None:
        return normal(upper)
    chi = stats.chi(df)
    log_norm = (df / 2.0 - 1.0) * np.log(2.0) + special.gammaln(df / 2.0)

    def mixture(x):  # chi_df density at x times the normal orthant at x u / sqrt(df)
        return np.exp((df - 1.0) * np.log(x) - 0.5 * x * x - log_norm) * normal(x / np.sqrt(df) * upper)

    return integrate.quad(mixture, chi.ppf(1e-15), chi.isf(1e-15), epsabs=1e-14, epsrel=1e-12, limit=400)[0]


def pwer_event_mc(c, weights, members, full_corr, n_draws, seed, chunk=1_000_000):
    """Event-level PWER oracle: weighted rejection frequencies per stratum.

    members maps each stratum to its population indices (1-based); rejection
    in a stratum means any member statistic exceeds its critical value.
    """
    c = np.asarray(c, float)
    weights = np.asarray(weights, float)
    chol = np.linalg.cholesky(np.asarray(full_corr, float))
    rng = np.random.default_rng(seed)
    total = np.zeros(())
    total_sq = 0.0
    remaining = int(n_draws)
    while remaining:
        n = min(chunk, remaining)
        z = rng.standard_normal((n, chol.shape[0])) @ chol.T
        per_draw = np.zeros(n)
        for w, mem in zip(weights, members):
            idx = [i - 1 for i in sorted(mem)]
            per_draw += w * np.any(z[:, idx] > c[idx], axis=1)
        total = total + per_draw.sum()
        total_sq += float((per_draw**2).sum())
        remaining -= n
    mean = float(total) / n_draws
    var = total_sq / n_draws - mean**2
    return mean, np.sqrt(max(var, 0.0) / n_draws)


def random_correlation(dim, rng, extra=2):
    """A nonsingular random correlation matrix."""
    a = rng.normal(size=(dim, dim + extra))
    cov = a @ a.T
    s = np.sqrt(np.diag(cov))
    return cov / np.outer(s, s)


def solved_true_pwer(weights, pi_ref, model, alpha, cdf_tol=1e-8):
    """h(w) = sum_J pi_ref_J (1 - F_J(c(w))) with c re-solved at weights w.

    The finite-difference oracle for the PWER gradient differentiates this map
    numerically; it deliberately goes through the full calibration.
    """
    from pwerpi import pwer

    cv = pwer.solve_critical_values(
        weights,
        model,
        alpha,
        solver_tol=1e-12,
        cdf_tol=cdf_tol,
        verify_tol=cdf_tol,
        rng=np.random.default_rng(0),
    )
    return float(np.nansum(np.asarray(pi_ref) * cv.fwer))


def fd_gradient(pi0, model, alpha, step=1e-4, cdf_tol=1e-8):
    """Central finite differences of the re-solved true-PWER map at pi0."""
    pi0 = np.asarray(pi0, float)
    grad = np.empty(pi0.shape[0])
    for j in range(pi0.shape[0]):
        up = pi0.copy()
        up[j] += step
        down = pi0.copy()
        down[j] -= step
        grad[j] = (
            solved_true_pwer(up, pi0, model, alpha, cdf_tol)
            - solved_true_pwer(down, pi0, model, alpha, cdf_tol)
        ) / (2.0 * step)
    return grad


def population_correlation_oracle(design, cell_variances=None):
    """Correlation of the pooled contrasts and their variances V_i, pair by pair.

    Reference for pwer.build_test_model's full_corr and population_variances,
    read off the cell list alone: population i pools its member strata's
    cells labelled with its treatment (treatment arm) or the control (control
    arm). Two populations of one stratum share its control cell, and its
    treatment cell too when their treatment labels agree. A population with
    an empty arm gets NaN variance and NaN off-diagonal correlations.
    """
    from pwerpi.design import CONTROL

    s2 = design.cell_variances if cell_variances is None else np.asarray(cell_variances, float)
    sizes = design.cell_sizes.astype(float)
    lookup = {cell: k for k, cell in enumerate(design.cells)}
    m = design.m

    def arm(i, label):
        idx = [k for k, (j, a) in enumerate(design.cells) if a == label and i in design.strata[j]]
        return sizes[idx].sum(), (sizes[idx] * s2[idx]).sum()

    n_t, n_c = np.zeros(m), np.zeros(m)
    v = np.full(m, np.nan)
    for i in range(1, m + 1):
        n_t[i - 1], t_sum = arm(i, design.treatments[i - 1])
        n_c[i - 1], c_sum = arm(i, CONTROL)
        if n_t[i - 1] > 0 and n_c[i - 1] > 0:
            v[i - 1] = t_sum / n_t[i - 1] ** 2 + c_sum / n_c[i - 1] ** 2
    corr = np.where(np.isnan(v)[:, None] | np.isnan(v)[None, :], np.nan, np.eye(m))
    np.fill_diagonal(corr, 1.0)
    for j, stratum in enumerate(design.strata):
        members = sorted(stratum)
        ctrl = lookup[(j, CONTROL)]
        for a_pos, i in enumerate(members):
            for k in members[a_pos + 1:]:
                if np.isnan(v[i - 1]) or np.isnan(v[k - 1]):
                    continue
                cov = sizes[ctrl] * s2[ctrl] / (n_c[i - 1] * n_c[k - 1])
                if design.treatments[i - 1] == design.treatments[k - 1]:
                    cell = lookup[(j, design.treatments[i - 1])]
                    cov += sizes[cell] * s2[cell] / (n_t[i - 1] * n_t[k - 1])
                corr[i - 1, k - 1] += cov / np.sqrt(v[i - 1] * v[k - 1])
                corr[k - 1, i - 1] = corr[i - 1, k - 1]
    return corr, v


def empirical_critical_full(null, strata, pi_hat, alpha):
    """(c*, fwer, achieved) of the empirical solver over every resample maximum.

    The reference for boot.solve_critical_empirical, which reads only the
    merged upper tail: this body merges all S*B maxima of the live strata in
    one stable sort, sums the weight of every distinct value, and takes the
    first value whose weight above it is at most alpha.
    """
    from pwerpi import boot, pwer
    from pwerpi.design import prevalence_weights
    from pwerpi.errors import ConfigError

    weights = prevalence_weights(pi_hat, len(strata))
    pwer.check_alpha(alpha)
    if null.B * alpha < boot.MIN_TAIL_RESAMPLES:
        raise ConfigError("not enough resamples to resolve the tail")
    curves = boot.fwer_curves(null, strata)
    live = weights > 0.0
    values = np.concatenate([curves[j] for j in np.flatnonzero(live)])
    atom_w = np.concatenate([np.full(null.B, weights[j] / null.B) for j in np.flatnonzero(live)])
    order = np.argsort(values, kind="stable")
    values = values[order]
    atom_w = atom_w[order]
    uniq, inverse = np.unique(values, return_inverse=True)
    group_w = np.bincount(inverse, weights=atom_w)
    above = np.concatenate([np.cumsum(group_w[::-1])[::-1], [0.0]])[1:]  # weight > uniq[g]
    g = int(np.argmax(above <= alpha + 1e-15))
    c_star = float(0.5 * (uniq[g] + uniq[g + 1])) if g + 1 < uniq.shape[0] else float(uniq[g] + 1.0)
    fwer = np.array([float(null.B - np.searchsorted(s, c_star, side="right")) / null.B for s in curves])
    return c_star, fwer, float(np.dot(weights, fwer))
