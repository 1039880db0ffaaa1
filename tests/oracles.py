"""Brute-force oracles, independent of the package's integration engine, and scalar references."""

import math

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


def empirical_critical_full(null, pi_hat, alpha):
    """(c*, fwer, achieved) of the empirical solver over every resample maximum.

    The reference for boot.solve_critical_empirical, which reads only the
    merged upper tail: this body merges all S*B maxima of the live strata in
    one stable sort, sums the weight of every distinct value, and takes the
    first value whose weight above it is at most alpha.
    """
    from pwerpi import boot, pwer
    from pwerpi.design import prevalence_weights
    from pwerpi.errors import ConfigError

    weights = prevalence_weights(pi_hat, 2 ** null.statistics.shape[1] - 1)
    pwer.check_alpha(alpha)
    if null.B * alpha < boot.MIN_TAIL_RESAMPLES:
        raise ConfigError("not enough resamples to resolve the tail")
    curves = boot.fwer_curves(null)
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


def parametric_null_run_by_run(design, B, rng):
    """(B, m) statistics of one run's parametric bootstrap null, computed alone as
    each run did before the nulls were stacked: the reference for boot.parametric_nulls."""
    from pwerpi import pwer

    sizes = design.cell_sizes.astype(float)
    scale = np.where(sizes > 0, np.sqrt(design.cell_variances / np.maximum(sizes, 1.0)), 0.0)
    means = rng.standard_normal((int(B), len(design.cells))) * scale[None, :]
    v = pwer._full_correlations([design])[1][0]
    return (means @ pwer.arm_weight_matrix(design).T) / np.sqrt(v)


def projection_null_run_by_run(design, pi_hat, observed_effects, pooled_variance, B, rng, max_rounds=1000):
    """((B, 2) statistics, resamples redrawn) of one run's projection bootstrap null,
    computed alone as each run did before the nulls were stacked: the reference
    for boot.projection_nulls."""
    from pwerpi import boot
    from pwerpi.design import cell_layout

    layout = cell_layout(design.m, design.treatment_scheme)
    weights = np.asarray(pi_hat, dtype=float)
    theta = boot.project_to_null(observed_effects, weights, design.m)
    centers = np.where(design.control_member.any(axis=0), 0.0, theta[design.stratum_of_cell])
    t_member = design.treatment_member.T.astype(float)
    c_member = design.control_member.T.astype(float)
    counts = rng.multinomial(design.N, weights, size=B)
    rejected = 0
    for _ in range(max_rounds):
        cell_n = layout.split_counts(counts).astype(float)
        n_t, n_c = cell_n @ t_member, cell_n @ c_member
        if n_t.all() and n_c.all():
            break
        bad = ((n_t == 0) | (n_c == 0)).any(axis=1)
        rejected += int(bad.sum())
        counts[bad] = rng.multinomial(design.N, weights, size=int(bad.sum()))
    else:
        raise AssertionError("redraws exhausted")
    scale = np.sqrt(np.divide(pooled_variance, cell_n, out=np.zeros_like(cell_n), where=cell_n > 0))
    means = centers[None, :] + rng.standard_normal((B, len(design.cells))) * scale
    totals = means * cell_n
    contrast = totals @ t_member / n_t - totals @ c_member / n_c
    return contrast / np.sqrt(pooled_variance * (1.0 / n_t + 1.0 / n_c)), rejected


def lower_quantile(model, q):
    """Lower quantile of q under the model's marginal law, one scalar scipy call."""
    return float(special.stdtrit(model.df, q) if model.kind == "t" else special.ndtri(q))


def upper_quantile(model, p):
    """Upper-tail quantile of p under the model's marginal law, one scalar call (the
    reference for pwer._upper_quantiles): p clamped into [1e-100, 1 - 2^-53], then
    the negated lower quantile."""
    return -lower_quantile(model, min(max(p, 1e-100), 1.0 - 2.0**-53))


def independence_root(model, weights, alpha):
    """(x0, g'(x0)) of one run's independence model, in scalar Python floats: the
    reference for pwer._independence_root."""
    from pwerpi.design import stratum_members

    by_size = np.bincount(stratum_members(model.m).sum(axis=1), weights, model.m + 1).tolist()

    def g_over_v_and_slope(q):
        """g / v and dg/dv at q = 1 - v: sum_d W_d (1 + ... + q^(d-1)) and sum_d d W_d q^(d-1)."""
        g_over_v = slope = geometric = 0.0
        power = 1.0
        for d in range(1, model.m + 1):
            geometric += power
            g_over_v += by_size[d] * geometric
            slope += d * by_size[d] * power
            power *= q
        return g_over_v, slope

    if sum(by_size) <= alpha:
        v, x0 = alpha, lower_quantile(model, 1.0 - alpha)
    else:
        v = alpha / g_over_v_and_slope(1.0)[1]
        for _ in range(50):
            g_over_v, slope = g_over_v_and_slope(1.0 - v)
            step = (alpha - v * g_over_v) / slope
            v += step
            if step <= 1e-15 * v:
                break
        x0 = upper_quantile(model, v)
    return x0, -model.density(x0) * g_over_v_and_slope(1.0 - v)[1]


def secant(model, weights, alpha, solver_tol, cdf_tol):
    """One run's calibration as a scalar generator over Python floats: the
    reference for pwer's array secant (pwer._step), driven by solve_one.

    It yields each c it needs PWER at, receives PWER(c), and returns (c*,
    PWER(c*)): the independence root x0 clamped into [lo, hi], a Newton step
    on the independence model, then the safeguarded secant on the quantile
    scale, with lazily evaluated bracket ends.
    """
    from pwerpi import pwer
    from pwerpi.errors import NumericalError

    q_alpha = upper_quantile(model, alpha)

    def z(p):
        return upper_quantile(model, p) - q_alpha

    lo = lower_quantile(model, 1.0 - alpha)
    hi = lower_quantile(model, 1.0 - alpha / 2**model.m)
    slack = max(10.0 * solver_tol, 3.0 * cdf_tol)
    f_tol = min(solver_tol, 1e-3 * alpha)
    x, slope = independence_root(model, weights, alpha)
    x = min(max(x, lo), hi)

    def stops_at_end(end, p):
        """Whether the solve stops at the bracket end lo or hi, PWER(end) = p; a bracket failure raises."""
        if end == lo:
            if p - alpha < -slack:
                raise NumericalError(f"bracket failure: PWER({lo:.6f}) = {p:.3e} already below alpha={alpha}")
            return p - alpha <= f_tol
        if p - alpha > slack:
            raise NumericalError(f"bracket failure: PWER({hi:.6f}) = {p:.3e} still above alpha={alpha}")
        return p - alpha >= -f_tol

    a, p_a, b, p_b = lo, math.nan, hi, math.nan
    widths = [b - a]
    for k in range(pwer._SOLVER_MAX_ITER):
        if k and (not a < x < b or (len(widths) > 2 and widths[-1] > 0.5 * widths[-3])):
            if math.isnan(p_a):
                p_a = yield lo
                if stops_at_end(lo, p_a):
                    return lo, p_a
            if math.isnan(p_b):
                p_b = yield hi
                if stops_at_end(hi, p_b):
                    return hi, p_b
            x = 0.5 * (a + b)
        p = yield x
        if abs(p - alpha) <= f_tol or (x in (lo, hi) and stops_at_end(x, p)):
            return x, p
        if p > alpha:
            a, p_a = x, p
        else:
            b, p_b = x, p
        widths.append(b - a)
        if b - a <= pwer._SOLVER_XTOL and not math.isnan(p_a + p_b):
            return min((a, p_a), (b, p_b), key=lambda e: abs(e[1] - alpha))
        z_x = z(p)
        if k == 0:
            step = (p - alpha) / slope
        else:
            step = z_x * (x - x_prev) / (z_x - z_prev) if z_x != z_prev else math.inf
        x_prev, z_prev, x = x, z_x, x - step
    raise NumericalError(
        f"critical value iteration did not converge within {pwer._SOLVER_MAX_ITER} steps "
        f"(bracket [{a:.12f}, {b:.12f}])"
    )


def solve_one(solver, model, weights, alpha, seed, solver_tol=1e-8, cdf_tol=1e-6, verify_tol=1e-7):
    """One run's CriticalValues, or the error that ends it, with the scalar generator
    solver (secant) driven as pwer.solve_lockstep drives a run.

    The run is a pwer._Plan of one with its own _Streams of seed(), so that QMC reads
    its stream as in a lockstep; every c is evaluated by pwer._evaluate and summed
    by _Plan.pwer, the results at every c are kept, and the run takes pwer._verify.
    """
    from pwerpi import pwer
    from pwerpi.design import prevalence_weights

    weights = prevalence_weights(weights, len(model.strata))
    pwer.check_alpha(alpha)
    plan = pwer._Plan([model], (cdf_tol, verify_tol), [pwer._Streams(seed)], [weights])
    run = np.zeros(1, dtype=int)
    solved, evaluations = {}, 0
    generator = solver(model, weights, alpha, solver_tol, cdf_tol)
    try:
        c = next(generator)
        while True:
            evaluations += 1
            step = pwer._evaluate(plan, run, np.full((1, model.m), c), plan.mask)
            if step.failed:
                return step.failed[0]
            solved[c] = step
            c = generator.send(plan.pwer(run, step.value).tolist()[0])
    except StopIteration as stop:
        c_star, achieved = stop.value
    except pwer.RUN_ERRORS as exc:
        return exc
    at_c = solved[c_star]
    [cv] = pwer._verify(plan, run, np.array([c_star]), np.array([achieved]),
                        (at_c.value.copy(), at_c.error, at_c.qmc), alpha, np.array([evaluations]))
    return cv


def lockstep_calls(monkeypatch):
    """Record every pwer.solve_lockstep call, as (models, weights, alpha, seeds, results)."""
    from pwerpi import pwer

    calls = []
    solve = pwer.solve_lockstep

    def recording(models, weights, alpha, seeds, *args):
        out = solve(models, weights, alpha, seeds, *args)
        calls.append((models, np.asarray(weights), alpha, seeds, out))
        return out

    monkeypatch.setattr(pwer, "solve_lockstep", recording)
    return calls


def scalar_solves(calls, solver=secant):
    """solve_one of every run of the recorded lockstep calls, in order."""
    return [solve_one(solver, model, weights[r], alpha, seeds[r])
            for models, weights, alpha, seeds, _ in calls for r, model in enumerate(models)]
