"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
measurements. Scales follow the stated desk-scale budgets (2000-run tables,
200 runs x 2000 resamples for the bootstrap settings).
"""

import json

import numpy as np
import pytest

from pwerpi import cli, design as dz, mvprob, pwer, sim

from oracles import (
    fd_gradient,
    mvn_orthant_mc,
    mvt_orthant_mc,
    pwer_event_mc,
    random_correlation,
)

SEED = 20250810
ALPHA = 0.025

COVERAGE_REFERENCE = {  # (m, N) -> (coverage, mean length x 1e3)
    (2, 250): (0.9483, 2.10),
    (3, 250): (0.9446, 2.42),
    (2, 500): (0.9476, 1.49),
    (3, 500): (0.9518, 1.72),
}


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def equal_prevalence_results():
    out = {}
    for (m, N) in COVERAGE_REFERENCE:
        scenario = sim.SimScenario(
            N=N, m=m, setting="A", prevalence_scheme="equal",
            treatment_scheme="pairwise_different", runs=2000,
            master_seed=SEED + 10 * m + N,
        )
        out[(m, N)] = sim.run_scenario(scenario)
    return out


@pytest.fixture(scope="module")
def minprev_grid_m2():
    # N in {250, 500}, m=2, all three pi_min rows, both transforms, 2000 runs
    return sim.run_min_prevalence_grid(
        N_list=[250, 500], m_list=[2], runs=2000, master_seed=SEED + 6,
    )


@pytest.fixture(scope="module")
def minprev_grid_m3():
    return sim.run_min_prevalence_grid(
        N_list=[250], m_list=[3], runs=500, master_seed=SEED + 7,
    )


def test_criterion_1_equal_prevalence_coverage(equal_prevalence_results):
    details = []
    ok = True
    for (m, N), (cov_ref, len_ref) in COVERAGE_REFERENCE.items():
        res = equal_prevalence_results[(m, N)]
        cov, length = res.coverage, res.mean_length * 1e3
        ok_cell = abs(cov - cov_ref) <= 0.015 and abs(length - len_ref) <= 0.05 * len_ref
        ok = ok and ok_cell
        details.append(
            f"m={m} N={N}: coverage {cov:.4f} (ref {cov_ref}), length {length:.3f} (ref {len_ref})"
        )
    report(1, ok, "; ".join(details))


def test_criterion_2_length_scaling(equal_prevalence_results):
    scenario = sim.SimScenario(
        N=1000, m=2, setting="A", runs=2000, master_seed=SEED + 1020,
    )
    res_1000 = sim.run_scenario(scenario)
    ratio = equal_prevalence_results[(2, 250)].mean_length / res_1000.mean_length
    report(2, 1.9 <= ratio <= 2.1, f"mean length ratio N=250:N=1000 = {ratio:.4f}")


def _grid_value(rows, N, transform, label, key="coverage"):
    for row in rows:
        if row["N"] == N and row["transform"] == transform and row["pi_min_label"] == label:
            return row[key]
    raise KeyError((N, transform, label))


def test_criterion_3_small_prevalence_degradation(minprev_grid_m2):
    cov_250 = _grid_value(minprev_grid_m2, 250, "floor", "0")
    cov_500 = _grid_value(minprev_grid_m2, 500, "floor", "0")
    ok = 0.85 <= cov_250 <= 0.91 and 0.92 <= cov_500 <= 0.96
    report(3, ok, f"one_small coverage: N=250 {cov_250:.4f} (in [0.85,0.91]), "
                  f"N=500 {cov_500:.4f} (in [0.92,0.96])")


def test_criterion_4_transform_coverage(minprev_grid_m2):
    quarter = "1/(2^(m+2)-4)"  # pi_min = 1/12 at m = 2
    floor_cov = _grid_value(minprev_grid_m2, 250, "floor", quarter)
    shift_cov = _grid_value(minprev_grid_m2, 250, "shift", quarter)
    ok = floor_cov >= 0.985 and abs(shift_cov - 0.8798) <= 0.02
    report(4, ok, f"floor pi_min=1/12 coverage {floor_cov:.4f} (>= 0.985); "
                  f"shift coverage {shift_cov:.4f} (0.8798 +- 0.02)")


def test_criterion_5_transform_lengths(minprev_grid_m2, minprev_grid_m3):
    labels = ["0", "1/(2^(m+2)-4)", "1/(2^(m+1)-2)"]
    details, ok = [], True
    for rows, N, m in ((minprev_grid_m2, 250, 2), (minprev_grid_m2, 500, 2),
                       (minprev_grid_m3, 250, 3)):
        shift = [_grid_value(rows, N, "shift", lab, "mean_length_e3") for lab in labels]
        floor = [_grid_value(rows, N, "floor", lab, "mean_length_e3") for lab in labels]
        decreasing = shift[0] > shift[1] > shift[2]
        shorter = shift[2] <= floor[2]
        ok = ok and decreasing and shorter
        details.append(
            f"N={N} m={m}: shift lengths {shift[0]:.3f} > {shift[1]:.3f} > {shift[2]:.3f}, "
            f"shift {shift[2]:.3f} <= floor {floor[2]:.3f} at pi_min=1/(2^(m+1)-2)"
        )
    report(5, ok, "; ".join(details))


@pytest.fixture(scope="module")
def setting_d_results():
    kwargs = dict(
        N=250, m=2, prevalence_scheme="equal", treatment_scheme="single",
        runs=200, B=2000, master_seed=SEED + 4,
    )
    satt = sim.run_scenario(sim.SimScenario(setting="D_satterthwaite", **kwargs))
    para = sim.run_scenario(sim.SimScenario(setting="D_bootstrap", **kwargs))
    return satt, para


def test_criterion_6_setting_d_contrast(setting_d_results):
    satt, para = setting_d_results
    ok = satt.coverage < 0.70 and 0.90 <= para.coverage <= 0.99
    report(6, ok, f"Satterthwaite coverage {satt.coverage:.4f} (< 0.70), "
                  f"bootstrap coverage {para.coverage:.4f} (in [0.90,0.99])")


def test_criterion_7_setting_e():
    scenario = sim.SimScenario(
        N=250, m=2, setting="E", prevalence_scheme="equal", treatment_scheme="single",
        runs=200, B=2000, master_seed=SEED + 5,
    )
    res = sim.run_scenario(scenario)
    ok = 0.90 <= res.coverage <= 0.99
    report(7, ok, f"projection bootstrap coverage {res.coverage:.4f} (in [0.90,0.99])")


def _fd_fixture(setting, m):
    n_s = 2**m - 1
    counts = [83] * 3 if m == 2 else [36] * 7
    if setting == "B":
        per_stratum = np.random.default_rng(SEED + m).uniform(size=n_s)
        layout = dz.cell_layout(m, "pairwise_different")
        variances = per_stratum[layout.stratum_of_cell]
        mode = "known_heterogeneous"
    else:
        variances = 1.0
        mode = "known_homogeneous" if setting == "A" else "unknown_homogeneous"
    d = dz.build_design(m, "pairwise_different", counts, variances, mode)
    return pwer.build_test_model(d)


def test_criterion_8_gradient_finite_differences():
    details, ok = [], True
    for setting in ("A", "B", "C"):
        for m in (2, 3):
            model = _fd_fixture(setting, m)
            pi0 = np.full(2**m - 1, 1.0 / (2**m - 1))
            cv = pwer.solve_critical_values(
                pi0, model, ALPHA, solver_tol=1e-12, cdf_tol=1e-8, verify_tol=1e-8,
            )
            analytic = cv.gradient()
            numeric = fd_gradient(pi0, model, ALPHA, step=1e-4, cdf_tol=1e-8)
            rel = float(np.max(np.abs(numeric - analytic) / np.abs(analytic)))
            ok = ok and rel <= 1e-3
            details.append(f"{setting}/m={m}: max rel err {rel:.2e}")
    report(8, ok, "; ".join(details))


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(SEED + 9)
    details, ok = [], True
    for i in range(10):
        dim = int(rng.integers(2, 5))
        mat = random_correlation(dim, rng)
        upper = rng.normal(size=dim) * 1.5
        corr = mvprob.CorrelationMatrix(mat)
        if i % 2 == 0:
            res = mvprob.mvn_cdf(upper, corr, tol=1e-7, rng=np.random.default_rng(i))
            mc, se = mvn_orthant_mc(upper, mat, 10_000_000, seed=1000 + i)
            kind = f"mvn{dim}"
        else:
            df = float(rng.uniform(3.0, 50.0))
            res = mvprob.mvt_cdf(upper, corr, df, tol=1e-7, rng=np.random.default_rng(i))
            mc, se = mvt_orthant_mc(upper, mat, df, 10_000_000, seed=1000 + i)
            kind = f"mvt{dim}"
        # rule-of-three floor: zero MC hits only certify p below ~3/n
        combined = 3.0 * float(np.hypot(se, res.error_estimate / 3.0)) + 3.0 / 10_000_000
        gap = abs(res.value - mc)
        ok = ok and gap <= combined
        details.append(f"{kind}: |diff| {gap:.2e} <= {combined:.2e}")

    # event-level PWER oracle on two m=2 fixtures
    d = dz.build_design(2, "pairwise_different", [50, 50, 75], 1.0, "known_homogeneous")
    model = pwer.build_test_model(d)
    members = [sorted(s) for s in model.strata]
    for weights, c in ((np.full(3, 1 / 3), 1.96), (np.array([0.5, 0.2, 0.3]), 2.2)):
        value = pwer.pwer_value(c, weights, model, tol=1e-7)
        oracle, se = pwer_event_mc(np.full(2, c), weights, members, model.full_corr,
                                   10_000_000, seed=int(c * 1000))
        gap = abs(value - oracle)
        ok = ok and gap <= 3.0 * se + 1e-7
        details.append(f"pwer(c={c}): |diff| {gap:.2e} <= {3 * se:.2e}")
    report(9, ok, "; ".join(details))


def test_criterion_10_analytic_invariants():
    checks = {}
    # gamma degeneracies
    checks["gamma point mass"] = pwer.delta_gamma(
        np.array([1.0, 0.0, 0.0]), np.array([-0.4, -0.2, -0.9])) == 0.0
    checks["gamma constant gradient"] = pwer.delta_gamma(
        np.full(4, 0.25), np.full(4, -0.3)) <= 1e-12
    # interval symmetry and exact 1/sqrt(N) width scaling
    iv_a = pwer.prediction_interval(ALPHA, 0.05, 0.011, 300)
    iv_b = pwer.prediction_interval(ALPHA, 0.05, 0.011, 1200)
    checks["interval symmetric"] = abs((iv_a.upper - ALPHA) - (ALPHA - iv_a.lower)) <= 1e-18
    checks["width ~ 1/sqrt(N)"] = abs(iv_a.half_width / iv_b.half_width - 2.0) <= 1e-12
    # calibration hits alpha at solver precision
    d2 = dz.build_design(2, "pairwise_different", [50, 50, 75], 1.0, "known_homogeneous")
    cv2 = pwer.solve_critical_values(np.full(3, 1 / 3), pwer.build_test_model(d2), ALPHA)
    d3 = dz.build_design(3, "pairwise_different", [36] * 7, 1.0, "known_homogeneous")
    cv3 = pwer.solve_critical_values(np.full(7, 1 / 7), pwer.build_test_model(d3), ALPHA)
    checks["calibrated PWER m=2"] = abs(cv2.achieved - ALPHA) <= 1e-8
    checks["calibrated PWER m=3"] = abs(cv3.achieved - ALPHA) <= 1e-8
    # disjoint populations need no multiplicity adjustment
    cv_disjoint = pwer.solve_critical_values(
        np.array([0.5, 0.5, 0.0]), pwer.build_test_model(d2), ALPHA)
    checks["disjoint returns z_alpha"] = abs(cv_disjoint.value - 1.959964) <= 1e-5
    # multinomial covariance annihilates constants
    w = np.random.default_rng(2).dirichlet(np.ones(7))
    r = np.diag(w) - np.outer(w, w)
    checks["R @ 1 == 0"] = float(np.max(np.abs(r @ np.ones(7)))) <= 1e-14
    ok = all(checks.values())
    report(10, ok, "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items()))


def test_criterion_11_thread_determinism(tmp_path):
    payload = {
        "mode": "simulate",
        "design": {"m": 2, "N": 250, "setting": "A", "prevalence_scheme": "equal"},
        "engine": {"runs": 60, "master_seed": SEED, "threads": 1},
        "output": {"directory": str(tmp_path / "t1")},
    }
    cfg1 = tmp_path / "c1.json"
    cfg1.write_text(json.dumps(payload))
    assert cli.main(["--config", str(cfg1)]) == 0
    payload["engine"]["threads"] = 3
    payload["output"]["directory"] = str(tmp_path / "t3")
    cfg3 = tmp_path / "c3.json"
    cfg3.write_text(json.dumps(payload))
    assert cli.main(["--config", str(cfg3)]) == 0
    same_records = (tmp_path / "t1" / "records.csv").read_bytes() == \
        (tmp_path / "t3" / "records.csv").read_bytes()
    same_aggregate = (tmp_path / "t1" / "aggregate.csv").read_bytes() == \
        (tmp_path / "t3" / "aggregate.csv").read_bytes()
    report(11, same_records and same_aggregate,
           f"records identical: {same_records}, aggregates identical: {same_aggregate}")
