import dataclasses

import numpy as np
import pytest

from pwerpi import design as dz
from pwerpi import mvprob, pwer
from pwerpi.errors import ConfigError, InfeasibleDesignError

from oracles import fd_gradient, pwer_event_mc

ALPHA = 0.025


def equal_cells_design(scheme="pairwise_different", per_cell=25):
    # m=2, three strata, `per_cell` patients in every (stratum, arm) cell
    counts = {
        "pairwise_different": [2 * per_cell, 2 * per_cell, 3 * per_cell],
        "single": [2 * per_cell, 2 * per_cell, 2 * per_cell],
    }[scheme]
    return dz.build_design(2, scheme, counts, 1.0, "known_homogeneous")


M4_COUNTS = [30, 22, 18, 25, 14, 20, 16, 28, 12, 19, 24, 15, 21, 17, 26]
M5_COUNTS = M4_COUNTS + [23, 11, 27, 13, 29, 18, 22, 16, 25, 20, 14, 24, 19, 21, 17, 26]


def setting_a_solve(m, counts):
    d = dz.build_design(m, "pairwise_different", counts, 1.0, "known_homogeneous")
    weights = np.asarray(counts, float) / sum(counts)
    return pwer.solve_critical_values(
        weights, pwer.build_test_model(d), ALPHA, rng=np.random.default_rng(2026)
    )


def m4_solve():
    # setting A at m=4: every stratum, the 4-dim one included, is deterministic quadrature
    return setting_a_solve(4, M4_COUNTS)


class TestBuildTestModel:
    def test_disjoint_populations_zero_correlation(self):
        d = dz.build_design(2, "pairwise_different", [100, 100, 0], 1.0, "known_homogeneous")
        model = pwer.build_test_model(d)
        assert model.full_corr[0, 1] == 0.0

    def test_equal_cells_value(self):
        model = pwer.build_test_model(equal_cells_design())
        assert model.population_variances == pytest.approx([0.04, 0.04], abs=1e-15)
        assert model.full_corr[0, 1] == pytest.approx(0.25, abs=1e-14)

    def test_single_treatment_larger(self):
        single = pwer.build_test_model(equal_cells_design("single"))
        # shared treatment arm adds a second covariance term: 0.02/0.04
        assert single.full_corr[0, 1] == pytest.approx(0.5, abs=1e-14)
        assert single.full_corr[0, 1] > 0.25

    def test_correlation_against_simulation(self):
        # simulate the statistics themselves and compare their correlation
        d = equal_cells_design()
        model = pwer.build_test_model(d)
        rng = np.random.default_rng(17)
        scale = np.sqrt(1.0 / d.cell_sizes)
        means = rng.standard_normal((1_000_000, len(d.cells))) * scale
        z = pwer.test_statistics(d, means)
        assert z.var(axis=0) == pytest.approx([1.0, 1.0], abs=0.005)
        emp = np.corrcoef(z.T)[0, 1]
        assert emp == pytest.approx(model.full_corr[0, 1], abs=0.003)

    def test_variance_modes(self):
        d = equal_cells_design()
        assert pwer.build_test_model(d).kind == "normal"
        d_t = dataclasses.replace(d, variance_mode="unknown_homogeneous")
        model_t = pwer.build_test_model(d_t)
        assert model_t.kind == "t"
        assert model_t.df == d.N - 7  # seven populated cells
        d_h = dataclasses.replace(d, variance_mode="unknown_heterogeneous")
        with pytest.raises(ConfigError):
            pwer.build_test_model(d_h)

    def test_empty_population_arm_raises(self):
        # a single patient lands in the treatment arm, leaving control empty
        d = dz.build_design(2, "pairwise_different", [100, 1, 0], 1.0, "known_homogeneous")
        with pytest.raises(InfeasibleDesignError):
            pwer.build_test_model(d)
        model = pwer.build_test_model(d, allow_empty_populations=True)
        assert list(model.stratum_ok) == [True, False, False]


class TestTestStatistics:
    def test_zero_means(self):
        d = equal_cells_design()
        z = pwer.test_statistics(d, np.zeros(len(d.cells)))
        assert np.all(z == 0.0)

    def test_two_sample_z(self):
        d = dz.build_design(2, "pairwise_different", [100, 100, 0], 1.0, "known_homogeneous")
        means = np.zeros(len(d.cells))
        means[d.cells.index((0, "T1"))] = 0.5  # stratum {1}, treatment arm
        z = pwer.test_statistics(d, means)
        assert z[0] == pytest.approx(0.5 / np.sqrt(1 / 50 + 1 / 50), abs=1e-12)
        assert z[1] == 0.0

    def test_batch_axis(self):
        d = equal_cells_design()
        means = np.random.default_rng(0).normal(size=(8, len(d.cells)))
        z = pwer.test_statistics(d, means)
        assert z.shape == (8, 2)


class TestPwerValue:
    def test_degenerate_single_population(self):
        model = pwer.build_test_model(equal_cells_design())
        value = pwer.pwer_value(1.959964, np.array([1.0, 0.0, 0.0]), model)
        assert value == pytest.approx(0.025, abs=1e-6)

    def test_vanishing_tail(self):
        model = pwer.build_test_model(equal_cells_design())
        assert pwer.pwer_value(40.0, np.full(3, 1 / 3), model) <= 1e-9

    def test_against_event_oracle(self):
        d = equal_cells_design()
        model = pwer.build_test_model(d)
        weights = np.full(3, 1 / 3)
        value = pwer.pwer_value(1.96, weights, model, tol=1e-7)
        members = [sorted(s) for s in model.strata]
        oracle, se = pwer_event_mc(
            np.full(2, 1.96), weights, members, model.full_corr, 10_000_000, seed=404
        )
        assert abs(value - oracle) <= 3.0 * se + 1e-7

    def test_monotone_decreasing_in_c(self):
        model = pwer.build_test_model(equal_cells_design())
        weights = np.full(3, 1 / 3)
        values = [pwer.pwer_value(c, weights, model, tol=1e-7) for c in np.linspace(1.0, 3.0, 9)]
        assert np.all(np.diff(values) < 0)

    def test_convex_combination_bounds(self):
        model = pwer.build_test_model(equal_cells_design())
        weights = np.array([0.2, 0.3, 0.5])
        c = 2.1
        value = pwer.pwer_value(c, weights, model, tol=1e-7)
        fwer = 1.0 - pwer.stratum_cdf_values(np.full(2, c), model, tol=1e-7)
        assert fwer.min() - 1e-9 <= value <= fwer.max() + 1e-9


class TestSolveCriticalValues:
    def test_disjoint_needs_no_adjustment(self):
        model = pwer.build_test_model(equal_cells_design())
        cv = pwer.solve_critical_values(np.array([0.5, 0.5, 0.0]), model, ALPHA)
        assert cv.value == pytest.approx(1.959964, abs=1e-5)

    def test_independent_full_overlap_closed_form(self):
        # oracle: brentq on 2(1-Phi) - (1-Phi)^2 = alpha gives 2.238964375652972
        model = pwer.build_test_model(equal_cells_design())
        eye = mvprob.CorrelationMatrix(np.eye(2))
        model0 = dataclasses.replace(
            model, full_corr=np.eye(2), stratum_corr=model.stratum_corr[:2] + (eye,)
        )
        cv = pwer.solve_critical_values(np.array([0.0, 0.0, 1.0]), model0, ALPHA)
        assert cv.value == pytest.approx(2.238964375652972, abs=1e-6)

    def test_bracket_bounds_hold(self):
        model = pwer.build_test_model(equal_cells_design())
        rng = np.random.default_rng(5)
        lo = mvprob.std_normal_quantile(1 - ALPHA)
        hi = mvprob.std_normal_quantile(1 - ALPHA / 4)
        for _ in range(5):
            weights = rng.dirichlet(np.ones(3))
            cv = pwer.solve_critical_values(weights, model, ALPHA, rng=rng)
            assert lo - 1e-9 <= cv.value <= hi + 1e-9
            assert abs(cv.achieved - ALPHA) <= 1e-8

    def test_achieved_precision(self):
        model = pwer.build_test_model(equal_cells_design())
        cv = pwer.solve_critical_values(np.full(3, 1 / 3), model, ALPHA)
        assert abs(cv.achieved - ALPHA) <= 1e-8
        assert abs(cv.verified - ALPHA) <= 5e-6

    def test_m4_solve_pinned(self):
        # exact figures: a change that moves the 4-dim quadrature numbers must update them
        cv = m4_solve()
        assert cv.value == 2.249761755282957
        assert cv.achieved == 0.024999999935652925
        assert cv.verified == 0.024999999935652925
        assert cv.evaluations == 9
        assert cv.fwer.tolist() == [
            0.012232036486460873, 0.012232036486460873, 0.012232036486460873,
            0.012232036486460873, 0.023989416508374717, 0.023908994088898905,
            0.02398327510365106, 0.02383287773668541, 0.024025277856804084,
            0.02394331677823902, 0.03508725963536852, 0.035337369215475256,
            0.035184995995541035, 0.03515226155629336, 0.04600066684378157,
        ]
        # the value pinned when the 4-dim stratum went through QMC
        assert abs(cv.value - 2.249761860995374) <= 1e-6

    def test_engines_built_once_per_solve(self, monkeypatch):
        # m=5: the 5-dim stratum's 12 engines are shared by every evaluation,
        # and the verify pass builds 12; m=4 reaches no QMC at all
        built = []
        sobol = mvprob.qmc.Sobol

        def counting_sobol(*args, **kwargs):
            built.append(args)
            return sobol(*args, **kwargs)

        monkeypatch.setattr(mvprob.qmc, "Sobol", counting_sobol)
        cv = setting_a_solve(5, M5_COUNTS)
        assert cv.evaluations == 9
        assert len(built) == 24
        built.clear()
        m4_solve()
        assert built == []

    def test_alpha_domain(self):
        model = pwer.build_test_model(equal_cells_design())
        with pytest.raises(ConfigError):
            pwer.solve_critical_values(np.full(3, 1 / 3), model, 0.6)
        with pytest.raises(ConfigError):
            pwer.solve_critical_values(np.zeros(3), model, ALPHA)


class TestGradient:
    def test_degenerate_component_is_minus_alpha(self):
        model = pwer.build_test_model(equal_cells_design())
        cv = pwer.solve_critical_values(np.array([1.0, 0.0, 0.0]), model, ALPHA)
        grad = cv.gradient()
        assert grad[0] == pytest.approx(-ALPHA, abs=1e-6)

    def test_components_in_unit_interval(self):
        model = pwer.build_test_model(equal_cells_design())
        cv = pwer.solve_critical_values(np.full(3, 1 / 3), model, ALPHA)
        grad = cv.gradient()
        assert np.all(grad >= -1.0) and np.all(grad <= 0.0)

    def test_weighted_gradient_recovers_alpha(self):
        # at the calibrated c: sum_J pi_J * (-g_J) = alpha when factors are 1
        model = pwer.build_test_model(equal_cells_design())
        weights = np.array([0.5, 0.2, 0.3])
        cv = pwer.solve_critical_values(weights, model, ALPHA)
        grad = cv.gradient()
        assert float(weights @ -grad) == pytest.approx(ALPHA, abs=5e-7)

    def test_matches_finite_differences(self):
        model = pwer.build_test_model(equal_cells_design())
        pi0 = np.full(3, 1 / 3)
        cv = pwer.solve_critical_values(pi0, model, ALPHA, solver_tol=1e-12,
                                        cdf_tol=1e-8, verify_tol=1e-8)
        analytic = cv.gradient()
        numeric = fd_gradient(pi0, model, ALPHA)
        assert np.max(np.abs(numeric - analytic) / np.abs(analytic)) <= 1e-3


class TestDeltaGamma:
    def test_point_mass(self):
        assert pwer.delta_gamma(np.array([1.0, 0.0, 0.0]), np.array([-0.3, -0.5, -0.9])) == 0.0

    def test_constant_gradient(self):
        assert pwer.delta_gamma(np.full(3, 1 / 3), np.full(3, -0.4)) <= 1e-9

    def test_two_by_two(self):
        assert pwer.delta_gamma(np.array([0.5, 0.5]), np.array([-1.0, 0.0])) == pytest.approx(0.5)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        w = rng.dirichlet(np.ones(5))
        g = -rng.uniform(size=5)
        assert pwer.delta_gamma(w, g) == pytest.approx(pwer.delta_gamma(w, g + 0.37), abs=1e-12)

    def test_annihilates_ones(self):
        w = np.random.default_rng(2).dirichlet(np.ones(7))
        r = np.diag(w) - np.outer(w, w)
        assert np.max(np.abs(r @ np.ones(7))) <= 1e-14


class TestPredictionInterval:
    def test_zero_gamma(self):
        iv = pwer.prediction_interval(ALPHA, 0.05, 0.0, 250)
        assert iv.lower == iv.upper == ALPHA

    def test_half_width_formula(self):
        iv = pwer.prediction_interval(ALPHA, 0.05, 0.02, 400)
        assert iv.half_width == pytest.approx(1.959964 * 0.02 / 20.0, abs=1e-8)

    def test_symmetry_and_scaling(self):
        iv1 = pwer.prediction_interval(ALPHA, 0.05, 0.013, 100)
        iv4 = pwer.prediction_interval(ALPHA, 0.05, 0.013, 400)
        assert iv1.upper - ALPHA == pytest.approx(ALPHA - iv1.lower, abs=1e-18)
        assert iv1.half_width / iv4.half_width == pytest.approx(2.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ConfigError):
            pwer.prediction_interval(0.0, 0.05, 0.01, 100)
        with pytest.raises(ConfigError):
            pwer.prediction_interval(ALPHA, 0.05, -0.1, 100)


class TestTruePwer:
    def test_calibration_identity(self):
        model = pwer.build_test_model(equal_cells_design())
        weights = np.full(3, 1 / 3)
        cv = pwer.solve_critical_values(weights, model, ALPHA)
        assert pwer.pwer_value(cv, weights, model, tol=1e-7) == pytest.approx(ALPHA, abs=1e-7)

    def test_five_population_smoke(self):
        # exercises the full lattice (31 strata) and the QMC dimensions
        d = dz.build_design(5, "pairwise_different", [40] * 31, 1.0, "known_homogeneous")
        model = pwer.build_test_model(d)
        assert len(model.stratum_corr) == 31
        weights = np.full(31, 1 / 31)
        value = pwer.pwer_value(2.3, weights, model, tol=1e-3,
                                rng=np.random.default_rng(0))
        lo = 1.0 - mvprob.std_normal_cdf(2.3)
        assert lo <= value <= 5 * lo + 1e-3

    def test_against_event_oracle_with_mismatched_truth(self):
        d = equal_cells_design()
        model = pwer.build_test_model(d)
        pi_hat = np.array([0.4, 0.32, 0.28])
        pi_true = np.full(3, 1 / 3)
        cv = pwer.solve_critical_values(pi_hat, model, ALPHA)
        value = pwer.pwer_value(cv, pi_true, model, tol=1e-7)
        members = [sorted(s) for s in model.strata]
        oracle, se = pwer_event_mc(cv.c, pi_true, members, model.full_corr, 10_000_000, seed=55)
        assert abs(value - oracle) <= 3.0 * se + 1e-7
