import dataclasses

import numpy as np
import pytest

from pwerpi import boot, design as dz, pwer
from pwerpi.errors import ConfigError, InfeasibleDesignError

ALPHA = 0.025


def single_scheme_design(n_per_cell=40):
    counts = [2 * n_per_cell] * 3
    return dz.build_design(2, "single", counts, 1.0, "unknown_heterogeneous")


def setting_c_fixture(n_per_cell=40):
    """Homogeneous-variance design where the exact t engine applies."""
    counts = [2 * n_per_cell] * 3
    return dz.build_design(2, "single", counts, 1.0, "unknown_homogeneous")


class TestWelch:
    def test_two_equal_cells(self):
        df = boot.welch_df(np.array([2.0, 2.0]), np.array([0.3, 0.3]), np.array([39.0, 39.0]))
        assert df == pytest.approx(2 * 39.0)

    def test_single_cell(self):
        df = boot.welch_df(np.array([1.7]), np.array([0.5]), np.array([24.0]))
        assert df == pytest.approx(24.0)

    def test_satterthwaite_disjoint_symmetric(self):
        d = dz.build_design(2, "pairwise_different", [80, 80, 0], 1.0, "unknown_heterogeneous")
        # each population pools two cells of 40 with equal variances
        assert boot.satterthwaite_df(d) == pytest.approx(2 * 39.0)

    def test_satterthwaite_against_reimplementation(self):
        d = single_scheme_design()
        rng = np.random.default_rng(31)
        s2 = rng.uniform(0.1, 1.0, size=len(d.cells))
        d = dataclasses.replace(d, cell_variances=s2)
        # independent re-implementation straight from the formula
        sizes = d.cell_sizes.astype(float)
        dfs = []
        for i in (1, 2):
            cells = []
            n_t = d.treatment_member[i - 1] @ d.cell_sizes
            n_c = d.control_member[i - 1] @ d.cell_sizes
            for k, (j, arm) in enumerate(d.cells):
                if i not in d.strata[j] or sizes[k] == 0:
                    continue
                w = sizes[k] / (n_t**2 if arm == d.treatments[i - 1] else n_c**2)
                cells.append((w, s2[k], sizes[k] - 1))
            num = sum(w * v for w, v, _ in cells) ** 2
            den = sum((w * v) ** 2 / df for w, v, df in cells)
            dfs.append(num / den)
        assert boot.satterthwaite_df(d) == pytest.approx(min(dfs), rel=1e-12)

    def test_small_cell_rejected(self):
        d = dz.build_design(2, "pairwise_different", [3, 80, 0], 1.0, "unknown_heterogeneous")
        with pytest.raises(InfeasibleDesignError):
            boot.satterthwaite_df(d)


class TestBootstrapNullD:
    def test_studentization(self):
        d = single_scheme_design()
        s2 = np.random.default_rng(3).uniform(0.2, 1.0, size=len(d.cells))
        d = dataclasses.replace(d, cell_variances=s2)
        null = boot.bootstrap_null_D(d, 10_000, np.random.default_rng(5))
        assert null.statistics.shape == (10_000, 2)
        assert null.statistics.var(axis=0) == pytest.approx([1.0, 1.0], abs=0.05)

    def test_homogeneous_matches_exact_correlation(self):
        d = single_scheme_design()
        d = dataclasses.replace(d, cell_variances=np.full(len(d.cells), 0.7))
        null = boot.bootstrap_null_D(d, 10_000, np.random.default_rng(8))
        corr, _ = pwer.build_full_correlation(d)
        emp = np.corrcoef(null.statistics.T)[0, 1]
        assert emp == pytest.approx(corr[0, 1], abs=0.03)

    def test_deterministic(self):
        d = single_scheme_design()
        d = dataclasses.replace(d, cell_variances=np.full(len(d.cells), 0.5))
        a = boot.bootstrap_null_D(d, 2000, np.random.default_rng(11))
        b = boot.bootstrap_null_D(d, 2000, np.random.default_rng(11))
        assert np.array_equal(a.statistics, b.statistics)


class TestSolveCriticalEmpirical:
    def build_null(self, B=10_000, seed=5):
        d = setting_c_fixture()
        return d, boot.bootstrap_null_D(d, B, np.random.default_rng(seed))

    def test_concentrated_on_one_stratum(self):
        d, null = self.build_null()
        strata = d.strata
        pi_hat = np.array([0.0, 0.0, 1.0])
        cv = boot.solve_critical_empirical(null, strata, pi_hat, ALPHA)
        maxima = np.sort(null.statistics.max(axis=1))
        k = int(np.ceil((1 - ALPHA) * null.B))
        # the midpoint must land between the bracketing order statistics
        assert maxima[k - 1] <= cv.value <= maxima[k]
        assert cv.achieved <= ALPHA

    def test_alpha_one_boundary(self):
        d, null = self.build_null(B=2000)
        cv = boot.solve_critical_empirical(null, d.strata, np.full(3, 1 / 3), 1.0)
        assert cv.value == pytest.approx(null.statistics.min() - 1.0)

    def test_insufficient_tail_resolution(self):
        d, null = self.build_null(B=2000)
        with pytest.raises(ConfigError):
            boot.solve_critical_empirical(null, d.strata, np.full(3, 1 / 3), 0.005)

    def test_conservative_side_and_granularity(self):
        d, null = self.build_null()
        weights = np.full(3, 1 / 3)
        cv = boot.solve_critical_empirical(null, d.strata, weights, ALPHA)
        assert cv.achieved <= ALPHA
        assert ALPHA - cv.achieved <= 2.0 * weights.max() / null.B

    def test_matches_exact_engine_on_setting_c(self):
        d, null = self.build_null()
        weights = np.full(3, 1 / 3)
        cv_emp = boot.solve_critical_empirical(null, d.strata, weights, ALPHA)
        model = pwer.build_test_model(d)
        cv_exact = pwer.solve_critical_values(weights, model, ALPHA)
        assert abs(cv_emp.value - cv_exact.value) <= 0.05


class TestEmpiricalGradient:
    def test_calibration_identity_and_range(self):
        d = setting_c_fixture()
        null = boot.bootstrap_null_D(d, 10_000, np.random.default_rng(2))
        weights = np.full(3, 1 / 3)
        cv = boot.solve_critical_empirical(null, d.strata, weights, ALPHA)
        grad, tp = cv.gradient(), cv.true_pwer(weights)
        assert tp == pytest.approx(cv.achieved, abs=1e-15)
        assert tp <= ALPHA
        assert np.all(grad >= -1.0) and np.all(grad <= 0.0)

    def test_matches_exact_stratum_cdfs(self):
        d = setting_c_fixture()
        null = boot.bootstrap_null_D(d, 10_000, np.random.default_rng(23))
        weights = np.full(3, 1 / 3)
        cv = boot.solve_critical_empirical(null, d.strata, weights, ALPHA)
        grad = cv.gradient()
        model = pwer.build_test_model(d)
        exact = pwer.stratum_cdf_values(cv, model, tol=1e-7) - 1.0
        assert np.max(np.abs(grad - exact)) <= 0.02


class TestProjection:
    def test_null_compliant_is_fixed_point(self):
        strata = dz.enumerate_strata(2)
        pi = np.array([0.25, 0.25, 0.5])
        u = 0.37
        theta = np.array([-pi[2] / pi[0] * u, -pi[2] / pi[1] * u, u])
        projected = boot.project_to_null(theta, pi, strata, 2)
        assert projected == pytest.approx(theta, abs=1e-12)

    def test_idempotent(self):
        strata = dz.enumerate_strata(2)
        pi = np.array([0.2, 0.3, 0.5])
        rng = np.random.default_rng(7)
        theta = rng.normal(size=3)
        once = boot.project_to_null(theta, pi, strata, 2)
        twice = boot.project_to_null(once, pi, strata, 2)
        assert twice == pytest.approx(once, abs=1e-12)
        # projected effects satisfy the population constraints
        for i in (1, 2):
            total = sum(pi[j] * once[j] for j, s in enumerate(strata) if i in s)
            assert abs(total) <= 1e-12


class TestSettingE:
    def test_effect_solving_equal_prevalences(self):
        # vanishing noise exposes the constructed effects: theta_i = -theta_12
        d = dz.build_design(2, "single", [84, 84, 82], 1.0, "unknown_homogeneous")
        pv = np.full(3, 1 / 3)
        effects, pooled = boot.generate_setting_E_study(pv, d, 1e-9, np.random.default_rng(0))
        assert pooled > 0
        assert effects[0] == pytest.approx(-effects[2], abs=1e-8)
        assert effects[1] == pytest.approx(-effects[2], abs=1e-8)

    def test_prevalence_ratio_two(self):
        # pi_12 = 0.5, singletons 0.25: theta_i = -2 theta_12
        d = dz.build_design(2, "single", [62, 62, 126], 1.0, "unknown_homogeneous")
        pv = np.array([0.25, 0.25, 0.5])
        effects, _ = boot.generate_setting_E_study(pv, d, 1e-9, np.random.default_rng(4))
        assert effects[0] == pytest.approx(-2 * effects[2], abs=1e-7)
        assert effects[1] == pytest.approx(-2 * effects[2], abs=1e-7)
        # the construction lies in the null space: projection is the identity
        theta = np.array([-2 * 0.4, -2 * 0.4, 0.4])
        assert boot.project_to_null(theta, pv, d.strata, 2) == pytest.approx(theta, abs=1e-12)

    def test_pooled_variance_mean(self):
        d = dz.build_design(2, "single", [84, 84, 82], 1.0, "unknown_homogeneous")
        pv = np.full(3, 1 / 3)
        rng = np.random.default_rng(12)
        draws = [boot.generate_setting_E_study(pv, d, 0.5, rng)[1] for _ in range(10_000)]
        assert np.mean(draws) == pytest.approx(0.25, rel=0.02)

    def test_bootstrap_null_E_deterministic_and_shapes(self):
        d = dz.build_design(2, "single", [84, 84, 82], 1.0, "unknown_homogeneous")
        pv = np.full(3, 1 / 3)
        effects, pooled = boot.generate_setting_E_study(pv, d, 0.5, np.random.default_rng(3))
        a = boot.bootstrap_null_E(d, pv, effects, pooled, 2000, np.random.default_rng(9))
        b = boot.bootstrap_null_E(d, pv, effects, pooled, 2000, np.random.default_rng(9))
        assert np.array_equal(a.statistics, b.statistics)
        assert a.statistics.shape == (2000, 2)
        assert a.provenance == "projection_E"

    def test_m3_rejected(self):
        d3 = dz.build_design(3, "single", [30] * 7, 1.0, "unknown_homogeneous")
        with pytest.raises(ConfigError):
            boot.bootstrap_null_E(d3, np.full(7, 1 / 7), np.zeros(7), 1.0, 2000, np.random.default_rng(0))


class TestFwerCurves:
    def test_monotone_and_nested(self):
        d = setting_c_fixture()
        null = boot.bootstrap_null_D(d, 5000, np.random.default_rng(1))
        curves = boot.fwer_curves(null, d.strata)
        grid = np.linspace(0.5, 3.5, 13)
        for curve in curves:
            values = [curve.value(c) for c in grid]
            assert np.all(np.diff(values) <= 0)
        # supersets reject at least as often on shared resamples
        for c in grid:
            assert curves[2].value(c) >= max(curves[0].value(c), curves[1].value(c))
