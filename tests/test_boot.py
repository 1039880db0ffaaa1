import dataclasses

import numpy as np
import pytest

from pwerpi import boot, design as dz, mvprob, pwer
from pwerpi.errors import ConfigError, InfeasibleDesignError, NumericalError

from oracles import empirical_critical_full, parametric_null_run_by_run, projection_null_run_by_run

ALPHA = 0.025


def single_scheme_design(n_per_cell=40):
    counts = [2 * n_per_cell] * 3
    return dz.build_design(2, "single", counts, 1.0, "unknown_heterogeneous")


def fwer_at(null, c):
    """FWER_J(c) of every stratum of one null, a block of one of null_fwers."""
    return boot.null_fwers(null.statistics.T[None], [c])[0]


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

    def test_satterthwaite_population_without_patients_is_infeasible(self):
        # population 1 has no patients: its Welch df is nan, which max(nan, 1.0) would return
        d = dz.build_design(2, "single", [0, 40, 0], 1.0, "unknown_heterogeneous")
        with pytest.raises(InfeasibleDesignError) as satterthwaite:
            boot.satterthwaite_df(d)
        with pytest.raises(InfeasibleDesignError) as model:
            pwer.build_test_model(d, df=10.0)
        assert str(satterthwaite.value) == str(model.value) == "population 1 has an empty treatment arm"

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
        corr = pwer.build_test_model(d, df=boot.satterthwaite_df(d)).full_corr
        emp = np.corrcoef(null.statistics.T)[0, 1]
        assert emp == pytest.approx(corr[0, 1], abs=0.03)

    @pytest.mark.parametrize("m, scheme", [(2, "single"), (2, "pairwise_different"),
                                           (3, "single"), (3, "pairwise_different")])
    def test_stacked_rows_equal_each_run_alone(self, m, scheme):
        # one stack of 24 runs against each run's null drawn and studentised alone
        rng = np.random.default_rng(10 * m + len(scheme))
        layout = dz.cell_layout(m, scheme)
        designs = [dz.build_design(m, scheme, rng.multinomial(250, np.full(2**m - 1, 1 / (2**m - 1))),
                                   rng.uniform(0.1, 1.0, len(layout.cells)), "unknown_heterogeneous")
                   for _ in range(24)]
        nulls = boot.parametric_nulls(designs, 1000, [np.random.default_rng(k) for k in range(24)])
        assert nulls.failed == {} and nulls.statistics.shape == (24, m, 1000)
        for k, design in enumerate(designs):
            alone = parametric_null_run_by_run(design, 1000, np.random.default_rng(k))
            assert np.array_equal(nulls.statistics[k].T, alone)
            assert np.array_equal(boot.bootstrap_null_D(design, 1000, np.random.default_rng(k)).statistics, alone)

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
        pi_hat = np.array([0.0, 0.0, 1.0])
        cv = boot.solve_critical_empirical(null, pi_hat, ALPHA)
        maxima = np.sort(null.statistics.max(axis=1))
        k = int(np.ceil((1 - ALPHA) * null.B))
        # the midpoint must land between the bracketing order statistics
        assert maxima[k - 1] <= cv.value <= maxima[k]
        assert cv.achieved <= ALPHA

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_alpha_outside_the_exact_engines_range_rejected(self, alpha):
        # both engines take alpha in [ALPHA_MIN, 0.5) (pwer.check_alpha)
        d, null = self.build_null(B=2000)
        with pytest.raises(ConfigError, match="alpha must lie in"):
            boot.solve_critical_empirical(null, np.full(3, 1 / 3), alpha)

    @pytest.fixture
    def sorts_nothing(self, monkeypatch):
        def unsorted(*args):
            raise AssertionError("a rejected call sorts no maxima")

        monkeypatch.setattr(boot, "fwer_curves", unsorted)

    def test_insufficient_tail_resolution(self, sorts_nothing):
        d, null = self.build_null(B=2000)
        with pytest.raises(ConfigError):
            boot.solve_critical_empirical(null, np.full(3, 1 / 3), 0.005)

    def test_no_positive_prevalence(self, sorts_nothing):
        d, null = self.build_null(B=2000)
        with pytest.raises(ConfigError, match="no positive component"):
            boot.solve_critical_empirical(null, np.zeros(3), ALPHA)

    def test_conservative_side_and_granularity(self):
        d, null = self.build_null()
        weights = np.full(3, 1 / 3)
        cv = boot.solve_critical_empirical(null, weights, ALPHA)
        assert cv.achieved <= ALPHA
        assert ALPHA - cv.achieved <= 2.0 * weights.max() / null.B

    def test_matches_exact_engine_on_setting_c(self):
        d, null = self.build_null()
        weights = np.full(3, 1 / 3)
        cv_emp = boot.solve_critical_empirical(null, weights, ALPHA)
        model = pwer.build_test_model(d)
        cv_exact = pwer.solve_critical_values(weights, model, ALPHA)
        assert abs(cv_emp.value - cv_exact.value) <= 0.05


def correlated_statistics(m, B, seed, rho=0.5):
    """(B, m) equicorrelated normal statistics. An overlap stratum's maximum
    equals one of its singletons' on every resample, so values tie across strata."""
    chol = np.linalg.cholesky(np.full((m, m), rho) + (1.0 - rho) * np.eye(m))
    return np.random.default_rng(seed).standard_normal((B, m)) @ chol.T


# (m, statistics transform, weights): inputs that stress the tail cut
TAIL_CASES = {
    "m2": (2, None, [0.3, 0.3, 0.4]),
    "m3": (3, None, [0.2, 0.15, 0.1, 0.15, 0.1, 0.2, 0.1]),
    "m2_rounded": (2, lambda s: np.round(s / 0.05) * 0.05, [0.25, 0.35, 0.4]),
    "m3_rounded": (3, lambda s: np.round(s / 0.05) * 0.05, [1 / 7] * 7),
    "m3_rounded_coarse": (3, lambda s: np.round(s / 0.5) * 0.5, [0.1, 0.2, 0.1, 0.2, 0.1, 0.2, 0.1]),
    # every maximum above 1.5 ties at the cap, so the cut lands on the top value
    "m2_clipped": (2, lambda s: np.minimum(s, 1.5), [0.3, 0.3, 0.4]),
    "m3_clipped": (3, lambda s: np.minimum(s, 1.5), [1 / 7] * 7),
    "one_live_overlap": (2, None, [0.0, 0.0, 1.0]),
    "one_live_singleton": (3, None, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    "zero_weights": (3, None, [0.5, 0.0, 0.0, 0.3, 0.2, 0.0, 0.0]),
    # the strata holding the shifted population weigh << alpha but top the
    # tail: the cut widens up to the full set
    "tiny_weight_widens": (3, lambda s: s + np.array([0.0, 0.0, 10.0]),
                           [0.3, 0.3, 1e-5, 0.4 - 4e-5, 1e-5, 1e-5, 1e-5]),
    "m2_tiny_weight_widens": (2, lambda s: s + np.array([0.0, 10.0]), [1.0 - 2e-5, 1e-5, 1e-5]),
}


class TestTailSolverMatchesFullSet:
    @pytest.mark.parametrize("B", [1000, 10_000])
    @pytest.mark.parametrize("case", sorted(TAIL_CASES))
    def test_bit_identical(self, case, B):
        m, transform, weights = TAIL_CASES[case]
        stats = correlated_statistics(m, B, seed=B + m)
        if transform is not None:
            stats = transform(stats)
        null = boot.EmpiricalNull(statistics=stats)
        weights = np.array(weights)
        for alpha in (0.01, 0.02, 0.025, 0.05, 0.1, 0.25, 0.49):
            if B * alpha < boot.MIN_TAIL_RESAMPLES:
                with pytest.raises(ConfigError):
                    boot.solve_critical_empirical(null, weights, alpha)
                continue
            c_star, fwer, achieved = empirical_critical_full(null, weights, alpha)
            cv = boot.solve_critical_empirical(null, weights, alpha)
            assert np.array_equal(cv.c, np.full(m, c_star)), alpha
            assert np.array_equal(cv.fwer, fwer), alpha
            assert np.array_equal(cv.fwer, fwer_at(null, cv.value)), alpha
            assert cv.achieved == achieved and cv.verified == achieved, alpha


class TestBlockSolver:
    @pytest.mark.parametrize("B", [1000, 10_000])
    @pytest.mark.parametrize("m", [2, 3])
    def test_rows_equal_their_full_set_and_block_of_one_solves(self, m, B):
        # every tail case of one m as a row of one block, the widening ones among them
        cases = [case for case in sorted(TAIL_CASES) if TAIL_CASES[case][0] == m]
        assert any(case.endswith("_widens") for case in cases)
        nulls, weights = [], []
        for case in cases:
            _, transform, w = TAIL_CASES[case]
            stats = correlated_statistics(m, B, seed=B + m)
            nulls.append(boot.EmpiricalNull(statistics=stats if transform is None else transform(stats)))
            weights.append(w)
        weights = np.array(weights)
        block = boot.Nulls(np.stack([null.statistics.T for null in nulls]), np.zeros(len(cases), dtype=int), {})
        for alpha in (0.01, 0.02, 0.025, 0.05, 0.1, 0.25, 0.49):
            if B * alpha < boot.MIN_TAIL_RESAMPLES:
                with pytest.raises(ConfigError):
                    boot.solve_empirical_block(block, weights, alpha)
                continue
            solved = boot.solve_empirical_block(block, weights, alpha)
            for case, null, w, cv in zip(cases, nulls, weights, solved):
                c_star, fwer, achieved = empirical_critical_full(null, w, alpha)
                alone = boot.solve_critical_empirical(null, w, alpha)
                assert np.array_equal(cv.c, np.full(m, c_star)) and np.array_equal(alone.c, cv.c), (case, alpha)
                assert np.array_equal(cv.fwer, fwer) and np.array_equal(alone.fwer, fwer), (case, alpha)
                assert cv.achieved == achieved == alone.achieved, (case, alpha)

    def test_a_row_fails_alone(self):
        stats = np.stack([correlated_statistics(2, 2000, seed=k).T for k in range(3)])
        weights = np.array([[0.3, 0.3, 0.4], [0.0, 0.0, 0.0], [0.2, 0.2, 0.6]])
        block = boot.Nulls(stats, np.zeros(3, dtype=int), {2: NumericalError("no null")})
        solved = boot.solve_empirical_block(block, weights, ALPHA)
        assert str(solved[1]) == "prevalence vector has no positive component" and str(solved[2]) == "no null"
        alone = boot.solve_critical_empirical(boot.EmpiricalNull(stats[0].T), weights[0], ALPHA)
        assert np.array_equal(solved[0].c, alone.c) and np.array_equal(solved[0].fwer, alone.fwer)


class TestNullFwer:
    @pytest.mark.parametrize("m, transform", [
        (2, None), (3, None), (3, lambda s: np.round(s / 0.05) * 0.05),
    ])
    def test_equals_sorted_curves(self, m, transform):
        stats = correlated_statistics(m, 2000, seed=m)
        if transform is not None:
            stats = transform(stats)
        null = boot.EmpiricalNull(statistics=stats)
        curves = boot.fwer_curves(null)
        # resample maxima themselves (the side="right" edge), then points between them
        at_maxima = [curve[k] for curve in curves for k in (0, 1000, 1950, 1999)]
        for c in at_maxima + [-10.0, 0.0, 1.96, 2.2360679, 10.0]:
            above = [float(null.B - np.searchsorted(curve, c, side="right")) / null.B for curve in curves]
            assert np.array_equal(fwer_at(null, c), np.array(above)), c


class TestEmpiricalGradient:
    def test_calibration_identity_and_range(self):
        d = setting_c_fixture()
        null = boot.bootstrap_null_D(d, 10_000, np.random.default_rng(2))
        weights = np.full(3, 1 / 3)
        cv = boot.solve_critical_empirical(null, weights, ALPHA)
        grad, tp = cv.gradient(), cv.true_pwer(weights)
        assert tp == pytest.approx(cv.achieved, abs=1e-15)
        assert tp <= ALPHA
        assert np.all(grad >= -1.0) and np.all(grad <= 0.0)

    def test_matches_exact_stratum_cdfs(self):
        d = setting_c_fixture()
        null = boot.bootstrap_null_D(d, 10_000, np.random.default_rng(23))
        weights = np.full(3, 1 / 3)
        cv = boot.solve_critical_empirical(null, weights, ALPHA)
        grad = cv.gradient()
        model = pwer.build_test_model(d)
        exact = []  # each stratum's own mvt_cdf call
        for stratum in model.strata:
            idx = [i - 1 for i in sorted(stratum)]
            corr = mvprob.CorrelationMatrix(model.full_corr[np.ix_(idx, idx)])
            exact.append(mvprob.mvt_cdf(cv.c[idx], corr, model.df, 1e-7).value - 1.0)
        assert np.max(np.abs(grad - exact)) <= 0.02


class TestProjection:
    def test_null_compliant_is_fixed_point(self):
        pi = np.array([0.25, 0.25, 0.5])
        u = 0.37
        theta = np.array([-pi[2] / pi[0] * u, -pi[2] / pi[1] * u, u])
        projected = boot.project_to_null(theta, pi, 2)
        assert projected == pytest.approx(theta, abs=1e-12)

    def test_idempotent(self):
        strata = dz.enumerate_strata(2)
        pi = np.array([0.2, 0.3, 0.5])
        rng = np.random.default_rng(7)
        theta = rng.normal(size=3)
        once = boot.project_to_null(theta, pi, 2)
        twice = boot.project_to_null(once, pi, 2)
        assert twice == pytest.approx(once, abs=1e-12)
        # projected effects satisfy the population constraints
        for i in (1, 2):
            total = sum(pi[j] * once[j] for j, s in enumerate(strata) if i in s)
            assert abs(total) <= 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_the_strata_constraint_bit_for_bit(self, m):
        # the constraint as built from enumerate_strata before the membership table
        strata = dz.enumerate_strata(m)
        rng = np.random.default_rng(m)
        w = rng.dirichlet(np.ones(len(strata)))
        theta = rng.normal(size=len(strata))
        constraint = np.zeros((m, len(strata)))
        for j, stratum in enumerate(strata):
            for i in stratum:
                constraint[i - 1, j] = w[j]
        expected = theta - np.linalg.pinv(constraint) @ (constraint @ theta)
        assert np.array_equal(boot.project_to_null(theta, w, m), expected)


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
        assert boot.project_to_null(theta, pv, 2) == pytest.approx(theta, abs=1e-12)

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

    def test_empty_arm_resamples_redrawn_and_counted(self):
        # eight patients: a population arm is often empty, and such resamples are redrawn
        d = dz.build_design(2, "single", [3, 3, 2], 1.0, "unknown_homogeneous")
        pv = np.array([0.45, 0.45, 0.1])
        effects = np.array([0.2, -0.3, 0.1])
        a = boot.bootstrap_null_E(d, pv, effects, 0.8, 2000, np.random.default_rng(4))
        b = boot.bootstrap_null_E(d, pv, effects, 0.8, 2000, np.random.default_rng(4))
        assert a.rejected_resamples > 0
        assert a.rejected_resamples == b.rejected_resamples
        assert np.array_equal(a.statistics, b.statistics)

    @pytest.mark.parametrize("scheme", ["single", "pairwise_different"])
    def test_stacked_rows_equal_each_run_alone(self, scheme):
        # small trials redraw many resamples, each run in its own rounds
        rng = np.random.default_rng(len(scheme))
        designs, pis, effects, pooled = [], [], [], []
        for k in range(12):
            counts = rng.multinomial(8 + k, [0.4, 0.4, 0.2])
            try:
                designs.append(dz.build_design(2, scheme, counts, 1.0, "unknown_homogeneous"))
            except InfeasibleDesignError:
                continue
            pis.append(rng.dirichlet(np.full(3, 2.0)))
            effects.append(rng.normal(size=3))
            pooled.append(rng.uniform(0.2, 1.5))
        nulls = boot.projection_nulls(designs, np.array(pis), effects, pooled, 1000,
                                      [np.random.default_rng(k) for k in range(len(designs))])
        assert nulls.failed == {} and len(designs) >= 8
        for k, design in enumerate(designs):
            stats, rejected = projection_null_run_by_run(design, pis[k], effects[k], pooled[k], 1000,
                                                         np.random.default_rng(k))
            assert np.array_equal(nulls.statistics[k].T, stats) and nulls.rejected[k] == rejected
        assert (nulls.rejected > 0).sum() >= 4

    def test_m3_rejected(self):
        d3 = dz.build_design(3, "single", [30] * 7, 1.0, "unknown_homogeneous")
        with pytest.raises(ConfigError):
            boot.bootstrap_null_E(d3, np.full(7, 1 / 7), np.zeros(7), 1.0, 2000, np.random.default_rng(0))


class TestFwerCurves:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_maxima_are_those_of_the_strata_columns(self, m):
        # stratum j's maxima over the columns of enumerate_strata(m)[j], in canonical order
        null = boot.EmpiricalNull(statistics=np.random.default_rng(m).normal(size=(1000, m)))
        expected = [np.sort(null.statistics[:, [i - 1 for i in sorted(s)]].max(axis=1))
                    for s in dz.enumerate_strata(m)]
        curves = boot.fwer_curves(null)
        assert len(curves) == len(expected)
        assert all(np.array_equal(curve, ref) for curve, ref in zip(curves, expected))
        above = [float(np.count_nonzero(ref > 1.5)) / null.B for ref in expected]
        assert np.array_equal(fwer_at(null, 1.5), np.array(above))

    def test_monotone_and_nested(self):
        d = setting_c_fixture()
        null = boot.bootstrap_null_D(d, 5000, np.random.default_rng(1))
        grid = np.linspace(0.5, 3.5, 13)
        fwer = np.array([fwer_at(null, c) for c in grid])
        assert np.all(np.diff(fwer, axis=0) <= 0)
        # supersets reject at least as often on shared resamples
        assert np.all(fwer[:, 2] >= fwer[:, :2].max(axis=1))
