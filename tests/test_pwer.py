import dataclasses
import math

import numpy as np
import pytest

from pwerpi import design as dz
from pwerpi import mvprob, pwer, sim
from pwerpi.errors import ConfigError, InfeasibleDesignError, NumericalError

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

    def test_reference_df_only_for_unknown_heterogeneous(self):
        d = equal_cells_design()
        d_h = dataclasses.replace(d, variance_mode="unknown_heterogeneous")
        model = pwer.build_test_model(d_h, df=12.5)
        assert (model.kind, model.df) == ("t", 12.5)
        with pytest.raises(InfeasibleDesignError):
            pwer.build_test_model(d_h, df=0.5)
        for mode in ("known_homogeneous", "known_heterogeneous", "unknown_homogeneous"):
            with pytest.raises(ConfigError):
                pwer.build_test_model(dataclasses.replace(d, variance_mode=mode), df=12.5)

    @pytest.mark.parametrize("df", [math.nan, math.inf])
    def test_non_finite_reference_df_rejected(self, df):
        d_h = dataclasses.replace(equal_cells_design(), variance_mode="unknown_heterogeneous")
        with pytest.raises(ConfigError, match="degrees of freedom"):
            pwer.build_test_model(d_h, df=df)

    def test_empty_population_arm_raises(self):
        # a single patient lands in the treatment arm, leaving control empty
        d = dz.build_design(2, "pairwise_different", [100, 1, 0], 1.0, "known_homogeneous")
        with pytest.raises(InfeasibleDesignError):
            pwer.build_test_model(d)
        model = pwer.build_test_model(d, allow_empty_populations=True)
        assert list(model.stratum_ok) == [True, False, False]


    @pytest.mark.parametrize("m, counts", [
        (2, [100, 1, 0]),  # population 2 has an empty control arm
        (2, [1, 1, 0]),  # no population is populated
        (3, [30, 1, 25, 20, 0, 18, 22]),
        (4, M4_COUNTS),
    ])
    def test_stratum_matrices_equal_fresh_validation(self, m, counts):
        d = dz.build_design(m, "pairwise_different", counts, 1.0, "known_homogeneous")
        model = pwer.build_test_model(d, allow_empty_populations=True)
        full = model.full_corr
        assert not full.flags.writeable
        assert np.array_equal(full, full.T, equal_nan=True)
        assert np.array_equal(np.diag(full), np.ones(m))
        populated = ~np.isnan(model.population_variances)
        for stratum, ok in zip(model.strata, model.stratum_ok):
            idx = [i - 1 for i in sorted(stratum)]
            assert ok == populated[idx].all()
            if ok:
                principal = full[np.ix_(idx, idx)]
                assert np.array_equal(principal, mvprob.CorrelationMatrix(principal).values)

    def test_indefinite_populated_block_rejected(self, monkeypatch):
        # every pair is a valid correlation, but the three together are not
        mat = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.9], [0.5, 0.9, 1.0]])
        monkeypatch.setattr(pwer, "_full_correlations", lambda designs: (mat[None], np.ones((1, 3))))
        d = dz.build_design(3, "pairwise_different", [10] * 7, 1.0, "known_homogeneous")
        with pytest.raises(ConfigError, match="positive semidefinite"):
            pwer.build_test_model(d)


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
        fwer = np.array([1.0 - r.value for r in pwer.evaluate_strata(np.full(2, c), model, tol=1e-7)])
        assert fwer.min() - 1e-9 <= value <= fwer.max() + 1e-9


def random_model(rng, m, scheme, kind, df=None, empty=False, zero=False):
    """A model of random counts and cell variances; optionally one population
    with a single patient (an empty arm) and some strata without patients."""
    layout = dz.cell_layout(m, scheme)
    counts = rng.integers(5, 60, size=len(layout.strata))
    if zero:
        counts[rng.choice(len(counts), size=2, replace=False)] = 0
    if empty:
        k = int(rng.integers(1, m + 1))
        counts[[k in s for s in layout.strata]] = 0
        counts[layout.strata.index(frozenset({k}))] = 1
    variances = {(layout.strata[j], arm): float(rng.uniform(0.5, 2.0)) for j, arm in layout.cells}
    d = dz.build_design(m, scheme, counts, variances, "known_heterogeneous")
    model = pwer.build_test_model(d, allow_empty_populations=True)
    if kind == "t":
        model = dataclasses.replace(model, kind="t", df=df)
    return model, counts / counts.sum()


def per_stratum(c, model, tol, which):
    """The reference: each selected stratum's own mvn_cdf/mvt_cdf call."""
    out = []
    for stratum, selected in zip(model.strata, which):
        idx = [i - 1 for i in sorted(stratum)]
        upper = c[idx]
        if not selected:
            out.append(None)
            continue
        corr = mvprob.CorrelationMatrix(model.full_corr[np.ix_(idx, idx)])
        if model.kind == "t":
            out.append(mvprob.mvt_cdf(upper, corr, model.df, tol))
        else:
            out.append(mvprob.mvn_cdf(upper, corr, tol))
    return out


def with_bivariate_rhos(model, rhos):
    # give the 2-dim strata the correlations rhos, in stratum order: for m = 4
    # the six pair strata are the six off-diagonal entries of full_corr
    full = model.full_corr.copy()
    pairs = [sorted(s) for s in model.strata if len(s) == 2]
    assert len(pairs) == len(rhos)
    for (i, j), r in zip(pairs, rhos):
        full[i - 1, j - 1] = full[j - 1, i - 1] = r
    return dataclasses.replace(model, full_corr=full)


class TestEvaluateStrata:
    """The batched evaluation against one mvn_cdf/mvt_cdf call per stratum."""

    CASES = [
        (m, scheme, kind, df, empty, zero)
        for m in (2, 3, 4)
        for scheme in ("pairwise_different", "single")
        for kind, df in (("normal", None), ("t", 3.0), ("t", 17.5), ("t", 480.0))
        for empty, zero in ((False, False), (True, False), (False, True))
        if m < 4 or kind == "normal" or df == 480.0
    ]

    @staticmethod
    def assert_agree(batched, reference):
        assert [r is None for r in batched] == [r is None for r in reference]
        for got, want in zip(batched, reference):
            if want is not None:
                assert abs(got.value - want.value) <= 1e-15
                assert abs(got.error_estimate - want.error_estimate) <= 1e-15
                assert (got.points_used, got.qmc) == (want.points_used, want.qmc)

    @pytest.mark.parametrize("m, scheme, kind, df, empty, zero", CASES)
    def test_matches_per_stratum_calls(self, m, scheme, kind, df, empty, zero):
        rng = np.random.default_rng([m, len(scheme), int(df or 0), empty, zero])
        model, weights = random_model(rng, m, scheme, kind, df, empty, zero)
        for c in (np.full(m, rng.uniform(1.5, 3.0)), rng.uniform(0.5, 3.0, size=m)):
            for which in (None, (weights > 0.0) & model.stratum_ok):
                expected = model.stratum_ok if which is None else which
                batched = pwer.evaluate_strata(c, model, 1e-6, None, which)
                self.assert_agree(batched, per_stratum(c, model, 1e-6, expected))
            evaluated = [r is not None for r in pwer.evaluate_strata(c, model)]
            assert evaluated == model.stratum_ok.tolist()

    @pytest.mark.parametrize("kind, df", [("normal", None), ("t", 3.0), ("t", 46.0)])
    @pytest.mark.parametrize("rhos", [
        # the near-singular branch, two of each sign
        [0.95, 0.999999, -0.93, -0.999999, 0.97, -0.97],
        # within 1e-13 of +-1: the degenerate laws
        [1.0 - 5e-14, 1.0 - 2e-14, -1.0 + 5e-14, -1.0 + 3e-14, 0.5, 0.55],
        # one of every rule: the 6/12/20-node bands, both near-singular signs, an edge
        [0.1, 0.6, 0.8, 0.93, -0.93, -1.0 + 1e-14],
        # two of every node band
        [0.1, -0.2, 0.4, -0.5, 0.8, -0.85],
    ], ids=["near_singular", "edges", "every_rule", "bands"])
    def test_extreme_correlations(self, kind, df, rhos):
        # the 2-dim strata of an m = 4 model, with the correlations set by hand
        rng = np.random.default_rng(len(rhos))
        model, _ = random_model(rng, 4, "pairwise_different", kind, df)
        model = with_bivariate_rhos(model, rhos)
        c = rng.uniform(0.5, 3.0, size=4)
        twos = [j for j, s in enumerate(model.strata) if len(s) == 2]
        which = np.isin(np.arange(len(model.strata)), twos)
        batched = pwer.evaluate_strata(c, model, 1e-6, None, which)
        self.assert_agree(batched, per_stratum(c, model, 1e-6, which))

    @pytest.mark.parametrize("kind, df", [("normal", None), ("t", 9.5), ("t", 160.0)])
    def test_unequal_limits_match_each_stratums_own_call(self, kind, df):
        # every stratum takes its members' own limits, QMC strata (m = 5) included
        rng = np.random.default_rng(31)
        d = dz.build_design(5, "pairwise_different", M5_COUNTS, 1.0, "known_homogeneous")
        model = pwer.build_test_model(d)
        if kind == "t":
            model = dataclasses.replace(model, kind="t", df=df)
        c = rng.uniform(1.0, 3.0, size=5)
        which = np.array([len(s) < 5 for s in model.strata])
        batched = pwer.evaluate_strata(c, model, 1e-5, None, which)
        assert batched == per_stratum(c, model, 1e-5, which)
        assert all(r.qmc is False for r in batched if r is not None)
        # the 5-dim stratum alone goes to QMC, on the given stream
        five = ~which
        [qmc] = [r for r in pwer.evaluate_strata(c, model, 1e-3, np.random.default_rng(3), five) if r]
        corr = mvprob.CorrelationMatrix(model.full_corr)
        assert qmc == mvprob.qmc_cdf(c, corr, df, 1e-3, np.random.default_rng(3)) and qmc.qmc

    def test_rejects_bad_limits_tol_and_undefined_strata(self):
        model = pwer.build_test_model(equal_cells_design())
        with pytest.raises(ConfigError, match="integration limits must be finite"):
            pwer.evaluate_strata([np.inf, 2.0], model)
        with pytest.raises(ConfigError, match="tol must lie"):
            pwer.evaluate_strata(2.0, model, tol=1e-2)
        d = dz.build_design(2, "pairwise_different", [100, 1, 0], 1.0, "known_homogeneous")
        model = pwer.build_test_model(d, allow_empty_populations=True)
        with pytest.raises(InfeasibleDesignError, match=r"stratum \[2\] involves"):
            pwer.evaluate_strata(2.0, model, which=np.ones(3, bool))


class TestSolveCriticalValues:
    def test_disjoint_needs_no_adjustment(self):
        model = pwer.build_test_model(equal_cells_design())
        cv = pwer.solve_critical_values(np.array([0.5, 0.5, 0.0]), model, ALPHA)
        assert cv.value == pytest.approx(1.959964, abs=1e-5)

    def test_independent_full_overlap_closed_form(self):
        # oracle: brentq on 2(1-Phi) - (1-Phi)^2 = alpha gives 2.238964375652972
        model = pwer.build_test_model(equal_cells_design())
        model0 = dataclasses.replace(model, full_corr=np.eye(2))
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
        assert cv.value == 2.249761723205735
        assert cv.achieved == 0.025000001972812623
        assert cv.verified == 0.025000001972812623
        assert cv.evaluations == 4
        assert cv.fwer.tolist() == [
            0.012232037505126692, 0.012232037505126692, 0.012232037505126692,
            0.012232037505126692, 0.02398941847854208, 0.023908996049513687,
            0.0239832770730799, 0.023832879688472475, 0.024025279831316193,
            0.023943318742900233, 0.03508726247122618, 0.03533737208019705,
            0.03518499884248938, 0.035152264399719746, 0.04600067051689516,
        ]
        # the figures pinned before the 3- and 4-dim strata took Plackett's path integral
        assert abs(cv.value - 2.2497617232057587) <= 1e-11
        assert abs(cv.achieved - 0.02500000197281236) <= 1e-11
        # the figures pinned before the quadrature climbed a node ladder
        assert abs(cv.value - 2.249761723205715) <= 1e-12
        assert abs(cv.achieved - 0.0250000019728125) <= 1e-12
        # the value pinned before the solver became a secant on the quantile scale
        assert abs(cv.value - 2.249761755282957) <= 1e-7
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
        assert cv.evaluations == 5
        assert len(built) == 24
        built.clear()
        m4_solve()
        assert built == []

    def test_alpha_domain(self):
        model = pwer.build_test_model(equal_cells_design())
        with pytest.raises(ConfigError):
            pwer.solve_critical_values(np.full(3, 1 / 3), model, 0.6)
        for alpha in (0.0, 1e-12, 1e-16):
            with pytest.raises(ConfigError, match=r"alpha must lie in \[1e-10, 0.5\)"):
                pwer.solve_critical_values(np.full(3, 1 / 3), model, alpha)
        with pytest.raises(ConfigError):
            pwer.solve_critical_values(np.zeros(3), model, ALPHA)


@pytest.mark.parametrize("alpha", [1e-5, 1e-9, 1e-10])
def test_small_alpha_calibrated_to_relative_precision(alpha):
    # an absolute solver_tol alone would stop at the single-test quantile here
    model = pwer.build_test_model(equal_cells_design())
    cv = pwer.solve_critical_values(np.full(3, 1 / 3), model, alpha)
    assert abs(cv.achieved - alpha) <= 1e-3 * alpha
    assert abs(cv.verified - alpha) <= 1e-3 * alpha
    assert cv.value > model.tail_quantile(alpha) + 0.01
    assert cv.evaluations <= 4


class TestSolverEdges:
    """The secant's bracket checks and exits, on objectives set by hand.

    Every stratum's CDF is replaced by one function F of the shared c, so
    PWER(c) = 1 - F(c) whatever the weights.
    """

    LO = mvprob.std_normal_quantile(1 - ALPHA)
    HI = mvprob.std_normal_quantile(1 - ALPHA / 4)

    def solve(self, monkeypatch, pwer_of_c):
        calls = []

        def fake_evaluate(plan, runs, c, select, verify=False):
            calls.extend(c[:, 0].tolist())
            value = np.repeat([[1.0 - pwer_of_c(c0)] for c0 in c[:, 0].tolist()], select.shape[1], axis=1)
            return pwer._Evaluated(value, np.zeros(value.shape), np.ones(value.shape, int), np.zeros(value.shape, bool), {})

        monkeypatch.setattr(pwer, "_evaluate", fake_evaluate)
        model = pwer.build_test_model(equal_cells_design())
        return calls, lambda: pwer.solve_critical_values(np.full(3, 1 / 3), model, ALPHA)

    @staticmethod
    def shifted_tail(shift):
        # the normal tail moved right by `shift`: its root is LO + shift
        return lambda c: 1.0 - mvprob.std_normal_cdf(c - shift)

    def test_bracket_failure_at_lo(self, monkeypatch):
        calls, solve = self.solve(monkeypatch, lambda c: 0.5 * ALPHA)
        with pytest.raises(NumericalError, match="bracket failure: .* already below alpha"):
            solve()
        assert calls == [self.LO]

    def test_bracket_failure_at_lazy_hi(self, monkeypatch):
        # the root lies beyond hi: the first step leaves the bracket, so hi is evaluated
        calls, solve = self.solve(monkeypatch, self.shifted_tail(1.0))
        with pytest.raises(NumericalError, match="bracket failure: .* still above alpha"):
            solve()
        assert calls == [self.LO, self.HI]

    def test_early_return_at_hi(self, monkeypatch):
        # the root lies just beyond hi: PWER(hi) exceeds alpha by less than the
        # bracket's slack, so hi itself is the critical value
        shift = self.HI - self.LO + 5e-8
        calls, solve = self.solve(monkeypatch, self.shifted_tail(shift))
        cv = solve()
        assert 0.0 < cv.achieved - ALPHA <= 10 * pwer.DEFAULT_SOLVER_TOL
        assert (cv.value, cv.evaluations) == (self.HI, 2)
        assert calls[:2] == [self.LO, self.HI]

    def test_hi_never_evaluated_on_smooth_objective(self, monkeypatch):
        calls, solve = self.solve(monkeypatch, self.shifted_tail(0.1))
        cv = solve()
        assert abs(cv.achieved - ALPHA) <= pwer.DEFAULT_SOLVER_TOL
        assert cv.evaluations <= 3 and self.HI not in calls

    @pytest.mark.parametrize("shift", [0.1, HI - LO + 5e-8], ids=["secant", "hi"])
    def test_verify_pass_reads_the_results_at_the_returned_c(self, monkeypatch, shift):
        # the fake's results are deterministic and exact, so the verify pass
        # keeps the solver's own results at c*, and not those of another c
        pwer_of_c = self.shifted_tail(shift)
        calls, solve = self.solve(monkeypatch, pwer_of_c)
        cv = solve()
        assert cv.fwer.tolist() == [1.0 - (1.0 - pwer_of_c(cv.value))] * 3
        assert cv.verified == cv.achieved

    @pytest.mark.parametrize("pwer_of_c", [
        # a staircase: no c meets solver_tol, so the bracket must close to _SOLVER_XTOL
        lambda c: 1.0 - mvprob.std_normal_cdf(1e-3 * math.floor(c / 1e-3) - 0.1),
        # a smooth tail with 1e-6 jumps every 1e-4, as a frozen-seed QMC point count makes
        lambda c: 1.0 - mvprob.std_normal_cdf(c - 0.1) - 1e-6 * math.floor(c / 1e-4) + 0.03,
    ], ids=["staircase", "jumps"])
    def test_terminates_on_step_discontinuous_objective(self, monkeypatch, pwer_of_c):
        calls, solve = self.solve(monkeypatch, pwer_of_c)
        cv = solve()
        assert cv.evaluations < pwer._SOLVER_MAX_ITER
        # either |f| met solver_tol, or c* sits on the sign change within _SOLVER_XTOL
        if abs(cv.achieved - ALPHA) > pwer.DEFAULT_SOLVER_TOL:
            sides = [pwer_of_c(cv.value + d) - ALPHA for d in (-pwer._SOLVER_XTOL, pwer._SOLVER_XTOL)]
            assert sides[0] > 0.0 > sides[1]
        assert self.LO < cv.value < self.HI


M3_COUNTS = [30, 22, 18, 25, 14, 20, 16]


class TestVerifyReuse:
    """The verify pass keeps the solver's deterministic strata at c* and computes the rest."""

    @staticmethod
    def law_calls(monkeypatch, shift=0.0):
        # every evaluated stratum of 3 or more dimensions as (dimension, from
        # the verify pass); shift moves the verify pass's results for them.
        calls = []
        evaluate = pwer._evaluate

        def counting(plan, runs, c, select, verify=False):
            out = evaluate(plan, runs, c, select, verify)
            for pos, r in enumerate(runs.tolist()):
                strata = plan.models[r].strata
                for j in np.flatnonzero(select[pos]).tolist():
                    if len(strata[j]) > 2:
                        calls.append((len(strata[j]), verify))
                        if verify:
                            out.value[pos, j] += shift
            return out

        monkeypatch.setattr(pwer, "_evaluate", counting)
        return calls

    @staticmethod
    def solve(m, counts, kind="normal"):
        d = dz.build_design(m, "pairwise_different", counts, 1.0, "known_homogeneous")
        model = pwer.build_test_model(d)
        if kind == "t":
            model = dataclasses.replace(model, kind="t", df=float(sum(counts)))
        weights = np.asarray(counts, float) / sum(counts)
        return pwer.solve_critical_values(weights, model, ALPHA, rng=np.random.default_rng(2026))

    @pytest.mark.parametrize("m, counts, kind", [
        (3, M3_COUNTS, "normal"), (3, M3_COUNTS, "t"), (4, M4_COUNTS, "normal"),
    ])
    def test_no_verify_call_when_every_stratum_weighs(self, monkeypatch, m, counts, kind):
        calls = self.law_calls(monkeypatch)
        cv = self.solve(m, counts, kind)
        dims = [len(s) for s in dz.enumerate_strata(m) if len(s) > 2]
        assert calls == [(d, False) for _ in range(cv.evaluations) for d in dims]
        assert cv.verified == cv.achieved

    @pytest.mark.parametrize("m, counts, zeroed", [
        (3, M3_COUNTS, [6]),  # the 3-dim stratum
        (3, M3_COUNTS, [3, 6]),  # and a 2-dim one
        (4, M4_COUNTS, [10, 14]),  # a 3-dim stratum and the 4-dim one
    ])
    def test_zero_weight_strata_with_a_law_are_computed(self, monkeypatch, m, counts, zeroed):
        counts = list(counts)
        for j in zeroed:
            counts[j] = 0
        calls = self.law_calls(monkeypatch)
        cv = self.solve(m, counts)
        strata = dz.enumerate_strata(m)
        assert [c for c in calls if c[1]] == [(len(strata[j]), True) for j in zeroed if len(strata[j]) > 2]
        assert np.all(np.isfinite(cv.fwer))

    @staticmethod
    def loosen_solver_error(monkeypatch, j, error=5e-7, qmc=False):
        # the solver's result for stratum j gets an error estimate in
        # (verify_tol, cdf_tol], or is marked as QMC
        evaluate = pwer._evaluate
        verify_selections = []

        def patched(plan, runs, c, select, verify=False):
            out = evaluate(plan, runs, c, select, verify)
            if verify:
                verify_selections.extend(np.flatnonzero(row).tolist() for row in select)
            else:
                out.error[:, j], out.qmc[:, j] = error, qmc
            return out

        monkeypatch.setattr(pwer, "_evaluate", patched)
        return verify_selections

    @pytest.mark.parametrize("j", [0, 3, 6], ids=["dim1", "dim2", "dim3"])
    def test_loose_deterministic_stratum_recomputed(self, monkeypatch, j):
        reference = self.solve(3, M3_COUNTS)
        selections = self.loosen_solver_error(monkeypatch, j)
        cv = self.solve(3, M3_COUNTS)
        assert selections == [[j]]
        # the recomputed quadrature is the same number
        assert cv.fwer.tolist() == reference.fwer.tolist()
        assert (cv.value, cv.verified) == (reference.value, reference.verified)

    def test_qmc_stratum_recomputed_even_within_verify_tol(self, monkeypatch):
        # a QMC estimate depends on its stream, however small its error estimate
        selections = self.loosen_solver_error(monkeypatch, 6, error=1e-9, qmc=True)
        self.solve(3, M3_COUNTS)
        assert selections == [[6]]

    def test_disagreeing_recomputed_stratum_raises(self, monkeypatch):
        self.loosen_solver_error(monkeypatch, 6)
        self.law_calls(monkeypatch, shift=-0.05)
        with pytest.raises(NumericalError, match="verification pass disagrees"):
            self.solve(3, M3_COUNTS)


@pytest.mark.parametrize("kind, df", [("normal", None), ("t", 1.0), ("t", 3.0), ("t", 5.5), ("t", 200.0)])
def test_upper_quantile_finite_and_monotone(kind, df):
    # the secant's z scale must stay finite for every PWER in (0, 1], and for noise beyond it
    model = dataclasses.replace(pwer.build_test_model(equal_cells_design()), kind=kind, df=df)
    ps = [-1e-9, 0.0, 1e-320, 1e-300, 1e-120, 1e-30, 1e-6, ALPHA, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-9]
    qs = [pwer._upper_quantile(model, p) for p in ps]
    assert all(math.isfinite(q) for q in qs)
    assert all(q0 >= q1 for q0, q1 in zip(qs, qs[1:]))
    for p in (1e-6, ALPHA, 0.3):
        # tail_quantile forms 1 - p, which rounds; the two agree to that rounding
        assert pwer._upper_quantile(model, p) == pytest.approx(model.tail_quantile(p), rel=1e-9)


@pytest.mark.parametrize("setting, m", [
    (setting, m) for setting in ("A", "B", "C") for m in (2, 3, 4)
] + [("D_satterthwaite", 2)])
def test_evaluation_budget(setting, m):
    # run 0 of each cell calibrates in at most four PWER evaluations
    scenario = sim.SimScenario(N=250, m=m, setting=setting, runs=1, master_seed=11)
    data_ss, boot_ss, solve_ss = sim.run_streams(scenario.master_seed, 0)
    study = sim._draw(scenario, sim.resolve_true_prevalences(scenario), np.random.default_rng(data_ss))
    assert sim.calibrate(scenario, study, boot_ss, solve_ss).cv.evaluations <= 4


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
        assert len(model.strata) == 31
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
