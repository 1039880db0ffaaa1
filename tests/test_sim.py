import hashlib

import numpy as np
import pytest

from pwerpi import sim
from pwerpi.errors import ConfigError, NumericalError


class TestSchemePrevalences:
    def test_equal(self):
        assert sim.scheme_prevalences(2, "equal") == pytest.approx(np.full(3, 1 / 3))

    def test_one_large(self):
        values = sim.scheme_prevalences(3, "one_large")
        assert values[-1] == 0.5
        assert values[:-1] == pytest.approx(np.full(6, 0.5 / 6))

    def test_one_small(self):
        values = sim.scheme_prevalences(2, "one_small")
        assert values[-1] == pytest.approx(1 / 48)  # 0.0208
        assert values.sum() == pytest.approx(1.0)
        values3 = sim.scheme_prevalences(3, "one_small")
        assert values3[-1] == pytest.approx(1 / (2**7 - 16))

    @pytest.mark.parametrize("explicit", [
        pytest.param([0.5, 0.5], id="wrong_length"),
        pytest.param([0.2, 0.2, 0.2], id="sums_below_one"),
        pytest.param([0.5, 0.5, 0.5], id="sums_above_one"),
        pytest.param([1.2, -0.1, -0.1], id="negative"),
        pytest.param([float("nan"), 0.5, 0.5], id="nan"),
    ])
    def test_explicit_checked(self, explicit):
        with pytest.raises(ConfigError):
            sim.scheme_prevalences(2, "explicit", explicit)

    def test_explicit_not_renormalized(self):
        values = (0.1, 0.2, 0.7)
        assert sim.scheme_prevalences(2, "explicit", values).tolist() == list(values)


class TestRandomStudies:
    def test_symmetric_probabilities_give_equal_prevalences(self):
        values = sim.prevalences_from_biomarkers([0.5, 0.5, 0.5])
        assert values == pytest.approx(np.full(7, 1 / 7))

    def test_certain_expression_concentrates_on_overlap(self):
        values = sim.prevalences_from_biomarkers([1.0, 1.0])
        assert values == pytest.approx([0.0, 0.0, 1.0])

    def test_normalization(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            values = sim.generate_random_study(3, rng)
            assert abs(values.sum() - 1.0) <= 1e-12


class TestRunScenario:
    def test_degenerate_truth_chain(self):
        scenario = sim.SimScenario(
            N=250, m=2, setting="A", prevalence_scheme="explicit",
            explicit_prevalences=(1.0, 0.0, 0.0), runs=20, master_seed=1,
        )
        result = sim.run_scenario(scenario)
        assert result.coverage == 1.0
        assert result.mean_length == 0.0
        for rec in result.records:
            assert rec.gamma == 0.0
            assert rec.true_pwer == pytest.approx(0.025, abs=1e-12)
            assert rec.lower == rec.upper == pytest.approx(0.025)

    def test_thread_count_does_not_change_results(self):
        scenario = sim.SimScenario(N=250, m=2, setting="A", runs=40, master_seed=11)
        assert sim.run_scenario(scenario, threads=1).records == \
            sim.run_scenario(scenario, threads=3).records

    def test_pool_has_at_most_one_worker_per_run(self, monkeypatch):
        pools = []

        class FakePool:  # runs the blocks in this process
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", FakePool)
        scenario = sim.SimScenario(N=250, m=2, setting="A", runs=3, master_seed=11)
        serial = sim.run_scenario(scenario).records
        assert sim.run_scenario(scenario, threads=8).records == serial
        assert sim.run_scenario(scenario, threads=2).records == serial
        single = sim.SimScenario(N=250, m=2, setting="A", runs=1, master_seed=11)
        assert sim.run_scenario(single, threads=4).records == serial[:1]
        assert pools == [3, 2]

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        scenario = sim.SimScenario(N=250, m=2, setting="A", runs=3, master_seed=11)
        with pytest.raises(ConfigError):
            sim.run_scenario(scenario, threads=threads)

    def test_transforms_with_zero_pi_min_are_identity(self):
        base = sim.SimScenario(N=250, m=2, setting="A", prevalence_scheme="one_small",
                               runs=40, master_seed=5)
        import dataclasses
        floor = dataclasses.replace(base, transform="floor", pi_min=0.0)
        shift = dataclasses.replace(base, transform="shift", pi_min=0.0)
        r0, rf, rs = (sim.run_scenario(s) for s in (base, floor, shift))
        assert r0.records == rf.records == rs.records

    def test_failure_policy(self):
        # population 2 is empty in most runs but keeps positive true weight
        scenario = sim.SimScenario(
            N=30, m=2, setting="A", prevalence_scheme="explicit",
            explicit_prevalences=(0.98, 0.02, 0.0), runs=50, master_seed=3,
        )
        with pytest.raises(NumericalError):
            sim.run_scenario(scenario)

    def test_setting_e_requires_two_populations(self):
        with pytest.raises(ConfigError):
            sim.SimScenario(N=250, m=3, setting="E", runs=10, master_seed=0)

    @pytest.mark.parametrize("setting,fields", [
        ("A", dict(alpha=0.7)),
        ("A", dict(alpha=0.0)),
        ("A", dict(alpha_prime=1.0)),
        ("D_bootstrap", dict(B=500)),
        ("D_satterthwaite", dict(B=999)),
        ("E", dict(B=1000, alpha=0.01)),  # B*alpha = 10 resamples in the tail
        ("A", dict(transform="floor", pi_min=0.5)),  # floor needs pi_min < 1/3 at m=2
        ("A", dict(transform="shift", pi_min=-0.1)),
        ("A", dict(m=13)),
        ("A", dict(m=1)),
        ("A", dict(alpha=1e-12)),  # below the smallest alpha the calibration resolves
    ])
    def test_levels_and_resamples_checked_at_construction(self, setting, fields):
        with pytest.raises(ConfigError):
            sim.SimScenario(**{"N": 250, "m": 2, "setting": setting, "runs": 5, **fields})

    def test_true_pwer_centers_on_alpha(self):
        # N=500, m=2: the realized true PWER averages to alpha
        scenario = sim.SimScenario(N=500, m=2, setting="A", runs=10_000, master_seed=2024)
        result = sim.run_scenario(scenario)
        assert result.mean_true_pwer == pytest.approx(0.025, abs=2e-4)

    def test_interval_always_centered_at_alpha(self):
        scenario = sim.SimScenario(N=250, m=2, setting="B", runs=30, master_seed=9)
        for rec in sim.run_scenario(scenario).records:
            assert (rec.lower + rec.upper) / 2 == pytest.approx(0.025, abs=1e-15)


class TestStudyDistribution:
    @pytest.mark.parametrize("studies", [0, -2])
    def test_study_count_checked(self, studies):
        with pytest.raises(ConfigError):
            sim.run_study_distribution(m=2, setting="A", N=250, studies=studies,
                                       runs_per_study=10, master_seed=1)

    def test_single_study_is_identity(self):
        dist = sim.run_study_distribution(
            m=2, setting="A", N=250, studies=1, runs_per_study=50, master_seed=77
        )
        summary = dist.summary()
        row = dist.rows[0]
        assert summary["mean"] == summary["min"] == summary["max"] == row.coverage
        assert summary["sd"] == 0.0
        assert summary["mean_length_e3"] == pytest.approx(row.mean_length * 1e3)

    def test_settings_share_study_draws(self):
        a = sim.run_study_distribution(m=2, setting="A", N=250, studies=2,
                                       runs_per_study=30, master_seed=5)
        c = sim.run_study_distribution(m=2, setting="C", N=250, studies=2,
                                       runs_per_study=30, master_seed=5)
        # same prevalence draws and count streams; no value equality asserted
        assert [r.study for r in a.rows] == [r.study for r in c.rows]
        assert len(a.rows) == 2

    def test_failed_runs_tolerated_when_requested(self):
        # a population with prevalence ~1/N cannot form both arms most runs
        scenario = sim.SimScenario(
            N=500, m=2, setting="A", prevalence_scheme="explicit",
            explicit_prevalences=(0.996, 0.002, 0.002), runs=40, master_seed=8,
        )
        with pytest.raises(NumericalError):
            sim.run_scenario(scenario)  # strict 1% policy
        result = sim.run_scenario(scenario, max_failure_fraction=1.0)
        assert result.failures > 0
        assert len(result.records) + result.failures == 40


class TestMinPrevalenceGrid:
    def test_pi_min_resolution(self):
        assert sim.resolve_pi_min("0", 3) == 0.0
        assert sim.resolve_pi_min("1/(2^(m+1)-2)", 2) == pytest.approx(1 / 6)
        assert sim.resolve_pi_min("1/(2^(m+2)-4)", 2) == pytest.approx(1 / 12)
        assert sim.resolve_pi_min(0.05, 4) == 0.05
        with pytest.raises(ConfigError):
            sim.resolve_pi_min("bogus", 2)

    def test_zero_row_matches_plain_scenario_bitwise(self):
        rows = sim.run_min_prevalence_grid(
            N_list=[250], m_list=[2], pi_min_list=["0", "1/(2^(m+2)-4)"],
            transform_list=["floor", "shift"], runs=30, master_seed=13,
        )
        zero = {r["transform"]: r for r in rows if r["pi_min_label"] == "0"}
        assert zero["floor"]["coverage"] == zero["shift"]["coverage"]
        assert zero["floor"]["mean_length_e3"] == zero["shift"]["mean_length_e3"]

    def test_every_cell_checked_before_any_runs(self, monkeypatch):
        monkeypatch.setattr(sim, "run_scenario", lambda *a, **k: pytest.fail("a cell ran"))
        with pytest.raises(ConfigError):
            sim.run_min_prevalence_grid(N_list=[250], m_list=[2], pi_min_list=["0", 0.5],
                                        transform_list=["floor"], runs=5)

    def test_grid_shape(self):
        rows = sim.run_min_prevalence_grid(
            N_list=[250], m_list=[2], pi_min_list=["0"], transform_list=["shift"],
            runs=20, master_seed=1,
        )
        assert len(rows) == 1
        assert set(rows[0]) >= {"N", "m", "transform", "pi_min", "coverage", "mean_length_e3"}


class TestOtherExactSettings:
    # the acceptance module pins the known-homogeneous rows; these guard the
    # heterogeneous-variance and t-reference counterparts at m=2
    @pytest.mark.parametrize("setting,cov_ref,len_ref", [
        ("B", 0.9474, 2.09),
        ("C", 0.9483, 2.10),
    ])
    def test_m2_rows(self, setting, cov_ref, len_ref):
        scenario = sim.SimScenario(N=250, m=2, setting=setting, runs=2000, master_seed=555)
        result = sim.run_scenario(scenario)
        assert result.coverage == pytest.approx(cov_ref, abs=0.02)
        assert result.mean_length * 1e3 == pytest.approx(len_ref, rel=0.05)


class TestFourPopulations:
    def test_m4_mean_length(self):
        # the four-population equal-prevalence mean interval length
        scenario = sim.SimScenario(N=250, m=4, setting="A", runs=60, master_seed=404)
        result = sim.run_scenario(scenario)
        assert result.mean_length * 1e3 == pytest.approx(2.46, rel=0.05)


# c* of each pinned run before the calibration became a secant on the quantile
# scale, and how far the secant may move it: it stops closer to the root
PARENT_C_STAR = {
    "A_m2": (
        2.0877298268183893, 2.06512888177679, 2.072093704015061,
        2.0811723932927486, 2.069819110796716, 2.067506107102698,
    ),
    "B_m2": (
        2.0916973252412805, 2.0655504692407956, 2.0722273776584124,
        2.0781156059312953, 2.0709264366839575, 2.070102085072214,
    ),
    "C_m2": (
        2.0990944476119133, 2.0762136455064, 2.083264249969084,
        2.0924558769263975, 2.0809620829793527, 2.0786207403827333,
    ),
    "D_satterthwaite_m2": (
        2.1225171858761773, 2.101175701874424, 2.0953693796564714,
        2.111431463093042, 2.0956754239443165, 2.101972986034511,
    ),
    "A_m3_floor": (
        2.1388699189856344, 2.138381805253658, 2.1208223617768085,
        2.136507893952463, 2.138476339306703, 2.13361523124134,
    ),
    "C_m3": (
        2.1848550831527107, 2.1830023288516798, 2.164983555201313,
        2.1829667944648983, 2.188088016070128, 2.1750016662765272,
    ),
}


# c* of the pinned runs whose 3- or 4-dim normal strata moved when the
# quadrature began to stop at the first rung of its node ladder that settles;
# the ladder may move them by rounding only
PRE_LADDER_C_STAR = {
    "A_m3_floor": (
        2.1388699171726557, 2.138381803468443, 2.1208223609933627,
        2.1365078922915552, 2.1384763374800215, 2.1336152297757818,
    ),
    "A_m4": (2.2446023187447506, 2.252249725072721),
}


@pytest.mark.parametrize("fields, digest", [
    pytest.param(dict(m=2, setting="A"),
                 "fc33a10daa2f82425ef1d96aa7ddee656398da423f681825d8fa3ece651ad10b",
                 id="A_m2"),
    pytest.param(dict(m=2, setting="B"),
                 "f630935cab0f79bf0b9753598547a282190336d208903f65aae0173227b733c0",
                 id="B_m2"),
    pytest.param(dict(m=2, setting="C"),
                 "7b41e652062bdced2aeda6e338ad44f484f2ee72ecf985948ab105dfa490eaa6",
                 id="C_m2"),
    pytest.param(dict(m=2, setting="D_satterthwaite"),
                 "9cc0b347adf7bb20d2e4ebfa5919b58e4e0efc51df06365f202b8ed7f4ce704a",
                 id="D_satterthwaite_m2"),
    pytest.param(dict(m=2, setting="D_bootstrap"),
                 "f46f4fe87209426925cbb4b57de350bbcd8b5c98d40c21b8389808c878e47c55",
                 id="D_bootstrap_m2"),
    pytest.param(dict(m=2, setting="E"),
                 "257f1524fc82b29dcde6ddc60d05042362de6e9bd38989ac6e1d7b87ba4655b3",
                 id="E_m2"),
    pytest.param(dict(m=3, setting="A", prevalence_scheme="one_small", transform="floor",
                      pi_min=1 / 28),
                 "0ba981acbcbf7ba291e557113b84a933ebf8fac7f94c8d966a2c215ecc8b68ca",
                 id="A_m3_floor"),
    pytest.param(dict(m=3, setting="C"),
                 "2921fe1642f1b0a8b5c8edf8372dcf1e15ce40f06141747f62761dccb54ed4ef",
                 id="C_m3"),
    pytest.param(dict(m=4, setting="A", runs=2),
                 "c9bbc06594032d8d03671e4a1ce642f1e410f6533ac035daacf6c2e67b2308d7",
                 id="A_m4"),
])
def test_records_pinned(request, tmp_path, fields, digest):
    # records.csv, byte for byte, of N=250, 6 runs (unless set), master seed 11
    scenario = sim.SimScenario(**{"N": 250, "runs": 6, "master_seed": 11, **fields})
    result = sim.run_scenario(scenario)
    sim.write_records_csv(result, tmp_path / "records.csv")
    assert hashlib.sha256((tmp_path / "records.csv").read_bytes()).hexdigest() == digest
    c_star = np.array([r.c_star for r in result.records])
    parent = PARENT_C_STAR.get(request.node.callspec.id)
    if parent is not None:
        bound = 2e-7 if scenario.m == 2 else 1e-8
        assert np.abs(c_star - parent).max() <= bound
    parent = PRE_LADDER_C_STAR.get(request.node.callspec.id)
    if parent is not None:
        assert np.abs(c_star - parent).max() <= 1e-12
