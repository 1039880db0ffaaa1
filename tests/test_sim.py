import csv
import dataclasses
import hashlib
import warnings
from concurrent.futures import ProcessPoolExecutor

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
        ("A", dict(treatment_scheme="bogus")),
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

    def test_single_run_aggregate_has_zero_sd_and_no_warning(self, tmp_path):
        # like StudyDistribution.summary for one study: the spread of one value is 0
        scenario = sim.SimScenario(N=250, m=2, setting="A", runs=1, master_seed=11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sim.run_scenario(scenario)
            assert result.sd_length == 0.0
            sim.write_aggregate_csv([result], tmp_path / "aggregate.csv")
        row = next(csv.DictReader(open(tmp_path / "aggregate.csv")))
        assert row["sd_length_e3"] == "0.0"


class TestStudyDistribution:
    @pytest.mark.parametrize("studies", [0, -2])
    def test_study_count_checked(self, studies):
        with pytest.raises(ConfigError):
            sim.run_study_distribution(m=2, setting="A", N=250, studies=studies,
                                       runs_per_study=10, master_seed=1)

    def test_treatment_scheme_checked(self):
        with pytest.raises(ConfigError, match="unknown treatment scheme"):
            sim.study_scenarios(m=2, setting="A", N=250, studies=2, runs_per_study=10,
                                master_seed=1, treatment_scheme="bogus")

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

    def test_treatment_scheme_checked(self):
        with pytest.raises(ConfigError, match="unknown treatment scheme"):
            sim.min_prevalence_grid_cells([50], [2], treatment_scheme="bogus")

    def test_every_cell_checked_before_any_runs(self, monkeypatch):
        monkeypatch.setattr(sim, "_run_block", lambda *a, **k: pytest.fail("a cell ran"))
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


GRID = dict(N_list=[250], m_list=[2], pi_min_list=["0", "1/(2^(m+1)-2)"],
            transform_list=["floor", "shift"], runs=10, master_seed=13)
# 4 random-biomarker studies of A at m=3, N=250: 0, 5, 3 and 0 of 10 runs fail
STUDIES = dict(m=3, setting="A", N=250, studies=4, runs_per_study=10, master_seed=2)


def study_rows(dist):
    return [repr(dataclasses.astuple(row)) for row in dist.rows]  # repr: nan == nan


class TestSharedPool:
    """Every public sim call runs all of its scenarios through one pool."""

    def test_studies_identical_at_any_thread_count(self):
        dists = [sim.run_study_distribution(**STUDIES, threads=t) for t in (1, 2, 3)]
        assert study_rows(dists[0]) == study_rows(dists[1]) == study_rows(dists[2])
        assert [row.failures for row in dists[0].rows] == [0, 5, 3, 0]

    def test_grid_identical_at_any_thread_count(self):
        rows = [sim.run_min_prevalence_grid(**GRID, threads=t) for t in (1, 2, 3)]
        assert rows[0] == rows[1] == rows[2]
        assert len(rows[0]) == 4

    def test_one_executor_per_public_call(self, monkeypatch):
        pools = []

        class FakePool:  # runs the chunks in this process
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", FakePool)
        serial_studies = study_rows(sim.run_study_distribution(**STUDIES))
        serial_grid = sim.run_min_prevalence_grid(**GRID)
        assert pools == []
        assert study_rows(sim.run_study_distribution(**STUDIES, threads=2)) == serial_studies
        assert sim.run_min_prevalence_grid(**GRID, threads=3) == serial_grid
        scenario = sim.SimScenario(N=250, m=2, setting="A", runs=12, master_seed=11)
        sim.run_scenario(scenario, threads=2)
        assert pools == [2, 3, 2]

    def test_chunks_cover_the_runs_in_order(self):
        for total in (1, 3, 10, 20, 160, 1001):
            for workers in (1, 2, 3, 8):
                size = sim._chunk_size(total, workers)
                if workers == 1:  # fixed-size blocks
                    assert size == sim._BLOCK_RUNS
                else:  # about 4 chunks per worker over the whole call, unless that exceeds a block
                    assert size == min(sim._BLOCK_RUNS, -(-total // (4 * workers)))
                for runs in {1, 3, 20, total}:  # the scenarios of the call share the size
                    chunks = sim._chunks(runs, size)
                    assert [i for chunk in chunks for i in chunk] == list(range(runs))
                    assert all(len(chunk) <= sim._BLOCK_RUNS for chunk in chunks)
                    assert all(len(chunk) == size for chunk in chunks[:-1])
        # a study of 20 runs among 8 goes in one chunk, not in chunks of 3
        assert sim._chunks(20, sim._chunk_size(8 * 20, 2)) == [range(20)]

    def test_pool_is_shut_down_before_the_call_returns(self, monkeypatch):
        events = []

        class RecordingPool(ProcessPoolExecutor):  # a real pool that logs its lifetime
            def __init__(self, max_workers):
                events.append(("open", max_workers))
                super().__init__(max_workers=max_workers)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                events.append(("shutdown", kwargs.get("cancel_futures", False)))

        monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
        sim.run_study_distribution(**dict(STUDIES, runs_per_study=3), threads=2)
        assert events == [("open", 2), ("shutdown", False)]
        events.clear()
        with pytest.raises(NumericalError):
            sim.run_min_prevalence_grid(
                N_list=[30, 10], m_list=[2], pi_min_list=["0"], transform_list=["floor"],
                runs=20, master_seed=4, threads=2,
            )
        # a failed cell cancels the chunks not yet started, then the pool closes
        assert events[:2] == [("open", 2), ("shutdown", True)]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("N_list, first", [
        # each N is its own cell seed; N=30 never fails, N=9 and N=10 fail one run
        ([30, 10, 9], 13),
        ([30, 9, 10], 12),
    ])
    def test_first_failing_grid_cell_names_the_error(self, threads, N_list, first):
        message = (
            f"1/20 runs failed; first: ({first}, 'InfeasibleDesignError: "
            "true prevalence weights a stratum without a defined joint law')"
        )
        with pytest.raises(NumericalError) as info:
            sim.run_min_prevalence_grid(
                N_list=N_list, m_list=[2], pi_min_list=["0"], transform_list=["floor"],
                runs=20, master_seed=4, threads=threads,
            )
        assert str(info.value) == message

    @pytest.mark.parametrize("threads", [1, 2])
    def test_study_whose_runs_all_fail_still_yields_a_row(self, threads):
        # study 2 of these draws leaves a population without both arms in every run
        dist = sim.run_study_distribution(**dict(STUDIES, master_seed=0), threads=threads)
        row = dist.rows[2]
        assert (row.study, row.coverage, row.failures) == (2, 0.0, 10)
        assert np.isnan(row.mean_length)
        assert [r.failures for r in dist.rows] == [0, 0, 10, 0]


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


# c* of the pinned runs with t strata before a t law of df >= 80 took the Gauss
# rule of the chi measure; the two chi-scale rules agree to about 1e-12 in c*
PRE_GAMMA_C_STAR = {
    "C_m2": (
        2.099094447541013, 2.076213551782791, 2.083264126023873,
        2.092455876875437, 2.080961969483968, 2.0786206369243048,
    ),
    "D_satterthwaite_m2": (
        2.122517185648876, 2.1011755846498787, 2.0953692707877383,
        2.111431462969448, 2.0956752998834918, 2.101972870327368,
    ),
    "C_m3": (
        2.1848550795011854, 2.1830023255176645, 2.1649835532818615,
        2.1829667911275483, 2.1880880122929347, 2.1750016636623757,
    ),
    "C_m4": (2.2608526035068466, 2.268610816599378),
}


# c* of the pinned runs with 3- or 4-dim strata before those strata took
# Plackett's path integral instead of recursive conditioning; the two agree to
# rounding, about 1e-14 in c*
PRE_PLACKETT_C_STAR = {
    "A_m3_floor": (
        2.138869917172661, 2.1383818034684454, 2.1208223609933636,
        2.136507892291559, 2.1384763374800237, 2.1336152297757853,
    ),
    "C_m3": (
        2.1848550795024244, 2.18300232551888, 2.1649835532829758,
        2.182966791128772, 2.1880880122941764, 2.175001663663548,
    ),
    "A_m4": (2.244602318744785, 2.252249725072763),
    "C_m4": (2.2608526035069985, 2.2686108165995287),
}


@pytest.mark.parametrize("fields, digest", [
    pytest.param(dict(m=2, setting="A"),
                 "fc33a10daa2f82425ef1d96aa7ddee656398da423f681825d8fa3ece651ad10b",
                 id="A_m2"),
    pytest.param(dict(m=2, setting="B"),
                 "f630935cab0f79bf0b9753598547a282190336d208903f65aae0173227b733c0",
                 id="B_m2"),
    pytest.param(dict(m=2, setting="C"),
                 "b800b7727d2799185d0b1dd1645b6e96fea2338f6ed1146ea4ae1fa911593856",
                 id="C_m2"),
    pytest.param(dict(m=2, setting="D_satterthwaite"),
                 "8de9e2cd5f05aa58093fad6d1b74e1d9c9f9a10130644ced1b56a704074f87b7",
                 id="D_satterthwaite_m2"),
    pytest.param(dict(m=2, setting="D_bootstrap"),
                 "f46f4fe87209426925cbb4b57de350bbcd8b5c98d40c21b8389808c878e47c55",
                 id="D_bootstrap_m2"),
    pytest.param(dict(m=2, setting="E"),
                 "257f1524fc82b29dcde6ddc60d05042362de6e9bd38989ac6e1d7b87ba4655b3",
                 id="E_m2"),
    # the resampling settings under the benchmark's treatment scheme
    pytest.param(dict(m=2, setting="D_satterthwaite", treatment_scheme="single"),
                 "d455a23d3c03042f85eea02a9e6a81532997f0ab990cee17b420cb500f76aab9",
                 id="D_satterthwaite_m2_single"),
    pytest.param(dict(m=2, setting="D_bootstrap", treatment_scheme="single"),
                 "ebf73bf1040af3ce64c3d1d1fa746514bc9695f34db89d3080ca297aa95abe3f",
                 id="D_bootstrap_m2_single"),
    pytest.param(dict(m=2, setting="E", treatment_scheme="single"),
                 "308dcde6555d08f692945bbd952deb801db8869b668c2585f74e39e670237449",
                 id="E_m2_single"),
    # the empirical solver over seven strata
    pytest.param(dict(m=3, setting="D_bootstrap"),
                 "722b5676b9285c976e0171b50cb970db639327cec1d7fce9df30156419c0e4dc",
                 id="D_bootstrap_m3"),
    pytest.param(dict(m=3, setting="A", prevalence_scheme="one_small", transform="floor",
                      pi_min=1 / 28),
                 "9ab84f7d656020bdaf77ee59dcf0559367a3fa61def96400af5e4483321d1d3b",
                 id="A_m3_floor"),
    pytest.param(dict(m=3, setting="C"),
                 "57768514d28a635842ede3fa023dafb54ec9b88c80727b21e03118b053b7e755",
                 id="C_m3"),
    pytest.param(dict(m=4, setting="A", runs=2),
                 "e6f9d53fb834a822478b89ab66d90f7d104873be2f7b01bc20af3e3a25d4a423",
                 id="A_m4"),
    pytest.param(dict(m=4, setting="C", runs=2),
                 "e276a6a1895130276bce871bb91ecbc64c8f7a29b0ac3dc01f5a75bd1aaf75ae",
                 id="C_m4"),
    # the only records path that reaches QMC: its 5-dim stratum reads the solve stream
    pytest.param(dict(m=5, setting="A", runs=2),
                 "4fb1e3013603890e96f977e61ffceda8c8a8c6b80c5f282d03f9c9a8fc9d73c6",
                 id="A_m5"),
])
def test_records_pinned(request, tmp_path, fields, digest):
    # records.csv, byte for byte, of N=250, 6 runs (unless set), master seed 11
    scenario = sim.SimScenario(**{"N": 250, "runs": 6, "master_seed": 11, **fields})
    result = sim.run_scenario(scenario)
    sim.write_records_csv(result, tmp_path / "records.csv")
    assert hashlib.sha256((tmp_path / "records.csv").read_bytes()).hexdigest() == digest
    # builtin fields only: the CSV writes floats by repr, and a numpy scalar's repr names its type
    field_types = [float] * 3 + [bool] + [float] * 5 + [int]
    assert all([type(v) for v in record] == field_types for record in result.records)
    c_star = np.array([r.c_star for r in result.records])
    parent = PARENT_C_STAR.get(request.node.callspec.id)
    if parent is not None:
        bound = 2e-7 if scenario.m == 2 else 1e-8
        assert np.abs(c_star - parent).max() <= bound
    parent = PRE_LADDER_C_STAR.get(request.node.callspec.id)
    if parent is not None:
        assert np.abs(c_star - parent).max() <= 1e-12
    parent = PRE_GAMMA_C_STAR.get(request.node.callspec.id)
    if parent is not None:
        assert np.abs(c_star - parent).max() <= 1e-11
    parent = PRE_PLACKETT_C_STAR.get(request.node.callspec.id)
    if parent is not None:
        assert np.abs(c_star - parent).max() <= 1e-11
