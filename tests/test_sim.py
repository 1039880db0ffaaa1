import csv
import dataclasses
import hashlib
import json
import re
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from pwerpi import pwer, sim
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
        pytest.param(["x", 0.5, 0.5], id="string"),
        pytest.param([True, False, False], id="bool"),
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
        ("A", dict(master_seed=-1)),  # numpy's SeedSequence takes no negative entropy
        ("A", dict(N="250")),
        ("A", dict(N=250.0)),
        ("A", dict(runs=True)),
        ("A", dict(B=0)),  # unread by the exact engine, and still no number of resamples
        ("A", dict(B=2000.5)),
        ("A", dict(master_seed=1.5)),
        # fields the others leave unread: the run would simulate equal prevalences, or drop pi_min
        ("A", dict(explicit_prevalences=(0.9, 0.05, 0.05))),
        ("A", dict(pi_min=0.05)),
    ])
    def test_levels_and_resamples_checked_at_construction(self, setting, fields):
        with pytest.raises(ConfigError):
            sim.SimScenario(**{"N": 250, "m": 2, "setting": setting, "runs": 5, **fields})

    def test_a_scenario_without_a_successful_run_counts_its_failures(self):
        # at m = 3 one_small's full stratum gets about two patients: a cell of one in every run;
        # the message is the one the 1% limit raises
        scenario = sim.SimScenario(N=250, m=3, setting="D_satterthwaite", prevalence_scheme="one_small",
                                   B=1000, runs=6, master_seed=5)
        message = "6/6 runs failed; first: (0, 'InfeasibleDesignError: a populated cell has a single patient')"
        with pytest.raises(NumericalError, match=re.escape(message)):
            sim.run_scenario(scenario, max_failure_fraction=1.0)

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

    def test_negative_master_seed_checked(self):
        with pytest.raises(ConfigError, match="master_seed must be nonnegative, got -1"):
            sim.study_scenarios(m=2, setting="A", N=250, studies=2, runs_per_study=10, master_seed=-1)

    @pytest.mark.parametrize("m", [-1, 0, 2.0])
    def test_m_checked_before_the_first_draw(self, monkeypatch, m):
        monkeypatch.setattr(sim, "generate_random_study", lambda *a: pytest.fail("a study was drawn"))
        with pytest.raises(ConfigError, match="population count m must be an integer in"):
            sim.study_scenarios(m=m, setting="A", N=250, studies=2, runs_per_study=10, master_seed=1)

    def test_every_field_reaches_every_study(self):
        fields = dict(N=250, setting="D_bootstrap", treatment_scheme="single", alpha=0.01, alpha_prime=0.1,
                      B=5000, pi_min=0.05, transform="shift")
        scenarios = sim.study_scenarios(m=2, studies=3, runs_per_study=7, master_seed=1, **fields)
        assert len(scenarios) == 3
        for scenario in scenarios:
            assert {key: getattr(scenario, key) for key in fields} == fields
            assert (scenario.m, scenario.runs, scenario.prevalence_scheme) == (2, 7, "explicit")

    def test_no_keyword_but_a_scenario_field(self):
        with pytest.raises(TypeError, match="bogus"):
            sim.study_scenarios(m=2, setting="A", N=250, studies=2, runs_per_study=10, master_seed=1, bogus=1)

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

    def test_failures_are_counted_by_cause(self, monkeypatch):
        # N=30 with 2% on population 2: most runs leave it without both arms; and the
        # lockstep's first evaluation of one of the others fails
        scenario = sim.SimScenario(N=30, m=2, setting="A", prevalence_scheme="explicit",
                                   explicit_prevalences=(0.98, 0.02, 0.0), runs=50, master_seed=3)
        evaluate = pwer._evaluate

        def failing_first_run(plan, runs, c, select, verify=False):
            out = evaluate(plan, runs, c, select, verify)
            if not verify and len(runs) == len(plan.models):
                out.failed[0] = NumericalError("QMC budget exhausted")
            return out

        monkeypatch.setattr(pwer, "_evaluate", failing_first_run)
        result = sim.run_scenario(scenario, max_failure_fraction=1.0)
        assert result.failures == 45 and len(result.records) == 5
        assert result.failure_causes == {
            "InfeasibleDesignError": {
                "count": 44,
                "example": "InfeasibleDesignError: true prevalence weights a stratum without a defined joint law",
            },
            "NumericalError": {"count": 1, "example": "NumericalError: QMC budget exhausted"},
        }


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

    def test_negative_master_seed_checked(self):
        with pytest.raises(ConfigError, match="master_seed must be nonnegative, got -1"):
            sim.min_prevalence_grid_cells([250], [2], master_seed=-1)

    @pytest.mark.parametrize("N_list, m_list, message", [
        ([-5], [2], "runs, N and B must be positive"),
        (["a"], [2], "N must be an integer, got 'a'"),
        ([250], [-2], "population count m must be an integer in"),
        ([250], ["a"], "population count m must be an integer in"),
    ])
    def test_N_and_m_checked_before_the_cell_seed(self, monkeypatch, N_list, m_list, message):
        monkeypatch.setattr(sim, "_derived_seed", lambda *a: pytest.fail("a cell was seeded"))
        with pytest.raises(ConfigError, match=re.escape(message)):
            sim.min_prevalence_grid_cells(N_list, m_list)

    @pytest.mark.parametrize("m", [0, 10**6])
    def test_label_checks_m(self, m):
        # 1/(2^(m+2)-4) divides by zero at m = 0 and overflows a float at large m
        with pytest.raises(ConfigError, match="population count m must be an integer in"):
            sim.resolve_pi_min("1/(2^(m+2)-4)", m)

    @pytest.mark.parametrize("label", [None, True, [0.1]])
    def test_pi_min_label_is_a_number_or_a_label(self, label):
        with pytest.raises(ConfigError, match="pi_min must be a number or a grid label"):
            sim.resolve_pi_min(label, 2)

    def test_every_field_reaches_every_cell(self):
        fields = dict(runs=7, B=5000, treatment_scheme="single", alpha=0.01, alpha_prime=0.1)
        cells = sim.min_prevalence_grid_cells([250, 500], [2, 3], setting="D_bootstrap", **fields)
        assert len(cells) == 2 * 2 * len(sim.GRID_TRANSFORMS) * len(sim.PI_MIN_LABELS)
        for *_, scenario in cells:
            assert {key: getattr(scenario, key) for key in fields} == fields
            assert (scenario.setting, scenario.prevalence_scheme) == ("D_bootstrap", "one_small")

    def test_no_keyword_but_a_scenario_field(self):
        with pytest.raises(TypeError, match="bogus"):
            sim.min_prevalence_grid_cells([250], [2], bogus=1)

    def test_transform_names_checked_at_zero_pi_min(self):
        # the cells of a zero pi_min run untransformed, but the grid's columns carry the name
        with pytest.raises(ConfigError, match="unknown transform 'bogus'"):
            sim.min_prevalence_grid_cells([250], [2], ["0"], ["bogus"])

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
        assert [sum(c["count"] for c in r.failure_causes.values()) for r in dist.rows] == [0, 0, 10, 0]
        assert dist.failure_causes == {kind: {**cause, "count": 10} for kind, cause in row.failure_causes.items()}


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


# records.csv digest of each pinned case, N=250, 6 runs (unless set), master seed 11
PINNED_RECORDS = {
    "A_m2": (dict(m=2, setting="A"),
             "4045ce80b227575c0576233acfffcd5c62b5f755ba207388cabc436f3d94331a"),
    "B_m2": (dict(m=2, setting="B"),
             "448ecf14de4e5871215ead7e70fbdff1cd024cadc75191a1f60376e72a93e2ed"),
    "C_m2": (dict(m=2, setting="C"),
             "2676ca1901410e4f2fff43e5d9d6c19dfda4832e049c76b94d511a9077236c47"),
    "D_satterthwaite_m2": (dict(m=2, setting="D_satterthwaite"),
                           "6d15c1634d1b45901c85cdb1534176d5cf8e3815a97e27ec25ad2f21ab508a06"),
    "D_bootstrap_m2": (dict(m=2, setting="D_bootstrap"),
                       "f46f4fe87209426925cbb4b57de350bbcd8b5c98d40c21b8389808c878e47c55"),
    "E_m2": (dict(m=2, setting="E"),
             "257f1524fc82b29dcde6ddc60d05042362de6e9bd38989ac6e1d7b87ba4655b3"),
    # the resampling settings under the benchmark's treatment scheme
    "D_satterthwaite_m2_single": (dict(m=2, setting="D_satterthwaite", treatment_scheme="single"),
                                  "ad3a8b118fee3c97d797aefd2a0977b089d3067996703cee4710b51358a52f40"),
    "D_bootstrap_m2_single": (dict(m=2, setting="D_bootstrap", treatment_scheme="single"),
                              "ebf73bf1040af3ce64c3d1d1fa746514bc9695f34db89d3080ca297aa95abe3f"),
    "E_m2_single": (dict(m=2, setting="E", treatment_scheme="single"),
                    "308dcde6555d08f692945bbd952deb801db8869b668c2585f74e39e670237449"),
    # the empirical solver over seven strata
    "D_bootstrap_m3": (dict(m=3, setting="D_bootstrap"),
                       "722b5676b9285c976e0171b50cb970db639327cec1d7fce9df30156419c0e4dc"),
    "A_m3_floor": (dict(m=3, setting="A", prevalence_scheme="one_small", transform="floor", pi_min=1 / 28),
                   "2ffcef178a847cebce0ecfe15f9d2e3d66d449d3b6383de36aa6c2f48d64dd29"),
    "C_m3": (dict(m=3, setting="C"),
             "e2bb1c781dafcf324db81dc35c20c6c4043d519f8aee0997d538a2377b9962b2"),
    "A_m4": (dict(m=4, setting="A", runs=2),
             "275e48bbed52757ecafb8bd77b94b029a4511f5e5591a5e8f44d6c046e4534f2"),
    "C_m4": (dict(m=4, setting="C", runs=2),
             "25be25e9c23ba8c8df4ae340d0b1fdaeb4f1cc420d86fb0099a2dd5e5f6752af"),
    # the only records path that reaches QMC: its 5-dim stratum reads the solve stream
    "A_m5": (dict(m=5, setting="A", runs=2),
             "c06ec9e9fe41c4f9bd39f207de93262bd28d22e8ed5f4b7a2cf9925136a04049"),
}


def pinned_scenario(fields):
    return sim.SimScenario(**{"N": 250, "runs": 6, "master_seed": 11, **fields})


def pinned_run(fields):
    return sim.run_scenario(pinned_scenario(fields))


def records_digest(result, tmp_path):
    sim.write_records_csv(result, tmp_path / "records.csv")
    return hashlib.sha256((tmp_path / "records.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("fields, digest", [
    pytest.param(fields, digest, id=case) for case, (fields, digest) in PINNED_RECORDS.items()
])
def test_records_pinned(tmp_path, fields, digest):
    result = pinned_run(fields)
    assert records_digest(result, tmp_path) == digest
    # builtin fields only: the CSV writes floats by repr, and a numpy scalar's repr names its type
    field_types = [float] * 3 + [bool] + [float] * 5 + [int]
    assert all([type(v) for v in record] == field_types for record in result.records)


# the pinned cases that calibrate with the exact engine (D_satterthwaite's is the exact
# engine on a t law), each pinned against the root of its PWER below
ROOT_CASES = tuple(case for case, (fields, _) in PINNED_RECORDS.items()
                   if sim.SETTINGS_TABLE[fields["setting"]].engine in ("exact", "satterthwaite"))


# each pinned run's root c*_ref, solved to |PWER - alpha| <= 1e-13 on the finest rungs, and
# |PWER'(c*_ref)|, written by tests/solve_c_star_roots.py
C_STAR_ROOTS = Path(__file__).resolve().parent / "c_star_roots.json"


def test_every_root_pinned_run_has_a_root():
    # the cases above, the shipped analyze config (test_cli) and test_pwer's m4_solve,
    # one root per calibrated run
    roots = json.loads(C_STAR_ROOTS.read_text())
    runs = {case: pinned_scenario(PINNED_RECORDS[case][0]).runs for case in ROOT_CASES}
    assert {case: len(entries) for case, entries in roots.items()} == {**runs, "analyze.json": 1, "m4_solve": 1}


@pytest.mark.parametrize("case", ROOT_CASES)
def test_pinned_c_star_lies_within_its_solve_tolerance_of_the_root(case):
    # |PWER - alpha| <= solver_tol is |c* - c*_ref| <= solver_tol / |PWER'|, plus the
    # reference's own error: its 1e-13 stop and its finest rungs, ~1e-13 for the normal law
    # and ~1e-11 for t. A_m5's 5-dim stratum is QMC: its solve holds cdf_tol (1e-6), its
    # reference the 1e-7 it was integrated at.
    fields = PINNED_RECORDS[case][0]
    law = "t" if fields["setting"] in ("C", "D_satterthwaite") else "normal"
    tol, ref_error = (1e-6, 1e-7) if fields["m"] >= 5 else (1e-8, 1e-13 + (1e-11 if law == "t" else 1e-13))
    records = pinned_run(fields).records
    # every solve stops within solver_tol (1e-8) of alpha
    assert all(abs(record.achieved - 0.025) <= 1e-8 for record in records)
    roots = json.loads(C_STAR_ROOTS.read_text())[case]
    assert len(roots) == len(records)
    for record, ref in zip(records, roots):
        assert abs(record.c_star - ref["c_ref"]) <= (tol + ref_error) / ref["slope"]
