import json
from pathlib import Path

import numpy as np
import pytest

from pwerpi import cli, sim
from pwerpi.design import enumerate_strata, stratum_label

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# report.json of configs/analyze.json
SHIPPED_REPORT = {
    "engine": "exact", "N": 250, "m": 2,
    "prevalence_estimate": {"1": 0.332, "2": 0.332, "1,2": 0.336},
    "prevalence_used": {"1": 0.332, "2": 0.332, "1,2": 0.336},
    "transform": "none", "pi_min": 0.0,
    "critical_value": 2.075493213039483, "achieved_pwer": 0.02499999195762618,
    "gradient": {"1": -0.018970423614861676, "2": -0.018970423614861676, "1,2": -0.03691556749213698},
    "gamma": 0.008476188826867034, "alpha": 0.025, "alpha_prime": 0.05,
    "interval_lower": 0.02394930005444648, "interval_upper": 0.026050699945553524,
    "interval_length": 0.002101399891107047,
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def analyze_config(tmp_path, out="out", counts=None, design=None, engine=None, **interval):
    payload = {
        "mode": "analyze",
        "design": {
            "m": 2,
            "strata_counts": counts or {"1": 83, "2": 83, "1,2": 84},
            "treatment_scheme": "pairwise_different",
            "variances": 1.0,
            "variance_mode": "known_homogeneous",
            **(design or {}),
        },
        "interval": {"alpha": 0.025, "alpha_prime": 0.05, **interval},
        "engine": engine or {},
        "output": {"directory": str(tmp_path / out)},
    }
    return write_config(tmp_path, f"analyze_{out}.json", payload)


class TestAnalyze:
    def test_equalish_counts_interval(self, tmp_path, capsys):
        code = cli.main(["--config", analyze_config(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["interval_lower"] + report["interval_upper"] == pytest.approx(0.05)
        # length in the ballpark of the equal-prevalence mean length 2.10e-3
        assert report["interval_length"] == pytest.approx(2.10e-3, rel=0.20)
        assert (tmp_path / "out" / "report.txt").exists()
        assert "prediction interval" in capsys.readouterr().out

    def test_shipped_config_report_pinned(self, tmp_path):
        cfg = str(CONFIGS / "analyze.json")
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "shipped")]) == 0
        assert json.loads((tmp_path / "shipped" / "report.json").read_text()) == SHIPPED_REPORT

    @pytest.mark.parametrize("m, scheme", [(2, "equal"), (3, "equal"), (2, "one_small"), (3, "one_small")])
    def test_matches_simulate_records(self, tmp_path, m, scheme):
        # analyze on the counts a simulation run drew reports that run's numbers
        scenario = sim.SimScenario(N=250, m=m, setting="A", prevalence_scheme=scheme,
                                   runs=6, master_seed=11)
        pi_true = sim.resolve_true_prevalences(scenario)
        records = sim.run_scenario(scenario).records
        labels = [stratum_label(s) for s in enumerate_strata(m)]
        for k, rec in enumerate(records):
            # run k's counts come first from its data stream
            data_ss = np.random.SeedSequence((11, k)).spawn(3)[0]
            counts = np.random.default_rng(data_ss).multinomial(250, pi_true)
            payload = json.loads(open(analyze_config(tmp_path, out=f"run{k}")).read())
            payload["design"].update(m=m, strata_counts=dict(zip(labels, counts.tolist())))
            assert cli.main(["--config", write_config(tmp_path, f"run{k}.json", payload)]) == 0
            report = json.loads((tmp_path / f"run{k}" / "report.json").read_text())
            assert report["critical_value"] == rec.c_star
            assert report["gamma"] == rec.gamma
            assert report["interval_lower"] == rec.lower
            assert report["interval_upper"] == rec.upper

    def test_degenerate_counts_zero_width(self, tmp_path):
        cfg = analyze_config(tmp_path, out="deg", counts={"1": 250, "2": 0, "1,2": 0})
        assert cli.main(["--config", cfg]) == 0
        report = json.loads((tmp_path / "deg" / "report.json").read_text())
        assert report["gamma"] == 0.0
        assert report["interval_lower"] == report["interval_upper"] == 0.025

    def test_width_scales_with_alpha_prime_quantile(self, tmp_path):
        cfg05 = analyze_config(tmp_path, out="a05", alpha_prime=0.05)
        cfg01 = analyze_config(tmp_path, out="a01", alpha_prime=0.01)
        assert cli.main(["--config", cfg05]) == 0
        assert cli.main(["--config", cfg01]) == 0
        r05 = json.loads((tmp_path / "a05" / "report.json").read_text())
        r01 = json.loads((tmp_path / "a01" / "report.json").read_text())
        ratio = r01["interval_length"] / r05["interval_length"]
        assert ratio == pytest.approx(2.575829 / 1.959964, abs=1e-5)

    def test_floor_transform_reported(self, tmp_path):
        cfg = analyze_config(tmp_path, out="floor", counts={"1": 120, "2": 120, "1,2": 10},
                             pi_min="1/(2^(m+2)-4)", transform="floor")
        assert cli.main(["--config", cfg]) == 0
        report = json.loads((tmp_path / "floor" / "report.json").read_text())
        assert report["pi_min"] == pytest.approx(1 / 12)
        # the small overlap stratum is floored and its gradient zeroed
        assert report["prevalence_used"]["1,2"] == pytest.approx(1 / 12)
        assert report["gradient"]["1,2"] == 0.0

    def test_bootstrap_engine_for_unknown_heterogeneous(self, tmp_path):
        payload = {
            "mode": "analyze",
            "design": {
                "m": 2,
                "strata_counts": {"1": 83, "2": 83, "1,2": 84},
                "treatment_scheme": "single",
                "variances": {"default": 1.0, "cells": {"1|T": 0.5, "1|C": 1.4}},
                "variance_mode": "unknown_heterogeneous",
            },
            "engine": {"B": 4000, "master_seed": 3},
            "output": {"directory": str(tmp_path / "boot_out")},
        }
        cfg = write_config(tmp_path, "boot.json", payload)
        assert cli.main(["--config", cfg]) == 0
        report = json.loads((tmp_path / "boot_out" / "report.json").read_text())
        assert report["engine"] == "parametric_bootstrap"
        assert report["achieved_pwer"] <= 0.025
        assert report == {
            "engine": "parametric_bootstrap", "N": 250, "m": 2,
            "prevalence_estimate": {"1": 0.332, "2": 0.332, "1,2": 0.336},
            "prevalence_used": {"1": 0.332, "2": 0.332, "1,2": 0.336},
            "transform": "none", "pi_min": 0.0,
            "critical_value": 2.1232437960570594, "achieved_pwer": 0.02496,
            "gradient": {"1": -0.01825, "2": -0.02075, "1,2": -0.03575},
            "gamma": 0.0077427966523730945, "alpha": 0.025, "alpha_prime": 0.05,
            "interval_lower": 0.024040210619742954, "interval_upper": 0.02595978938025705,
            "interval_length": 0.0019195787605140932,
        }


class TestSimulate:
    def simulate_config(self, tmp_path, out="sim_out", threads=1, seed=42):
        payload = {
            "mode": "simulate",
            "design": {"m": 2, "N": 250, "setting": "A", "prevalence_scheme": "equal"},
            "engine": {"runs": 40, "master_seed": seed, "threads": threads},
            "output": {"directory": str(tmp_path / out)},
        }
        return write_config(tmp_path, f"sim_{out}.json", payload)

    def test_writes_tables_and_manifest(self, tmp_path):
        cfg = self.simulate_config(tmp_path)
        assert cli.main(["--config", cfg]) == 0
        out = tmp_path / "sim_out"
        assert (out / "aggregate.csv").exists()
        assert (out / "records.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == cli.config_hash(manifest["config"])
        header = (out / "records.csv").read_text().splitlines()[0]
        assert header.startswith("true_pwer,lower,upper,covered,length")

    def test_resolved_config_round_trip(self, tmp_path):
        cfg = self.simulate_config(tmp_path, out="rt1")
        assert cli.main(["--config", cfg]) == 0
        manifest = json.loads((tmp_path / "rt1" / "manifest.json").read_text())
        resolved = manifest["config"]
        resolved["output"]["directory"] = str(tmp_path / "rt2")
        cfg2 = write_config(tmp_path, "resolved.json", resolved)
        assert cli.main(["--config", cfg2]) == 0
        manifest2 = json.loads((tmp_path / "rt2" / "manifest.json").read_text())
        # identical campaign: same records, same config hash modulo output dir
        assert (tmp_path / "rt1" / "records.csv").read_bytes() == \
            (tmp_path / "rt2" / "records.csv").read_bytes()
        resolved2 = manifest2["config"]
        resolved2["output"]["directory"] = resolved["output"]["directory"]
        assert cli.config_hash(resolved2) == cli.config_hash(resolved)

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        cfg = self.simulate_config(tmp_path, out="dry")
        assert cli.main(["--config", cfg, "--dry-run"]) == 0
        assert not (tmp_path / "dry").exists()
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["mode"] == "simulate"
        assert resolved["engine"]["runs"] == 40

    def test_seed_and_threads_overrides(self, tmp_path):
        cfg = self.simulate_config(tmp_path, out="ov")
        assert cli.main(["--config", cfg, "--seed", "7", "--threads", "2", "--dry-run"]) == 0

    def test_bootstrap_setting_through_config(self, tmp_path):
        payload = {
            "mode": "simulate",
            "design": {"m": 2, "N": 250, "setting": "D_bootstrap",
                       "prevalence_scheme": "equal", "treatment_scheme": "single"},
            "engine": {"runs": 25, "B": 2000, "master_seed": 7},
            "output": {"directory": str(tmp_path / "dboot")},
        }
        cfg = write_config(tmp_path, "dboot.json", payload)
        assert cli.main(["--config", cfg]) == 0
        rows = (tmp_path / "dboot" / "records.csv").read_text().splitlines()
        assert len(rows) == 26  # header + runs


class TestMinprevGrid:
    def test_two_csvs(self, tmp_path):
        payload = {
            "mode": "minprev-grid",
            "design": {"m": 2, "setting": "A"},
            "engine": {"runs": 30, "master_seed": 3, "N_list": [250], "m_list": [2],
                       "pi_min_list": ["0", "1/(2^(m+2)-4)"]},
            "output": {"directory": str(tmp_path / "grid")},
        }
        cfg = write_config(tmp_path, "grid.json", payload)
        assert cli.main(["--config", cfg]) == 0
        coverage = (tmp_path / "grid" / "coverage.csv").read_text().splitlines()
        lengths = (tmp_path / "grid" / "lengths.csv").read_text().splitlines()
        assert coverage[0] == "N,pi_min,floor_m2,shift_m2"
        assert len(coverage) == len(lengths) == 3


class TestStudyDistributionMode:
    def test_runs_and_writes(self, tmp_path):
        payload = {
            "mode": "study-distribution",
            "design": {"m": 2, "N": 250, "setting": "A"},
            "engine": {"studies": 2, "runs_per_study": 30, "master_seed": 5},
            "output": {"directory": str(tmp_path / "studies")},
        }
        cfg = write_config(tmp_path, "studies.json", payload)
        assert cli.main(["--config", cfg]) == 0
        lines = (tmp_path / "studies" / "studies.csv").read_text().splitlines()
        assert lines[0] == "study,coverage,mean_length,failures"
        assert len(lines) == 3
        summary = json.loads((tmp_path / "studies" / "summary.json").read_text())
        assert set(summary) >= {"mean", "sd", "min", "q1", "median", "q3", "max"}


class TestErrorPaths:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"mode": "simulate", "design": {"m": 2}, "x": 1})
        assert cli.main(["--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_mode_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "badmode.json", {"mode": "nope", "design": {"m": 2}})
        assert cli.main(["--config", cfg]) == 2

    def test_missing_file_exits_2(self):
        assert cli.main(["--config", "/nonexistent/x.json"]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["--config", str(path)]) == 2

    def test_infeasible_design_exits_4(self, tmp_path):
        cfg = analyze_config(tmp_path, out="inf", counts={"1": 1, "2": 0, "1,2": 0})
        assert cli.main(["--config", cfg]) == 4

    def test_numerical_failure_exits_3(self, tmp_path):
        payload = {
            "mode": "simulate",
            "design": {"m": 2, "N": 30, "setting": "A", "prevalence_scheme": "explicit",
                       "explicit_prevalences": [0.98, 0.02, 0.0]},
            "engine": {"runs": 50, "master_seed": 3},
            "output": {"directory": str(tmp_path / "numfail")},
        }
        cfg = write_config(tmp_path, "numfail.json", payload)
        assert cli.main(["--config", cfg]) == 3

    @pytest.mark.parametrize("design,interval,engine", [
        ({"setting": "A"}, {"alpha": 0.7}, {}),
        ({"setting": "D_bootstrap", "treatment_scheme": "single"}, {}, {"B": 500}),
        ({"prevalence_scheme": "explicit", "explicit_prevalences": [0.2, 0.2, 0.2]}, {}, {}),
        ({}, {"transform": "floor", "pi_min": 0.5}, {}),
        ({"m": 13}, {}, {}),
    ])
    def test_invalid_scenario_exits_2(self, tmp_path, design, interval, engine):
        payload = {
            "mode": "simulate",
            "design": {"m": 2, "N": 250, **design},
            "interval": interval,
            "engine": {"runs": 5, **engine},
            "output": {"directory": str(tmp_path / "badsim")},
        }
        cfg = write_config(tmp_path, "badsim.json", payload)
        assert cli.main(["--config", cfg]) == 2
        assert not (tmp_path / "badsim").exists()

    @pytest.mark.parametrize("counts", [
        {"1": "x", "2": 83, "1,2": 84},  # non-numeric count
        {"1": 83.9, "2": 83, "1,2": 84},  # fractional count
    ])
    def test_bad_strata_counts_exit_2(self, tmp_path, counts):
        cfg = analyze_config(tmp_path, out="badcounts", counts=counts)
        assert cli.main(["--config", cfg]) == 2

    @pytest.mark.parametrize("counts, design, interval, engine", [
        pytest.param({"1": 10, "9": 5}, {}, {}, {}, id="stratum_outside_design"),
        pytest.param(None, {}, {"transform": "floor", "pi_min": 0.5}, {}, id="floor_pi_min_out_of_range"),
        pytest.param(None, {}, {"alpha": 0.7}, {}, id="alpha"),
        pytest.param(None, {}, {"alpha_prime": 1.5}, {}, id="alpha_prime"),
        pytest.param(None, {"variance_mode": "unknown_heterogeneous"}, {}, {"B": 500},
                     id="too_few_resamples"),
        pytest.param(None, {"variance_mode": "unknown_heterogeneous"}, {"alpha": 0.01}, {"B": 1500},
                     id="too_few_tail_resamples"),  # B * alpha = 15 < 20
    ])
    def test_analyze_dry_run_rejects_what_the_run_rejects(
        self, tmp_path, capsys, counts, design, interval, engine
    ):
        cfg = analyze_config(tmp_path, out="drybad", counts=counts, design=design, engine=engine,
                             **interval)
        assert cli.main(["--config", cfg, "--dry-run"]) == 2
        assert cli.main(["--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "drybad").exists()

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        payload = {
            "mode": "simulate",
            "design": {"m": 2, "N": 250, "setting": "A"},
            "engine": {"runs": 5},
            "output": {"directory": str(tmp_path / "nothreads")},
        }
        cfg = write_config(tmp_path, "nothreads.json", payload)
        assert cli.main(["--config", cfg, "--threads", str(threads), "--dry-run"]) == 2
        assert cli.main(["--config", cfg, "--threads", str(threads)]) == 2
        payload["engine"]["threads"] = threads
        assert cli.main(["--config", write_config(tmp_path, "nothreads.json", payload)]) == 2
        assert "threads must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "nothreads").exists()

    @pytest.mark.parametrize("cells", [
        {"1|T1": "abc"},  # non-numeric variance
        {"1,2|T9": 0.5},  # no such cell in the design
    ])
    def test_bad_variance_cells_exit_2(self, tmp_path, cells):
        payload = json.loads(open(analyze_config(tmp_path, out="badvar")).read())
        payload["design"]["variances"] = {"default": 1.0, "cells": cells}
        assert cli.main(["--config", write_config(tmp_path, "badvar.json", payload)]) == 2

    @pytest.mark.parametrize("studies", [0, -2])
    def test_no_studies_exits_2(self, tmp_path, studies):
        payload = {
            "mode": "study-distribution",
            "design": {"m": 2, "N": 250, "setting": "A"},
            "engine": {"studies": studies, "runs_per_study": 10},
            "output": {"directory": str(tmp_path / "nostudies")},
        }
        cfg = write_config(tmp_path, "nostudies.json", payload)
        assert cli.main(["--config", cfg, "--dry-run"]) == 2
        assert cli.main(["--config", cfg]) == 2
        assert not (tmp_path / "nostudies").exists()

    def test_minprev_bad_pi_min_exits_2(self, tmp_path):
        payload = {
            "mode": "minprev-grid",
            "design": {"m": 2, "setting": "A"},
            "engine": {"runs": 5, "N_list": [250], "m_list": [2], "pi_min_list": [0.5]},
            "output": {"directory": str(tmp_path / "badgrid")},
        }
        cfg = write_config(tmp_path, "badgrid.json", payload)
        assert cli.main(["--config", cfg, "--dry-run"]) == 2
        assert cli.main(["--config", cfg]) == 2
        assert not (tmp_path / "badgrid").exists()

    @pytest.mark.parametrize("mode,design", [
        ("simulate", {"setting": "Z"}),
        ("simulate", {"prevalence_scheme": "bogus"}),
        ("study-distribution", {"setting": "Z"}),
        ("simulate", {"setting": "E", "m": 3}),
        ("simulate", {"m": 13}),
        ("simulate", {"prevalence_scheme": "explicit", "explicit_prevalences": [0.2, 0.2, 0.2]}),
    ])
    def test_dry_run_rejects_what_the_run_rejects(self, tmp_path, capsys, mode, design):
        payload = {
            "mode": mode,
            "design": {"m": 2, "N": 250, **design},
            "engine": {"runs": 5},
            "output": {"directory": str(tmp_path / "dry")},
        }
        cfg = write_config(tmp_path, "dry.json", payload)
        assert cli.main(["--config", cfg, "--dry-run"]) == 2
        assert cli.main(["--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err
