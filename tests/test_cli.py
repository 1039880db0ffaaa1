import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwerpi import cli, sim
from pwerpi.design import VARIANCE_MODES, enumerate_strata, stratum_label

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# report.json of configs/analyze.json
SHIPPED_REPORT = {
    "engine": "exact", "N": 250, "m": 2,
    "prevalence_estimate": {"1": 0.332, "2": 0.332, "1,2": 0.336},
    "prevalence_used": {"1": 0.332, "2": 0.332, "1,2": 0.336},
    "transform": "none", "pi_min": 0.0,
    "critical_value": 2.075493079338709, "achieved_pwer": 0.02500000003607565,
    "gradient": {"1": -0.018970429804210265, "2": -0.018970429804210265, "1,2": -0.03691557930380962},
    "gamma": 0.00847619148250918, "alpha": 0.025, "alpha_prime": 0.05,
    "interval_lower": 0.023949299725255717, "interval_upper": 0.026050700274744286,
    "interval_length": 0.0021014005494885708,
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
        report = json.loads((tmp_path / "shipped" / "report.json").read_text())
        assert report == SHIPPED_REPORT

    def test_manifest_records_the_setting_that_calibrates(self, tmp_path):
        # an unknown-heterogeneous study calibrates by the parametric bootstrap
        cfg = analyze_config(tmp_path, design={"variance_mode": "unknown_heterogeneous"})
        assert cli.main(["--config", cfg]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["design"]["setting"] == "D_bootstrap"

    def test_shipped_config_c_star_pinned_within_its_solve_tolerance_of_the_root(self):
        # the root of its PWER, solved to 1e-13 on the finest rungs (tests/solve_c_star_roots.py)
        [ref] = json.loads((Path(__file__).resolve().parent / "c_star_roots.json").read_text())["analyze.json"]
        assert abs(SHIPPED_REPORT["critical_value"] - ref["c_ref"]) <= (1e-8 + 2e-13) / ref["slope"]

    @pytest.mark.parametrize("m, scheme, runs", [
        pytest.param(m, scheme, runs, id=f"{m}-{scheme}")
        for m, scheme, runs in [(2, "equal", 6), (3, "equal", 6), (2, "one_small", 6),
                                (3, "one_small", 6), (5, "equal", 1)]
    ])
    def test_matches_simulate_records(self, tmp_path, m, scheme, runs):
        # analyze on the counts a simulation run drew reports that run's numbers; at
        # m=5 the 5-dim stratum goes through QMC, whose stream analyze takes from run 0
        scenario = sim.SimScenario(N=250, m=m, setting="A", prevalence_scheme=scheme,
                                   runs=runs, master_seed=11)
        pi_true = sim.resolve_true_prevalences(scenario)
        records = sim.run_scenario(scenario).records
        labels = [stratum_label(s) for s in enumerate_strata(m)]
        for k, rec in enumerate(records):
            # run k's counts come first from its data stream
            counts = np.random.default_rng(sim._run_seed(11, k, 0)).multinomial(250, pi_true)
            payload = json.loads(open(analyze_config(
                tmp_path, out=f"run{k}", engine={"master_seed": 11})).read())
            payload["design"].update(m=m, strata_counts=dict(zip(labels, counts.tolist())))
            assert cli.main(["--config", write_config(tmp_path, f"run{k}.json", payload)]) == 0
            report = json.loads((tmp_path / f"run{k}" / "report.json").read_text())
            assert report["critical_value"] == rec.c_star
            assert report["gamma"] == rec.gamma
            assert report["interval_lower"] == rec.lower
            assert report["interval_upper"] == rec.upper

    def test_matches_library_quick_start(self, tmp_path, capsys):
        # the README library quick start, run on m=3 counts, reports analyze's c* and gamma
        counts = [30, 44, 46, 23, 37, 44, 26]
        readme = (CONFIGS.parent / "README.md").read_text()
        code = readme.split("## Library quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
        for old, new in (("m=2", "m=3"), ("counts=[83, 83, 84]", f"counts={counts}")):
            assert code.count(old) == 1
            code = code.replace(old, new)
        quick_start = {}
        exec(compile(code, "README.md quick start", "exec"), quick_start)
        labels = [stratum_label(s) for s in enumerate_strata(3)]
        cfg = analyze_config(tmp_path, out="qs", counts=dict(zip(labels, counts)), design={"m": 3})
        assert cli.main(["--config", cfg]) == 0
        report = json.loads((tmp_path / "qs" / "report.json").read_text())
        assert report["critical_value"] == quick_start["cv"].value
        assert report["gamma"] == quick_start["gamma"]

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
        # the null draws the boot stream of run 0 of master seed 3 (sim._run_seed)
        assert report == {
            "engine": "parametric_bootstrap", "N": 250, "m": 2,
            "prevalence_estimate": {"1": 0.332, "2": 0.332, "1,2": 0.336},
            "prevalence_used": {"1": 0.332, "2": 0.332, "1,2": 0.336},
            "transform": "none", "pi_min": 0.0,
            "critical_value": 2.0310460908709835, "achieved_pwer": 0.024876000000000002,
            "gradient": {"1": -0.018, "2": -0.021, "1,2": -0.0355},
            "gamma": 0.007655626950158943, "alpha": 0.025, "alpha_prime": 0.05,
            "interval_lower": 0.024051016089422915, "interval_upper": 0.025948983910577088,
            "interval_length": 0.001897967821154174,
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
        assert manifest["summary"]["failures"] == 0 and manifest["summary"]["failure_causes"] == {}
        header = (out / "records.csv").read_text().splitlines()[0]
        assert header.startswith("true_pwer,lower,upper,covered,length")

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        cfg = self.simulate_config(tmp_path, out="dry")
        assert cli.main(["--config", cfg, "--dry-run"]) == 0
        assert not (tmp_path / "dry").exists()
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["mode"] == "simulate"
        assert resolved["engine"]["runs"] == 40

    def test_dry_run_records_the_variance_mode_the_setting_draws(self, capsys):
        # configs/setting_d.json leaves design.variance_mode at its default
        assert cli.main(["--config", str(CONFIGS / "setting_d.json"), "--dry-run"]) == 0
        assert json.loads(capsys.readouterr().out)["design"]["variance_mode"] == "unknown_heterogeneous"

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
            "design": {"setting": "A"},
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

    def test_resampling_grid_runs_at_its_B(self, tmp_path, monkeypatch):
        # engine.B reaches every cell of a resampling grid, up to the paper's 10^4
        payload = {
            "mode": "minprev-grid",
            "design": {"setting": "D_bootstrap", "treatment_scheme": "single"},
            "engine": {"runs": 2, "B": 10_000, "master_seed": 3, "N_list": [250, 500], "m_list": [2, 3],
                       "pi_min_list": ["0", "1/(2^(m+2)-4)"]},
            "output": {"directory": str(tmp_path / "grid")},
        }
        cfg = write_config(tmp_path, "grid.json", payload)
        built, cells = [], sim.min_prevalence_grid_cells

        def recording(*args, **kwargs):
            built.extend(cells(*args, **kwargs))
            return built

        monkeypatch.setattr(sim, "min_prevalence_grid_cells", recording)
        assert cli.main(["--config", cfg, "--dry-run"]) == 0
        assert len(built) == 2 * 2 * 2 * 2 and {scenario.B for *_, scenario in built} == {10_000}
        assert {scenario.setting for *_, scenario in built} == {"D_bootstrap"}


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
        assert set(summary) >= {"mean", "sd", "min", "q1", "median", "q3", "max", "failure_causes"}
        manifest = json.loads((tmp_path / "studies" / "manifest.json").read_text())
        assert manifest["summary"] == summary


# each mode's full config: every key it reads set, at small sizes
FULL_CONFIGS = {
    "analyze": {
        "design": {"m": 2, "strata_counts": {"1": 83, "2": 83, "1,2": 84}, "treatment_scheme": "single",
                   "variances": {"default": 1.0, "cells": {"1|T": 0.5}}, "variance_mode": "known_heterogeneous"},
        "interval": {"alpha": 0.025, "alpha_prime": 0.05, "pi_min": "1/(2^(m+2)-4)", "transform": "floor"},
        "engine": {"B": 2000, "master_seed": 3},
    },
    "simulate": {
        "design": {"m": 2, "N": 250, "setting": "C", "prevalence_scheme": "explicit",
                   "explicit_prevalences": [0.3, 0.3, 0.4], "treatment_scheme": "single"},
        "interval": {"alpha": 0.025, "alpha_prime": 0.05, "pi_min": 0.05, "transform": "shift"},
        "engine": {"runs": 8, "B": 2000, "threads": 1, "master_seed": 3},
    },
    "study-distribution": {
        "design": {"m": 2, "N": 250, "setting": "A", "treatment_scheme": "single"},
        "interval": {"alpha": 0.025, "alpha_prime": 0.05},
        "engine": {"studies": 2, "runs_per_study": 5, "B": 2000, "threads": 1, "master_seed": 3},
    },
    "minprev-grid": {
        "design": {"setting": "A", "treatment_scheme": "single"},
        "interval": {"alpha": 0.025, "alpha_prime": 0.05},
        "engine": {"runs": 5, "B": 2000, "threads": 1, "master_seed": 3, "N_list": [250], "m_list": [2],
                   "pi_min_list": ["0", "1/(2^(m+2)-4)"], "transform_list": ["floor"]},
    },
}
# a valid value of every schema key but output.directory, from the full config that reads it
SAMPLE = {key: value for payload in FULL_CONFIGS.values() for keys in payload.values() for key, value in keys.items()}
# the key of the (setting, variance_mode) pair each mode derives from the other
DERIVED = {"analyze": "setting", "simulate": "variance_mode", "study-distribution": "variance_mode",
           "minprev-grid": "variance_mode"}
# the output files of each mode besides manifest.json
OUTPUTS = {"analyze": ["report.json", "report.txt"], "simulate": ["aggregate.csv", "records.csv"],
           "study-distribution": ["studies.csv", "summary.json"], "minprev-grid": ["coverage.csv", "lengths.csv"]}


def full_config(tmp_path, mode, out, **blocks):
    """The mode's full config writing to tmp_path / out, with each of `blocks` merged into its block."""
    payload = {"mode": mode, **json.loads(json.dumps(FULL_CONFIGS[mode]))}
    payload["output"] = {**payload.get("output", {}), "directory": str(tmp_path / out)}
    for block, keys in blocks.items():
        payload[block] = {**payload.get(block, {}), **keys}
    return write_config(tmp_path, f"{out}.json", payload)


def schema_keys():
    """(block, key, the modes that read it) for every key of the schema."""
    return [(block, key, modes) for block, keys in cli._SCHEMA.items() if block != "mode"
            for key, (*_, modes) in keys.items()]


def unread_keys():
    """(mode, block, key) for every schema key a mode neither reads nor derives."""
    return [(mode, block, key) for block, key, modes in schema_keys()
            for mode in cli.MODES if mode not in modes and key != DERIVED[mode]]


class TestModeKeys:
    def test_each_mode_reads_the_keys_of_its_call(self):
        read = {mode: sorted(key for _, key, modes in schema_keys() if mode in modes) for mode in cli.MODES}
        assert read == {
            "analyze": sorted(["m", "strata_counts", "treatment_scheme", "variances", "variance_mode", "alpha",
                               "alpha_prime", "pi_min", "transform", "B", "master_seed", "directory"]),
            "simulate": sorted(["m", "N", "setting", "prevalence_scheme", "explicit_prevalences",
                                "treatment_scheme", "alpha", "alpha_prime", "pi_min", "transform", "runs", "B",
                                "threads", "master_seed", "directory"]),
            "study-distribution": sorted(["m", "N", "setting", "treatment_scheme", "alpha", "alpha_prime",
                                          "studies", "runs_per_study", "B", "threads", "master_seed",
                                          "directory"]),
            "minprev-grid": sorted(["setting", "treatment_scheme", "alpha", "alpha_prime", "runs", "B",
                                    "threads", "master_seed", "N_list", "m_list", "pi_min_list",
                                    "transform_list", "directory"]),
        }
        # the full configs set every key their mode reads
        for mode, payload in FULL_CONFIGS.items():
            given = sorted(key for keys in payload.values() for key in keys)
            assert given == [key for key in read[mode] if key != "directory"]

    @pytest.mark.parametrize("mode, block, key", [
        pytest.param(*case, id=f"{case[0]}-{case[2]}") for case in unread_keys()
    ])
    def test_unread_key_exits_2(self, tmp_path, capsys, mode, block, key):
        # the value another mode's full config gives the key, so only the mode can reject it
        cfg = full_config(tmp_path, mode, "unread", **{block: {key: SAMPLE[key]}})
        assert cli.main(["--config", cfg, "--dry-run"]) == 2
        assert cli.main(["--config", cfg]) == 2
        assert f"unknown keys in '{block}': ['{key}']; mode {mode} reads" in capsys.readouterr().err
        assert not (tmp_path / "unread").exists()

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_dropped_write_records_exits_2(self, tmp_path, capsys, mode):
        # simulate always writes records.csv; the key that could turn it off is gone
        cfg = full_config(tmp_path, mode, "records", output={"write_records": True})
        assert cli.main(["--config", cfg, "--dry-run"]) == 2
        assert cli.main(["--config", cfg]) == 2
        assert "unknown keys in 'output': ['write_records']" in capsys.readouterr().err
        assert not (tmp_path / "records").exists()

    def test_readme_sketches_set_every_key_their_mode_reads(self):
        # one README sketch per mode, in MODES order, each setting exactly the keys the mode reads
        section = (CONFIGS.parent / "README.md").read_text().split("### Config sketch", 1)[1].split("\n## ", 1)[0]
        sketches = [json.loads(re.sub(r"[ \t]*//[^\n]*", "", part.split("```", 1)[0]))
                    for part in section.split("```jsonc")[1:]]
        assert [sketch["mode"] for sketch in sketches] == list(cli.MODES)
        for sketch in sketches:
            resolved = cli.resolve_config(sketch)
            del resolved["design"][DERIVED[sketch["mode"]]]
            assert {block: sorted(keys) for block, keys in sketch.items() if block != "mode"} == \
                {block: sorted(keys) for block, keys in resolved.items() if block != "mode"}

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_full_config_passes_dry_run(self, tmp_path, capsys, mode):
        assert cli.main(["--config", full_config(tmp_path, mode, "full"), "--dry-run"]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert DERIVED[mode] in resolved["design"]
        assert not (tmp_path / "full").exists()

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_resolved_config_round_trip(self, tmp_path, mode):
        assert cli.main(["--config", full_config(tmp_path, mode, "rt1")]) == 0
        resolved = json.loads((tmp_path / "rt1" / "manifest.json").read_text())["config"]
        resolved["output"]["directory"] = str(tmp_path / "rt2")
        assert cli.main(["--config", write_config(tmp_path, "resolved.json", resolved)]) == 0
        # identical campaign: same outputs, same config hash modulo output dir
        for name in OUTPUTS[mode]:
            assert (tmp_path / "rt1" / name).read_bytes() == (tmp_path / "rt2" / name).read_bytes()
        resolved2 = json.loads((tmp_path / "rt2" / "manifest.json").read_text())["config"]
        assert resolved2 == resolved
        resolved2["output"]["directory"] = str(tmp_path / "rt1")
        manifest1 = json.loads((tmp_path / "rt1" / "manifest.json").read_text())
        assert cli.config_hash(resolved2) == manifest1["config_sha256"]

    def test_threads_flag_on_analyze_exits_2(self, tmp_path, capsys):
        # analyze calibrates one study in process and starts no pool
        cfg = analyze_config(tmp_path, out="threads")
        assert cli.main(["--config", cfg, "--threads", "2", "--dry-run"]) == 2
        assert cli.main(["--config", cfg, "--threads", "2"]) == 2
        assert "--threads: mode analyze reads no engine.threads" in capsys.readouterr().err
        assert not (tmp_path / "threads").exists()

    @pytest.mark.parametrize("mode, block, key", [
        pytest.param(mode, block, key, id=f"{mode}-{key}") for block, key, modes in schema_keys()
        if cli._SCHEMA[block][key][1] is cli._REQUIRED for mode in modes
    ])
    def test_required_key_missing_exits_2(self, tmp_path, capsys, mode, block, key):
        # the grid's lists have no design.N or design.m fallback: the grid reads neither
        payload = json.loads(open(full_config(tmp_path, mode, "missing")).read())
        del payload[block][key]
        cfg = write_config(tmp_path, "missing.json", payload)
        assert cli.main(["--config", cfg, "--dry-run"]) == 2
        assert cli.main(["--config", cfg]) == 2
        assert f"mode {mode} needs {block}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()


# the config of each mode that gives only its required keys
REQUIRED_ONLY = {
    "analyze": {"design": {"m": 2, "strata_counts": {"1": 83, "2": 83, "1,2": 84}}},
    "simulate": {"design": {"m": 2, "N": 250}},
    "study-distribution": {"design": {"m": 2, "N": 250}},
    "minprev-grid": {"engine": {"N_list": [250], "m_list": [2]}},
}
# what resolve_config fills in for each, key order included
RESOLVED_DEFAULTS = {
    "analyze": {
        "mode": "analyze",
        "design": {"m": 2, "strata_counts": {"1": 83, "2": 83, "1,2": 84}, "treatment_scheme": "pairwise_different",
                   "variances": 1.0, "variance_mode": "known_homogeneous", "setting": "A"},
        "interval": {"alpha": 0.025, "alpha_prime": 0.05, "pi_min": 0.0, "transform": "none"},
        "engine": {"B": 2000, "master_seed": 0},
        "output": {"directory": "out"},
    },
    "simulate": {
        "mode": "simulate",
        "design": {"m": 2, "N": 250, "prevalence_scheme": "equal", "explicit_prevalences": None,
                   "treatment_scheme": "pairwise_different", "setting": "A", "variance_mode": "known_homogeneous"},
        "interval": {"alpha": 0.025, "alpha_prime": 0.05, "pi_min": 0.0, "transform": "none"},
        "engine": {"B": 2000, "runs": 2000, "threads": 1, "master_seed": 0},
        "output": {"directory": "out"},
    },
    "study-distribution": {
        "mode": "study-distribution",
        "design": {"m": 2, "N": 250, "treatment_scheme": "pairwise_different", "setting": "A",
                   "variance_mode": "known_homogeneous"},
        "interval": {"alpha": 0.025, "alpha_prime": 0.05},
        "engine": {"B": 2000, "studies": 100, "runs_per_study": 1000, "threads": 1, "master_seed": 0},
        "output": {"directory": "out"},
    },
    "minprev-grid": {
        "mode": "minprev-grid",
        "design": {"treatment_scheme": "pairwise_different", "setting": "A", "variance_mode": "known_homogeneous"},
        "interval": {"alpha": 0.025, "alpha_prime": 0.05},
        "engine": {"B": 2000, "runs": 2000, "threads": 1, "master_seed": 0, "N_list": [250], "m_list": [2],
                   "pi_min_list": ("0", "1/(2^(m+2)-4)", "1/(2^(m+1)-2)"), "transform_list": ("floor", "shift")},
        "output": {"directory": "out"},
    },
}


class TestResolvedDefaults:
    @pytest.mark.parametrize("mode", cli.MODES)
    def test_defaults_pinned(self, mode):
        resolved = cli.resolve_config({"mode": mode, **REQUIRED_ONLY[mode]})
        assert resolved == RESOLVED_DEFAULTS[mode]
        assert json.dumps(resolved) == json.dumps(RESOLVED_DEFAULTS[mode])  # the --dry-run print


class TestResolvedSettingPair:
    # the resolved config records the (setting, variance_mode) pair the run uses; the derived
    # key may be left out, or given with the value the run uses, and no other

    @staticmethod
    def pair(mode, setting):
        """(the key the mode reads, its value, the derived value) of a setting in that mode."""
        variance_mode = sim.SETTINGS_TABLE[setting].variance_mode
        if mode == "analyze":
            return "variance_mode", variance_mode, setting
        return "setting", setting, variance_mode

    # analyze calibrates each variance mode by one setting (sim.ANALYSIS_SETTINGS)
    CASES = [(mode, setting) for mode in cli.MODES[1:] for setting in sim.SETTINGS] + [
        ("analyze", setting) for setting in sim.ANALYSIS_SETTINGS.values()
    ]

    @pytest.mark.parametrize("mode, setting", CASES)
    def test_absent_derived_key_is_recorded(self, mode, setting):
        source, value, derived = self.pair(mode, setting)
        raw = {"mode": mode, **FULL_CONFIGS[mode]}
        raw["design"] = {**raw["design"], source: value}
        assert cli.resolve_config(raw)["design"][DERIVED[mode]] == derived

    @pytest.mark.parametrize("mode, setting", CASES)
    def test_agreeing_derived_key_is_accepted(self, mode, setting):
        source, value, derived = self.pair(mode, setting)
        raw = {"mode": mode, **FULL_CONFIGS[mode]}
        raw["design"] = {**raw["design"], source: value}
        absent = cli.resolve_config(raw)
        raw["design"][DERIVED[mode]] = derived
        assert cli.resolve_config(raw) == absent

    @pytest.mark.parametrize("mode, setting", CASES)
    def test_contradicting_derived_key_exits_2(self, tmp_path, capsys, mode, setting):
        source, value, derived = self.pair(mode, setting)
        other = next(v for v in (sim.SETTINGS if mode == "analyze" else VARIANCE_MODES) if v != derived)
        cfg = full_config(tmp_path, mode, "pair", design={source: value, DERIVED[mode]: other})
        assert cli.main(["--config", cfg, "--dry-run"]) == 2
        assert cli.main(["--config", cfg]) == 2
        assert f"design.{DERIVED[mode]} {other!r} contradicts design.{source} {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "pair").exists()


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
        {"1": True, "2": 83, "1,2": 84},  # a JSON boolean is no count
    ])
    def test_bad_strata_counts_exit_2(self, tmp_path, counts):
        cfg = analyze_config(tmp_path, out="badcounts", counts=counts)
        assert cli.main(["--config", cfg]) == 2

    @pytest.mark.parametrize("counts, design, interval, engine", [
        pytest.param({"1": 10, "9": 5}, {}, {}, {}, id="stratum_outside_design"),
        pytest.param(None, {}, {"transform": "floor", "pi_min": 0.5}, {}, id="floor_pi_min_out_of_range"),
        pytest.param(None, {}, {"alpha": 0.7}, {}, id="alpha"),
        pytest.param(None, {}, {"alpha": 1e-12}, {}, id="alpha_below_floor"),
        pytest.param(None, {}, {"alpha_prime": 1.5}, {}, id="alpha_prime"),
        pytest.param(None, {"variance_mode": "unknown_heterogeneous"}, {}, {"B": 500},
                     id="too_few_resamples"),
        pytest.param(None, {"variance_mode": "unknown_heterogeneous"}, {"alpha": 0.01}, {"B": 1500},
                     id="too_few_tail_resamples"),  # B * alpha = 15 < 20
        pytest.param(None, {}, {"pi_min": 0.05}, {}, id="pi_min_under_no_transform"),  # unread, not dropped
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

    def test_simulate_dry_run_states_the_alpha_range(self, tmp_path, capsys):
        payload = {
            "mode": "simulate",
            "design": {"m": 2, "N": 250, "setting": "A"},
            "interval": {"alpha": 1e-12},
            "engine": {"runs": 5},
        }
        cfg = write_config(tmp_path, "tinyalpha.json", payload)
        assert cli.main(["--config", cfg, "--dry-run"]) == 2
        assert "alpha must lie in [1e-10, 0.5)" in capsys.readouterr().err

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

    @pytest.mark.parametrize("cells, default", [
        ({"1|T1": "abc"}, 1.0),  # non-numeric variance
        ({"1,2|T9": 0.5}, 1.0),  # no such cell in the design
        ({}, True),  # a JSON boolean is no variance
        (["1|T1"], 1.0),  # cells is an object of cell keys
        ({"1|T1": 0.5}, None),  # no variance for the other cells
    ], ids=["cells0", "cells1", "default_true", "cells_list", "no_default"])
    def test_bad_variance_cells_exit_2(self, tmp_path, cells, default):
        payload = json.loads(open(analyze_config(tmp_path, out="badvar")).read())
        payload["design"]["variances"] = {"default": default, "cells": cells}
        assert cli.main(["--config", write_config(tmp_path, "badvar.json", payload)]) == 2

    @pytest.mark.parametrize("key, value", [("cdf_tol", 0.01), ("solver_tol", 0.3)])
    def test_tolerance_keys_rejected(self, tmp_path, capsys, key, value):
        # the calibration runs at the package tolerances; the config cannot set them
        payload = {
            "mode": "simulate",
            "design": {"m": 2, "N": 250, "setting": "A"},
            "engine": {"runs": 5, key: value},
            "output": {"directory": str(tmp_path / "tol")},
        }
        cfg = write_config(tmp_path, "tol.json", payload)
        assert cli.main(["--config", cfg, "--dry-run"]) == 2
        assert cli.main(["--config", cfg]) == 2
        assert f"unknown keys in 'engine': ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "tol").exists()

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

    @pytest.mark.parametrize("mode, design, message", [
        ("simulate", {"setting": "Z"}, "unknown setting 'Z'"),
        ("simulate", {"prevalence_scheme": "bogus"}, "unknown prevalence scheme 'bogus'"),
        ("study-distribution", {"setting": "Z"}, "unknown setting 'Z'"),
        ("simulate", {"setting": "E", "m": 3}, "setting E is defined for m = 2 only"),
        ("simulate", {"m": 13}, "population count m must be an integer in [2, 12], got 13"),
        ("simulate", {"prevalence_scheme": "explicit", "explicit_prevalences": [0.2, 0.2, 0.2]},
         "explicit prevalences must sum to 1"),
        ("simulate", {"explicit_prevalences": [0.9, 0.05, 0.05]},
         "explicit_prevalences apply to the explicit scheme, not 'equal'"),
    ])
    def test_dry_run_rejects_what_the_run_rejects(self, tmp_path, capsys, mode, design, message):
        engine = {"runs": 5} if mode == "simulate" else {"studies": 2, "runs_per_study": 5}
        payload = {
            "mode": mode,
            "design": {"m": 2, "N": 250, **design},
            "engine": engine,
            "output": {"directory": str(tmp_path / "dry")},
        }
        cfg = write_config(tmp_path, "dry.json", payload)
        assert cli.main(["--config", cfg, "--dry-run"]) == 2
        assert cli.main(["--config", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("config error: ") and message in line for line in err)
        assert not (tmp_path / "dry").exists()

    @pytest.mark.parametrize("counts, stratum", [
        ({"1": 83, "2": 83, "1,2": 84, "2,1": 10}, "1,2"),
        ({"1": 83, "2": 83, "1,2": 84, " 1": 10}, "1"),
    ])
    def test_stratum_counted_twice_exits_2(self, tmp_path, capsys, counts, stratum):
        # the last count would silently replace the first
        cfg = analyze_config(tmp_path, out="twice", counts=counts)
        assert cli.main(["--config", cfg, "--dry-run"]) == 2
        assert cli.main(["--config", cfg]) == 2
        assert f"design.strata_counts names stratum {stratum!r} twice" in capsys.readouterr().err
        assert not (tmp_path / "twice").exists()

    def test_variance_cell_named_twice_exits_2(self, tmp_path, capsys):
        payload = json.loads(open(analyze_config(tmp_path, out="twice")).read())
        payload["design"]["variances"] = {"default": 1.0, "cells": {"1,2|T1": 0.5, "2,1|T1": 0.7}}
        cfg = write_config(tmp_path, "twice.json", payload)
        assert cli.main(["--config", cfg, "--dry-run"]) == 2
        assert cli.main(["--config", cfg]) == 2
        assert "design.variances.cells names cell '1,2|T1' twice" in capsys.readouterr().err
        assert not (tmp_path / "twice").exists()

    def test_variance_cells_read_stratum_labels_as_counts_do(self, tmp_path):
        # "2,1" names the stratum {1, 2} in a cell key as in strata_counts
        reports = []
        for label in ("1,2", "2,1"):
            payload = json.loads(open(analyze_config(tmp_path, out=label)).read())
            payload["design"]["variances"] = {"default": 1.0, "cells": {f"{label}|C": 0.5}}
            payload["design"]["variance_mode"] = "known_heterogeneous"
            assert cli.main(["--config", write_config(tmp_path, "cell.json", payload)]) == 0
            reports.append(json.loads((tmp_path / label / "report.json").read_text()))
        assert reports[0] == reports[1]
        assert reports[0]["critical_value"] != SHIPPED_REPORT["critical_value"]

    @pytest.mark.parametrize("mode", cli.MODES)
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, mode, where):
        # numpy's SeedSequence takes no negative entropy: each mode refuses the seed before
        # its first stream, at --dry-run as at a run
        if where == "flag":
            cfg, flags = full_config(tmp_path, mode, "seed"), ["--seed", "-1"]
        else:
            cfg, flags = full_config(tmp_path, mode, "seed", engine={"master_seed": -1}), []
        assert cli.main(["--config", cfg, *flags, "--dry-run"]) == 2
        assert cli.main(["--config", cfg, *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: master_seed must be nonnegative, got -1"] * 2
        assert not (tmp_path / "seed").exists()


# the bad kinds of value the config property test puts in place of one key
BAD_KINDS = ("negative", "zero", "wrong_type", "null", "empty_list", "unknown_name")
# the (key, kind) pairs of a value the key may take: a zero seed, pi_min, count or
# grid pi_min, and any directory name; a null or an empty list reads as absent
VALID = {("master_seed", "zero"), ("pi_min", "zero"), ("pi_min_list", "zero"), ("strata_counts", "zero"),
         ("directory", "unknown_name")}
# the type of an entry of each list key, and the values of every JSON type a wrong type is drawn from
ENTRY_TYPES = {"N_list": int, "m_list": int, "pi_min_list": (int, float, str), "transform_list": str,
               "explicit_prevalences": float}
JSON_VALUES = (True, "x", 2.5, 7, {"k": 1}, ["x"])
# what the test runs each config that passes --dry-run at
TINY = {"runs": 2, "studies": 2, "runs_per_study": 2}


def fits(value, types) -> bool:
    """Whether the schema's types take the value (a float key takes an int, no key a boolean)."""
    types = types if isinstance(types, tuple) else (types,)
    return not isinstance(value, bool) and (isinstance(value, types) or float in types and isinstance(value, int))


def bad_values(block, key, kind):
    """Values of one bad kind for a key: in place of the whole value or, for a list or the
    strata counts, of one entry."""
    if kind in ("null", "empty_list"):
        return st.just(None if kind == "null" else [])
    types = cli._SCHEMA[block][key][0]
    entry_types = ENTRY_TYPES.get(key, types)
    def kind_of(types):
        return {
            "negative": st.one_of(st.integers(-10**6, -1), st.floats(-1e6, -1e-3)),
            "zero": st.sampled_from([0, 0.0]),
            "wrong_type": st.sampled_from([v for v in JSON_VALUES if not fits(v, types)]),
            "unknown_name": st.sampled_from(["bogus", "Z", "none "]),
        }[kind]
    if key in ENTRY_TYPES:
        return st.one_of(kind_of(types), kind_of(entry_types).map(lambda v: [v]))
    if key == "strata_counts":
        counts = FULL_CONFIGS["analyze"]["design"]["strata_counts"]
        entry = (lambda v: {**counts, v: 83}) if kind == "unknown_name" else (lambda v: {**counts, "1": v})
        return st.one_of(kind_of(types), kind_of((int, float)).map(entry))
    return kind_of(types)


BAD_CASES = [(mode, block, key, kind) for mode in cli.MODES for block, key, modes in schema_keys()
             if mode in modes for kind in BAD_KINDS]


def run_cli(payload, *flags):
    """(exit code, stderr) of the CLI on the config payload, run in the current directory."""
    Path("config.json").write_text(json.dumps(payload))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["--config", "config.json", *flags])
    return code, err.getvalue()


class TestConfigProperty:
    """One key of a mode's full config replaced by a bad kind of value: --dry-run exits 2
    with a config error, as the run does, or 0 where the value is valid for the key, and
    then the run, at tiny size, exits 0 or 3 with its failed runs counted. A traceback
    (an exception out of cli.main) fails the test."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(case=st.sampled_from(BAD_CASES).flatmap(lambda case: bad_values(*case[1:]).map(lambda v: (*case, v))))
    # configs that ended in a traceback or in a numerical failure before their N and m were checked
    @example(case=("minprev-grid", "engine", "N_list", "negative", [-5]))
    @example(case=("minprev-grid", "engine", "m_list", "negative", [-2]))
    @example(case=("minprev-grid", "engine", "N_list", "wrong_type", ["a"]))
    @example(case=("minprev-grid", "engine", "m_list", "wrong_type", ["a"]))
    @example(case=("study-distribution", "design", "m", "negative", -1))
    @example(case=("study-distribution", "design", "m", "zero", 0))
    def test_bad_value_is_a_config_error_or_runs(self, case):
        mode, block, key, kind, value = case
        payload = {"mode": mode, **json.loads(json.dumps(FULL_CONFIGS[mode]))}
        payload.setdefault(block, {})[key] = value
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            code, err = run_cli(payload, "--dry-run")
            if code == 2:
                assert err.startswith("config error: ") and err.count("\n") == 1
                assert run_cli(payload) == (2, err)
                assert [path.name for path in Path(tmp).iterdir()] == ["config.json"]
                return
            assert code == 0, err
            absent = kind in ("null", "empty_list") and cli._SCHEMA[block][key][1] is not cli._REQUIRED
            assert absent or (key, kind) in VALID, f"{mode} took {block}.{key} = {value!r}"
            payload["engine"] = {**payload.get("engine", {}),
                                 **{k: n for k, n in TINY.items() if k in FULL_CONFIGS[mode].get("engine", {})}}
            code, err = run_cli(payload)
            assert code == 0 or code == 3 and re.match(r"numerical failure: \d+/\d+ runs failed", err), err
