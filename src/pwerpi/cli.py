"""Command-line front end.

Reads a JSON configuration document, dispatches to the analysis or simulation
engines, and writes machine-readable results (CSV tables plus a JSON manifest
with seeds, versions, and failure counters). Exit codes: 0 success, 2
configuration error, 3 numerical failure, 4 infeasible design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, sim
from .design import (
    TRANSFORMS,
    VARIANCE_MODES,
    TREATMENT_SCHEMES,
    _arm_order,
    build_design,
    enumerate_strata,
    parse_stratum_label,
    stratum_label,
    treatment_labels,
)
from .errors import ConfigError, InfeasibleDesignError, NumericalError, PwerError

MODES = ("analyze", "simulate", "study-distribution", "minprev-grid")

# schema: block -> key -> (type, default); None default means required
_SCHEMA = {
    "mode": None,
    "design": {
        "m": (int, None),
        "N": (int, 0),
        "strata_counts": (dict, None),
        "prevalence_scheme": (str, "equal"),
        "explicit_prevalences": (list, None),
        "treatment_scheme": (str, "pairwise_different"),
        "variances": ((int, float, dict), 1.0),
        "variance_mode": (str, "known_homogeneous"),
        "setting": (str, "A"),
    },
    "interval": {
        "alpha": (float, 0.025),
        "alpha_prime": (float, 0.05),
        "pi_min": ((int, float, str), 0.0),
        "transform": (str, "none"),
    },
    "engine": {
        "cdf_tol": (float, 1e-6),
        "solver_tol": (float, 1e-8),
        "B": (int, 2000),
        "runs": (int, 2000),
        "studies": (int, 100),
        "runs_per_study": (int, 1000),
        "threads": (int, 1),
        "master_seed": (int, 0),
        "N_list": (list, None),
        "m_list": (list, None),
        "pi_min_list": (list, None),
        "transform_list": (list, None),
    },
    "output": {
        "directory": (str, "out"),
        "write_records": (bool, True),
    },
}


def _validate_block(name: str, block: dict, schema: dict) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name!r} must be an object")
    unknown = set(block) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    resolved = {}
    for key, (types, default) in schema.items():
        if key in block and block[key] is not None:
            value = block[key]
            if types is float and isinstance(value, int):
                value = float(value)
            if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
                raise ConfigError(f"{name}.{key} has wrong type {type(value).__name__}")
            resolved[key] = value
        else:
            resolved[key] = default
    return resolved


def resolve_config(raw: dict) -> dict:
    """Validate a config document and fill defaults (unknown keys rejected)."""
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    resolved = {"mode": mode}
    for block in ("design", "interval", "engine", "output"):
        resolved[block] = _validate_block(block, raw.get(block, {}), _SCHEMA[block])
    dz = resolved["design"]
    if dz["m"] is None:
        raise ConfigError("design.m is required")
    if dz["treatment_scheme"] not in TREATMENT_SCHEMES:
        raise ConfigError(f"unknown treatment scheme {dz['treatment_scheme']!r}")
    if dz["variance_mode"] not in VARIANCE_MODES:
        raise ConfigError(f"unknown variance mode {dz['variance_mode']!r}")
    if resolved["interval"]["transform"] not in TRANSFORMS:
        raise ConfigError(f"unknown transform {resolved['interval']['transform']!r}")
    if dz["setting"] not in sim.SETTINGS:
        raise ConfigError(f"unknown setting {dz['setting']!r}")
    if dz["prevalence_scheme"] not in sim.PREVALENCE_SCHEMES:
        raise ConfigError(f"unknown prevalence scheme {dz['prevalence_scheme']!r}")
    return resolved


def config_hash(resolved: dict) -> str:
    return hashlib.sha256(
        json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _number(value, where: str, whole: bool = False) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x) or whole and not x.is_integer():
        kind = "a whole number" if whole else "a finite number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    return x


def _parse_counts(dz: dict) -> dict:
    raw = dz.get("strata_counts")
    if raw is None:
        raise ConfigError("analyze mode needs design.strata_counts")
    counts = {
        parse_stratum_label(label): int(_number(n, f"design.strata_counts[{label!r}]", whole=True))
        for label, n in raw.items()
    }
    strata = enumerate_strata(dz["m"])
    extra = set(counts) - set(strata)
    if extra:
        raise ConfigError(f"counts name strata outside the design: {sorted(map(sorted, extra))}")
    return {s: counts.get(s, 0) for s in strata}


def _parse_variances(dz: dict, strata) -> float | dict:
    raw = dz["variances"]
    if isinstance(raw, (int, float)):
        return float(raw)
    out = {}
    default = raw.get("default")
    cells = raw.get("cells", {})
    unknown = set(raw) - {"default", "cells"}
    if unknown:
        raise ConfigError(f"unknown keys in design.variances: {sorted(unknown)}")
    labels = treatment_labels(dz["m"], dz["treatment_scheme"])
    for stratum in strata:
        for arm in _arm_order(labels[i - 1] for i in stratum):
            key = f"{stratum_label(stratum)}|{arm}"
            if key in cells:
                out[(stratum, arm)] = _number(cells[key], f"design.variances.cells[{key!r}]")
            elif default is not None:
                out[(stratum, arm)] = _number(default, "design.variances.default")
            else:
                raise ConfigError(f"missing variance for cell {key!r}")
    unknown = set(cells) - {f"{stratum_label(stratum)}|{arm}" for stratum, arm in out}
    if unknown:
        raise ConfigError(f"design.variances.cells names cells outside the design: {sorted(unknown)}")
    return out


def _analyze_study(config: dict) -> tuple[sim.SimScenario, sim.Study]:
    """The scenario and study of an analyze run, through every check it makes before calibrating."""
    dz = config["design"]
    counts = _parse_counts(dz)
    variances = _parse_variances(dz, counts)
    design = build_design(dz["m"], dz["treatment_scheme"], counts, variances, dz["variance_mode"])
    scenario = _scenario_from_config(
        config, N=design.N, setting=sim.ANALYSIS_SETTINGS[dz["variance_mode"]], runs=1
    )
    return scenario, sim.Study(design)


def run_analyze(config: dict, out_dir: Path) -> dict:
    """Single-study workflow: calibrate on the observed counts and report the interval."""
    scenario, study = _analyze_study(config)
    seed = np.random.SeedSequence((scenario.master_seed, 1))
    cal = sim.calibrate(scenario, study, seed, seed)
    interval = sim.interval(scenario, cal)
    cv, engine = cal.cv, sim.SETTINGS_TABLE[scenario.setting].engine
    labels = [stratum_label(s) for s in study.design.strata]
    report = {
        "engine": engine,
        "N": scenario.N,
        "m": scenario.m,
        "prevalence_estimate": dict(zip(labels, cal.weights.tolist())),
        "prevalence_used": dict(zip(labels, cal.used.tolist())),
        "transform": scenario.transform,
        "pi_min": scenario.pi_min,
        "critical_value": cv.value,
        "achieved_pwer": cv.achieved,
        # None marks strata whose joint law is undefined (empty population arm)
        "gradient": {
            label: (None if np.isnan(g) else g)
            for label, g in zip(labels, cv.gradient(cal.factors).tolist())
        },
        "gamma": interval.gamma,
        "alpha": scenario.alpha,
        "alpha_prime": scenario.alpha_prime,
        "interval_lower": interval.lower,
        "interval_upper": interval.upper,
        "interval_length": interval.length,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2)
    lines = [
        f"PWER analysis ({engine} engine)",
        f"  N = {scenario.N}, m = {scenario.m}, alpha = {scenario.alpha}",
        f"  critical value c* = {cv.value:.6f} (achieved PWER {cv.achieved:.8f})",
        f"  gamma = {interval.gamma:.6g}",
        f"  {100 * (1 - scenario.alpha_prime):.0f}% prediction interval for the true PWER: "
        f"[{interval.lower:.6f}, {interval.upper:.6f}] (length {interval.length:.3e})",
    ]
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return report


def _scenario_from_config(config: dict, **fields) -> sim.SimScenario:
    """The config's scenario; `fields` replace the ones analyze takes from its study."""
    dz, iv, eng = config["design"], config["interval"], config["engine"]
    return sim.SimScenario(**{
        "N": dz["N"],
        "m": dz["m"],
        "setting": dz["setting"],
        "prevalence_scheme": dz["prevalence_scheme"],
        "explicit_prevalences": tuple(dz["explicit_prevalences"]) if dz["explicit_prevalences"] else None,
        "treatment_scheme": dz["treatment_scheme"],
        "alpha": iv["alpha"],
        "alpha_prime": iv["alpha_prime"],
        "runs": eng["runs"],
        "B": eng["B"],
        "pi_min": sim.resolve_pi_min(iv["pi_min"], dz["m"]),
        "transform": iv["transform"],
        "master_seed": eng["master_seed"],
        "cdf_tol": eng["cdf_tol"],
        "solver_tol": eng["solver_tol"],
        **fields,
    })


def run_simulate(config: dict, out_dir: Path) -> dict:
    scenario = _scenario_from_config(config)
    result = sim.run_scenario(scenario, threads=config["engine"]["threads"])
    out_dir.mkdir(parents=True, exist_ok=True)
    sim.write_aggregate_csv([result], out_dir / "aggregate.csv")
    if config["output"]["write_records"]:
        sim.write_records_csv(result, out_dir / "records.csv")
    summary = {
        "coverage": result.coverage,
        "mean_length": result.mean_length,
        "failures": result.failures,
    }
    print(
        f"scenario {scenario.setting} m={scenario.m} N={scenario.N}: "
        f"coverage={result.coverage:.4f} mean_length_e3={result.mean_length * 1e3:.3f} "
        f"failures={result.failures}"
    )
    return summary


def _study_args(config: dict) -> dict:
    """study_scenarios keywords; run_study_distribution also takes threads."""
    dz, iv, eng = config["design"], config["interval"], config["engine"]
    return dict(
        m=dz["m"],
        setting=dz["setting"],
        N=dz["N"],
        studies=eng["studies"],
        runs_per_study=eng["runs_per_study"],
        master_seed=eng["master_seed"],
        treatment_scheme=dz["treatment_scheme"],
        alpha=iv["alpha"],
        alpha_prime=iv["alpha_prime"],
        B=eng["B"],
    )


def run_study_distribution_mode(config: dict, out_dir: Path) -> dict:
    dist = sim.run_study_distribution(**_study_args(config), threads=config["engine"]["threads"])
    out_dir.mkdir(parents=True, exist_ok=True)
    sim.write_study_csv(dist, out_dir / "studies.csv")
    summary = dist.summary()
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(
        "study distribution: "
        + " ".join(f"{k}={v:.4g}" for k, v in summary.items())
    )
    return summary


def _grid_args(config: dict) -> dict:
    """min_prevalence_grid_cells keywords; run_min_prevalence_grid also takes threads."""
    dz, iv, eng = config["design"], config["interval"], config["engine"]
    return dict(
        N_list=eng["N_list"] or [dz["N"]],
        m_list=eng["m_list"] or [dz["m"]],
        pi_min_list=eng["pi_min_list"] or list(sim.PI_MIN_LABELS),
        transform_list=eng["transform_list"] or ["floor", "shift"],
        runs=eng["runs"],
        master_seed=eng["master_seed"],
        setting=dz["setting"],
        treatment_scheme=dz["treatment_scheme"],
        alpha=iv["alpha"],
        alpha_prime=iv["alpha_prime"],
    )


def run_minprev_grid(config: dict, out_dir: Path) -> dict:
    rows = sim.run_min_prevalence_grid(**_grid_args(config), threads=config["engine"]["threads"])
    out_dir.mkdir(parents=True, exist_ok=True)
    sim.write_grid_csv(rows, out_dir / "coverage.csv", "coverage")
    sim.write_grid_csv(rows, out_dir / "lengths.csv", "mean_length_e3")
    print(f"minimal-prevalence grid: {len(rows)} cells written")
    return {"cells": len(rows)}


def _write_manifest(out_dir: Path, resolved: dict, summary: dict) -> None:
    manifest = {
        "version": __version__,
        "config": resolved,
        "config_sha256": config_hash(resolved),
        "summary": summary,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pwerpi",
        description="PWER critical values and true-PWER prediction intervals",
    )
    parser.add_argument("--config", required=True, help="path to the JSON configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--threads", type=int, default=None, help="worker count override")
    parser.add_argument(
        "--dry-run", action="store_true", help="validate, print the resolved config, write nothing"
    )
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        resolved = resolve_config(raw)
        if args.seed is not None:
            resolved["engine"]["master_seed"] = args.seed
        if args.threads is not None:
            resolved["engine"]["threads"] = args.threads
        if args.out is not None:
            resolved["output"]["directory"] = args.out
        if resolved["engine"]["threads"] < 1:
            raise ConfigError(f"threads must be at least 1, got {resolved['engine']['threads']}")
        if args.dry_run:
            # build what the run would run, through the run's own checks
            if resolved["mode"] == "analyze":
                _analyze_study(resolved)
            elif resolved["mode"] == "simulate":
                sim.resolve_true_prevalences(_scenario_from_config(resolved))
            elif resolved["mode"] == "study-distribution":
                sim.study_scenarios(**_study_args(resolved))
            elif resolved["mode"] == "minprev-grid":
                sim.min_prevalence_grid_cells(**_grid_args(resolved))
            print(json.dumps(resolved, indent=2))
            return 0
        out_dir = Path(resolved["output"]["directory"])
        runner = {
            "analyze": run_analyze,
            "simulate": run_simulate,
            "study-distribution": run_study_distribution_mode,
            "minprev-grid": run_minprev_grid,
        }[resolved["mode"]]
        summary = runner(resolved, out_dir)
        _write_manifest(out_dir, resolved, summary)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleDesignError as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return 4
    except (NumericalError, PwerError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
