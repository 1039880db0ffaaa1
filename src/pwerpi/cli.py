"""Command-line front end.

Reads a JSON configuration document, dispatches to the analysis or simulation
engines, and writes machine-readable results (CSV tables plus a JSON manifest
with seeds, versions, and failure counters). Exit codes: 0 success, 2
configuration error, 3 numerical failure, 4 infeasible design.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, sim
from .design import build_design, cell_layout, enumerate_strata, parse_stratum_label, stratum_label
from .errors import ConfigError, InfeasibleDesignError, NumericalError, PwerError

MODES = ("analyze", "simulate", "study-distribution", "minprev-grid")
ANALYZE, SIMULATE, STUDIES, GRID = MODES
_REQUIRED = object()
# a key named as a SimScenario field takes that field's default
_SCENARIO = {f.name: f.default for f in dataclasses.fields(sim.SimScenario)}

# schema: block -> key -> (type, default, the modes that read it); a mode takes no other key
_SCHEMA = {
    "mode": None,
    "design": {
        "m": (int, _REQUIRED, (ANALYZE, SIMULATE, STUDIES)),
        "N": (int, _REQUIRED, (SIMULATE, STUDIES)),
        "strata_counts": (dict, _REQUIRED, (ANALYZE,)),
        "prevalence_scheme": (str, _SCENARIO["prevalence_scheme"], (SIMULATE,)),
        "explicit_prevalences": (list, _SCENARIO["explicit_prevalences"], (SIMULATE,)),
        "treatment_scheme": (str, _SCENARIO["treatment_scheme"], MODES),
        "variances": ((int, float, dict), 1.0, (ANALYZE,)),
        "variance_mode": (str, "known_homogeneous", (ANALYZE,)),
        "setting": (str, "A", (SIMULATE, STUDIES, GRID)),
    },
    "interval": {
        "alpha": (float, _SCENARIO["alpha"], MODES),
        "alpha_prime": (float, _SCENARIO["alpha_prime"], MODES),
        "pi_min": ((int, float, str), _SCENARIO["pi_min"], (ANALYZE, SIMULATE)),
        "transform": (str, _SCENARIO["transform"], (ANALYZE, SIMULATE)),
    },
    "engine": {
        "B": (int, _SCENARIO["B"], MODES),
        "runs": (int, _SCENARIO["runs"], (SIMULATE, GRID)),
        "studies": (int, 100, (STUDIES,)),
        "runs_per_study": (int, 1000, (STUDIES,)),
        "threads": (int, 1, (SIMULATE, STUDIES, GRID)),
        "master_seed": (int, _SCENARIO["master_seed"], MODES),
        "N_list": (list, _REQUIRED, (GRID,)),
        "m_list": (list, _REQUIRED, (GRID,)),
        "pi_min_list": (list, sim.PI_MIN_LABELS, (GRID,)),
        "transform_list": (list, sim.GRID_TRANSFORMS, (GRID,)),
    },
    "output": {
        "directory": (str, "out", MODES),
    },
}
# keys a mode reads that are not keywords of its sim call (_sim_kwargs)
_NOT_PASSED = ("strata_counts", "variances", "variance_mode", "threads")


def _validate_block(name: str, block: dict, mode: str, derived: str | None = None) -> dict:
    """The keys of the block that mode reads, type-checked and defaulted; `derived` is also let through."""
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name!r} must be an object")
    schema = {key: spec for key, spec in _SCHEMA[name].items() if mode in spec[2]}
    unknown = set(block) - set(schema) - {derived}
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}; mode {mode} reads {sorted(schema)}")
    resolved = {}
    for key, (types, default, _) in schema.items():
        value = block.get(key)
        if value is None or value == []:  # null and an empty list read as absent
            if default is _REQUIRED:
                raise ConfigError(f"mode {mode} needs {name}.{key}")
            resolved[key] = default
            continue
        if types is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, types) or isinstance(value, bool):
            raise ConfigError(f"{name}.{key} has wrong type {type(value).__name__}")
        resolved[key] = value
    return resolved


def resolve_config(raw: dict) -> dict:
    """Validate a config document and fill defaults.

    A mode takes only the keys it reads. Of the (setting, variance_mode) pair
    it reads one and records the other as the run uses it: analyze derives
    the setting that calibrates its variance mode, the simulating modes the
    variance mode their setting draws. A derived key given with another value
    is an error.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    source, derived = ("variance_mode", "setting") if mode == ANALYZE else ("setting", "variance_mode")
    resolved = {"mode": mode}
    for block in ("design", "interval", "engine", "output"):
        resolved[block] = _validate_block(block, raw.get(block, {}), mode, derived if block == "design" else None)
    dz = resolved["design"]
    pairs = sim.ANALYSIS_SETTINGS if mode == ANALYZE else {
        setting: spec.variance_mode for setting, spec in sim.SETTINGS_TABLE.items()
    }
    if dz[source] not in pairs:
        raise ConfigError(f"unknown {source.replace('_', ' ')} {dz[source]!r}")
    dz[derived] = pairs[dz[source]]
    given = raw.get("design", {}).get(derived)
    if given is not None and given != dz[derived]:
        raise ConfigError(
            f"design.{derived} {given!r} contradicts design.{source} {dz[source]!r}, which runs {dz[derived]!r}"
        )
    return resolved


def config_hash(resolved: dict) -> str:
    return hashlib.sha256(
        json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _number(value, where: str, whole: bool = False) -> float:
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x) or whole and not x.is_integer():
        kind = "a whole number" if whole else "a finite number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    return x


def _parse_counts(dz: dict) -> list[int]:
    """The strata counts in the canonical strata order, a stratum left out counting 0."""
    counts = {}
    for label, n in dz["strata_counts"].items():
        stratum = parse_stratum_label(label)
        if stratum in counts:
            raise ConfigError(f"design.strata_counts names stratum {stratum_label(stratum)!r} twice")
        counts[stratum] = int(_number(n, f"design.strata_counts[{label!r}]", whole=True))
    strata = enumerate_strata(dz["m"])
    extra = set(counts) - set(strata)
    if extra:
        raise ConfigError(f"counts name strata outside the design: {sorted(map(sorted, extra))}")
    return [counts.get(s, 0) for s in strata]


def _parse_variances(dz: dict) -> float | list[float]:
    """One variance shared by every cell, or each cell's in the layout's cell order."""
    raw = dz["variances"]
    if isinstance(raw, (int, float)):
        return float(raw)
    unknown = set(raw) - {"default", "cells"}
    if unknown:
        raise ConfigError(f"unknown keys in design.variances: {sorted(unknown)}")
    if not isinstance(raw.get("cells", {}), dict):
        raise ConfigError("design.variances.cells must be an object")
    cells = {}
    for key, value in raw.get("cells", {}).items():
        label, _, arm = key.partition("|")
        cell = (parse_stratum_label(label), arm)
        if cell in cells:
            raise ConfigError(f"design.variances.cells names cell '{stratum_label(cell[0])}|{arm}' twice")
        cells[cell] = _number(value, f"design.variances.cells[{key!r}]")
    layout = cell_layout(dz["m"], dz["treatment_scheme"])
    design_cells = [(layout.strata[j], arm) for j, arm in layout.cells]
    unknown = set(cells) - set(design_cells)
    if unknown:
        labels = sorted(f"{stratum_label(stratum)}|{arm}" for stratum, arm in unknown)
        raise ConfigError(f"design.variances.cells names cells outside the design: {labels}")
    out = []
    for stratum, arm in design_cells:
        if (stratum, arm) in cells:
            out.append(cells[(stratum, arm)])
        elif raw.get("default") is not None:
            out.append(_number(raw["default"], "design.variances.default"))
        else:
            raise ConfigError(f"missing variance for cell '{stratum_label(stratum)}|{arm}'")
    return out


def _analyze_study(config: dict) -> tuple[sim.SimScenario, sim.Study]:
    """The scenario and study of an analyze run, through every check it makes before calibrating."""
    dz = config["design"]
    counts = _parse_counts(dz)
    variances = _parse_variances(dz)
    design = build_design(dz["m"], dz["treatment_scheme"], counts, variances, dz["variance_mode"])
    return sim.SimScenario(**_sim_kwargs(config, N=design.N, runs=1)), sim.Study(design)


def run_analyze(config: dict, out_dir: Path) -> dict:
    """Single-study workflow: calibrate on the observed counts and report the interval."""
    scenario, study = _analyze_study(config)
    cal = sim.calibrate(scenario, study)
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


def _sim_kwargs(config: dict, **fields) -> dict:
    """The keywords of the mode's sim call (SimScenario, or study_scenarios or
    min_prevalence_grid_cells, which pass the keys they do not use on to
    SimScenario): every key it reads but _NOT_PASSED, under its own name, with
    a pi_min label resolved and explicit_prevalences a tuple; `fields` add the
    ones analyze takes from its study."""
    kwargs = {
        key: value for block in ("design", "interval", "engine")
        for key, value in config[block].items() if key not in _NOT_PASSED
    }
    if "pi_min" in kwargs:
        kwargs["pi_min"] = sim.resolve_pi_min(kwargs["pi_min"], kwargs["m"])
    if kwargs.get("explicit_prevalences") is not None:
        kwargs["explicit_prevalences"] = tuple(kwargs["explicit_prevalences"])
    return {**kwargs, **fields}


def run_simulate(config: dict, out_dir: Path) -> dict:
    scenario = sim.SimScenario(**_sim_kwargs(config))
    result = sim.run_scenario(scenario, threads=config["engine"]["threads"])
    out_dir.mkdir(parents=True, exist_ok=True)
    sim.write_aggregate_csv([result], out_dir / "aggregate.csv")
    sim.write_records_csv(result, out_dir / "records.csv")
    summary = {
        "coverage": result.coverage,
        "mean_length": result.mean_length,
        "failures": result.failures,
        "failure_causes": result.failure_causes,
    }
    print(
        f"scenario {scenario.setting} m={scenario.m} N={scenario.N}: "
        f"coverage={result.coverage:.4f} mean_length_e3={result.mean_length * 1e3:.3f} "
        f"failures={result.failures}"
    )
    return summary


def run_study_distribution_mode(config: dict, out_dir: Path) -> dict:
    dist = sim.run_study_distribution(**_sim_kwargs(config), threads=config["engine"]["threads"])
    out_dir.mkdir(parents=True, exist_ok=True)
    sim.write_study_csv(dist, out_dir / "studies.csv")
    summary = dist.summary()
    print(
        "study distribution: "
        + " ".join(f"{k}={v:.4g}" for k, v in summary.items())
    )
    summary["failure_causes"] = dist.failure_causes
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def run_minprev_grid(config: dict, out_dir: Path) -> dict:
    rows = sim.run_min_prevalence_grid(**_sim_kwargs(config), threads=config["engine"]["threads"])
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
    parser.add_argument(
        "--threads", type=int, default=None,
        help="process count override: the processes that run the simulations, this one included",
    )
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
        mode = resolved["mode"]
        for flag, block, key in (("seed", "engine", "master_seed"), ("threads", "engine", "threads"),
                                 ("out", "output", "directory")):
            if getattr(args, flag) is None:
                continue
            if key not in resolved[block]:
                raise ConfigError(f"--{flag}: mode {mode} reads no {block}.{key}")
            resolved[block][key] = getattr(args, flag)
        if args.dry_run:
            # build what the run would run, through the run's own checks
            if mode == ANALYZE:
                _analyze_study(resolved)
            elif mode == SIMULATE:
                sim.checked_truths([sim.SimScenario(**_sim_kwargs(resolved))], resolved["engine"]["threads"])
            elif mode == STUDIES:
                sim.checked_truths(sim.study_scenarios(**_sim_kwargs(resolved)), resolved["engine"]["threads"])
            else:
                cells = sim.min_prevalence_grid_cells(**_sim_kwargs(resolved))
                sim.checked_truths([scenario for *_, scenario in cells], resolved["engine"]["threads"])
            print(json.dumps(resolved, indent=2))
            return 0
        out_dir = Path(resolved["output"]["directory"])
        runner = {
            "analyze": run_analyze,
            "simulate": run_simulate,
            "study-distribution": run_study_distribution_mode,
            "minprev-grid": run_minprev_grid,
        }[mode]
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
