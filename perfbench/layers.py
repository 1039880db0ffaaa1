"""Per-layer metrics from the spans of a traced pass.

Timings cover every traced round and are normalised per simulation run
(totals) or given as percentiles of single calls. The exact counters cover
only the first `exact_rounds` rounds, whose inputs depend on the seed alone,
so for one seed they repeat exactly; `EXACT` lists them.

A span's self time is its duration minus the time its child spans cover.
Calls made inside pool workers are not traced, so on `studies_pool` only the
sim layer and its pools are measured.
"""

from __future__ import annotations

import numpy as np

from tracer import END, ID, INFO, NAME, PARENT, ROUND, START

EXACT = (
    "pwer.evals_per_solve",
    "pwer.cdf_calls_per_solve",
    "mvprob.qmc_points_per_solve",
    "mvprob.sobol_engines_per_solve",
    "boot.fwer_curves_per_run",
    "sim.pools_started",
    "boot.rejected_resample_frac",
    "pwer.verify_gap_max",
    "mvprob.max_error_estimate",
)

SIM_SPANS = ("sim.run_study_distribution", "sim.run_scenario", "sim._run_single")
SOLVE = "pwer.solve_critical_values"
RUN = "sim._run_single"
CDF = ("mvprob.mvn_cdf", "mvprob.mvt_cdf")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans, calls, workload, exact_rounds: int):
    """Return ({name: (value, unit)}, EXACT) for one traced pass."""
    runs = sum(c.runs for c in calls)
    studies = sum(c.runs // workload.cell(c.cell).params["runs_per_study"]
                  for c in calls if workload.entry == "studies")
    dur = np.array([s[END] - s[START] for s in spans])
    covered = np.zeros(len(spans))
    # parents open before their children, so one forward pass finds, for each
    # span, the solve and the run it belongs to (-1 for none)
    solve_of = np.full(len(spans), -1)
    run_of = np.full(len(spans), -1)
    for s in spans:
        i, p = s[ID], s[PARENT]
        if p >= 0:
            covered[p] += dur[i]
            solve_of[i], run_of[i] = solve_of[p], run_of[p]
        if s[NAME] == SOLVE:
            solve_of[i] = i
        elif s[NAME] == RUN:
            run_of[i] = i
    own = dur - covered

    def named(*names, exact=False):
        return [s[ID] for s in spans if s[NAME] in names and (not exact or s[ROUND] < exact_rounds)]

    def ms_per_run(*names, self_time=False):
        return 1e3 * _ratio(float((own if self_time else dur)[named(*names)].sum()), runs)

    def ms_percentile(name, q):
        return 1e3 * _percentile(list(dur[named(name)]), q)

    solves = named(SOLVE, exact=True)
    solve_set = set(solves)
    solved = [i for i in solves if spans[i][INFO] and "evaluations" in spans[i][INFO]]
    empirical_runs = {run_of[i] for i in named("boot.solve_critical_empirical", exact=True)}
    e_info = [spans[i][INFO] for i in named("boot.bootstrap_null_E", exact=True)]
    rejected = sum(x["rejected"] for x in e_info)
    cdf_errors = [spans[i][INFO]["error"] for i in named(*CDF, exact=True) if "error" in (spans[i][INFO] or {})]

    metrics = {
        "sim.self_ms_per_run": (ms_per_run(*SIM_SPANS, self_time=True), "ms"),
        "sim.pools_started": (len(named("sim.ProcessPoolExecutor", exact=True)), "count"),
        "sim.pool_ms_per_study": (1e3 * _ratio(float(dur[named("sim.ProcessPoolExecutor")].sum()), studies), "ms"),
        "sim.run_scenario.ms_p50": (ms_percentile("sim.run_scenario", 50), "ms"),
        "sim.run_scenario.ms_p90": (ms_percentile("sim.run_scenario", 90), "ms"),
        "design.build_design.ms_per_run": (ms_per_run("design.build_design"), "ms"),
        "pwer.build_test_model.ms_per_run": (ms_per_run("pwer.build_test_model"), "ms"),
        "pwer.solve_critical_values.ms_p50": (ms_percentile(SOLVE, 50), "ms"),
        "pwer.solve_critical_values.ms_p90": (ms_percentile(SOLVE, 90), "ms"),
        "pwer.evals_per_solve": (
            _ratio(sum(spans[i][INFO]["evaluations"] for i in solved), len(solved)), "evals/solve"),
        "pwer.cdf_calls_per_solve": (
            _ratio(len([i for i in named(*CDF, exact=True) if spans[i][PARENT] in solve_set]),
                   len(solves)), "calls/solve"),
        "pwer.verify_gap_max": (max((spans[i][INFO]["verify_gap"] for i in solved), default=0.0), "prob"),
        "mvprob.mvn_cdf.ms_per_run": (ms_per_run("mvprob.mvn_cdf"), "ms"),
        "mvprob.mvt_cdf.ms_per_run": (ms_per_run("mvprob.mvt_cdf"), "ms"),
        "mvprob.bvn_cdf_many.self_ms_per_run": (ms_per_run("mvprob.bvn_cdf_many", self_time=True), "ms"),
        "mvprob.qmc_points_per_solve": (
            _ratio(sum(spans[i][INFO]["points"] for i in named("mvprob.qmc_integrate", exact=True)
                       if solve_of[i] >= 0 and "points" in (spans[i][INFO] or {})), len(solves)), "points/solve"),
        "mvprob.sobol_engines_per_solve": (
            _ratio(sum(solve_of[i] >= 0 for i in named("mvprob.qmc.Sobol", exact=True)), len(solves)), "engines/solve"),
        "mvprob.max_error_estimate": (max(cdf_errors, default=0.0), "prob"),
        "boot.bootstrap_null_D.ms_per_run": (ms_per_run("boot.bootstrap_null_D"), "ms"),
        "boot.bootstrap_null_E.ms_per_run": (ms_per_run("boot.bootstrap_null_E"), "ms"),
        "boot.solve_critical_empirical.ms_per_run": (ms_per_run("boot.solve_critical_empirical"), "ms"),
        "boot.fwer_curves_per_run": (
            _ratio(len([i for i in named("boot.fwer_curves", exact=True) if run_of[i] in empirical_runs]),
                   len(empirical_runs)), "calls/run"),
        "boot.rejected_resample_frac": (
            _ratio(rejected, sum(x["B"] for x in e_info) + rejected), "ratio"),
    }
    return metrics, EXACT
