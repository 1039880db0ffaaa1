"""Correctness checks: the gate on fixed reference inputs and the checks on timed outputs.

The gate re-runs every cell on fixed inputs (`workloads.REFERENCE_SEED`) and
compares with `reference.json`, recorded from the program at the commit that
added the benchmark:
- the count of runs the program excluded must be equal;
- coverage must lie within binomial noise;
- every calibrated c* must lie within C_STAR_TOL.
It also reports the sha256 of the `write_records_csv` output (`write_study_csv`
for studies) and whether it is bit-identical to the reference.

Timed outputs come from seed-dependent inputs that have no stored reference,
so they are checked for internal consistency and their coverage against the
reference coverage of the same cell.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

CDF_TOL = 1e-6
# The solver stops within 3*cdf_tol of alpha on either side, so two correct
# calibrations differ by at most 6*cdf_tol in PWER. Central differences put
# the slope dPWER/dc at c* near 0.06 in every cell of the benchmark (m = 2..4,
# normal and t); dividing by 0.01 leaves a sixfold margin.
C_STAR_TOL = 6.0 * CDF_TOL / 0.01
# Two-sided z for the binomial comparisons: a false alarm about once in 10^6.
COVERAGE_Z = 5.0


def summarize(result) -> dict:
    """What the gate compares: counts, coverage and c* of one call."""
    if hasattr(result, "rows"):  # StudyDistribution
        return {
            "failures": [row.failures for row in result.rows],
            "coverage": [row.coverage for row in result.rows],
            "mean_length": [row.mean_length for row in result.rows],
        }
    return {
        "runs": len(result.records) + result.failures,
        "failures": result.failures,
        "covered": sum(r.covered for r in result.records),
        "c_star": [r.c_star for r in result.records],
    }


def records_sha256(sim, results, scratch: Path) -> str:
    """sha256 over the CSV files the program writes for `results`, in order."""
    scratch.mkdir(parents=True, exist_ok=True)
    path = scratch / "records.csv"
    digest = hashlib.sha256()
    for result in results:
        if hasattr(result, "rows"):
            sim.write_study_csv(result, path)
        else:
            sim.write_records_csv(result, path)
        digest.update(path.read_bytes())
    path.unlink()
    return digest.hexdigest()


def binomial_close(k: float, n: int, k_ref: float, n_ref: int, z: float = COVERAGE_Z) -> bool:
    """Whether k/n and k_ref/n_ref differ by no more than z standard errors.

    The pooled share is clipped to [0.01, 0.99] so that a reference coverage
    of exactly 1 still tolerates a rare miss.
    """
    p = min(max((k + k_ref) / (n + n_ref), 0.01), 0.99)
    se = math.sqrt(p * (1.0 - p) * (1.0 / n + 1.0 / n_ref))
    return abs(k / n - k_ref / n_ref) <= z * se


def gate(reference: dict, summaries: dict[str, dict]) -> list[str]:
    """Compare the gate's summaries with the reference; return the failures."""
    problems = []
    for name, ref in reference.items():
        got = summaries[name]
        if got["failures"] != ref["failures"]:
            problems.append(f"{name}: excluded runs {got['failures']} != reference {ref['failures']}")
            continue
        if "c_star" in ref:
            if not binomial_close(got["covered"], got["runs"], ref["covered"], ref["runs"]):
                problems.append(f"{name}: covered {got['covered']}/{got['runs']} vs reference {ref['covered']}")
            gap = float(np.max(np.abs(np.subtract(got["c_star"], ref["c_star"]))))
            if gap > C_STAR_TOL:
                problems.append(f"{name}: c* differs from the reference by {gap:.3e} > {C_STAR_TOL:.1e}")
        else:
            runs = ref["runs_per_study"] * len(ref["coverage"])
            covered, covered_ref = (runs * float(np.mean(c)) for c in (got["coverage"], ref["coverage"]))
            if not binomial_close(covered, runs, covered_ref, runs):
                problems.append(f"{name}: study coverage {got['coverage']} vs reference {ref['coverage']}")
            if not np.allclose(got["mean_length"], ref["mean_length"], rtol=1e-2, atol=0.0, equal_nan=True):
                problems.append(f"{name}: mean lengths {got['mean_length']} vs reference {ref['mean_length']}")
    return problems


def bad_records(result, runs_per_study: int = 0) -> int:
    """Runs (or studies) whose output is not a valid interval and coverage flag."""
    if hasattr(result, "rows"):
        return sum(
            not (0.0 <= row.coverage <= 1.0 and 0 <= row.failures <= runs_per_study)
            or (not math.isfinite(row.mean_length) and row.failures < runs_per_study)
            for row in result.rows
        )
    fields = np.array([r[:9] for r in result.records], dtype=float).reshape(-1, 9)
    tp, lower, upper, covered, length, gamma, gamma_true, c_star, achieved = fields.T
    ok = (
        np.all(np.isfinite(fields), axis=1)
        & (tp >= 0.0) & (tp <= 1.0)
        & (lower <= upper) & (length >= 0.0) & (gamma >= 0.0)
        & ((covered == 1.0) == ((lower - 1e-12 <= tp) & (tp <= upper + 1e-12)))
    )
    return int(np.count_nonzero(~ok))


def coverage_problems(cells: dict[str, list], reference: dict) -> list[str]:
    """Coverage of each cell's timed calls against the cell's reference coverage."""
    problems = []
    for name, results in cells.items():
        ref = reference[name]
        if "studies" in ref:
            cov = np.array([row.coverage for res in results for row in res.rows])
            se = math.sqrt(ref["sd"] ** 2 * (1.0 / cov.size + 1.0 / ref["studies"]))
            if abs(cov.mean() - ref["mean"]) > COVERAGE_Z * se:
                problems.append(f"{name}: mean study coverage {cov.mean():.4f} vs reference {ref['mean']:.4f}")
            continue
        covered = sum(r.covered for res in results for r in res.records)
        n = sum(len(res.records) for res in results)
        if not binomial_close(covered, n, ref["covered"], ref["runs"]):
            problems.append(
                f"{name}: coverage {covered}/{n} vs reference {ref['covered']}/{ref['runs']}"
            )
    return problems
