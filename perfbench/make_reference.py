"""Record `reference.json`: the correctness gate's expected outputs.

    python3 perfbench/make_reference.py

For each workload it stores, from the program as it stands:
- gate: per cell, the excluded-run count, coverage and c* of the fixed-seed
  reference call, and the sha256 of the records those calls write;
- coverage: per cell, the coverage of a larger fixed-seed run, against which
  the timed runs' coverage is compared.
Run it again only when a change is meant to alter the program's outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"

# Runs (scenario cells) or studies (studies cells) behind each reference coverage.
COVERAGE_SIZE = {
    "A_m2": 2000, "B_m2": 2000, "C_m2": 2000, "A_m3": 1000, "C_m3": 400, "A_m3_floor": 1000,
    "A_m4": 60,
    "D_satterthwaite_m2": 2000, "D_bootstrap_m2": 2000, "E_m2": 2000,
    "A_m3_studies": 160,
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from pwerpi import sim

    import checks
    from workloads import REFERENCE_SEED, REFERENCE_STUDIES, WORKLOADS, call_cell, derived_seed, reference_call

    stored = {"workloads": {}}
    coverage_seed = derived_seed(REFERENCE_SEED, 1)

    for name, workload in WORKLOADS.items():
        results = {c.name: reference_call(sim, workload, c) for c in workload.cells + workload.gate_only}
        cells = {n: checks.summarize(r) for n, r in results.items()}
        if workload.entry == "studies":
            for summary in cells.values():
                summary["runs_per_study"] = REFERENCE_STUDIES["runs_per_study"]
        coverage = {}
        for cell in workload.cells:
            size = COVERAGE_SIZE[cell.name]
            if workload.entry == "studies":
                params = dict(cell.params, studies=size)
                dist = sim.run_study_distribution(master_seed=coverage_seed, **params)
                cov = [row.coverage for row in dist.rows]
                mean = sum(cov) / len(cov)
                sd = (sum((c - mean) ** 2 for c in cov) / (len(cov) - 1)) ** 0.5
                coverage[cell.name] = {"studies": size, "mean": mean, "sd": sd}
            else:
                res = call_cell(sim, workload, cell, coverage_seed, runs=size)
                coverage[cell.name] = {"runs": len(res.records),
                                       "covered": sum(r.covered for r in res.records)}
            print(name, cell.name, coverage[cell.name], flush=True)
        stored["workloads"][name] = {
            "gate": {
                "records_sha256": checks.records_sha256(sim, list(results.values()), ROOT / ".perfbench" / "ref"),
                "cells": cells,
            },
            "coverage": coverage,
        }
    stored["c_star_tol"] = checks.C_STAR_TOL
    REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
