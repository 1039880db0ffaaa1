"""The benchmark's workloads: which cells each one runs and how a round mixes them.

A cell is one public `pwerpi.sim` call shape. A round calls every cell of its
workload once, each call with `runs` simulation runs and a master seed
derived from (benchmark seed, round, cell index). Rounds repeat until the time
budget is spent, so every round carries the same mix of cells.

All cells keep the package's numerical defaults (cdf_tol=1e-6, verify
tolerance 1e-7, solver_tol=1e-8), so a speed-up can never come from a looser
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Cell:
    """One call shape.

    `params` are `SimScenario` keywords, or `run_study_distribution` keywords
    for a studies cell. `runs` is the number of simulation runs one call
    makes; for a studies cell it is studies x runs_per_study.
    """

    name: str
    params: dict
    runs: int
    ref_runs: int = 6  # runs per reference (gate) call on fixed inputs


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "scenario" (run_scenario) or "studies" (run_study_distribution)
    cells: tuple[Cell, ...]
    why: str
    gate_only: tuple[Cell, ...] = ()  # checked on fixed inputs but not timed

    def cell(self, name: str) -> Cell:
        return next(c for c in self.cells + self.gate_only if c.name == name)


def _studies(studies: int, runs_per_study: int) -> dict:
    return dict(
        m=3, setting="A", N=250, studies=studies, runs_per_study=runs_per_study, threads=2
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coverage_exact",
            "scenario",
            (
                Cell("A_m2", dict(N=250, m=2, setting="A"), runs=40),
                Cell("B_m2", dict(N=250, m=2, setting="B"), runs=40),
                Cell("C_m2", dict(N=250, m=2, setting="C"), runs=40),
                Cell("A_m3", dict(N=250, m=3, setting="A"), runs=20),
                Cell("C_m3", dict(N=250, m=3, setting="C"), runs=8),
                Cell(
                    "A_m3_floor",
                    dict(
                        N=250, m=3, setting="A", prevalence_scheme="one_small",
                        transform="floor", pi_min=1.0 / (2 ** (3 + 2) - 4),
                    ),
                    runs=20,
                ),
            ),
            "pwer calibration over the deterministic bvn/tvn/t quadratures; no QMC, boot or pool",
        ),
        Workload(
            "coverage_qmc",
            "scenario",
            (
                Cell("A_m4", dict(N=500, m=4, setting="A"), runs=6),
            ),
            "4-dim strata go through scrambled-Sobol QMC; the only workload that builds Sobol engines",
            # The t integrand at m=4 has a heavy tail (one seed drew a 37 s
            # run against a 2.6 s median), which no run of a few tens of
            # seconds can time steadily; it is checked on a fixed input only.
            gate_only=(Cell("C_m4", dict(N=500, m=4, setting="C"), runs=1, ref_runs=1),),
        ),
        Workload(
            "coverage_resample",
            "scenario",
            (
                Cell("D_satterthwaite_m2", dict(N=250, m=2, setting="D_satterthwaite",
                                                treatment_scheme="single"), runs=60),
                Cell("D_bootstrap_m2", dict(N=250, m=2, setting="D_bootstrap",
                                            treatment_scheme="single"), runs=60),
                Cell("E_m2", dict(N=250, m=2, setting="E", treatment_scheme="single"), runs=60),
            ),
            "B=2000 bootstrap nulls, empirical solver and fwer_curves sorts; 2-dim mvt via Satterthwaite",
        ),
        Workload(
            "studies_pool",
            "studies",
            (Cell("A_m3_studies", _studies(8, 20), runs=8 * 20, ref_runs=0),),
            "random-biomarker studies with threads=2: the only workload that starts process pools",
        ),
    )
}

# Every cell of every workload, in a fixed order: the traced run reports a
# per-cell time for each, so the set of per-layer metric names is the same on
# every workload.
ALL_CELLS = tuple(c.name for w in WORKLOADS.values() for c in w.cells)

# Fixed master seed of the reference (gate) inputs; independent of --seed.
REFERENCE_SEED = 20260217
# Reference studies call of the gate: few studies, fixed seed.
REFERENCE_STUDIES = _studies(3, 10)


def derived_seed(*entropy: int) -> int:
    """A 63-bit master seed from integer entropy."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0] >> np.uint64(1))


def call_cell(sim, workload: Workload, cell: Cell, master_seed: int, runs: int | None = None):
    """One public sim call for `cell`; returns its SimResult or StudyDistribution.

    `sim.run_scenario` and `sim.run_study_distribution` are looked up at call
    time, so a traced pass sees the tracer's wrappers. Runs the program
    excludes are counted, never fatal: the benchmark reports their share.
    """
    if workload.entry == "studies":
        return sim.run_study_distribution(master_seed=master_seed, **cell.params)
    scenario = sim.SimScenario(runs=runs or cell.runs, master_seed=master_seed, **cell.params)
    return sim.run_scenario(scenario, max_failure_fraction=1.0)


def warmup_call(sim, workload: Workload):
    """One run of the workload's first cell (for studies, one study), on fixed inputs."""
    cell = workload.cells[0]
    if workload.entry == "studies":
        return sim.run_study_distribution(master_seed=REFERENCE_SEED, **dict(cell.params, studies=1))
    return call_cell(sim, workload, cell, REFERENCE_SEED, runs=1)


def reference_call(sim, workload: Workload, cell: Cell):
    """The gate's call for `cell`, on fixed inputs that do not depend on --seed."""
    if workload.entry == "studies":
        return sim.run_study_distribution(master_seed=REFERENCE_SEED, **REFERENCE_STUDIES)
    return call_cell(sim, workload, cell, REFERENCE_SEED, runs=cell.ref_runs)
