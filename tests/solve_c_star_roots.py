"""Solve the root c*_ref of every pinned run's PWER, the yardstick of test_sim's root pins.

    PYTHONPATH=src python tests/solve_c_star_roots.py   (writes tests/c_star_roots.json)

Each pinned case of test_sim.PINNED_RECORDS that calibrates with the exact engine
(test_sim.ROOT_CASES), the shipped analyze config (test_cli.SHIPPED_REPORT) and
test_pwer's m4_solve are run as their tests run them; every run's model, weights and
integration seed are taken from its pwer.solve_lockstep call (oracles.lockstep_calls) and
solved again to |PWER - alpha| <= 1e-13 with every node ladder climbed to its finest rung
(mvprob.TOL_MIN lowered, so that no pair of rungs settles early). The 5-dim QMC stratum
of A_m5 is integrated at tol 1e-7 instead. Each run also records |PWER'(c*_ref)|, by a
central difference of step 1e-3 on the same rungs.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pwerpi import cli, mvprob, pwer  # noqa: E402

from oracles import lockstep_calls  # noqa: E402
import test_cli  # noqa: E402
import test_pwer  # noqa: E402
import test_sim  # noqa: E402

TIGHT = 1e-13
QMC_TOL = 1e-7
STEP = 1e-3


def case_inputs(run):
    """(model, weights, alpha, seed) of every run that run() calibrates."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = lockstep_calls(monkeypatch)
        run()
    return [(model, weights[r], alpha, seeds[r]) for models, weights, alpha, seeds, _ in calls
            for r, model in enumerate(models)]


def root(model, weights, alpha, seed, tol):
    [cv] = pwer.solve_lockstep([model], weights[None], alpha, [seed], TIGHT, tol, tol)
    if isinstance(cv, Exception):
        raise cv
    stream = np.random.default_rng(seed())
    ups = [pwer.pwer_value(cv.value + h, weights, model, tol, stream) for h in (-STEP, STEP)]
    return {"c_ref": cv.value, "gap": abs(cv.achieved - alpha), "slope": abs(ups[1] - ups[0]) / (2 * STEP)}


def main():
    mvprob.TOL_MIN = 1e-16
    out = {}
    cases = {case: (lambda fields=test_sim.PINNED_RECORDS[case][0]: test_sim.pinned_run(fields))
             for case in test_sim.ROOT_CASES}
    with tempfile.TemporaryDirectory() as out_dir:
        cases["analyze.json"] = lambda: cli.main(["--config", str(test_cli.CONFIGS / "analyze.json"), "--out", out_dir])
        cases["m4_solve"] = test_pwer.m4_solve
        for case, run in cases.items():
            tol = QMC_TOL if case == "A_m5" else 1e-6
            runs = [root(*inputs, tol) for inputs in case_inputs(run)]
            assert all(run["gap"] <= TIGHT for run in runs), case
            out[case] = runs
            print(case, max(run["gap"] for run in runs), flush=True)
    (HERE / "c_star_roots.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
