"""The array secant of a lockstep equals the scalar solve of each of its runs, bit for bit."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import special

from pwerpi import design as dz
from pwerpi import pwer, sim

from oracles import lockstep_calls, scalar_solves, secant, solve_one

ALPHA = 0.025


def same_result(got, want):
    """Equal CriticalValues field for field, bit for bit, or errors of one type and message."""
    if isinstance(want, Exception) or isinstance(got, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return (got.c.tolist() == want.c.tolist() and got.alpha == want.alpha and got.achieved == want.achieved
            and got.verified == want.verified and got.fwer.tolist() == want.fwer.tolist()
            and got.evaluations == want.evaluations)


@pytest.mark.parametrize("fields", [
    pytest.param(dict(N=N, m=m, setting=setting, runs=10, master_seed=31 * m + N),
                 id=f"{setting}_m{m}_N{N}")
    for setting in "ABC" for m in (2, 3, 4) for N in (40, 250)
] + [
    # 7 of its 39 solves take four evaluations, where every N = 250 cell takes three
    pytest.param(dict(N=40, m=4, setting="B", runs=40, master_seed=7), id="B_m4_N40_seed7"),
    # the solve stream of the 5-dim QMC stratum, and the verify pass's
    pytest.param(dict(N=250, m=5, setting="A", runs=2, master_seed=11), id="A_m5"),
])
def test_array_secant_equals_the_scalar_solve_of_every_run(monkeypatch, fields):
    calls = lockstep_calls(monkeypatch)
    sim.run_scenario(sim.SimScenario(**fields), max_failure_fraction=1.0)
    got = [cv for *_, out in calls for cv in out]
    want = scalar_solves(calls, secant)
    assert len(got) == len(want) > 0
    assert all(same_result(g, w) for g, w in zip(got, want))
    if fields["master_seed"] == 7:
        evaluations = sorted(cv.evaluations for cv in got if isinstance(cv, pwer.CriticalValues))
        assert evaluations == [3] * 32 + [4] * 7


LO = float(special.ndtri(1 - ALPHA))
HI = float(special.ndtri(1 - ALPHA / 4))


def shifted_tail(shift):
    return lambda c: 1.0 - float(special.ndtr(c - shift))


# TestSolverEdges' hand-set objectives PWER(c), one per exit of the secant
EXITS = {
    "failure at lo": lambda c: 0.5 * ALPHA,
    "failure at the lazy hi": shifted_tail(1.0),
    "early return at hi": shifted_tail(HI - LO + 5e-8),
    "staircase closing to _SOLVER_XTOL": lambda c: 1.0 - float(special.ndtr(1e-3 * math.floor(c / 1e-3) - 0.1)),
    "jumps": lambda c: 1.0 - float(special.ndtr(c - 0.1)) - 1e-6 * math.floor(c / 1e-4) + 0.03,
    "smooth root": shifted_tail(0.1),
}


def test_a_block_of_mixed_exits_gives_each_run_its_own_result(monkeypatch):
    # every run of one block takes its own exit; each run's model is its own object,
    # which the fake _evaluate maps to that run's objective
    base = pwer.build_test_model(dz.build_design(2, "pairwise_different", [50, 50, 75], 1.0, "known_homogeneous"))
    models = [dataclasses.replace(base) for _ in EXITS]
    objective = {id(model): f for model, f in zip(models, EXITS.values())}
    visits = {}

    def fake_evaluate(plan, runs, c, select, verify=False):
        f = [objective[id(plan.models[r])] for r in runs.tolist()]
        for r, c0 in zip(runs.tolist(), c[:, 0].tolist()):
            visits.setdefault(id(plan.models[r]), []).append(c0)
        value = np.repeat([[1.0 - f_k(c0)] for f_k, c0 in zip(f, c[:, 0].tolist())], select.shape[1], axis=1)
        return pwer._Evaluated(value, np.zeros(value.shape), np.ones(value.shape, int),
                               np.zeros(value.shape, bool), {})

    monkeypatch.setattr(pwer, "_evaluate", fake_evaluate)
    weights = np.full((len(models), 3), 1 / 3)
    block = pwer.solve_lockstep(models, weights, ALPHA, [lambda: 0] * len(models))
    for k, (name, model) in enumerate(zip(EXITS, models)):
        [alone] = pwer.solve_lockstep([model], weights[:1], ALPHA, [lambda: 0])
        assert same_result(block[k], alone), name
        assert same_result(block[k], solve_one(secant, model, weights[k], ALPHA, lambda: 0)), name
    exits = dict(zip(EXITS, block))
    assert "already below" in str(exits["failure at lo"])
    assert "still above" in str(exits["failure at the lazy hi"])
    assert exits["early return at hi"].value == HI
    assert abs(exits["staircase closing to _SOLVER_XTOL"].achieved - ALPHA) > pwer.DEFAULT_SOLVER_TOL
    assert abs(exits["smooth root"].achieved - ALPHA) <= pwer.DEFAULT_SOLVER_TOL
    # the block reached both lazy ends, and the staircase bisected its way there
    seen = {name: visits[id(model)] for name, model in zip(EXITS, models)}
    assert LO in seen["failure at lo"] and HI in seen["failure at the lazy hi"] and HI in seen["early return at hi"]
    assert LO in seen["staircase closing to _SOLVER_XTOL"] and len(seen["staircase closing to _SOLVER_XTOL"]) > 10


def test_a_run_whose_evaluation_fails_leaves_the_others_their_results(monkeypatch):
    evaluate, steps = pwer._evaluate, []
    base = pwer.build_test_model(dz.build_design(2, "pairwise_different", [50, 50, 75], 1.0, "known_homogeneous"))
    models = [dataclasses.replace(base) for _ in range(3)]
    weights = np.array([[0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3], [0.5, 0.1, 0.4]])
    clean = pwer.solve_lockstep(models, weights, ALPHA, [lambda: 0] * 3)

    def failing_middle_run(plan, runs, c, select, verify=False):
        out = evaluate(plan, runs, c, select, verify)
        steps.append(runs.tolist())
        if len(steps) == 2:
            out.failed[1] = pwer.NumericalError("QMC budget exhausted")
        return out

    monkeypatch.setattr(pwer, "_evaluate", failing_middle_run)
    block = pwer.solve_lockstep(models, weights, ALPHA, [lambda: 0] * 3)
    assert str(block[1]) == "QMC budget exhausted"
    assert same_result(block[0], clean[0]) and same_result(block[2], clean[2])
    assert steps == [[0, 1, 2], [0, 1, 2], [0, 2]]


def test_weights_are_checked_row_by_row():
    model = pwer.build_test_model(dz.build_design(2, "pairwise_different", [50, 50, 75], 1.0, "known_homogeneous"))
    weights = np.array([[1 / 3] * 3, [0.0] * 3, [0.5, math.nan, 0.5], [0.5, -0.1, 0.6]])
    out = pwer.solve_lockstep([model] * 4, weights, ALPHA, [lambda: 0] * 4)
    assert isinstance(out[0], pwer.CriticalValues)
    assert str(out[1]) == "prevalence vector has no positive component"
    assert str(out[2]) == str(out[3]) == "prevalence weights must be finite and nonnegative"
    with pytest.raises(pwer.ConfigError, match="prevalence weights have shape"):
        pwer.solve_lockstep([model], weights, ALPHA, [lambda: 0])
