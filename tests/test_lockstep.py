"""Lockstep calibration: a block's runs solve c* together in stacked evaluations."""

import gc
import hashlib
import importlib.util
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import pwerpi
from pwerpi import mvprob, pwer, sim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the cells of the benchmark's coverage_exact workload, and its A m=4 cell
EXACT_CELLS = {
    "A_m2": dict(N=250, m=2, setting="A", runs=40),
    "B_m2": dict(N=250, m=2, setting="B", runs=40),
    "C_m2": dict(N=250, m=2, setting="C", runs=40),
    "A_m3": dict(N=250, m=3, setting="A", runs=20),
    "C_m3": dict(N=250, m=3, setting="C", runs=8),
    "A_m3_floor": dict(N=250, m=3, setting="A", prevalence_scheme="one_small",
                       transform="floor", pi_min=1 / 28, runs=20),
}
A_M4 = dict(N=500, m=4, setting="A", runs=6)
C_M4 = dict(N=250, m=4, setting="C", runs=4)


def records_csv(scenario, path):
    sim.write_records_csv(sim.run_scenario(scenario, max_failure_fraction=1.0), path)
    return path.read_bytes()


@pytest.mark.parametrize("fields", [
    pytest.param(dict(m=2, setting="A"), id="A_m2"),
    pytest.param(dict(m=2, setting="B"), id="B_m2"),
    pytest.param(dict(m=2, setting="C"), id="C_m2"),
    pytest.param(dict(m=2, setting="D_satterthwaite"), id="D_satterthwaite_m2"),
    pytest.param(dict(m=2, setting="D_bootstrap"), id="D_bootstrap_m2"),
    pytest.param(dict(m=2, setting="E"), id="E_m2"),
    pytest.param(dict(m=3, setting="A"), id="A_m3"),
    pytest.param(dict(m=3, setting="C"), id="C_m3"),
    pytest.param(dict(m=3, setting="A", prevalence_scheme="one_small", transform="floor",
                      pi_min=1 / 28), id="A_m3_floor"),
    pytest.param(dict(m=4, setting="A"), id="A_m4"),
    pytest.param(dict(m=4, setting="C", runs=8), id="C_m4"),
])
def test_records_do_not_depend_on_the_block_size(monkeypatch, tmp_path, fields):
    scenario = sim.SimScenario(**{"N": 250, "runs": 40, "master_seed": 17, **fields})
    written = []
    for size in (1, 7, 40):
        monkeypatch.setattr(sim, "_BLOCK_RUNS", size)
        written.append(records_csv(scenario, tmp_path / f"records_{size}.csv"))
    assert written[0] == written[1] == written[2]


# N=30 with 2% on population 2: many runs leave it without both arms
FAILING = sim.SimScenario(N=30, m=2, setting="A", prevalence_scheme="explicit",
                          explicit_prevalences=(0.98, 0.02, 0.0), runs=50, master_seed=3)


def test_failing_runs_leave_the_rest_of_their_block():
    pi_true = sim.resolve_true_prevalences(FAILING)
    block = sim._run_block(FAILING, pi_true, range(FAILING.runs))
    alone = [pair for i in range(FAILING.runs) for pair in sim._run_block(FAILING, pi_true, [i])]
    assert block == alone
    failures = [payload for _, payload in block if isinstance(payload, str)]
    assert len(failures) == 44
    assert set(failures) == {
        "InfeasibleDesignError: true prevalence weights a stratum without a defined joint law"
    }
    # (run index, record or message) of every run, as runs calibrated one by one gave them
    digest = hashlib.sha256(repr(block).encode()).hexdigest()
    assert digest == "17d86ac840b90e49c23186027d5dc01a3405f370876569cf376ce057fb6caad3"
    with pytest.raises(pwerpi.InfeasibleDesignError, match="true prevalence weights"):
        sim._run_single(FAILING, pi_true, 0)


def test_a_run_failing_inside_the_lockstep_fails_alone(monkeypatch):
    scenario = sim.SimScenario(N=250, m=3, setting="A", runs=12, master_seed=5)
    pi_true = sim.resolve_true_prevalences(scenario)
    clean = sim._run_block(scenario, pi_true, range(scenario.runs))
    evaluate, steps = pwer._evaluate, []

    def failing_third_run(plan, runs, c, select, verify=False):
        out = evaluate(plan, runs, c, select, verify)
        steps.append(len(runs))
        if len(steps) == 2:  # the second step: run 2 fails mid-solve
            out.failed[2] = pwerpi.NumericalError("QMC budget exhausted")
        return out

    monkeypatch.setattr(pwer, "_evaluate", failing_third_run)
    block = sim._run_block(scenario, pi_true, range(scenario.runs))
    assert block[2] == (2, "NumericalError: QMC budget exhausted")
    assert block[:2] + block[3:] == clean[:2] + clean[3:]
    # the failed run leaves the lockstep; every other run still takes its four evaluations
    assert steps == [12, 12, 11, 11]


def counted(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("fields", [
    *[pytest.param(fields, id=name) for name, fields in EXACT_CELLS.items()],
    pytest.param(A_M4, id="A_m4"),
    pytest.param(C_M4, id="C_m4"),
])
def test_calibration_work_is_bounded(monkeypatch, fields):
    # at most four stacked evaluations per run, one call per orthant group per
    # lockstep step, and no QMC on these cells
    evaluations, per_step, groups, counts = [], [], [], {}
    solve = pwer.solve_lockstep

    def recording_solve(tasks):
        out = solve(tasks)
        evaluations.extend(cv.evaluations for cv in out)
        return out

    evaluate = pwer._evaluate

    def step(plan, runs, c, select, verify=False):
        groups.clear()
        out = evaluate(plan, runs, c, select, verify)
        per_step.append(list(groups))
        return out

    group_evaluate = mvprob.OrthantGroup.evaluate

    def law_evaluate(group, limits, rows=None, tol=1e-6):
        groups.append(("normal" if group.df is None else "t", group.dim, group.chi))
        return group_evaluate(group, limits, rows, tol)

    monkeypatch.setattr(mvprob.OrthantGroup, "evaluate", law_evaluate)
    counted(monkeypatch, mvprob, "_randomized_qmc", counts)
    sobol = []
    monkeypatch.setattr(mvprob.qmc, "Sobol", lambda *a, **k: sobol.append(a))
    monkeypatch.setattr(pwer, "solve_lockstep", recording_solve)
    monkeypatch.setattr(pwer, "_evaluate", step)
    for seed in (1, 2):
        result = sim.run_scenario(sim.SimScenario(master_seed=seed, **fields), max_failure_fraction=1.0)
        assert result.failures == 0
    assert len(evaluations) == 2 * fields["runs"] and max(evaluations) <= 4
    assert per_step and all(called and len(called) == len(set(called)) for called in per_step)
    assert counts == {} and sobol == []


@pytest.mark.parametrize("fields, qmc", [
    pytest.param(dict(N=250, m=3, setting="A", runs=20), False, id="A_m3"),
    pytest.param(C_M4, False, id="C_m4"),
    pytest.param(dict(N=250, m=5, setting="A", runs=2), True, id="A_m5"),
])
def test_only_qmc_strata_build_correlation_objects(monkeypatch, fields, qmc):
    # models and plans carry the validated m x m matrices as stacks; a CorrelationMatrix is
    # built only for a stratum that goes to QMC, one per qmc_cdf call
    counts = {}
    built = mvprob.CorrelationMatrix.__post_init__
    monkeypatch.setattr(mvprob.CorrelationMatrix, "__post_init__",
                        lambda self: counts.update(built=counts.get("built", 0) + 1) or built(self))
    counted(monkeypatch, mvprob, "qmc_cdf", counts)
    result = sim.run_scenario(sim.SimScenario(master_seed=3, **fields), max_failure_fraction=1.0)
    assert result.failures == 0
    calls = counts.get("qmc_cdf", 0)
    assert counts.get("built", 0) == calls and (calls > 0) == qmc


def test_a_block_is_planned_once(monkeypatch):
    # one plan, and one orthant_groups call per (law, stratum dimension), per solve_lockstep call,
    # however many steps it takes
    plans, grouped, steps, lockstep = [], [], [], []
    plan, orthant_groups, evaluate = pwer._Plan, mvprob.orthant_groups, pwer._evaluate
    solve = pwer.solve_lockstep
    monkeypatch.setattr(pwer, "solve_lockstep", lambda tasks: lockstep.append(len(tasks)) or solve(tasks))
    monkeypatch.setattr(pwer, "_Plan", lambda *a: plans.append(a) or plan(*a))
    monkeypatch.setattr(mvprob, "orthant_groups", lambda *a: grouped.append(a) or orthant_groups(*a))
    monkeypatch.setattr(pwer, "_evaluate", lambda *a: steps.append(a) or evaluate(*a))
    # two blocks of C at m=2, whose models are all t
    scenario = sim.SimScenario(N=250, m=2, setting="C", runs=2 * sim._BLOCK_RUNS, master_seed=4)
    sim.run_scenario(scenario)
    assert lockstep == [sim._BLOCK_RUNS] * 2
    # the 1- and 2-dim strata of the t law, each a stack (n, d, d) of all the block's runs
    assert len(plans) == 2 and [a[0].shape[1:] for a in grouped] == [(1, 1), (2, 2)] * 2
    assert all(len(a[0]) == sim._BLOCK_RUNS * d for a, d in zip(grouped, (2, 1) * 2))
    assert len(steps) >= 4 * len(plans)


def test_path_geometry_is_planned_once_per_group_and_dies_with_its_block(monkeypatch):
    # the 3- and 4-dim groups' path geometry of rungs 1 and 2 is built once, when the block is
    # planned; a third rung builds it for the rows that reach it alone, and nothing outlives the block
    built, planned, climbed, groups = [], [], [], []
    path, orthant_groups, evaluate = mvprob._path, mvprob.orthant_groups, mvprob.OrthantGroup.evaluate
    monkeypatch.setattr(mvprob, "_path", lambda corr, rungs: built.append((rungs, len(corr))) or path(corr, rungs))

    def grouped(*args):
        out = orthant_groups(*args)
        groups.extend(weakref.ref(group) for _, group in out)
        planned.extend(((12, 24), group.size) for _, group in out if group.dim > 2)
        return out

    def counted(self, *args):
        start = len(built)
        out = evaluate(self, *args)
        if self.dim > 2:
            reached = int(np.sum(out[2] == 12 + 24 + 48))
            climbed.append(reached)
            assert built[start:] == ([((48,), reached)] if reached else [])
        return out

    monkeypatch.setattr(mvprob, "orthant_groups", grouped)
    monkeypatch.setattr(mvprob.OrthantGroup, "evaluate", counted)
    scenario = sim.SimScenario(N=500, m=4, setting="A", runs=2 * sim._BLOCK_RUNS, master_seed=5)
    assert sim.run_scenario(scenario).failures == 0
    # one 3-dim and one 4-dim group per block, each planned once over every run's strata
    assert [b for b in built if b[0] == (12, 24)] == planned
    assert [size for _, size in planned] == [4 * sim._BLOCK_RUNS, sim._BLOCK_RUNS] * 2
    assert len(climbed) > len(planned)  # each group evaluated at more than one step
    gc.collect()
    assert groups and all(ref() is None for ref in groups)


def test_stacked_pwer_sums_have_the_bits_of_each_runs_own_sum():
    # runs of m = 4 (15 strata, past the eight terms numpy's unrolled sum starts at),
    # each with its own zero-weight strata, sum in one pass per mask pattern
    rng = np.random.default_rng(17)
    models, weights = [], []
    for k in range(8):
        counts = rng.integers(5, 60, size=15)
        counts[rng.choice(15, size=k % 5, replace=False)] = 0
        d = pwerpi.design.build_design(4, "pairwise_different", counts, 1.0, "known_homogeneous")
        models.append(pwer.build_test_model(d, allow_empty_populations=True))
        weights.append(counts / counts.sum())
    weights[7] = weights[6]  # two runs share a pattern
    plan = pwer._Plan(models, [(1e-6, 1e-7)] * 8, [None] * 8, weights)
    runs = np.arange(8)
    values = rng.uniform(0.5, 1.0, size=(8, 15))
    stacked = plan.pwer(runs, values)
    for r in runs:
        mask = weights[r] > 0.0
        assert stacked[r] == np.sum(weights[r][mask] * (1.0 - values[r][mask]))
    # a subset of the runs, in another order
    subset = np.array([5, 0, 3])
    assert plan.pwer(subset, values[subset]).tolist() == stacked[subset].tolist()
    # and the PWERs of a real step: the runs of one lockstep call against a run alone
    c = np.full((8, 4), 2.2)
    step = pwer._evaluate(plan, runs, c, plan.mask)
    together = plan.pwer(runs, step.value)
    for r in runs:
        alone = pwer.pwer_value(2.2, weights[r], models[r])
        assert together[r] == alone


def test_perfbench_tracer_installs_and_restores():
    # every name the benchmark's traced mode wraps must exist, and traced calls must work
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [(sim, "_run_single"), (sim, "build_design"), (pwer, "solve_critical_values"),
               (pwer, "build_test_model"), (mvprob, "bvn_cdf_many"), (mvprob.qmc, "Sobol")]
    originals = [getattr(owner, attr) for owner, attr in wrapped]
    scenario = sim.SimScenario(N=250, m=2, setting="A", runs=3, master_seed=1)
    pi_true = sim.resolve_true_prevalences(scenario)
    untraced = sim.run_scenario(scenario).records
    tracer = tracing.Tracer()
    tracing.install(tracer, pwerpi)
    try:
        assert sim.run_scenario(scenario).records == untraced
        assert sim._run_single(scenario, pi_true, 0) == untraced[0]
        model = pwer.build_test_model(sim._draw(scenario, pi_true, np.random.default_rng(0)).design)
        assert isinstance(pwer.solve_critical_values(np.full(3, 1 / 3), model, 0.025), pwer.CriticalValues)
    finally:
        tracer.restore()
    assert {"sim.run_scenario", "sim._run_single", "design.build_design", "pwer.build_test_model",
            "pwer.solve_critical_values", "mvprob.bvn_cdf_many"} <= {span[2] for span in tracer.spans}
    assert all(getattr(owner, attr) is original for (owner, attr), original in zip(wrapped, originals))


def test_a_satterthwaite_block_reuses_its_chi_rules(monkeypatch):
    # every run has its own df, on both sides of the Gamma rule's threshold; the
    # rule cache holds a whole block, so each (df, n) rule is built once
    rule = mvprob._chi_scale_nodes
    assert rule.cache_info().maxsize >= 3 * sim._BLOCK_RUNS  # up to three rungs a run
    keys = []
    monkeypatch.setattr(mvprob, "_chi_scale_nodes", lambda df, n: keys.append((df, n)) or rule(df, n))
    rule.cache_clear()
    scenario = sim.SimScenario(N=250, m=2, setting="D_satterthwaite", runs=sim._BLOCK_RUNS, master_seed=3)
    sim.run_scenario(scenario)
    assert {mvprob._chi_rule(df) for df, _ in keys} == {"gamma", "legendre"}
    info = rule.cache_info()
    assert info.hits > 0 and info.misses <= len(set(keys))


LAZY_QMC = """
import sys
import numpy as np
import pwerpi
from pwerpi import design, mvprob, pwer, sim
assert "scipy.stats" not in sys.modules, "import pwerpi imported scipy.stats"
# C at m=2 has t strata of df >= 80, so it builds the Gamma chi-scale rule
sim.run_scenario(sim.SimScenario(N=250, m=2, setting="C", runs=2, master_seed=1))
assert mvprob._chi_scale_nodes.cache_info().misses > 0
for name in ("scipy.linalg", "scipy.stats"):
    assert name not in sys.modules, f"a C m=2 solve imported {name}"
counts = [30, 22, 18, 25, 14, 20, 16, 28, 12, 19, 24, 15, 21, 17, 26,
          23, 11, 27, 13, 29, 18, 22, 16, 25, 20, 14, 24, 19, 21, 17, 26]
d = design.build_design(5, "pairwise_different", counts, 1.0, "known_homogeneous")
built = []
sobol = mvprob.qmc.Sobol
mvprob.qmc.Sobol = lambda *a, **k: built.append(a) or sobol(*a, **k)
weights = np.asarray(counts, float) / sum(counts)
pwer.solve_critical_values(weights, pwer.build_test_model(d), 0.025, rng=np.random.default_rng(2026))
print(len(built))
"""


def test_import_leaves_scipy_stats_out_until_qmc_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(pwerpi.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", LAZY_QMC], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the m=5 stratum's 12 engines, shared by every evaluation, and 12 for the verify pass
    assert proc.stdout.split() == ["24"]
