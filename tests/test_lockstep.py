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

from oracles import lockstep_calls

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
# the FWERs of the zero-weight strata of A at m=3, N=60, one_small (seed 4), and the QMC
# calls of a block of A at m=5 (seed 11), as a verify pass computes them that evaluates every
# zero-weight stratum anew: keeping the steps' quadrature must give the same bits
ZERO_WEIGHT_FWER_SHA256 = "e3a2489b80f3d66884b631ef5360f6bc3f5a73ca65a16d9e11f1f1d9c2c1b0ed"
QMC_CALLS, QMC_CALLS_SHA256 = 12, "6e9ddee9a8c5e9714b4f36221f81512cbee5a296b415253b1bf79e723f3147fe"
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
    # the benchmark's resampling cells; their stacks of runs (boot.chunks) cut blocks of 7 and 40
    *[pytest.param(dict(m=2, setting=setting, treatment_scheme="single"), id=f"{setting}_m2_single")
      for setting in ("D_satterthwaite", "D_bootstrap", "E")],
    # seven strata, whose maxima tie across up to four strata
    pytest.param(dict(m=3, setting="D_bootstrap"), id="D_bootstrap_m3"),
    # at N=16 half the runs redraw resamples with an empty population arm
    pytest.param(dict(N=16, m=2, setting="E"), id="E_m2_redrawn"),
])
def test_records_do_not_depend_on_the_block_size(monkeypatch, tmp_path, fields):
    scenario = sim.SimScenario(**{"N": 250, "runs": 40, "master_seed": 17, **fields})
    written = []
    for size in (1, 7, 40):
        monkeypatch.setattr(sim, "_BLOCK_RUNS", size)
        written.append(records_csv(scenario, tmp_path / f"records_{size}.csv"))
    assert written[0] == written[1] == written[2]
    if scenario.N == 16:
        rejected = [int(row.split(",")[-1]) for row in written[0].decode().splitlines()[1:]]
        assert max(rejected) > 0


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
    assert digest == "3dfcf6df45164a1cc6ebbb12feba983f7dfae4391a33cb5ae9335e75a213ba76"
    with pytest.raises(pwerpi.InfeasibleDesignError, match="true prevalence weights"):
        sim._run_single(FAILING, pi_true, 0)


def test_a_run_failing_inside_the_lockstep_fails_alone(monkeypatch):
    scenario = sim.SimScenario(N=250, m=3, setting="A", runs=12, master_seed=5)
    pi_true = sim.resolve_true_prevalences(scenario)
    clean = sim._run_block(scenario, pi_true, range(scenario.runs))
    evaluate, steps = pwer._evaluate, []

    def failing_third_run(plan, runs, c):
        out = evaluate(plan, runs, c)
        steps.append(len(runs))
        if len(steps) == 2:  # the second step: run 2 fails mid-solve
            out.failed[2] = pwerpi.NumericalError("QMC budget exhausted")
        return out

    monkeypatch.setattr(pwer, "_evaluate", failing_third_run)
    block = sim._run_block(scenario, pi_true, range(scenario.runs))
    assert block[2] == (2, "NumericalError: QMC budget exhausted")
    assert block[:2] + block[3:] == clean[:2] + clean[3:]
    # the failed run leaves the lockstep; every other run still takes its three evaluations
    assert steps == [12, 12, 11]


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
    # at most three stacked evaluations per run, one call per orthant group per
    # lockstep step, and no QMC on these cells
    evaluations, per_step, groups, counts = [], [], [], {}
    solve = pwer.solve_lockstep

    def recording_solve(*args):
        out = solve(*args)
        evaluations.extend(cv.evaluations for cv in out)
        return out

    evaluate = pwer._evaluate

    def step(plan, runs, c):
        groups.clear()
        out = evaluate(plan, runs, c)
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
    assert len(evaluations) == 2 * fields["runs"] and max(evaluations) <= 3
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
    monkeypatch.setattr(pwer, "solve_lockstep", lambda models, *a: lockstep.append(len(models)) or solve(models, *a))
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
    assert len(steps) >= 3 * len(plans)


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


def test_a_planned_block_binds_every_step(monkeypatch):
    # once a block of A at m=4 is planned, its steps and verify pass read the bound kernels,
    # paths and chi-scale nodes of its groups: no take, _kernel, _path or _chi_scale_nodes
    # call; the plan builds the paths of its 3- and 4-dim groups and four kernels, the base
    # pairs of its 2-, 3- and 4-dim groups and the 4-dim path's conditional pairs
    counts, planned, solved = {}, [], []

    def count(owner, name, key):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: counts.update({key: counts.get(key, 0) + 1}) or original(*a, **k))

    for owner, name, key in [(mvprob._Kernel, "take", "_Kernel.take"), (mvprob._Path, "take", "_Path.take"),
                             (mvprob, "_kernel", "_kernel"), (mvprob, "_path", "_path"),
                             (mvprob, "_chi_scale_nodes", "_chi_scale_nodes")]:
        count(owner, name, key)
    plan, solve = pwer._Plan, pwer.solve_lockstep
    monkeypatch.setattr(pwer, "_Plan", lambda *a: (plan(*a), planned.append(dict(counts)))[0])
    monkeypatch.setattr(pwer, "solve_lockstep", lambda *a: (solve(*a), solved.append(dict(counts)))[0])
    for seed in (11, 12, 13):
        counts.clear()
        scenario = sim.SimScenario(N=500, m=4, setting="A", runs=sim._BLOCK_RUNS, master_seed=seed)
        assert sim.run_scenario(scenario).failures == 0
    assert planned == solved == [{"_path": 2, "_kernel": 4}] * 3


def zero_weight_fwer(monkeypatch, scenario):
    """(run, stratum, FWER_J(c*)) of every zero-weight stratum of the scenario's lockstep calls."""
    calls = lockstep_calls(monkeypatch)
    assert sim.run_scenario(scenario, max_failure_fraction=1.0).failures == 0
    return [(r, j, cv.fwer[j].item()) for models, weights, _, _, out in calls
            for r, cv in enumerate(out) for j in np.flatnonzero(weights[r] == 0.0).tolist()]


def test_zero_weight_strata_keep_their_verified_bits(monkeypatch):
    # the steps evaluate the zero-weight strata, and the verify pass keeps their quadrature:
    # the FWERs it reports for them are those the verify pass computed before it kept them
    scenario = sim.SimScenario(N=60, m=3, setting="A", prevalence_scheme="one_small", runs=64, master_seed=4)
    zero = zero_weight_fwer(monkeypatch, scenario)
    assert len({r for r, _, _ in zero}) == 42
    assert hashlib.sha256(repr(zero).encode()).hexdigest() == ZERO_WEIGHT_FWER_SHA256


def test_qmc_calls_of_a_block_keep_their_count_and_order(monkeypatch):
    # at m=5 every step takes the 5-dim strata by QMC on each run's solve stream, and the
    # verify pass on its verify stream: the same calls in the same order, with the same results
    calls = []
    qmc_cdf = mvprob.qmc_cdf

    def recording(upper, corr, df=None, tol=1e-6, rng=None, engines=None):
        out = qmc_cdf(upper, corr, df, tol, rng, engines)
        calls.append((np.asarray(upper).tolist(), corr.values.tolist(), df, tol, engines is None, tuple(out)))
        return out

    monkeypatch.setattr(mvprob, "qmc_cdf", recording)
    scenario = sim.SimScenario(N=250, m=5, setting="A", runs=3, master_seed=11)
    assert sim.run_scenario(scenario, max_failure_fraction=1.0).failures == 0
    assert len(calls) == QMC_CALLS
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == QMC_CALLS_SHA256


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
    plan = pwer._Plan(models, (1e-6, 1e-7), [None] * 8, weights)
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
    step = pwer._evaluate(plan, runs, c)
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
        counts = sim._draw_block(scenario, pi_true, [np.random.default_rng(0)])[0].design.strata_counts
        # runs build their designs in blocks (build_designs): call the wrapped build_design itself
        model = pwer.build_test_model(sim.build_design(2, "pairwise_different", counts, 1.0, "known_homogeneous"))
        assert isinstance(pwer.solve_critical_values(np.full(3, 1 / 3), model, 0.025), pwer.CriticalValues)
    finally:
        tracer.restore()
    assert {"sim.run_scenario", "sim._run_single", "design.build_design", "pwer.build_test_model",
            "pwer.solve_critical_values", "mvprob.bvn_cdf_many"} <= {span[2] for span in tracer.spans}
    assert all(getattr(owner, attr) is original for (owner, attr), original in zip(wrapped, originals))


def test_a_satterthwaite_block_reuses_its_chi_rules(monkeypatch):
    # every run has its own df, on both sides of the Gamma rule's threshold; the plan
    # binds each row's rules of the first two rungs for every step, so each (df, n) rule
    # is looked up once, and the rule cache holds a whole block
    rule = mvprob._chi_scale_nodes
    assert rule.cache_info().maxsize >= 3 * sim._BLOCK_RUNS  # up to three rungs a run
    keys = []
    monkeypatch.setattr(mvprob, "_chi_scale_nodes", lambda df, n: keys.append((df, n)) or rule(df, n))
    rule.cache_clear()
    scenario = sim.SimScenario(N=250, m=2, setting="D_satterthwaite", runs=sim._BLOCK_RUNS, master_seed=3)
    sim.run_scenario(scenario)
    assert {mvprob._chi_rule(df) for df, _ in keys} == {"gamma", "legendre"}
    assert keys and len(keys) == len(set(keys))
    assert rule.cache_info().misses == len(keys)


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
