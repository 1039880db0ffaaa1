"""A block's draw and record passes: stacked over its runs, each run's numbers bit for bit."""

import math

import numpy as np
import pytest
from scipy import special

from pwerpi import design as dz
from pwerpi import pwer, sim
from pwerpi.errors import ConfigError, NumericalError, PwerError

ALPHA, ALPHA_PRIME, N = 0.025, 0.05, 250


# The record pass's formulas as each run computed them one at a time, kept as
# the reference for the stacked pass.
def scalar_delta_gamma(pi, gradient):
    w, g = np.asarray(pi, dtype=float), np.asarray(gradient, dtype=float)
    g = np.where(w > 0.0, g, 0.0)
    quad = float(np.dot(w, g * g) - np.dot(w, g) ** 2)
    if quad < -1e-14:
        raise NumericalError(f"negative delta-method quadratic form: {quad:.3e}")
    return float(np.sqrt(max(quad, 0.0)))


def scalar_record(weights, factors, fwer, pi_true, truth, factors_true):
    gamma = scalar_delta_gamma(weights, factors * -fwer)
    half = float(special.ndtri(1.0 - ALPHA_PRIME / 2.0)) * gamma / math.sqrt(N)
    lower, upper = ALPHA - half, ALPHA + half
    tp = float(np.nansum(truth * fwer))
    return sim.RunRecord(
        true_pwer=tp, lower=lower, upper=upper, covered=bool(lower - 1e-12 <= tp <= upper + 1e-12),
        length=2.0 * half, gamma=gamma, gamma_true=scalar_delta_gamma(pi_true, factors_true * -fwer),
        c_star=2.2, achieved=ALPHA, rejected_resamples=0,
    )


def square_disagrees(d: float) -> bool:
    """Whether the scalar square (C pow) of d differs from the array square d * d."""
    return np.float64(d) ** 2 != np.square(np.array([d]))[0]


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("transform", ["none", "floor", "shift"])
def test_the_record_pass_has_the_bits_of_each_runs_own_calls(m, transform):
    rng = np.random.default_rng(100 * m + len(transform))
    n_strata = 2**m - 1
    pi_min = 1.0 / (2 ** (m + 2) - 4) if transform != "none" else 0.0
    # the true prevalences give the last stratum no weight: strata without a law may sit there
    pi_true = np.append(rng.dirichlet(np.ones(n_strata - 1)), 0.0)
    truth, factors_true = dz.transform_weights(pi_true, transform, pi_min)
    rows = []
    while len(rows) < 2000:
        prevalences = rng.dirichlet(np.full(n_strata, 0.4))
        if rng.random() < 0.3:
            prevalences[-1] = 0.0
        weights = rng.multinomial(N, prevalences / prevalences.sum()) / N
        fwer = rng.uniform(0.0, 0.06, n_strata) * rng.choice([1e-3, 0.1, 1.0])
        # a zero-weight stratum without a defined law, where the truth gives it none either
        if weights[-1] == 0.0 and rng.random() < 0.5:
            fwer[-1] = math.nan
        rows.append((weights, fwer))
    # runs with all weight on one stratum, whose mean gradient d = w . g takes the two squares apart
    crafted = 0
    while crafted < 24:
        weights, fwer = np.zeros(n_strata), rng.uniform(0.0, 0.06, n_strata)
        weights[rng.integers(n_strata)] = 1.0
        g = dz.transform_weights(weights, transform, pi_min)[1] * -fwer
        if square_disagrees(float(np.dot(weights, np.where(weights > 0.0, g, 0.0)))):
            rows.append((weights, fwer))
            crafted += 1
    scenario = sim.SimScenario(N=N, m=m, setting="A", alpha=ALPHA, alpha_prime=ALPHA_PRIME,
                               transform=transform, pi_min=pi_min)
    cals = []
    for weights, fwer in rows:
        used, factors = dz.transform_weights(weights, transform, pi_min)
        cv = pwer.CriticalValues(c=np.full(m, 2.2), alpha=ALPHA, achieved=ALPHA, verified=ALPHA,
                                 fwer=fwer, evaluations=3)
        cals.append(sim.Calibration(weights, used, factors, cv, 0))
    records = sim._records(scenario, pi_true, truth, factors_true, cals)
    zero_weights = nan_fwer = floored = 0
    for record, cal in zip(records, cals):
        expected = scalar_record(cal.weights, cal.factors, cal.cv.fwer, pi_true, truth, factors_true)
        assert repr(record) == repr(expected)
        # and the scalar functions, rows of one of the stacked forms, give the same bits
        iv = sim.interval(scenario, cal)
        assert repr((iv.lower, iv.upper, iv.length, iv.gamma)) == repr(expected[1:3] + expected[4:6])
        assert repr(cal.cv.true_pwer(truth)) == repr(expected.true_pwer)
        assert repr(pwer.delta_gamma(pi_true, cal.cv.gradient(factors_true))) == repr(expected.gamma_true)
        zero_weights += bool((cal.weights == 0.0).any())
        nan_fwer += bool(np.isnan(cal.cv.fwer).any())
        floored += bool((cal.factors == 0.0).any())
    assert zero_weights > 500 and nan_fwer > 100
    assert floored > 500 if transform == "floor" else floored == 0
    means = [float(np.dot(cal.weights, np.where(cal.weights > 0.0, cal.cv.gradient(cal.factors), 0.0)))
             for cal in cals]
    assert sum(map(square_disagrees, means)) >= 24


def test_a_negative_quadratic_form_or_a_bad_weight_fails_its_own_row():
    weights = np.array([[0.5, 0.5, 0.0], [2.0, 0.0, 0.0], [0.2, np.nan, 0.8], [0.3, 0.3, 0.4]])
    gradient = np.array([[-0.02, -0.03, -0.01], [-0.5, -0.1, -0.1], [-0.1, -0.1, -0.1], [-0.01, -0.02, -0.03]])
    gamma, failed = pwer.delta_gammas(weights, gradient)
    assert sorted(failed) == [1, 2]
    for r in range(4):
        if r in failed:
            with pytest.raises(type(failed[r]), match=str(failed[r])):
                pwer.delta_gamma(weights[r], gradient[r])
            assert math.isnan(gamma[r])
        else:
            assert gamma[r] == pwer.delta_gamma(weights[r], gradient[r])
    iv, negative = pwer.prediction_intervals(ALPHA, ALPHA_PRIME, [0.01, -0.2, 0.0], N)
    assert list(negative) == [1] and str(negative[1]) == "gamma must be nonnegative, got -0.2"
    assert iv.row(0) == pwer.prediction_interval(ALPHA, ALPHA_PRIME, 0.01, N)
    assert iv.contains(np.array([ALPHA, 0.5, ALPHA])).tolist() == [True, False, True]


def design_fields(design):
    return {name: value.tolist() if isinstance(value, np.ndarray) else value for name, value in vars(design).items()}


@pytest.mark.parametrize("m, scheme", [(2, "single"), (3, "pairwise_different"), (4, "pairwise_different")])
def test_stacked_designs_equal_each_design(m, scheme):
    rng = np.random.default_rng(m)
    layout = dz.cell_layout(m, scheme)
    counts = rng.integers(0, 40, size=(30, len(layout.strata)))
    variances = rng.uniform(0.5, 2.0, size=(30, len(layout.cells)))
    counts[3] = 0  # no patients
    counts[5, 1] = -2  # a negative count
    variances[7, 2] = 0.0  # a variance that is not positive
    counts[9], variances[9, 0] = 0, -1.0  # both: the counts fail first
    stacked = dz.build_designs(m, scheme, counts, variances, "known_heterogeneous")
    assert [r for r, d in enumerate(stacked) if isinstance(d, Exception)] == [3, 5, 7, 9]
    for r, design in enumerate(stacked):
        try:
            alone = dz.Design(m, scheme, counts[r], variances[r], "known_heterogeneous")
        except PwerError as exc:
            assert (type(design), str(design)) == (type(exc), str(exc))
            continue
        assert design_fields(design) == design_fields(alone) and repr(design) == repr(alone)
        for arr in (design.strata_counts, design.cell_variances, design.cell_sizes):
            assert not arr.flags.writeable
    # counts of other types take the checks a design built alone takes, row by row
    rows = [[83, 83, 84], [True, 1, 2], [1, "a", 2], [1.5, 2, 3], [np.nan, 1, 1], [10.0, -20.0, 30.0], [4.0, 5, 6]]
    stacked = dz.build_designs(2, "single", rows, np.ones((len(rows), 6)), "known_homogeneous")
    for row, design in zip(rows, stacked):
        try:
            alone = dz.build_design(2, "single", row, 1.0, "known_homogeneous")
        except PwerError as exc:
            assert (type(design), str(design)) == (type(exc), str(exc))
        else:
            assert design_fields(design) == design_fields(alone)
    assert [isinstance(d, dz.Design) for d in stacked] == [True, False, False, False, False, False, True]


def zero_variances_of_run(k):
    """A _draw_data whose k-th call of a block returns variances of zero: a design check fails it."""
    draw, calls = sim._draw_data, []

    def patched(scenario, layout, pi_true, rng):
        counts, variances = draw(scenario, layout, pi_true, rng)
        calls.append(rng)
        return counts, (np.zeros_like(variances) if len(calls) == k + 1 else variances)

    return "_draw_data", patched


def corrupt_weights_of_run(k, corrupt):
    """A _calibrate_block that hands the record pass run k's weights corrupted."""
    calibrate = sim._calibrate_block

    def patched(scenario, studies, runs, truth):
        out = calibrate(scenario, studies, runs, truth)
        out[k] = out[k]._replace(weights=corrupt(out[k].weights))
        return out

    return "_calibrate_block", patched


FAILING_RUN = {
    "design": (lambda: zero_variances_of_run(4),
               "ConfigError: all cell variances must be strictly positive"),
    "quadratic_form": (lambda: corrupt_weights_of_run(4, lambda w: 2.0 * w),
                       "NumericalError: negative delta-method quadratic form"),
    "weights": (lambda: corrupt_weights_of_run(4, lambda w: np.append(np.nan, w[1:])),
                "ConfigError: prevalence weights must be finite and nonnegative"),
}


@pytest.mark.parametrize("case", list(FAILING_RUN))
def test_a_run_failing_in_the_draw_or_record_pass_fails_alone(monkeypatch, case):
    patch, message = FAILING_RUN[case]
    scenario = sim.SimScenario(N=250, m=3, setting="B", runs=12, master_seed=8)
    pi_true = sim.resolve_true_prevalences(scenario)
    without = sim._run_block(scenario, pi_true, [i for i in range(12) if i != 4])
    monkeypatch.setattr(sim, *patch())
    block = sim._run_block(scenario, pi_true, range(12))
    assert block[4][0] == 4 and block[4][1].startswith(message)
    assert repr(block[:4] + block[5:]) == repr(without)


def test_runs_failing_in_their_draw_leave_the_rest_of_their_block():
    # at N=24 some D runs draw a populated cell of one patient, which has no sample variance
    scenario = sim.SimScenario(N=24, m=2, setting="D_satterthwaite", runs=30, master_seed=2)
    pi_true = sim.resolve_true_prevalences(scenario)
    block = sim._run_block(scenario, pi_true, range(scenario.runs))
    alone = [pair for i in range(scenario.runs) for pair in sim._run_block(scenario, pi_true, [i])]
    assert repr(block) == repr(alone)
    failures = {payload for _, payload in block if isinstance(payload, str)}
    assert "InfeasibleDesignError: a populated cell has a single patient" in failures
    assert sum(isinstance(payload, sim.RunRecord) for _, payload in block) >= 5


def test_satterthwaite_runs_fail_by_null_then_df_then_model(monkeypatch):
    # the block builds its t models in one call, after every run's null and df: each run
    # still fails with the first error of its own null, df and model, as alone
    scenario = sim.SimScenario(N=250, m=2, setting="D_satterthwaite", B=1000, runs=8, master_seed=6)
    pi_true = sim.resolve_true_prevalences(scenario)
    rngs = [np.random.default_rng(sim._run_seed(scenario.master_seed, i, 0)) for i in range(8)]
    key = [study.design.strata_counts.tobytes() for study in sim._draw_block(scenario, pi_true, rngs)]
    nulls, df = sim.boot.parametric_nulls, sim.boot.satterthwaite_df

    def patched_nulls(designs, B, rngs):
        # the block draws its nulls in stacks: runs 1 and 3 fail in theirs
        out = nulls(designs, B, rngs)
        for row, design in enumerate(designs):
            if key.index(design.strata_counts.tobytes()) in (1, 3):
                out.failed[row] = ConfigError("no null")
        return out

    def patched_df(design):
        run = key.index(design.strata_counts.tobytes())
        if run in (2, 3):
            raise NumericalError("no df")
        return math.nan if run == 4 else df(design)  # a NaN df fails the model

    monkeypatch.setattr(sim.boot, "parametric_nulls", patched_nulls)
    monkeypatch.setattr(sim.boot, "satterthwaite_df", patched_df)
    block = sim._run_block(scenario, pi_true, range(8))
    alone = [pair for i in range(8) for pair in sim._run_block(scenario, pi_true, [i])]
    assert repr(block) == repr(alone)
    assert [payload for _, payload in block[1:5]] == [
        "ConfigError: no null", "NumericalError: no df", "ConfigError: no null",
        "ConfigError: degrees of freedom must be a finite real >= 1, got nan",
    ]
    assert all(isinstance(payload, sim.RunRecord) for _, payload in block[:1] + block[5:])


def empty_population_of_run(k):
    """A _draw_data whose k-th call of a block moves every patient to stratum {2}:
    population 1 of that run has two empty arms."""
    draw, calls = sim._draw_data, []

    def patched(scenario, layout, pi_true, rng):
        counts, variances = draw(scenario, layout, pi_true, rng)
        calls.append(rng)
        return (np.array([0, counts.sum(), 0]) if len(calls) == k + 1 else counts), variances

    return patched


@pytest.mark.parametrize("setting", ["D_bootstrap", "D_satterthwaite"])
def test_a_run_with_an_empty_population_fails_alone_in_its_stack(monkeypatch, setting):
    # the nulls are drawn and studentised in stacks of runs; run 5's has no population 1
    scenario = sim.SimScenario(N=250, m=2, setting=setting, runs=12, master_seed=8)
    pi_true = sim.resolve_true_prevalences(scenario)
    clean = sim._run_block(scenario, pi_true, range(12))
    monkeypatch.setattr(sim, "_draw_data", empty_population_of_run(5))
    block = sim._run_block(scenario, pi_true, range(12))
    assert block[5] == (5, "InfeasibleDesignError: population 1 has an empty treatment arm")
    assert repr(block[:5] + block[6:]) == repr(clean[:5] + clean[6:])


def test_a_run_exhausting_its_redraws_fails_alone_in_its_stack(monkeypatch):
    # at N=30 run 3 alone redraws a resample; with a single round it cannot
    scenario = sim.SimScenario(N=30, m=2, setting="E", runs=12, master_seed=17)
    pi_true = sim.resolve_true_prevalences(scenario)
    clean = sim._run_block(scenario, pi_true, range(12))
    assert [record.rejected_resamples for _, record in clean] == [0, 0, 0, 1] + [0] * 8
    monkeypatch.setattr(sim.boot, "_MAX_REDRAW_ROUNDS", 1)
    block = sim._run_block(scenario, pi_true, range(12))
    assert block[3] == (3, "NumericalError: projection bootstrap kept producing empty population arms")
    assert repr(block[:3] + block[4:]) == repr(clean[:3] + clean[4:])
