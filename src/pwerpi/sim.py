"""Coverage simulations for the true-PWER prediction interval.

A scenario fixes true prevalences, a treatment scheme, and a distributional
setting; SETTINGS_TABLE gives each setting's design variance mode and
calibrating engine. Each run draws a study (the strata counts and the
setting's own data), calibrates critical values on the estimated prevalences
(`calibrate`), builds the interval (`interval`), and checks whether the
realized true PWER is covered. Runs go in blocks, each in three passes.
Pass 1 (_draw_block) draws every run from its own data stream and builds the
block's designs in one design.build_designs call. Pass 2 (_calibrate_block)
calibrates them together, the exact-engine ones in one lockstep
(pwer.solve_lockstep), which plans the block's strata once, steps every
run's scalar solver on stacked PWER evaluations and verifies the finished
runs in one stacked pass. Pass 3 (_records) computes every calibrated run's
gamma, interval, true PWER and coverage in one stacked pass. A run's records
do not depend on the block it went in, and a run that fails in any pass
fails alone. The CLI's analyze mode runs an observed study through the same
calibration and interval as a block of one. Aggregations reproduce the
coverage/length tables and the per-study distribution data.
"""

from __future__ import annotations

import csv
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import boot, pwer
from .design import (
    SIMPLEX_ATOL,
    CellLayout,
    Design,
    TRANSFORM_NONE,
    build_design,
    build_designs,
    cell_layout,
    check_transform,
    enumerate_strata,
    transform_weights,
)
from .errors import ConfigError, InfeasibleDesignError, NumericalError, PwerError


class Setting(NamedTuple):
    """A setting's design variance mode and the engine `calibrate` runs for it."""

    variance_mode: str
    engine: str


SETTINGS_TABLE = {
    "A": Setting("known_homogeneous", "exact"),
    "B": Setting("known_heterogeneous", "exact"),
    "C": Setting("unknown_homogeneous", "exact"),
    "D_satterthwaite": Setting("unknown_heterogeneous", "satterthwaite"),
    "D_bootstrap": Setting("unknown_heterogeneous", "parametric_bootstrap"),
    "E": Setting("unknown_homogeneous", "projection_bootstrap"),
}
SETTINGS = tuple(SETTINGS_TABLE)
# analyze runs an observed study as the setting whose engine reads nothing but
# the design: the exact one of its variance mode, else the parametric bootstrap
ANALYSIS_SETTINGS = {
    spec.variance_mode: setting for setting, spec in SETTINGS_TABLE.items()
    if spec.engine in ("exact", "parametric_bootstrap")
}
PREVALENCE_SCHEMES = ("equal", "one_large", "one_small", "random_biomarker", "explicit")

SETTING_E_SIGMA = 0.5


@dataclass(frozen=True)
class SimScenario:
    """One simulation configuration at a fixed true prevalence vector."""

    N: int
    m: int
    setting: str
    prevalence_scheme: str = "equal"
    treatment_scheme: str = "pairwise_different"
    explicit_prevalences: tuple[float, ...] | None = None
    alpha: float = 0.025
    alpha_prime: float = 0.05
    runs: int = 2000
    B: int = 2000
    pi_min: float = 0.0
    transform: str = TRANSFORM_NONE
    master_seed: int = 0

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ConfigError(f"unknown setting {self.setting!r}")
        if self.prevalence_scheme not in PREVALENCE_SCHEMES:
            raise ConfigError(f"unknown prevalence scheme {self.prevalence_scheme!r}")
        # cell_layout checks m and the treatment scheme
        check_transform(self.transform, self.pi_min, len(cell_layout(self.m, self.treatment_scheme).strata))
        if self.setting == "E" and self.m != 2:
            raise ConfigError("setting E is defined for m = 2 only")
        if self.runs < 1 or self.N < 1:
            raise ConfigError("runs and N must be positive")
        pwer.check_alpha(self.alpha)
        if not 0.0 < self.alpha_prime < 1.0:
            raise ConfigError(f"alpha_prime must lie in (0, 1), got {self.alpha_prime}")
        if SETTINGS_TABLE[self.setting].engine != "exact" and (
            self.B < boot.MIN_RESAMPLES or self.B * self.alpha < boot.MIN_TAIL_RESAMPLES
        ):
            raise ConfigError(
                f"setting {self.setting} needs B >= {boot.MIN_RESAMPLES} and "
                f"B*alpha >= {boot.MIN_TAIL_RESAMPLES}, got B={self.B}, alpha={self.alpha}"
            )


def scheme_prevalences(m: int, scheme: str, explicit: Sequence[float] | None = None) -> np.ndarray:
    """True prevalences over the canonical strata for the named scheme.

    one_large puts 0.5 on the all-populations stratum, one_small puts
    1/(2^(m+4) - 16) there; the remaining strata share the rest equally.
    """
    n_s = 2**m - 1
    if scheme == "equal":
        return np.full(n_s, 1.0 / n_s)
    if scheme == "one_large":
        values = np.full(n_s, 0.5 / (n_s - 1))
        values[-1] = 0.5
        return values
    if scheme == "one_small":
        small = 1.0 / (2 ** (m + 4) - 16)
        values = np.full(n_s, (1.0 - small) / (n_s - 1))
        values[-1] = small
        return values
    if scheme == "explicit":
        if explicit is None:
            raise ConfigError("explicit prevalence scheme needs a vector")
        values = np.asarray(explicit, dtype=float)
        if values.shape != (n_s,):
            raise ConfigError(f"explicit prevalences must have length {n_s}")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ConfigError("explicit prevalences must be finite and nonnegative")
        if abs(values.sum() - 1.0) > SIMPLEX_ATOL:
            raise ConfigError(f"explicit prevalences must sum to 1 (got {values.sum()!r})")
        return values
    raise ConfigError(
        f"prevalence scheme {scheme!r} has no fixed vector; draw it per study"
    )


def prevalences_from_biomarkers(p: Sequence[float]) -> np.ndarray:
    """Strata weights proportional to products of biomarker probabilities."""
    p = np.asarray(p, dtype=float)
    strata = enumerate_strata(p.shape[0])
    raw = np.empty(len(strata))
    for j, stratum in enumerate(strata):
        mask = np.zeros(p.shape[0], dtype=bool)
        mask[[i - 1 for i in stratum]] = True
        raw[j] = np.prod(np.where(mask, p, 1.0 - p))
    total = raw.sum()
    if total <= 0.0:
        raise ConfigError("all biomarker probabilities vanish")
    return raw / total


def generate_random_study(m: int, rng: np.random.Generator) -> np.ndarray:
    """Random-biomarker prevalences: expression probabilities ~ U(0,1)."""
    for _ in range(100):
        p = rng.uniform(size=m)
        if np.any(p > 0.0):
            values = prevalences_from_biomarkers(p)
            # normalised a second time: the recorded studies rest on this rounding
            return values / values.sum()
    raise NumericalError("random biomarker draw kept returning zeros")


class RunRecord(NamedTuple):
    true_pwer: float
    lower: float
    upper: float
    covered: bool
    length: float
    gamma: float
    gamma_true: float
    c_star: float
    achieved: float
    rejected_resamples: int


@dataclass
class SimResult:
    """Per-run records plus aggregate coverage and length statistics."""

    scenario: SimScenario
    records: list[RunRecord]
    failures: int = 0

    def __post_init__(self):
        if not self.records:
            raise NumericalError("scenario produced no successful runs")

    @property
    def coverage(self) -> float:
        return float(np.mean([r.covered for r in self.records]))

    @property
    def mean_length(self) -> float:
        return float(np.mean([r.length for r in self.records]))

    @property
    def sd_length(self) -> float:
        """Sample standard deviation of the interval lengths; 0.0 for a single run."""
        if len(self.records) < 2:
            return 0.0
        return float(np.std([r.length for r in self.records], ddof=1))

    @property
    def mean_true_pwer(self) -> float:
        return float(np.mean([r.true_pwer for r in self.records]))

    def aggregate_row(self) -> dict:
        sc = self.scenario
        return {
            "N": sc.N,
            "m": sc.m,
            "setting": sc.setting,
            "prevalence_scheme": sc.prevalence_scheme,
            "treatment_scheme": sc.treatment_scheme,
            "transform": sc.transform,
            "pi_min": repr(sc.pi_min),
            "runs": len(self.records),
            "failures": self.failures,
            "coverage": repr(self.coverage),
            "mean_length_e3": repr(self.mean_length * 1e3),
            "sd_length_e3": repr(self.sd_length * 1e3),
            "mean_true_pwer": repr(self.mean_true_pwer),
        }


class Study(NamedTuple):
    """One study: its design, with the cell variances its engine uses (observed
    ones for D), and setting E's observed effects and pooled variance."""

    design: Design
    effects: np.ndarray | None = None
    pooled_variance: float = 0.0


class Calibration(NamedTuple):
    """c* of one study; weights = counts / N, used and factors = their transform."""

    weights: np.ndarray
    used: np.ndarray
    factors: np.ndarray
    cv: pwer.CriticalValues
    rejected_resamples: int


def _draw_data(
    scenario: SimScenario, layout: CellLayout, pi_true: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The strata counts of one run, then its cell variances: 1 in every cell,
    or setting B's or D's own, drawn right after the counts."""
    counts = rng.multinomial(scenario.N, pi_true)
    if scenario.setting == "B":
        # one U(0,1) variance per stratum, shared by its arms
        return counts, rng.uniform(size=len(layout.strata))[layout.stratum_of_cell]
    if scenario.setting in ("D_satterthwaite", "D_bootstrap"):
        # observed variances: s^2 ~ sigma^2 chi^2_{n-1} / (n-1), sigma^2 ~ U(0,1)
        sizes = layout.split_counts(counts).astype(float)
        true_vars = rng.uniform(size=len(layout.cells))
        if np.any((sizes > 0) & (sizes < 2)):
            raise InfeasibleDesignError("a populated cell has a single patient")
        chi = rng.chisquare(np.maximum(sizes - 1.0, 1.0))
        return counts, np.where(sizes > 0, true_vars * chi / np.maximum(sizes - 1.0, 1.0), 1.0)
    return counts, np.ones(len(layout.cells))


def _study(scenario: SimScenario, pi_true: np.ndarray, design: Design, rng: np.random.Generator) -> Study:
    """A run's Study on its design; setting E then draws its effects and pooled variance."""
    if scenario.setting == "E":
        return Study(design, *boot.generate_setting_E_study(pi_true, design, SETTING_E_SIGMA, rng))
    return Study(design)


def _draw(scenario: SimScenario, pi_true: np.ndarray, rng: np.random.Generator) -> Study:
    """One run's study as _draw_block draws it, its design built alone (build_design)."""
    counts, variances = _draw_data(scenario, cell_layout(scenario.m, scenario.treatment_scheme), pi_true, rng)
    design = build_design(
        scenario.m, scenario.treatment_scheme, counts, variances,
        SETTINGS_TABLE[scenario.setting].variance_mode,
    )
    return _study(scenario, pi_true, design, rng)


def _draw_block(
    scenario: SimScenario, pi_true: np.ndarray, rngs: Sequence[np.random.Generator]
) -> list[Study | Exception]:
    """Pass 1: the Study of every run of a block, each drawn from its own stream rngs[k],
    or the error its draw raised.

    Each run draws its counts and cell variances (_draw_data), then the
    block's designs are built in one build_designs call, and setting E draws
    each run's effects on its design: every stream is read in the order a
    run drawn alone (_draw) reads it.
    """
    layout = cell_layout(scenario.m, scenario.treatment_scheme)
    out: list = [None] * len(rngs)
    drawn = {}
    for k, rng in enumerate(rngs):
        try:
            drawn[k] = _draw_data(scenario, layout, pi_true, rng)
        except pwer.RUN_ERRORS as exc:
            out[k] = exc
    designs = build_designs(
        scenario.m, scenario.treatment_scheme,
        np.array([counts for counts, _ in drawn.values()]),
        np.array([variances for _, variances in drawn.values()]),
        SETTINGS_TABLE[scenario.setting].variance_mode,
    )
    for k, design in zip(drawn, designs):
        try:
            out[k] = design if isinstance(design, Exception) else _study(scenario, pi_true, design, rngs[k])
        except pwer.RUN_ERRORS as exc:
            out[k] = exc
    return out


def calibrate(
    scenario: SimScenario,
    study: Study,
    boot_seed: np.random.SeedSequence,
    solve_seed: np.random.SeedSequence,
    truth: np.ndarray | None = None,
) -> Calibration:
    """Calibrate c* on the study's transformed prevalence estimates by its setting's engine.

    A block of one of _calibrate_block. truth, when given, is the transformed
    true prevalence vector; the exact engine refuses one that weighs a
    stratum without a defined joint law.
    """
    [cal] = _calibrate_block(scenario, [study], [(None, boot_seed, solve_seed).__getitem__], truth)
    if isinstance(cal, Exception):
        raise cal
    return cal


def _integration_seed(seed: Callable[[int], np.random.SeedSequence]) -> int:
    """The integration seed the exact engine draws from a run's solve stream."""
    return int(np.random.default_rng(seed(2)).integers(0, 2**63 - 1))


def _calibrate_block(
    scenario: SimScenario,
    studies: Sequence[Study],
    seeds: Sequence[Callable[[int], np.random.SeedSequence]],
    truth: np.ndarray | None,
) -> list[Calibration | Exception]:
    """The Calibration of every study of a block, or the error its run raised.

    seeds[k](stream) is study k's seed sequence of a run_streams stream (1
    the bootstrap's, 2 the solve's), built only when its engine reads it:
    the bootstrap engines read theirs up front, the exact engine its solve
    stream only once a QMC stratum or a verify recompute needs it. The
    bootstrap engines calibrate run by run. The exact-engine calibrations
    (exact and satterthwaite) build the models of the whole block in one
    pwer.build_test_models call, each with its run's df (satterthwaite's
    after its bootstrap null), and then run together in one
    pwer.solve_lockstep, each on its own model; satterthwaite's FWER comes
    from its bootstrap null afterwards.
    """
    engine = SETTINGS_TABLE[scenario.setting].engine
    out: list = [None] * len(studies)
    modeled = {}  # study index -> (weights, used, factors, bootstrap null or None, df or None)
    for k, (study, seed) in enumerate(zip(studies, seeds)):
        design = study.design
        weights = design.strata_counts / design.N
        try:
            used, factors = transform_weights(weights, scenario.transform, scenario.pi_min)
            null = df = None
            if engine == "projection_bootstrap":
                null = boot.bootstrap_null_E(
                    design, weights, study.effects, study.pooled_variance, scenario.B,
                    np.random.default_rng(seed(1)),
                )
                cv = boot.solve_critical_empirical(null, design.strata, used, scenario.alpha)
                out[k] = Calibration(weights, used, factors, cv, null.rejected_resamples)
                continue
            if engine != "exact":
                null = boot.bootstrap_null_D(design, scenario.B, np.random.default_rng(seed(1)))
                if engine == "parametric_bootstrap":
                    cv = boot.solve_critical_empirical(null, design.strata, used, scenario.alpha)
                    out[k] = Calibration(weights, used, factors, cv, 0)
                    continue
                # c* from the Satterthwaite t model, its FWER from the bootstrap null
                df = boot.satterthwaite_df(design)
            modeled[k] = (weights, used, factors, null, df)
        except pwer.RUN_ERRORS as exc:
            out[k] = exc
    designs, dfs = [studies[k].design for k in modeled], [entry[-1] for entry in modeled.values()]
    models = pwer.build_test_models(designs, dfs, allow_empty_populations=engine == "exact")
    lockstep = {}  # study index -> (weights, used, factors, bootstrap null or None, calibration)
    for (k, (weights, used, factors, null, _)), model in zip(modeled.items(), models):
        try:
            if isinstance(model, Exception):
                raise model
            if truth is not None and np.any(~model.stratum_ok & (truth > 0)):
                raise InfeasibleDesignError("true prevalence weights a stratum without a defined joint law")
            calibration = pwer.calibration(used, model, scenario.alpha, partial(_integration_seed, seeds[k]))
            lockstep[k] = (weights, used, factors, null, calibration)
        except pwer.RUN_ERRORS as exc:
            out[k] = exc
    solved = pwer.solve_lockstep([entry[-1] for entry in lockstep.values()])
    for (k, (weights, used, factors, null, _)), cv in zip(lockstep.items(), solved):
        if isinstance(cv, pwer.CriticalValues) and null is not None:
            cv = replace(cv, fwer=boot.null_fwer(null, studies[k].design.strata, cv.value))
        out[k] = cv if isinstance(cv, Exception) else Calibration(weights, used, factors, cv, 0)
    return out


def interval(scenario: SimScenario, cal: Calibration) -> pwer.PredictionInterval:
    """The delta-method prediction interval alpha +- z * gamma / sqrt(N) of a calibrated study.

    A row of one of _intervals.
    """
    iv, failed = _intervals(scenario, cal.weights[None], cal.factors[None], cal.cv.fwer[None])
    if failed:
        raise failed[0]
    return iv.row(0)


def _intervals(
    scenario: SimScenario, weights: np.ndarray, factors: np.ndarray, fwer: np.ndarray
) -> tuple[pwer.PredictionInterval, dict[int, PwerError]]:
    """The interval of every row of calibrated studies' weights, factors and FWERs (R, S),
    as one PredictionInterval of the rows, and the error each failing row raises."""
    # factors * -fwer: CriticalValues.gradient(factors) of every row
    gamma, failed = pwer.delta_gammas(weights, factors * -fwer)
    iv, negative = pwer.prediction_intervals(scenario.alpha, scenario.alpha_prime, gamma, scenario.N)
    return iv, {**negative, **failed}  # a row keeps the error its call raises first


def _run_seed(master_seed: int, run_index: int, stream: int) -> np.random.SeedSequence:
    """Stream `stream` of run_streams(master_seed, run_index), built alone."""
    return np.random.SeedSequence((master_seed, run_index), spawn_key=(stream,))


def run_streams(master_seed: int, run_index: int) -> list[np.random.SeedSequence]:
    """The (data, boot, solve) seed sequences of one run; an analyzed study is run 0.

    They equal SeedSequence((master_seed, run_index)).spawn(3); a simulation
    run builds each one only where it is read (_run_seed).
    """
    return [_run_seed(master_seed, run_index, stream) for stream in range(3)]


# Runs per block: a block's exact-engine runs calibrate in lockstep, and with
# one worker a scenario's runs go in blocks of this size.
_BLOCK_RUNS = 64


def _block_records(
    scenario: SimScenario, pi_true: np.ndarray, indices: Sequence[int]
) -> list[RunRecord | Exception]:
    """The RunRecord of every run of a block, or the error that run raised.

    Three passes: draw every run from its own data stream and build the
    block's designs in one stacked call (_draw_block), calibrate them all
    (_calibrate_block), then record every calibrated run in one stacked pass
    (_records). Records depend only on (master_seed, run_index), whatever
    runs share the block: each stacked pass returns every run's numbers bit
    for bit, and a run that fails in any pass fails alone.
    """
    truth, factors_true = transform_weights(pi_true, scenario.transform, scenario.pi_min)
    rngs = [np.random.default_rng(_run_seed(scenario.master_seed, run_index, 0)) for run_index in indices]
    out = dict(zip(indices, _draw_block(scenario, pi_true, rngs)))
    drawn = [run_index for run_index in indices if isinstance(out[run_index], Study)]
    seeds = [partial(_run_seed, scenario.master_seed, run_index) for run_index in drawn]
    out.update(zip(drawn, _calibrate_block(scenario, [out[run_index] for run_index in drawn], seeds, truth)))
    calibrated = [run_index for run_index in drawn if isinstance(out[run_index], Calibration)]
    out.update(zip(calibrated, _records(scenario, pi_true, truth, factors_true, [out[i] for i in calibrated])))
    return [out[run_index] for run_index in indices]


def _records(
    scenario: SimScenario,
    pi_true: np.ndarray,
    truth: np.ndarray,
    factors_true: np.ndarray,
    cals: Sequence[Calibration],
) -> list[RunRecord | PwerError]:
    """Pass 3: the RunRecord of every calibrated run of a block, or the error its run raised.

    One stacked pass builds every run's interval (_intervals), its true PWER
    under the transformed truth (pwer.true_pwers) and its gamma at the true
    prevalences (pwer.delta_gammas); each row has the bits of the run's own
    interval, true_pwer and delta_gamma calls, and a run fails with the
    first error those calls would raise. Every field is a builtin float,
    bool or int (read off .tolist()), so the records CSV writes each by repr.
    """
    if not cals:
        return []
    fwer = np.array([cal.cv.fwer for cal in cals])
    weights, factors = np.array([cal.weights for cal in cals]), np.array([cal.factors for cal in cals])
    iv, failed = _intervals(scenario, weights, factors, fwer)
    true_pwer = pwer.true_pwers(truth, fwer)
    gamma_true, true_failed = pwer.delta_gammas(pi_true, factors_true * -fwer)
    failed = {**true_failed, **failed}
    columns = (
        true_pwer.tolist(), iv.lower.tolist(), iv.upper.tolist(), iv.contains(true_pwer).tolist(),
        iv.length.tolist(), iv.gamma.tolist(), gamma_true.tolist(), [cal.cv.value for cal in cals],
        [float(cal.cv.achieved) for cal in cals], [cal.rejected_resamples for cal in cals],
    )
    return [failed.get(k) or RunRecord(*row) for k, row in enumerate(zip(*columns))]


def _run_single(scenario: SimScenario, pi_true: np.ndarray, run_index: int) -> RunRecord:
    """One simulation run, a block of one; raises its PwerError subtype on failure."""
    [record] = _block_records(scenario, pi_true, [run_index])
    if isinstance(record, Exception):
        raise record
    return record


def _run_block(scenario: SimScenario, pi_true: np.ndarray, indices: Sequence[int]):
    """(run index, RunRecord or "ErrorType: message") of every run of a block."""
    return [
        (run_index, payload if isinstance(payload, RunRecord) else f"{type(payload).__name__}: {payload}")
        for run_index, payload in zip(indices, _block_records(scenario, pi_true, indices))
    ]


def resolve_true_prevalences(scenario: SimScenario) -> np.ndarray:
    if scenario.prevalence_scheme == "random_biomarker":
        raise ConfigError(
            "random_biomarker has no fixed truth; use run_study_distribution "
            "or pass an explicit vector"
        )
    return scheme_prevalences(
        scenario.m, scenario.prevalence_scheme, scenario.explicit_prevalences
    )


def _chunk_size(total_runs: int, workers: int) -> int:
    """The runs per chunk of every scenario of one call, at most _BLOCK_RUNS.

    One worker takes blocks of _BLOCK_RUNS. More take about 4 chunks each of
    the call's total_runs: small chunks let the workers of a shared pool take
    up the next scenario's runs while a slow one finishes, and sizing them
    from the whole call keeps the many small scenarios of a study in chunks
    large enough for the lockstep calibration.
    """
    return _BLOCK_RUNS if workers == 1 else min(_BLOCK_RUNS, -(-total_runs // (4 * workers)))


def _chunks(runs: int, size: int) -> list[range]:
    """A scenario's run indices in order, in chunks of size runs (the last one shorter)."""
    return [range(start, min(start + size, runs)) for start in range(0, runs, size)]


def _run_scenarios(
    scenarios: Sequence[SimScenario], threads: int, max_failure_fraction: float
) -> list[tuple[list[RunRecord], int]]:
    """(records in run order, failure count) of every scenario, from one map.

    Every scenario is checked before any run starts. The ordered chunks of all
    scenarios go through one ProcessPoolExecutor with min(threads, total runs)
    workers, shut down before this returns; with one worker they run in this
    process through the builtin map. Records depend only on (master_seed,
    run_index), so they do not depend on the worker count. A scenario with more
    than max_failure_fraction of its runs failed raises NumericalError as soon
    as its chunks are in, and chunks not yet started are cancelled.
    """
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    truths = [resolve_true_prevalences(scenario) for scenario in scenarios]
    total_runs = sum(scenario.runs for scenario in scenarios)
    workers = min(threads, total_runs)
    size = _chunk_size(total_runs, workers)
    chunks = [_chunks(scenario.runs, size) for scenario in scenarios]
    # _run_block's three argument columns, one entry per chunk
    columns = (
        [scenario for scenario, own in zip(scenarios, chunks) for _ in own],
        [pi_true for pi_true, own in zip(truths, chunks) for _ in own],
        [chunk for own in chunks for chunk in own],
    )

    def collect(blocks):
        out = []
        for scenario, own in zip(scenarios, chunks):
            records, failures = [], []
            for block in itertools.islice(blocks, len(own)):
                for run_index, payload in block:
                    if isinstance(payload, RunRecord):
                        records.append(payload)
                    else:
                        failures.append((run_index, payload))
            if len(failures) > max_failure_fraction * scenario.runs:
                raise NumericalError(
                    f"{len(failures)}/{scenario.runs} runs failed; first: {failures[0]}"
                )
            out.append((records, len(failures)))
        return out

    if workers <= 1:
        return collect(map(_run_block, *columns))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            return collect(pool.map(_run_block, *columns))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_scenario(
    scenario: SimScenario, threads: int = 1, max_failure_fraction: float = 0.01
) -> SimResult:
    """Execute all runs of a scenario; deterministic for a given master seed.

    Per-run streams derive from (master_seed, run_index), so results do not
    depend on the worker count; with threads > 1 one pool of at most `runs`
    workers serves the call. Runs that fail calibration are excluded and
    counted; more than max_failure_fraction failures (default 1%) fails the
    whole scenario.
    """
    [(records, failures)] = _run_scenarios([scenario], threads, max_failure_fraction)
    return SimResult(scenario=scenario, records=records, failures=failures)


@dataclass
class StudyRow:
    study: int
    coverage: float
    mean_length: float
    failures: int = 0


@dataclass
class StudyDistribution:
    """Coverage distribution over studies with random prevalences."""

    rows: list[StudyRow]

    def summary(self) -> dict:
        cov = np.array([r.coverage for r in self.rows])
        lengths = np.array([r.mean_length for r in self.rows])
        q1, med, q3 = np.quantile(cov, [0.25, 0.5, 0.75])
        return {
            "mean": float(cov.mean()),
            "sd": float(cov.std(ddof=1)) if cov.shape[0] > 1 else 0.0,
            "min": float(cov.min()),
            "q1": float(q1),
            "median": float(med),
            "q3": float(q3),
            "max": float(cov.max()),
            "mean_length_e3": float(np.nanmean(lengths) * 1e3),
        }


def _derived_seed(*entropy) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def study_scenarios(
    m: int,
    setting: str,
    N: int,
    studies: int,
    runs_per_study: int,
    master_seed: int,
    treatment_scheme: str = "pairwise_different",
    alpha: float = 0.025,
    alpha_prime: float = 0.05,
    B: int = 2000,
) -> list[SimScenario]:
    """The validated scenario of every random-biomarker study.

    Study streams derive only from (master_seed, study index), so different
    settings run against identical prevalence draws and count streams.
    """
    if studies < 1:
        raise ConfigError(f"studies must be at least 1, got {studies}")
    scenarios = []
    for s in range(studies):
        rng_study = np.random.default_rng(np.random.SeedSequence((master_seed, 7001, s)))
        scenarios.append(SimScenario(
            N=N,
            m=m,
            setting=setting,
            prevalence_scheme="explicit",
            explicit_prevalences=tuple(generate_random_study(m, rng_study)),
            treatment_scheme=treatment_scheme,
            alpha=alpha,
            alpha_prime=alpha_prime,
            runs=runs_per_study,
            B=B,
            master_seed=_derived_seed(master_seed, 7002, s),
        ))
    return scenarios


def run_study_distribution(*args, threads: int = 1, **kwargs) -> StudyDistribution:
    """Coverage over the studies of study_scenarios(*args, **kwargs).

    All studies share one pool of `threads` workers (see run_scenario). Extreme
    draws can leave a population without both arms in most runs; a run whose
    design cannot support the interval at all counts as not covered (the
    prediction certainly failed), so every study yields a row. Mean lengths
    average over the runs that produced an interval.
    """
    scenarios = study_scenarios(*args, **kwargs)
    outcomes = _run_scenarios(scenarios, threads, max_failure_fraction=1.0)
    rows = []
    for s, (scenario, (records, failures)) in enumerate(zip(scenarios, outcomes)):
        if records:
            covered = sum(rec.covered for rec in records)
            mean_length = SimResult(scenario, records, failures).mean_length
        else:  # every run failed: nothing to average
            covered, mean_length = 0, float("nan")
        rows.append(StudyRow(
            study=s,
            coverage=covered / scenario.runs,
            mean_length=mean_length,
            failures=failures,
        ))
    return StudyDistribution(rows=rows)


PI_MIN_LABELS = ("0", "1/(2^(m+2)-4)", "1/(2^(m+1)-2)")


def resolve_pi_min(label, m: int) -> float:
    """Map a grid label (or plain number) to the pi_min value for m populations."""
    if isinstance(label, str):
        key = label.replace(" ", "")
        if key == "0":
            return 0.0
        if key == "1/(2^(m+2)-4)":
            return 1.0 / (2 ** (m + 2) - 4)
        if key == "1/(2^(m+1)-2)":
            return 1.0 / (2 ** (m + 1) - 2)
        raise ConfigError(f"unknown pi_min label {label!r}")
    value = float(label)
    if value < 0.0:
        raise ConfigError(f"pi_min must be nonnegative, got {value}")
    return value


def min_prevalence_grid_cells(
    N_list: Sequence[int],
    m_list: Sequence[int],
    pi_min_list: Sequence = PI_MIN_LABELS,
    transform_list: Sequence[str] = ("floor", "shift"),
    runs: int = 2000,
    master_seed: int = 0,
    setting: str = "A",
    treatment_scheme: str = "pairwise_different",
    alpha: float = 0.025,
    alpha_prime: float = 0.05,
) -> list[tuple[str, object, SimScenario]]:
    """(transform, pi_min label, validated scenario) for every grid cell.

    Cell seeds depend only on (master_seed, N, m): rows of one (N, m) cell are
    paired draws, and pi_min = 0 reproduces the untransformed scenario
    bit-identically under either transform.
    """
    cells = []
    for N in N_list:
        for m in m_list:
            cell_seed = _derived_seed(master_seed, 7100, N, m)
            for transform in transform_list:
                for label in pi_min_list:
                    pi_min = resolve_pi_min(label, m)
                    scenario = SimScenario(
                        N=N,
                        m=m,
                        setting=setting,
                        prevalence_scheme="one_small",
                        treatment_scheme=treatment_scheme,
                        alpha=alpha,
                        alpha_prime=alpha_prime,
                        runs=runs,
                        pi_min=pi_min,
                        transform=transform if pi_min > 0.0 else TRANSFORM_NONE,
                        master_seed=cell_seed,
                    )
                    cells.append((transform, label, scenario))
    return cells


def run_min_prevalence_grid(*args, threads: int = 1, **kwargs) -> list[dict]:
    """Coverage and mean-length grid under the one_small truth.

    Runs the cells of min_prevalence_grid_cells(*args, **kwargs), all of which
    are validated before the first one runs, through one pool of `threads`
    workers. A cell with more than 1% of its runs failed raises, as in
    run_scenario; the first such cell in grid order names the error.
    """
    cells = min_prevalence_grid_cells(*args, **kwargs)
    outcomes = _run_scenarios([sc for *_, sc in cells], threads, max_failure_fraction=0.01)
    rows = []
    for (transform, label, scenario), (records, failures) in zip(cells, outcomes):
        result = SimResult(scenario=scenario, records=records, failures=failures)
        rows.append(
            {
                "N": scenario.N,
                "m": scenario.m,
                "transform": transform,
                "pi_min_label": label if isinstance(label, str) else repr(label),
                "pi_min": scenario.pi_min,
                "coverage": result.coverage,
                "mean_length_e3": result.mean_length * 1e3,
                "failures": result.failures,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# CSV output


def write_records_csv(result: SimResult, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RunRecord._fields)
        for rec in result.records:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in rec])


def write_aggregate_csv(results: Sequence[SimResult], path: Path) -> None:
    rows = [r.aggregate_row() for r in results]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def write_study_csv(dist: StudyDistribution, path: Path) -> None:
    """Per-study coverage and mean interval length (the length-distribution data)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["study", "coverage", "mean_length", "failures"])
        for row in dist.rows:
            writer.writerow([row.study, repr(row.coverage), repr(row.mean_length), row.failures])


def write_grid_csv(rows: Sequence[dict], path: Path, value_key: str) -> None:
    """Wide table: one row per (N, pi_min), one column per (transform, m)."""
    transforms = sorted({r["transform"] for r in rows})
    ms = sorted({r["m"] for r in rows})
    keys = list(dict.fromkeys((r["N"], r["pi_min_label"]) for r in rows))  # input order
    index = {(r["N"], r["pi_min_label"], r["transform"], r["m"]): r[value_key] for r in rows}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "pi_min"] + [f"{t}_m{m}" for t in transforms for m in ms])
        for N, label in keys:
            row = [N, label]
            for t in transforms:
                for m in ms:
                    value = index.get((N, label, t, m))
                    row.append("" if value is None else repr(value))
            writer.writerow(row)
