"""Trial designs over overlapping populations.

Populations 1..m define 2^m - 1 disjoint strata (one per nonempty subset of
populations), each split into one arm per distinct treatment given in it plus
the shared control. This module enumerates the strata, tables which
populations each one holds (`stratum_members`, the membership every layer
reads), builds that cell layout once per (m, treatment scheme)
(`cell_layout`), holds a study's strata counts, arm sizes and cell
variances (`Design`, the one place every engine reads them from;
`build_designs` builds a block of them, checked once over the block), and
applies the two minimal-prevalence transformations together with the
gradient factors they induce (`transform_weights`). The prevalence estimate
is strata_counts / N. Drawing the counts of a simulated study is `sim`'s
job.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InfeasibleDesignError, PwerError

CONTROL = "C"

SIMPLEX_ATOL = 1e-12

TRANSFORM_NONE = "none"
TRANSFORM_FLOOR = "floor"
TRANSFORM_SHIFT = "shift"
TRANSFORMS = (TRANSFORM_NONE, TRANSFORM_FLOOR, TRANSFORM_SHIFT)

VARIANCE_MODES = (
    "known_homogeneous",
    "known_heterogeneous",
    "unknown_homogeneous",
    "unknown_heterogeneous",
)

TREATMENT_SCHEMES = ("single", "pairwise_different")


def population_count(m) -> int:
    """m as an int, once it is an integer in [2, 12]: the one check of a population count."""
    if not isinstance(m, (int, np.integer)) or not 2 <= m <= 12:
        raise ConfigError(f"population count m must be an integer in [2, 12], got {m!r}")
    return int(m)


def enumerate_strata(m: int) -> tuple[frozenset[int], ...]:
    """Canonically ordered nonempty subsets of {1..m}.

    Order: by subset size, then lexicographically, so vectors indexed over
    strata are stable across the package.
    """
    m = population_count(m)
    strata = []
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(1, m + 1), size):
            strata.append(frozenset(subset))
    return tuple(strata)


def stratum_members(m: int) -> np.ndarray:
    """(S, m) read-only membership of the strata of enumerate_strata(m): row j, column
    i is whether population i + 1 belongs to stratum j. Built once per m, which is
    checked before the cache lookup, as in cell_layout."""
    return _stratum_members(population_count(m))


@functools.cache
def _stratum_members(m: int) -> np.ndarray:
    members = np.array([[i in s for i in range(1, m + 1)] for s in enumerate_strata(m)])
    members.setflags(write=False)
    return members


def stratum_label(stratum: frozenset[int]) -> str:
    """Stable text key for a stratum, e.g. {1, 3} -> "1,3"."""
    return ",".join(str(i) for i in sorted(stratum))


def parse_stratum_label(label: str) -> frozenset[int]:
    try:
        members = frozenset(int(part) for part in label.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse stratum label {label!r}") from exc
    if not members:
        raise ConfigError("empty stratum label")
    return members


def treatment_labels(m: int, scheme: str) -> tuple[str, ...]:
    """Per-population treatment label under the given assignment scheme."""
    if scheme == "single":
        return ("T",) * m
    if scheme == "pairwise_different":
        return tuple(f"T{i}" for i in range(1, m + 1))
    raise ConfigError(f"unknown treatment scheme {scheme!r}")


class CellLayout(NamedTuple):
    """The (stratum, arm) cells shared by every design of one (m, treatment scheme).

    Cells run stratum by stratum: the control first, then the stratum's
    distinct treatments in label order (numeric-aware for T1..T12).
    stratum_of_cell (cells,) holds each cell's stratum index, and
    treatment_member/control_member (m, cells) mark the cells that pool into
    population i's treatment and control arms (row i - 1). A stratum's
    patients split evenly over its arm_count arms in arm_slot order
    (treatments by label, control last); the remainder fills the earliest
    slots. The arrays are read-only.
    """

    strata: tuple[frozenset[int], ...]
    treatments: tuple[str, ...]
    cells: tuple[tuple[int, str], ...]
    stratum_of_cell: np.ndarray
    treatment_member: np.ndarray
    control_member: np.ndarray
    arm_count: np.ndarray
    arm_slot: np.ndarray

    def split_counts(self, counts) -> np.ndarray:
        """Cell sizes of (..., strata) counts: each stratum split evenly over its arms."""
        # of a stratum's c patients, slot s of a arms gets floor(c / a), plus one while s < c mod a
        c = np.asarray(counts)[..., self.stratum_of_cell]
        return (c + (self.arm_count - 1 - self.arm_slot)) // self.arm_count


def cell_layout(m: int, treatment_scheme: str) -> CellLayout:
    """The cell layout of (m, treatment_scheme), built once per process.

    m is checked before the cache lookup (an integral float would otherwise
    hit the entry of its int) and an unknown scheme raises before anything is
    cached, so the cache holds at most 22 entries: m in [2, 12], two schemes.
    """
    return _cell_layout(population_count(m), treatment_scheme)


@functools.cache
def _cell_layout(m: int, treatment_scheme: str) -> CellLayout:
    strata = enumerate_strata(m)
    treatments = treatment_labels(m, treatment_scheme)
    cells, arm_count, arm_slot = [], [], []
    for j, stratum in enumerate(strata):
        arms = sorted({treatments[i - 1] for i in stratum}, key=lambda t: (len(t), t))
        cells += [(j, CONTROL)] + [(j, arm) for arm in arms]
        arm_count += [len(arms) + 1] * (len(arms) + 1)
        arm_slot += [len(arms)] + list(range(len(arms)))
    stratum_of_cell = np.array([j for j, _arm in cells], dtype=np.intp)
    arm_of_cell = np.array([arm for _j, arm in cells])
    member = _stratum_members(m).T[:, stratum_of_cell]
    arrays = (
        stratum_of_cell,
        member & (arm_of_cell == np.array(treatments)[:, None]),
        member & (arm_of_cell == CONTROL),
        np.array(arm_count, dtype=np.int64),
        np.array(arm_slot, dtype=np.int64),
    )
    for arr in arrays:
        arr.setflags(write=False)
    return CellLayout(strata, treatments, tuple(cells), *arrays)


def weight_errors(weights: np.ndarray) -> dict[int, ConfigError]:
    """The error of every row of prevalence weights (R, S) that is not finite and
    nonnegative: the one check of a weight vector, row by row."""
    # one pass each: NaN fails both comparisons, and -0.0 >= 0.0
    bad = ~((weights.min(axis=1) >= 0.0) & (weights.max(axis=1) < np.inf))
    return {r: ConfigError("prevalence weights must be finite and nonnegative")
            for r in np.flatnonzero(bad).tolist()}


def prevalence_weights(pi, n_strata: int) -> np.ndarray:
    """Checked prevalence weights over the strata (arrays pass through as is)."""
    w = np.asarray(pi, dtype=float)
    if w.shape != (n_strata,):
        raise ConfigError(f"prevalence vector has shape {w.shape}, expected ({n_strata},)")
    failed = weight_errors(w[None])
    if failed:
        raise failed[0]
    return w


@dataclass(frozen=True)
class Design:
    """A realized multi-population trial: strata counts and cell variances.

    m and treatment_scheme fix the cell layout (cell_layout), from which
    strata, treatments, cells, stratum_of_cell and the masks
    treatment_member/control_member are read. Cells are (stratum, arm)
    pairs; zero-count cells are kept so that vectors over cells have a fixed
    shape. The design is the one holder of the arm sizes and the variances:
    N and cell_sizes (the even split of strata_counts,
    CellLayout.split_counts) are derived, and cell_variances holds each
    cell's variance, known or observed as variance_mode says. Every engine
    reads them from here.
    """

    m: int
    treatment_scheme: str
    strata_counts: np.ndarray
    cell_variances: np.ndarray
    variance_mode: str
    strata: tuple[frozenset[int], ...] = field(init=False, repr=False)
    treatments: tuple[str, ...] = field(init=False, repr=False)
    cells: tuple[tuple[int, str], ...] = field(init=False, repr=False)
    stratum_of_cell: np.ndarray = field(init=False, repr=False)
    treatment_member: np.ndarray = field(init=False, repr=False)
    control_member: np.ndarray = field(init=False, repr=False)
    N: int = field(init=False)
    cell_sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # a block of one of build_designs; a caller's int array keeps its fast path there
        counts = self.strata_counts
        [checked] = build_designs(
            self.m, self.treatment_scheme,
            counts[None] if isinstance(counts, np.ndarray) else [counts],
            [self.cell_variances], self.variance_mode,
        )
        if isinstance(checked, Exception):
            raise checked
        vars(self).update(vars(checked))

    @classmethod
    def _trusted(cls, fields: dict) -> Design:
        """A Design of fields (every dataclass field) known to pass its checks."""
        design = object.__new__(cls)
        vars(design).update(fields)  # frozen: set as object.__setattr__ would, in one call
        return design

    @property
    def n_strata(self) -> int:
        return len(self.strata)

    @property
    def residual_df(self) -> int:
        """Residual degrees of freedom of the pooled variance: N minus the populated cells."""
        return self.N - int(np.count_nonzero(self.cell_sizes))


def build_designs(
    m: int, treatment_scheme: str, counts, variances, variance_mode: str
) -> list[Design | PwerError]:
    """Design(m, treatment_scheme, counts[r], variances[r], variance_mode) for every row r of
    the stacks counts (R, strata) and variances (R, cells), or the error that construction raises.

    Each of Design's checks runs once over the whole stack, in Design's order,
    and a row fails with the first check it fails; the rest are built without
    checking again. Every design equals its own construction bit for bit, its
    arrays read-only rows of the block's copies.
    """
    layout = cell_layout(m, treatment_scheme)
    if not len(counts):
        return []
    errors: list[PwerError | None] = [None] * len(counts)

    def fail(rows, error: type, message) -> None:
        for r in np.flatnonzero(np.broadcast_to(rows, len(errors))).tolist():
            errors[r] = errors[r] or error(message(r) if callable(message) else message)

    counts = _checked_counts(counts, fail)
    n_strata, n_cells = len(layout.strata), len(layout.cells)
    if counts.shape[1:] != (n_strata,):
        fail(True, ConfigError, f"expected {n_strata} strata counts for m={m}, got {math.prod(counts.shape[1:])}")
        return errors
    N = counts.sum(axis=1)
    fail(N <= 0, InfeasibleDesignError, "design has no patients")
    if all(errors):
        return errors
    variances = np.array(variances, dtype=float)  # a copy: frozen below
    if variances.shape != (len(counts), n_cells):
        fail(True, ConfigError, "cell arrays must align with the cell list")
        return errors
    fail((variances <= 0.0).any(axis=1), ConfigError, "all cell variances must be strictly positive")
    if variance_mode not in VARIANCE_MODES:
        fail(True, ConfigError, f"unknown variance mode {variance_mode!r}")
        return errors
    sizes = layout.split_counts(counts)
    for arr in (counts, variances, sizes):
        arr.setflags(write=False)
    shared = dict(zip(CellLayout._fields[:6], layout), m=m, treatment_scheme=treatment_scheme,
                  variance_mode=variance_mode)
    return [
        error or Design._trusted(dict(shared, strata_counts=n, cell_variances=v, N=total, cell_sizes=size))
        for error, n, v, total, size in zip(errors, counts, variances, N.tolist(), sizes)
    ]


def _checked_counts(counts, fail) -> np.ndarray:
    """The (R, strata) counts as int64, failing each row with a count that is not a
    finite, nonnegative whole number (its rows zeroed).

    Booleans and strings are refused too: numpy would read True as a count
    of one and "83" as 83.
    """
    if not (isinstance(counts, np.ndarray) and counts.dtype.kind in "iu"):
        values = np.array(counts, dtype=object)  # a copy: rows that fail are zeroed
        rows = values.reshape(len(values), -1)
        wrong = {}  # row -> its first entry that is not a number
        for r, row in enumerate(rows.tolist()):
            for v in row:
                if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):
                    wrong.setdefault(r, v)
        fail(np.isin(np.arange(len(rows)), list(wrong)), ConfigError,
             lambda r: f"strata counts must be numbers, got {wrong[r]!r}")
        rows[list(wrong)] = 0
        counts = values.astype(float)
        flat = counts.reshape(len(counts), -1)
        whole = (np.isfinite(flat) & (flat == np.trunc(flat))).all(axis=1)
        fail(~whole, ConfigError, "strata counts must be finite whole numbers")
        flat[~whole] = 0.0
    fail((counts < 0).reshape(len(counts), -1).any(axis=1), ConfigError, "strata counts must be nonnegative")
    return np.array(counts, dtype=np.int64)  # a copy: the designs freeze it


def build_design(
    m: int, treatment_scheme: str, counts: Sequence[int], variances: float | Sequence[float], variance_mode: str
) -> Design:
    """Assemble a Design from strata counts aligned with the canonical strata
    order (enumerate_strata) and the cell variances: one scalar shared by every
    cell, or a sequence aligned with the cells (cell_layout(m, treatment_scheme).cells).
    A block of one of build_designs.
    """
    if not np.ndim(variances):
        variances = np.full(len(cell_layout(m, treatment_scheme).cells), float(variances))
    return Design(m, treatment_scheme, counts, variances, variance_mode)


def check_transform(transform: str, pi_min: float, n_strata: int) -> None:
    """Reject an unknown transform name or a pi_min outside its range.

    The floor needs pi_min in [0, 1/n_strata) (the floored weights must fit
    on the simplex); the shift needs pi_min >= 0; "none" ignores pi_min.
    """
    if transform not in TRANSFORMS:
        raise ConfigError(f"unknown transform {transform!r}")
    if transform == TRANSFORM_FLOOR and not 0.0 <= pi_min < 1.0 / n_strata:
        raise ConfigError(
            f"pi_min must lie in [0, 1/{n_strata}) for {n_strata} strata, got {pi_min}"
        )
    if transform == TRANSFORM_SHIFT and not pi_min >= 0.0:
        raise ConfigError(f"pi_min must be nonnegative, got {pi_min}")


def _floor(values: np.ndarray, pi_min: float) -> tuple[np.ndarray, float]:
    """Raise sub-threshold weights to pi_min, scale the rest proportionally.

    Returns the transformed weights and the proportional factor p applied to
    the unfloored weights. Note the scaling can leave an unfloored weight
    below pi_min; only the floored entries are guaranteed to sit at pi_min.
    """
    below = values < pi_min
    if not below.any():
        return values, 1.0
    p = (1.0 - below.sum() * pi_min) / (1.0 - values[below].sum())
    return np.where(below, pi_min, p * values), float(p)


def transform_weights(values, transform: str, pi_min: float) -> tuple[np.ndarray, np.ndarray]:
    """Transformed weights and their chain-rule factors.

    The one dispatch on the transform name, and the one place a transform is
    applied: it checks transform and pi_min once per call (check_transform).
    values is one weight vector (S,) or a stack of them (..., S), transformed
    row by row. The floor transform raises the weights below pi_min to it and
    scales the rest by p (_floor, one row at a time); its factors are 0 on the
    floored components and p elsewhere, also at the non-differentiable point
    values == pi_min, by convention. The shift transform adds pi_min to every
    weight and renormalises, contracting every component by 1/(1 + n_S * pi_min).
    "none" and pi_min = 0 return the weights themselves and unit factors.
    """
    values = np.asarray(values, dtype=float)
    n_s = values.shape[-1]
    check_transform(transform, pi_min, n_s)
    if transform == TRANSFORM_NONE or pi_min == 0.0:
        return values, np.ones(values.shape)
    if transform == TRANSFORM_FLOOR:
        floored = [_floor(row, pi_min) for row in values.reshape(-1, n_s)]
        out = np.array([row for row, _ in floored]).reshape(values.shape)
        p = np.array([p for _, p in floored]).reshape(*values.shape[:-1], 1)
        return out, np.where(values < pi_min, 0.0, p)
    return (values + pi_min) / (1.0 + n_s * pi_min), np.full(values.shape, 1.0 / (1.0 + n_s * pi_min))
