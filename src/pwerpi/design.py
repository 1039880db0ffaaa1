"""Trial designs over overlapping populations.

Populations 1..m define 2^m - 1 disjoint strata (one per nonempty subset of
populations). This module enumerates strata, estimates prevalence vectors
from strata counts, allocates patients to treatment/control arms within
strata, and applies the two minimal-prevalence transformations together with
the gradient factors they induce (`transform_weights`). Drawing the counts of
a simulated study is `sim`'s job.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, InfeasibleDesignError

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


def enumerate_strata(m: int) -> tuple[frozenset[int], ...]:
    """Canonically ordered nonempty subsets of {1..m}.

    Order: by subset size, then lexicographically, so vectors indexed over
    strata are stable across the package.
    """
    if not isinstance(m, (int, np.integer)) or not 2 <= m <= 12:
        raise ConfigError(f"population count m must be an integer in [2, 12], got {m!r}")
    strata = []
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(1, m + 1), size):
            strata.append(frozenset(subset))
    return tuple(strata)


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


def _arm_order(labels: Iterable[str]) -> list[str]:
    # treatments in label order (numeric-aware for T1..T12), control last
    return sorted(set(labels), key=lambda t: (len(t), t)) + [CONTROL]


@dataclass(frozen=True)
class PrevalenceVector:
    """Weights over the strata of a design, summing to one."""

    strata: tuple[frozenset[int], ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.shape[0] != len(self.strata):
            raise ConfigError("prevalence vector length must match the strata list")
        if np.any(values < -SIMPLEX_ATOL) or not np.all(np.isfinite(values)):
            raise ConfigError("prevalences must be finite and nonnegative")
        total = values.sum()
        if abs(total - 1.0) > SIMPLEX_ATOL:
            raise ConfigError(f"prevalences must sum to 1 (got {total!r})")
        values = np.clip(values, 0.0, None) / total
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_strata(self) -> int:
        return len(self.strata)

    def as_dict(self) -> dict[str, float]:
        return {stratum_label(s): float(v) for s, v in zip(self.strata, self.values)}


def prevalence_weights(pi, n_strata: int) -> np.ndarray:
    """Checked weights of a PrevalenceVector or array (arrays pass through as is)."""
    w = pi.values if isinstance(pi, PrevalenceVector) else np.asarray(pi, dtype=float)
    if w.shape != (n_strata,):
        raise ConfigError(f"prevalence vector has shape {w.shape}, expected ({n_strata},)")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ConfigError("prevalence weights must be finite and nonnegative")
    return w


@dataclass(frozen=True)
class Design:
    """A realized multi-population trial layout.

    Cells are (stratum, arm) pairs; every stratum carries one arm per distinct
    treatment given in it plus the shared control. Zero-count cells are kept
    so that vectors over cells have a fixed shape.

    The cell layout is computed once, as arrays: stratum_of_cell (cells,)
    holds each cell's stratum index, and treatment_member/control_member
    (m, cells) mark the cells that pool into population i's treatment and
    control arms (row i - 1). No other module decides arm membership.
    """

    m: int
    treatment_scheme: str
    N: int
    strata: tuple[frozenset[int], ...]
    treatments: tuple[str, ...]
    cells: tuple[tuple[int, str], ...]  # (stratum index, arm label)
    cell_sizes: np.ndarray
    cell_variances: np.ndarray
    variance_mode: str
    strata_counts: np.ndarray = field(init=False, repr=False)
    stratum_of_cell: np.ndarray = field(init=False, repr=False)
    treatment_member: np.ndarray = field(init=False, repr=False)
    control_member: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sizes = np.asarray(self.cell_sizes, dtype=np.int64)
        variances = np.asarray(self.cell_variances, dtype=float)
        if sizes.shape != (len(self.cells),) or variances.shape != sizes.shape:
            raise ConfigError("cell arrays must align with the cell list")
        if np.any(sizes < 0):
            raise ConfigError("negative cell size")
        if np.any(variances <= 0.0):
            raise ConfigError("all cell variances must be strictly positive")
        if self.variance_mode not in VARIANCE_MODES:
            raise ConfigError(f"unknown variance mode {self.variance_mode!r}")
        stratum_of_cell = np.array([j for j, _arm in self.cells], dtype=np.intp)
        counts = np.zeros(len(self.strata), dtype=np.int64)
        np.add.at(counts, stratum_of_cell, sizes)
        if counts.sum() != self.N:
            raise ConfigError("cell sizes must sum to the total sample size N")
        arm_of_cell = np.array([arm for _j, arm in self.cells])
        in_stratum = np.array([[i in s for s in self.strata] for i in range(1, self.m + 1)])
        member = in_stratum[:, stratum_of_cell]
        layout = {
            "cell_sizes": sizes,
            "cell_variances": variances,
            "strata_counts": counts,
            "stratum_of_cell": stratum_of_cell,
            "treatment_member": member & (arm_of_cell == np.array(self.treatments)[:, None]),
            "control_member": member & (arm_of_cell == CONTROL),
        }
        for name, arr in layout.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_strata(self) -> int:
        return len(self.strata)

    def arms_of(self, stratum: frozenset[int]) -> list[str]:
        return _arm_order(self.treatments[i - 1] for i in stratum)

    def positive_cell_count(self) -> int:
        """Number of (stratum, arm) cells with at least one patient."""
        return int(np.count_nonzero(self.cell_sizes))


def estimate_prevalences(counts: Mapping[frozenset[int], int], N: int) -> PrevalenceVector:
    """Maximum-likelihood strata prevalences n_J / N from observed counts."""
    if N <= 0:
        raise ConfigError(f"total sample size must be positive, got {N}")
    strata = tuple(sorted(counts, key=lambda s: (len(s), tuple(sorted(s)))))
    values = np.array([counts[s] for s in strata], dtype=float)
    if np.any(values < 0):
        raise ConfigError("strata counts must be nonnegative")
    if int(values.sum()) != N:
        raise ConfigError(f"strata counts sum to {int(values.sum())}, expected N={N}")
    return PrevalenceVector(strata=strata, values=values / N)


def split_evenly(total: int, arms: int) -> list[int]:
    """Split `total` patients over `arms` arms; remainders go to the earliest arms."""
    base, extra = divmod(int(total), arms)
    return [base + (1 if k < extra else 0) for k in range(arms)]


def allocate_arms(
    counts: Sequence[int],
    strata: Sequence[frozenset[int]],
    treatments: Sequence[str],
) -> dict[tuple[int, str], int]:
    """Deterministic even within-stratum split over the stratum's arms.

    Arm order is treatments by label, control last; remainders fill the
    earliest arms in that order.
    """
    sizes: dict[tuple[int, str], int] = {}
    for j, stratum in enumerate(strata):
        arms = _arm_order(treatments[i - 1] for i in stratum)
        for arm, n in zip(arms, split_evenly(counts[j], len(arms))):
            sizes[(j, arm)] = n
    return sizes


def build_design(
    m: int,
    treatment_scheme: str,
    counts: Sequence[int] | Mapping[frozenset[int], int],
    variances: float | Mapping[tuple[frozenset[int], str], float],
    variance_mode: str,
) -> Design:
    """Assemble a Design from strata counts.

    `counts` is either a sequence aligned with the canonical strata order or a
    mapping keyed by stratum. `variances` is a scalar (shared by every cell)
    or a mapping (stratum, arm) -> sigma^2. Arm sizes are the even split of
    `allocate_arms`.
    """
    strata = enumerate_strata(m)
    treatments = treatment_labels(m, treatment_scheme)
    if isinstance(counts, Mapping):
        count_arr = np.array([int(counts.get(s, 0)) for s in strata], dtype=np.int64)
    else:
        count_arr = np.asarray(counts, dtype=np.int64)
        if count_arr.shape != (len(strata),):
            raise ConfigError(
                f"expected {len(strata)} strata counts for m={m}, got {count_arr.shape[0]}"
            )
    if np.any(count_arr < 0):
        raise ConfigError("strata counts must be nonnegative")
    N = int(count_arr.sum())
    if N <= 0:
        raise InfeasibleDesignError("design has no patients")

    cell_map = allocate_arms(count_arr, strata, treatments)

    cells = tuple(sorted(cell_map, key=lambda key: (key[0], (len(key[1]), key[1]))))
    sizes = np.array([cell_map[c] for c in cells], dtype=np.int64)
    if isinstance(variances, Mapping):
        var_arr = np.empty(len(cells))
        for k, (j, arm) in enumerate(cells):
            key = (strata[j], arm)
            if key not in variances:
                raise ConfigError(f"missing variance for cell ({stratum_label(strata[j])}, {arm})")
            var_arr[k] = float(variances[key])
    else:
        var_arr = np.full(len(cells), float(variances))

    return Design(
        m=m,
        treatment_scheme=treatment_scheme,
        N=N,
        strata=strata,
        treatments=treatments,
        cells=cells,
        cell_sizes=sizes,
        cell_variances=var_arr,
        variance_mode=variance_mode,
    )


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


def floor_values(values: np.ndarray, pi_min: float) -> tuple[np.ndarray, float]:
    """Raise sub-threshold weights to pi_min, scale the rest proportionally.

    Returns the transformed weights and the proportional factor p applied to
    the unfloored weights. Note the scaling can leave an unfloored weight
    below pi_min; only the floored entries are guaranteed to sit at pi_min.
    """
    values = np.asarray(values, dtype=float)
    check_transform(TRANSFORM_FLOOR, pi_min, values.shape[0])
    below = values < pi_min
    if not below.any():
        return values.copy(), 1.0
    p = (1.0 - below.sum() * pi_min) / (1.0 - values[below].sum())
    out = np.where(below, pi_min, p * values)
    return out, float(p)


def shift_values(values: np.ndarray, pi_min: float) -> np.ndarray:
    """Additive shift by pi_min with renormalization over all strata."""
    values = np.asarray(values, dtype=float)
    check_transform(TRANSFORM_SHIFT, pi_min, values.shape[0])
    return (values + pi_min) / (1.0 + values.shape[0] * pi_min)


def transform_weights(values, transform: str, pi_min: float) -> tuple[np.ndarray, np.ndarray]:
    """Transformed weights and their chain-rule factors.

    The one dispatch on the transform name. The floor transform zeroes the
    factors of the components it floors and applies its scale p
    (floor_values) elsewhere, also at the non-differentiable point
    values == pi_min, by convention; the shift transform contracts every
    component by 1/(1 + n_S * pi_min). "none" and pi_min = 0 return the
    weights themselves and unit factors.
    """
    values = np.asarray(values, dtype=float)
    n_s = values.shape[0]
    check_transform(transform, pi_min, n_s)
    if transform == TRANSFORM_NONE or pi_min == 0.0:
        return values, np.ones(n_s)
    if transform == TRANSFORM_FLOOR:
        out, p = floor_values(values, pi_min)
        return out, np.where(values < pi_min, 0.0, p)
    return shift_values(values, pi_min), np.full(n_s, 1.0 / (1.0 + n_s * pi_min))
