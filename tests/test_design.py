import dataclasses

import numpy as np
import pytest

from pwerpi import design as dz
from pwerpi import sim
from pwerpi.errors import ConfigError, InfeasibleDesignError


def cell_size(d, stratum, arm):
    return int(d.cell_sizes[d.cells.index((d.strata.index(stratum), arm))])


def arms_of(d, j):
    """Stratum j's arms in split order: treatments by label, control last."""
    arms = [arm for k, arm in d.cells if k == j]
    return arms[1:] + arms[:1]


class TestEnumerateStrata:
    def test_m2(self):
        assert dz.enumerate_strata(2) == (
            frozenset({1}),
            frozenset({2}),
            frozenset({1, 2}),
        )

    def test_m3_first_three_singletons(self):
        strata = dz.enumerate_strata(3)
        assert len(strata) == 7
        assert strata[:3] == (frozenset({1}), frozenset({2}), frozenset({3}))

    def test_m5_count(self):
        assert len(dz.enumerate_strata(5)) == 31

    @pytest.mark.parametrize("m", [1, 0, 13, 2.5])
    def test_out_of_range(self, m):
        with pytest.raises(ConfigError):
            dz.enumerate_strata(m)

    def test_no_duplicates_and_order_stable(self):
        strata = dz.enumerate_strata(4)
        assert len(set(strata)) == len(strata)
        sizes = [len(s) for s in strata]
        assert sizes == sorted(sizes)


class TestStratumMembers:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_rows_are_the_canonical_strata(self, m):
        table = dz.stratum_members(m)
        strata = dz.enumerate_strata(m)
        assert table.tolist() == [[i in s for i in range(1, m + 1)] for s in strata]
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = not table[0, 0]
        for row, s in zip(table, strata):
            assert np.flatnonzero(row).tolist() == sorted(i - 1 for i in s)

    @pytest.mark.parametrize("m", [1, 0, 13, 3.0, True])
    def test_invalid_m_raises(self, m):
        with pytest.raises(ConfigError):
            dz.stratum_members(m)


class TestEstimatePrevalences:
    # the prevalence estimate is the design's strata_counts / N
    def estimate(self, n1, n2, n12):
        d = dz.build_design(2, "pairwise_different", [n1, n2, n12], 1.0, "known_homogeneous")
        return d.strata_counts / d.N

    def test_basic(self):
        assert self.estimate(100, 100, 50) == pytest.approx([0.4, 0.4, 0.2], abs=1e-15)

    def test_degenerate(self):
        assert self.estimate(250, 0, 0) == pytest.approx([1.0, 0.0, 0.0], abs=0)

    def test_other_split(self):
        assert self.estimate(125, 75, 50) == pytest.approx([0.5, 0.3, 0.2], abs=1e-15)

    def test_zero_total(self):
        with pytest.raises(InfeasibleDesignError):
            self.estimate(0, 0, 0)


class TestDesignCounts:
    def build(self, counts):
        return dz.build_design(2, "single", counts, 1.0, "known_homogeneous")

    @pytest.mark.parametrize("counts", [
        [83.9, 83, -0.5], [83.5, 83, 84], [np.nan, 83, 84], [np.inf, 83, 84], [83, 83, -1],
        [True, 83, 84], np.array([True, False, True]), {frozenset({1}): 83.9}, ["83", 83, 84],
        ["a", 83, 84],
    ], ids=["fractional_and_negative", "fractional", "nan", "inf", "negative", "bool",
            "bool_array", "fractional_mapping", "string", "non_numeric"])
    def test_rejects_counts_that_are_not_whole_numbers(self, counts):
        # a plain int64 cast would take these silently: [83.9, 83, -0.5] as [83, 83, 0]
        with pytest.raises(ConfigError):
            self.build(counts)

    @pytest.mark.parametrize("counts", [[83, 83, 84], [83.0, 83.0, 84.0], np.array([83, 83, 84]),
                                        np.array([83.0, 83.0, 84.0]), np.array([83, 83, 84], np.uint8)])
    def test_whole_numbers_of_any_type(self, counts):
        d = self.build(counts)
        assert d.strata_counts.dtype == np.int64
        assert d.strata_counts.tolist() == [83, 83, 84] and d.N == 250

    def test_callers_arrays_stay_writeable(self):
        counts, variances = np.array([83, 83, 84]), np.ones(6)
        d = dz.Design(2, "single", counts, variances, "known_homogeneous")
        assert counts.flags.writeable and variances.flags.writeable
        assert not (d.strata_counts.flags.writeable or d.cell_variances.flags.writeable)


class TestSampleStrataCounts:
    # the strata counts of a simulated study, drawn as a simulation run draws them
    def draw(self, N, pi, seed):
        scenario = sim.SimScenario(N=N, m=2, setting="A")
        design = sim._draw_block(scenario, np.asarray(pi, float), [np.random.default_rng(seed)])[0].design
        return design.strata_counts

    def test_degenerate(self):
        assert list(self.draw(77, [1.0, 0.0, 0.0], 0)) == [77, 0, 0]

    def test_law_of_large_numbers(self):
        counts = self.draw(10**6, [0.5, 0.5, 0.0], 7)
        assert counts[0] / 10**6 == pytest.approx(0.5, abs=0.002)

    def test_golden_draw(self):
        # pinned output of the chosen generator at seed 12345
        assert list(self.draw(250, np.full(3, 1 / 3), 12345)) == [85, 87, 78]

    def test_marginal_means(self):
        values = np.array([0.2, 0.5, 0.3])
        n, draws = 200, 10_000
        rng = np.random.default_rng(11)
        sample = rng.multinomial(n, values, size=draws) / n
        tol = 4.0 * np.sqrt(values * (1 - values) / (n * draws))
        assert np.all(np.abs(sample.mean(axis=0) - values) <= tol)


class TestAllocateArms:
    def split(self, total, treatments):
        # one stratum's split: the overlap stratum {1, 2} of a design whose
        # scheme gives it `treatments` treatment arms besides the control
        scheme = {1: "single", 2: "pairwise_different"}[treatments]
        d = dz.build_design(2, scheme, [0, 0, total], 1.0, "known_homogeneous")
        return [cell_size(d, frozenset({1, 2}), arm) for arm in arms_of(d, 2)]

    def test_even_split_two_arms(self):
        assert self.split(10, 1) == [5, 5]

    def test_remainder_three_arms(self):
        assert self.split(10, 2) == [4, 3, 3]

    def test_single_patient(self):
        assert self.split(1, 1) == [1, 0]

    def test_conservation_and_population_identity(self):
        d = dz.build_design(3, "pairwise_different", [11, 7, 5, 9, 3, 8, 13], 1.0,
                            "known_homogeneous")
        # arm sizes sum back to strata counts
        for j, stratum in enumerate(d.strata):
            total = sum(cell_size(d, stratum, a) for a in arms_of(d, j))
            assert total == d.strata_counts[j]
        # population-level arm sizes aggregate the member strata
        for i in range(1, 4):
            arms = ((d.treatments[i - 1], d.treatment_member), (dz.CONTROL, d.control_member))
            for arm, member in arms:
                expected = sum(
                    cell_size(d, s, arm)
                    for j, s in enumerate(d.strata)
                    if i in s and arm in arms_of(d, j)
                )
                assert member[i - 1] @ d.cell_sizes == expected

    def test_control_last_gets_remainder_smaller(self):
        d = dz.build_design(2, "pairwise_different", [0, 0, 10], 1.0, "known_homogeneous")
        s12 = frozenset({1, 2})
        assert [cell_size(d, s12, a) for a in arms_of(d, 2)] == [4, 3, 3]

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("scheme", ["single", "pairwise_different"])
    def test_batched_split_is_the_per_stratum_split(self, m, scheme):
        # a (B, strata) count array splits row by row, stratum by stratum
        counts = np.random.default_rng(m).integers(0, 40, size=(20, 2**m - 1))
        d = dz.build_design(m, scheme, counts[0] + 1, 1.0, "known_homogeneous")
        for row, sizes in zip(counts, dz.cell_layout(m, scheme).split_counts(counts)):
            for j in range(len(d.strata)):
                arms = arms_of(d, j)
                base, extra = divmod(int(row[j]), len(arms))
                for k, arm in enumerate(arms):
                    assert sizes[d.cells.index((j, arm))] == base + (k < extra)


class TestCellLayout:
    def test_order_and_slots(self):
        layout = dz.cell_layout(2, "pairwise_different")
        # per stratum: control first, then the treatments in label order
        assert layout.cells == ((0, "C"), (0, "T1"), (1, "C"), (1, "T2"),
                                (2, "C"), (2, "T1"), (2, "T2"))
        # split order: treatments by label, control last
        assert layout.arm_slot.tolist() == [1, 0, 1, 0, 2, 0, 1]
        assert layout.arm_count.tolist() == [2, 2, 2, 2, 3, 3, 3]
        assert not layout.treatment_member.flags.writeable

    def test_built_once_per_m_and_scheme(self):
        dz._cell_layout.cache_clear()
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = dz.build_design(3, "single", rng.integers(1, 30, size=7), 1.0,
                                "known_heterogeneous")
            d = dataclasses.replace(d, cell_variances=rng.uniform(0.5, 1.0, len(d.cells)))
            assert d.cells is dz.cell_layout(3, "single").cells
        info = dz._cell_layout.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    @pytest.mark.parametrize("m, scheme", [(1, "single"), (13, "single"), (3.0, "single"),
                                           (True, "single"), (3, "bogus")])
    def test_invalid_domain_raises_and_is_not_cached(self, m, scheme):
        dz.cell_layout(3, "single")
        before = dz._cell_layout.cache_info().currsize
        with pytest.raises(ConfigError):
            dz.cell_layout(m, scheme)
        with pytest.raises(ConfigError):
            dz.build_design(m, scheme, [10] * 7, 1.0, "known_homogeneous")
        assert dz._cell_layout.cache_info().currsize == before


class TestTransforms:
    @staticmethod
    def floor(values, pi_min):
        """The floored weights and the scale p of the unfloored ones (their factor)."""
        out, factors = dz.transform_weights(values, "floor", pi_min)
        return out, float(factors.max())

    @staticmethod
    def shift(values, pi_min):
        return dz.transform_weights(values, "shift", pi_min)[0]

    def test_floor_basic(self):
        values, p = self.floor(np.array([0.1, 0.4, 0.5]), 0.2)
        assert p == pytest.approx(8 / 9, abs=1e-15)
        assert values == pytest.approx([0.2, 0.4 * 8 / 9, 0.5 * 8 / 9], abs=1e-12)
        assert values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_floor_zero_is_identity(self):
        values, p = self.floor(np.array([0.1, 0.4, 0.5]), 0.0)
        assert p == 1.0
        assert values == pytest.approx([0.1, 0.4, 0.5], abs=0)

    def test_floor_inactive(self):
        values, p = self.floor(np.array([0.5, 0.5]), 0.1)
        assert p == 1.0
        assert values == pytest.approx([0.5, 0.5], abs=0)

    def test_floor_pi_min_too_large(self):
        with pytest.raises(ConfigError):
            self.floor(np.array([0.5, 0.3, 0.2]), 1 / 3)

    def test_shift_symmetric_fixed_point(self):
        assert self.shift(np.array([0.5, 0.5]), 0.1) == pytest.approx([0.5, 0.5])

    def test_shift_basic(self):
        assert self.shift(np.array([0.2, 0.8]), 0.1) == pytest.approx([0.25, 0.75])

    def test_shift_zero_identity(self):
        assert self.shift(np.array([0.2, 0.8]), 0.0) == pytest.approx([0.2, 0.8], abs=0)

    def test_prevalence_vector_transforms(self):
        values = np.array([0.1, 0.4, 0.5])
        floored, _ = dz.transform_weights(values, "floor", 0.2)
        # a stack of weight vectors is transformed row by row
        assert np.array_equal(dz.transform_weights(np.stack([values, values[::-1]]), "floor", 0.2)[0][0], floored)
        assert floored.min() == pytest.approx(0.2)
        shifted, _ = dz.transform_weights(values, "shift", 0.1)
        assert shifted == pytest.approx((values + 0.1) / 1.3)

    def test_transform_sums_to_one_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n_s = rng.integers(2, 16)
            values = rng.dirichlet(np.ones(n_s))
            pi_min = rng.uniform(0.0, 0.9 / n_s)
            floored, _ = self.floor(values, pi_min)
            shifted = self.shift(values, pi_min)
            assert abs(floored.sum() - 1.0) <= 1e-12
            assert abs(shifted.sum() - 1.0) <= 1e-12
            # floored entries sit exactly at the boundary
            below = values < pi_min
            if below.any():
                assert floored[below] == pytest.approx(pi_min, abs=1e-15)

    def test_floor_scaling_can_undershoot_boundary(self):
        # proportional rescaling is allowed to push an unfloored weight
        # below pi_min; only floored entries are pinned to it
        values, p = self.floor(np.array([0.05, 0.21, 0.74]), 0.2)
        assert values[0] == pytest.approx(0.2)
        assert values[1] == pytest.approx(0.21 * p) and values[1] < 0.2
        assert values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_floor_below_min_is_identity(self):
        values = np.array([0.3, 0.3, 0.4])
        out, p = self.floor(values, 0.25)
        assert p == 1.0 and np.array_equal(out, values)

    def test_shift_order_preserving(self):
        rng = np.random.default_rng(5)
        values = rng.dirichlet(np.ones(7))
        shifted = self.shift(values, 0.05)
        assert np.array_equal(np.argsort(values), np.argsort(shifted))
        i, j = np.argsort(values)[:2]
        assert (values[i] < values[j]) == (shifted[i] < shifted[j])


class TestGradientFactors:
    def factors(self, values, pi_min, transform):
        return dz.transform_weights(np.asarray(values, float), transform, pi_min)[1]

    def test_floor(self):
        factors = self.factors([0.1, 0.4, 0.5], 0.2, "floor")
        assert factors == pytest.approx([0.0, 8 / 9, 8 / 9])

    def test_floor_at_boundary_uses_p(self):
        factors = self.factors([0.2, 0.3, 0.5], 0.2, "floor")
        assert factors[0] == pytest.approx(1.0)  # nothing floored, p = 1

    def test_shift(self):
        factors = self.factors(np.full(3, 1 / 3), 0.1, "shift")
        assert factors == pytest.approx([1 / 1.3] * 3)

    def test_none(self):
        assert self.factors([0.2, 0.8], 0.3, "none") == pytest.approx([1, 1])


class TestTransformDispatch:
    def test_known_names_and_identity(self):
        values = np.array([0.2, 0.3, 0.5])
        assert dz.transform_weights(values, "none", 0.1)[0] is values
        assert dz.transform_weights(values, "floor", 0.0)[0] is values
        shifted, factors = dz.transform_weights(values, "shift", 0.05)
        assert shifted == pytest.approx((values + 0.05) / 1.15)
        assert factors == pytest.approx(np.full(3, 1 / 1.15))
        with pytest.raises(ConfigError):
            dz.transform_weights(values, "clip", 0.1)


class TestPrevalenceWeights:
    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            dz.prevalence_weights(np.array([-0.1, 0.6, 0.5]), 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    def test_rejects_every_non_finite_or_negative_entry(self, bad):
        for j in range(3):
            pi = np.array([0.2, 0.3, 0.5])
            pi[j] = bad
            with pytest.raises(ConfigError, match="prevalence weights must be finite and nonnegative"):
                dz.prevalence_weights(pi, 3)

    def test_accepts_negative_zero(self):
        pi = np.array([-0.0, 0.5, 0.5])
        assert dz.prevalence_weights(pi, 3) is not None
        with pytest.raises(ConfigError, match=r"prevalence vector has shape \(2,\), expected \(3,\)"):
            dz.prevalence_weights(pi[:2], 3)
