import numpy as np
import pytest

from pwerpi import design as dz
from pwerpi import sim
from pwerpi.errors import ConfigError


def cell_size(d, stratum, arm):
    return int(d.cell_sizes[d.cells.index((d.strata.index(stratum), arm))])


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


class TestEstimatePrevalences:
    def strata(self):
        return dz.enumerate_strata(2)

    def counts(self, n1, n2, n12):
        s = self.strata()
        return {s[0]: n1, s[1]: n2, s[2]: n12}

    def test_basic(self):
        pv = dz.estimate_prevalences(self.counts(100, 100, 50), 250)
        assert pv.values == pytest.approx([0.4, 0.4, 0.2], abs=1e-15)
        assert pv.strata == dz.enumerate_strata(2)

    def test_degenerate(self):
        pv = dz.estimate_prevalences(self.counts(250, 0, 0), 250)
        assert pv.values == pytest.approx([1.0, 0.0, 0.0], abs=0)

    def test_other_split(self):
        pv = dz.estimate_prevalences(self.counts(125, 75, 50), 250)
        assert pv.values == pytest.approx([0.5, 0.3, 0.2], abs=1e-15)

    def test_zero_total(self):
        with pytest.raises(ConfigError):
            dz.estimate_prevalences(self.counts(0, 0, 0), 0)

    def test_inconsistent_total(self):
        with pytest.raises(ConfigError):
            dz.estimate_prevalences(self.counts(100, 100, 49), 250)


class TestSampleStrataCounts:
    # the strata counts of a simulated study, drawn as a simulation run draws them
    def draw(self, N, pi, seed):
        scenario = sim.SimScenario(N=N, m=2, setting="A")
        design = sim._draw(scenario, np.asarray(pi, float), np.random.default_rng(seed)).design
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
    def test_even_split_two_arms(self):
        assert dz.split_evenly(10, 2) == [5, 5]

    def test_remainder_three_arms(self):
        assert dz.split_evenly(10, 3) == [4, 3, 3]

    def test_single_patient(self):
        assert dz.split_evenly(1, 2) == [1, 0]

    def test_conservation_and_population_identity(self):
        d = dz.build_design(3, "pairwise_different", [11, 7, 5, 9, 3, 8, 13], 1.0,
                            "known_homogeneous")
        # arm sizes sum back to strata counts
        for j, stratum in enumerate(d.strata):
            total = sum(cell_size(d, stratum, a) for a in d.arms_of(stratum))
            assert total == d.strata_counts[j]
        # population-level arm sizes aggregate the member strata
        for i in range(1, 4):
            arms = ((d.treatments[i - 1], d.treatment_member), (dz.CONTROL, d.control_member))
            for arm, member in arms:
                expected = sum(
                    cell_size(d, s, arm)
                    for s in d.strata
                    if i in s and arm in d.arms_of(s)
                )
                assert member[i - 1] @ d.cell_sizes == expected

    def test_control_last_gets_remainder_smaller(self):
        d = dz.build_design(2, "pairwise_different", [0, 0, 10], 1.0, "known_homogeneous")
        s12 = frozenset({1, 2})
        assert [cell_size(d, s12, a) for a in d.arms_of(s12)] == [4, 3, 3]


class TestTransforms:
    def test_floor_basic(self):
        values, p = dz.floor_values(np.array([0.1, 0.4, 0.5]), 0.2)
        assert p == pytest.approx(8 / 9, abs=1e-15)
        assert values == pytest.approx([0.2, 0.4 * 8 / 9, 0.5 * 8 / 9], abs=1e-12)
        assert values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_floor_zero_is_identity(self):
        values, p = dz.floor_values(np.array([0.1, 0.4, 0.5]), 0.0)
        assert p == 1.0
        assert values == pytest.approx([0.1, 0.4, 0.5], abs=0)

    def test_floor_inactive(self):
        values, p = dz.floor_values(np.array([0.5, 0.5]), 0.1)
        assert p == 1.0
        assert values == pytest.approx([0.5, 0.5], abs=0)

    def test_floor_pi_min_too_large(self):
        with pytest.raises(ConfigError):
            dz.floor_values(np.array([0.5, 0.3, 0.2]), 1 / 3)

    def test_shift_symmetric_fixed_point(self):
        assert dz.shift_values(np.array([0.5, 0.5]), 0.1) == pytest.approx([0.5, 0.5])

    def test_shift_basic(self):
        assert dz.shift_values(np.array([0.2, 0.8]), 0.1) == pytest.approx([0.25, 0.75])

    def test_shift_zero_identity(self):
        assert dz.shift_values(np.array([0.2, 0.8]), 0.0) == pytest.approx([0.2, 0.8], abs=0)

    def test_prevalence_vector_transforms(self):
        values = np.array([0.1, 0.4, 0.5])
        floored, _ = dz.transform_weights(values, "floor", 0.2)
        assert np.array_equal(floored, dz.floor_values(values, 0.2)[0])
        assert floored.min() == pytest.approx(0.2)
        shifted, _ = dz.transform_weights(values, "shift", 0.1)
        assert shifted == pytest.approx((values + 0.1) / 1.3)

    def test_transform_sums_to_one_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n_s = rng.integers(2, 16)
            values = rng.dirichlet(np.ones(n_s))
            pi_min = rng.uniform(0.0, 0.9 / n_s)
            floored, _ = dz.floor_values(values, pi_min)
            shifted = dz.shift_values(values, pi_min)
            assert abs(floored.sum() - 1.0) <= 1e-12
            assert abs(shifted.sum() - 1.0) <= 1e-12
            # floored entries sit exactly at the boundary
            below = values < pi_min
            if below.any():
                assert floored[below] == pytest.approx(pi_min, abs=1e-15)

    def test_floor_scaling_can_undershoot_boundary(self):
        # proportional rescaling is allowed to push an unfloored weight
        # below pi_min; only floored entries are pinned to it
        values, p = dz.floor_values(np.array([0.05, 0.21, 0.74]), 0.2)
        assert values[0] == pytest.approx(0.2)
        assert values[1] == pytest.approx(0.21 * p) and values[1] < 0.2
        assert values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_floor_below_min_is_identity(self):
        values = np.array([0.3, 0.3, 0.4])
        out, p = dz.floor_values(values, 0.25)
        assert p == 1.0 and np.array_equal(out, values)

    def test_shift_order_preserving(self):
        rng = np.random.default_rng(5)
        values = rng.dirichlet(np.ones(7))
        shifted = dz.shift_values(values, 0.05)
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


class TestPrevalenceVector:
    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            dz.PrevalenceVector(dz.enumerate_strata(2), np.array([-0.1, 0.6, 0.5]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ConfigError):
            dz.PrevalenceVector(dz.enumerate_strata(2), np.array([0.5, 0.5, 0.1]))

    def test_renormalizes_within_tolerance(self):
        values = np.array([0.5, 0.5, 1e-13])
        pv = dz.PrevalenceVector(dz.enumerate_strata(2), values / values.sum())
        assert pv.values.sum() == pytest.approx(1.0, abs=1e-15)

    def test_as_dict_labels(self):
        pv = dz.PrevalenceVector(dz.enumerate_strata(2), np.array([0.2, 0.3, 0.5]))
        assert pv.as_dict() == {"1": 0.2, "2": 0.3, "1,2": 0.5}
