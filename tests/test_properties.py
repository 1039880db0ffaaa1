"""Property tests of cross-layer invariants (deterministic hypothesis runs)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwerpi import design as dz
from pwerpi import pwer

from oracles import population_correlation_oracle

ALPHA = 0.025

deterministic = settings(derandomize=True, deadline=None, database=None)


def simplex_weights(n_s: int):
    """Weights on the n_s-simplex, zero components included."""
    raw = st.lists(
        st.integers(0, 1000), min_size=n_s, max_size=n_s
    ).filter(lambda xs: sum(xs) > 0)
    return raw.map(lambda xs: np.asarray(xs, float) / sum(xs))


def _model(m: int, mode: str, counts) -> pwer.TestModel:
    return pwer.build_test_model(dz.build_design(m, "single", counts, 1.0, mode))


class TestPwerMonotone:
    @pytest.mark.parametrize("m,mode", [
        (2, "known_homogeneous"),
        (2, "unknown_homogeneous"),
        (3, "known_homogeneous"),
    ])
    @deterministic
    @given(data=st.data(), c=st.floats(0.0, 4.0), step=st.floats(1e-3, 1.0))
    def test_nonincreasing_in_c(self, m, mode, data, c, step):
        model = _model(m, mode, [40] * (2**m - 1))
        pi = data.draw(simplex_weights(2**m - 1))
        assert pwer.pwer_value(c + step, pi, model) <= pwer.pwer_value(c, pi, model) + 1e-12


def _relabelled_counts(m: int, counts, perm) -> np.ndarray:
    # population i becomes perm[i - 1]; every stratum follows its members
    strata = dz.enumerate_strata(m)
    out = np.empty(len(strata), dtype=np.int64)
    for j, stratum in enumerate(strata):
        out[strata.index(frozenset(perm[i - 1] for i in stratum))] = counts[j]
    return out


def _gamma(m: int, mode: str, counts) -> float:
    counts = np.asarray(counts)
    pi_hat = counts / counts.sum()
    cv = pwer.solve_critical_values(pi_hat, _model(m, mode, counts), ALPHA)
    return pwer.delta_gamma(pi_hat, cv.gradient())


class TestRelabelling:
    # under "pairwise_different" the remainder of an uneven arm split goes to
    # the lowest treatment label, so only "single" is label-free
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("mode", ["known_homogeneous", "unknown_homogeneous"])
    @settings(deterministic, max_examples=25)
    @given(data=st.data())
    def test_gamma_invariant(self, m, mode, data):
        counts = data.draw(st.lists(st.integers(4, 120), min_size=2**m - 1, max_size=2**m - 1))
        perm = data.draw(st.permutations(list(range(1, m + 1))))
        relabelled = _relabelled_counts(m, counts, perm)
        assert _gamma(m, mode, relabelled) == pytest.approx(_gamma(m, mode, counts), rel=1e-6, abs=1e-12)


class TestTransforms:
    @pytest.mark.parametrize("transform", ["floor", "shift"])
    @deterministic
    @given(data=st.data(), n_s=st.integers(2, 15), frac=st.floats(0.0, 1.0, exclude_max=True))
    def test_simplex_and_unit_factors(self, transform, data, n_s, frac):
        values = data.draw(simplex_weights(n_s))
        weights, factors = dz.transform_weights(values, transform, frac / n_s)
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert np.all(weights >= 0.0)
        assert np.all((factors >= 0.0) & (factors <= 1.0))


class TestCorrelationOracle:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("scheme", ["single", "pairwise_different"])
    @settings(deterministic, max_examples=100)
    @given(data=st.data())
    def test_matches_pairwise_formula(self, m, scheme, data):
        n_s = 2**m - 1
        counts = data.draw(st.lists(st.integers(0, 12), min_size=n_s, max_size=n_s).filter(any))
        d = dz.build_design(m, scheme, counts, 1.0, "known_heterogeneous")
        s2 = np.asarray(data.draw(
            st.lists(st.floats(0.05, 4.0), min_size=len(d.cells), max_size=len(d.cells))
        ))
        model = pwer.build_test_model(
            dataclasses.replace(d, cell_variances=s2), allow_empty_populations=True
        )
        corr, v = model.full_corr, model.population_variances
        ref_corr, ref_v = population_correlation_oracle(d, s2)
        assert np.array_equal(np.isnan(corr), np.isnan(ref_corr))
        assert np.array_equal(np.isnan(v), np.isnan(ref_v))
        np.testing.assert_allclose(corr, ref_corr, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(v, ref_v, rtol=0.0, atol=1e-13)


class TestCriticalValueBracket:
    @pytest.mark.parametrize("m,mode", [
        (2, "known_homogeneous"),
        (2, "unknown_homogeneous"),
        (3, "known_homogeneous"),
    ])
    @settings(deterministic, max_examples=20)
    @given(data=st.data())
    def test_within_quantile_bracket(self, m, mode, data):
        # c* lies between the single-test and the Bonferroni-like quantiles
        model = _model(m, mode, [40] * (2**m - 1))
        pi = data.draw(simplex_weights(2**m - 1))
        c_star = pwer.solve_critical_values(pi, model, ALPHA).value
        assert model.tail_quantile(ALPHA) <= c_star <= model.tail_quantile(ALPHA / 2**m)
