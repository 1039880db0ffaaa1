import numpy as np
import pytest
from scipy import special

from pwerpi import mvprob
from pwerpi.errors import ConfigError

from oracles import equicorrelated_orthant, mvn_orthant_mc, mvt_orthant_mc, random_correlation


def corr(mat):
    return mvprob.CorrelationMatrix(np.asarray(mat, dtype=float))


# limits and a random_correlation(4) draw on which QMC at tol 1e-7 converges in a fraction of a second
DIM4_RANDOM = (
    [-1.6934, 1.1173, 1.9781, 0.8841],
    [[1.0, -0.55786, 0.540668, 0.472991], [-0.55786, 1.0, -0.032705, -0.881591],
     [0.540668, -0.032705, 1.0, 0.080858], [0.472991, -0.881591, 0.080858, 1.0]],
)


def equicorr(d, rho):
    return corr(rho + (1.0 - rho) * np.eye(d))


@pytest.fixture
def no_qmc(monkeypatch):
    # the call must be answered by the quadrature
    def fail(*args, **kwargs):
        raise AssertionError("fell back to QMC")

    monkeypatch.setattr(mvprob, "_randomized_qmc", fail)


def qmc_twin(cdf, *args, seed, **kwargs):
    # the same call forced through QMC: equality shows the call fell back to it
    return cdf(*args, rng=np.random.default_rng(seed), method="qmc", **kwargs)


def sov_rows_reference(chol, upper_rows, w):
    # the separation-of-variables product with one row of limits per point
    n, d = upper_rows.shape
    e = special.ndtr(upper_rows[:, 0] / chol[0, 0])
    prod = e.copy()
    y = np.empty((n, d - 1))
    for i in range(1, d):
        z = np.clip(w[:, i - 1] * e, mvprob._TINY, mvprob._ONE)
        y[:, i - 1] = special.ndtri(z)
        num = upper_rows[:, i] - y[:, :i] @ chol[i, :i]
        e = special.ndtr(num / chol[i, i])
        prod *= e
    return prod


class TestUnivariate:
    def test_quantile_975(self):
        assert mvprob.std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_cdf_zero(self):
        assert mvprob.std_normal_cdf(0.0) == 0.5

    def test_quantile_half(self):
        assert mvprob.std_normal_quantile(0.5) == 0.0

    def test_roundtrip(self):
        for q in (1e-6, 0.01, 0.3, 0.5, 0.9, 0.999999):
            x = mvprob.std_normal_quantile(q)
            assert mvprob.std_normal_cdf(x) == pytest.approx(q, abs=1e-12)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.3])
    def test_quantile_domain(self, q):
        with pytest.raises(ConfigError):
            mvprob.std_normal_quantile(q)

    def test_t_quantile(self):
        assert mvprob.t_cdf(2.015048, 5) == pytest.approx(0.95, abs=1e-5)
        assert mvprob.t_quantile(0.95, 5) == pytest.approx(2.015048, abs=1e-5)


class TestMvnCdf:
    def test_dim2_independent_origin(self):
        res = mvprob.mvn_cdf([0.0, 0.0], corr(np.eye(2)))
        assert res.value == pytest.approx(0.25, abs=1e-12)

    def test_dim2_comonotone(self):
        res = mvprob.mvn_cdf([1.0, 1.0], corr([[1, 1], [1, 1]]))
        assert res.value == pytest.approx(0.841345, abs=1e-6)

    def test_dim1_delegates(self):
        res = mvprob.mvn_cdf([0.0], corr([[1.0]]))
        assert res.value == 0.5 and res.points_used == 1

    def test_dim3_against_mc_oracle(self):
        # frozen plain-MC oracle: 1e7 draws, seed 20250810
        oracle, se = 0.6674282, 0.00014898583752986723
        res = mvprob.mvn_cdf([1.0, 1.2, 0.8], corr(0.5 + 0.5 * np.eye(3)), tol=1e-7)
        assert abs(res.value - oracle) <= 3.0 * se + res.error_estimate

    @pytest.mark.parametrize("upper, mat", [
        pytest.param([1.0, 1.2, 0.8], 0.5 + 0.5 * np.eye(3), id="d3"),
        pytest.param([0.7, -0.4], [[1, 0.6], [0.6, 1]], id="d2"),
        pytest.param(*DIM4_RANDOM, id="d4"),
    ])
    def test_qmc_and_deterministic_agree(self, upper, mat):
        cm = corr(mat)
        det = mvprob.mvn_cdf(upper, cm, tol=1e-7)
        q = mvprob.mvn_cdf(upper, cm, tol=1e-7,
                           rng=np.random.default_rng(4), method="qmc")
        # both error estimates are ~3-sigma bounds; allow their sum plus slack
        assert abs(det.value - q.value) <= 2 * q.error_estimate + det.error_estimate + 1e-8

    def test_monotone_in_limits(self):
        c3 = corr([[1, 0.3, -0.2], [0.3, 1, 0.5], [-0.2, 0.5, 1]])
        tol = 1e-7
        grid = np.linspace(-1.5, 2.5, 9)
        previous = -1.0
        for b in grid:
            value = mvprob.mvn_cdf([b, 1.0, 0.5], c3, tol=tol).value
            assert value >= previous - 2 * tol
            previous = value

    def test_block_diagonal_factorizes(self):
        full = corr([[1, 0.6, 0], [0.6, 1, 0], [0, 0, 1]])
        tol = 1e-7
        joint = mvprob.mvn_cdf([0.8, 1.1, -0.3], full, tol=tol).value
        pair = mvprob.mvn_cdf([0.8, 1.1], corr([[1, 0.6], [0.6, 1]]), tol=tol).value
        single = mvprob.std_normal_cdf(-0.3)
        assert joint == pytest.approx(pair * single, abs=3 * tol)

    def test_permutation_invariance(self):
        mat = np.array([[1, 0.5, 0.2], [0.5, 1, -0.1], [0.2, -0.1, 1]])
        upper = np.array([0.7, 1.4, -0.2])
        tol = 1e-7
        base = mvprob.mvn_cdf(upper, corr(mat), tol=tol).value
        perm = [2, 0, 1]
        permuted = mvprob.mvn_cdf(upper[perm], corr(mat[np.ix_(perm, perm)]), tol=tol).value
        assert permuted == pytest.approx(base, abs=2 * tol)

    def test_determinism_bit_identical(self):
        c4 = corr(0.4 + 0.6 * np.eye(4))
        for method in ("auto", "qmc"):
            a = mvprob.mvn_cdf([1.5, 1.2, 0.9, 1.8], c4, rng=np.random.default_rng(13), method=method)
            b = mvprob.mvn_cdf([1.5, 1.2, 0.9, 1.8], c4, rng=np.random.default_rng(13), method=method)
            assert a == b

    def test_qmc_builds_each_engine_once(self, monkeypatch):
        # refinement rounds extend the scrambled streams instead of rebuilding them
        built = []
        sobol = mvprob.qmc.Sobol

        def counting_sobol(*args, **kwargs):
            built.append(args)
            return sobol(*args, **kwargs)

        monkeypatch.setattr(mvprob.qmc, "Sobol", counting_sobol)
        c4 = corr(0.4 + 0.6 * np.eye(4))
        res = mvprob.mvn_cdf([1.5, 1.2, 0.9, 1.8], c4, tol=1e-6, rng=np.random.default_rng(13),
                             method="qmc")
        assert res.points_used > 12 * 128  # more than one round
        assert len(built) == 12

    def test_reused_engines_match_fresh_engines(self):
        c4 = corr(0.4 + 0.6 * np.eye(4))
        engines = {}
        for upper in ([1.5, 1.2, 0.9, 1.8], [2.1, 0.3, 1.7, 1.1]):
            kept = mvprob.mvn_cdf(upper, c4, rng=np.random.default_rng(13), method="qmc",
                                  engines=engines)
            fresh = mvprob.mvn_cdf(upper, c4, rng=np.random.default_rng(13), method="qmc")
            assert kept == fresh
        assert len(engines) == 1

    def test_sov_product_matches_broadcast_rows(self):
        rng = np.random.default_rng(4)
        chol = np.linalg.cholesky(random_correlation(4, rng))
        w = rng.random((256, 3))
        w[:3] = [0.0, 1.0, 1e-320]  # exercises both ends of the clip
        upper = rng.normal(size=4)
        rows = rng.normal(size=(256, 4))
        assert np.array_equal(mvprob._sov_product(chol, upper, w),
                              sov_rows_reference(chol, np.broadcast_to(upper, (256, 4)), w))
        assert np.array_equal(mvprob._sov_product(chol, rows, w),
                              sov_rows_reference(chol, rows, w))

    def test_dim4_against_mc_oracle(self):
        rng = np.random.default_rng(21)
        mat = random_correlation(4, rng)
        upper = rng.normal(size=4) * 1.5
        res = mvprob.mvn_cdf(upper, corr(mat), tol=1e-6, rng=np.random.default_rng(1))
        oracle, se = mvn_orthant_mc(upper, mat, 2_000_000, seed=99)
        assert abs(res.value - oracle) <= 3 * np.hypot(se, res.error_estimate / 3) + 1.5e-6

    @pytest.mark.parametrize("upper, rho", [
        ([1.5, 1.2, 0.9, 1.8], 0.4),
        ([0.3, -0.2, 0.8, 2.2], 0.75),
        ([-0.5, 0.1, 1.0, 0.4], 0.1),
    ])
    def test_dim4_equicorrelated_closed_form(self, no_qmc, upper, rho):
        res = mvprob.mvn_cdf(upper, equicorr(4, rho))
        assert abs(res.value - equicorrelated_orthant(upper, rho)) <= 1e-9

    @pytest.mark.parametrize("a, b, upper", [
        (0.6, -0.3, [0.8, 1.1, -0.3, 0.5]),
        (0.95, 0.2, [1.2, 0.4, 1.9, -0.7]),
        (0.995, 0.2, [0.3, -0.4, 1.1, 0.6]),  # exact only if the strong pair is conditioned last
    ])
    def test_dim4_block_diagonal_factorizes(self, no_qmc, a, b, upper):
        mat = np.zeros((4, 4))
        mat[:2, :2] = [[1, a], [a, 1]]
        mat[2:, 2:] = [[1, b], [b, 1]]
        res = mvprob.mvn_cdf(upper, corr(mat))
        pair = mvprob.bvn_cdf(upper[0], upper[1], a) * mvprob.bvn_cdf(upper[2], upper[3], b)
        assert abs(res.value - pair) <= 1e-12

    @pytest.mark.parametrize("mat", [
        pytest.param(0.9995 * np.ones((4, 4)) + 0.0005 * np.eye(4), id="outer_pivot"),
        pytest.param([[1, 0.1, 0.1, 0.1], [0.1, 1, 0.9995, 0.9995],
                      [0.1, 0.9995, 1, 0.9995], [0.1, 0.9995, 0.9995, 1]], id="inner_pivot"),
    ])
    def test_dim4_near_singular_falls_back_to_qmc(self, mat):
        upper = [1.0, 1.1, 1.2, 1.3]
        res = mvprob.mvn_cdf(upper, corr(mat), tol=1e-4, rng=np.random.default_rng(2))
        assert res.points_used > 1000
        assert res == qmc_twin(mvprob.mvn_cdf, upper, corr(mat), tol=1e-4, seed=2)

    def test_dim4_quadrature_error_above_tol_falls_back_to_qmc(self):
        # nearly comonotone but pivotable: the coarse and fine rules disagree by ~1e-4
        upper, c4 = [2.0, -1.0, 0.5, 0.3], equicorr(4, 0.99)
        res = mvprob.mvn_cdf(upper, c4, tol=1e-6, rng=np.random.default_rng(5))
        assert res == qmc_twin(mvprob.mvn_cdf, upper, c4, tol=1e-6, seed=5)
        assert res.error_estimate <= 1e-6

    def test_dim3_quadrature_error_above_tol_falls_back_to_qmc(self):
        # the quadrature's own error estimate here is ~9e-3, its error ~4e-4
        upper = [2.0, -1.0, 0.5]
        res = mvprob.mvn_cdf(upper, equicorr(3, 0.998), tol=1e-6, rng=np.random.default_rng(5))
        assert res == qmc_twin(mvprob.mvn_cdf, upper, equicorr(3, 0.998), tol=1e-6, seed=5)
        assert res.error_estimate <= 1e-6
        assert abs(res.value - equicorrelated_orthant(upper, 0.998)) <= 3.0 * res.error_estimate

    def test_tol_domain(self):
        with pytest.raises(ConfigError):
            mvprob.mvn_cdf([0.0, 0.0], corr(np.eye(2)), tol=1e-2)
        with pytest.raises(ConfigError):
            mvprob.mvn_cdf([0.0, 0.0], corr(np.eye(2)), tol=1e-9)

    @pytest.mark.parametrize("method", ["det", "QMC", "", None])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ConfigError):
            mvprob.mvn_cdf([0.0, 0.0, 0.0, 0.0], equicorr(4, 0.3), method=method)
        with pytest.raises(ConfigError):
            mvprob.mvt_cdf([0.0, 0.0, 0.0, 0.0], equicorr(4, 0.3), df=5.0, method=method)

    def test_dim3_near_singular_falls_back_to_qmc(self):
        # no conditioning pivot exists; the QMC path with ridge repair handles it
        rho = 0.9995
        mat = rho * np.ones((3, 3)) + (1 - rho) * np.eye(3)
        res = mvprob.mvn_cdf([1.0, 1.1, 1.2], corr(mat), tol=1e-4,
                             rng=np.random.default_rng(2))
        # nearly comonotone: probability close to Phi(min limit)
        assert res.value == pytest.approx(mvprob.std_normal_cdf(1.0), abs=0.01)
        assert res.points_used > 1000


class TestNodeLadder:
    """The normal quadrature climbs 24 -> 48 -> 96 nodes per layer until two rungs agree."""

    @staticmethod
    def rung(upper, cm, n):
        return float(mvprob._cond_quad(np.asarray(upper, float)[:, None], *cm.conditioning(),
                                       (n,) * (cm.dim - 2))[0])

    @pytest.mark.parametrize("d", [3, 4])
    def test_unsettled_input_returns_the_old_fine_pair(self, no_qmc, d):
        # 24 and 48 nodes disagree by ~8e-8 here, so the 96 rung decides
        upper, cm = [1.0, 1.2, 0.8, 1.5][:d], equicorr(d, 0.95)
        coarse, fine = self.rung(upper, cm, 48), self.rung(upper, cm, 96)
        assert 3.0 * abs(coarse - self.rung(upper, cm, 24)) > mvprob.TOL_MIN
        res = mvprob.mvn_cdf(upper, cm)
        assert res.value == fine
        assert res.error_estimate == max(3.0 * abs(fine - coarse), 1e-10)
        assert res.points_used == sum(n ** (d - 2) for n in (24, 48, 96))

    def test_settled_inputs_match_the_finest_rung(self):
        rng = np.random.default_rng(10)
        settled = 0
        for d in (3, 4):
            for _ in range(50):
                cm = corr(random_correlation(d, rng))
                upper = rng.normal(size=d) * 1.5
                res = mvprob.mvn_cdf(upper, cm)
                if res.points_used == 24 ** (d - 2) + 48 ** (d - 2):
                    settled += 1
                    assert res.value == self.rung(upper, cm, 48)
                    assert abs(res.value - self.rung(upper, cm, 96)) <= 1e-13
                    assert res.error_estimate <= mvprob.TOL_MIN
        assert settled >= 90

    @pytest.mark.parametrize("upper, mat", [
        pytest.param([1.0, 1.2, 0.8], 0.5 + 0.5 * np.eye(3), id="d3_settled"),
        pytest.param(*DIM4_RANDOM, id="d4_random"),
        pytest.param([1.0, 1.2, 0.8, 1.5], 0.95 + 0.05 * np.eye(4), id="d4_unsettled"),
    ])
    def test_result_independent_of_tol(self, no_qmc, upper, mat):
        assert mvprob.mvn_cdf(upper, corr(mat), tol=1e-6) == mvprob.mvn_cdf(upper, corr(mat), tol=1e-7)

    def test_conditioning_plan_cached(self):
        cm = equicorr(4, 0.4)
        assert cm.conditioning() is cm.conditioning()
        singular = equicorr(3, 0.9995)
        assert singular.conditioning() is None and "_plan" in singular.__dict__


class TestMvtCdf:
    def test_dim1_t_quantile(self):
        res = mvprob.mvt_cdf([2.015048], corr([[1.0]]), df=5)
        assert res.value == pytest.approx(0.95, abs=1e-5)

    def test_dim2_independent_origin(self):
        res = mvprob.mvt_cdf([0.0, 0.0], corr(np.eye(2)), df=10)
        assert res.value == pytest.approx(0.25, abs=1e-10)

    def test_dim2_against_mc_oracle(self):
        # frozen plain-MC oracle: 1e7 draws, seed 20250811
        oracle, se = 0.8731557, 0.00010524011761562698
        res = mvprob.mvt_cdf([1.5, 1.5], corr([[1, 0.5], [0.5, 1]]), df=20, tol=1e-7)
        assert abs(res.value - oracle) <= 3.0 * se + res.error_estimate

    def test_converges_to_normal(self):
        c3 = corr(0.5 + 0.5 * np.eye(3))
        t_val = mvprob.mvt_cdf([1.0, 1.2, 0.8], c3, df=1e6, tol=1e-7).value
        n_val = mvprob.mvn_cdf([1.0, 1.2, 0.8], c3, tol=1e-7).value
        assert t_val == pytest.approx(n_val, abs=1e-4)

    def test_comonotone_reduction(self):
        res = mvprob.mvt_cdf([1.3, 0.9], corr([[1, 1], [1, 1]]), df=7)
        assert res.value == pytest.approx(mvprob.t_cdf(0.9, 7), abs=1e-12)

    def test_df_domain(self):
        with pytest.raises(ConfigError):
            mvprob.mvt_cdf([0.0, 0.0], corr(np.eye(2)), df=0.5)

    def test_dim2_det_vs_qmc(self):
        c2 = corr([[1, -0.35], [-0.35, 1]])
        det = mvprob.mvt_cdf([1.1, 0.6], c2, df=6.5, tol=1e-7)  # the _bvt_det quadrature
        q = mvprob.mvt_cdf([1.1, 0.6], c2, df=6.5, tol=1e-6,
                           rng=np.random.default_rng(9), method="qmc")
        assert abs(det.value - q.value) <= q.error_estimate + det.error_estimate + 1e-7

    def test_dim3_det_vs_qmc(self):
        c3 = corr([[1, 0.4, 0.25], [0.4, 1, 0.55], [0.25, 0.55, 1]])
        det = mvprob.mvt_cdf([1.8, 2.0, 2.2], c3, df=17.5, tol=1e-7)
        q = mvprob.mvt_cdf([1.8, 2.0, 2.2], c3, df=17.5, tol=1e-6,
                           rng=np.random.default_rng(8), method="qmc")
        assert abs(det.value - q.value) <= q.error_estimate + 1e-7

    def test_dim3_quadrature_error_above_tol_falls_back_to_qmc(self):
        # the quadrature's own error estimate here is ~9e-5
        upper = [2.0, -1.0, 0.5]
        res = mvprob.mvt_cdf(upper, equicorr(3, 0.998), df=5.0, tol=1e-5,
                             rng=np.random.default_rng(5))
        assert res.error_estimate <= 1e-5
        assert abs(res.value - equicorrelated_orthant(upper, 0.998, 5.0)) <= 3.0 * res.error_estimate

    @pytest.mark.parametrize("upper, rho, df", [
        ([1.5, 1.2, 0.9, 1.8], 0.4, 3.0),
        ([0.3, -0.2, 0.8, 2.2], 0.75, 20.0),
    ])
    def test_dim4_equicorrelated_closed_form(self, no_qmc, upper, rho, df):
        res = mvprob.mvt_cdf(upper, equicorr(4, rho), df=df)
        assert abs(res.value - equicorrelated_orthant(upper, rho, df)) <= 1e-9

    def test_dim4_det_vs_qmc(self):
        upper, c4 = DIM4_RANDOM[0], corr(DIM4_RANDOM[1])
        det = mvprob.mvt_cdf(upper, c4, df=7.5, tol=1e-7)
        q = qmc_twin(mvprob.mvt_cdf, upper, c4, df=7.5, tol=1e-6, seed=43)
        assert abs(det.value - q.value) <= q.error_estimate + 1e-7

    def test_dim4_near_singular_falls_back_to_qmc(self):
        upper, c4 = [1.0, 1.1, 1.2, 1.3], equicorr(4, 0.9995)
        res = mvprob.mvt_cdf(upper, c4, df=6.0, tol=1e-4, rng=np.random.default_rng(2))
        assert res.points_used > 1000
        assert res == qmc_twin(mvprob.mvt_cdf, upper, c4, df=6.0, tol=1e-4, seed=2)

    def test_reused_engines_match_fresh_engines(self):
        c3 = corr([[1, 0.4, 0.25], [0.4, 1, 0.55], [0.25, 0.55, 1]])
        engines = {}
        for upper in ([1.8, 2.0, 2.2], [0.9, 1.4, 2.6]):
            kept = mvprob.mvt_cdf(upper, c3, df=17.5, rng=np.random.default_rng(8),
                                  method="qmc", engines=engines)
            fresh = mvprob.mvt_cdf(upper, c3, df=17.5, rng=np.random.default_rng(8),
                                   method="qmc")
            assert kept == fresh
        assert len(engines) == 1

    def test_dim3_against_mc_oracle(self):
        rng = np.random.default_rng(33)
        mat = random_correlation(3, rng)
        upper = rng.normal(size=3) * 1.5
        res = mvprob.mvt_cdf(upper, corr(mat), df=9.0, tol=1e-7)
        oracle, se = mvt_orthant_mc(upper, mat, 9.0, 2_000_000, seed=101)
        assert abs(res.value - oracle) <= 3 * np.hypot(se, res.error_estimate / 3) + 1.5e-6


class TestCorrelationMatrix:
    def test_semidefinite_boundary_accepted(self):
        mat = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        cm = corr(mat)  # eigenvalue exactly 0
        res = mvprob.mvn_cdf([0.5, 1.0, 0.2], cm, rng=np.random.default_rng(0), method="qmc")
        assert 0.0 <= res.value <= 1.0

    def test_indefinite_rejected(self):
        mat = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.9], [0.5, 0.9, 1.0]])
        with pytest.raises(ConfigError):
            corr(mat)

    def test_asymmetric_rejected(self):
        with pytest.raises(ConfigError):
            corr([[1.0, 0.2], [0.3, 1.0]])

    def test_bad_diagonal_rejected(self):
        with pytest.raises(ConfigError):
            corr([[1.0, 0.2], [0.2, 0.9]])

    def test_prob_result_fields(self):
        res = mvprob.mvn_cdf([1.0, 1.0, 1.0], corr(0.5 + 0.5 * np.eye(3)))
        assert 0.0 <= res.value <= 1.0
        assert res.error_estimate >= 0.0
        assert res.points_used > 0
