import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import special

from pwerpi import mvprob, pwer
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


def corr2(rho):
    return corr([[1.0, rho], [rho, 1.0]])


@pytest.fixture
def no_qmc(monkeypatch):
    # the call must be answered by the quadrature
    def fail(*args, **kwargs):
        raise AssertionError("fell back to QMC")

    monkeypatch.setattr(mvprob, "_randomized_qmc", fail)


def qmc_twin(upper, cm, df=None, *, tol, seed):
    # the same law through qmc_cdf: equality shows the call fell back to it
    return mvprob.qmc_cdf(upper, cm, df, tol, np.random.default_rng(seed))


def planned(limits, corrs, df=None, tol=1e-6):
    """Every row through orthant_groups, the rows of each dimension stacked, and one
    OrthantGroup.evaluate per group: a ProbResult per row, None where it needs QMC."""
    n = len(corrs)
    dfs = None if df is None else np.broadcast_to(np.asarray(df, dtype=float), (n,))
    dims = np.array([cm.dim for cm in corrs])
    out = [None] * n
    for d in set(dims.tolist()):
        of_d = np.flatnonzero(dims == d)
        mats = np.array([corrs[i].values for i in of_d.tolist()])
        for rows, group in mvprob.orthant_groups(mats, None if dfs is None else dfs[of_d]):
            at = of_d[rows]
            got = group.evaluate(np.array([limits[i] for i in at.tolist()], dtype=float), None, tol)
            for i, value, error, points, settled in zip(at.tolist(), *(a.tolist() for a in got)):
                out[i] = mvprob.ProbResult(value, error, points) if settled else None
    return out


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
    """The marginal laws: a one-dimensional mvn_cdf/mvt_cdf, and the solver's
    marginal quantiles (pwer._lower_quantiles, pwer._upper_quantiles)."""

    NORMAL = np.array([math.nan])  # the df of the normal law

    def test_quantile_975(self):
        assert pwer._lower_quantiles(self.NORMAL, np.array([0.975]))[0] == pytest.approx(1.959964, abs=1e-6)

    def test_cdf_zero(self):
        assert mvprob.mvn_cdf([0.0], corr([[1.0]])).value == 0.5

    def test_quantile_half(self):
        assert pwer._lower_quantiles(self.NORMAL, np.array([0.5]))[0] == 0.0

    def test_roundtrip(self):
        qs = np.array([1e-6, 0.01, 0.3, 0.5, 0.9, 0.999999])
        for q, x in zip(qs.tolist(), pwer._lower_quantiles(np.full(len(qs), math.nan), qs).tolist()):
            assert mvprob.mvn_cdf([x], corr([[1.0]])).value == pytest.approx(q, abs=1e-12)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.3])
    def test_quantile_domain(self, q):
        # the secant's z scale: a PWER outside (0, 1) still has a finite upper quantile, under either law
        assert np.isfinite(pwer._upper_quantiles(np.array([math.nan, 5.0]), np.full(2, q))).all()

    def test_t_quantile(self):
        assert mvprob.mvt_cdf([2.015048], corr([[1.0]]), df=5).value == pytest.approx(0.95, abs=1e-5)
        assert pwer._lower_quantiles(np.array([5.0]), np.array([0.95]))[0] == pytest.approx(2.015048, abs=1e-5)


# correlations covering every rule of bvn_cdf_many: the 6/12/20-node bands, the
# near-singular branch of either sign and the edges within 1e-13 of +-1, each
# with a lone entry and with several
RULE_RHOS = [
    0.1, -0.25, 0.0, 0.5, -0.6, 0.74, 0.8, -0.9, 0.93, 0.9999, -0.95, -0.999,
    1.0 - 5e-14, 1.0, -1.0 + 2e-14, 0.3, 0.75, 0.925, -0.925, 0.2999999, 0.7499999,
]


class TestBivariateMany:
    """One call over many correlations against the calls with one correlation each."""

    @pytest.mark.parametrize("size", [1, 3, len(RULE_RHOS)])
    @pytest.mark.parametrize("row", [(), (32,)], ids=["scalar_rows", "vector_rows"])
    def test_rho_array_equals_single_calls_bit_for_bit(self, size, row):
        rng = np.random.default_rng(size + len(row))
        rho = rng.permutation(RULE_RHOS)[:size]
        b1 = rng.normal(scale=2.0, size=(size, *row))
        b2 = rng.normal(scale=2.0, size=(size, *row))
        many = mvprob.bvn_cdf_many(b1, b2, rho)
        assert many.shape == b1.shape
        for j in range(size):
            assert np.array_equal(many[j], mvprob.bvn_cdf_many(b1[j], b2[j], float(rho[j])))

    @pytest.mark.parametrize("row", [(), (8,)], ids=["scalar_rows", "vector_rows"])
    def test_row_subsets_equal_the_full_call_bit_for_bit(self, row):
        # what holds across calls: any subset of rows at the same trailing shape;
        # the same entries regrouped to another trailing shape may differ in the last bit
        rng = np.random.default_rng(40 + len(row))
        rho = rng.permutation(np.resize(RULE_RHOS, 3 * len(RULE_RHOS)))
        b1 = rng.normal(scale=2.0, size=(rho.size, *row))
        b2 = rng.normal(scale=2.0, size=(rho.size, *row))
        full = mvprob.bvn_cdf_many(b1, b2, rho)
        for size in (1, 2, 5, rho.size // 2):
            for _ in range(10):
                idx = np.sort(rng.choice(rho.size, size=size, replace=False))
                assert np.array_equal(mvprob.bvn_cdf_many(b1[idx], b2[idx], rho[idx]), full[idx])

    @pytest.mark.parametrize("df", [3.0, 12.5, 480.0])
    def test_t_rows_equal_chi_mixture_of_single_calls(self, df):
        # the Gauss-Legendre chi-scale rule stops at its second rung, 32 + 64 nodes;
        # from df = 80 the Gamma rule settles at its second, 8 + 12 nodes
        nodes = (32, 64) if df < 80.0 else (8, 12)
        rng = np.random.default_rng(int(df))
        rho = np.array([r for r in RULE_RHOS if abs(r) < 1.0 - 1e-13])
        upper = rng.normal(scale=1.5, size=(rho.size, 2))
        for j, got in enumerate(planned(upper, [corr2(r) for r in rho], df)):
            rungs = []
            for n in nodes:
                s, w = mvprob._chi_scale_nodes(df, n)
                rungs.append(float(np.sum(w * mvprob.bvn_cdf_many(s * upper[j, 0], s * upper[j, 1], rho[j]))))
            err = max(3.0 * abs(rungs[1] - rungs[0]), 1e-10)
            want = (min(1.0, max(0.0, rungs[1])), err, sum(nodes), False)
            assert tuple(got) == want

    @pytest.mark.parametrize("df", [None, 7.0])
    def test_rows_equal_mvn_mvt_calls(self, df):
        rng = np.random.default_rng(5)
        rho = np.array(RULE_RHOS)
        upper = rng.normal(scale=1.5, size=(rho.size, 2))
        many = planned(upper, [corr2(r) for r in rho], df)
        for j, r in enumerate(rho):
            cm = corr2(r)
            one = mvprob.mvn_cdf(upper[j], cm) if df is None else mvprob.mvt_cdf(upper[j], cm, df)
            assert many[j] == one
        # the univariate laws likewise
        many = planned(upper[:, :1], [corr([[1.0]])] * rho.size, df)
        for j in range(rho.size):
            one = mvprob.mvn_cdf(upper[j, :1], corr([[1.0]])) if df is None else mvprob.mvt_cdf(
                upper[j, :1], corr([[1.0]]), df)
            assert many[j] == one


class TestOrthants:
    """Many laws stacked through orthant_groups against the calls with one law each."""

    def test_t_rows_of_every_dimension_equal_their_own_calls(self):
        rng = np.random.default_rng(14)
        rows = [(d, df) for d in (2, 3, 4) for df in (3.0, 17.5, 235.0)] * 2
        limits = [rng.normal(scale=1.5, size=d) for d, _ in rows]
        corrs = [corr(random_correlation(d, rng)) for d, _ in rows]
        dfs = [df for _, df in rows]
        many = planned(limits, corrs, dfs, 1e-6)
        for upper, cm, df, got in zip(limits, corrs, dfs, many):
            # every field, points_used included
            assert got == mvprob.mvt_cdf(upper, cm, df, tol=1e-6)

    def test_normal_rows_of_every_dimension_equal_their_own_calls(self):
        rng = np.random.default_rng(15)
        dims = [1, 2, 3, 4] * 3
        limits = [rng.normal(scale=1.5, size=d) for d in dims]
        corrs = [corr(random_correlation(d, rng)) if d > 1 else corr([[1.0]]) for d in dims]
        many = planned(limits, corrs, None, 1e-6)
        for upper, cm, got in zip(limits, corrs, many):
            assert got == mvprob.mvn_cdf(upper, cm, tol=1e-6)

    @pytest.mark.parametrize("df", [None, 5.0])
    def test_rows_that_need_qmc_are_none(self, df):
        rows = [
            # nearly singular: error estimates ~2e-4 (normal), 2e-5 and 5e-5 (t)
            ([1.0, 1.1, 1.2], equicorr(3, 0.999)),
            ([1.0, 1.1, 1.2, 1.3], equicorr(4, 0.9999)),
            ([0.5] * 5, equicorr(5, 0.3)),  # five dimensions
            ([1.0, 1.2, 0.8], equicorr(3, 0.998)),  # error estimate ~1e-4 (normal), ~2e-5 (t)
            ([2.0, -1.0, 0.5], equicorr(3, 0.998)),  # nearly comonotone, yet it settles
            ([1.0, 1.2, 0.8], equicorr(3, 0.5)),
            ([0.3, -0.2], corr2(0.9999)),
            ([0.3], corr([[1.0]])),
        ]
        many = planned([u for u, _ in rows], [c for _, c in rows], df, 1e-5)
        assert [r is None for r in many] == [True] * 4 + [False] * 4

    @pytest.mark.parametrize("df", [None, 3.0, 235.0])
    def test_pieces_hold_at_most_a_block_of_evaluations(self, monkeypatch, df):
        # a stacked call's temporaries stay bounded, whatever its row count
        pieces = []
        plackett = mvprob._plackett

        def counting(h, pairs, path, *base):
            # a normal row's first two rungs are one pass: 12 + 24 path nodes per limit vector
            nodes = 0 if path is None else path.nodes
            pieces.append(math.prod(h.shape[:-1]) * max(1, nodes * mvprob._OFF_BLOCK[h.shape[-1]].shape[1]))
            return plackett(h, pairs, path, *base)

        monkeypatch.setattr(mvprob, "_plackett", counting)
        rng = np.random.default_rng(8)
        dims = [2, 3, 4] * 60
        limits = [rng.normal(scale=1.5, size=d) for d in dims]
        planned(limits, [corr(random_correlation(d, rng)) for d in dims], df)
        assert max(pieces) <= mvprob._QUAD_BLOCK < sum(pieces)

    def test_tol_is_one_value_per_call(self):
        upper, cm = [1.0, 1.2, 0.8], equicorr(3, 0.998)  # error estimate ~2e-5
        [strict], [loose] = (planned([upper], [cm], 5.0, tol) for tol in (1e-5, 1e-3))
        assert strict is None and 1e-5 < loose.error_estimate <= 1e-3
        assert loose == mvprob.mvt_cdf(upper, cm, 5.0, tol=1e-3)

    def test_degenerate_bivariate_t_rows_take_exact_laws(self):
        upper = np.array([[1.3, 0.9], [1.3, 0.9], [0.4, -0.2]])
        many = planned(upper, [corr2(1.0), corr2(-1.0), corr2(0.2)], [7.0, 7.0, 4.0])
        t_law = [float(special.stdtr(7.0, x)) for x in (1.3, 0.9)]
        assert many[0] == (t_law[1], 1e-14, 1, False)
        assert many[1] == (max(0.0, t_law[0] + t_law[1] - 1.0), 1e-14, 1, False)
        assert many[2] == mvprob.mvt_cdf(upper[2], corr2(0.2), 4.0)


class TestPlannedGroup:
    """One OrthantGroup, planned once and evaluated at many limits, against fresh calls."""

    # nearly singular laws with limits at which they climb to the finest rung or are left to QMC
    HARD = [(equicorr(4, 0.95), [1.0, 1.2, 0.8, 1.5]), (equicorr(4, 0.995), [1.0, 1.2, 0.8, 1.5]),
            (equicorr(4, 0.998), [1.0, 1.2, 0.8, 1.5]), (equicorr(4, 0.9999), [0.5, 0.6, 0.7, 0.8])]

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("df", [None, 6.5, 150.0], ids=["normal", "t_legendre", "t_gamma"])
    def test_planned_geometry_gives_the_bits_of_a_fresh_call(self, monkeypatch, d, df):
        rng = np.random.default_rng(10 * d + (0 if df is None else int(df)))
        hard = [(corr(cm.values[:d, :d]), upper[:d]) for cm, upper in self.HARD]
        corrs = [corr(random_correlation(d, rng)) for _ in range(10)] + [cm for cm, _ in hard]
        [(rows, group)] = mvprob.orthant_groups(np.array([cm.values for cm in corrs]), df)
        rules = mvprob._LADDERS[d, group.chi][0]
        finest = sum(math.prod(rule) for rule in rules)
        # the path of the rows that reach a third rung is built for them alone
        built = []
        path = mvprob._path
        monkeypatch.setattr(mvprob, "_path", lambda c, rungs: built.append(len(c)) or path(c, rungs))
        climbed = left = 0
        for _ in range(5):
            subset = rng.permutation(group.size)[:rng.integers(group.size // 2, group.size + 1)]
            limits = rng.normal(scale=1.5, size=(len(subset), d))
            for k, r in enumerate(subset.tolist()):
                if r >= 10:
                    limits[k] = hard[r - 10][1]
            del built[:]
            got = group.evaluate(limits, subset, 1e-5)
            reached = int(np.sum(got[2] == finest)) if len(rules) > 2 else 0
            assert built == ([reached] if reached else [])
            fresh = planned(limits, [corrs[r] for r in rows[subset]], df, 1e-5)
            for want, value, error, points, settled in zip(fresh, *(a.tolist() for a in got)):
                assert settled == (want is not None)
                if settled:
                    assert (value, error, points, False) == want
            climbed += int(np.sum(got[2] == finest))
            left += int(np.sum(~got[3]))
        # the Gamma rule settles every bivariate t row by its second rung
        assert (climbed > 0) == ((d, group.chi) != (2, "gamma"))
        assert (left > 0) == (d > 2)

    @pytest.mark.parametrize("d, n", [(2, 1030), (3, 120), (4, 60)])
    @pytest.mark.parametrize("df", [None, 6.5, 150.0], ids=["normal", "t_legendre", "t_gamma"])
    def test_bound_group_gives_the_bits_of_fresh_calls(self, d, n, df):
        # a group whose bound passes each span two pieces or more, with rows that climb to a
        # third rung: its evaluation of every row on them against subsets, which take their
        # rows of the bound arrays, and against each row's own call
        rng = np.random.default_rng(100 * d + (0 if df is None else int(df)))
        hard = [(corr(cm.values[:d, :d]), upper[:d]) for cm, upper in self.HARD]
        corrs = [corr(random_correlation(d, rng)) for _ in range(n)] + [cm for cm, _ in hard]
        [(_, group)] = mvprob.orthant_groups(np.array([cm.values for cm in corrs]), df)
        rules = mvprob._LADDERS[d, group.chi][0]
        # a normal bivariate row is its base alone, and takes no piece
        assert all(len(p.pieces) > 1 for p in group.bound.passes) == (d > 2 or df is not None)
        limits = rng.normal(scale=1.5, size=(group.size, d))
        limits[n:] = [upper for _, upper in hard]
        whole = group.evaluate(limits, None, 1e-5)
        if len(rules) > 2 and (d, group.chi) != (2, "gamma"):
            assert (whole[2] == sum(math.prod(rule) for rule in rules)).any()
        for subset in (rng.permutation(group.size), rng.permutation(group.size)[:group.size // 3]):
            for bound, got in zip(whole, group.evaluate(limits[subset], subset, 1e-5)):
                assert np.array_equal(bound[subset], got)
        for r in rng.choice(n, size=8, replace=False).tolist() + list(range(n, group.size)):
            value, error, points, settled = (a[r].item() for a in whole)
            [want] = planned([limits[r]], [corrs[r]], df, 1e-5)
            assert settled == (want is not None)
            if settled:
                own = mvprob.mvn_cdf(limits[r], corrs[r], 1e-5) if df is None else mvprob.mvt_cdf(
                    limits[r], corrs[r], df, 1e-5)
                assert (value, error, points, False) == want == own

    def test_groups_take_the_chi_rule(self, monkeypatch):
        # the df threshold between the chi-scale families is decided in _chi_rule alone
        assert mvprob._chi_rule(79.9) == "legendre" and mvprob._chi_rule(80.0) == "gamma"
        mats = np.array([random_correlation(3, np.random.default_rng(3))] * 2)
        groups = mvprob.orthant_groups(mats, [100.0, 20.0])
        assert [(rows.tolist(), group.chi) for rows, group in groups] == [([1], "legendre"), ([0], "gamma")]
        monkeypatch.setattr(mvprob, "_chi_rule", lambda df: "legendre")
        [(rows, group)] = mvprob.orthant_groups(mats, 100.0)
        assert group.chi == "legendre" and rows.tolist() == [0, 1]


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

    def test_qmc_flag_marks_qmc_results_only(self):
        c3 = corr(0.5 + 0.5 * np.eye(3))
        assert not mvprob.mvn_cdf([1.0, 1.2, 0.8], c3).qmc
        assert not mvprob.mvt_cdf([1.0, 1.2], corr(np.eye(2)), df=4.0).qmc
        res = mvprob.qmc_cdf([1.0, 1.2, 0.8], c3, rng=np.random.default_rng(1))
        assert res.qmc

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
        q = mvprob.qmc_cdf(upper, cm, tol=1e-7, rng=np.random.default_rng(4))
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
        single = special.ndtr(-0.3)
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
        for cdf in (mvprob.mvn_cdf, mvprob.qmc_cdf):
            a = cdf([1.5, 1.2, 0.9, 1.8], c4, rng=np.random.default_rng(13))
            b = cdf([1.5, 1.2, 0.9, 1.8], c4, rng=np.random.default_rng(13))
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
        res = mvprob.qmc_cdf([1.5, 1.2, 0.9, 1.8], c4, tol=1e-6, rng=np.random.default_rng(13))
        assert res.points_used > 12 * 128  # more than one round
        assert len(built) == 12

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
        (0.995, 0.2, [0.3, -0.4, 1.1, 0.6]),  # exact only if R0 keeps both blocks
    ])
    def test_dim4_block_diagonal_factorizes(self, no_qmc, a, b, upper):
        mat = np.zeros((4, 4))
        mat[:2, :2] = [[1, a], [a, 1]]
        mat[2:, 2:] = [[1, b], [b, 1]]
        res = mvprob.mvn_cdf(upper, corr(mat))
        pair = np.prod(mvprob.bvn_cdf_many(np.array(upper[0::2]), np.array(upper[1::2]), np.array([a, b])))
        assert abs(res.value - pair) <= 1e-12

    @pytest.mark.parametrize("mat", [
        pytest.param(0.9995 * np.ones((4, 4)) + 0.0005 * np.eye(4), id="all_pairs"),
        pytest.param([[1, 0.1, 0.1, 0.1], [0.1, 1, 0.9995, 0.9995],
                      [0.1, 0.9995, 1, 0.9995], [0.1, 0.9995, 0.9995, 1]], id="one_triple"),
    ])
    def test_dim4_near_singular_falls_back_to_qmc(self, mat):
        # error estimates ~3e-4 and ~6e-4
        upper = [1.0, 1.1, 1.2, 1.3]
        res = mvprob.mvn_cdf(upper, corr(mat), tol=1e-4, rng=np.random.default_rng(2))
        assert res.points_used > 1000
        assert res == qmc_twin(upper, corr(mat), tol=1e-4, seed=2)

    def test_dim4_quadrature_error_above_tol_falls_back_to_qmc(self):
        # nearly comonotone: the quadrature's own error estimate is ~4e-6
        upper, c4 = [1.0, 1.2, 0.8, 1.5], equicorr(4, 0.995)
        res = mvprob.mvn_cdf(upper, c4, tol=1e-6, rng=np.random.default_rng(5))
        assert res == qmc_twin(upper, c4, tol=1e-6, seed=5)
        assert res.error_estimate <= 1e-6

    def test_dim3_quadrature_error_above_tol_falls_back_to_qmc(self):
        # the quadrature's own error estimate here is ~4e-6
        upper = [1.0, 1.2, 0.8]
        res = mvprob.mvn_cdf(upper, equicorr(3, 0.995), tol=1e-6, rng=np.random.default_rng(5))
        assert res == qmc_twin(upper, equicorr(3, 0.995), tol=1e-6, seed=5)
        assert res.error_estimate <= 1e-6
        assert abs(res.value - equicorrelated_orthant(upper, 0.995)) <= 3.0 * res.error_estimate

    def test_dim3_nearly_comonotone_settles(self, no_qmc):
        # nearly comonotone, yet the path integral settles within TOL_MIN
        upper = [2.0, -1.0, 0.5]
        res = mvprob.mvn_cdf(upper, equicorr(3, 0.998), tol=1e-6)
        assert not res.qmc and res.error_estimate <= mvprob.TOL_MIN
        assert abs(res.value - equicorrelated_orthant(upper, 0.998)) <= res.error_estimate

    def test_tol_domain(self):
        with pytest.raises(ConfigError):
            mvprob.mvn_cdf([0.0, 0.0], corr(np.eye(2)), tol=1e-2)
        with pytest.raises(ConfigError):
            mvprob.mvn_cdf([0.0, 0.0], corr(np.eye(2)), tol=1e-9)

    def test_dim3_near_singular_falls_back_to_qmc(self):
        # the path integral's error estimate is ~3e-4; the QMC path with ridge repair handles it
        rho = 0.9995
        mat = rho * np.ones((3, 3)) + (1 - rho) * np.eye(3)
        res = mvprob.mvn_cdf([1.0, 1.1, 1.2], corr(mat), tol=1e-4,
                             rng=np.random.default_rng(2))
        # nearly comonotone: probability close to Phi(min limit)
        assert res.value == pytest.approx(special.ndtr(1.0), abs=0.01)
        assert res.points_used > 1000


class TestNodeLadder:
    """The normal quadrature climbs 12 -> 24 -> 48 path nodes until two rungs agree."""

    @staticmethod
    def rung(upper, cm, n):
        [(_, group)] = mvprob.orthant_groups(cm.values[None])
        h = np.asarray(upper, float)[group.order[0]]
        [value] = mvprob._plackett(h[None], group.pairs, mvprob._path(group.corr, (n,)))
        return float(value[0])

    @pytest.mark.parametrize("d", [3, 4])
    def test_unsettled_input_returns_the_finest_rung(self, no_qmc, d):
        # 12 and 24 nodes disagree by ~2e-7 here, so the 48 rung decides
        upper, cm = [1.0, 1.2, 0.8, 1.5][:d], equicorr(d, 0.95)
        coarse, fine = self.rung(upper, cm, 24), self.rung(upper, cm, 48)
        assert 3.0 * abs(coarse - self.rung(upper, cm, 12)) > mvprob.TOL_MIN
        res = mvprob.mvn_cdf(upper, cm)
        assert res.value == fine
        assert res.error_estimate == max(3.0 * abs(fine - coarse), 1e-10)
        assert res.points_used == 12 + 24 + 48

    def test_settled_inputs_match_the_finest_rung(self):
        rng = np.random.default_rng(10)
        settled = 0
        for d in (3, 4):
            for _ in range(50):
                cm = corr(random_correlation(d, rng))
                upper = rng.normal(size=d) * 1.5
                res = mvprob.mvn_cdf(upper, cm)
                if res.points_used == 12 + 24:
                    settled += 1
                    assert res.value == self.rung(upper, cm, 24)
                    assert abs(res.value - self.rung(upper, cm, 48)) <= 1e-13
                    assert res.error_estimate <= mvprob.TOL_MIN
        assert settled >= 90

    @pytest.mark.parametrize("upper, mat", [
        pytest.param([1.0, 1.2, 0.8], 0.5 + 0.5 * np.eye(3), id="d3_settled"),
        pytest.param(*DIM4_RANDOM, id="d4_random"),
        pytest.param([1.0, 1.2, 0.8, 1.5], 0.95 + 0.05 * np.eye(4), id="d4_unsettled"),
    ])
    def test_result_independent_of_tol(self, no_qmc, upper, mat):
        assert mvprob.mvn_cdf(upper, corr(mat), tol=1e-6) == mvprob.mvn_cdf(upper, corr(mat), tol=1e-7)


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
        assert res.value == pytest.approx(special.stdtr(7, 0.9), abs=1e-12)

    def test_chi_scale_rule_cached_read_only(self):
        rule = mvprob._chi_scale_nodes
        assert rule.cache_info().maxsize is not None  # bounded
        fresh = rule.__wrapped__(37.0, 32)
        first, second = rule(37.0, 32), rule(37.0, 32)
        for a, b, c in zip(first, second, fresh):
            assert np.array_equal(a, b) and np.array_equal(a, c)
            assert not a.flags.writeable

    @pytest.mark.parametrize("df", [80.0, 235.0, 480.0, 990.0])
    def test_gamma_rule_weights(self, df):
        for n in (8, 12, 16):
            s, w = mvprob._chi_scale_nodes(df, n)
            assert np.isfinite(s).all() and np.isfinite(w).all() and (w > 0.0).all()
            assert abs(w.sum() - 1.0) <= 1e-14
            assert abs(w @ (s * s) - 1.0) <= 1e-13  # E[s^2] = 1, exact for a Gauss rule
            assert not s.flags.writeable and not w.flags.writeable

    def test_gamma_rule_from_the_lower_triangle_equals_the_full_jacobi_matrix(self):
        # eigh reads the lower triangle only: the rule built from it has the full matrix's bits
        for df in np.geomspace(80.0, 1e5, 100).tolist():
            for n in (8, 12, 16):
                a, k = df / 2.0 - 1.0, np.arange(1.0, n)
                off = np.sqrt(k * (k + a))
                jacobi = np.diag(2.0 * np.arange(n) + a + 1.0) + np.diag(off, 1) + np.diag(off, -1)
                x, vectors = np.linalg.eigh(jacobi)
                s, w = mvprob._chi_scale_nodes.__wrapped__(df, n)
                assert np.array_equal(s, np.sqrt(2.0 * x / df)) and np.array_equal(w, vectors[0] ** 2)

    @staticmethod
    def chi_reference(upper, cm, df, n=256):
        # n Gauss-Legendre nodes in s over [F^-1(1e-16), F^-1(1 - 1e-16)] of the chi law,
        # each a normal orthant at limits upper * s
        lo, hi = (math.sqrt(2.0 * special.gammaincinv(df / 2.0, q) / df) for q in (1e-16, 1.0 - 1e-16))
        x, w = leggauss(n)
        s = lo + (hi - lo) * (x + 1.0) / 2.0
        log_pdf = (math.log(2.0) + (df / 2.0) * math.log(df / 2.0) - special.gammaln(df / 2.0)
                   + (df - 1.0) * np.log(s) - df * s * s / 2.0)
        normal = np.array([r.value for r in planned(s[:, None] * upper, [cm] * n)])
        return float(np.sum(w * (hi - lo) / 2.0 * np.exp(log_pdf) * normal))

    def test_both_chi_rules_against_fine_legendre_reference(self):
        # worst error found: 5.1e-14 (d = 2, df = 235); the Gamma rule serves df >= 80
        rng = np.random.default_rng(2026)
        worst = 0.0
        for d, rows in ((2, 3), (3, 3), (4, 1)):
            for df in (1.0, 2.0, 5.0, 12.0, 30.0, 80.0, 235.0, 480.0, 990.0):
                for _ in range(rows):
                    upper = rng.normal(scale=1.5, size=d)
                    cm = corr(random_correlation(d, rng))
                    got = mvprob.mvt_cdf(upper, cm, df)
                    worst = max(worst, abs(got.value - self.chi_reference(upper, cm, df)))
        assert worst <= 5e-10

    def test_df_domain(self):
        for df in (0.5, np.nan, np.inf, -np.inf):
            for d in (1, 2, 3):
                for cdf in (mvprob.mvt_cdf, mvprob.qmc_cdf):
                    with pytest.raises(ConfigError, match="degrees of freedom"):
                        cdf([0.0] * d, corr(np.eye(d)), df=df)

    def test_dim2_det_vs_qmc(self):
        c2 = corr([[1, -0.35], [-0.35, 1]])
        det = mvprob.mvt_cdf([1.1, 0.6], c2, df=6.5, tol=1e-7)  # the chi-scale quadrature
        q = mvprob.qmc_cdf([1.1, 0.6], c2, df=6.5, tol=1e-6, rng=np.random.default_rng(9))
        assert abs(det.value - q.value) <= q.error_estimate + det.error_estimate + 1e-7

    def test_dim3_det_vs_qmc(self):
        c3 = corr([[1, 0.4, 0.25], [0.4, 1, 0.55], [0.25, 0.55, 1]])
        det = mvprob.mvt_cdf([1.8, 2.0, 2.2], c3, df=17.5, tol=1e-7)
        q = mvprob.qmc_cdf([1.8, 2.0, 2.2], c3, df=17.5, tol=1e-6, rng=np.random.default_rng(8))
        assert abs(det.value - q.value) <= q.error_estimate + 1e-7

    def test_dim3_quadrature_error_above_tol_falls_back_to_qmc(self):
        # the quadrature's own error estimate here is ~2e-5
        upper, c3 = [1.0, 1.2, 0.8], equicorr(3, 0.998)
        res = mvprob.mvt_cdf(upper, c3, df=5.0, tol=1e-5, rng=np.random.default_rng(5))
        assert res == qmc_twin(upper, c3, 5.0, tol=1e-5, seed=5)
        assert res.error_estimate <= 1e-5
        assert abs(res.value - equicorrelated_orthant(upper, 0.998, 5.0)) <= 3.0 * res.error_estimate

    def test_dim3_nearly_comonotone_settles(self, no_qmc):
        # nearly comonotone, yet the path integral settles within TOL_MIN
        upper = [2.0, -1.0, 0.5]
        res = mvprob.mvt_cdf(upper, equicorr(3, 0.998), df=5.0, tol=1e-6)
        assert not res.qmc and res.error_estimate <= mvprob.TOL_MIN
        assert abs(res.value - equicorrelated_orthant(upper, 0.998, 5.0)) <= res.error_estimate

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
        q = qmc_twin(upper, c4, 7.5, tol=1e-6, seed=43)
        assert abs(det.value - q.value) <= q.error_estimate + 1e-7

    def test_dim4_near_singular_falls_back_to_qmc(self):
        # the path integral's error estimate is ~2e-4
        upper, c4 = [0.5, 0.6, 0.7, 0.8], equicorr(4, 0.9999)
        res = mvprob.mvt_cdf(upper, c4, df=6.0, tol=1e-4, rng=np.random.default_rng(2))
        assert res.points_used > 1000
        assert res == qmc_twin(upper, c4, 6.0, tol=1e-4, seed=2)

    def test_dim3_against_mc_oracle(self):
        rng = np.random.default_rng(33)
        mat = random_correlation(3, rng)
        upper = rng.normal(size=3) * 1.5
        res = mvprob.mvt_cdf(upper, corr(mat), df=9.0, tol=1e-7)
        oracle, se = mvt_orthant_mc(upper, mat, 9.0, 2_000_000, seed=101)
        assert abs(res.value - oracle) <= 3 * np.hypot(se, res.error_estimate / 3) + 1.5e-6


class TestQmcCdf:
    """The one QMC entry point, for both laws."""

    @pytest.mark.parametrize("upper, mat, df", [
        pytest.param([[1.5, 1.2, 0.9, 1.8], [2.1, 0.3, 1.7, 1.1]], 0.4 + 0.6 * np.eye(4), None, id="normal"),
        pytest.param([[1.8, 2.0, 2.2], [0.9, 1.4, 2.6]], [[1, 0.4, 0.25], [0.4, 1, 0.55], [0.25, 0.55, 1]],
                     17.5, id="t"),
    ])
    def test_reused_engines_match_fresh_engines(self, upper, mat, df):
        engines = {}
        for u in upper:
            kept = mvprob.qmc_cdf(u, corr(mat), df, 1e-6, np.random.default_rng(13), engines)
            fresh = mvprob.qmc_cdf(u, corr(mat), df, 1e-6, np.random.default_rng(13))
            assert kept == fresh and kept.qmc
        assert len(engines) == 1

    def test_one_dimensional_normal_law_rejected(self):
        with pytest.raises(ConfigError, match="no QMC integral"):
            mvprob.qmc_cdf([0.3], corr([[1.0]]))
        # the t law integrates over its chi scale
        res = mvprob.qmc_cdf([2.015048], corr([[1.0]]), df=5.0, tol=1e-6)
        assert res.qmc and abs(res.value - special.stdtr(5.0, 2.015048)) <= res.error_estimate + 1e-7

    @pytest.mark.parametrize("df", [None, 5.0])
    def test_inputs_checked_as_the_cdfs_check_them(self, df):
        c3 = equicorr(3, 0.3)
        for cdf in (mvprob.qmc_cdf, mvprob.mvn_cdf if df is None else mvprob.mvt_cdf):
            args = () if df is None else (df,)
            for tol in (1e-2, 1e-9):
                with pytest.raises(ConfigError, match="tol must lie"):
                    cdf([0.0] * 3, c3, *args, tol=tol)
            with pytest.raises(ConfigError, match="limit vector has length 2"):
                cdf([0.0] * 2, c3, *args)
            with pytest.raises(ConfigError, match="integration limits must be finite"):
                cdf([0.0, np.nan, 1.0], c3, *args)


class TestCorrelationMatrix:
    def test_semidefinite_boundary_accepted(self):
        mat = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        cm = corr(mat)  # eigenvalue exactly 0
        res = mvprob.qmc_cdf([0.5, 1.0, 0.2], cm, rng=np.random.default_rng(0))
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
