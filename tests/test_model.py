import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from sbanm import (
    BlockParams,
    ModelParams,
    MultilayerNetwork,
    NoiseParams,
    VariationalState,
    build_covariance,
    param_count,
    psi,
)
from sbanm.errors import DataError, NumericalError
from sbanm import model
from sbanm.model import (
    gaussian_coefficients,
    moment_stats,
    pair_features,
    pair_moments,
    pair_tiles,
    tile_endpoints,
)
from sbanm.rng import substream

from reference import log_density, log_density_batch, pairs_to_square


def dense_log_density(x, mu, cov):
    """Generic-matrix oracle: slogdet + explicit solve."""
    x, mu, cov = np.atleast_1d(x), np.atleast_1d(mu), np.atleast_2d(cov)
    K = mu.size
    _, logdet = np.linalg.slogdet(cov)
    dev = x - mu
    return float(
        -0.5 * dev @ np.linalg.solve(cov, dev)
        - 0.5 * logdet
        - 0.5 * K * math.log(2 * math.pi)
    )


class TestLogDensity:
    def test_standard_normal_at_mean(self):
        assert log_density([0.0], [0.0], [[1.0]]) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_scalar_case(self):
        # Direct scalar evaluation: -1/2*0.25 - 1/2*log(4) - 1/2*log(2*pi).
        got = log_density([1.0], [0.0], [[4.0]])
        expected = -0.5 * 0.25 - 0.5 * math.log(4.0) - 0.5 * math.log(2 * math.pi)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-1.7371, abs=5e-5)

    def test_equicorrelation_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            var = rng.uniform(0.2, 3.0, size=3)
            rho = rng.uniform(-0.45, 0.95)
            cov = build_covariance(var, rho)
            x = rng.normal(size=3)
            mu = rng.normal(size=3)
            assert log_density(x, mu, cov) == pytest.approx(
                dense_log_density(x, mu, cov), abs=1e-12
            )

    def test_diagonal_equals_sum_of_univariates(self):
        rng = np.random.default_rng(6)
        var = rng.uniform(0.5, 2.0, size=4)
        x = rng.normal(size=4)
        mu = rng.normal(size=4)
        total = sum(
            log_density([x[k]], [mu[k]], [[var[k]]]) for k in range(4)
        )
        assert log_density(x, mu, np.diag(var)) == pytest.approx(total, abs=1e-12)

    def test_integrates_to_one_on_grid(self):
        grid = np.linspace(-10, 10, 20001)
        dens = np.exp(log_density_batch(grid[:, None], [0.3], [[1.7]]))
        assert trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-4)

    def test_non_spd_covariance_rejected(self):
        with pytest.raises(NumericalError, match="not positive definite"):
            log_density([0.0, 0.0], [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


class TestGaussianCoefficients:
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    @pytest.mark.parametrize("rho", [0.0, 0.35, -0.2])
    def test_matches_log_density_batch(self, K, rho):
        # rho = 0 is a diagonal covariance; offset means, small variances.
        rng = substream(K, "coefficients", rho)
        mu = 20.0 + rng.normal(size=K)
        var = rng.uniform(0.05, 2.0, size=K)
        cov = build_covariance(var, rho if K > 1 else 0.0)
        x = rng.multivariate_normal(mu + 0.3, cov, size=200)
        center = x.mean(axis=0)
        theta = gaussian_coefficients(mu, cov, center)
        got = pair_features(x, center).T @ theta
        want = log_density_batch(x, mu, cov)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_non_spd_covariance_rejected(self):
        with pytest.raises(NumericalError):
            gaussian_coefficients([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0])


class TestPairPasses:
    @pytest.mark.parametrize("m, tile", [(2, 4096), (9, 4096), (9, 7), (40, 30)])
    def test_tiles_walk_every_pair_once_in_order(self, m, tile, monkeypatch):
        # A tile of 7 is shorter than the longest rows (8 pairs).
        monkeypatch.setattr(model, "PAIR_TILE", tile)
        tiles = list(pair_tiles(m))
        iu, ju = np.triu_indices(m, 1)
        assert [p0 for p0, _, _, _ in tiles] == [0] + [p1 for _, p1, _, _ in tiles[:-1]]
        assert [r0 for _, _, r0, _ in tiles] == [0] + [r1 for *_, r1 in tiles[:-1]]
        assert tiles[-1][1] == iu.size and tiles[-1][3] == m - 1
        ends = [tile_endpoints(m, r0, r1) for _, _, r0, r1 in tiles]
        for (p0, p1, r0, r1), (I, J) in zip(tiles, ends):
            assert I.size == p1 - p0
            assert np.array_equal(np.unique(I), np.arange(r0, r1))
            assert p1 - p0 <= tile or r1 == r0 + 1
        assert np.array_equal(np.concatenate([I for I, _ in ends]), iu)
        assert np.array_equal(np.concatenate([J for _, J in ends]), ju)

    @staticmethod
    def check_moments_against_per_pair_sums():
        rng = substream(5, "moments")
        n, K, Q = 100, 3, 4
        net = MultilayerNetwork(n=n, K=K, weights=rng.normal(size=(n * (n - 1) // 2, K)))
        tau = rng.dirichlet(np.ones(Q), size=n)
        iu, ju = np.triu_indices(net.n, 1)
        w = tau[iu] * tau[ju]
        w = np.column_stack([w, np.maximum(1.0 - w.sum(axis=1), 0.0)])
        y = net.weights - net.weights.mean(axis=0)
        h, k = np.triu_indices(K)
        phi = np.column_stack([np.ones(len(y)), y, y[:, h] * y[:, k]])
        assert np.allclose(pair_moments(net, tau), w.T @ phi, rtol=1e-12, atol=1e-10)

    def test_moments_match_per_pair_sums(self):
        # 4950 pairs: the moment pass spans two tiles.
        self.check_moments_against_per_pair_sums()

    @pytest.mark.parametrize("tile", [50, 7])
    def test_moments_match_per_pair_sums_in_small_tiles(self, tile, monkeypatch):
        # Tiles shorter than the longest row (99 pairs) hold one row each
        # until the rows get shorter than the tile.
        monkeypatch.setattr(model, "PAIR_TILE", tile)
        self.check_moments_against_per_pair_sums()

    def test_q1_cross_block_row_is_zero(self):
        # One block holds every pair: the cross row, all pairs minus the
        # within row, cancels to rounding.
        rng = substream(7, "moments-q1")
        n, K = 120, 2
        net = MultilayerNetwork(
            n=n, K=K, weights=20.0 + rng.normal(size=(n * (n - 1) // 2, K))
        )
        moments = pair_moments(net, np.ones((n, 1)))
        assert moments[0, 0] == net.n_pairs
        assert np.all(np.abs(moments[1]) <= 1e-12 * np.abs(moments[0]).max())

    def test_moment_pass_memory_is_one_tile(self):
        # Traced peak: one tile of features (D per pair) and of weights
        # (Q + 1 per pair, plus the two Q-per-pair factors of their
        # product) and O(n Q) more.  One full-size index array (8 n^2/2 bytes) exceeds
        # the bound at n = 600.
        K, Q = 3, 4
        for n in (200, 600):
            rng = substream(n, "moments-memory")
            net = MultilayerNetwork(n=n, K=K, weights=rng.normal(size=(n * (n - 1) // 2, K)))
            tau = rng.dirichlet(np.ones(Q), size=n)
            net.center  # cached on first use; not part of the pass's memory
            tracemalloc.start()
            try:
                pair_moments(net, tau)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            tile = max(model.PAIR_TILE, n - 1)
            assert peak < 8 * (tile * (model.feature_dim(K) + 3 * Q + 1) + 4 * n * Q) + 2**16

    def test_pairs_to_square_matches_index_fill(self):
        rng = substream(6, "square")
        values = rng.normal(size=(15, 2))
        iu, ju = np.triu_indices(6, 1)
        want = np.zeros((6, 6, 2))
        want[iu, ju] = values
        want[ju, iu] = values
        assert np.array_equal(pairs_to_square(6, values), want)


class TestCenter:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fsum_reference(self, seed):
        # Experiment-2-like weights on n = 800 nodes: a row-by-row sum of
        # the 319600 pairs drifts by ~1e-14 relative; a pairwise one does not.
        n, K = 800, 3
        rng = substream(seed, "center")
        w = rng.normal(rng.uniform(10, 20, size=K), 3.0, size=(n * (n - 1) // 2, K))
        center = MultilayerNetwork(n=n, K=K, weights=w).center
        ref = np.array([math.fsum(w[:, k]) for k in range(K)]) / w.shape[0]
        assert np.max(np.abs(center - ref) / np.abs(ref)) <= 2.3e-16


class TestMomentStats:
    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("far", [False, True], ids=["centred", "far-from-centre"])
    def test_matches_weighted_mean_and_covariance(self, K, far):
        # Far from the centre, every value sits near 20 with spread 0.25 (as
        # in offset_planted_network) while the centre is the origin.
        rng = substream(K, "moment-stats", far)
        x = (20.0 if far else 0.0) + 0.25 * rng.normal(size=(500, K)) @ rng.normal(size=(K, K))
        w = rng.uniform(0.0, 3.0, size=500)
        center = np.zeros(K) if far else x.mean(axis=0)
        mean, cov = moment_stats(pair_features(x, center) @ w, center)
        assert cov.shape == (K, K)
        assert np.allclose(mean, np.average(x, axis=0, weights=w), rtol=1e-12, atol=1e-12)
        ref = np.atleast_2d(np.cov(x.T, aweights=w, bias=True))
        assert np.allclose(cov, ref, rtol=1e-8, atol=0)


class TestBuildCovariance:
    def test_identity(self):
        assert np.array_equal(build_covariance([1.0, 1.0], 0.0), np.eye(2))

    def test_entrywise_formula(self):
        got = build_covariance([1.0, 4.0], 0.5)
        assert np.allclose(got, [[1.0, 1.0], [1.0, 4.0]])

    def test_rho_below_pd_bound_rejected(self):
        with pytest.raises(NumericalError, match="positive definiteness"):
            build_covariance([1.0, 1.0, 1.0], -0.6)

    @given(
        var=st.lists(st.floats(0.05, 10.0), min_size=1, max_size=5),
        u=st.floats(0.001, 0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_spd_inside_interval(self, var, u):
        K = len(var)
        lo = -1.0 / (K - 1) if K > 1 else -1.0
        rho = lo + u * (1.0 - lo) * 0.999  # strictly inside (lo, 1)
        np.linalg.cholesky(build_covariance(var, rho))


class TestPsi:
    def test_values(self):
        assert psi(1) == 0.0
        assert psi(4) == 0.75
        assert psi(10) == 0.9

    def test_identity_exact_up_to_1e6(self):
        Q = np.arange(1, 10**6 + 1, dtype=float)
        assert np.all((Q - 1) / Q * Q == Q - 1)
        for q in (1, 2, 3, 7, 49, 1000, 10**6):
            assert psi(q) * q == q - 1

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            psi(0)


class TestParamCount:
    def test_values(self):
        assert param_count(3, 4) == 33
        assert param_count(1, 1) == 4
        assert param_count(2, 5) == 28

    def test_monotone_and_linear_in_q(self):
        for K in range(1, 6):
            counts = [param_count(K, Q) for Q in range(1, 12)]
            diffs = np.diff(counts)
            assert np.all(diffs > 0)
            assert np.all(diffs == diffs[0])  # linear in Q for fixed K
        for Q in range(1, 6):
            counts = [param_count(K, Q) for K in range(1, 12)]
            assert np.all(np.diff(counts) > 0)


class TestDomainTypes:
    def test_network_requires_dense_finite_weights(self):
        with pytest.raises(DataError):
            MultilayerNetwork(n=3, K=1, weights=np.zeros((2, 1)))
        bad = np.zeros((3, 1))
        bad[0] = np.inf
        with pytest.raises(DataError):
            MultilayerNetwork(n=3, K=1, weights=bad)

    def test_block_params_validate_rho(self):
        with pytest.raises(NumericalError):
            BlockParams(mu=[0.0, 0.0, 0.0], var=[1.0, 1.0, 1.0], rho=-0.6)
        with pytest.raises(DataError):
            BlockParams(mu=[0.0], var=[-1.0], rho=0.0)

    def test_model_params_validate_simplex_and_mirror(self):
        noise = NoiseParams(mu=[0.0], var=[1.0])
        blocks = [
            BlockParams(mu=[0.0], var=[1.0], rho=0.0),
            BlockParams(mu=[2.0], var=[1.0], rho=0.0),
        ]
        with pytest.raises(DataError, match="sum to 1"):
            ModelParams(blocks=blocks, noise=noise, alpha=[0.6, 0.6])
        with pytest.raises(DataError, match="mirror"):
            ModelParams(blocks=blocks, noise=noise, alpha=[0.5, 0.5], noise_block=1)
        ok = ModelParams(blocks=blocks, noise=noise, alpha=[0.5, 0.5], noise_block=0)
        assert ok.K == 1

    def test_state_validates_rows_and_P(self):
        with pytest.raises(DataError, match="sum to 1"):
            VariationalState(tau=np.array([[0.5, 0.4]]), P=np.array([0.5, 0.5]))
        with pytest.raises(DataError, match="eps"):
            VariationalState(tau=np.array([[0.5, 0.5]]), P=np.array([0.5, 1.0]))
        st_ok = VariationalState(
            tau=np.array([[0.25, 0.75], [1.0, 0.0]]), P=np.array([0.5, 0.5])
        )
        assert st_ok.hard_membership().tolist() == [1, 0]
