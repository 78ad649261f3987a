import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from sbanm import (
    BlockParams,
    ModelParams,
    MultilayerNetwork,
    VariationalState,
    param_count,
    psi,
)
from sbanm.errors import DataError, NumericalError
from sbanm import model
from sbanm.model import (
    gaussian_coefficients,
    law_coefficients,
    moment_stats,
    num_pairs,
    packed_matvec,
    packed_pairs,
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


def equicorrelation(var, rho):
    """The covariance of the block law with variances var and correlation rho."""
    return BlockParams(mu=np.zeros(len(var)), var=var, rho=rho).covariance()


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
            cov = equicorrelation(var, rho)
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
        cov = equicorrelation(var, rho if K > 1 else 0.0)
        x = rng.multivariate_normal(mu + 0.3, cov, size=200)
        center = x.mean(axis=0)
        theta = gaussian_coefficients(mu, cov, center)
        got = pair_features(x, center).T @ theta
        want = log_density_batch(x, mu, cov)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_non_spd_covariance_rejected(self):
        with pytest.raises(NumericalError):
            gaussian_coefficients([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0])


class TestLawCoefficients:
    @pytest.mark.parametrize("K, Q", [(1, 1), (1, 3), (2, 3), (3, 4), (4, 2)])
    def test_stack_matches_each_law(self, K, Q):
        # Offset means and small variances, as in the fits of the
        # experiment-2 networks.
        rng = substream(K, "law-coefficients", Q)
        noise = BlockParams(
            mu=15.0 + rng.normal(size=K), var=rng.uniform(0.05, 8.0, K), rho=0.0
        )
        blocks = [noise] + [
            BlockParams(
                mu=15.0 + 5.0 * rng.normal(size=K),
                var=rng.uniform(0.05, 8.0, K),
                rho=rng.uniform(0.0, 0.9) if K > 1 else 0.0,
            )
            for _ in range(Q - 1)
        ]
        params = ModelParams(blocks=blocks, noise=noise, alpha=np.full(Q, 1.0 / Q))
        center = 15.0 + rng.normal(size=K)
        got_noise, got_blocks = law_coefficients(params, center)
        want = [
            gaussian_coefficients(law.mu, law.covariance(), center)
            for law in [params.noise, *params.blocks]
        ]
        assert got_blocks.shape == (Q, model.feature_dim(K))
        np.testing.assert_allclose(np.vstack([got_noise, got_blocks]), want, rtol=1e-14, atol=0)

    def test_singular_covariance_rejected(self):
        params = ModelParams(
            blocks=[BlockParams(mu=[0.0, 0.0], var=[1.0, 1.0], rho=0.0)] * 2,
            noise=BlockParams(mu=[0.0, 0.0], var=[1.0, 1.0], rho=0.0),
            alpha=[0.5, 0.5],
        )
        singular = mock.Mock(mu=np.zeros(2))
        singular.covariance.return_value = np.array([[1.0, 2.0], [2.0, 1.0]])
        params.blocks[1] = singular
        with pytest.raises(NumericalError, match="not positive definite"):
            law_coefficients(params, np.zeros(2))


def greedy_tiles(m, tile):
    """pair_tiles by its definition, one row at a time: rows join a tile
    while its pairs number at most `tile`, and each tile holds a row."""
    tiles, r0, p0 = [], 0, 0
    while r0 < m - 1:
        r1, p1 = r0 + 1, p0 + m - 1 - r0
        while r1 < m - 1 and p1 + m - 1 - r1 <= p0 + tile:
            p1 += m - 1 - r1
            r1 += 1
        tiles.append((p0, p1, r0, r1))
        r0, p0 = r1, p1
    return tiles


class TestTilePlan:
    # Tiles of 1 and 7 pairs are shorter than a row of most m here, so
    # they hold one row each until the rows get shorter.
    @pytest.mark.parametrize("tile", [1, 7, 64, 4096, 6144, 8192])
    def test_plan_is_the_per_row_greedy_split(self, tile, monkeypatch):
        monkeypatch.setattr(model, "PAIR_TILE", tile)
        for m in [*range(2, 61), 300, 700, 1200]:
            tiles = pair_tiles(m)
            assert iter(tiles) is tiles
            tiles = list(tiles)
            assert tiles == greedy_tiles(m, tile)
            covered = np.zeros(num_pairs(m), dtype=int)
            for p0, p1, _, _ in tiles:
                covered[p0:p1] += 1
            assert np.all(covered == 1)


class TestLayerMajorStorage:
    @pytest.mark.parametrize("layout", ["C", "F", "1-d", "strided"])
    def test_weights_are_layer_major(self, layout):
        n = 9
        w = substream(3, "layout").normal(size=(num_pairs(n), 3))
        given = {
            "C": np.ascontiguousarray(w),
            "F": np.asfortranarray(w),
            "1-d": w[:, 0].copy(),
            "strided": np.repeat(w, 2, axis=0)[::2],
        }[layout]
        K = 1 if layout == "1-d" else 3
        net = MultilayerNetwork(n=n, K=K, weights=given)
        assert net.weights.flags.f_contiguous
        assert np.array_equal(net.weights, w[:, :K])
        # Layer-major weights are kept as given, not copied.
        assert np.shares_memory(net.weights, given) == (layout in ("F", "1-d"))


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

    def test_moments_match_per_pair_sums(self, monkeypatch):
        # 4950 pairs: in tiles of 4096 the moment pass spans two.
        monkeypatch.setattr(model, "PAIR_TILE", 4096)
        self.check_moments_against_per_pair_sums()

    @pytest.mark.parametrize("tile", [50, 7])
    def test_moments_match_per_pair_sums_in_small_tiles(self, tile, monkeypatch):
        # Tiles shorter than the longest row (99 pairs) hold one row each
        # until the rows get shorter than the tile.
        monkeypatch.setattr(model, "PAIR_TILE", tile)
        self.check_moments_against_per_pair_sums()

    def test_rows_sum_to_the_all_pair_total(self):
        # Whatever the memberships, the cross row takes what the Q
        # within-block rows leave of the sum over all pairs.
        rng = substream(8, "moments-total")
        n, K, Q = 50, 2, 3
        net = MultilayerNetwork(n=n, K=K, weights=rng.normal(size=(n * (n - 1) // 2, K)))
        moments = pair_moments(net, rng.dirichlet(np.ones(Q), size=n))
        assert moments.shape == (Q + 1, model.feature_dim(K))
        total = pair_features(net.weights, net.center).sum(axis=1)
        assert np.allclose(moments.sum(axis=0), total, rtol=1e-12, atol=1e-10)

    def test_relabelled_blocks_permute_the_within_rows(self):
        rng = substream(9, "moments-relabel")
        n, K, Q = 40, 3, 4
        net = MultilayerNetwork(n=n, K=K, weights=rng.normal(size=(n * (n - 1) // 2, K)))
        tau = rng.dirichlet(np.ones(Q), size=n)
        perm = np.array([2, 0, 3, 1])
        moments, relabelled = pair_moments(net, tau), pair_moments(net, tau[:, perm])
        assert np.allclose(relabelled[:Q], moments[perm], rtol=1e-12, atol=1e-10)
        assert np.allclose(relabelled[Q], moments[Q], rtol=1e-12, atol=1e-10)

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


class TestPackedPairs:
    """packed_pairs row blocks and packed_matvec against the dense symmetric
    matrix of the same per-pair values."""

    # The module's block height, a taller one and a short one that puts
    # many blocks in a small matrix.
    @pytest.mark.parametrize("height", [model.PACKED_BLOCK_ROWS, 128, 4])
    @given(
        size=st.sampled_from(["2", "3", "h-1", "h", "h+1", "2h+5"]),
        lead=st.sampled_from([(), (3,)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_matvec_matches_dense_matrix(self, height, size, lead, seed):
        # Block rows end one short of, at, just past and well past a block
        # height; 2h+5 also crosses pair-tile boundaries inside a block.
        m = {"2": 2, "3": 3, "h-1": height - 1, "h": height, "h+1": height + 1,
             "2h+5": 2 * height + 5}[size]
        rng = np.random.default_rng(seed)
        values = rng.normal(size=lead + (m * (m - 1) // 2,))
        x = rng.normal(size=m)
        with mock.patch.object(model, "PACKED_BLOCK_ROWS", height):
            A = packed_pairs(m, lambda p0, p1, r0, r1: values[..., p0:p1], lead)
        # Shape lead + (m, m).
        dense = np.moveaxis(pairs_to_square(m, np.moveaxis(values, -1, 0)), (0, 1), (-2, -1))
        starts = [r0 for r0, _ in A]
        assert starts == list(range(0, m - 1, height))
        for r0, T in A:
            r1 = min(r0 + height, m - 1)
            assert T.shape == lead + (r1 - r0, m - r0)
            assert T.base is A[0][1].base
            # Rows r0..r1-1 from column r0: the upper part, zero elsewhere.
            assert np.array_equal(T, np.triu(dense[..., r0:r1, r0:], 1))
        for q in np.ndindex(lead):
            want = dense[q] @ x
            got = packed_matvec([(r0, T[q]) for r0, T in A], x)
            assert np.allclose(got, want, rtol=0, atol=1e-12 * (np.abs(dense[q]) @ np.abs(x)).max())
        # One call on the stacked matrices, one vector each, gives every
        # matrix's own product bit for bit.
        xs = rng.normal(size=lead + (m,))
        stacked = packed_matvec(A, xs)
        for q in np.ndindex(lead):
            assert np.array_equal(stacked[q], packed_matvec([(r0, T[q]) for r0, T in A], xs[q]))


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


class TestBlockCovariance:
    def test_identity(self):
        assert np.array_equal(equicorrelation([1.0, 1.0], 0.0), np.eye(2))

    def test_entrywise_formula(self):
        got = equicorrelation([1.0, 4.0], 0.5)
        assert np.allclose(got, [[1.0, 1.0], [1.0, 4.0]])

    def test_rho_below_pd_bound_rejected(self):
        with pytest.raises(NumericalError, match="positive definiteness"):
            equicorrelation([1.0, 1.0, 1.0], -0.6)

    @given(
        var=st.lists(st.floats(0.05, 10.0), min_size=1, max_size=5),
        u=st.floats(0.001, 0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_spd_inside_interval(self, var, u):
        K = len(var)
        lo = -1.0 / (K - 1) if K > 1 else -1.0
        rho = lo + u * (1.0 - lo) * 0.999  # strictly inside (lo, 1)
        np.linalg.cholesky(equicorrelation(var, rho))

    @given(var=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_rho_zero_is_the_diagonal_bit_for_bit(self, var):
        # The noise law's covariance, so its Cholesky factor and
        # coefficients, is np.diag(var) exactly: no -0.0 off the diagonal.
        cov = equicorrelation(var, 0.0)
        assert cov.tobytes() == np.diag(np.asarray(var, dtype=float)).tobytes()


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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_weight_in_any_layer_rejected(self, bad):
        for k in range(3):
            w = np.zeros((3, 3))
            w[2, k] = bad
            with pytest.raises(DataError, match="network weights must be finite"):
                MultilayerNetwork(n=3, K=3, weights=w)

    def test_finite_check_takes_no_whole_array_mask(self):
        # A (pairs, K) bool mask takes 1/8 of the weights; one layer's 1/32.
        w = np.asfortranarray(substream(9, "finite").normal(size=(num_pairs(300), 4)))
        tracemalloc.start()
        try:
            MultilayerNetwork(n=300, K=4, weights=w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < w.nbytes / 16

    def test_block_params_validate_rho(self):
        with pytest.raises(NumericalError):
            BlockParams(mu=[0.0, 0.0, 0.0], var=[1.0, 1.0, 1.0], rho=-0.6)
        with pytest.raises(DataError):
            BlockParams(mu=[0.0], var=[-1.0], rho=0.0)

    def test_model_params_validate_simplex_and_mirror(self):
        noise = BlockParams(mu=[0.0], var=[1.0], rho=0.0)
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

    @pytest.mark.parametrize("rho", [0.3, -0.2, 1e-300])
    def test_model_params_reject_a_correlated_noise_law(self, rho):
        noise = BlockParams(mu=[0.0, 1.0], var=[1.0, 2.0], rho=rho)
        blocks = [BlockParams(mu=[0.0, 1.0], var=[1.0, 2.0], rho=rho)] * 2
        with pytest.raises(DataError, match=f"noise law must have rho 0, got {rho}"):
            ModelParams(blocks=blocks, noise=noise, alpha=[0.5, 0.5])

    def test_model_params_reject_laws_of_other_layer_counts(self):
        noise = BlockParams(mu=[0.0, 0.0], var=[1.0, 1.0], rho=0.0)
        blocks = [noise, BlockParams(mu=[2.0], var=[1.0], rho=0.0)]
        with pytest.raises(DataError, match="block 1 has 1 layers, the noise law 2"):
            ModelParams(blocks=blocks, noise=noise, alpha=[0.5, 0.5])
        blocks = [BlockParams(mu=[0.0] * 3, var=[1.0] * 3, rho=0.5), noise]
        with pytest.raises(DataError, match="block 0 has 3 layers, the noise law 2"):
            ModelParams(blocks=blocks, noise=noise, alpha=[0.5, 0.5], noise_block=1)

    def test_state_validates_rows_and_P(self):
        with pytest.raises(DataError, match="sum to 1"):
            VariationalState(tau=np.array([[0.5, 0.4]]), P=np.array([0.5, 0.5]))
        with pytest.raises(DataError, match="eps"):
            VariationalState(tau=np.array([[0.5, 0.5]]), P=np.array([0.5, 1.0]))
        st_ok = VariationalState(
            tau=np.array([[0.25, 0.75], [1.0, 0.0]]), P=np.array([0.5, 0.5])
        )
        assert st_ok.hard_membership().tolist() == [1, 0]
