import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbanm
from sbanm import SimSpec, bhattacharyya, filter_separable, gen_network, gen_params
from sbanm.errors import DataError
from sbanm.model import BlockParams, clamp_rho
from sbanm.rng import substream
from sbanm.simulate import draw_candidate, draw_sizes, min_block_distance


def bivariate_spec(Q=(3, 5)):
    return SimSpec(
        n=120,
        K=2,
        Q=Q,
        prior_means=(0.0, 2.0),
        noise_mu=(-1.0, 0.0),
    )


def mask_gen_network(params, sizes, rng):
    """gen_network by full-size pair index arrays and one mask per law:
    each block's within-block pairs in block order, then the cross-block
    pairs, each law in one draw."""
    n = int(sizes.sum())
    labels = np.repeat(np.arange(params.Q), sizes)
    iu, ju = np.triu_indices(n, 1)
    li, lj = labels[iu], labels[ju]
    X = np.empty((iu.size, params.K))
    laws = [params.noise if q == params.noise_block else params.blocks[q] for q in range(params.Q)]
    masks = [(li == q) & (lj == q) for q in range(params.Q)]
    for law, mask in zip(laws + [params.noise], masks + [li != lj]):
        if mask.any():
            L = np.linalg.cholesky(law.covariance())
            X[mask] = rng.standard_normal((mask.sum(), params.K)) @ L.T + law.mu
    return X, labels


def exp2_scaled(n):
    """Experiment-2 parameters with block sizes scaled to n nodes."""
    params, sizes = sbanm.experiment2_spec()
    scaled = np.floor(sizes * n / sizes.sum()).astype(int)
    scaled[0] += n - scaled.sum()
    return params, scaled


def random_k2():
    return draw_candidate(bivariate_spec(), substream(3, "c"))


def one_node_blocks():
    params, _ = sbanm.experiment2_spec()
    return params, np.array([1, 60, 1, 40])


def no_noise_block():
    # Block 0 keeps its own law, which differs from the cross-block noise.
    params, sizes = random_k2()
    noise = BlockParams(mu=params.noise.mu + 1.5, var=params.noise.var * 2.0, rho=0.0)
    return dataclasses.replace(params, noise=noise, noise_block=None), sizes


@st.composite
def generator_cases(draw):
    """Random block sizes (1-6 blocks of 1-15 nodes, at least 2 nodes in
    all), K in 1..3, the noise block at any position and random laws."""
    sizes = draw(
        st.lists(st.integers(1, 15), min_size=1, max_size=6).filter(lambda s: sum(s) >= 2)
    )
    K = draw(st.integers(1, 3))
    noise_block = draw(st.integers(0, len(sizes) - 1))
    rng = substream(draw(st.integers(0, 2**32 - 1)), "generator-case")
    noise = BlockParams(mu=rng.normal(size=K), var=rng.uniform(0.5, 2.0, K), rho=0.0)
    blocks = [
        BlockParams(
            mu=rng.normal(size=K),
            var=rng.uniform(0.5, 2.0, K),
            rho=clamp_rho(float(rng.uniform(0.0, 1.0))),
        )
        for _ in sizes
    ]
    blocks[noise_block] = noise
    sizes = np.array(sizes)
    params = sbanm.ModelParams(
        blocks=blocks, noise=noise, alpha=sizes / sizes.sum(), noise_block=noise_block
    )
    return params, sizes


class TestGenParams:
    @pytest.mark.parametrize("K", [0, -1])
    def test_spec_needs_a_layer(self, K):
        with pytest.raises(DataError, match="K must be at least 1"):
            SimSpec(n=30, K=K, Q=3, prior_means=(), noise_mu=())

    def test_block0_is_noise(self):
        params = gen_params(bivariate_spec(), substream(0, "p"))
        assert params.noise_block == 0
        assert np.array_equal(params.blocks[0].mu, params.noise.mu)
        assert np.array_equal(params.blocks[0].var, params.noise.var)
        assert params.blocks[0].rho == 0.0

    def test_seeded_reproducibility(self):
        a = gen_params(bivariate_spec(), substream(2, "p"))
        b = gen_params(bivariate_spec(), substream(2, "p"))
        assert a.Q == b.Q
        for x, y in zip(a.blocks, b.blocks):
            assert np.array_equal(x.mu, y.mu) and x.rho == y.rho

    def test_q_range_draws_within_bounds(self):
        qs = {gen_params(bivariate_spec(), substream(s, "p")).Q for s in range(40)}
        assert qs <= {3, 4, 5} and len(qs) > 1

    def test_variances_floored(self):
        for s in range(20):
            params = gen_params(bivariate_spec(), substream(s, "pf"))
            for b in params.blocks:
                assert np.all(b.var >= 0.05) or b is params.blocks[0]


class TestGenNetwork:
    def test_interstitial_pair_count(self):
        params = gen_params(bivariate_spec(Q=2), substream(3, "p"))
        sizes = np.array([5, 5])
        net, labels = gen_network(params, sizes, substream(3, "n"))
        iu, ju = np.triu_indices(net.n, 1)
        cross = labels[iu] != labels[ju]
        assert net.n_pairs == 45
        assert cross.sum() == 25  # 45 - 10 - 10
        # identity: n(n-1)/2 - sum n_q(n_q-1)/2
        assert cross.sum() == net.n_pairs - sum(s * (s - 1) // 2 for s in sizes)

    def test_dense_and_labeled(self):
        params, sizes = draw_candidate(bivariate_spec(), substream(4, "c"))
        net, labels = gen_network(params, sizes, substream(4, "n"))
        assert net.n_pairs == net.n * (net.n - 1) // 2
        assert np.array_equal(np.bincount(labels), sizes)

    def test_within_block_moments_converge(self):
        # One large signal block: empirical mean within 3 SE per layer.
        params = sbanm.ModelParams(
            blocks=[
                BlockParams(mu=[0.0, 0.0], var=[1.0, 1.0], rho=0.0),
                BlockParams(mu=[3.0, -2.0], var=[2.0, 0.5], rho=0.6),
            ],
            noise=BlockParams(mu=[0.0, 0.0], var=[1.0, 1.0], rho=0.0),
            alpha=[0.5, 0.5],
            noise_block=0,
        )
        net, labels = gen_network(params, np.array([20, 80]), substream(5, "mc"))
        iu, ju = np.triu_indices(net.n, 1)
        inb = (labels[iu] == 1) & (labels[ju] == 1)
        samples = net.weights[inb]
        n_samp = samples.shape[0]  # 3160 pairs
        for k in range(2):
            se = math.sqrt(2.0 / n_samp)
            assert abs(samples[:, k].mean() - params.blocks[1].mu[k]) < 3 * se * math.sqrt(2.0)
        # empirical correlation close to rho
        r = np.corrcoef(samples[:, 0], samples[:, 1])[0, 1]
        assert abs(r - 0.6) < 0.05

    def test_noise_block_offdiagonal_near_zero(self):
        params, sizes = sbanm.experiment2_spec()
        net, labels = gen_network(params, sizes, substream(6, "nb"))
        iu, ju = np.triu_indices(net.n, 1)
        nb = (labels[iu] == 0) & (labels[ju] == 0)
        samples = net.weights[nb]
        corr = np.corrcoef(samples.T)
        off = corr[np.triu_indices(3, 1)]
        assert np.all(np.abs(off) < 3.0 / math.sqrt(samples.shape[0]))

    def test_bad_sizes_rejected(self):
        params = gen_params(bivariate_spec(Q=2), substream(7, "p"))
        with pytest.raises(DataError):
            gen_network(params, np.array([0, 10]), substream(7, "n"))

    @pytest.mark.parametrize(
        "case",
        [lambda: exp2_scaled(130), random_k2, one_node_blocks, no_noise_block],
        ids=["exp2-n130", "random-k2", "one-node-blocks", "no-noise-block"],
    )
    def test_matches_mask_reference_bytes(self, case):
        params, sizes = case()
        net, labels = gen_network(params, sizes, substream(9, "n"))
        want, want_labels = mask_gen_network(params, sizes, substream(9, "n"))
        assert net.weights.tobytes() == want.tobytes()
        assert np.array_equal(labels, want_labels)

    @given(generator_cases(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_mask_reference_on_random_layouts(self, case, seed):
        params, sizes = case
        net, labels = gen_network(params, sizes, substream(seed, "n"))
        want, want_labels = mask_gen_network(params, sizes, substream(seed, "n"))
        assert net.weights.tobytes() == want.tobytes()
        assert labels.tobytes() == want_labels.tobytes()

    def test_hands_over_its_layer_major_array(self, monkeypatch):
        given = []

        def network(**kwargs):
            given.append(kwargs["weights"])
            return sbanm.MultilayerNetwork(**kwargs)

        monkeypatch.setattr(sbanm.simulate, "MultilayerNetwork", network)
        params, sizes = exp2_scaled(60)
        net, _ = gen_network(params, sizes, substream(11, "n"))
        assert net.weights is given[0] and net.weights.flags.f_contiguous

    def test_peak_memory_below_twice_the_weights(self):
        # Only the weights are full-size; pair indices and law selections
        # live one tile at a time.
        params, sizes = exp2_scaled(400)
        tracemalloc.start()
        try:
            net, _ = gen_network(params, sizes, substream(10, "n"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * net.weights.nbytes

    def test_seeded_determinism(self):
        params, sizes = draw_candidate(bivariate_spec(), substream(8, "c"))
        a, _ = gen_network(params, sizes, substream(8, "n"))
        b, _ = gen_network(params, sizes, substream(8, "n"))
        assert np.array_equal(a.weights, b.weights)


class TestBhattacharyya:
    def test_identical_gaussians(self):
        b = BlockParams(mu=[1.0, 2.0], var=[1.0, 2.0], rho=0.3)
        assert bhattacharyya(b, b) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_case(self):
        p = BlockParams(mu=[0.0], var=[1.0], rho=0.0)
        q = BlockParams(mu=[2.0], var=[1.0], rho=0.0)
        assert bhattacharyya(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self):
        rng = substream(9, "bd")
        for _ in range(10):
            p = BlockParams(mu=rng.normal(size=3), var=rng.uniform(0.5, 2, 3), rho=rng.uniform(0, 0.8))
            q = BlockParams(mu=rng.normal(size=3), var=rng.uniform(0.5, 2, 3), rho=rng.uniform(0, 0.8))
            assert bhattacharyya(p, q) == pytest.approx(bhattacharyya(q, p), abs=1e-12)

    def test_diagonal_against_correlated_law(self):
        p = BlockParams(mu=[0.0, 0.0], var=[1.0, 1.0], rho=0.0)
        q = BlockParams(mu=[1.0, 1.0], var=[1.0, 1.0], rho=0.5)
        assert bhattacharyya(p, q) > 0


class TestFilterSeparable:
    def test_keeps_top_fraction(self):
        cands = [gen_params(bivariate_spec(), substream(s, "f")) for s in range(50)]
        kept = filter_separable(cands, 0.10)
        assert len(kept) == 5
        scores = [min_block_distance(p) for p in cands]
        kept_min = min(scores[i] for i in kept)
        dropped_max = max(s for i, s in enumerate(scores) if i not in kept)
        assert kept_min >= dropped_max

    def test_tie_break_by_index(self):
        params = gen_params(bivariate_spec(Q=3), substream(10, "f"))
        kept = filter_separable([params] * 10, 0.25)
        assert kept == [0, 1, 2]  # ceil(2.5) = 3, earliest indices

    @pytest.mark.parametrize("keep_frac", [0.0, -0.1, 1.5, float("nan")])
    def test_keep_frac_outside_unit_interval_rejected(self, keep_frac):
        cands = [gen_params(bivariate_spec(), substream(s, "f")) for s in range(3)]
        with pytest.raises(DataError, match=r"keep_frac must lie in \(0, 1\]"):
            filter_separable(cands, keep_frac)

    def test_500_candidates_keep_50(self):
        scores = np.linspace(0, 1, 500)
        cands = []
        for s in scores:
            cands.append(
                sbanm.ModelParams(
                    blocks=[
                        BlockParams(mu=[0.0], var=[1.0], rho=0.0),
                        BlockParams(mu=[s * 10], var=[1.0], rho=0.0),
                    ],
                    noise=BlockParams(mu=[0.0], var=[1.0], rho=0.0),
                    alpha=[0.5, 0.5],
                    noise_block=0,
                )
            )
        kept = filter_separable(cands, 0.10)
        assert len(kept) == 50
        assert kept == list(range(450, 500))


class TestExperiment1:
    @pytest.mark.parametrize(
        "K, prior_means, noise_mu",
        [
            pytest.param(2, [0.0, 2.0], [-1.0, 0.0], id="layers2"),
            pytest.param(3, [-2.0, 0.0, 2.0], [-3.0, -1.0, 1.0], id="layers3"),
            pytest.param(1, [0.0], [-1.0], id="layers1-fallback"),
            pytest.param(4, [0.0] * 4, [-1.0] * 4, id="layers4-fallback"),
        ],
    )
    def test_spec_means(self, K, prior_means, noise_mu):
        spec = sbanm.experiment1_spec(50, K, (3, 5))
        assert (spec.n, spec.K, spec.Q) == (50, K, (3, 5))
        assert spec.prior_means.tolist() == prior_means
        assert spec.noise_mu.tolist() == noise_mu

    def test_candidate_and_network_streams(self):
        # Candidate i is drawn from the (seed, "candidate", i) substream and
        # its network from (seed, "network", i): every kept candidate keeps
        # its index, and the filter sees all the draws.
        spec = sbanm.experiment1_spec(40, 2, (3, 4))
        drawn = [draw_candidate(spec, substream(8, "candidate", i)) for i in range(6)]
        kept = sbanm.draw_separable(spec, 8, 6, 0.5)
        assert [i for i, _, _ in kept] == filter_separable([p for p, _ in drawn], 0.5)
        for i, params, sizes in kept:
            assert params.alpha.tolist() == drawn[i][0].alpha.tolist()
            assert sizes.tolist() == drawn[i][1].tolist()
            net, labels = sbanm.candidate_network(params, sizes, 8, np.int64(i))
            want, want_labels = gen_network(params, sizes, substream(8, "network", i))
            assert net.weights.tobytes() == want.weights.tobytes()
            assert labels.tolist() == want_labels.tolist()


class TestExperiment2Spec:
    def test_dimensions_and_sizes(self):
        params, sizes = sbanm.experiment2_spec()
        assert sizes.sum() == 300
        assert sizes.tolist() == [76, 97, 93, 34]
        assert params.Q == 4 and params.K == 3

    def test_block0_is_noise_with_zero_rho(self):
        params, _ = sbanm.experiment2_spec()
        assert params.noise_block == 0
        assert params.blocks[0].rho == 0.0
        assert params.noise.mu.tolist() == [5.0, 10.0, 15.0]

    def test_param_count_formula(self):
        params, _ = sbanm.experiment2_spec()
        assert sbanm.param_count(params.K, params.Q) == 33


class TestDrawSizes:
    def test_minimum_size_enforced(self):
        rng = substream(11, "sizes")
        for _ in range(50):
            sizes = draw_sizes(40, np.array([0.8, 0.1, 0.1]), rng)
            assert sizes.min() >= 3 and sizes.sum() == 40

    def test_fewer_than_three_nodes_per_block_is_data_error(self):
        with pytest.raises(DataError, match="n=8 is too small for 3 blocks"):
            draw_sizes(8, np.full(3, 1 / 3), substream(12, "sizes"))
