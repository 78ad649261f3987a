import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import sbanm
from sbanm import MultilayerNetwork, spectral_init
from sbanm.errors import DataError
from sbanm.init import kmeans, spectral_embedding
from sbanm.model import pair_index
from sbanm.rng import substream

from conftest import planted_network
from reference import pairs_to_square


def cliques(count=2, n_per=5):
    """`count` disjoint cliques of n_per nodes: weight 1 inside, 0 across."""
    n = count * n_per
    iu, ju = np.triu_indices(n, 1)
    same = iu // n_per == ju // n_per
    return MultilayerNetwork(n=n, K=1, weights=np.where(same, 1.0, 0.0)[:, None])


def isolated_node_network(n=8):
    """Node 0 carries the global minimum on all its edges: after the
    nonnegativity shift its degree is 0."""
    iu, ju = np.triu_indices(n, 1)
    w = np.where((iu == 0) | (ju == 0), 0.0, 1.0)[:, None]
    return MultilayerNetwork(n=n, K=1, weights=w)


def dense_embedding(net, Q):
    """spectral_embedding by a dense eigendecomposition of the Laplacian."""
    flat = net.weights.sum(axis=1)
    A = pairs_to_square(net.n, flat - flat.min())
    dinv = 1.0 / np.sqrt(np.maximum(A.sum(axis=1), 1e-12))
    L = np.eye(net.n) - dinv[:, None] * A * dinv[None, :]
    _, vecs = scipy.linalg.eigh(L, subset_by_index=[0, Q - 1])
    return vecs / np.linalg.norm(vecs, axis=1)[:, None]


def permute_network(net, perm):
    """Relabel nodes by perm (new index of old node i is perm[i])."""
    perm = np.asarray(perm)
    iu, ju = np.triu_indices(net.n, 1)
    pi, pj = perm[iu], perm[ju]
    lo, hi = np.minimum(pi, pj), np.maximum(pi, pj)
    rows = pair_index(net.n, lo, hi)
    w = np.empty_like(net.weights)
    w[rows] = net.weights
    return MultilayerNetwork(n=net.n, K=net.K, weights=w)


class TestSpectralInit:
    def test_two_disjoint_cliques_recovered(self):
        state = spectral_init(cliques(), 2, 0)
        labels = state.hard_membership()
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[9]

    def test_rows_stochastic_and_interior(self):
        net, _, _ = planted_network(seed=3)
        state = spectral_init(net, 3, 1)
        assert np.max(np.abs(state.tau.sum(axis=1) - 1.0)) < 1e-10
        assert np.all(state.tau > 0) and np.all(state.tau < 1)
        assert np.allclose(state.P, 1 - 1 / 3)

    def test_soft_eps_values(self):
        assert sbanm.init.SOFT_EPS == 0.05
        state = spectral_init(cliques(), 2, 0)
        assert set(np.round(np.unique(state.tau), 6)) == {0.05, 0.95}

    def test_deterministic(self):
        net, _, _ = planted_network(seed=4)
        a = spectral_init(net, 3, 9)
        b = spectral_init(net, 3, 9)
        assert np.array_equal(a.tau, b.tau) and np.array_equal(a.P, b.P)

    def test_permutation_equivariance(self):
        net, _, _ = planted_network(seed=5)
        rng = substream(5, "perm")
        perm = rng.permutation(net.n)
        state = spectral_init(net, 3, 2)
        state_p = spectral_init(permute_network(net, perm), 3, 2)
        labels = state.hard_membership()
        labels_p = state_p.hard_membership()
        # Same partition of the same nodes, up to block relabeling.
        assert sbanm.ari(labels, labels_p[perm]) == pytest.approx(1.0)

    def test_q1_returns_all_ones(self):
        net, _, _ = planted_network(seed=6)
        state = spectral_init(net, 1, 0)
        assert np.array_equal(state.tau, np.ones((net.n, 1)))

    def test_needs_more_nodes_than_blocks(self):
        net = cliques(n_per=2)
        with pytest.raises(DataError):
            spectral_init(net, 4, 0)

    def test_isolated_node_handled_by_degree_floor(self):
        state = spectral_init(isolated_node_network(), 2, 0)
        assert np.max(np.abs(state.tau.sum(axis=1) - 1.0)) < 1e-10


class TestSpectralEmbedding:
    @pytest.mark.parametrize(
        "net, Q",
        [
            *[pytest.param(planted_network(seed=s)[0], 3, id=f"planted-{s}") for s in (0, 1, 2)],
            # n = 90 exceeds the 20 Lanczos vectors ARPACK keeps, and
            # eigenvalue 1 of D^-1/2 A D^-1/2 has multiplicity 3.
            pytest.param(cliques(3, 30), 3, id="three-cliques"),
            pytest.param(isolated_node_network(), 2, id="isolated-node"),
        ],
    )
    def test_matches_dense_eigendecomposition(self, net, Q):
        emb = spectral_embedding(net, Q)
        ref = dense_embedding(net, Q)
        # Row-normalised bases of one subspace differ by a rotation, so the
        # Gram matrices of their rows (the projector, rescaled) agree.
        assert np.max(np.abs(emb @ emb.T - ref @ ref.T)) <= 1e-8
        assert np.array_equal(kmeans(emb, Q, 0), kmeans(ref, Q, 0))

    @pytest.mark.parametrize("Q", [0, 8, 9])
    def test_needs_1_le_Q_lt_n(self, Q):
        with pytest.raises(DataError, match="1 <= Q < n"):
            spectral_embedding(cliques(n_per=4), Q)

    def test_peak_memory_below_two_squares(self):
        # Lanczos keeps at most max(2Q + 1, 20) n-vectors beside the
        # affinities.
        net, _, _ = planted_network(sizes=(140, 140, 120), seed=1)
        tracemalloc.start()
        try:
            spectral_embedding(net, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * net.n**2 * 8

    def test_peak_memory_below_one_and_a_quarter_squares(self):
        # The affinities are one packed triangle plus the pair vector it is
        # filled from, n^2 entries in all; no n x n array is built.
        net, _, _ = planted_network(sizes=(140, 140, 120), seed=1)
        tracemalloc.start()
        try:
            spectral_embedding(net, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * net.n**2 * 8


def oracle_kmeans(X, Q, n_starts=200, seed=1234):
    """Independent multi-start Lloyd oracle (random-point initialization)."""
    rng = np.random.default_rng(seed)
    best, best_w = None, np.inf
    n = X.shape[0]
    for _ in range(n_starts):
        centers = X[rng.choice(n, size=Q, replace=False)].copy()
        for _ in range(200):
            d2 = ((X[:, None, :] - centers[None]) ** 2).sum(2)
            lab = d2.argmin(1)
            new_centers = np.array(
                [X[lab == q].mean(0) if (lab == q).any() else centers[q] for q in range(Q)]
            )
            if np.allclose(new_centers, centers):
                break
            centers = new_centers
        w = ((X - centers[lab]) ** 2).sum()
        if w < best_w:
            best, best_w = lab, w
    return best, best_w


class TestKmeansAgainstOracle:
    def test_planted_embedding_matches_exhaustive_restarts(self):
        net, labels, _ = planted_network(sizes=(10, 10, 10), seed=7)
        emb = spectral_embedding(net, 3)
        mine = sbanm.init.kmeans(emb, 3, seed=0)
        oracle, oracle_w = oracle_kmeans(emb, 3)
        assert sbanm.ari(mine, oracle) == pytest.approx(1.0)
        # And the WCSS of our pick matches the oracle optimum.
        centers = np.array([emb[mine == q].mean(0) for q in range(3)])
        w = ((emb - centers[mine]) ** 2).sum()
        assert w == pytest.approx(oracle_w, rel=1e-9)
