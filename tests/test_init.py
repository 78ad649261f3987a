import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import sbanm
from sbanm import MultilayerNetwork, spectral_init
from sbanm.errors import DataError, NumericalError
from sbanm.init import kmeans, spectral_embedding, top_eigenpairs
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
            # n = 90 exceeds the 20 vectors the Lanczos basis keeps, and
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

    def test_layers_are_summed_in_order(self):
        # The affinities are the layers added left to right, so a
        # one-layer network of that sum has the same embedding bit for bit.
        net, _, _ = planted_network(seed=7)
        w = net.weights
        summed = MultilayerNetwork(n=net.n, K=1, weights=(w[:, 0] + w[:, 1])[:, None])
        assert np.array_equal(spectral_embedding(net, 3), spectral_embedding(summed, 3))

    def test_layer_order_leaves_the_subspace(self):
        net, _, _ = planted_network(seed=8)
        swapped = MultilayerNetwork(n=net.n, K=net.K, weights=net.weights[:, ::-1])
        emb, emb_s = spectral_embedding(net, 3), spectral_embedding(swapped, 3)
        assert np.max(np.abs(emb @ emb.T - emb_s @ emb_s.T)) <= 1e-10
        assert np.array_equal(kmeans(emb, 3, 0), kmeans(emb_s, 3, 0))

    @pytest.mark.parametrize("Q", [0, 8, 9])
    def test_needs_1_le_Q_lt_n(self, Q):
        with pytest.raises(DataError, match="1 <= Q < n"):
            spectral_embedding(cliques(n_per=4), Q)

    def test_peak_memory_below_two_squares(self):
        # Lanczos keeps at most max(2Q + 1, 20) + 1 n-vectors beside the
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
        # The affinities are the row blocks of one triangle plus the pair
        # vector they are filled from, about n^2 entries in all; no n x n
        # array is built.
        net, _, _ = planted_network(sizes=(140, 140, 120), seed=1)
        tracemalloc.start()
        try:
            spectral_embedding(net, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * net.n**2 * 8


def symmetric_with_spectrum(eigenvalues, seed):
    """A dense symmetric matrix with the given eigenvalues in a seeded
    random orthonormal basis."""
    n = len(eigenvalues)
    U, _ = np.linalg.qr(substream(seed, "spectrum").normal(size=(n, n)))
    return (U * np.asarray(eigenvalues)) @ U.T


class TestTopEigenpairs:
    """top_eigenpairs (Lanczos with a basis that grows by one vector per
    product) against np.linalg.eigh."""

    @staticmethod
    def check_top_subspace(M, Q, max_products):
        """The top-Q subspace of M, in at most max_products products (the
        counts of the thick-restart solver this one replaced) and at most
        n; returns the product count."""
        n = M.shape[0]
        v0 = substream(1, "oracle-start").uniform(-1.0, 1.0, n)
        products = 0

        def matvec(x):
            nonlocal products
            products += 1
            return M @ x

        vecs = top_eigenpairs(matvec, v0, Q)
        vals, ref = np.linalg.eigh(M)
        ref = ref[:, ::-1][:, :Q]
        assert vecs.shape == (n, Q)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(Q))) <= 1e-12
        # One subspace, whatever basis of a repeated eigenvalue each picks.
        assert np.max(np.abs(vecs @ vecs.T - ref @ ref.T)) <= 1e-10
        # Columns by descending eigenvalue.
        rayleigh = np.einsum("iq,iq->q", vecs, M @ vecs)
        assert np.allclose(rayleigh, vals[::-1][:Q], rtol=0, atol=1e-12)
        assert products <= min(n, max_products)
        return products

    @pytest.mark.parametrize(
        "n, Q, max_products", [(60, 1, 39), (60, 3, 82), (60, 5, 129), (60, 6, 167), (21, 3, 54)]
    )
    def test_top_eigenvalue_repeated_Q_times(self, n, Q, max_products):
        # A single start vector meets each eigenspace in one direction: the
        # other Q - 1 copies come from the seeded vectors of the checks that
        # follow convergence.  ARPACK's eigsh, from the same start, returns
        # a wrong subspace at n = 60, Q = 6.  At n = 21 the basis spans R^n
        # before the last product, so its unexpanded vectors run the check.
        spectrum = np.concatenate([np.ones(Q), np.linspace(-0.5, 0.5, n - Q)])
        self.check_top_subspace(symmetric_with_spectrum(spectrum, Q), Q, max_products)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_all_but_one_eigenvector_of_a_tiny_matrix(self, n):
        spectrum = substream(n, "tiny").normal(size=n)
        self.check_top_subspace(symmetric_with_spectrum(spectrum, n), n - 1, n)

    def test_clustered_spectrum_grows_the_basis_past_3_ncv(self):
        # 300 eigenvalues evenly spread: the top 4 converge only once the
        # basis holds more than three times ncv = 20 vectors.
        products = self.check_top_subspace(
            symmetric_with_spectrum(np.linspace(0.0, 1.0, 300), 3), 4, 180
        )
        assert products > 3 * 20

    def test_nan_product_raises(self):
        v0 = np.ones(30)
        with pytest.raises(NumericalError, match="non-finite"):
            top_eigenpairs(lambda x: np.full(x.size, np.nan), v0, 2)


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
