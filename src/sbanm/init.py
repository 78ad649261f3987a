"""Spectral-clustering initialization of the membership posteriors.

Clusters the summed graph with a symmetric normalized Laplacian embedding
plus seeded k-means, then softens the hard labels so the downstream
fixed-point updates are never frozen by exact zeros.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import DataError, NumericalError
from .model import MultilayerNetwork, VariationalState, clip_prob, packed_matvec, packed_pairs
from .rng import substream

_DEGREE_FLOOR = 1e-12
# Seeded k-means++ starts; the best by within-cluster sum of squares wins.
KMEANS_RESTARTS = 10
# Most Lloyd iterations per start.
LLOYD_MAX_ITER = 100
# Membership mass the softened init spreads over the unassigned blocks.
SOFT_EPS = 0.05


def spectral_embedding(net: MultilayerNetwork, Q: int) -> np.ndarray:
    """Row-normalized eigenvectors of the Q smallest Laplacian eigenvalues.

    The summed graph is shifted to nonnegative affinities (Fisher-type
    weights can be negative), then L = I - D^{-1/2} A D^{-1/2} with a
    degree floor for isolated nodes.  The eigenvectors of L's Q smallest
    eigenvalues are those of M = D^{-1/2} A D^{-1/2}'s Q largest; Lanczos
    (ARPACK) finds them with O(n^2) work per product with M, taken as
    D^{-1/2} applied on both sides of a product with A, which is kept as a
    packed triangle (model.packed_pairs).  Its start vector is fixed, so
    the embedding is a deterministic function of the network.
    """
    if not 1 <= Q < net.n:
        raise DataError(f"spectral embedding needs 1 <= Q < n, got Q={Q}, n={net.n}")
    # Layer by layer: the sums of sum(axis=1), in its order, without its
    # slow reduction over a short inner axis.
    flat = net.weights[:, 0].copy()
    for layer in net.weights.T[1:]:
        flat += layer
    flat -= flat.min()
    A = packed_pairs(net.n, lambda p0, p1, r0, r1: flat[p0:p1])
    dinv = 1.0 / np.sqrt(np.maximum(packed_matvec(A, np.ones(net.n)), _DEGREE_FLOOR))
    M = LinearOperator(
        (net.n, net.n), matvec=lambda x: dinv * packed_matvec(A, dinv * x.ravel()), dtype=float
    )
    v0 = substream(0, "spectral-start").uniform(-1.0, 1.0, net.n)
    try:
        _, vecs = eigsh(M, k=Q, which="LA", v0=v0)
    except ArpackError as exc:
        raise NumericalError("spectral initialization failed") from exc
    # eigsh returns ascending eigenvalues of M; L's smallest come first.
    vecs = vecs[:, ::-1]
    norms = np.maximum(np.linalg.norm(vecs, axis=1), _DEGREE_FLOOR)
    return vecs / norms[:, None]


def _kmeans_pp(X: np.ndarray, Q: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((Q, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for q in range(1, Q):
        total = d2.sum()
        if total <= 0:
            centers[q] = X[rng.integers(n)]
            continue
        centers[q] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - centers[q]) ** 2, axis=1))
    return centers


def _lloyd(X: np.ndarray, centers: np.ndarray):
    n, Q = X.shape[0], centers.shape[0]
    labels = np.zeros(n, dtype=int)
    for _ in range(LLOYD_MAX_ITER):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        for q in range(Q):
            members = new_labels == q
            if members.any():
                centers[q] = X[members].mean(axis=0)
            else:
                # Re-seat an empty cluster on the point farthest from its center.
                far = np.argmax(d2[np.arange(n), new_labels])
                centers[q] = X[far]
                new_labels[far] = q
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    wcss = d2[np.arange(n), labels].sum()
    return labels, wcss


def kmeans(X: np.ndarray, Q: int, seed: int) -> np.ndarray:
    """Seeded k-means: k-means++ starts, best of KMEANS_RESTARTS by
    within-cluster sum of squares; ties keep the lowest restart index."""
    best_labels, best_wcss = None, np.inf
    for r in range(KMEANS_RESTARTS):
        rng = substream(seed, "kmeans", r)
        labels, wcss = _lloyd(X, _kmeans_pp(X, Q, rng))
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return best_labels


def spectral_init(net: MultilayerNetwork, Q: int, seed: int) -> VariationalState:
    """Initial variational state from spectral clustering of the sum graph,
    with `seed` seeding the k-means starts.

    tau gets 1 - SOFT_EPS on the assigned cluster and SOFT_EPS/(Q-1)
    elsewhere; every P_q starts at 1 - 1/Q.
    """
    if Q == 1:
        return VariationalState(tau=np.ones((net.n, 1)), P=clip_prob(np.zeros(1)))
    emb = spectral_embedding(net, Q)
    labels = kmeans(emb, Q, seed)
    tau = np.full((net.n, Q), SOFT_EPS / (Q - 1))
    tau[np.arange(net.n), labels] = 1.0 - SOFT_EPS
    P = clip_prob(np.full(Q, 1.0 - 1.0 / Q))
    return VariationalState(tau=tau, P=P)

