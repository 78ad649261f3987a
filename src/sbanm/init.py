"""Spectral-clustering initialization of the membership posteriors.

Clusters the summed graph with a symmetric normalized Laplacian embedding
plus seeded k-means, then softens the hard labels so the downstream
fixed-point updates are never frozen by exact zeros.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DataError, NumericalError
from .model import MultilayerNetwork, VariationalState, clip_prob, packed_matvec, packed_pairs
from .rng import substream

_DEGREE_FLOOR = 1e-12
# Seeded k-means++ starts; the best by within-cluster sum of squares wins.
# On the 160 networks of the separable and unfiltered recovery suites,
# restart 0 alone gives other labels than the best of 10 on 56; on 35 of
# those the best of 10 is closer to the planted partition (separable
# 3-layer seed 6: ARI 0.979 against 0.701), on 21 farther from it.
KMEANS_RESTARTS = 10
# Most Lloyd iterations per start.
LLOYD_MAX_ITER = 100
# Membership mass the softened init spreads over the unassigned blocks.
SOFT_EPS = 0.05
# A Ritz pair of top_eigenpairs has converged once its residual norm is at
# most this share of the largest Ritz value's magnitude.
LANCZOS_TOL = 1e-12
# A new Lanczos vector that keeps less than this share of the product it
# came from spans nothing new: the basis is an invariant subspace.
_BREAKDOWN = 1e-12


def _orthogonalize(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Coefficients h of w on the orthonormal rows of V, with w <- w - h @ V
    in place; two passes, so w ends orthogonal to every row of V to working
    precision."""
    h = 0.0
    for _ in range(2):
        c = V @ w
        w -= c @ V
        h = h + c
    return h


def top_eigenpairs(matvec, v0: np.ndarray, Q: int) -> np.ndarray:
    """Eigenvectors (n x Q, by descending eigenvalue) of the Q largest
    eigenvalues of the symmetric operator x -> matvec(x) on R^n, n = v0.size.

    Lanczos from v0 with full reorthogonalization and no restarts: the
    basis grows by one vector per product, to n vectors at most.  The top Q
    Ritz pairs of the projection on the expanded vectors have converged once
    each residual norm is at most LANCZOS_TOL * max |theta|; they are tested
    after ncv = max(2Q + 1, 20) products (ARPACK's default basis size, n at
    most) and after every product from then on.  A breakdown (an invariant
    subspace) goes on from a seeded random vector; after n products the
    projection is exact.

    A single start vector meets the eigenspace of a repeated eigenvalue in
    one direction only, so converged pairs may still miss eigenvalues above
    them.  A seeded random vector then joins the basis, and after
    (ncv - Q) // 2 more products the converged vectors are returned unless a
    top Q Ritz value has grown; if one has, the tests go on.

    Raises NumericalError on a non-finite product.
    """
    n = v0.size
    ncv = min(n, max(2 * Q + 1, 20))
    seeds = itertools.count()
    # The basis is the first `size` rows of V, which grows by ncv rows when
    # full.  Row j of H holds the coefficients of the product with basis
    # vector j on the basis: after p products H[:p, :p] (lower triangle) is
    # the projection on the expanded vectors and H[:p, p:size] couples them
    # to the others.
    V, H, size = np.empty((0, n)), np.zeros((0, 0)), 0

    def append(vector=None):
        """Append vector, or a seeded random unit vector orthogonal to the basis."""
        nonlocal V, H, size
        if vector is None:
            vector = substream(0, "lanczos-fresh", next(seeds)).uniform(-1.0, 1.0, n)
            _orthogonalize(vector, V[:size])
            vector /= np.linalg.norm(vector)
        if size == len(V):
            V = np.concatenate([V, np.empty((min(ncv, n - size), n))])
            H = np.pad(H, (0, len(V) - size))
        V[size] = vector
        size += 1

    append(v0 / np.linalg.norm(v0))
    # The top Q Ritz values under check, their vectors, and the product
    # count at which the check ends.
    accepted = kept = check_end = None
    for p in range(1, n + 1):
        w = matvec(V[p - 1])
        scale = np.linalg.norm(w)
        H[p - 1, :size] = _orthogonalize(w, V[:size])
        beta = np.linalg.norm(w)
        if not np.isfinite(beta):
            raise NumericalError("spectral initialization: non-finite Lanczos vector")
        if size < n:
            # A breakdown (an invariant subspace) goes on from a fresh vector.
            broke = beta <= _BREAKDOWN * scale
            append(None if broke else w / beta)
            H[p - 1, size - 1] = 0.0 if broke else beta
        if p < n and (p < ncv or (accepted is not None and p < check_end)):
            continue
        theta, S = np.linalg.eigh(H[:p, :p])
        tol = LANCZOS_TOL * np.max(np.abs(theta))
        if accepted is not None and np.all(theta[-Q:] <= accepted + tol):
            return kept
        accepted = None
        # The residual of Ritz pair i is the norm of H[:p, p:size].T @ S[:, i]:
        # none is left once the products have expanded all of R^n.
        residuals = np.linalg.norm(S[:, -Q:].T @ H[:p, p:size], axis=1)
        if np.all(residuals <= tol):
            Y = S[:, -Q:].T @ V[:p]
            accepted, kept, check_end = theta[-Q:], Y[::-1].T, p + (ncv - Q) // 2
            # Once the basis spans R^n, its unexpanded vectors run the check.
            if size < n:
                append()
    return kept


def spectral_embedding(net: MultilayerNetwork, Q: int) -> np.ndarray:
    """Row-normalized eigenvectors of the Q smallest Laplacian eigenvalues.

    The summed graph is shifted to nonnegative affinities (Fisher-type
    weights can be negative), then L = I - D^{-1/2} A D^{-1/2} with a
    degree floor for isolated nodes.  The eigenvectors of L's Q smallest
    eigenvalues are those of M = D^{-1/2} A D^{-1/2}'s Q largest;
    top_eigenpairs (Lanczos) finds them with O(n^2) work per product with
    M, taken as D^{-1/2} applied on both sides of a product with A, which
    is kept as row blocks of its upper triangle (model.packed_pairs).  Its
    start vector is fixed, so the embedding is a deterministic function of
    the network.
    """
    if not 1 <= Q < net.n:
        raise DataError(f"spectral embedding needs 1 <= Q < n, got Q={Q}, n={net.n}")
    # Layer by layer, each one contiguous run: the sums of sum(axis=1),
    # in its order.
    flat = net.weights[:, 0].copy()
    for layer in net.weights.T[1:]:
        flat += layer
    flat -= flat.min()
    A = packed_pairs(net.n, lambda p0, p1: flat[None, p0:p1], 1)
    # Free the pair vector before the Lanczos basis is allocated.
    del flat
    dinv = 1.0 / np.sqrt(np.maximum(packed_matvec(A, np.ones((1, net.n)))[0], _DEGREE_FLOOR))
    v0 = substream(0, "spectral-start").uniform(-1.0, 1.0, net.n)
    vecs = top_eigenpairs(lambda x: dinv * packed_matvec(A, (dinv * x)[None])[0], v0, Q)
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

