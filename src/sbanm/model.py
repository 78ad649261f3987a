"""Domain types and Gaussian density math shared by all estimation code.

A network is stored densely: one weight vector of length K per unordered
node pair (i, j), i < j, in lexicographic pair order.  Signal blocks carry
an equicorrelation covariance (one correlation shared by every layer
pair); the ambient-noise law is a diagonal Gaussian.

Every Gaussian log-density summed over pairs with membership weights is
linear in the pair features phi = [1, y, upper(y y^T)], y = x - center:
pair_moments sums the features once per membership matrix, and
gaussian_coefficients turns a Gaussian into the matching weight vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dspmv

from .errors import DataError, NumericalError

# Probability clamp applied before any log.
EPS_PROB = 1e-9
# Smallest admissible variance; keeps degenerate blocks invertible.
VAR_FLOOR = 1e-8
# Distance kept from the positive-definiteness boundary when clamping rho.
RHO_MARGIN = 1e-6

LOG_2PI = math.log(2.0 * math.pi)
# Pairs per tile in the passes over all pairs (moments, E-step gaps): the
# per-pair feature arrays live one tile at a time, so their memory stays
# O(PAIR_TILE * D) whatever n is.
PAIR_TILE = 4096


def clip_prob(x):
    """Clamp probabilities into [EPS_PROB, 1 - EPS_PROB]."""
    return np.clip(x, EPS_PROB, 1.0 - EPS_PROB)


def safe_log(x):
    """Log with its argument floored at EPS_PROB."""
    return np.log(np.maximum(x, EPS_PROB))


def psi_terms(P: np.ndarray, psi: float) -> np.ndarray:
    """Per-block prior term P_q log(psi) + (1-P_q) log(1-psi), log-guarded."""
    psi_c = clip_prob(psi)
    return P * np.log(psi_c) + (1.0 - P) * np.log(1.0 - psi_c)


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(n: int, i, j):
    """Row index of unordered pair (i, j), i < j, in lexicographic order."""
    i = np.asarray(i)
    j = np.asarray(j)
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def pair_tiles(m: int):
    """Split the lexicographic pairs of m nodes into tiles of whole rows,
    about PAIR_TILE pairs each (one row when a row is longer).

    Yields (p0, p1, r0, r1): the tile is pairs p0 <= p < p1, which are the
    whole rows r0 <= i < r1, row i holding the m - 1 - i pairs (i, j > i).
    """
    r0 = p0 = 0
    while r0 < m - 1:
        r1, p1 = r0 + 1, p0 + m - 1 - r0
        while r1 < m - 1 and p1 + m - 1 - r1 <= p0 + PAIR_TILE:
            p1 += m - 1 - r1
            r1 += 1
        yield p0, p1, r0, r1
        r0, p0 = r1, p1


def tile_endpoints(m: int, r0: int, r1: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (I, J), I < J, of the pairs of rows r0 <= i < r1 of m nodes,
    in pair order."""
    rows = np.arange(r0, r1)
    lengths = m - 1 - rows
    I = np.repeat(rows, lengths)
    # Pair k of the tile is (i, j) with k = (pairs of the tile's rows before
    # row i) + j - i - 1.
    J = np.arange(I.size) + np.repeat(rows + 1 - (np.cumsum(lengths) - lengths), lengths)
    return I, J


def packed_pairs(m: int, tile_values, lead: tuple = ()) -> np.ndarray:
    """Packed symmetric m x m matrices of shape lead + (m(m+1)/2,): the rows
    of the upper triangle one after another, each starting at its (zero)
    diagonal entry.  That is the memory of BLAS's column-major lower packed
    layout, which packed_matvec takes.  The entries of the pairs p0 <= p <
    p1 of each pair_tiles(m) tile (p0, p1, r0, r1) are
    tile_values(p0, p1, r0, r1); each of its rows goes to its packed slot
    as one slice."""
    A = np.zeros(lead + (m * (m + 1) // 2,))
    for p0, p1, r0, r1 in pair_tiles(m):
        values = tile_values(p0, p1, r0, r1)
        p = p0
        for i in range(r0, r1):
            # Rows 0..i hold i + 1 diagonal entries before pair p of row i.
            A[..., p + i + 1 : p + m] = values[..., p - p0 : p - p0 + m - 1 - i]
            p += m - 1 - i
        # Free this tile's values before the next tile's are built.
        del values
    return A


def packed_matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The product of a packed symmetric matrix A (packed_pairs layout)
    with the vector x."""
    return dspmv(x.size, 1.0, A, x, lower=1)


def feature_dim(K: int) -> int:
    """Length D = 1 + K + K(K+1)/2 of the pair feature vector."""
    return 1 + K + K * (K + 1) // 2


def pair_features(x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Features phi = [1, y, upper(y y^T)] of y = x - center for each row of
    x (shape (m, K)), as the columns of a (D, m) array; upper() is the
    row-major upper triangle, diagonal included."""
    m, K = x.shape
    phi = np.empty((feature_dim(K), m))
    phi[0] = 1.0
    y = phi[1 : K + 1]
    np.subtract(x.T, np.asarray(center, dtype=float)[:, None], out=y)
    row = K + 1
    for h in range(K):
        np.multiply(y[h], y[h:], out=phi[row : row + K - h])
        row += K - h
    return phi


def pair_moments(net: "MultilayerNetwork", tau: np.ndarray) -> np.ndarray:
    """Membership-weighted sums of the centred pair features, shape (Q+1, D),
    for row-stochastic memberships tau of shape (n, Q).

    Row q is sum_{i<j} tau_iq tau_jq phi(x_ij - net.center); the last row
    weights each pair by its cross-block mass 1 - sum_q tau_iq tau_jq, and
    is taken once as the sum over all pairs minus the Q within-block rows.
    Every Gaussian log-density sum the fit needs is a dot product of such a
    row with gaussian_coefficients(..., net.center).
    """
    n = net.n
    # Memberships block by block: each block's row of tau_t is contiguous.
    tau_t = np.ascontiguousarray(np.transpose(tau), dtype=float)
    Q = tau_t.shape[0]
    out = np.zeros((Q + 1, feature_dim(net.K)))
    for p0, p1, r0, r1 in pair_tiles(n):
        # Column p - p0 of w weights pair p: row i of the tile pairs node i
        # with each of the nodes i+1.., a contiguous slice of tau_t.
        w = np.empty((Q + 1, p1 - p0))
        np.multiply(
            np.repeat(tau_t[:, r0:r1], n - 1 - np.arange(r0, r1), axis=1),
            np.concatenate([tau_t[:, i + 1 :] for i in range(r0, r1)], axis=1),
            out=w[:Q],
        )
        w[Q] = 1.0
        out += w @ pair_features(net.weights[p0:p1], net.center).T
    out[Q] -= out[:Q].sum(axis=0)
    return out


def moment_stats(row: np.ndarray, center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, covariance) of the weights behind one pair_moments row about
    `center` with positive mass: their weighted mean (length K) and their
    weighted covariance about it (K x K)."""
    K = np.size(center)
    offset = row[1 : K + 1] / row[0]
    h, k = np.triu_indices(K)
    cov = np.empty((K, K))
    cov[h, k] = cov[k, h] = row[K + 1 :] / row[0] - offset[h] * offset[k]
    return center + offset, cov


@dataclass
class MultilayerNetwork:
    """Dense symmetric K-layer weighted graph on n registered nodes.

    weights: array of shape (n*(n-1)/2, K); row p holds the K layer weights
    of the p-th unordered pair in lexicographic order.  No self loops are
    stored and every pair must be present and finite.
    """

    n: int
    K: int
    weights: np.ndarray
    node_labels: list[str] | None = None

    def __post_init__(self):
        if self.n < 2:
            raise DataError("network needs at least 2 nodes")
        if self.K < 1:
            raise DataError("network needs at least 1 layer")
        w = np.asarray(self.weights, dtype=float)
        if w.ndim == 1:
            w = w[:, None]
        if w.shape != (num_pairs(self.n), self.K):
            raise DataError(
                f"weights shape {w.shape} does not match n={self.n}, K={self.K}"
            )
        if not np.all(np.isfinite(w)):
            raise DataError("network weights must be finite")
        self.weights = w
        if self.node_labels is not None and len(self.node_labels) != self.n:
            raise DataError("node_labels length does not match n")

    @property
    def n_pairs(self) -> int:
        return num_pairs(self.n)

    @cached_property
    def center(self) -> np.ndarray:
        """Per-layer mean weight.  Pair features are taken relative to it:
        moment sums of weights far from zero would otherwise cancel
        digits away when they are turned into variances and densities.
        Each column is summed on its own, so numpy sums it pairwise; a
        reduction over axis 0 adds the rows one after another instead."""
        w = self.weights
        return np.array([np.add.reduce(w[:, k]) for k in range(self.K)]) / w.shape[0]


@dataclass
class BlockParams:
    """Signal-block Gaussian: per-layer means/variances plus one shared
    cross-layer correlation."""

    mu: np.ndarray
    var: np.ndarray
    rho: float

    def __post_init__(self):
        self.mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        self.var = np.atleast_1d(np.asarray(self.var, dtype=float))
        self.rho = float(self.rho)
        if self.mu.shape != self.var.shape or self.mu.ndim != 1:
            raise DataError("mu and var must be 1-d vectors of equal length")
        if np.any(self.var <= 0):
            raise DataError("block variances must be positive")
        if not (rho_lower_bound(self.mu.size) < self.rho < 1.0):
            raise NumericalError("correlation violates positive definiteness")

    @property
    def K(self) -> int:
        return self.mu.size

    def covariance(self) -> np.ndarray:
        return build_covariance(self.var, self.rho)


@dataclass
class NoiseParams:
    """Ambient-noise Gaussian: diagonal covariance, off-diagonals zero."""

    mu: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        self.mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        self.var = np.atleast_1d(np.asarray(self.var, dtype=float))
        if self.mu.shape != self.var.shape or self.mu.ndim != 1:
            raise DataError("mu and var must be 1-d vectors of equal length")
        if np.any(self.var <= 0):
            raise DataError("noise variances must be positive")

    @property
    def K(self) -> int:
        return self.mu.size

    def covariance(self) -> np.ndarray:
        return np.diag(self.var)

    def as_block(self) -> BlockParams:
        """The noise law as a block law: the same means and variances, rho 0."""
        return BlockParams(mu=self.mu.copy(), var=self.var.copy(), rho=0.0)


@dataclass
class ModelParams:
    """Complete parameter set: per-block Gaussians, the ambient-noise law,
    block proportions alpha, and (once designated) the index of the noise
    block.  Q = len(blocks) and the signal prior psi = (Q-1)/Q follow from
    the blocks.

    noise_block is None while estimation is still running; a finished fit
    always sets it, and the designated entry of `blocks` mirrors `noise`.
    """

    blocks: list[BlockParams]
    noise: NoiseParams
    alpha: np.ndarray
    noise_block: int | None = None

    def __post_init__(self):
        if not self.blocks:
            raise DataError("need at least one block parameter set")
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.alpha.shape != (self.Q,) or np.any(self.alpha < 0):
            raise DataError("alpha must be Q nonnegative entries")
        if abs(self.alpha.sum() - 1.0) > 1e-12:
            raise DataError("alpha must sum to 1")
        if self.noise_block is not None:
            q = self.noise_block
            if not 0 <= q < self.Q:
                raise DataError("noise_block index out of range")
            b = self.blocks[q]
            if (
                b.rho != 0.0
                or not np.array_equal(b.mu, self.noise.mu)
                or not np.array_equal(b.var, self.noise.var)
            ):
                raise DataError("designated noise block must mirror noise parameters")

    @property
    def Q(self) -> int:
        return len(self.blocks)

    @property
    def psi(self) -> float:
        return psi(self.Q)

    @property
    def K(self) -> int:
        return self.noise.K


@dataclass
class VariationalState:
    """Variational posteriors: row-stochastic memberships tau (n x Q) and
    per-block signal probabilities P (length Q)."""

    tau: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.P = np.atleast_1d(np.asarray(self.P, dtype=float))
        if self.tau.ndim != 2:
            raise DataError("tau must be an n x Q matrix")
        if np.any(self.tau < 0):
            raise DataError("tau entries must be nonnegative")
        if np.max(np.abs(self.tau.sum(axis=1) - 1.0)) > 1e-10:
            raise DataError("tau rows must sum to 1")
        if self.P.shape != (self.tau.shape[1],):
            raise DataError("P must have one entry per block")
        if np.any(self.P < EPS_PROB) or np.any(self.P > 1 - EPS_PROB):
            raise DataError("P entries must lie in [eps, 1-eps]")

    @property
    def n(self) -> int:
        return self.tau.shape[0]

    @property
    def Q(self) -> int:
        return self.tau.shape[1]

    def hard_membership(self) -> np.ndarray:
        """Row argmax of tau; ties go to the lowest block index."""
        return np.argmax(self.tau, axis=1)


def rho_lower_bound(K: int) -> float:
    """-1/(K-1) (-1 when K = 1): an equicorrelation matrix of K layers is
    positive definite exactly for rho in (rho_lower_bound(K), 1)."""
    return -1.0 / (K - 1) if K > 1 else -1.0


def build_covariance(var: np.ndarray, rho: float) -> np.ndarray:
    """Equicorrelation covariance: var on the diagonal, rho*sd_h*sd_k off it.

    rho must lie in the open interval (-1/(K-1), 1) so the result is
    symmetric positive definite.
    """
    var = np.atleast_1d(np.asarray(var, dtype=float))
    if np.any(var <= 0):
        raise DataError("variances must be positive")
    if not (rho_lower_bound(var.size) < rho < 1.0):
        raise NumericalError("correlation violates positive definiteness")
    sd = np.sqrt(var)
    cov = rho * np.outer(sd, sd)
    np.fill_diagonal(cov, var)
    return cov


def clamp_rho(rho: float, K: int) -> float:
    """Clamp an estimated correlation into the PD-safe interval."""
    return float(min(max(rho, rho_lower_bound(K) + RHO_MARGIN), 1.0 - RHO_MARGIN))


def gaussian_coefficients(mu: np.ndarray, cov: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Coefficients theta (length D) with log N(x; mu, cov) = phi(x - center) @ theta
    for the pair features phi of pair_features."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    K = mu.size
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance not positive definite") from exc
    L_inv = solve_triangular(L, np.eye(K), lower=True)
    prec = L_inv.T @ L_inv
    # With y = x - center and d = center - mu, x - mu = y + d.
    s = L_inv @ (np.asarray(center, dtype=float) - mu)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    h, k = np.triu_indices(K)
    return np.concatenate((
        [-0.5 * (s @ s) - 0.5 * logdet - 0.5 * K * LOG_2PI],
        -(L_inv.T @ s),
        np.where(h == k, -0.5, -1.0) * prec[h, k],
    ))


def law_coefficients(params: ModelParams, center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gaussian_coefficients of the noise law (length D) and of every block
    law (shape (Q, D)), all about `center`."""
    noise = gaussian_coefficients(params.noise.mu, params.noise.covariance(), center)
    blocks = np.array(
        [gaussian_coefficients(b.mu, b.covariance(), center) for b in params.blocks]
    )
    return noise, blocks


def expected_log_likelihood(
    params: ModelParams, moments: np.ndarray, P: np.ndarray, center: np.ndarray
) -> float:
    """Expected log-likelihood of the pairs behind `moments` (pair_moments
    rows about `center`): the cross-block pairs and the (1 - P_q) share of
    block q under the noise law, the P_q share under block q's law.

    With P = 1 it is the complete-data log-likelihood of a hard partition;
    an empty block's moment row is zero and adds nothing.
    """
    Q = params.Q
    noise, signal = law_coefficients(params, center)
    return float(
        (moments[Q] + (1.0 - P) @ moments[:Q]) @ noise
        + P @ np.einsum("qd,qd->q", moments[:Q], signal)
    )


def psi(Q: int) -> float:
    """Prior probability (Q-1)/Q that a given block is signal, not noise."""
    if Q < 1:
        raise DataError("Q must be at least 1")
    return (Q - 1) / Q


def param_count(K: int, Q: int) -> int:
    """Number of free model parameters: 2KQ + Q - 1 + 2K."""
    if K < 1 or Q < 1:
        raise DataError("K and Q must be at least 1")
    return 2 * K * Q + Q - 1 + 2 * K
