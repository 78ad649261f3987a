"""Domain types and Gaussian density math shared by all estimation code.

A network is stored densely: one weight vector of length K per unordered
node pair (i, j), i < j, in lexicographic pair order, kept layer-major, so
each layer's weights are one contiguous run of pairs.  Signal blocks carry
an equicorrelation covariance (one correlation shared by every layer
pair); the ambient-noise law is the block law with correlation 0, a
diagonal Gaussian.

Every Gaussian log-density summed over pairs with membership weights is
linear in the pair features phi = [1, y, upper(y y^T)], y = x - center:
pair_moments sums the features once per membership matrix, and
gaussian_coefficients turns a Gaussian into the matching weight vector.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DataError, NumericalError

# Probability clamp applied before any log.
EPS_PROB = 1e-9
# Smallest admissible variance; keeps degenerate blocks invertible.
VAR_FLOOR = 1e-8
# Distance kept from the positive-definiteness boundary at rho = 1.
RHO_MARGIN = 1e-6

LOG_2PI = math.log(2.0 * math.pi)
# Pairs per tile in the passes over all pairs (moments, E-step gaps, file
# writes): the per-pair feature arrays live one tile at a time, so their
# memory stays O(PAIR_TILE * D) whatever n is.  Each tile reads one
# contiguous slice of every layer.  Fits ran as fast at 6144 as at 8192,
# and slower at 4096 (README, notes on numerics).
PAIR_TILE = 6144
# Rows per block of the symmetric matrices of packed_pairs.  The blocks
# also store the zeros at and below the diagonal of their rows, about
# m * PACKED_BLOCK_ROWS / 2 entries per matrix: 5.4% of the pairs at
# m = 1200 with 64 rows, 10.5% with 128.  A block of one matrix stays in L2
# cache for the second of packed_matvec's two passes over it.  A product
# with Q = 4 matrices took 3.80-3.90 ms at 64 rows and 3.71-3.84 ms at 128
# for m = 1200, 0.30-0.32 and 0.26-0.27 ms for m = 300 (medians of 200
# alternated products, 2-vCPU x86-64 VM).
PACKED_BLOCK_ROWS = 64


def clip_prob(x):
    """Clamp probabilities into [EPS_PROB, 1 - EPS_PROB]."""
    return np.clip(x, EPS_PROB, 1.0 - EPS_PROB)


def safe_log(x):
    """Log with its argument floored at EPS_PROB."""
    return np.log(np.maximum(x, EPS_PROB))


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

    Returns an iterator over (p0, p1, r0, r1): the tile is pairs
    p0 <= p < p1, which are the whole rows r0 <= i < r1, row i holding the
    m - 1 - i pairs (i, j > i).  Each tile takes rows from r0 on while its
    pairs number at most PAIR_TILE, and at least row r0.  The tile list
    is planned once per (m, PAIR_TILE) and reused by every pass.
    """
    return iter(_tile_plan(m, PAIR_TILE))


@lru_cache(maxsize=16)
def _tile_plan(m: int, tile: int) -> tuple[tuple[int, int, int, int], ...]:
    # starts[i] is the first pair of row i; starts[m - 1] is the pair count.
    starts = pair_index(m, np.arange(m), np.arange(1, m + 1)).tolist()
    plan, r0 = [], 0
    while r0 < m - 1:
        # The tile's rows end at most `tile` pairs past its first pair.
        r1 = max(r0 + 1, bisect.bisect_right(starts, starts[r0] + tile) - 1)
        plan.append((starts[r0], starts[r1], r0, r1))
        r0 = r1
    return tuple(plan)


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


def packed_pairs(m: int, tile_values, lead: tuple = ()) -> list[tuple[int, np.ndarray]]:
    """Symmetric zero-diagonal m x m matrices (one per index of `lead`) as
    row blocks: a list of (r0, T), T of shape lead + (r1 - r0, m - r0)
    holding rows r0 <= i < r1 from column r0 on.  Blocks are
    PACKED_BLOCK_ROWS rows high (the last one may be lower), cover rows
    0..m-2 and are views of one buffer.  The entries of the pairs
    p0 <= p < p1 of each pair_tiles(m) tile (p0, p1, r0, r1) are
    tile_values(p0, p1, r0, r1); each of its rows goes to its block as one
    slice, after the row's zeros at and below the diagonal."""
    starts = range(0, m - 1, PACKED_BLOCK_ROWS)
    shapes = [lead + (min(PACKED_BLOCK_ROWS, m - 1 - r0), m - r0) for r0 in starts]
    # Every entry is written once below, so the buffer is not zeroed first;
    # zeroing it added 4-5 ms to each ~14 ms E-step gap build at n = 1200.
    buffer = np.empty(sum(math.prod(shape) for shape in shapes))
    blocks, offset = [], 0
    for r0, shape in zip(starts, shapes):
        blocks.append((r0, buffer[offset : offset + math.prod(shape)].reshape(shape)))
        offset += math.prod(shape)
    for p0, p1, r0, r1 in pair_tiles(m):
        values = tile_values(p0, p1, r0, r1)
        p = p0
        for i in range(r0, r1):
            b0, T = blocks[i // PACKED_BLOCK_ROWS]
            T[..., i - b0, : i + 1 - b0] = 0.0
            T[..., i - b0, i + 1 - b0 :] = values[..., p - p0 : p - p0 + m - 1 - i]
            p += m - 1 - i
        # Free this tile's values before the next tile's are built.
        del values
    return blocks


def packed_matvec(A: list[tuple[int, np.ndarray]], x: np.ndarray) -> np.ndarray:
    """Products of the symmetric matrices A (packed_pairs row blocks with
    lead axes L) with the vectors x, shape L + (m,): entry l is matrix l
    times vector l, the same whether taken alone or in a stack."""
    # A strided x (a column of tau) would slow every block's product.
    x = np.ascontiguousarray(x)
    y = np.zeros(x.shape)
    vectors = list(zip(x.reshape(-1, x.shape[-1]), y.reshape(-1, y.shape[-1])))
    for r0, T in A:
        r1 = r0 + T.shape[-2]
        # One matrix at a time, so the mirror pass finds its block in cache:
        # a matmul stacked over L passes over all L blocks twice, which at
        # n = 1200, L = (4,) overflows L2 and made each product 20% slower.
        for T_l, (x_l, y_l) in zip(T.reshape((-1,) + T.shape[-2:]), vectors):
            # The stored upper part, then its mirror image below the diagonal.
            y_l[r0:r1] += T_l @ x_l[r0:]
            y_l[r0:] += x_l[r0:r1] @ T_l
    return y


def feature_dim(K: int) -> int:
    """Length D = 1 + K + K(K+1)/2 of the pair feature vector."""
    return 1 + K + K * (K + 1) // 2


def pair_features(x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Features phi = [1, y, upper(y y^T)] of y = x - center for each row of
    x (shape (m, K)), as the columns of a (D, m) array; upper() is the
    row-major upper triangle, diagonal included.  x is read layer by layer,
    at unit stride when it is a tile of layer-major network weights."""
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
    tau_t = np.ascontiguousarray(np.asarray(tau, dtype=float).T)
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
    stored and every pair must be present and finite.  The array is kept
    in Fortran (layer-major) order, so column k, layer k's weights of all
    pairs, is one contiguous run that the passes over pairs read at unit
    stride.  Weights given in that order are kept without a copy; any other
    layout is copied into it once.
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
        w = np.asfortranarray(w)
        # One layer at a time: a whole-array mask would take 1/8 of the weights.
        if not all(np.isfinite(w[:, k]).all() for k in range(self.K)):
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
        Each layer's contiguous run is summed on its own, so numpy sums it
        pairwise."""
        w = self.weights
        return np.array([np.add.reduce(w[:, k]) for k in range(self.K)]) / w.shape[0]


@dataclass
class BlockParams:
    """A block's Gaussian law: per-layer means/variances plus one shared
    cross-layer correlation.  The ambient-noise law is the one with rho 0,
    a diagonal covariance."""

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
        """Equicorrelation covariance: var on the diagonal, rho*sd_h*sd_k off
        it.  At rho 0 the off-diagonal entries are +0.0, so the result is
        np.diag(var) bit for bit."""
        sd = np.sqrt(self.var)
        cov = self.rho * np.outer(sd, sd)
        np.fill_diagonal(cov, self.var)
        return cov


@dataclass
class ModelParams:
    """Complete parameter set: per-block Gaussians, the ambient-noise law,
    block proportions alpha, and (once designated) the index of the noise
    block.  Q = len(blocks) and the signal prior psi = (Q-1)/Q follow from
    the blocks.

    The noise law is the BlockParams with rho 0, and every law has its K
    layers.  noise_block is None while estimation is still running; a
    finished fit always sets it, and the designated entry of `blocks`
    mirrors `noise`.
    """

    blocks: list[BlockParams]
    noise: BlockParams
    alpha: np.ndarray
    noise_block: int | None = None

    def __post_init__(self):
        if not self.blocks:
            raise DataError("need at least one block parameter set")
        if self.noise.rho != 0.0:
            raise DataError(f"noise law must have rho 0, got {self.noise.rho}")
        for q, b in enumerate(self.blocks):
            if b.K != self.K:
                raise DataError(f"block {q} has {b.K} layers, the noise law {self.K}")
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
    per-block signal probabilities P (length Q); the E-step puts N = 1 - P,
    the posterior over which block is noise, on the simplex."""

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


def clamp_rho(rho: float) -> float:
    """Limit a drawn or fitted correlation to the model's support [0, 1),
    RHO_MARGIN away from the positive-definiteness boundary at 1."""
    return float(min(max(rho, 0.0), 1.0 - RHO_MARGIN))


def gaussian_coefficients(mu: np.ndarray, cov: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Coefficients theta (length D) with log N(x; mu, cov) = phi(x - center) @ theta
    for the pair features phi of pair_features.

    A stack of L laws, mu of shape (L, K) and cov of shape (L, K, K), gives
    theta of shape (L, D) from one batched Cholesky factorisation and one
    batched inverse.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    K = mu.shape[-1]
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance not positive definite") from exc
    L_inv = np.linalg.inv(L)
    L_inv_t = np.swapaxes(L_inv, -1, -2)
    prec = L_inv_t @ L_inv
    # With y = x - center and d = center - mu, x - mu = y + d.
    s = (L_inv @ (np.asarray(center, dtype=float) - mu)[..., None])[..., 0]
    logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
    h, k = np.triu_indices(K)
    return np.concatenate(
        (
            (-0.5 * np.sum(s * s, axis=-1) - 0.5 * logdet - 0.5 * K * LOG_2PI)[..., None],
            -(L_inv_t @ s[..., None])[..., 0],
            np.where(h == k, -0.5, -1.0) * prec[..., h, k],
        ),
        axis=-1,
    )


def law_coefficients(params: ModelParams, center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gaussian_coefficients of the noise law (length D) and of every block
    law (shape (Q, D)), all about `center`, from one stacked call.
    """
    laws = [params.noise, *params.blocks]
    # Far-out centers overflow to inf; the E-step, the P update and the
    # ELBO check what they compute from the coefficients for finiteness.
    with np.errstate(over="ignore", invalid="ignore"):
        theta = gaussian_coefficients(
            np.array([law.mu for law in laws]),
            np.array([law.covariance() for law in laws]),
            center,
        )
    return theta[0], theta[1:]


def noise_moments(moments: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The moment row of the pairs the noise law scores, given pair_moments
    rows and signal probabilities P: cross-block plus (1 - P_q) of block q."""
    return moments[P.size] + (1.0 - P) @ moments[: P.size]


def expected_log_likelihood(
    coefficients: tuple[np.ndarray, np.ndarray], moments: np.ndarray, P: np.ndarray
) -> float:
    """Expected log-likelihood of the pairs behind `moments` (pair_moments
    rows) under the laws with law_coefficients `coefficients` (about the
    moments' center): the cross-block pairs and the (1 - P_q) share of
    block q under the noise law, the P_q share under block q's law.

    With P = 1 it is the complete-data log-likelihood of a hard partition;
    an empty block's moment row is zero and adds nothing.
    """
    noise, signal = coefficients
    Q = signal.shape[0]
    return float(
        noise_moments(moments, P) @ noise + P @ np.einsum("qd,qd->q", moments[:Q], signal)
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
