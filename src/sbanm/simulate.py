"""Synthetic network generation with planted block structure and a global
noise law, plus Bhattacharyya-based separability filtering.

Two generation regimes are provided: random parameters drawn from Gaussian
priors (block 0 is always the noise block), and a fixed trivariate
4-block benchmark with known means, variances, correlations, and sizes.
Experiment 1, the first regime with separability filtering, is drawn
only through experiment1_spec, draw_separable and candidate_network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .model import (
    PAIR_TILE,
    BlockParams,
    ModelParams,
    MultilayerNetwork,
    clamp_rho,
    num_pairs,
    pair_index,
)
from .rng import substream

_SIZE_MIN = 3
# Multinomial size draws tried before giving up on the minimum block size.
_SIZE_TRIES = 1000
_VAR_PRIOR_FLOOR = 0.05
# Per-layer variance of the noise law.
NOISE_VAR = 2.0
# Standard deviation of the signal-block mean and variance priors.
PRIOR_SD = math.sqrt(5.0)
# Symmetric Dirichlet concentration of the block proportions.
DIRICHLET_CONC = 5.0
# Experiment 1's per-layer (prior means, noise means) by layer count; other
# layer counts take prior means 0 and noise means -1.
_EXP1_MEANS = {
    2: ((0.0, 2.0), (-1.0, 0.0)),
    3: ((-2.0, 0.0, 2.0), (-3.0, -1.0, 1.0)),
}


@dataclass
class SimSpec:
    """Generation settings for one family of synthetic networks.

    Q may be a fixed block count or an inclusive (lo, hi) range to draw
    from per candidate.  Signal-block means are drawn N(prior_means[k],
    PRIOR_SD^2) per layer, variances half-normal(PRIOR_SD) floored, and
    correlations uniform on [0, 1) before clamp_rho; the noise law is fixed
    at (noise_mu, NOISE_VAR) and the block proportions are
    Dirichlet(DIRICHLET_CONC).
    """

    n: int
    K: int
    Q: int | tuple[int, int]
    prior_means: np.ndarray
    noise_mu: np.ndarray

    def __post_init__(self):
        if self.K < 1:
            raise DataError("K must be at least 1")
        self.prior_means = np.atleast_1d(np.asarray(self.prior_means, dtype=float))
        self.noise_mu = np.atleast_1d(np.asarray(self.noise_mu, dtype=float))
        if not (self.prior_means.shape == self.noise_mu.shape == (self.K,)):
            raise DataError("prior_means, noise_mu must be length-K")
        lo, hi = self.q_bounds()
        if lo < 2:
            raise DataError("Q must be at least 2 (block 0 is the noise block)")
        if hi < lo:
            raise DataError("empty Q range")

    def q_bounds(self) -> tuple[int, int]:
        if isinstance(self.Q, tuple):
            return int(self.Q[0]), int(self.Q[1])
        return int(self.Q), int(self.Q)


def gen_params(spec: SimSpec, rng: np.random.Generator) -> ModelParams:
    """Draw one ground-truth parameter set; block 0 is the noise block."""
    lo, hi = spec.q_bounds()
    Q = int(rng.integers(lo, hi + 1)) if hi > lo else lo
    noise = BlockParams(mu=spec.noise_mu.copy(), var=np.full(spec.K, NOISE_VAR), rho=0.0)
    blocks = [noise]
    for _ in range(1, Q):
        mu = spec.prior_means + PRIOR_SD * rng.standard_normal(spec.K)
        var = np.maximum(np.abs(PRIOR_SD * rng.standard_normal(spec.K)), _VAR_PRIOR_FLOOR)
        rho = clamp_rho(float(rng.uniform(0.0, 1.0)))
        blocks.append(BlockParams(mu=mu, var=var, rho=rho))
    alpha = rng.dirichlet(np.full(Q, DIRICHLET_CONC))
    return ModelParams(blocks=blocks, noise=noise, alpha=alpha, noise_block=0)


def draw_sizes(n: int, alpha: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Multinomial block sizes with every block at least 3 nodes;
    degenerate draws are resampled."""
    Q = len(alpha)
    if n < _SIZE_MIN * Q:
        raise DataError(f"n={n} is too small for {Q} blocks of at least {_SIZE_MIN} nodes")
    for _ in range(_SIZE_TRIES):
        sizes = rng.multinomial(n, alpha)
        if sizes.min() >= _SIZE_MIN:
            return sizes
    raise NumericalError("could not draw block sizes with the minimum size")


def draw_candidate(
    spec: SimSpec, rng: np.random.Generator
) -> tuple[ModelParams, np.ndarray]:
    params = gen_params(spec, rng)
    sizes = draw_sizes(spec.n, params.alpha, rng)
    return params, sizes


def gen_network(
    params: ModelParams, sizes: np.ndarray, rng: np.random.Generator
) -> tuple[MultilayerNetwork, np.ndarray]:
    """Sample one network: within-block pairs from their block law (the
    noise block from the noise law), every other pair from the noise law.

    Returns (network, true membership labels); nodes are laid out block by
    block.
    """
    sizes = np.asarray(sizes, dtype=int)
    if sizes.size != params.Q:
        raise DataError("need one size per block")
    if np.any(sizes < 1):
        raise DataError("every block needs at least one node")
    n = int(sizes.sum())
    labels = np.repeat(np.arange(params.Q), sizes)
    X = np.empty((num_pairs(n), params.K), order="F")
    # Row i's pairs (i, j > i) start at pair_index(n, i, i + 1).  Nodes are
    # laid out block by block, so they are one run j < end of i's block,
    # drawn by that block's law, then one run of cross-block pairs, drawn
    # by the noise law (the noise block's law equals it; ModelParams checks
    # that).  Each law draws its runs in pair order.
    ends = np.cumsum(sizes).tolist()
    starts = [0] + ends[:-1]
    row_start = pair_index(n, np.arange(n), np.arange(1, n + 1)).tolist()
    cross = []
    for law, s, e in zip(params.blocks, starts, ends):
        _draw_runs(X, [(row_start[i], e - 1 - i) for i in range(s, e - 1)], law, rng)
        if e < n:
            cross += [(row_start[i] + e - 1 - i, n - e) for i in range(s, e)]
    _draw_runs(X, cross, params.noise, rng)
    return MultilayerNetwork(n=n, K=params.K, weights=X), labels


def _draw_runs(X: np.ndarray, runs: list, law, rng: np.random.Generator) -> None:
    """Fill the pair runs X[p : p + length] from one Gaussian law, in run
    order.  Runs are drawn in batches of about PAIR_TILE pairs (one run
    when a run is longer); chunked standard_normal draws give the values
    of one draw over all of them."""
    L = np.linalg.cholesky(law.covariance())
    b0 = 0
    while b0 < len(runs):
        b1, total = b0 + 1, runs[b0][1]
        while b1 < len(runs) and total + runs[b1][1] <= PAIR_TILE:
            total += runs[b1][1]
            b1 += 1
        Z = rng.standard_normal((total, law.mu.size)) @ L.T
        Z += law.mu
        z = 0
        for p, length in runs[b0:b1]:
            X[p : p + length] = Z[z : z + length]
            z += length
        b0 = b1


def bhattacharyya(p, q) -> float:
    """Bhattacharyya distance between two BlockParams laws."""
    mu_p, mu_q = p.mu, q.mu
    cov_p, cov_q = p.covariance(), q.covariance()
    avg = 0.5 * (cov_p + cov_q)
    try:
        L = np.linalg.cholesky(avg)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("averaged covariance is singular") from exc
    diff = mu_p - mu_q
    sol = np.linalg.solve(L, diff)
    quad = float(sol @ sol)
    logdet_avg = 2.0 * np.sum(np.log(np.diag(L)))
    sign_p, logdet_p = np.linalg.slogdet(cov_p)
    sign_q, logdet_q = np.linalg.slogdet(cov_q)
    if sign_p <= 0 or sign_q <= 0:
        raise NumericalError("covariance is singular")
    return 0.125 * quad + 0.5 * (logdet_avg - 0.5 * (logdet_p + logdet_q))


def min_block_distance(params: ModelParams) -> float:
    """Smallest pairwise Bhattacharyya distance among all blocks."""
    best = np.inf
    for a in range(params.Q):
        for b in range(a + 1, params.Q):
            best = min(best, bhattacharyya(params.blocks[a], params.blocks[b]))
    return best


def filter_separable(candidates, keep_frac: float) -> list[int]:
    """Indices of the top keep_frac fraction (ceiling) of candidates by
    minimum pairwise block distance; ties keep the earlier index."""
    if not 0.0 < keep_frac <= 1.0:
        raise DataError("keep_frac must lie in (0, 1]")
    scores = np.array([min_block_distance(p) for p in candidates])
    if scores.size == 0:
        raise DataError("no candidates to filter")
    keep = math.ceil(keep_frac * scores.size)
    order = np.argsort(-scores, kind="stable")
    return sorted(int(i) for i in order[:keep])


def experiment1_spec(n: int, K: int, Q: int | tuple[int, int]) -> SimSpec:
    """The experiment-1 generation settings for n nodes, K layers and Q
    blocks (a count or an inclusive range)."""
    prior_means, noise_mu = _EXP1_MEANS.get(K, ((0.0,) * K, (-1.0,) * K))
    return SimSpec(n=n, K=K, Q=Q, prior_means=prior_means, noise_mu=noise_mu)


def draw_separable(spec: SimSpec, seed: int, candidates: int, keep_frac: float) -> list:
    """(i, params, sizes) of the candidates filter_separable keeps, in index
    order; candidate i is drawn from the (seed, "candidate", i) substream."""
    drawn = [draw_candidate(spec, substream(seed, "candidate", i)) for i in range(candidates)]
    kept = filter_separable([params for params, _ in drawn], keep_frac)
    return [(i, *drawn[i]) for i in kept]


def candidate_network(params: ModelParams, sizes: np.ndarray, seed: int, i: int):
    """gen_network of candidate i from the (seed, "network", i) substream."""
    return gen_network(params, sizes, substream(seed, "network", i))


def experiment2_spec() -> tuple[ModelParams, np.ndarray]:
    """Fixed trivariate 4-block benchmark (n = 300, block 0 is noise)."""
    mu_x = [5.0, 11.98, 11.55, 10.39]
    mu_y = [10.0, 16.86, 16.49, 14.81]
    mu_z = [15.0, 16.69, 21.25, 21.08]
    var_x = [7.88, 13.11, 0.31, 1.16]
    var_y = [7.32, 7.67, 4.89, 1.03]
    var_z = [6.69, 4.15, 0.06, 4.36]
    rho = [0.00, 0.40, 0.15, 0.34]
    sizes = np.array([76, 97, 93, 34])
    blocks = [
        BlockParams(
            mu=[mu_x[q], mu_y[q], mu_z[q]],
            var=[var_x[q], var_y[q], var_z[q]],
            rho=rho[q],
        )
        for q in range(4)
    ]
    params = ModelParams(
        blocks=blocks, noise=blocks[0], alpha=sizes / sizes.sum(), noise_block=0
    )
    return params, sizes
