"""Hierarchical variational EM.

E-step (sbanm.estep): damped fixed-point updates of the membership
posteriors tau and a logistic update of the per-block signal
probabilities P, on all nodes or, with SVI, on a node subsample.  M-step:
closed form block/noise moment blends.  The objective is the hierarchical
evidence lower bound; after convergence exactly one block (the argmin of
P) is designated as the ambient-noise block.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .estep import e_step
from .init import InitConfig, spectral_init
from .model import (
    VAR_FLOOR,
    BlockParams,
    ModelParams,
    MultilayerNetwork,
    NoiseParams,
    VariationalState,
    clamp_rho,
    law_coefficients,
    pair_moments,
    psi as psi_of,
    psi_terms,
    safe_log,
)
from .rng import derive_seed
from .svi import SviConfig, subsample_size, svi_e_step

logger = logging.getLogger(__name__)

_MASS_FLOOR = 1e-8


@dataclass
class FitConfig:
    Q: int
    max_outer: int = 200
    tau_inner_max: int = 50
    tol_tau: float = 1e-6
    tol_elbo: float = 1e-8
    damping: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.Q < 1:
            raise DataError("Q must be at least 1")
        if min(self.tol_tau, self.tol_elbo) <= 0:
            raise DataError("tolerances must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise DataError("damping must lie in (0, 1]")
        if self.max_outer < 1 or self.tau_inner_max < 1:
            raise DataError("iteration limits must be at least 1")


@dataclass
class FitResult:
    params: ModelParams
    state: VariationalState
    hard_membership: np.ndarray
    elbo_trace: np.ndarray
    converged: bool
    elbo: float
    icl: float | None = None


def estimate_tau(
    net: MultilayerNetwork,
    params: ModelParams,
    state: VariationalState,
    cfg: FitConfig,
) -> np.ndarray:
    """Full-batch memberships: the E-step's damped fixed point with
    cfg.damping, stopped at cfg.tol_tau or cfg.tau_inner_max passes."""
    return e_step(
        net, params, state, inner=cfg.tau_inner_max, damping=cfg.damping, tol=cfg.tol_tau
    )[0]


def estimate_P(
    net: MultilayerNetwork, params: ModelParams, state: VariationalState
) -> np.ndarray:
    """Signal probabilities at the current memberships: the E-step's P
    update with no tau pass."""
    return e_step(net, params, state, inner=0)[1]


def m_step_alpha(state: VariationalState) -> np.ndarray:
    """Column means of tau."""
    return state.tau.mean(axis=0)


def _moment_stats(moments: np.ndarray, K: int):
    """(mean offset, covariance) of the weights behind one moment row with
    positive mass: the weighted mean is net.center + offset and the
    covariance about it is returned as its row-major upper triangle."""
    offset = moments[1 : K + 1] / moments[0]
    h, k = np.triu_indices(K)
    return offset, moments[K + 1 :] / moments[0] - offset[h] * offset[k]


def m_step_block(
    net: MultilayerNetwork,
    state: VariationalState,
    q: int,
    noise: NoiseParams,
    moments: np.ndarray | None = None,
) -> BlockParams:
    """Closed-form block update: tau-weighted moments blended with the
    noise parameters by P_q; the shared correlation is the largest
    normalized cross-layer moment (mutual coherence), PD-clamped.

    `moments` is pair_moments(net, state.tau), computed here when None.
    """
    if moments is None:
        moments = pair_moments(net, state.tau)
    K = net.K
    mass = moments[q, 0]
    P_q = state.P[q]
    if mass < _MASS_FLOOR:
        logger.warning("block %d degenerate (mass %.3g); reset to noise parameters", q, mass)
        return BlockParams(mu=noise.mu.copy(), var=noise.var.copy(), rho=0.0)
    offset, cov = _moment_stats(moments[q], K)
    wmean = net.center + offset
    mu = P_q * wmean + (1.0 - P_q) * noise.mu
    # The weighted mean of (x - mu)(x - mu)^T is cov + d d^T.
    d = wmean - mu
    h, k = np.triu_indices(K)
    scatter = P_q * (cov + d[h] * d[k])
    diag = h == k
    var = np.maximum(scatter[diag] + (1.0 - P_q) * noise.var, VAR_FLOOR)
    rho = 0.0
    if K > 1:
        off = ~diag
        rho = clamp_rho(float(np.max(scatter[off] / np.sqrt(var[h[off]] * var[k[off]]))), K)
    return BlockParams(mu=mu, var=var, rho=rho)


def m_step_noise(
    net: MultilayerNetwork,
    state: VariationalState,
    psi: float,
    moments: np.ndarray | None = None,
) -> NoiseParams:
    """Ambient-noise update: psi-blend of the cross-block weighted moments
    and the within-block (1-P_q)-weighted moments.

    Each side of the blend is renormalized by its own mass so the update
    stays defined when one side has no weight.  `moments` is
    pair_moments(net, state.tau), computed here when None.
    """
    if moments is None:
        moments = pair_moments(net, state.tau)
    K, Q = net.K, state.Q
    cross, within = moments[Q], (1.0 - state.P) @ moments[:Q]
    mass_cross, mass_within = cross[0], within[0]
    if mass_cross < _MASS_FLOOR and mass_within < _MASS_FLOOR:
        raise NumericalError("noise estimate undefined")

    def blend(stat_cross, stat_within):
        w1 = psi if mass_cross >= _MASS_FLOOR else 0.0
        w2 = (1.0 - psi) if mass_within >= _MASS_FLOOR else 0.0
        total = w1 + w2
        if total == 0.0:
            # psi = 0 with only cross mass (or vice versa): fall back to the
            # side that exists.
            return stat_cross if mass_cross >= _MASS_FLOOR else stat_within
        return (w1 * stat_cross + w2 * stat_within) / total

    def side_stats(side):
        """(mean offset, per-layer variance) of one side; zeros without mass."""
        if side[0] < _MASS_FLOOR:
            return np.zeros(K), np.zeros(K)
        offset, cov = _moment_stats(side, K)
        h, k = np.triu_indices(K)
        return offset, cov[h == k]

    (off_c, var_c), (off_w, var_w) = side_stats(cross), side_stats(within)
    offset = blend(off_c, off_w)
    # Each side's weighted mean of (x - mu)^2 is its variance plus the
    # squared distance of its mean from mu.
    var = blend(var_c + (off_c - offset) ** 2, var_w + (off_w - offset) ** 2)
    return NoiseParams(mu=net.center + offset, var=np.maximum(var, VAR_FLOOR))


def elbo(
    net: MultilayerNetwork,
    params: ModelParams,
    state: VariationalState,
    moments: np.ndarray | None = None,
) -> float:
    """Hierarchical evidence lower bound.

    Expected log-likelihood (signal, within-noise-block, and interstitial
    parts) plus the membership prior, both entropy terms (entropies
    increase the bound), and the P-level prior term; all logs clamped.
    `moments` is pair_moments(net, state.tau), computed here when None.
    """
    if moments is None:
        moments = pair_moments(net, state.tau)
    tau, P = state.tau, state.P
    Q = state.Q
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the finite check
        noise, signal = law_coefficients(params, net.center)
        # Cross-block pairs and the (1 - P_q) share of block q under the
        # noise law, the P_q share under block q's law.
        ll = float(
            (moments[Q] + (1.0 - P) @ moments[:Q]) @ noise
            + P @ np.einsum("qd,qd->q", moments[:Q], signal)
        )
    terms = {
        "likelihood": ll,
        "membership prior": float(np.sum(tau * safe_log(params.alpha)[None, :])),
        "tau entropy": -float(np.sum(tau * safe_log(tau))),
        "P entropy": -float(np.sum(P * safe_log(P) + (1.0 - P) * safe_log(1.0 - P))),
        "signal prior": float(np.sum(tau.sum(axis=0) * psi_terms(P, params.psi))),
    }
    for name, value in terms.items():
        if not np.isfinite(value):
            raise NumericalError(f"non-finite ELBO term: {name}")
    return float(sum(terms.values()))


def _m_step(net, state, psi, moments, noise_prev=None) -> ModelParams:
    """One full M-step from the state's pair moments: alpha, the noise
    update, and every block against the previous noise parameters (against
    the new ones when there are none)."""
    alpha = m_step_alpha(state)
    noise = m_step_noise(net, state, psi, moments)
    against = noise if noise_prev is None else noise_prev
    blocks = [m_step_block(net, state, q, against, moments) for q in range(state.Q)]
    return ModelParams(
        Q=state.Q, blocks=blocks, noise=noise, alpha=alpha, psi=psi, noise_block=None
    )


def _bootstrap_params(net, state, psi) -> ModelParams:
    """Initial parameters from the initialized state: the loop's E-step needs
    model parameters, so run one M-step with noise estimated first."""
    return _m_step(net, state, psi, pair_moments(net, state.tau))


def fit(
    net: MultilayerNetwork,
    cfg: FitConfig,
    svi: SviConfig | None = None,
    init_state: VariationalState | None = None,
) -> FitResult:
    """Run variational EM to convergence and designate the noise block.

    Alternates (tau, P) E-steps with full M-steps until the relative ELBO
    change drops below tol_elbo or the max-abs tau change below tol_tau.
    With an SviConfig the E-step runs on growing node subsamples until the
    subsample covers the graph, then continues full batch.  The block with
    the smallest fitted P is designated as noise and its parameters are
    overwritten with the ambient-noise law.
    """
    if net.n <= cfg.Q:
        raise DataError("need more nodes than blocks")
    psi = psi_of(cfg.Q)
    if init_state is None:
        init_state = spectral_init(
            net, InitConfig(Q=cfg.Q, seed=derive_seed(cfg.seed, "init"))
        )
    state = init_state
    params = _bootstrap_params(net, state, psi)

    trace: list[float] = []
    converged = False
    prev_elbo = None
    for it in range(cfg.max_outer):
        # The subsample never shrinks, so the SVI steps come first and SVI
        # step t is outer iteration t; once it covers the graph, every step
        # is full batch.
        full = svi is None or subsample_size(it, svi, net.n) >= net.n
        if full:
            tau, P = e_step(
                net, params, state, inner=cfg.tau_inner_max, damping=cfg.damping,
                tol=cfg.tol_tau,
            )
        else:
            tau, P = svi_e_step(net, params, state, it, svi)
        delta_tau = float(np.max(np.abs(tau - state.tau)))
        state = VariationalState(tau=tau, P=P)
        moments = pair_moments(net, tau)
        params = _m_step(net, state, psi, moments, params.noise)
        value = elbo(net, params, state, moments)
        trace.append(value)
        logger.info(
            "iter=%d elbo=%.10e dtau=%.3e minP=%.3e", it, value, delta_tau, state.P.min()
        )
        if not full:
            continue
        if delta_tau < cfg.tol_tau or (
            prev_elbo is not None and abs(value - prev_elbo) < cfg.tol_elbo * abs(prev_elbo)
        ):
            converged = True
            break
        prev_elbo = value

    q_nb = int(np.argmin(state.P))
    blocks = list(params.blocks)
    blocks[q_nb] = BlockParams(
        mu=params.noise.mu.copy(), var=params.noise.var.copy(), rho=0.0
    )
    params = ModelParams(
        Q=cfg.Q,
        blocks=blocks,
        noise=params.noise,
        alpha=params.alpha,
        psi=psi,
        noise_block=q_nb,
    )
    final = elbo(net, params, state, moments)
    return FitResult(
        params=params,
        state=state,
        hard_membership=state.hard_membership(),
        elbo_trace=np.asarray(trace),
        converged=converged,
        elbo=final,
    )
