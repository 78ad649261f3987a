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
    log_density_batch,
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


def m_step_block(
    net: MultilayerNetwork,
    state: VariationalState,
    q: int,
    noise: NoiseParams,
) -> BlockParams:
    """Closed-form block update: tau-weighted moments blended with the
    noise parameters by P_q; the shared correlation is the largest
    normalized cross-layer moment (mutual coherence), PD-clamped."""
    iu, ju = net.pair_nodes()
    X = net.weights
    K = net.K
    w = state.tau[iu, q] * state.tau[ju, q]
    mass = w.sum()
    P_q = state.P[q]
    if mass < _MASS_FLOOR:
        logger.warning("block %d degenerate (mass %.3g); reset to noise parameters", q, mass)
        return BlockParams(mu=noise.mu.copy(), var=noise.var.copy(), rho=0.0)
    wmean = (w @ X) / mass
    mu = P_q * wmean + (1.0 - P_q) * noise.mu
    dev = X - mu
    var = P_q * ((w @ dev**2) / mass) + (1.0 - P_q) * noise.var
    var = np.maximum(var, VAR_FLOOR)
    rho = 0.0
    if K > 1:
        best = -np.inf
        for h in range(K):
            for k in range(h + 1, K):
                cross = P_q * (w @ (dev[:, h] * dev[:, k])) / mass
                best = max(best, cross / np.sqrt(var[h] * var[k]))
        rho = clamp_rho(best, K)
    return BlockParams(mu=mu, var=var, rho=rho)


def m_step_noise(
    net: MultilayerNetwork, state: VariationalState, psi: float
) -> NoiseParams:
    """Ambient-noise update: psi-blend of the cross-block weighted moments
    and the within-block (1-P_q)-weighted moments.

    Each side of the blend is renormalized by its own mass so the update
    stays defined when one side has no weight.
    """
    iu, ju = net.pair_nodes()
    X = net.weights
    tau, P = state.tau, state.P
    same = np.einsum("pq,pq->p", tau[iu], tau[ju])
    w_cross = np.maximum(1.0 - same, 0.0)
    w_within = np.einsum("pq,pq,q->p", tau[iu], tau[ju], 1.0 - P)
    mass_cross = w_cross.sum()
    mass_within = w_within.sum()
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

    def side_mean(w, mass, values):
        if mass < _MASS_FLOOR:
            return np.zeros(values.shape[1])
        return (w @ values) / mass

    mu = blend(side_mean(w_cross, mass_cross, X), side_mean(w_within, mass_within, X))
    dev2 = (X - mu) ** 2
    var = blend(
        side_mean(w_cross, mass_cross, dev2), side_mean(w_within, mass_within, dev2)
    )
    return NoiseParams(mu=mu, var=np.maximum(var, VAR_FLOOR))


def elbo(
    net: MultilayerNetwork, params: ModelParams, state: VariationalState
) -> float:
    """Hierarchical evidence lower bound.

    Expected log-likelihood (signal, within-noise-block, and interstitial
    parts) plus the membership prior, both entropy terms (entropies
    increase the bound), and the P-level prior term; all logs clamped.
    """
    X = net.weights
    ld_noise = log_density_batch(X, params.noise.mu, params.noise.covariance())
    iu, ju = net.pair_nodes()
    tau, P = state.tau, state.P
    same = np.einsum("pq,pq->p", tau[iu], tau[ju])
    ll = float(np.dot(np.maximum(1.0 - same, 0.0), ld_noise))
    for q, b in enumerate(params.blocks):
        w = tau[iu, q] * tau[ju, q]
        ld_q = log_density_batch(X, b.mu, b.covariance())
        ll += P[q] * np.dot(w, ld_q) + (1.0 - P[q]) * np.dot(w, ld_noise)
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


def _m_step(net, state, psi, noise_prev=None) -> ModelParams:
    """One full M-step: alpha, the noise update, and every block against the
    previous noise parameters (against the new ones when there are none)."""
    alpha = m_step_alpha(state)
    noise = m_step_noise(net, state, psi)
    against = noise if noise_prev is None else noise_prev
    blocks = [m_step_block(net, state, q, against) for q in range(state.Q)]
    return ModelParams(
        Q=state.Q, blocks=blocks, noise=noise, alpha=alpha, psi=psi, noise_block=None
    )


def _bootstrap_params(net, state, psi) -> ModelParams:
    """Initial parameters from the initialized state: the loop's E-step needs
    model parameters, so run one M-step with noise estimated first."""
    return _m_step(net, state, psi)


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
        params = _m_step(net, state, psi, params.noise)
        value = elbo(net, params, state)
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
    final = elbo(net, params, state)
    return FitResult(
        params=params,
        state=state,
        hard_membership=state.hard_membership(),
        elbo_trace=np.asarray(trace),
        converged=converged,
        elbo=final,
    )
