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
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .estep import e_step
from .init import spectral_init
from .model import (
    VAR_FLOOR,
    BlockParams,
    ModelParams,
    MultilayerNetwork,
    NoiseParams,
    VariationalState,
    clamp_rho,
    expected_log_likelihood,
    moment_stats,
    pair_moments,
    psi as psi_of,
    psi_terms,
    safe_log,
)
from .rng import derive_seed
from .svi import SviConfig, subsample_size, svi_e_step

logger = logging.getLogger(__name__)

_MASS_FLOOR = 1e-8
# Most damped tau passes in one full-batch E-step.
TAU_INNER_MAX = 50


@dataclass
class FitConfig:
    Q: int
    max_outer: int = 200
    tol_tau: float = 1e-6
    tol_elbo: float = 1e-8
    damping: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.Q < 1:
            raise DataError("Q must be at least 1")
        if not (0.0 < self.tol_tau < math.inf and 0.0 < self.tol_elbo < math.inf):
            raise DataError("tolerances must be finite and positive")
        if not 0.0 < self.damping <= 1.0:
            raise DataError("damping must lie in (0, 1]")
        if self.max_outer < 1:
            raise DataError("max_outer must be at least 1")


@dataclass
class FitResult:
    params: ModelParams
    state: VariationalState
    hard_membership: np.ndarray
    elbo_trace: np.ndarray
    converged: bool
    elbo: float
    icl: float | None = None


def m_step_alpha(state: VariationalState) -> np.ndarray:
    """Column means of tau."""
    return state.tau.mean(axis=0)


def m_step_block(
    net: MultilayerNetwork,
    state: VariationalState,
    q: int,
    noise: NoiseParams,
    moments: np.ndarray,
) -> BlockParams:
    """Closed-form block update: tau-weighted moments blended with the
    noise parameters by P_q; the shared correlation is the largest
    normalized cross-layer moment (mutual coherence), PD-clamped.

    `moments` is pair_moments(net, state.tau).
    """
    K = net.K
    mass = moments[q, 0]
    P_q = state.P[q]
    if mass < _MASS_FLOOR:
        logger.warning("block %d degenerate (mass %.3g); reset to noise parameters", q, mass)
        return noise.as_block()
    wmean, cov = moment_stats(moments[q], net.center)
    mu = P_q * wmean + (1.0 - P_q) * noise.mu
    # The weighted mean of (x - mu)(x - mu)^T is cov + d d^T.
    d = wmean - mu
    scatter = P_q * (cov + np.outer(d, d))
    var = np.maximum(np.diag(scatter) + (1.0 - P_q) * noise.var, VAR_FLOOR)
    rho = 0.0
    if K > 1:
        off = ~np.eye(K, dtype=bool)
        rho = clamp_rho(float(np.max(scatter[off] / np.sqrt(np.outer(var, var)[off]))), K)
    return BlockParams(mu=mu, var=var, rho=rho)


def m_step_noise(
    net: MultilayerNetwork,
    state: VariationalState,
    moments: np.ndarray,
) -> NoiseParams:
    """Ambient-noise update: psi-blend of the cross-block weighted moments
    and the within-block (1-P_q)-weighted moments.

    Each side of the blend is renormalized by its own mass and a side
    without mass is left out, so the update stays defined when one side
    has no weight.  `moments` is pair_moments(net, state.tau).
    """
    Q = state.Q
    psi = psi_of(Q)
    sides = [(psi, moments[Q]), (1.0 - psi, (1.0 - state.P) @ moments[:Q])]
    kept = [(w, side / side[0]) for w, side in sides if side[0] >= _MASS_FLOOR]
    if not kept:
        raise NumericalError("noise estimate undefined")
    row = sum(w * side for w, side in kept) / sum(w for w, _ in kept)
    mean, cov = moment_stats(row, net.center)
    return NoiseParams(mu=mean, var=np.maximum(np.diag(cov), VAR_FLOOR))


def elbo(
    net: MultilayerNetwork,
    params: ModelParams,
    state: VariationalState,
    moments: np.ndarray,
) -> float:
    """Hierarchical evidence lower bound.

    Expected log-likelihood (signal, within-noise-block, and interstitial
    parts) plus the membership prior, both entropy terms (entropies
    increase the bound), and the P-level prior term; all logs clamped.
    `moments` is pair_moments(net, state.tau).
    """
    tau, P = state.tau, state.P
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the finite check
        ll = expected_log_likelihood(params, moments, P, net.center)
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


def _m_step(net, state, moments, noise_prev=None) -> ModelParams:
    """One full M-step from the state's pair moments: alpha, the noise
    update, and every block against the previous noise parameters (against
    the new ones when there are none)."""
    alpha = m_step_alpha(state)
    noise = m_step_noise(net, state, moments)
    against = noise if noise_prev is None else noise_prev
    blocks = [m_step_block(net, state, q, against, moments) for q in range(state.Q)]
    return ModelParams(blocks=blocks, noise=noise, alpha=alpha)


def _bootstrap_params(net, state) -> ModelParams:
    """Initial parameters from the initialized state: the loop's E-step needs
    model parameters, so run one M-step with noise estimated first."""
    return _m_step(net, state, pair_moments(net, state.tau))


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
    # SVI step 0 takes min(a, n) nodes; fail before the init, not after it.
    if svi is not None and svi.a < cfg.Q:
        raise DataError("subsample too small for Q blocks")
    if init_state is None:
        init_state = spectral_init(net, cfg.Q, derive_seed(cfg.seed, "init"))
    elif init_state.tau.shape != (net.n, cfg.Q):
        raise DataError(f"init_state tau is {init_state.tau.shape}, need ({net.n}, {cfg.Q})")
    state = init_state
    params = _bootstrap_params(net, state)

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
                net, params, state, inner=TAU_INNER_MAX, damping=cfg.damping, tol=cfg.tol_tau
            )
        else:
            tau, P = svi_e_step(net, params, state, it, svi)
        delta_tau = float(np.max(np.abs(tau - state.tau)))
        state = VariationalState(tau=tau, P=P)
        moments = pair_moments(net, tau)
        params = _m_step(net, state, moments, params.noise)
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
    blocks[q_nb] = params.noise.as_block()
    params = ModelParams(
        blocks=blocks, noise=params.noise, alpha=params.alpha, noise_block=q_nb
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
