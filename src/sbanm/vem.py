"""Hierarchical variational EM.

E-step (sbanm.estep): damped fixed-point updates of the membership
posteriors tau, on all nodes or, with SVI, on a node subsample.  Then one
pass over the pairs sums the moments of the new tau; from them the
posterior over which block is noise (P_q = 1 - N_q, the probability that
block q is signal) is updated, and the M-step takes the closed-form
maximisers of the ELBO at fixed (tau, P) -- each block's own tau-weighted
moments, and the moments of the noise-weighted pairs (cross-block pairs
plus the (1 - P_q) share of block q).  The objective is the hierarchical
evidence lower bound; after convergence exactly one block (the argmin of
P) is designated as the ambient-noise block.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .estep import block_gaps, e_step, signal_probs
from .init import spectral_init
from .model import (
    VAR_FLOOR,
    BlockParams,
    ModelParams,
    MultilayerNetwork,
    VariationalState,
    clamp_rho,
    expected_log_likelihood,
    law_coefficients,
    moment_stats,
    noise_moments,
    pair_moments,
    safe_log,
)
from .rng import derive_seed
from .svi import SviConfig, subsample_size, svi_e_step

logger = logging.getLogger(__name__)

_MASS_FLOOR = 1e-8
# Most damped tau passes in one full-batch E-step.
TAU_INNER_MAX = 50
# Weight of the new tau in each of those passes.
TAU_DAMPING = 0.7
# Stopping tests: the max-abs tau change, which also ends a full-batch
# E-step's passes, and the ELBO change relative to its previous magnitude.
TOL_TAU = 1e-6
TOL_ELBO = 1e-8


@dataclass
class FitConfig:
    Q: int
    max_outer: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.Q < 1:
            raise DataError("Q must be at least 1")
        if self.max_outer < 1:
            raise DataError("max_outer must be at least 1")


@dataclass
class FitResult:
    """A finished fit: parameters with the noise block designated, the last
    variational state, its hard partition (row argmax of tau), the ELBO
    after each outer iteration and at the end, and whether a stopping test
    passed.  `icl` is left for the caller (evaluate.icl).
    """

    params: ModelParams
    state: VariationalState
    hard_membership: np.ndarray
    elbo_trace: np.ndarray
    converged: bool
    elbo: float
    icl: float | None = None

    @property
    def empty_blocks(self) -> list[int]:
        """The blocks the hard partition assigns no node."""
        return sorted(set(range(self.params.Q)) - set(self.hard_membership.tolist()))

    def elbo_drops(self, rel_tol: float) -> dict[int, float]:
        """Iteration t -> the ELBO's fall from iteration t - 1 relative to
        its magnitude there, where that exceeds rel_tol."""
        # Entry t of the trace is iteration t of the iteration log; the fit
        # stops on a non-finite ELBO term, so the trace is finite.
        drop = -np.diff(self.elbo_trace) / np.abs(self.elbo_trace[:-1])
        (t,) = np.nonzero(drop > rel_tol)
        return dict(zip((t + 1).tolist(), drop[t].tolist()))


def m_step_alpha(state: VariationalState) -> np.ndarray:
    """Column means of tau."""
    return state.tau.mean(axis=0)


def m_step_block(
    net: MultilayerNetwork,
    q: int,
    noise: BlockParams,
    moments: np.ndarray,
) -> BlockParams:
    """Block q's law maximising the ELBO at fixed (tau, P): the mean and
    per-layer variances of the weights under tau_iq tau_jq, and as shared
    correlation their largest normalized cross-layer covariance (mutual
    coherence) limited to [0, 1).  P_q scales block q's whole likelihood
    term, so it does not enter.  A block without mass is reset to the
    noise law.

    `moments` is pair_moments(net, tau).
    """
    mass = moments[q, 0]
    if mass < _MASS_FLOOR:
        logger.info("block %d degenerate (mass %.3g); reset to noise parameters", q, mass)
        return noise
    mu, cov = moment_stats(moments[q], net.center)
    var = np.maximum(np.diag(cov), VAR_FLOOR)
    rho = 0.0
    if net.K > 1:
        off = ~np.eye(net.K, dtype=bool)
        rho = clamp_rho(float(np.max(cov[off] / np.sqrt(np.outer(var, var)[off]))))
    return BlockParams(mu=mu, var=var, rho=rho)


def m_step_noise(
    net: MultilayerNetwork,
    state: VariationalState,
    moments: np.ndarray,
) -> BlockParams:
    """Ambient-noise law maximising the ELBO at fixed (tau, P): the mean and
    per-layer variances of the weights under each pair's noise weight, its
    cross-block mass plus the (1 - P_q) share of its block-q mass, and
    rho 0.

    `moments` is pair_moments(net, state.tau).
    """
    row = noise_moments(moments, state.P)
    if row[0] < _MASS_FLOOR:
        raise NumericalError("noise estimate undefined")
    mean, cov = moment_stats(row, net.center)
    return BlockParams(mu=mean, var=np.maximum(np.diag(cov), VAR_FLOOR), rho=0.0)


def elbo(
    net: MultilayerNetwork,
    params: ModelParams,
    state: VariationalState,
    moments: np.ndarray,
) -> float:
    """Hierarchical evidence lower bound.

    Expected log-likelihood (signal, within-noise-block, and interstitial
    parts) plus the membership prior and entropy, and the entropy of the
    posterior N = 1 - P over which block is noise with its uniform prior
    1/Q (a constant while N sums to one); all logs clamped.  `moments` is
    pair_moments(net, state.tau).
    """
    tau, P = state.tau, state.P
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the finite check
        ll = expected_log_likelihood(law_coefficients(params, net.center), moments, P)
    terms = {
        "likelihood": ll,
        "membership prior": float(np.sum(tau * safe_log(params.alpha)[None, :])),
        "tau entropy": -float(np.sum(tau * safe_log(tau))),
        "noise entropy": -float(np.sum((1.0 - P) * safe_log(1.0 - P))),
        "noise prior": -math.log(params.Q),
    }
    for name, value in terms.items():
        if not np.isfinite(value):
            raise NumericalError(f"non-finite ELBO term: {name}")
    return float(sum(terms.values()))


def _m_step(net, state, moments) -> ModelParams:
    """One full M-step from the state's pair moments: alpha, the noise law
    and every block, each maximising the ELBO at fixed (tau, P)."""
    noise = m_step_noise(net, state, moments)
    blocks = [m_step_block(net, q, noise, moments) for q in range(state.Q)]
    return ModelParams(blocks=blocks, noise=noise, alpha=m_step_alpha(state))


def fit(
    net: MultilayerNetwork,
    cfg: FitConfig,
    svi: SviConfig | None = None,
    init_state: VariationalState | None = None,
) -> FitResult:
    """Run variational EM to convergence and designate the noise block.

    Each outer iteration runs a tau E-step, then one moment pass over all
    pairs at the new tau, which gives the P update (signal_probs of the
    block gaps at the E-step's parameters), the M-step and the ELBO.  The
    fit stops when the max-abs tau change drops below TOL_TAU or the
    relative ELBO change below TOL_ELBO, or after max_outer iterations.
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
    # The loop's E-step needs model parameters.
    params = _m_step(net, state, pair_moments(net, state.tau))

    trace: list[float] = []
    converged = False
    prev_elbo = None
    for it in range(cfg.max_outer):
        # The subsample never shrinks, so the SVI steps come first and SVI
        # step t is outer iteration t; once it covers the graph, every step
        # is full batch.
        full = svi is None or subsample_size(it, svi, net.n) >= net.n
        if full:
            tau = e_step(net, params, state, inner=TAU_INNER_MAX, damping=TAU_DAMPING, tol=TOL_TAU)
        else:
            tau = svi_e_step(net, params, state, it, svi)
        delta_tau = float(np.max(np.abs(tau - state.tau)))
        moments = pair_moments(net, tau)
        P = signal_probs(block_gaps(law_coefficients(params, net.center), moments))
        state = VariationalState(tau=tau, P=P)
        params = _m_step(net, state, moments)
        value = elbo(net, params, state, moments)
        trace.append(value)
        logger.info(
            "iter=%d elbo=%.10e dtau=%.3e minP=%.3e", it, value, delta_tau, state.P.min()
        )
        if not full:
            continue
        if delta_tau < TOL_TAU or (
            prev_elbo is not None and abs(value - prev_elbo) < TOL_ELBO * abs(prev_elbo)
        ):
            converged = True
            break
        prev_elbo = value

    q_nb = int(np.argmin(state.P))
    blocks = list(params.blocks)
    blocks[q_nb] = params.noise
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
