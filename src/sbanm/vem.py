"""Hierarchical variational EM.

fit makes every E-step (e_step): damped fixed-point updates of the
membership posteriors tau, on all nodes or, with SVI, one pass on the node
subsample of sbanm.svi's schedule.  Then one pass over the pairs sums the
moments of the new tau; from them the posterior over which block is noise
(P_q = 1 - N_q, the probability that block q is signal) is updated, and
the M-step takes the closed-form maximisers of the ELBO at fixed (tau, P)
-- each block's own tau-weighted moments, and the moments of the
noise-weighted pairs (cross-block pairs plus the (1 - P_q) share of block
q).  The objective is the hierarchical evidence lower bound; after
convergence exactly one block (the argmin of P) is designated as the
ambient-noise block.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .init import spectral_init
from .model import (
    VAR_FLOOR,
    BlockParams,
    ModelParams,
    MultilayerNetwork,
    VariationalState,
    clamp_rho,
    clip_prob,
    expected_log_likelihood,
    law_coefficients,
    moment_stats,
    noise_moments,
    packed_matvec,
    packed_pairs,
    pair_features,
    pair_moments,
    safe_log,
)
from .rng import derive_seed
from .svi import SviConfig, averaging_weight, subsample_nodes

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


def _gap_squares(net: MultilayerNetwork, params: ModelParams) -> list:
    """Each block's signal-minus-noise log-density gap over all pairs, as Q
    symmetric n x n matrices in model.packed_pairs row blocks."""
    noise, blocks = law_coefficients(params, net.center)
    # Overflow or inf - inf here is caught by the E-step's finite check.
    with np.errstate(over="ignore", invalid="ignore"):
        coef = blocks - noise
        return packed_pairs(
            net.n, lambda p0, p1: coef @ pair_features(net.weights[p0:p1], net.center), params.Q
        )


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """exp(logits) with each row normalized to sum to one; the row maximum
    is subtracted first, so no entry overflows and the largest is 1."""
    out = np.exp(logits - logits.max(axis=1, keepdims=True))
    out /= out.sum(axis=1, keepdims=True)
    return out


def signal_probs(gaps: np.ndarray) -> np.ndarray:
    """P* = 1 - N from the block gaps, clamped: N = softmax(-gaps) is the
    posterior over which block is noise under a uniform prior."""
    return clip_prob(1.0 - softmax_rows(-gaps[None])[0])


def block_gaps(coefficients: tuple, moments: np.ndarray) -> np.ndarray:
    """Each block's gap gap_q = sum_{i<j} tau_iq tau_jq (f_sig_q - f_noise)
    over the pairs behind `moments` (pair_moments(net, tau)), taken as
    moments[q] . (theta_q - theta_noise) with the laws' law_coefficients
    `coefficients` about the moments' center."""
    noise, blocks = coefficients
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the finite check
        gaps = np.einsum("qd,qd->q", moments[: blocks.shape[0]], blocks - noise)
    if not np.all(np.isfinite(gaps)):
        raise NumericalError("non-finite block gap")
    return gaps


def e_step(
    net: MultilayerNetwork,
    params: ModelParams,
    state: VariationalState,
    nodes: np.ndarray | None = None,
    damping: float = TAU_DAMPING,
) -> np.ndarray:
    """One E-step of the fit; returns the new tau.  With `nodes` None it
    makes damped passes over all nodes until the first whose max-abs
    change is below TOL_TAU, at most TAU_INNER_MAX of them; given `nodes`
    (sorted, distinct node indices) it makes one pass on those rows, SVI
    step t with svi.subsample_nodes(t) and averaging_weight(t) as
    `damping`.

    A pass sets log tau*_iq = log alpha_q + P_q sum_j tau_jq (f_sig - f_noise) - 1
    over j in the rows, self term excluded, rows normalized by softmax_rows,
    and tau <- damping*tau* + (1-damping)*tau renormalized.  (The
    mean-field likelihood term sum_j [tau_jq (P_q f_sig + (1-P_q) f_noise)
    + sum_{l != q} tau_jl f_noise] exceeds the gap term by sum_j f_noise,
    which is the same for every q and cancels in the normalization.)  Each
    pass makes one packed product over all Q blocks.  Rows outside `nodes`
    are kept unchanged.  P is not updated here: the fit takes it at the
    new tau from the next moment pass,
    signal_probs(block_gaps(law_coefficients(params, net.center),
    pair_moments(net, tau))).
    """
    gaps = _gap_squares(net, params)
    rows = slice(None) if nodes is None else nodes
    const = safe_log(params.alpha)[None, :] - 1.0
    # Memberships zeroed outside `rows`: the whole-graph product read at
    # `rows` is the product with the subsample's own gap submatrix.
    x = np.zeros((params.Q, net.n))
    tau = state.tau.copy()
    for it in range(TAU_INNER_MAX if nodes is None else 1):
        previous = tau[rows]
        x[:, rows] = previous.T
        logits = state.P * packed_matvec(gaps, x)[:, rows].T + const
        if not np.all(np.isfinite(logits)):
            raise NumericalError(f"tau update diverged at inner iteration {it}")
        damped = damping * softmax_rows(logits) + (1.0 - damping) * previous
        damped /= damped.sum(axis=1, keepdims=True)
        # Taken before the write: with all nodes, `previous` is a view of tau.
        delta = np.max(np.abs(damped - previous))
        tau[rows] = damped
        if delta < TOL_TAU:
            break
    return tau


def m_step_alpha(state: VariationalState) -> np.ndarray:
    """Column means of tau."""
    return state.tau.mean(axis=0)


def _var_floor(net: MultilayerNetwork, moments: np.ndarray) -> np.ndarray:
    """Per-layer variance floor: VAR_FLOOR times the layer's variance over
    all pairs (the sum of the pair_moments rows), or VAR_FLOOR for a
    constant layer.  Scaling the weights by c scales it by c^2.

    Raises NumericalError when a layer's variance is 0 but its weights are
    not all equal: their squared deviations underflowed float64.
    """
    _, cov = moment_stats(moments.sum(axis=0), net.center)
    var = np.diag(cov)
    for k in np.flatnonzero(var <= 0):
        if np.ptp(net.weights[:, k]) > 0:
            raise NumericalError(
                f"layer {k}: squared weight deviations underflow float64; scale the weights up"
            )
    return np.where(var > 0, VAR_FLOOR * var, VAR_FLOOR)


def _fitted_var(
    net: MultilayerNetwork, cov: np.ndarray, moments: np.ndarray, law: str
) -> np.ndarray:
    """Per-layer variances of `law` from its fitted covariance cov, floored
    by _var_floor.  Raises NumericalError when one is below the smallest
    normal float64: the weights are too small for float64 to square."""
    var = np.maximum(np.diag(cov), _var_floor(net, moments))
    small = np.flatnonzero(var < np.finfo(float).tiny)
    if small.size:
        k = small[0]
        raise NumericalError(
            f"{law} variance of layer {k} underflows float64 ({var[k]:.3g}); "
            "scale the weights up"
        )
    return var


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
    noise law.  Raises NumericalError when a variance underflows float64.

    `moments` is pair_moments(net, tau).
    """
    mass = moments[q, 0]
    if mass < _MASS_FLOOR:
        logger.info("block %d degenerate (mass %.3g); reset to noise parameters", q, mass)
        return noise
    mu, cov = moment_stats(moments[q], net.center)
    var = _fitted_var(net, cov, moments, f"block {q}")
    rho = 0.0
    if net.K > 1:
        off = ~np.eye(net.K, dtype=bool)
        sd = np.sqrt(var)
        rho = clamp_rho(float(np.max(cov[off] / np.outer(sd, sd)[off])))
    return BlockParams(mu=mu, var=var, rho=rho)


def m_step_noise(
    net: MultilayerNetwork,
    state: VariationalState,
    moments: np.ndarray,
) -> BlockParams:
    """Ambient-noise law maximising the ELBO at fixed (tau, P): the mean and
    per-layer variances of the weights under each pair's noise weight, its
    cross-block mass plus the (1 - P_q) share of its block-q mass, and
    rho 0.  Raises NumericalError when a variance underflows float64.

    `moments` is pair_moments(net, state.tau).
    """
    row = noise_moments(moments, state.P)
    if row[0] < _MASS_FLOOR:
        raise NumericalError("noise estimate undefined")
    mean, cov = moment_stats(row, net.center)
    var = _fitted_var(net, cov, moments, "noise")
    return BlockParams(mu=mean, var=var, rho=0.0)


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
    With an SviConfig the E-step runs once on each svi.subsample_nodes
    sample, damped by averaging_weight, until the subsample covers the
    graph, then continues full batch.  The block with
    the smallest fitted P is designated as noise and its parameters are
    overwritten with the ambient-noise law.
    """
    if net.n <= cfg.Q:
        raise DataError("need more nodes than blocks")
    # Every SVI step takes at least min(a, n) nodes; fail before the init,
    # not after it.
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
        nodes = None if svi is None else subsample_nodes(it, svi, net.n)
        damping = TAU_DAMPING if nodes is None else averaging_weight(it)
        tau = e_step(net, params, state, nodes, damping)
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
        if nodes is not None:
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
