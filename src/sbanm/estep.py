"""The E-step of hierarchical variational EM.

A damped fixed point for the membership posteriors tau, then a logistic
update of the per-block signal probabilities P.  Full-batch EM runs it on
every node; the stochastic variant (sbanm.svi) runs it on a node subsample
and averages the result into the running estimates.
"""

from __future__ import annotations

import numpy as np
from scipy.special import log_expit, logsumexp

from .errors import NumericalError
from .model import (
    ModelParams,
    MultilayerNetwork,
    VariationalState,
    clip_prob,
    log_density_batch,
    pair_index,
    pairs_to_square,
    psi_terms,
    safe_log,
)


def _gap_squares(net: MultilayerNetwork, params: ModelParams, nodes):
    """Each block's signal-minus-noise log-density gap as a symmetric
    (m, m) matrix over the pairs inside `nodes` (all nodes when None), and
    each row's summed noise log-density."""
    if nodes is None:
        m, X = net.n, net.weights
    else:
        m = nodes.size
        a_idx, b_idx = np.triu_indices(m, 1)
        X = net.weights[pair_index(net.n, nodes[a_idx], nodes[b_idx])]
        del a_idx, b_idx
    ld_noise = log_density_batch(X, params.noise.mu, params.noise.covariance())
    gap_sq = []
    for b in params.blocks:
        ld = log_density_batch(X, b.mu, b.covariance())
        with np.errstate(invalid="ignore"):  # inf - inf caught by the finite check
            gap_sq.append(pairs_to_square(m, ld - ld_noise))
    noise_rowsum = pairs_to_square(m, ld_noise).sum(axis=1)
    return gap_sq, noise_rowsum


def e_step(
    net: MultilayerNetwork,
    params: ModelParams,
    state: VariationalState,
    nodes: np.ndarray | None = None,
    weight: float = 1.0,
    inner: int = 1,
    damping: float = 1.0,
    tol: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """One E-step on the rows in `nodes` (sorted, distinct node indices; all
    nodes when None); returns (tau, P).

    Iterates log tau*_iq = log alpha_q
        + sum_j [tau_jq (P_q f_sig + (1-P_q) f_noise) + sum_{l != q} tau_jl f_noise]
        - 1 + P_q log(psi) + (1-P_q) log(1-psi)
    over j in `nodes`, self term excluded, rows normalized by log-sum-exp,
    with tau <- damping*tau* + (1-damping)*tau renormalized, for at most
    `inner` passes or until the max-abs change drops below `tol`.  At the
    new tau each block's noise weight is sigmoid(-gap_q + log((1-psi)/psi))
    with gap_q = sum_{i<j} tau_iq tau_jq (f_sig - f_noise); the noise
    weights are normalized to sum to one and P* = 1 - N, clamped.  Finally
    tau[nodes] and P move to weight * new + (1 - weight) * previous and the
    rows of tau are renormalized; rows outside `nodes` are kept unchanged.
    """
    gap_sq, noise_rowsum = _gap_squares(net, params, nodes)
    rows = slice(None) if nodes is None else nodes
    tau_prev = state.tau[rows]
    P = state.P
    const = safe_log(params.alpha)[None, :] + psi_terms(P, params.psi)[None, :] - 1.0
    tau_new = tau_prev
    for it in range(inner):
        logits = np.empty(tau_new.shape)
        for q, gap in enumerate(gap_sq):
            logits[:, q] = P[q] * (gap @ tau_new[:, q])
        logits += noise_rowsum[:, None] + const
        if not np.all(np.isfinite(logits)):
            raise NumericalError(f"tau update diverged at inner iteration {it}")
        tau_star = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
        damped = damping * tau_star + (1.0 - damping) * tau_new
        damped /= damped.sum(axis=1, keepdims=True)
        delta = np.max(np.abs(damped - tau_new))
        tau_new = damped
        if delta < tol:
            break

    # The square holds each pair twice, hence the half.
    gaps = np.array(
        [0.5 * (tau_new[:, q] @ (gap @ tau_new[:, q])) for q, gap in enumerate(gap_sq)]
    )
    psi_c = clip_prob(params.psi)
    log_nhat = log_expit(-gaps + np.log((1.0 - psi_c) / psi_c))
    p_star = clip_prob(1.0 - np.exp(log_nhat - logsumexp(log_nhat)))

    tau = state.tau.copy()
    tau[rows] = weight * tau_new + (1.0 - weight) * tau_prev
    tau[rows] /= tau[rows].sum(axis=1, keepdims=True)
    return tau, clip_prob(weight * p_star + (1.0 - weight) * P)
