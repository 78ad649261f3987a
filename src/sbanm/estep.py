"""The E-step of hierarchical variational EM.

A damped fixed point for the membership posteriors tau, then a logistic
update of the per-block signal probabilities P.  Full-batch EM runs it on
every node; the stochastic variant (sbanm.svi) runs it on a node subsample
and averages the result into the running estimates.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .model import (
    ModelParams,
    MultilayerNetwork,
    VariationalState,
    clip_prob,
    law_coefficients,
    packed_matvec,
    packed_pairs,
    pair_features,
    pair_index,
    psi_terms,
    safe_log,
    tile_endpoints,
)


def _gap_squares(net: MultilayerNetwork, params: ModelParams, nodes) -> np.ndarray:
    """Each block's signal-minus-noise log-density gap over the pairs inside
    `nodes` (all nodes when None), as Q packed symmetric m x m matrices
    (model.packed_pairs) of shape (Q, m(m+1)/2)."""
    m = net.n if nodes is None else nodes.size
    # Overflow or inf - inf here is caught by the E-step's finite check.
    with np.errstate(over="ignore", invalid="ignore"):
        noise, blocks = law_coefficients(params, net.center)
        coef = blocks - noise

        def tile_gaps(p0, p1, r0, r1):
            if nodes is None:
                rows = slice(p0, p1)
            else:
                I, J = tile_endpoints(m, r0, r1)
                rows = pair_index(net.n, nodes[I], nodes[J])
            return coef @ pair_features(net.weights[rows], net.center)

        return packed_pairs(m, tile_gaps, (params.Q,))


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """exp(logits) with each row normalized to sum to one; the row maximum
    is subtracted first, so no entry overflows and the largest is 1."""
    out = np.exp(logits - logits.max(axis=1, keepdims=True))
    out /= out.sum(axis=1, keepdims=True)
    return out


def signal_probs(gaps: np.ndarray, psi: float) -> np.ndarray:
    """P* from the block gaps: noise weights sigmoid(-gap_q + log((1-psi)/psi))
    normalized to sum to one, P* = 1 - N, clamped."""
    psi_c = clip_prob(psi)
    # log sigmoid(x) = -log(1 + e^-x), evaluated without overflow.
    log_nhat = -np.logaddexp(0.0, gaps - np.log((1.0 - psi_c) / psi_c))
    return clip_prob(1.0 - np.exp(log_nhat - np.logaddexp.reduce(log_nhat)))


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

    Iterates log tau*_iq = log alpha_q + P_q sum_j tau_jq (f_sig - f_noise)
        - 1 + P_q log(psi) + (1-P_q) log(1-psi)
    over j in `nodes`, self term excluded, rows normalized by softmax_rows,
    with tau <- damping*tau* + (1-damping)*tau renormalized, for at most
    `inner` passes or until the max-abs change drops below `tol`.  (The
    mean-field likelihood term sum_j [tau_jq (P_q f_sig + (1-P_q) f_noise)
    + sum_{l != q} tau_jl f_noise] exceeds the gap term by sum_j f_noise,
    which is the same for every q and cancels in the normalization.)  At the
    new tau, P* = signal_probs(gap, psi) with gap_q = sum_{i<j} tau_iq tau_jq
    (f_sig - f_noise).  Finally tau[nodes] and P move to weight * new +
    (1 - weight) * previous and the rows of tau are renormalized; rows
    outside `nodes` are kept unchanged.
    """
    gap_sq = _gap_squares(net, params, nodes)
    rows = slice(None) if nodes is None else nodes
    tau_prev = state.tau[rows]
    P = state.P
    const = safe_log(params.alpha)[None, :] + psi_terms(P, params.psi)[None, :] - 1.0
    tau_new = tau_prev
    for it in range(inner):
        logits = np.empty(tau_new.shape)
        for q, gap in enumerate(gap_sq):
            logits[:, q] = P[q] * packed_matvec(gap, tau_new[:, q])
        logits += const
        if not np.all(np.isfinite(logits)):
            raise NumericalError(f"tau update diverged at inner iteration {it}")
        damped = damping * softmax_rows(logits) + (1.0 - damping) * tau_new
        damped /= damped.sum(axis=1, keepdims=True)
        delta = np.max(np.abs(damped - tau_new))
        tau_new = damped
        if delta < tol:
            break

    # The symmetric matrix holds each pair twice, hence the half.
    gaps = np.array(
        [0.5 * (tau @ packed_matvec(gap, tau)) for tau, gap in zip(tau_new.T, gap_sq)]
    )
    p_star = signal_probs(gaps, params.psi)

    tau = state.tau.copy()
    tau[rows] = weight * tau_new + (1.0 - weight) * tau_prev
    tau[rows] /= tau[rows].sum(axis=1, keepdims=True)
    return tau, clip_prob(weight * p_star + (1.0 - weight) * P)
