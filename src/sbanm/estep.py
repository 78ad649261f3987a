"""The E-step of hierarchical variational EM.

A damped fixed point for the membership posteriors tau, then the update of
the posterior over which block is the noise block (P_q, the probability
that block q is signal, is one minus its entry).  Full-batch EM runs it on
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
    safe_log,
)


def _gap_squares(net: MultilayerNetwork, params: ModelParams) -> list:
    """Each block's signal-minus-noise log-density gap over all pairs, as Q
    symmetric n x n matrices, each a list of model.packed_pairs row blocks."""
    # Overflow or inf - inf here is caught by the E-step's finite check.
    with np.errstate(over="ignore", invalid="ignore"):
        noise, blocks = law_coefficients(params, net.center)
        coef = blocks - noise
        blocks = packed_pairs(
            net.n,
            lambda p0, p1, r0, r1: coef @ pair_features(net.weights[p0:p1], net.center),
            (params.Q,),
        )
    return [[(r0, T[q]) for r0, T in blocks] for q in range(params.Q)]


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

    Iterates log tau*_iq = log alpha_q + P_q sum_j tau_jq (f_sig - f_noise) - 1
    over j in `nodes`, self term excluded, rows normalized by softmax_rows,
    with tau <- damping*tau* + (1-damping)*tau renormalized, for at most
    `inner` passes or until the max-abs change drops below `tol`.  (The
    mean-field likelihood term sum_j [tau_jq (P_q f_sig + (1-P_q) f_noise)
    + sum_{l != q} tau_jl f_noise] exceeds the gap term by sum_j f_noise,
    which is the same for every q and cancels in the normalization.)  At the
    new tau, P* = signal_probs(gap) with gap_q = sum_{i<j} tau_iq tau_jq
    (f_sig - f_noise) over the pairs inside `nodes`.  Finally tau[nodes] and
    P move to weight * new + (1 - weight) * previous and the rows of tau are
    renormalized; rows outside `nodes` are kept unchanged.
    """
    gap_sq = _gap_squares(net, params)
    rows = slice(None) if nodes is None else nodes
    tau_prev = state.tau[rows]
    P = state.P
    const = safe_log(params.alpha)[None, :] - 1.0
    # Memberships zeroed outside `rows`: the whole-graph product read at
    # `rows` is the product with the subsample's own gap submatrix.
    x = np.zeros(net.n)

    def products(tau_rows):
        out = np.empty(tau_rows.shape)
        for q, gap in enumerate(gap_sq):
            x[rows] = tau_rows[:, q]
            out[:, q] = packed_matvec(gap, x)[rows]
        return out

    tau_new = tau_prev
    for it in range(inner):
        logits = P * products(tau_new) + const
        if not np.all(np.isfinite(logits)):
            raise NumericalError(f"tau update diverged at inner iteration {it}")
        damped = damping * softmax_rows(logits) + (1.0 - damping) * tau_new
        damped /= damped.sum(axis=1, keepdims=True)
        delta = np.max(np.abs(damped - tau_new))
        tau_new = damped
        if delta < tol:
            break

    # The symmetric matrix holds each pair twice, hence the half.
    p_star = signal_probs(0.5 * np.einsum("iq,iq->q", tau_new, products(tau_new)))

    tau = state.tau.copy()
    tau[rows] = weight * tau_new + (1.0 - weight) * tau_prev
    tau[rows] /= tau[rows].sum(axis=1, keepdims=True)
    return tau, clip_prob(weight * p_star + (1.0 - weight) * P)
