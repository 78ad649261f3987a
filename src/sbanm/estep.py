"""The E-step of hierarchical variational EM.

A damped fixed point for the membership posteriors tau, on packed gap
matrices that each E-step builds from the laws' model.law_coefficients.
Full-batch EM runs it on every node; the stochastic variant (sbanm.svi)
runs one pass of it on a node subsample, damped by its decaying averaging
weight.  The update of the posterior over which block is the noise block
(P_q, the probability that block q is signal, is one minus its entry)
reads the block gaps off a pair_moments pass: signal_probs(block_gaps(...)).
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
    symmetric n x n matrices in model.packed_pairs row blocks."""
    noise, blocks = law_coefficients(params, net.center)
    # Overflow or inf - inf here is caught by the E-step's finite check.
    with np.errstate(over="ignore", invalid="ignore"):
        coef = blocks - noise
        return packed_pairs(
            net.n,
            lambda p0, p1, r0, r1: coef @ pair_features(net.weights[p0:p1], net.center),
            (params.Q,),
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
    inner: int = 1,
    damping: float = 1.0,
    tol: float = 0.0,
) -> np.ndarray:
    """One tau update on the rows in `nodes` (sorted, distinct node indices;
    all nodes when None); returns the new tau.

    Iterates log tau*_iq = log alpha_q + P_q sum_j tau_jq (f_sig - f_noise) - 1
    over j in `nodes`, self term excluded, rows normalized by softmax_rows,
    with tau <- damping*tau* + (1-damping)*tau renormalized, for at most
    `inner` passes or until the max-abs change drops below `tol`.  (The
    mean-field likelihood term sum_j [tau_jq (P_q f_sig + (1-P_q) f_noise)
    + sum_{l != q} tau_jl f_noise] exceeds the gap term by sum_j f_noise,
    which is the same for every q and cancels in the normalization.)  Each
    pass makes one packed product over all Q blocks.  Rows outside `nodes`
    are kept unchanged.  A full-batch step damps its passes; an SVI step
    (sbanm.svi) is one pass with its averaging weight as `damping`.  P is
    not updated here: the fit takes it at the new tau from the next moment
    pass, signal_probs(block_gaps(law_coefficients(params, net.center),
    pair_moments(net, tau))).
    """
    gaps = _gap_squares(net, params)
    rows = slice(None) if nodes is None else nodes
    const = safe_log(params.alpha)[None, :] - 1.0
    # Memberships zeroed outside `rows`: the whole-graph product read at
    # `rows` is the product with the subsample's own gap submatrix.
    x = np.zeros((params.Q, net.n))
    tau = state.tau.copy()
    for it in range(inner):
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
        if delta < tol:
            break
    return tau
