"""Model selection (integrated complete likelihood) and clustering-quality
metrics: adjusted Rand index, normalized mutual information, exact
recovery, and ground-truth parameter error reports.

Partitions are integer label arrays; every metric here is invariant to
relabeling either argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import (
    ModelParams,
    MultilayerNetwork,
    expected_log_likelihood,
    law_coefficients,
    pair_moments,
    safe_log,
)
from .vem import FitResult

_APE_DENOM_FLOOR = 0.01


def _as_labels(a) -> np.ndarray:
    a = np.asarray(a, dtype=int)
    if a.ndim != 1 or a.size < 1:
        raise DataError("partition must be a nonempty 1-d label array")
    return a


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ua.size, ub.size), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)
    return table


def ari(a, b) -> float:
    """Adjusted Rand index via pair counting with the permutation-model
    expectation."""
    a, b = _as_labels(a), _as_labels(b)
    if a.size != b.size:
        raise DataError("partitions must have equal length")
    table = _contingency(a, b)

    def comb2(x):
        return (x * (x - 1) // 2).sum()

    index = comb2(table)
    sum_a = comb2(table.sum(axis=1))
    sum_b = comb2(table.sum(axis=0))
    total = a.size * (a.size - 1) // 2
    expected = sum_a * sum_b / total if total else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))


def nmi(a, b) -> float:
    """Normalized mutual information I(a;b)/sqrt(H(a)H(b)).

    By convention 1 if both partitions are a single shared cluster and 0
    if exactly one has zero entropy while the partitions differ.
    """
    a, b = _as_labels(a), _as_labels(b)
    if a.size != b.size:
        raise DataError("partitions must have equal length")
    table = _contingency(a, b).astype(float)
    n = a.size
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    ha = -np.sum(pa * np.log(pa, where=pa > 0, out=np.zeros_like(pa)))
    hb = -np.sum(pb * np.log(pb, where=pb > 0, out=np.zeros_like(pb)))
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    pab = table / n
    # Every label occurs, so pa and pb are positive; empty cells add 0.
    ratio = pab / np.outer(pa, pb)
    mi = np.sum(pab * np.log(ratio, where=pab > 0, out=np.zeros_like(ratio)))
    return float(mi / math.sqrt(ha * hb))


def _max_assignment(gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of an assignment of maximal total gain, for a table
    with no more rows than columns: Kuhn-Munkres by shortest augmenting
    paths with row and column potentials (Jonker & Volgenant 1987).  Each
    row in turn grows a Dijkstra tree over the reduced costs from the
    virtual column m until it reaches a free column, then flips the path.
    """
    cost = -gain.astype(float)
    n, m = cost.shape
    u, v = np.zeros(n), np.zeros(m + 1)  # row and column potentials
    row_of = np.full(m + 1, -1)  # row matched to each column; m is virtual
    for i in range(n):
        row_of[m], j = i, m
        dist = np.full(m + 1, np.inf)  # reduced length of the path to each column
        prev = np.full(m + 1, m)  # the column before it on that path
        done = np.zeros(m + 1, dtype=bool)
        while row_of[j] >= 0:
            done[j] = True
            r = row_of[j]
            reduced = cost[r] - u[r] - v[:m]
            closer = ~done[:m] & (reduced < dist[:m])
            dist[:m][closer] = reduced[closer]
            prev[:m][closer] = j
            j = int(np.argmin(np.where(done[:m], np.inf, dist[:m])))
            delta = dist[j]
            u[row_of[done]] += delta
            v[done] -= delta
            dist[~done] -= delta
        while j != m:
            row_of[j] = row_of[prev[j]]
            j = prev[j]
    cols = np.flatnonzero(row_of[:m] >= 0)
    return row_of[cols], cols


def optimal_matching(truth, fitted) -> dict[int, int]:
    """Label bijection maximizing agreement, as {truth label: fitted label}.

    Solved as an assignment problem on the confusion matrix; unmatched
    labels (unequal cluster counts) are simply absent from the map.
    """
    truth, fitted = _as_labels(truth), _as_labels(fitted)
    if truth.size != fitted.size:
        raise DataError("partitions must have equal length")
    ut = np.unique(truth)
    uf = np.unique(fitted)
    table = _contingency(truth, fitted)
    if ut.size <= uf.size:
        rows, cols = _max_assignment(table)
    else:
        cols, rows = _max_assignment(table.T)
    return {int(ut[r]): int(uf[c]) for r, c in sorted(zip(rows, cols))}


def exact_recovery(truth, fitted) -> bool:
    """True iff some label bijection makes the partitions identical: every
    row and every column of the contingency table has one nonzero cell."""
    truth, fitted = _as_labels(truth), _as_labels(fitted)
    if truth.size != fitted.size:
        raise DataError("partitions must have equal length")
    nonzero = _contingency(truth, fitted) > 0
    return bool(np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1))


def icl(net: MultilayerNetwork, fit: FitResult) -> float:
    """Integrated complete likelihood at the fitted hard memberships.

    Complete-data log-likelihood (within-block edges under their block
    law, the noise block and all cross-block edges under the noise law,
    plus the membership prior) minus Q(Q-1)/2 * log(n(K-1)) and the
    Gaussian penalty Q*log(n(n-1)K/2) + Q(Q-1)/2 * K * log(n(n-1)/2).
    The K = 1 middle term uses log(n * max(K-1, 1)).

    `net` is the network `fit` was fitted on.  The likelihood's moments
    are fit.partition_moments when those belong to fit.hard_membership
    (the fit's last moment pass summed them); otherwise this makes its own
    pass over the pairs.
    """
    params = fit.params
    z = fit.hard_membership
    n, K, Q = net.n, net.K, params.Q
    stored = fit.partition_moments
    if stored is not None and np.array_equal(stored[0], z):
        moments = stored[1]
    else:
        moments = pair_moments(net, np.eye(Q)[z])
    # With P = 1 each block's pairs are scored under its own law; a
    # designated noise block's law is the noise law (ModelParams checks).
    ll = expected_log_likelihood(law_coefficients(params, net.center), moments, np.ones(Q))
    ll += float(safe_log(params.alpha)[z].sum())
    middle = 0.5 * Q * (Q - 1) * math.log(n * max(K - 1, 1))
    pen = Q * math.log(n * (n - 1) * K / 2) + (Q * (Q - 1) / 2) * K * math.log(
        n * (n - 1) / 2
    )
    return ll - middle - pen


@dataclass
class ParamReport:
    """Signed errors and absolute percentage errors, truth-block order.

    Percentage errors divide by max(|truth|, 0.01).  matching maps each
    truth block index to its fitted counterpart.
    """

    matching: dict[int, int]
    mu_err: np.ndarray
    mu_ape: np.ndarray
    var_err: np.ndarray
    var_ape: np.ndarray
    rho_err: np.ndarray
    rho_ape: np.ndarray
    noise_mu_err: np.ndarray
    noise_mu_ape: np.ndarray
    noise_var_err: np.ndarray
    noise_var_ape: np.ndarray


def _errors(truth: np.ndarray, fitted: np.ndarray):
    err = fitted - truth
    ape = np.abs(err) / np.maximum(np.abs(truth), _APE_DENOM_FLOOR)
    return err, ape


def param_report(
    truth: ModelParams, fitted: ModelParams, matching: dict[int, int]
) -> ParamReport:
    """Per-parameter errors after aligning fitted blocks to truth blocks."""
    if truth.Q != fitted.Q or truth.K != fitted.K:
        raise DataError("parameter sets disagree on Q or K")
    Q, K = truth.Q, truth.K
    mu_t = np.array([b.mu for b in truth.blocks])
    var_t = np.array([b.var for b in truth.blocks])
    rho_t = np.array([b.rho for b in truth.blocks])
    perm = np.array([matching.get(q, q) for q in range(Q)])
    mu_f = np.array([fitted.blocks[p].mu for p in perm])
    var_f = np.array([fitted.blocks[p].var for p in perm])
    rho_f = np.array([fitted.blocks[p].rho for p in perm])
    mu_err, mu_ape = _errors(mu_t, mu_f)
    var_err, var_ape = _errors(var_t, var_f)
    rho_err, rho_ape = _errors(rho_t, rho_f)
    nmu_err, nmu_ape = _errors(truth.noise.mu, fitted.noise.mu)
    nvar_err, nvar_ape = _errors(truth.noise.var, fitted.noise.var)
    return ParamReport(
        matching=dict(matching),
        mu_err=mu_err,
        mu_ape=mu_ape,
        var_err=var_err,
        var_ape=var_ape,
        rho_err=rho_err,
        rho_ape=rho_ape,
        noise_mu_err=nmu_err,
        noise_mu_ape=nmu_ape,
        noise_var_err=nvar_err,
        noise_var_ape=nvar_ape,
    )
