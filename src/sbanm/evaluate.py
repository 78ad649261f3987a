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


def _contingency(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct labels of each partition and their contingency table: a
    row per distinct label of a, a column per distinct label of b."""
    uniques = []
    for labels in (a, b):
        labels = np.asarray(labels)
        with np.errstate(invalid="ignore"):
            ints = labels.astype(int)
        if labels.ndim != 1 or labels.size < 1 or not np.array_equal(ints, labels):
            raise DataError("partition must be a nonempty 1-d array of integer labels")
        uniques.append(np.unique(ints, return_inverse=True))
    (ua, ia), (ub, ib) = uniques
    if ia.size != ib.size:
        raise DataError("partitions must have equal length")
    table = np.zeros((ua.size, ub.size), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)
    return ua, ub, table


def ari(a, b) -> float:
    """Adjusted Rand index via pair counting with the permutation-model
    expectation.  Pair counts are Python integers, so it is exact at any n."""
    table = _contingency(a, b)[2]

    def comb2(x):
        return int((x * (x - 1) // 2).sum())

    index = comb2(table)
    sum_a = comb2(table.sum(axis=1))
    sum_b = comb2(table.sum(axis=0))
    total = comb2(table.sum(keepdims=True))
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
    table = _contingency(a, b)[2].astype(float)
    n = table.sum()
    # Every label occurs, so pa and pb are positive.
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    ha = -np.sum(pa * np.log(pa))
    hb = -np.sum(pb * np.log(pb))
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    pab = table / n
    # Empty cells add 0.
    ratio = pab / np.outer(pa, pb)
    mi = np.sum(pab * np.log(ratio, where=pab > 0, out=np.zeros_like(ratio)))
    return float(mi / math.sqrt(ha * hb))


def _max_assignment(gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of an assignment of maximal total gain: Kuhn-Munkres
    by shortest augmenting paths with row and column potentials (Jonker &
    Volgenant 1987).  Each row in turn grows a Dijkstra tree over the
    reduced costs from the virtual column m until it reaches a free column,
    then flips the path.  A table with more rows than columns is solved as
    its transpose.
    """
    if gain.shape[0] > gain.shape[1]:
        return _max_assignment(gain.T)[::-1]
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
    ut, uf, table = _contingency(truth, fitted)
    return {int(ut[r]): int(uf[c]) for r, c in sorted(zip(*_max_assignment(table)))}


def exact_recovery(truth, fitted) -> bool:
    """True iff some label bijection makes the partitions identical: every
    row and every column of the contingency table has one nonzero cell."""
    nonzero = _contingency(truth, fitted)[2] > 0
    return bool(np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1))


def icl(net: MultilayerNetwork, fit: FitResult) -> float:
    """Integrated complete likelihood at the fitted hard memberships.

    Complete-data log-likelihood (within-block edges under their block
    law, the noise block and all cross-block edges under the noise law,
    plus the membership prior) minus Q(Q-1)/2 * log(n(K-1)) and the
    Gaussian penalty Q*log(n(n-1)K/2) + Q(Q-1)/2 * K * log(n(n-1)/2).
    The K = 1 middle term uses log(n * max(K-1, 1)).

    `net` is the network `fit` was fitted on; the likelihood's moments
    come from one pass over its pairs at the one-hot hard memberships.
    """
    params = fit.params
    z = fit.hard_membership
    n, K, Q = net.n, net.K, params.Q
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

    Percentage errors divide by max(|truth|, 0.01).  matching pairs every
    truth block index with the fitted block it is scored against.
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


def param_report(
    truth: ModelParams, fitted: ModelParams, matching: dict[int, int]
) -> ParamReport:
    """Per-parameter errors after aligning fitted blocks to truth blocks.

    The truth blocks that `matching` leaves out take the fitted blocks it
    leaves out, in ascending order, so every block of each side is scored
    once.
    """
    if truth.Q != fitted.Q or truth.K != fitted.K:
        raise DataError("parameter sets disagree on Q or K")
    Q = truth.Q
    spare = iter(sorted(set(range(Q)) - set(matching.values())))
    # -1 marks a truth block left without a spare fitted block.
    pairing = {q: matching[q] if q in matching else next(spare, -1) for q in range(Q)}
    if sorted(pairing.values()) != list(range(Q)):
        raise DataError("matching must pair distinct truth and fitted blocks")
    matched = [fitted.blocks[p] for p in pairing.values()]
    errors = {}
    for name, t, f in (
        ("mu", [b.mu for b in truth.blocks], [b.mu for b in matched]),
        ("var", [b.var for b in truth.blocks], [b.var for b in matched]),
        ("rho", [b.rho for b in truth.blocks], [b.rho for b in matched]),
        ("noise_mu", truth.noise.mu, fitted.noise.mu),
        ("noise_var", truth.noise.var, fitted.noise.var),
    ):
        err = np.asarray(f) - np.asarray(t)
        errors[f"{name}_err"], errors[f"{name}_ape"] = err, abs(err) / np.maximum(np.abs(t), 0.01)
    return ParamReport(matching=pairing, **errors)
