import tracemalloc

import numpy as np
import pytest
from scipy.special import log_expit, logsumexp, softmax

import sbanm
from sbanm import model
from sbanm.estep import e_step, signal_probs, softmax_rows
from sbanm.model import EPS_PROB
from sbanm.rng import substream

from conftest import planted_network
from reference import log_density_batch, pairs_to_square


def dense_e_step(net, params, state, nodes, weight, inner, damping):
    """e_step on dense (m, m) gap matrices filled from per-pair
    log-densities (no pair features, no packing, no BLAS packed product)."""
    rows = np.arange(net.n) if nodes is None else nodes
    noise = log_density_batch(net.weights, params.noise.mu, params.noise.covariance())
    gaps = [
        pairs_to_square(net.n, log_density_batch(net.weights, b.mu, b.covariance()) - noise)[
            np.ix_(rows, rows)
        ]
        for b in params.blocks
    ]
    psi = np.clip(params.psi, EPS_PROB, 1 - EPS_PROB)
    P = state.P
    const = np.log(params.alpha) + P * np.log(psi) + (1 - P) * np.log(1 - psi) - 1.0
    tau_prev = state.tau[rows]
    tau = tau_prev
    for _ in range(inner):
        logits = np.column_stack([P[q] * (G @ tau[:, q]) for q, G in enumerate(gaps)]) + const
        star = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
        tau = damping * star + (1 - damping) * tau
        tau /= tau.sum(axis=1, keepdims=True)
    block_gaps = np.array([0.5 * tau[:, q] @ G @ tau[:, q] for q, G in enumerate(gaps)])
    log_nhat = log_expit(-block_gaps + np.log((1 - psi) / psi))
    p_star = np.clip(1 - np.exp(log_nhat - logsumexp(log_nhat)), EPS_PROB, 1 - EPS_PROB)
    out = state.tau.copy()
    out[rows] = weight * tau + (1 - weight) * tau_prev
    out[rows] /= out[rows].sum(axis=1, keepdims=True)
    return out, np.clip(weight * p_star + (1 - weight) * P, EPS_PROB, 1 - EPS_PROB)


def shrunk_params(params, factor):
    """params with every block mean moved toward the noise mean by factor,
    so the gaps are small and the fixed point does not saturate tau."""
    noise = params.noise
    blocks = [
        sbanm.BlockParams(mu=noise.mu + factor * (b.mu - noise.mu), var=b.var, rho=b.rho)
        for b in params.blocks
    ]
    return sbanm.ModelParams(blocks=blocks, noise=noise, alpha=params.alpha)


def soft_state(n, Q, seed):
    rng = substream(seed, "estep-state")
    tau = rng.uniform(0.05, 1.0, size=(n, Q))
    tau /= tau.sum(axis=1, keepdims=True)
    return sbanm.VariationalState(tau=tau, P=rng.uniform(0.2, 0.8, size=Q))


CASES = [
    pytest.param(None, 1.0, 5, 0.7, id="full-batch"),
    pytest.param(80, 0.6, 1, 1.0, id="svi-subset"),
]


class TestPackedGapsAgainstDenseReference:
    @staticmethod
    def check_against_dense_e_step(seed, subset, weight, inner, damping):
        net, _, params = planted_network(sizes=(40, 35, 30), seed=seed)
        params = shrunk_params(params, 0.01)
        state = soft_state(net.n, 3, seed)
        nodes = None
        if subset is not None:
            nodes = np.sort(substream(seed, "nodes").choice(net.n, size=subset, replace=False))
        tau, P = e_step(net, params, state, nodes, weight, inner=inner, damping=damping)
        tau_ref, P_ref = dense_e_step(net, params, state, nodes, weight, inner, damping)
        assert np.max(np.abs(tau - tau_ref)) <= 1e-12
        assert np.max(np.abs(P - P_ref)) <= 1e-12

    # n = 105 spans two pair tiles, so rows meet at a tile boundary.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("subset, weight, inner, damping", CASES)
    def test_matches_dense_e_step(self, seed, subset, weight, inner, damping):
        self.check_against_dense_e_step(seed, subset, weight, inner, damping)

    # Tiles shorter than the longest rows (104 pairs) hold one row each
    # until the rows get shorter than the tile.
    @pytest.mark.parametrize("tile", [50, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("subset, weight, inner, damping", CASES)
    def test_matches_dense_e_step_in_small_tiles(
        self, seed, subset, weight, inner, damping, tile, monkeypatch
    ):
        monkeypatch.setattr(model, "PAIR_TILE", tile)
        self.check_against_dense_e_step(seed, subset, weight, inner, damping)


def test_e_step_peak_memory_below_dense_gap_squares():
    # Q dense n x n gap matrices take Q n^2 8 bytes; the packed upper
    # triangles plus one tile of pair features take about half of that.
    params, _ = sbanm.experiment2_spec()
    net, labels = sbanm.gen_network(params, np.full(4, 100), substream(3, "network"))
    tau = np.full((net.n, 4), 0.05 / 3)
    tau[np.arange(net.n), labels] = 0.95
    state = sbanm.VariationalState(tau=tau, P=np.full(4, 0.75))
    net.center  # cached on first use; not part of the E-step's memory
    tracemalloc.start()
    try:
        e_step(net, params, state, inner=2, damping=0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * net.n**2 * 8


class TestNormalisersAgainstScipy:
    """The E-step's numpy row softmax and P update against scipy.special at
    saturating inputs."""

    LOGITS = [
        np.array([[1e3, -1e3, 0.0], [-1e3, -1e3, 1e3], [1e3, 1e3, -1e3]]),
        np.array([[2.5, 2.5, -1.0], [0.0, 0.0, 0.0], [-1e3, -1e3, -1e3], [1e3, 1e3, 1e3]]),
        substream(4, "logits").uniform(-1e3, 1e3, size=(40, 4)),
    ]

    @pytest.mark.parametrize("logits", LOGITS, ids=["pm1e3", "ties", "uniform1e3"])
    def test_row_softmax(self, logits):
        tau = softmax_rows(logits)
        assert np.all(np.isfinite(tau))
        assert np.max(np.abs(tau.sum(axis=1) - 1.0)) <= 1e-15
        # exp(logits - logsumexp(logits)) is no oracle here: at |logits| of
        # 1e3 the rounding of the log-sum-exp alone moves tau by ~3e-14.
        assert np.max(np.abs(tau - softmax(logits, axis=1))) <= 1e-15
        # Tied maxima share the mass equally.
        for row, tied in zip(tau, logits == logits.max(axis=1, keepdims=True)):
            assert np.all(row[tied] == row[tied][0])

    GAPS = [
        np.array([1e4, -1e4, 0.0, 3.0]),
        np.array([1e4, 1e4, 1e4]),
        np.array([-1e4, -1e4, -1e4]),
        np.array([-1e4, 1e4]),
        np.array([0.0, 0.0, 0.0, 0.0]),
        np.array([5.0]),
        substream(5, "gaps").uniform(-1e4, 1e4, size=6),
    ]

    @staticmethod
    def scipy_signal_probs(gaps, psi):
        psi = np.clip(psi, EPS_PROB, 1 - EPS_PROB)
        log_nhat = log_expit(-gaps + np.log((1 - psi) / psi))
        return np.clip(1 - np.exp(log_nhat - logsumexp(log_nhat)), EPS_PROB, 1 - EPS_PROB)

    @pytest.mark.parametrize("gaps", GAPS, ids=["mixed", "pos", "neg", "pm", "zero", "q1", "uniform"])
    def test_p_update(self, gaps):
        psi = sbanm.psi(gaps.size)
        P = signal_probs(gaps, psi)
        assert np.all(np.isfinite(P))
        assert np.all((P >= EPS_PROB) & (P <= 1 - EPS_PROB))
        assert np.max(np.abs(P - self.scipy_signal_probs(gaps, psi))) <= 1e-15
