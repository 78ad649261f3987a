import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp, softmax

import sbanm
from sbanm import model, vem
from sbanm.model import EPS_PROB, law_coefficients, pair_moments
from sbanm.rng import substream
from sbanm.vem import _gap_squares, block_gaps, e_step, signal_probs, softmax_rows

from conftest import planted_network
from reference import log_density_batch, pairs_to_square


def dense_e_step(net, params, state, nodes, inner, damping):
    """e_step, then the P update at the new tau, on dense (n, n) gap
    matrices filled from per-pair log-densities (no pair features, no row
    blocks, no blocked product, no moment pass)."""
    rows = np.arange(net.n) if nodes is None else nodes
    noise = log_density_batch(net.weights, params.noise.mu, params.noise.covariance())
    gaps = [
        pairs_to_square(net.n, log_density_batch(net.weights, b.mu, b.covariance()) - noise)
        for b in params.blocks
    ]
    P = state.P
    const = np.log(params.alpha) - 1.0
    tau = state.tau[rows]
    for _ in range(inner):
        logits = np.column_stack(
            [P[q] * (G[np.ix_(rows, rows)] @ tau[:, q]) for q, G in enumerate(gaps)]
        ) + const
        star = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
        tau = damping * star + (1 - damping) * tau
        tau /= tau.sum(axis=1, keepdims=True)
    out = state.tau.copy()
    out[rows] = tau
    # P at the new memberships over all pairs, as the fit takes it.
    block_gaps = np.array([0.5 * out[:, q] @ G @ out[:, q] for q, G in enumerate(gaps)])
    return out, np.clip(1 - softmax(-block_gaps), EPS_PROB, 1 - EPS_PROB)


def p_update(net, params, tau):
    """The fit's P update at memberships tau: block gaps read off the
    moment pass at tau."""
    return signal_probs(block_gaps(law_coefficients(params, net.center), pair_moments(net, tau)))


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
    # Five full-batch passes: no tolerance stops them early.
    pytest.param(None, 5, 0.7, id="full-batch"),
    # An SVI step: one pass on a subsample, damped by its averaging weight.
    pytest.param(80, 1, 0.6, id="svi-subset"),
]


def full_batch_passes(monkeypatch, inner, tol=0.0):
    """Make each full-batch e_step run `inner` passes, fewer only when a
    pass changes tau by less than `tol`."""
    monkeypatch.setattr(vem, "TAU_INNER_MAX", inner)
    monkeypatch.setattr(vem, "TOL_TAU", tol)


class TestPackedGapsAgainstDenseReference:
    @staticmethod
    def check_against_dense_e_step(seed, subset, inner, damping, monkeypatch):
        net, _, params = planted_network(sizes=(40, 35, 30), seed=seed)
        params = shrunk_params(params, 0.01)
        state = soft_state(net.n, 3, seed)
        nodes = None
        if subset is not None:
            nodes = np.sort(substream(seed, "nodes").choice(net.n, size=subset, replace=False))
        else:
            full_batch_passes(monkeypatch, inner)
        tau = e_step(net, params, state, nodes, damping)
        P = p_update(net, params, tau)
        tau_ref, P_ref = dense_e_step(net, params, state, nodes, inner, damping)
        assert np.max(np.abs(tau - tau_ref)) <= 1e-12
        assert np.max(np.abs(P - P_ref)) <= 1e-12

    # In tiles of 4096 pairs, n = 105 spans two, so rows meet at a tile
    # boundary.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("subset, inner, damping", CASES)
    def test_matches_dense_e_step(self, seed, subset, inner, damping, monkeypatch):
        monkeypatch.setattr(model, "PAIR_TILE", 4096)
        self.check_against_dense_e_step(seed, subset, inner, damping, monkeypatch)

    # Tiles shorter than the longest rows (104 pairs) hold one row each
    # until the rows get shorter than the tile.
    @pytest.mark.parametrize("tile", [50, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("subset, inner, damping", CASES)
    def test_matches_dense_e_step_in_small_tiles(
        self, seed, subset, inner, damping, tile, monkeypatch
    ):
        monkeypatch.setattr(model, "PAIR_TILE", tile)
        self.check_against_dense_e_step(seed, subset, inner, damping, monkeypatch)


def test_e_step_peak_memory_below_dense_gap_squares(monkeypatch):
    # Q dense n x n gap matrices take Q n^2 8 bytes; the row blocks of the
    # upper triangles plus one tile of pair features take about half of that.
    params, _ = sbanm.experiment2_spec()
    net, labels = sbanm.gen_network(params, np.full(4, 100), substream(3, "network"))
    tau = np.full((net.n, 4), 0.05 / 3)
    tau[np.arange(net.n), labels] = 0.95
    state = sbanm.VariationalState(tau=tau, P=np.full(4, 0.75))
    net.center  # cached on first use; not part of the E-step's memory
    full_batch_passes(monkeypatch, 2)
    tracemalloc.start()
    try:
        e_step(net, params, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * net.n**2 * 8


def test_gap_matrices_pad_at_most_six_percent_at_n_1200():
    # The packed row blocks also hold the zeros at and below the diagonal
    # of their rows, about n PACKED_BLOCK_ROWS / 2 entries per matrix.
    params, _ = sbanm.experiment2_spec()
    n = 1200
    weights = substream(5, "gap-padding").normal(size=(n * (n - 1) // 2, params.K))
    gaps = _gap_squares(sbanm.MultilayerNetwork(n=n, K=params.K, weights=weights), params)
    assert all(T.base is gaps[0][1].base for _, T in gaps)
    assert sum(T.size for _, T in gaps) <= 1.06 * params.Q * n * (n - 1) / 2


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

    @pytest.mark.parametrize("gaps", GAPS, ids=["mixed", "pos", "neg", "pm", "zero", "q1", "uniform"])
    def test_p_update(self, gaps):
        P = signal_probs(gaps)
        assert np.all(np.isfinite(P))
        assert np.all((P >= EPS_PROB) & (P <= 1 - EPS_PROB))
        scipy_P = np.clip(1 - softmax(-gaps), EPS_PROB, 1 - EPS_PROB)
        assert np.max(np.abs(P - scipy_P)) <= 1e-15


def test_tol_stops_after_the_first_pass_that_changes_tau_less(monkeypatch):
    # The passes of one full-batch e_step are the calls with one more pass
    # each; at TOL_TAU the call stops after the first pass whose max-abs
    # change is below it, however many passes TAU_INNER_MAX allows.
    net, _, params = planted_network(sizes=(40, 35, 30), seed=5)
    params = shrunk_params(params, 0.01)
    state = soft_state(net.n, 3, 5)
    tol = 1e-2
    passes = [state.tau]
    while len(passes) < 2 or np.max(np.abs(passes[-1] - passes[-2])) >= tol:
        full_batch_passes(monkeypatch, len(passes))
        passes.append(e_step(net, params, state))
    assert len(passes) > 3
    full_batch_passes(monkeypatch, 50, tol)
    assert np.array_equal(e_step(net, params, state), passes[-1])
