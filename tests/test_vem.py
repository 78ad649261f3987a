import itertools
import math
import sys

import numpy as np
import pytest

import sbanm
from sbanm import (
    BlockParams,
    FitConfig,
    ModelParams,
    MultilayerNetwork,
    NoiseParams,
    VariationalState,
    e_step,
    elbo,
    fit,
    m_step_alpha,
    m_step_block,
    m_step_noise,
)
from sbanm.errors import DataError, NumericalError
from sbanm.model import EPS_PROB, clamp_rho, pair_moments
from sbanm.vem import TAU_INNER_MAX
from sbanm.rng import substream

from conftest import offset_planted_network, planted_network
from reference import log_density, log_density_batch, pairs_to_square


def constant_network(n, K, value):
    return MultilayerNetwork(n=n, K=K, weights=np.full((n * (n - 1) // 2, K), value))


def soft_state(n, Q, seed, P=None):
    rng = substream(seed, "soft-state")
    tau = rng.uniform(0.05, 1.0, size=(n, Q))
    tau /= tau.sum(axis=1, keepdims=True)
    if P is None:
        P = rng.uniform(0.2, 0.8, size=Q)
    return VariationalState(tau=tau, P=np.asarray(P, dtype=float))


def twin_block_params(K=1, Q=2, mu=0.0, var=1.0):
    """Q identical signal blocks matching the noise law."""
    blocks = [BlockParams(mu=[mu] * K, var=[var] * K, rho=0.0) for _ in range(Q)]
    return ModelParams(
        blocks=blocks,
        noise=NoiseParams(mu=[mu] * K, var=[var] * K),
        alpha=np.full(Q, 1.0 / Q),
    )


def fit_e_step(net, params, state):
    """Memberships from the fit's full-batch E-step at the default settings."""
    cfg = FitConfig(Q=state.Q)
    return e_step(
        net, params, state, inner=TAU_INNER_MAX, damping=cfg.damping, tol=cfg.tol_tau
    )[0]


def p_update(net, params, state):
    """Signal probabilities at the state's memberships: the E-step's P
    update with no tau pass."""
    return e_step(net, params, state, inner=0)[1]


class TestEstimateTau:
    def test_q1_all_ones(self):
        net = constant_network(5, 1, 0.3)
        params = twin_block_params(Q=1)
        state = VariationalState(tau=np.ones((5, 1)), P=[0.5])
        tau = fit_e_step(net, params, state)
        assert np.array_equal(tau, np.ones((5, 1)))

    def test_symmetric_instance_keeps_uniform_tau(self):
        net = constant_network(6, 1, 0.7)
        params = twin_block_params(Q=2, mu=0.7)
        state = VariationalState(tau=np.full((6, 2), 0.5), P=[0.5, 0.5])
        tau = fit_e_step(net, params, state)
        assert np.max(np.abs(tau - 0.5)) < 1e-12

    def test_rows_stay_stochastic(self, planted60):
        net, _, params = planted60
        state = soft_state(net.n, 3, seed=1, P=[0.6, 0.7, 0.8])
        tau = fit_e_step(net, params, state)
        assert np.max(np.abs(tau.sum(axis=1) - 1.0)) < 1e-10

    def test_divergence_reported(self):
        w = np.full((3, 1), 1e200)
        net = MultilayerNetwork(n=3, K=1, weights=w)
        params = twin_block_params(Q=2, var=1e-6)
        state = VariationalState(tau=np.full((3, 2), 0.5), P=[0.5, 0.5])
        with pytest.raises(NumericalError, match="tau update diverged"):
            fit_e_step(net, params, state)

    def test_brute_force_complete_likelihood_maximizer(self):
        # 12 nodes, noise block + one well-separated signal block.
        params = ModelParams(
            blocks=[
                BlockParams(mu=[0.0, 0.0], var=[1.0, 1.0], rho=0.0),
                BlockParams(mu=[5.0, 6.0], var=[0.5, 0.8], rho=0.3),
            ],
            noise=NoiseParams(mu=[0.0, 0.0], var=[1.0, 1.0]),
            alpha=[0.5, 0.5],
            noise_block=0,
        )
        net, truth = sbanm.gen_network(params, np.array([6, 6]), substream(3, "n12"))
        ld = {
            "sig": np.array(
                [log_density(x, params.blocks[1].mu, params.blocks[1].covariance())
                 for x in net.weights]
            ),
            "noise": np.array(
                [log_density(x, params.noise.mu, params.noise.covariance())
                 for x in net.weights]
            ),
        }
        iu, ju = np.triu_indices(net.n, 1)

        def complete_ll(z):
            z = np.asarray(z)
            same_sig = (z[iu] == 1) & (z[ju] == 1)
            return ld["sig"][same_sig].sum() + ld["noise"][~same_sig].sum()

        best = max(itertools.product([0, 1], repeat=12), key=complete_ll)
        result = fit(net, FitConfig(Q=2, seed=3))
        assert sbanm.ari(np.asarray(best), result.hard_membership) == pytest.approx(1.0)
        assert sbanm.ari(truth, result.hard_membership) == pytest.approx(1.0)


class TestEstimateP:
    def test_noise_like_block_gets_lowest_P(self):
        # Three blocks; block 2's parameters equal the noise law exactly.
        rng = substream(4, "pnet")
        params = ModelParams(
            blocks=[
                BlockParams(mu=[3.0], var=[0.5], rho=0.0),
                BlockParams(mu=[-3.0], var=[0.5], rho=0.0),
                BlockParams(mu=[0.0], var=[1.0], rho=0.0),
            ],
            noise=NoiseParams(mu=[0.0], var=[1.0]),
            alpha=[1 / 3, 1 / 3, 1 / 3],
        )
        net, _ = sbanm.gen_network(
            ModelParams(
                blocks=params.blocks,
                noise=params.noise,
                alpha=params.alpha,
                noise_block=2,
            ),
            np.array([8, 8, 8]),
            rng,
        )
        tau = np.zeros((24, 3))
        tau[np.arange(24), np.repeat([0, 1, 2], 8)] = 1.0
        state = VariationalState(tau=tau, P=[0.5, 0.5, 0.5])
        P = p_update(net, params, state)
        assert np.argmin(P) == 2

    def test_saturation_at_overwhelming_gap(self):
        # One pair with an enormous signal-noise gap for block 0.
        params = ModelParams(
            blocks=[
                BlockParams(mu=[200.0], var=[1.0], rho=0.0),
                BlockParams(mu=[0.0], var=[1.0], rho=0.0),
            ],
            noise=NoiseParams(mu=[0.0], var=[1.0]),
            alpha=[0.5, 0.5],
        )
        net = constant_network(4, 1, 200.0)
        tau = np.zeros((4, 2))
        tau[:2, 0] = 1.0
        tau[2:, 1] = 1.0
        state = VariationalState(tau=tau, P=[0.5, 0.5])
        P = p_update(net, params, state)
        assert P[0] == 1.0 - EPS_PROB

    def test_matches_scalar_hand_computation(self):
        # K=1, sd 1 everywhere: f_sig - f_noise = mu*x - mu^2/2, so the
        # block gaps are exactly +2 and -2 by construction.
        params = ModelParams(
            blocks=[
                BlockParams(mu=[1.0], var=[1.0], rho=0.0),
                BlockParams(mu=[1.0], var=[1.0], rho=0.0),
            ],
            noise=NoiseParams(mu=[0.0], var=[1.0]),
            alpha=[0.5, 0.5],
        )
        weights = np.zeros((6, 1))
        weights[0, 0] = 2.5        # pair (0,1): gap for block 0 = 2.5 - 0.5 = +2
        weights[5, 0] = -1.5       # pair (2,3): gap for block 1 = -1.5 - 0.5 = -2
        net = MultilayerNetwork(n=4, K=1, weights=weights)
        tau = np.zeros((4, 2))
        tau[:2, 0] = 1.0
        tau[2:, 1] = 1.0
        state = VariationalState(tau=tau, P=[0.5, 0.5])
        P = p_update(net, params, state)

        def sigmoid(v):
            return 1.0 / (1.0 + math.exp(-v))

        c = math.log((1 - 0.5) / 0.5)
        nhat = np.array([sigmoid(-2.0 + c), sigmoid(2.0 + c)])
        expected = 1.0 - nhat / nhat.sum()
        assert np.allclose(P, expected, atol=1e-9)


class TestMStepAlpha:
    def test_hard_blocks(self):
        tau = np.zeros((10, 2))
        tau[:3, 0] = 1.0
        tau[3:, 1] = 1.0
        state = VariationalState(tau=tau, P=[0.5, 0.5])
        assert np.allclose(m_step_alpha(state), [0.3, 0.7])

    def test_uniform(self):
        state = VariationalState(tau=np.full((8, 4), 0.25), P=[0.5] * 4)
        assert np.allclose(m_step_alpha(state), 0.25)

    def test_sums_to_one(self):
        state = soft_state(9, 3, seed=5)
        assert m_step_alpha(state).sum() == pytest.approx(1.0, abs=1e-12)


def oracle_block_params(net, state, q, noise):
    """Direct double-sum oracle over ordered pairs i != j."""
    n, K = net.n, net.K
    X = pairs_to_square(net.n, net.weights)
    tau, P_q = state.tau, state.P[q]
    wsum = 0.0
    mean = np.zeros(K)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            w = tau[i, q] * tau[j, q]
            wsum += w
            mean += w * X[i, j]
    mean /= wsum
    mu = P_q * mean + (1 - P_q) * noise.mu
    var = np.zeros(K)
    cross = np.zeros((K, K))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            w = tau[i, q] * tau[j, q]
            dev = X[i, j] - mu
            var += w * dev**2
            cross += w * np.outer(dev, dev)
    var = P_q * (var / wsum) + (1 - P_q) * noise.var
    var = np.maximum(var, 1e-8)
    best = -np.inf
    for h in range(K):
        for k in range(h + 1, K):
            best = max(best, P_q * (cross[h, k] / wsum) / math.sqrt(var[h] * var[k]))
    rho = clamp_rho(best, K) if K > 1 else 0.0
    return mu, var, rho


class TestMStepBlock:
    def test_hard_tau_full_signal_gives_arithmetic_mean(self):
        net, labels, params = planted_network(sizes=(5, 4, 3), seed=8)
        tau = np.zeros((12, 3))
        tau[np.arange(12), labels] = 1.0
        state = VariationalState(tau=tau, P=[1 - EPS_PROB] * 3)
        got = m_step_block(net, state, 1, params.noise, pair_moments(net, state.tau))
        iu, ju = np.triu_indices(net.n, 1)
        in_block = (labels[iu] == 1) & (labels[ju] == 1)
        assert np.allclose(got.mu, net.weights[in_block].mean(axis=0), atol=1e-8)

    def test_zero_signal_probability_returns_noise(self):
        net, labels, params = planted_network(sizes=(5, 4, 3), seed=9)
        tau = np.zeros((12, 3))
        tau[np.arange(12), labels] = 1.0
        state = VariationalState(tau=tau, P=[EPS_PROB] * 3)
        got = m_step_block(net, state, 0, params.noise, pair_moments(net, state.tau))
        assert np.allclose(got.mu, params.noise.mu, atol=1e-8)
        assert np.allclose(got.var, params.noise.var, atol=1e-7)
        assert abs(got.rho) < 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_double_sum_oracle(self, seed):
        rng = substream(seed, "mblock")
        net = MultilayerNetwork(n=8, K=3, weights=rng.normal(size=(28, 3)))
        state = soft_state(8, 2, seed=seed)
        noise = NoiseParams(mu=rng.normal(size=3), var=rng.uniform(0.5, 2.0, size=3))
        got = m_step_block(net, state, 0, noise, pair_moments(net, state.tau))
        mu, var, rho = oracle_block_params(net, state, 0, noise)
        assert np.allclose(got.mu, mu, atol=1e-10)
        assert np.allclose(got.var, var, atol=1e-10)
        assert got.rho == pytest.approx(rho, abs=1e-10)

    def test_degenerate_block_resets_to_noise(self):
        net, _, params = planted_network(sizes=(5, 4, 3), seed=10)
        tau = np.full((12, 3), EPS_PROB)
        tau[:, 0] = 1.0 - 2 * EPS_PROB
        state = VariationalState(tau=tau, P=[0.5] * 3)
        got = m_step_block(net, state, 2, params.noise, pair_moments(net, state.tau))
        assert np.array_equal(got.mu, params.noise.mu)
        assert got.rho == 0.0


def oracle_noise_params(net, state, psi):
    """Direct double-sum oracle for the ambient-noise update."""
    n, K, Q = net.n, net.K, state.Q
    X = pairs_to_square(net.n, net.weights)
    tau, P = state.tau, state.P

    def sums(mu):
        cross_w = within_w = 0.0
        cross_s = np.zeros(K)
        within_s = np.zeros(K)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                val = X[i, j] if mu is None else (X[i, j] - mu) ** 2
                for q in range(Q):
                    for l in range(Q):
                        if q != l:
                            w = tau[i, q] * tau[j, l]
                            cross_w += w
                            cross_s += w * val
                for q in range(Q):
                    ww = tau[i, q] * tau[j, q] * (1 - P[q])
                    within_w += ww
                    within_s += ww * val
        return cross_s / cross_w, within_s / within_w

    cross_mean, within_mean = sums(None)
    mu = psi * cross_mean + (1 - psi) * within_mean
    cross_var, within_var = sums(mu)
    var = np.maximum(psi * cross_var + (1 - psi) * within_var, 1e-8)
    return mu, var


class TestMStepNoise:
    def test_hard_tau_all_signal_reduces_to_cross_mean(self):
        # Q=2, hard tau, P=(1,1): within-block side has zero mass, so the
        # psi-weighting normalizes out and the update is the cross mean.
        rng = substream(11, "noise4")
        net = MultilayerNetwork(n=4, K=2, weights=rng.normal(size=(6, 2)))
        tau = np.zeros((4, 2))
        tau[:2, 0] = 1.0
        tau[2:, 1] = 1.0
        state = VariationalState(tau=tau, P=[1 - EPS_PROB] * 2)
        got = m_step_noise(net, state, pair_moments(net, state.tau))
        iu, ju = np.triu_indices(net.n, 1)
        cross = (iu < 2) != (ju < 2)
        assert np.allclose(got.mu, net.weights[cross].mean(axis=0), atol=1e-7)

    def test_constant_edges(self):
        net = constant_network(6, 2, 3.25)
        state = soft_state(6, 2, seed=12)
        got = m_step_noise(net, state, pair_moments(net, state.tau))
        assert np.allclose(got.mu, 3.25, atol=1e-12)
        assert np.allclose(got.var, 1e-8)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_double_sum_oracle(self, seed):
        rng = substream(seed, "mnoise")
        net = MultilayerNetwork(n=7, K=2, weights=rng.normal(size=(21, 2)))
        state = soft_state(7, 3, seed=seed)
        got = m_step_noise(net, state, pair_moments(net, state.tau))
        mu, var = oracle_noise_params(net, state, sbanm.psi(3))
        assert np.allclose(got.mu, mu, atol=1e-10)
        assert np.allclose(got.var, var, atol=1e-10)

    def test_q1_uses_the_within_block_side_alone(self):
        # Q=1: every pair lies in the one block, so the cross side has no
        # mass and the update is the (1-P)-weighted within-block moments.
        rng = substream(5, "mnoise-q1")
        net = MultilayerNetwork(n=6, K=2, weights=rng.normal(size=(15, 2)))
        state = VariationalState(tau=np.ones((6, 1)), P=[0.3])
        moments = pair_moments(net, state.tau)
        assert moments[1, 0] == 0.0
        got = m_step_noise(net, state, moments)
        w = np.full(net.n_pairs, 1.0 - 0.3)
        mu = w @ net.weights / w.sum()
        var = w @ (net.weights - mu) ** 2 / w.sum()
        assert np.allclose(got.mu, mu, atol=1e-12)
        assert np.allclose(got.var, var, atol=1e-12)


class TestElbo:
    def test_scalar_hand_computation(self):
        # n=2, K=1, Q=1: one pair, all terms computable with scalars.
        x, mu, var = 0.4, -0.2, 1.5
        net = MultilayerNetwork(n=2, K=1, weights=np.array([[x]]))
        params = ModelParams(
            blocks=[BlockParams(mu=[mu], var=[var], rho=0.0)],
            noise=NoiseParams(mu=[mu], var=[var]),
            alpha=[1.0],
        )
        P = 0.25
        state = VariationalState(tau=np.ones((2, 1)), P=[P])
        ld = -0.5 * (x - mu) ** 2 / var - 0.5 * math.log(var) - 0.5 * math.log(2 * math.pi)
        eps = EPS_PROB
        expected = (
            P * ld + (1 - P) * ld                    # likelihood, one pair
            + 0.0                                    # alpha term: log(1) = 0
            - 0.0                                    # tau entropy: 1*log(1)
            - (P * math.log(P) + (1 - P) * math.log(1 - P))
            + 2 * (P * math.log(eps) + (1 - P) * math.log(1 - eps))
        )
        got = elbo(net, params, state, pair_moments(net, state.tau))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_zero_entropy_limit_equals_complete_data_loglik(self):
        net, labels, params = planted_network(sizes=(6, 5, 4), seed=13)
        tau = np.zeros((15, 3))
        tau[np.arange(15), labels] = 1.0
        P = np.array([EPS_PROB, 1 - EPS_PROB, 1 - EPS_PROB])
        state = VariationalState(tau=tau, P=P)
        iu, ju = np.triu_indices(net.n, 1)
        complete = 0.0
        for p in range(net.n_pairs):
            i, j = iu[p], ju[p]
            if labels[i] == labels[j] and labels[i] != 0:
                b = params.blocks[labels[i]]
                complete += log_density(net.weights[p], b.mu, b.covariance())
            else:
                complete += log_density(
                    net.weights[p], params.noise.mu, params.noise.covariance()
                )
        counts = np.bincount(labels, minlength=3)
        prior = float(counts @ np.log(params.alpha))
        psi_c = min(max(params.psi, EPS_PROB), 1 - EPS_PROB)
        hier = float(
            counts @ (P * math.log(psi_c) + (1 - P) * math.log(1 - psi_c))
        )
        got = elbo(net, params, state, pair_moments(net, state.tau))
        assert got == pytest.approx(complete + prior + hier, rel=1e-6)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_offset_network_matches_per_pair_reference(self, seed):
        # Memberships near the planted ones, where the likelihood is a sum
        # of near-cancelling densities; 4950 pairs span two moment tiles.
        net, labels, params = offset_planted_network(seed=seed)
        tau = np.full((net.n, 3), 0.05)
        tau[np.arange(net.n), labels] = 0.9
        P = np.array([0.1, 0.9, 0.8])
        state = VariationalState(tau=tau, P=P)
        iu, ju = np.triu_indices(net.n, 1)
        w = tau[iu] * tau[ju]
        ld_noise = log_density_batch(net.weights, params.noise.mu, params.noise.covariance())
        parts = [np.maximum(1.0 - w.sum(axis=1), 0.0) * ld_noise]
        for q, b in enumerate(params.blocks):
            ld = log_density_batch(net.weights, b.mu, b.covariance())
            parts.append(w[:, q] * (P[q] * ld + (1.0 - P[q]) * ld_noise))
        psi = params.psi
        rest = (
            np.sum(tau @ np.log(params.alpha))
            - np.sum(tau * np.log(tau))
            - np.sum(P * np.log(P) + (1 - P) * np.log(1 - P))
            + tau.sum(axis=0) @ (P * math.log(psi) + (1 - P) * math.log(1 - psi))
        )
        expected = math.fsum(np.concatenate(parts)) + rest
        got = elbo(net, params, state, pair_moments(net, state.tau))
        assert got == pytest.approx(expected, rel=1e-12, abs=0)


class TestFit:
    def test_exp2_instance_recovers_exactly(self):
        params, sizes = sbanm.experiment2_spec()
        net, labels = sbanm.gen_network(params, sizes, substream(7, "network", 0))
        result = fit(net, FitConfig(Q=4, seed=7))
        assert result.converged
        assert sbanm.exact_recovery(labels, result.hard_membership)
        assert result.params.noise_block is not None
        nb = result.params.blocks[result.params.noise_block]
        assert nb.rho == 0.0
        assert np.array_equal(nb.mu, result.params.noise.mu)

    def test_trace_non_decreasing_on_planted_instances(self):
        for seed in range(5):
            net, _, _ = planted_network(seed=seed)
            result = fit(net, FitConfig(Q=3, seed=seed))
            diffs = np.diff(result.elbo_trace)
            assert diffs.size == 0 or diffs.min() > -1e-6

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-9])
    @pytest.mark.parametrize("field", ["tol_tau", "tol_elbo"])
    def test_tolerance_must_be_finite_and_positive(self, field, value):
        with pytest.raises(DataError, match="tolerances must be finite and positive"):
            FitConfig(Q=2, **{field: value})

    def test_q1_collapses_to_global_noise(self):
        net, _, _ = planted_network(sizes=(8, 7, 5), seed=14)
        result = fit(net, FitConfig(Q=1, seed=0))
        assert result.params.noise_block == 0
        assert np.allclose(
            result.params.noise.mu, net.weights.mean(axis=0), atol=1e-6
        )

    @pytest.mark.parametrize(
        "rows, cols", [(0, 3), (-1, 4)], ids=["too-few-blocks", "too-few-nodes"]
    )
    def test_init_state_must_be_n_by_Q(self, rows, cols):
        net, _, _ = planted_network(seed=15)
        state = soft_state(net.n + rows, cols, seed=15)
        shape = rf"\({net.n + rows}, {cols}\)"
        with pytest.raises(DataError, match=f"init_state tau is {shape}, need \\({net.n}, 4\\)"):
            fit(net, FitConfig(Q=4, seed=15), init_state=state)

    def test_initial_column_permutation_permutes_blocks(self):
        net, _, _ = planted_network(seed=15)
        state = sbanm.spectral_init(net, 3, 4)
        perm = [2, 0, 1]
        permuted = VariationalState(tau=state.tau[:, perm], P=state.P[perm])
        a = fit(net, FitConfig(Q=3, seed=4), init_state=state)
        b = fit(net, FitConfig(Q=3, seed=4), init_state=permuted)
        assert np.allclose(b.state.tau, a.state.tau[:, perm], atol=1e-9)
        assert b.elbo == pytest.approx(a.elbo, abs=1e-8)
        assert perm[b.params.noise_block] == a.params.noise_block

    def test_all_signal_mean_matches_classic_weighted_sbm_m_step(self):
        # With P at its upper clamp the block mean reduces to the plain
        # tau-weighted edge mean (the classical weighted-SBM update).
        net, _, params = planted_network(sizes=(6, 5, 4), seed=16)
        state = soft_state(net.n, 3, seed=16, P=[1 - EPS_PROB] * 3)
        iu, ju = np.triu_indices(net.n, 1)
        for q in range(3):
            w = state.tau[iu, q] * state.tau[ju, q]
            classic = (w @ net.weights) / w.sum()
            got = m_step_block(net, state, q, params.noise, pair_moments(net, state.tau))
            assert np.allclose(got.mu, classic, atol=1e-8)

    def test_fit_and_icl_make_one_moment_pass_per_m_step(self, planted60, monkeypatch):
        # One moment pass for the bootstrap M-step and one per outer
        # iteration (shared by that iteration's M-step and ELBO, the last
        # also by the final ELBO); one gap pass per E-step; one moment
        # pass for the ICL.
        net, _, _ = planted60
        calls = {}

        def count(original, key):
            calls[key] = 0

            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name == "sbanm" or name.startswith("sbanm."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, counted)

        count(sbanm.model.pair_moments, "pair_moments")
        count(sbanm.estep._gap_squares, "gaps")
        result = fit(net, FitConfig(Q=3, seed=2))
        T = len(result.elbo_trace)
        assert calls == {"pair_moments": T + 1, "gaps": T}
        sbanm.icl(net, result)
        assert calls == {"pair_moments": T + 2, "gaps": T}

    def test_hard_membership_is_row_argmax(self, planted60):
        net, _, _ = planted60
        result = fit(net, FitConfig(Q=3, seed=2))
        assert np.array_equal(
            result.hard_membership, np.argmax(result.state.tau, axis=1)
        )
