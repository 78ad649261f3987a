import dataclasses
import itertools
import math
import runpy
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbanm
from sbanm import (
    BlockParams,
    FitConfig,
    ModelParams,
    MultilayerNetwork,
    VariationalState,
    e_step,
    elbo,
    fit,
    m_step_alpha,
    m_step_block,
    m_step_noise,
)
from sbanm.errors import DataError, NumericalError
from sbanm.model import EPS_PROB, clip_prob, law_coefficients, noise_moments, pair_moments
from sbanm.svi import SviConfig, averaging_weight, subsample_nodes
from sbanm.vem import (
    _MASS_FLOOR,
    TAU_DAMPING,
    TOL_ELBO,
    TOL_TAU,
    _m_step,
    block_gaps,
    signal_probs,
)
from sbanm.rng import substream

from conftest import offset_planted_network, planted_network
from reference import (
    law_log_densities,
    log_density,
    log_density_batch,
    log_evidence,
    pairs_to_square,
)


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
        noise=BlockParams(mu=[mu] * K, var=[var] * K, rho=0.0),
        alpha=np.full(Q, 1.0 / Q),
    )


def overflow_instance():
    """Three nodes whose weights sit 1e203 standard deviations from every
    law's mean, so the laws' law_coefficients overflow."""
    net = MultilayerNetwork(n=3, K=1, weights=np.full((3, 1), 1e200))
    params = twin_block_params(Q=2, var=1e-6)
    state = VariationalState(tau=np.full((3, 2), 0.5), P=[0.5, 0.5])
    return net, params, state


def p_update(net, params, tau):
    """The fit's P update at memberships tau: the block gaps read off the
    moment pass at tau."""
    return signal_probs(block_gaps(law_coefficients(params, net.center), pair_moments(net, tau)))


class TestEstimateTau:
    def test_tau_damping_value(self, planted60):
        # A one-iteration fit's tau is the full-batch E-step at TAU_DAMPING.
        assert TAU_DAMPING == 0.7
        net, _, _ = planted60
        state = soft_state(net.n, 3, seed=1)
        params = _m_step(net, state, pair_moments(net, state.tau))
        result = sbanm.fit(net, FitConfig(Q=3, max_outer=1), init_state=state)
        assert np.array_equal(result.state.tau, e_step(net, params, state))

    def test_q1_all_ones(self):
        net = constant_network(5, 1, 0.3)
        params = twin_block_params(Q=1)
        state = VariationalState(tau=np.ones((5, 1)), P=[0.5])
        tau = e_step(net, params, state)
        assert np.array_equal(tau, np.ones((5, 1)))

    def test_symmetric_instance_keeps_uniform_tau(self):
        net = constant_network(6, 1, 0.7)
        params = twin_block_params(Q=2, mu=0.7)
        state = VariationalState(tau=np.full((6, 2), 0.5), P=[0.5, 0.5])
        tau = e_step(net, params, state)
        assert np.max(np.abs(tau - 0.5)) < 1e-12

    def test_rows_stay_stochastic(self, planted60):
        net, _, params = planted60
        state = soft_state(net.n, 3, seed=1, P=[0.6, 0.7, 0.8])
        tau = e_step(net, params, state)
        assert np.max(np.abs(tau.sum(axis=1) - 1.0)) < 1e-10

    def test_divergence_reported(self):
        net, params, state = overflow_instance()
        with pytest.raises(NumericalError, match="tau update diverged"):
            e_step(net, params, state)

    def test_brute_force_complete_likelihood_maximizer(self):
        # 12 nodes, noise block + one well-separated signal block.
        params = ModelParams(
            blocks=[
                BlockParams(mu=[0.0, 0.0], var=[1.0, 1.0], rho=0.0),
                BlockParams(mu=[5.0, 6.0], var=[0.5, 0.8], rho=0.3),
            ],
            noise=BlockParams(mu=[0.0, 0.0], var=[1.0, 1.0], rho=0.0),
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
            noise=BlockParams(mu=[0.0], var=[1.0], rho=0.0),
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
        P = p_update(net, params, tau)
        assert np.argmin(P) == 2

    def test_saturation_at_overwhelming_gap(self):
        # One pair with an enormous signal-noise gap for block 0.
        params = ModelParams(
            blocks=[
                BlockParams(mu=[200.0], var=[1.0], rho=0.0),
                BlockParams(mu=[0.0], var=[1.0], rho=0.0),
            ],
            noise=BlockParams(mu=[0.0], var=[1.0], rho=0.0),
            alpha=[0.5, 0.5],
        )
        net = constant_network(4, 1, 200.0)
        tau = np.zeros((4, 2))
        tau[:2, 0] = 1.0
        tau[2:, 1] = 1.0
        P = p_update(net, params, tau)
        assert P[0] == 1.0 - EPS_PROB

    def test_overflowing_coefficients_reported(self):
        net, params, state = overflow_instance()
        with pytest.raises(NumericalError, match="non-finite block gap"):
            p_update(net, params, state.tau)

    def test_matches_scalar_hand_computation(self):
        # K=1, sd 1 everywhere: f_sig - f_noise = mu*x - mu^2/2, so the
        # block gaps are exactly +2 and -2 by construction.
        params = ModelParams(
            blocks=[
                BlockParams(mu=[1.0], var=[1.0], rho=0.0),
                BlockParams(mu=[1.0], var=[1.0], rho=0.0),
            ],
            noise=BlockParams(mu=[0.0], var=[1.0], rho=0.0),
            alpha=[0.5, 0.5],
        )
        weights = np.zeros((6, 1))
        weights[0, 0] = 2.5        # pair (0,1): gap for block 0 = 2.5 - 0.5 = +2
        weights[5, 0] = -1.5       # pair (2,3): gap for block 1 = -1.5 - 0.5 = -2
        net = MultilayerNetwork(n=4, K=1, weights=weights)
        tau = np.zeros((4, 2))
        tau[:2, 0] = 1.0
        tau[2:, 1] = 1.0
        P = p_update(net, params, tau)

        # The posterior over which block is noise is softmax(-gaps).
        nhat = np.array([math.exp(-2.0), math.exp(2.0)])
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


def oracle_block_params(net, state, q):
    """Direct double-sum oracle over ordered pairs i != j of the ELBO
    maximiser for block q."""
    n, K = net.n, net.K
    X = pairs_to_square(net.n, net.weights)
    tau = state.tau
    wsum = 0.0
    mu = np.zeros(K)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            w = tau[i, q] * tau[j, q]
            wsum += w
            mu += w * X[i, j]
    mu /= wsum
    cross = np.zeros((K, K))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dev = X[i, j] - mu
            cross += tau[i, q] * tau[j, q] * np.outer(dev, dev)
    cross /= wsum
    var = np.maximum(np.diag(cross), 1e-8)
    best = -np.inf
    for h in range(K):
        for k in range(h + 1, K):
            best = max(best, cross[h, k] / math.sqrt(var[h] * var[k]))
    rho = min(max(best, 0.0), 1.0 - 1e-6) if K > 1 else 0.0
    return mu, var, rho


class TestMStepBlock:
    def test_hard_tau_full_signal_gives_arithmetic_mean(self):
        net, labels, params = planted_network(sizes=(5, 4, 3), seed=8)
        tau = np.zeros((12, 3))
        tau[np.arange(12), labels] = 1.0
        state = VariationalState(tau=tau, P=[1 - EPS_PROB] * 3)
        got = m_step_block(net, 1, params.noise, pair_moments(net, state.tau))
        iu, ju = np.triu_indices(net.n, 1)
        in_block = (labels[iu] == 1) & (labels[ju] == 1)
        assert np.allclose(got.mu, net.weights[in_block].mean(axis=0), atol=1e-8)

    def test_signal_probability_leaves_the_block_unchanged(self):
        # P_q scales block q's whole likelihood term, so the block's
        # maximiser is the same for every P_q; only the noise law moves.
        net, labels, _ = planted_network(sizes=(5, 4, 3), seed=9)
        tau = np.zeros((12, 3))
        tau[np.arange(12), labels] = 1.0
        moments = pair_moments(net, tau)
        first, *others = [
            _m_step(net, VariationalState(tau=tau, P=[P_0, 0.5, 0.5]), moments)
            for P_0 in (EPS_PROB, 0.5, 1 - EPS_PROB)
        ]
        for other in others:
            assert not np.allclose(other.noise.mu, first.noise.mu)
            for got, want in zip(other.blocks, first.blocks):
                assert np.array_equal(got.mu, want.mu)
                assert np.array_equal(got.var, want.var)
                assert got.rho == want.rho

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_double_sum_oracle(self, seed):
        rng = substream(seed, "mblock")
        net = MultilayerNetwork(n=8, K=3, weights=rng.normal(size=(28, 3)))
        state = soft_state(8, 2, seed=seed)
        noise = BlockParams(mu=rng.normal(size=3), var=rng.uniform(0.5, 2.0, size=3), rho=0.0)
        got = m_step_block(net, 0, noise, pair_moments(net, state.tau))
        mu, var, rho = oracle_block_params(net, state, 0)
        assert np.allclose(got.mu, mu, atol=1e-10)
        assert np.allclose(got.var, var, atol=1e-10)
        assert got.rho == pytest.approx(rho, abs=1e-10)

    def test_degenerate_block_resets_to_noise(self):
        net, _, params = planted_network(sizes=(5, 4, 3), seed=10)
        tau = np.full((12, 3), EPS_PROB)
        tau[:, 0] = 1.0 - 2 * EPS_PROB
        state = VariationalState(tau=tau, P=[0.5] * 3)
        got = m_step_block(net, 2, params.noise, pair_moments(net, state.tau))
        assert np.array_equal(got.mu, params.noise.mu)
        assert got.rho == 0.0

    def test_degenerate_block_is_the_m_step_noise_law(self):
        # The reset hands back the noise law itself, not a copy, so the
        # M-step's block list holds the law it fitted for the noise.
        net, _, _ = planted_network(sizes=(5, 4, 3), seed=10)
        tau = np.full((12, 3), EPS_PROB)
        tau[:, 0] = 1.0 - 2 * EPS_PROB
        state = VariationalState(tau=tau, P=[0.5] * 3)
        moments = pair_moments(net, state.tau)
        noise = m_step_noise(net, state, moments)
        assert noise.rho == 0.0
        assert m_step_block(net, 2, noise, moments) is noise
        params = _m_step(net, state, moments)
        assert [b is params.noise for b in params.blocks] == [False, True, True]


def oracle_noise_params(net, state):
    """Direct double-sum oracle of the ELBO maximiser for the noise law:
    pair (i, j) has weight sum_{q != l} tau_iq tau_jl (cross-block) plus
    sum_q tau_iq tau_jq (1 - P_q) (the noise share of each block)."""
    n, K, Q = net.n, net.K, state.Q
    X = pairs_to_square(net.n, net.weights)
    tau, P = state.tau, state.P
    W = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for q in range(Q):
                for l in range(Q):
                    if q != l:
                        W[i, j] += tau[i, q] * tau[j, l]
                W[i, j] += tau[i, q] * tau[j, q] * (1 - P[q])
    mu = np.zeros(K)
    for i in range(n):
        for j in range(n):
            mu += W[i, j] * X[i, j]
    mu /= W.sum()
    var = np.zeros(K)
    for i in range(n):
        for j in range(n):
            var += W[i, j] * (X[i, j] - mu) ** 2
    return mu, np.maximum(var / W.sum(), 1e-8)


class TestMStepNoise:
    def test_hard_tau_all_signal_reduces_to_cross_mean(self):
        # Q=2, hard tau, P=(1,1): the within-block pairs have (almost) no
        # noise weight, so the update is the cross-block mean.
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
        mu, var = oracle_noise_params(net, state)
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

    def test_massless_noise_reported(self):
        # All nodes in block 0 with P_0 at its upper clamp: the noise
        # weights sum to 6 pairs times EPS_PROB, below the mass floor.
        net = constant_network(4, 1, 0.5)
        tau = np.zeros((4, 2))
        tau[:, 0] = 1.0
        state = VariationalState(tau=tau, P=[1 - EPS_PROB, 0.5])
        moments = pair_moments(net, state.tau)
        assert 0 < noise_moments(moments, state.P)[0] < _MASS_FLOOR
        with pytest.raises(NumericalError, match="noise estimate undefined"):
            m_step_noise(net, state, moments)


def nudged(params, target, index, step):
    """A copy of params with one value moved by step: two entries of alpha
    (moved in opposite directions, so it stays a distribution), or one
    entry of the noise law's or of a block's mu or var."""
    blocks, noise, alpha = list(params.blocks), params.noise, params.alpha.copy()
    Q, K = params.Q, params.K
    if target == "alpha":
        alpha[index % Q] += step
        alpha[(index + 1) % Q] -= step
        return ModelParams(blocks=blocks, noise=noise, alpha=alpha)
    owner, field = target.split(".")
    law = noise if owner == "noise" else blocks[index % Q]
    values = {"mu": law.mu.copy(), "var": law.var.copy()}
    values[field][index % K] += step
    if owner == "noise":
        noise = BlockParams(**values, rho=0.0)
    else:
        blocks[index % Q] = BlockParams(**values, rho=law.rho)
    return ModelParams(blocks=blocks, noise=noise, alpha=alpha)


class TestMStepMaximisesElbo:
    # At fixed (tau, P) the M-step is the exact maximiser of the ELBO in
    # alpha and the noise law for any K, and in each block's mu and var
    # for K = 1 (for K > 1 the block variances and the shared correlation
    # are fitted by moments, not jointly maximised).
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.integers(1, 4),
        st.sampled_from(["alpha", "noise.mu", "noise.var", "block.mu", "block.var"]),
        st.integers(0, 11),
        st.sampled_from([-1e-3, 1e-3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_single_nudge_raises_the_elbo(self, seed, K, Q, target, index, step):
        if target.startswith("block"):
            K = 1
        rng = substream(seed, "m-step-nudge")
        n = Q + 6
        loc, scale = rng.uniform(-3.0, 3.0, size=K), rng.uniform(0.5, 2.0, size=K)
        net = MultilayerNetwork(
            n=n, K=K, weights=loc + scale * rng.standard_normal((n * (n - 1) // 2, K))
        )
        state = soft_state(n, Q, seed=seed)
        moments = pair_moments(net, state.tau)
        params = _m_step(net, state, moments)
        best = elbo(net, params, state, moments)
        moved = elbo(net, nudged(params, target, index, step), state, moments)
        assert moved <= best + 1e-12 * abs(best)


class TestEStepMaximisesElbo:
    # The fit's P update is the exact maximiser of the ELBO over the
    # posterior N = 1 - P of which block is noise, at the E-step's tau and
    # parameters: moving a share of one entry of N to another keeps N on
    # the simplex and never raises the bound.  This holds after an SVI step
    # too, whose P is taken over all pairs at the blended tau.
    @given(
        st.integers(0, 2**32 - 1),
        # None is the full-batch step, t an SVI step.
        st.sampled_from([None, 0, 1, 2]),
        st.permutations(range(3)),
        st.sampled_from([1e-4, 1e-2, 0.5, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_simplex_nudge_of_the_noise_posterior_raises_the_elbo(
        self, seed, t, order, share
    ):
        net, _, _ = planted_network(sizes=(14, 13, 13), seed=seed)
        start = soft_state(net.n, 3, seed=seed)
        params = _m_step(net, start, pair_moments(net, start.tau))
        if t is None:
            tau = e_step(net, params, start)
        else:
            # SVI step t on a subsample of 15 + (t/(t+1))^2 * 40 nodes.
            nodes = subsample_nodes(t, SviConfig(a=15, seed=seed), net.n)
            tau = e_step(net, params, start, nodes, averaging_weight(t))
        moments = pair_moments(net, tau)
        P = signal_probs(block_gaps(law_coefficients(params, net.center), moments))
        best = elbo(net, params, VariationalState(tau=tau, P=P), moments)
        a, b = order[:2]
        N = 1.0 - P
        N[a] += share * N[b]
        N[b] -= share * N[b]
        nudged = VariationalState(tau=tau, P=np.clip(1.0 - N, EPS_PROB, 1 - EPS_PROB))
        assert elbo(net, params, nudged, moments) <= best + 1e-9 * abs(best)


class TestElbo:
    def test_scalar_hand_computation(self):
        # n=2, K=1, Q=1: one pair, all terms computable with scalars.
        x, mu, var = 0.4, -0.2, 1.5
        net = MultilayerNetwork(n=2, K=1, weights=np.array([[x]]))
        params = ModelParams(
            blocks=[BlockParams(mu=[mu], var=[var], rho=0.0)],
            noise=BlockParams(mu=[mu], var=[var], rho=0.0),
            alpha=[1.0],
        )
        P = 0.25
        state = VariationalState(tau=np.ones((2, 1)), P=[P])
        ld = -0.5 * (x - mu) ** 2 / var - 0.5 * math.log(var) - 0.5 * math.log(2 * math.pi)
        expected = (
            P * ld + (1 - P) * ld                    # likelihood, one pair
            + 0.0                                    # alpha term: log(1) = 0
            - 0.0                                    # tau entropy: 1*log(1)
            - (1 - P) * math.log(1 - P)              # noise entropy
            - math.log(1)                            # noise prior: 1/Q
        )
        got = elbo(net, params, state, pair_moments(net, state.tau))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_overflowing_coefficients_reported(self):
        net, params, state = overflow_instance()
        with pytest.raises(NumericalError, match="non-finite ELBO term: likelihood"):
            elbo(net, params, state, pair_moments(net, state.tau))

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
        # The noise label's prior 1/Q; its entropy vanishes in the limit.
        hier = -math.log(3)
        got = elbo(net, params, state, pair_moments(net, state.tau))
        assert got == pytest.approx(complete + prior + hier, rel=1e-6)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_offset_network_matches_per_pair_reference(self, seed, monkeypatch):
        # Memberships near the planted ones, where the likelihood is a sum
        # of near-cancelling densities; 4950 pairs span two moment tiles
        # of 4096.
        monkeypatch.setattr(sbanm.model, "PAIR_TILE", 4096)
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
        rest = (
            np.sum(tau @ np.log(params.alpha))
            - np.sum(tau * np.log(tau))
            - np.sum((1 - P) * np.log(1 - P))
            - math.log(3)
        )
        expected = math.fsum(np.concatenate(parts)) + rest
        got = elbo(net, params, state, pair_moments(net, state.tau))
        assert got == pytest.approx(expected, rel=1e-12, abs=0)


def random_laws(rng, K, Q):
    """Q random block laws, a random noise law and random proportions."""
    def law(rho):
        return BlockParams(mu=rng.normal(0, 1, K), var=rng.uniform(0.3, 2.0, K), rho=rho)

    blocks = [law(rng.uniform(-0.4, 0.8)) for _ in range(Q)]
    return ModelParams(blocks=blocks, noise=law(0.0), alpha=rng.dirichlet(np.ones(Q)))


def clamp_allowance(net, params, state):
    """How far the ELBO may exceed the evidence because P is clamped into
    [EPS_PROB, 1 - EPS_PROB]: N = 1 - P then leaves the simplex by at most
    EPS_PROB in each clamped entry, which moves block q's likelihood term
    P_q gap_q by at most EPS_PROB sum_{i<j} tau_iq tau_jq |f_q - f_noise|
    and its noise entropy by at most EPS_PROB log(1/EPS_PROB)."""
    f = law_log_densities(net, params)
    I, J = np.triu_indices(net.n, 1)
    tau, P = state.tau, state.P
    per_block = np.einsum("pq,qp->q", tau[I] * tau[J], np.abs(f[1:] - f[0]))
    clamped = (P == EPS_PROB) | (P == 1 - EPS_PROB)
    return EPS_PROB * float((per_block + math.log(1 / EPS_PROB))[clamped].sum())


class TestElboBoundsEvidence:
    """The ELBO against the exact evidence log p(Y; theta), summed over
    every noise block and membership vector at n <= 6."""

    @staticmethod
    def check(net, params, state, value, two_sided=False):
        evidence = log_evidence(net, params)
        # 1e-12 of the evidence covers rounding.
        tol = clamp_allowance(net, params, state) + 1e-12 * abs(evidence)
        assert value <= evidence + tol
        if two_sided:
            assert value >= evidence - tol

    @given(st.integers(0, 2**32 - 1), st.integers(3, 6), st.integers(1, 2), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_elbo_at_random_laws_and_state(self, seed, n, K, Q):
        rng = substream(seed, "evidence")
        params = random_laws(rng, K, Q)
        net = MultilayerNetwork(n=n, K=K, weights=rng.normal(0, 1.5, (n * (n - 1) // 2, K)))
        tau = rng.dirichlet(np.ones(Q), size=n)
        state = VariationalState(tau=tau, P=clip_prob(1.0 - rng.dirichlet(np.ones(Q))))
        value = elbo(net, params, state, pair_moments(net, tau))
        # At Q = 1 the one membership vector is certain and N = 1 exact but
        # for the clamp, so the bound is tight up to the clamp term.
        self.check(net, params, state, value, two_sided=Q == 1)

    def test_fitted_elbo(self):
        for seed in range(10):
            rng = substream(seed, "evidence-fit")
            Q, K = 2 + seed % 2, 1 + seed % 3
            net, _ = sbanm.gen_network(random_laws(rng, K, Q), np.full(Q, 6 // Q), rng)
            result = fit(net, FitConfig(Q=Q, seed=seed))
            self.check(net, result.params, result.state, result.elbo)


class TestFit:
    # Demo 03's network (n=50, K=2, three response styles), started from
    # the planted partition (tau 0.95 on each node's style) with every P_q
    # at P0.  Which block ends as noise depends on P0, and from the lower
    # clamp the fit merges two styles (ARI 0.548) at a higher bound than
    # the planted partition gets; rho >= 0 alone does not keep the styles.
    # With the fitted correlation free down to -1, the upper-clamp start
    # also merges two styles (rho -0.82, ARI 0.548, ELBO +58.1).
    @pytest.mark.parametrize(
        "P0, want_ari, want_elbo, want_noise_block",
        [
            pytest.param(0.5, 1.0, -821.57, 1, id="half"),
            pytest.param(1 - EPS_PROB, 1.0, -795.12, 0, id="upper-clamp"),
            pytest.param(EPS_PROB, 0.548, -254.26, 0, id="lower-clamp"),
        ],
    )
    def test_survey_demo_from_the_planted_partition(
        self, capsys, P0, want_ari, want_elbo, want_noise_block
    ):
        demo = runpy.run_path(str(Path(__file__).parents[1] / "demos" / "03_survey_similarity.py"))
        capsys.readouterr()
        net, groups = demo["net"], demo["groups"]
        tau = np.full((net.n, 3), 0.05 / 3)
        tau[np.arange(net.n), groups] += 0.95
        start = VariationalState(tau=tau, P=np.full(3, P0))
        result = fit(net, FitConfig(Q=3, seed=44), init_state=start)
        assert sbanm.ari(groups, result.hard_membership) == pytest.approx(want_ari, abs=5e-4)
        assert result.elbo == pytest.approx(want_elbo, abs=0.005)
        assert result.params.noise_block == want_noise_block
        assert min(b.rho for b in result.params.blocks) >= 0.0

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

    def test_result_names_empty_blocks_and_elbo_drops(self):
        net, _, _ = planted_network(seed=0)
        result = fit(net, FitConfig(Q=3, seed=0))
        assert result.empty_blocks == []
        # The partition with block 1 merged into block 0, and a trace that
        # falls by 0.5% at iteration 2 and by 0.002/90 at iteration 4.
        hard = np.where(result.hard_membership == 1, 0, result.hard_membership)
        trace = np.array([-110.0, -100.0, -100.5, -90.0, -90.002])
        flawed = dataclasses.replace(result, hard_membership=hard, elbo_trace=trace)
        assert flawed.empty_blocks == [1]
        assert flawed.elbo_drops(1e-8) == {
            2: pytest.approx(0.005, rel=1e-12), 4: pytest.approx(0.002 / 90, rel=1e-9)
        }
        assert list(flawed.elbo_drops(1e-3)) == [2]
        assert flawed.elbo_drops(0.01) == {}

    def test_stopping_tolerance_values(self):
        assert (TOL_TAU, TOL_ELBO) == (1e-6, 1e-8)
        assert [f.name for f in dataclasses.fields(FitConfig)] == ["Q", "max_outer", "seed"]

    @pytest.mark.parametrize(
        "field, message",
        [("Q", "Q must be at least 1"), ("max_outer", "max_outer must be at least 1")],
    )
    def test_config_counts_must_be_positive(self, field, message):
        with pytest.raises(DataError, match=message):
            FitConfig(**{"Q": 2, field: 0})

    def test_tau_rule_alone_stops_the_fit(self, monkeypatch):
        # No ELBO change is below 0, so only the tau test can stop; on this
        # network it stops the default fit too, at the same iteration.
        net, _, _ = planted_network(seed=2)
        want = fit(net, FitConfig(Q=3, seed=2))
        monkeypatch.setattr(sbanm.vem, "TOL_ELBO", 0.0)
        got = fit(net, FitConfig(Q=3, seed=2))
        assert got.converged
        assert np.array_equal(got.elbo_trace, want.elbo_trace)
        assert np.array_equal(got.hard_membership, want.hard_membership)

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
        # The block mean is the plain tau-weighted edge mean (the
        # classical weighted-SBM update).
        net, _, params = planted_network(sizes=(6, 5, 4), seed=16)
        state = soft_state(net.n, 3, seed=16, P=[1 - EPS_PROB] * 3)
        iu, ju = np.triu_indices(net.n, 1)
        for q in range(3):
            w = state.tau[iu, q] * state.tau[ju, q]
            classic = (w @ net.weights) / w.sum()
            got = m_step_block(net, q, params.noise, pair_moments(net, state.tau))
            assert np.allclose(got.mu, classic, atol=1e-8)

    def test_fit_and_icl_make_one_moment_pass_per_m_step(self, planted60, monkeypatch):
        # One moment pass for the bootstrap M-step and one per outer
        # iteration (shared by that iteration's P update, M-step and ELBO,
        # the last also by the final ELBO); one gap build per E-step; one
        # product over all blocks per inner tau pass and none for P.  The
        # ICL makes one pass of its own, whichever test ended the fit.
        net, _, _ = planted60
        calls = {}

        def count(original, key, around=None):
            calls[key] = 0

            def counted(*args, **kwargs):
                calls[key] += 1
                if around is None:
                    return original(*args, **kwargs)
                return around(original, *args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name == "sbanm" or name.startswith("sbanm."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, counted)

        per_e_step = []

        def products_and_passes(original, *args, **kwargs):
            # softmax_rows runs once per inner tau pass inside e_step.
            before = calls["packed_matvec"], calls["softmax_rows"]
            out = original(*args, **kwargs)
            per_e_step.append(
                (calls["packed_matvec"] - before[0], calls["softmax_rows"] - before[1])
            )
            return out

        count(sbanm.model.pair_moments, "pair_moments")
        count(sbanm.vem._gap_squares, "gaps")
        count(sbanm.model.packed_matvec, "packed_matvec")
        count(sbanm.vem.softmax_rows, "softmax_rows")
        count(sbanm.vem.e_step, "e_step", products_and_passes)

        # The tau test ends the default fit.  No tau change is below 1e-300,
        # so with that tolerance only the ELBO test can stop.
        for tol_tau in [TOL_TAU, 1e-300]:
            monkeypatch.setattr(sbanm.vem, "TOL_TAU", tol_tau)
            for key in calls:
                calls[key] = 0
            per_e_step.clear()
            result = fit(net, FitConfig(Q=3, seed=2))
            assert result.converged
            T = len(result.elbo_trace)
            assert (calls["pair_moments"], calls["gaps"]) == (T + 1, T)
            assert len(per_e_step) == T
            assert all(products == passes > 0 for products, passes in per_e_step)
            sbanm.icl(net, result)
            assert calls["pair_moments"] == T + 2

    def test_fit_is_the_same_for_either_weight_layout(self, planted60):
        # Row-major weights put into a network after it was made bypass the
        # layer-major copy; the fit must still give the same bits.
        net, _, _ = planted60
        w = net.weights
        nets = [
            MultilayerNetwork(n=net.n, K=net.K, weights=np.ascontiguousarray(w)),
            MultilayerNetwork(n=net.n, K=net.K, weights=np.asfortranarray(w)),
            MultilayerNetwork(n=net.n, K=net.K, weights=w),
        ]
        nets[2].weights = np.ascontiguousarray(w)
        assert not nets[2].weights.flags.f_contiguous
        results = [fit(m, FitConfig(Q=3, seed=2)) for m in nets]
        for m, result in zip(nets, results):
            result.icl = sbanm.icl(m, result)

        def values(r):
            p = r.params
            laws = [np.concatenate([b.mu, b.var, [b.rho]]) for b in p.blocks]
            return np.concatenate([
                *laws, p.noise.mu, p.noise.var, p.alpha, r.state.tau.ravel(), r.state.P,
                r.hard_membership, r.elbo_trace, [r.elbo, r.icl, r.converged, p.noise_block],
            ])

        for result in results[1:]:
            assert values(result).tobytes() == values(results[0]).tobytes()

    @pytest.fixture(scope="class")
    def exp2_fit(self):
        net, _ = sbanm.gen_network(*sbanm.experiment2_spec(), substream(1, "n"))
        return net, fit(net, FitConfig(Q=4, seed=2))

    def scaled(self, net, c):
        return MultilayerNetwork(n=net.n, K=net.K, weights=net.weights * c)

    # 1e-153 is near the low end: its smallest fitted variance, 6.1e-308,
    # is just above the smallest normal float64.
    @pytest.mark.parametrize("c", [1e-153, 1e-150, 1e-6, 1e-3, 1e3, 1e100])
    def test_fit_is_scale_equivariant(self, exp2_fit, c):
        # The variance floor follows each layer's own variance, so scaling
        # every weight by c scales each mean by c and each variance by c^2
        # and leaves the partition and the correlations as they are.
        net, ref = exp2_fit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit(self.scaled(net, c), FitConfig(Q=4, seed=2))
        assert np.array_equal(got.hard_membership, ref.hard_membership)
        laws = list(zip(got.params.blocks, ref.params.blocks))
        for law, want in laws + [(got.params.noise, ref.params.noise)]:
            np.testing.assert_allclose(law.mu / c, want.mu, rtol=1e-9)
            np.testing.assert_allclose(law.var / c**2, want.var, rtol=1e-9)
            assert law.rho == pytest.approx(want.rho, abs=1e-9)

    # Weights this small give a fitted variance below the smallest normal
    # float64 (1e-154, 1e-155), or squared deviations that are all 0
    # (1e-170), which once floored every layer as a constant one and put
    # every node in one block without an error.
    @pytest.mark.parametrize("c", [1e-154, 1e-155, 1e-170])
    def test_underflowing_weights_reported(self, exp2_fit, c):
        net, _ = exp2_fit
        with pytest.raises(NumericalError, match="underflow"):
            fit(self.scaled(net, c), FitConfig(Q=4, seed=2))

    def test_overflowing_moments_reported(self, exp2_fit):
        net, _ = exp2_fit
        with pytest.raises(NumericalError, match="non-finite pair moments"):
            fit(self.scaled(net, 1e160), FitConfig(Q=4, seed=2))

    def test_hard_membership_is_row_argmax(self, planted60):
        net, _, _ = planted60
        result = fit(net, FitConfig(Q=3, seed=2))
        assert np.array_equal(
            result.hard_membership, np.argmax(result.state.tau, axis=1)
        )
