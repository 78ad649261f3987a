import numpy as np
import pytest

import sbanm
from sbanm import (
    FitConfig,
    SviConfig,
    averaging_weight,
    e_step,
    subsample_nodes,
    subsample_size,
)
from sbanm.errors import DataError
from sbanm.model import law_coefficients
from sbanm.rng import derive_seed, substream
from sbanm.vem import _m_step, block_gaps, signal_probs

from conftest import planted_network


class TestSchedules:
    def test_step_size_exponents(self):
        assert sbanm.svi.KAPPA_M == 2.0
        assert sbanm.svi.KAPPA_W == 0.7

    def test_subsample_size_values(self):
        cfg = SviConfig(a=100)
        assert subsample_size(0, cfg, 500) == 100
        assert subsample_size(1, cfg, 500) == 225  # 100 + (1/2)^2 * 500
        assert subsample_size(10**6, cfg, 500) == 500

    def test_subsample_size_non_decreasing_and_capped(self):
        cfg = SviConfig(a=150)
        sizes = [subsample_size(t, cfg, 400) for t in range(50)]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        assert max(sizes) == 400

    def test_averaging_weight_values(self):
        assert averaging_weight(0) == 1.0
        assert averaging_weight(3) == pytest.approx(4 ** -0.7, abs=1e-12)
        assert averaging_weight(3) == pytest.approx(0.3789, abs=5e-5)

    def test_weight_series_divergence_profile(self, monkeypatch):
        # Integral-test bounds on the partial sums: sum delta_t dominates a
        # divergent minorant while sum delta_t^2 stays under its convergent
        # majorant, for every admissible exponent.
        T = 200_000
        t = np.arange(T)
        for kappa in (0.51, 0.7, 1.0):
            monkeypatch.setattr(sbanm.svi, "KAPPA_W", kappa)
            d = averaging_weight(t)
            assert np.allclose(d, (t + 1.0) ** -kappa)
            sums = np.cumsum(d)
            n = np.arange(1, T + 1)
            if kappa < 1.0:
                minorant = ((n + 1.0) ** (1 - kappa) - 1.0) / (1 - kappa)
            else:
                minorant = np.log(n + 1.0)
            assert np.all(sums >= minorant)          # diverges with the integral
            majorant = 1.0 + 1.0 / (2 * kappa - 1)   # 1 + integral of x^(-2k)
            assert np.all(np.cumsum(d**2) <= majorant)

    def test_config_validation(self):
        with pytest.raises(DataError):
            SviConfig(a=1)


class TestSubsampleNodes:
    def test_none_exactly_when_the_size_covers_the_graph(self):
        for a in (2, 5, 40):
            cfg = SviConfig(a=a, seed=1)
            for n in (3, 20, 41):
                for t in range(12):
                    nodes = subsample_nodes(t, cfg, n)
                    assert (nodes is None) == (subsample_size(t, cfg, n) >= n)

    def test_sorted_distinct_in_range_of_the_scheduled_size(self):
        cfg = SviConfig(a=7, seed=4)
        for t in range(5):
            nodes = subsample_nodes(t, cfg, 60)
            assert nodes.size == subsample_size(t, cfg, 60)
            assert np.all(np.diff(nodes) > 0)
            assert nodes[0] >= 0 and nodes[-1] < 60

    def test_same_seed_and_step_give_the_same_sample(self):
        cfg = SviConfig(a=20, seed=5)
        assert np.array_equal(subsample_nodes(2, cfg, 60), subsample_nodes(2, cfg, 60))
        # The sample of step 1 on 20 nodes, a = 5 (5 + 20/4 = 10 nodes), seed 3.
        expected = [0, 1, 3, 6, 7, 9, 10, 12, 15, 16]
        assert subsample_nodes(1, SviConfig(a=5, seed=3), 20).tolist() == expected


class TestSviEStep:
    """An SVI step as fit makes it: one e_step pass on subsample_nodes(t),
    damped by averaging_weight(t)."""

    def setup_instance(self, seed=0):
        net, labels, params_true = planted_network(sizes=(24, 20, 16), seed=seed)
        state = sbanm.spectral_init(net, 3, seed)
        params = _m_step(net, state, sbanm.pair_moments(net, state.tau))
        return net, state, params

    @staticmethod
    def svi_step(net, params, state, t, cfg):
        nodes = subsample_nodes(t, cfg, net.n)
        return e_step(net, params, state, nodes, damping=averaging_weight(t))

    def test_deterministic_sample(self):
        net, state, params = self.setup_instance()
        cfg = SviConfig(a=20, seed=5)
        tau1 = self.svi_step(net, params, state, 2, cfg)
        tau2 = self.svi_step(net, params, state, 2, cfg)
        assert np.array_equal(tau1, tau2)

    def test_rows_stochastic_after_blend(self):
        net, state, params = self.setup_instance(seed=1)
        tau = self.svi_step(net, params, state, 1, SviConfig(a=20, seed=1))
        assert np.max(np.abs(tau.sum(axis=1) - 1.0)) < 1e-10

    def test_unsampled_rows_unchanged(self):
        net, state, params = self.setup_instance(seed=2)
        cfg = SviConfig(a=20, seed=2)
        for t in range(3):
            M = subsample_nodes(t, cfg, net.n)
            tau = self.svi_step(net, params, state, t, cfg)
            untouched = np.setdiff1d(np.arange(net.n), M)
            assert untouched.size and np.array_equal(tau[untouched], state.tau[untouched])
            assert not np.array_equal(tau[M], state.tau[M])

    def test_full_subsample_with_unit_weight_equals_full_e_step(self, monkeypatch):
        # t=0 gives delta=1; the subsample as the whole graph makes one SVI
        # step exactly one (undamped, single-pass) full E-step.
        net, state, params = self.setup_instance(seed=3)
        tau_svi = e_step(net, params, state, np.arange(net.n), averaging_weight(0))
        monkeypatch.setattr(sbanm.vem, "TAU_INNER_MAX", 1)
        tau_full = e_step(net, params, state, damping=1.0)
        assert np.allclose(tau_svi, tau_full, atol=1e-12)

    def test_fit_rejects_base_size_below_q_before_init(self, monkeypatch):
        def no_init(*args):
            raise AssertionError("spectral_init reached")

        monkeypatch.setattr(sbanm.vem, "spectral_init", no_init)
        net, _, _ = planted_network(sizes=(10, 10, 10), seed=4)
        with pytest.raises(DataError, match="subsample too small for Q blocks"):
            sbanm.fit(net, FitConfig(Q=3, seed=0), svi=SviConfig(a=2, seed=0))

    def test_svi_fit_replays_from_the_two_e_step_forms(self):
        # On 60 nodes with a = 20, steps 0..4 are SVI steps and step 5 on
        # is full batch; the fit converges at step 6, within max_outer.
        net, _, _ = planted_network(sizes=(24, 20, 16), seed=6)
        cfg, svi = FitConfig(Q=3, max_outer=8, seed=6), SviConfig(a=20, seed=6)
        result = sbanm.fit(net, cfg, svi)
        state = sbanm.spectral_init(net, 3, derive_seed(cfg.seed, "init"))
        params = _m_step(net, state, sbanm.pair_moments(net, state.tau))
        trace = []
        for t in range(len(result.elbo_trace)):
            nodes = subsample_nodes(t, svi, net.n)
            if nodes is None:
                tau = e_step(net, params, state)
            else:
                tau = e_step(net, params, state, nodes, averaging_weight(t))
            moments = sbanm.pair_moments(net, tau)
            P = signal_probs(block_gaps(law_coefficients(params, net.center), moments))
            state = sbanm.VariationalState(tau=tau, P=P)
            params = _m_step(net, state, moments)
            trace.append(sbanm.elbo(net, params, state, moments))
        assert subsample_nodes(0, svi, net.n) is not None and nodes is None
        assert result.elbo_trace.tolist() == trace
        assert np.array_equal(result.state.tau, state.tau)
        assert np.array_equal(result.state.P, state.P)

    def test_svi_fit_reaches_full_batch_partition(self):
        params, sizes = sbanm.experiment2_spec()
        net, labels = sbanm.gen_network(params, sizes, substream(42, "network"))
        full = sbanm.fit(net, FitConfig(Q=4, seed=42))
        svi = sbanm.fit(net, FitConfig(Q=4, seed=42), svi=SviConfig(a=150, seed=42))
        assert sbanm.exact_recovery(full.hard_membership, svi.hard_membership)
        assert sbanm.exact_recovery(labels, svi.hard_membership)
