import numpy as np
import pytest

import sbanm
from sbanm import FitConfig, SviConfig, VariationalState, averaging_weight, subsample_size, svi_e_step
from sbanm.errors import DataError
from sbanm.rng import substream
from sbanm.estep import e_step
from sbanm.vem import _bootstrap_params

from conftest import planted_network


class TestSchedules:
    def test_subsample_size_values(self):
        cfg = SviConfig(a=100, kappa_m=2.0)
        assert subsample_size(0, cfg, 500) == 100
        assert subsample_size(1, cfg, 500) == 225  # 100 + (1/2)^2 * 500
        assert subsample_size(10**6, cfg, 500) == 500

    def test_subsample_size_non_decreasing_and_capped(self):
        cfg = SviConfig(a=150)
        sizes = [subsample_size(t, cfg, 400) for t in range(50)]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        assert max(sizes) == 400

    def test_averaging_weight_values(self):
        cfg = SviConfig(kappa_w=0.7)
        assert averaging_weight(0, cfg) == 1.0
        assert averaging_weight(3, cfg) == pytest.approx(4 ** -0.7, abs=1e-12)
        assert averaging_weight(3, cfg) == pytest.approx(0.3789, abs=5e-5)

    def test_weight_series_divergence_profile(self):
        # Integral-test bounds on the partial sums: sum delta_t dominates a
        # divergent minorant while sum delta_t^2 stays under its convergent
        # majorant, for every admissible exponent.
        T = 200_000
        t = np.arange(T)
        for kappa in (0.51, 0.7, 1.0):
            cfg = SviConfig(kappa_w=kappa)
            d = averaging_weight(t, cfg)
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
        with pytest.raises(DataError):
            SviConfig(kappa_w=0.5)

    @pytest.mark.parametrize("kappa_m", [-1.0, -1e-12, float("nan"), float("inf")])
    def test_negative_or_nan_kappa_m_rejected(self, kappa_m):
        with pytest.raises(DataError, match="kappa_m"):
            SviConfig(kappa_m=kappa_m)


class TestSviEStep:
    def setup_instance(self, seed=0):
        net, labels, params_true = planted_network(sizes=(24, 20, 16), seed=seed)
        state = sbanm.spectral_init(net, 3, seed)
        params = _bootstrap_params(net, state)
        return net, state, params

    def test_deterministic_sample(self):
        net, state, params = self.setup_instance()
        cfg = SviConfig(a=20, seed=5)
        tau1, P1 = svi_e_step(net, params, state, 2, cfg)
        tau2, P2 = svi_e_step(net, params, state, 2, cfg)
        assert np.array_equal(tau1, tau2) and np.array_equal(P1, P2)

    def test_rows_stochastic_after_blend(self):
        net, state, params = self.setup_instance(seed=1)
        tau, P = svi_e_step(net, params, state, 1, SviConfig(a=20, seed=1))
        assert np.max(np.abs(tau.sum(axis=1) - 1.0)) < 1e-10
        assert np.all(P >= 1e-9) and np.all(P <= 1 - 1e-9)

    def test_unsampled_rows_unchanged(self):
        net, state, params = self.setup_instance(seed=2)
        cfg = SviConfig(a=20, seed=2)
        m = subsample_size(0, cfg, net.n)
        M = np.sort(substream(cfg.seed, "svi-sample", 0).choice(net.n, size=m, replace=False))
        tau, _ = svi_e_step(net, params, state, 0, cfg)
        untouched = np.setdiff1d(np.arange(net.n), M)
        assert np.array_equal(tau[untouched], state.tau[untouched])

    def test_full_subsample_with_unit_weight_equals_full_e_step(self):
        # t=0 gives delta=1; a >= n makes the subsample the whole graph, so
        # one SVI step is exactly one (undamped, single-pass) full E-step
        # followed by the P update on the fresh memberships.
        net, state, params = self.setup_instance(seed=3)
        cfg = SviConfig(a=net.n, seed=3)
        tau_svi, P_svi = svi_e_step(net, params, state, 0, cfg)
        tau_full, _ = e_step(net, params, state, inner=1, damping=1.0)
        _, P_full = e_step(net, params, VariationalState(tau=tau_full, P=state.P), inner=0)
        assert np.allclose(tau_svi, tau_full, atol=1e-12)
        assert np.allclose(P_svi, P_full, atol=1e-12)

    def test_subsample_too_small_rejected(self):
        net, state, params = self.setup_instance(seed=4)
        with pytest.raises(DataError, match="subsample too small"):
            svi_e_step(net, params, state, 0, SviConfig(a=2, seed=0))

    def test_fit_rejects_base_size_below_q_before_init(self, monkeypatch):
        def no_init(*args):
            raise AssertionError("spectral_init reached")

        monkeypatch.setattr(sbanm.vem, "spectral_init", no_init)
        net, _, _ = planted_network(sizes=(10, 10, 10), seed=4)
        with pytest.raises(DataError, match="subsample too small for Q blocks"):
            sbanm.fit(net, FitConfig(Q=3, seed=0), svi=SviConfig(a=2, seed=0))

    def test_svi_fit_reaches_full_batch_partition(self):
        params, sizes = sbanm.experiment2_spec()
        net, labels = sbanm.gen_network(params, sizes, substream(42, "network"))
        full = sbanm.fit(net, FitConfig(Q=4, seed=42))
        svi = sbanm.fit(net, FitConfig(Q=4, seed=42), svi=SviConfig(a=150, seed=42))
        assert sbanm.exact_recovery(full.hard_membership, svi.hard_membership)
        assert sbanm.exact_recovery(labels, svi.hard_membership)
