import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import sbanm
from sbanm import ari, exact_recovery, nmi, optimal_matching, param_report
from sbanm.errors import DataError
from sbanm.rng import substream

from conftest import offset_planted_network, planted_network
from reference import log_density, log_density_batch


def brute_force_rand_terms(a, b):
    """Pair-by-pair agreement counts for the Rand family."""
    n = len(a)
    together_both = together_a = together_b = 0
    for i, j in itertools.combinations(range(n), 2):
        sa = a[i] == a[j]
        sb = b[i] == b[j]
        together_a += sa
        together_b += sb
        together_both += sa and sb
    return together_both, together_a, together_b, n * (n - 1) // 2


def oracle_ari(a, b):
    both, ta, tb, total = brute_force_rand_terms(a, b)
    expected = ta * tb / total
    max_index = 0.5 * (ta + tb)
    if max_index == expected:
        return 1.0
    return (both - expected) / (max_index - expected)


class TestAri:
    def test_identical(self):
        assert ari([0, 0, 1, 2], [0, 0, 1, 2]) == 1.0

    def test_label_permutation_invariant(self):
        assert ari([0, 0, 1, 1, 2], [2, 2, 0, 0, 1]) == 1.0

    def test_crossed_pairs_give_minus_half(self):
        a, b = [1, 1, 2, 2], [1, 2, 1, 2]
        assert ari(a, b) == pytest.approx(-0.5, abs=1e-12)
        assert ari(a, b) == pytest.approx(oracle_ari(a, b), abs=1e-12)

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_matches_pair_counting_oracle(self, a):
        rng = np.random.default_rng(len(a))
        b = rng.integers(0, 3, size=len(a)).tolist()
        assert ari(a, b) == pytest.approx(oracle_ari(a, b), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            ari([0, 1], [0, 1, 2])


class TestNmi:
    def test_identical_nontrivial(self):
        assert nmi([0, 1, 1, 2], [0, 1, 1, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_independent_balanced_grid_is_zero(self):
        assert nmi([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(0.0, abs=1e-12)

    def test_single_cluster_conventions(self):
        assert nmi([0, 0, 0], [0, 0, 0]) == 1.0
        assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
        assert nmi([0, 1, 2], [5, 5, 5]) == 0.0

    def test_contingency_table_oracle(self):
        a = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        b = np.array([1, 1, 1, 0, 0, 2, 2, 0])
        table = np.zeros((3, 3))
        for x, y in zip(a, b):
            table[x, y] += 1
        p = table / len(a)
        pa, pb = p.sum(1), p.sum(0)
        mi = sum(
            p[i, j] * math.log(p[i, j] / (pa[i] * pb[j]))
            for i in range(3)
            for j in range(3)
            if p[i, j] > 0
        )
        ha = -sum(x * math.log(x) for x in pa if x > 0)
        hb = -sum(x * math.log(x) for x in pb if x > 0)
        assert nmi(a, b) == pytest.approx(mi / math.sqrt(ha * hb), abs=1e-12)

    def test_unequal_partitions_raise_no_warning(self):
        # Empty contingency cells must not reach an uninitialized log output.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = nmi([0, 0, 1, 1, 2, 2], [0, 0, 0, 1, 1, 1])
        assert 0.0 < v < 1.0

    def test_bounds_and_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.integers(0, 4, size=30)
            b = rng.integers(0, 3, size=30)
            v = nmi(a, b)
            assert 0.0 <= v <= 1.0
            relabel = rng.permutation(4)
            assert nmi(relabel[a], b) == pytest.approx(v, abs=1e-12)
            assert ari(relabel[a], b) == pytest.approx(ari(a, b), abs=1e-12)


class TestExactRecovery:
    def test_identical_and_permuted(self):
        a = [0, 0, 1, 1, 2]
        assert exact_recovery(a, a)
        assert exact_recovery(a, [1, 1, 2, 2, 0])

    def test_one_node_moved(self):
        assert not exact_recovery([0, 0, 1, 1], [0, 0, 1, 0])

    def test_different_cluster_counts(self):
        assert not exact_recovery([0, 0, 1, 1], [0, 1, 2, 3])

    def test_implies_metric_extremes(self):
        a = [0, 1, 1, 2, 2, 2]
        b = [2, 0, 0, 1, 1, 1]
        assert exact_recovery(a, b)
        assert ari(a, b) == 1.0
        assert nmi(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_merged_blocks_with_negative_label(self):
        # Two truth blocks share fitted block -1: no bijection exists.
        assert not exact_recovery([0, 1, 2], [0, -1, -1])
        assert exact_recovery([0, 1, 2], [5, -1, -7])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            exact_recovery([0, 1], [0, 1, 1])

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_bijection_property(self, pairs):
        a, b = (list(x) for x in zip(*pairs))
        assert exact_recovery(a, b) == (len(set(zip(a, b))) == len(set(a)) == len(set(b)))


class TestParamReport:
    def test_exact_fit_gives_zero_errors(self):
        params, _ = sbanm.experiment2_spec()
        rep = param_report(params, params, {q: q for q in range(4)})
        assert np.all(rep.mu_err == 0) and np.all(rep.mu_ape == 0)
        assert np.all(rep.rho_err == 0)
        assert np.all(rep.noise_var_err == 0)

    def test_shifted_means(self):
        truth, _ = sbanm.experiment2_spec()
        shifted = sbanm.ModelParams(
            blocks=[
                sbanm.BlockParams(mu=b.mu + 0.1, var=b.var, rho=b.rho)
                for b in truth.blocks
            ],
            noise=truth.noise,
            alpha=truth.alpha,
        )
        rep = param_report(truth, shifted, {q: q for q in range(4)})
        assert np.allclose(rep.mu_err, 0.1, atol=1e-12)

    def test_matching_reorders_blocks(self):
        truth, _ = sbanm.experiment2_spec()
        perm = [0, 2, 3, 1]  # fitted block perm[q] corresponds to truth q
        blocks = [truth.blocks[q] for q in np.argsort(perm)]
        fitted = sbanm.ModelParams(
            blocks=blocks, noise=truth.noise, alpha=truth.alpha[np.argsort(perm)],
        )
        rep = param_report(truth, fitted, {q: perm[q] for q in range(4)})
        assert np.all(rep.mu_err == 0)

    def test_small_denominators_floored(self):
        truth, _ = sbanm.experiment2_spec()
        assert truth.blocks[0].rho == 0.0
        fitted = sbanm.ModelParams(
            blocks=[
                sbanm.BlockParams(mu=b.mu, var=b.var, rho=b.rho + 0.005)
                for b in truth.blocks
            ],
            noise=truth.noise,
            alpha=truth.alpha,
        )
        rep = param_report(truth, fitted, {q: q for q in range(4)})
        assert rep.rho_ape[0] == pytest.approx(0.005 / 0.01, abs=1e-12)

    def test_q_mismatch_rejected(self):
        truth, _ = sbanm.experiment2_spec()
        other = sbanm.ModelParams(
            blocks=[truth.blocks[0], truth.blocks[1]],
            noise=truth.noise,
            alpha=[0.5, 0.5],
        )
        with pytest.raises(DataError):
            param_report(truth, other, {0: 0, 1: 1})


class TestIcl:
    def test_penalty_terms_match_direct_evaluation(self):
        n, K, Q = 200, 3, 5
        pen = Q * math.log(n * (n - 1) * K / 2) + (Q * (Q - 1) / 2) * K * math.log(
            n * (n - 1) / 2
        )
        assert pen == pytest.approx(5 * math.log(59700) + 30 * math.log(19900), abs=1e-12)
        assert pen == pytest.approx(351.93, abs=0.01)
        middle = 0.5 * Q * (Q - 1) * math.log(n * (K - 1))
        assert middle == pytest.approx(10 * math.log(400), abs=1e-12)
        assert middle == pytest.approx(59.91, abs=0.005)

    def test_icl_equals_complete_loglik_minus_penalties(self, planted60):
        net, labels, _ = planted60
        result = sbanm.fit(net, sbanm.FitConfig(Q=3, seed=0))
        got = sbanm.icl(net, result)
        # independent recomputation from the fitted parameters
        params = result.params
        z = result.hard_membership
        ll = 0.0
        iu, ju = np.triu_indices(net.n, 1)
        for p in range(net.n_pairs):
            i, j = iu[p], ju[p]
            if z[i] == z[j] and z[i] != params.noise_block:
                b = params.blocks[z[i]]
                ll += log_density(net.weights[p], b.mu, b.covariance())
            else:
                ll += log_density(
                    net.weights[p], params.noise.mu, params.noise.covariance()
                )
        ll += float(np.log(np.maximum(params.alpha, 1e-9))[z].sum())
        n, K, Q = net.n, net.K, 3
        middle = 0.5 * Q * (Q - 1) * math.log(n * (K - 1))
        pen = Q * math.log(n * (n - 1) * K / 2) + (Q * (Q - 1) / 2) * K * math.log(
            n * (n - 1) / 2
        )
        assert got == pytest.approx(ll - middle - pen, rel=1e-12)

    @pytest.mark.parametrize("seed", [21, 22, 23, 24])
    def test_offset_network_matches_per_pair_reference(self, seed):
        net, labels, params = offset_planted_network(seed=seed)
        tau = np.eye(3)[labels]
        result = sbanm.FitResult(
            params=params,
            state=sbanm.VariationalState(tau=tau, P=[1e-9, 0.9, 0.9]),
            hard_membership=labels,
            elbo_trace=np.array([]),
            converged=True,
            elbo=0.0,
        )
        iu, ju = np.triu_indices(net.n, 1)
        li, lj = labels[iu], labels[ju]
        signal = (li == lj) & (li != params.noise_block)
        ld = log_density_batch(net.weights, params.noise.mu, params.noise.covariance())
        for q in np.unique(li[signal]):
            b = params.blocks[q]
            mask = signal & (li == q)
            ld[mask] = log_density_batch(net.weights[mask], b.mu, b.covariance())
        ll = math.fsum(ld) + float(np.log(params.alpha)[labels].sum())
        n, K, Q = net.n, net.K, 3
        middle = 0.5 * Q * (Q - 1) * math.log(n * (K - 1))
        pen = Q * math.log(n * (n - 1) * K / 2) + (Q * (Q - 1) / 2) * K * math.log(
            n * (n - 1) / 2
        )
        assert sbanm.icl(net, result) == pytest.approx(ll - middle - pen, rel=1e-12, abs=0)

    def test_empty_block_matches_per_pair_reference(self):
        # Block 2's nodes moved into block 1: block 2 has no pair, and
        # block 1's pairs are scored under block 1's law.
        net, labels, params = offset_planted_network(seed=25)
        z = np.where(labels == 2, 1, labels)
        result = sbanm.FitResult(
            params=params,
            state=sbanm.VariationalState(tau=np.eye(3)[z], P=[1e-9, 0.9, 0.9]),
            hard_membership=z,
            elbo_trace=np.array([]),
            converged=True,
            elbo=0.0,
        )
        iu, ju = np.triu_indices(net.n, 1)
        ld = np.empty(net.n_pairs)
        for p, (i, j) in enumerate(zip(iu, ju)):
            law = params.blocks[z[i]] if z[i] == z[j] else params.noise
            ld[p] = log_density(net.weights[p], law.mu, law.covariance())
        ll = math.fsum(ld) + float(np.log(params.alpha)[z].sum())
        n, K, Q = net.n, net.K, 3
        middle = 0.5 * Q * (Q - 1) * math.log(n * (K - 1))
        pen = Q * math.log(n * (n - 1) * K / 2) + (Q * (Q - 1) / 2) * K * math.log(
            n * (n - 1) / 2
        )
        assert sbanm.icl(net, result) == pytest.approx(ll - middle - pen, rel=1e-12, abs=0)

    def test_k1_guard(self):
        # middle term falls back to log(n * 1) instead of log(0)
        net, _, _ = planted_network(sizes=(8, 7, 5), seed=17)
        single = sbanm.MultilayerNetwork(n=net.n, K=1, weights=net.weights[:, :1])
        result = sbanm.fit(single, sbanm.FitConfig(Q=2, seed=0))
        value = sbanm.icl(single, result)
        assert np.isfinite(value)

    @staticmethod
    def fitted(case):
        """(net, result) of a fit whose last moment pass also summed the
        moments of its final hard partition."""
        if case == "k1":
            net, _, _ = planted_network(sizes=(8, 7, 5), seed=17)
            net = sbanm.MultilayerNetwork(n=net.n, K=1, weights=net.weights[:, :1])
            return net, sbanm.fit(net, sbanm.FitConfig(Q=2, seed=0))
        if case == "planted60":
            net, _, _ = planted_network()
            return net, sbanm.fit(net, sbanm.FitConfig(Q=3, seed=2))
        net, _, _ = planted_network(sizes=(40, 35, 30), seed=3)
        svi = sbanm.SviConfig(a=30, seed=3)
        cfg, svi = {
            "planted-tau-test": (sbanm.FitConfig(Q=3, seed=3), None),
            "q1": (sbanm.FitConfig(Q=1, seed=3), None),
            "max-outer": (sbanm.FitConfig(Q=3, seed=3, max_outer=2), None),
            "svi": (sbanm.FitConfig(Q=3, seed=3), svi),
            # Both iterations are SVI steps on subsamples.
            "svi-max-outer": (sbanm.FitConfig(Q=3, seed=3, max_outer=2), svi),
        }[case]
        return net, sbanm.fit(net, cfg, svi=svi)

    @staticmethod
    def count_passes(monkeypatch):
        calls = [0]
        original = sbanm.evaluate.pair_moments

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(sbanm.evaluate, "pair_moments", counted)
        return calls

    @pytest.mark.parametrize(
        "case",
        ["planted60", "planted-tau-test", "k1", "q1", "max-outer", "svi", "svi-max-outer"],
    )
    def test_stored_partition_moments_give_the_fresh_pass_icl(self, case, monkeypatch):
        net, result = self.fitted(case)
        z, _ = result.partition_moments
        assert np.array_equal(z, result.hard_membership)
        passes = self.count_passes(monkeypatch)
        stored = sbanm.icl(net, result)
        assert passes[0] == 0
        fresh = sbanm.icl(net, dataclasses.replace(result, partition_moments=None))
        assert passes[0] == 1
        assert stored == pytest.approx(fresh, rel=1e-12, abs=0)

    def test_changed_partition_gets_a_fresh_pass(self, monkeypatch):
        net, result = self.fitted("planted-tau-test")
        hard = np.where(result.hard_membership == 1, 0, result.hard_membership)
        moved = dataclasses.replace(result, hard_membership=hard)
        passes = self.count_passes(monkeypatch)
        got = sbanm.icl(net, moved)
        assert passes[0] == 1
        assert got == sbanm.icl(net, dataclasses.replace(moved, partition_moments=None))
        assert got != sbanm.icl(net, result)

    def test_penalty_monotone_in_q(self):
        # holding log f(X,Z) fixed, ICL strictly decreases in Q
        n, K = 150, 3
        def penalties(Q):
            middle = 0.5 * Q * (Q - 1) * math.log(n * (K - 1))
            pen = Q * math.log(n * (n - 1) * K / 2) + (Q * (Q - 1) / 2) * K * math.log(
                n * (n - 1) / 2
            )
            return middle + pen
        vals = [penalties(Q) for Q in range(1, 10)]
        assert np.all(np.diff(vals) > 0)


class TestOptimalMatching:
    def test_recovers_planted_relabeling(self):
        rng = substream(20, "match")
        truth = rng.integers(0, 4, size=60)
        relabel = np.array([2, 3, 0, 1])
        fitted = relabel[truth]
        m = optimal_matching(truth, fitted)
        assert m == {0: 2, 1: 3, 2: 0, 3: 1}

    # Up to 8 labels per side (negative and unequal counts included) on up
    # to 40 nodes, so many tables have tied optima.
    @given(st.lists(st.tuples(st.integers(-4, 3), st.integers(0, 7)), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_optimal_against_scipy_and_brute_force(self, pairs):
        truth, fitted = (np.array(x) for x in zip(*pairs))
        ut, uf = np.unique(truth), np.unique(fitted)
        m = optimal_matching(truth, fitted)
        assert len(m) == min(ut.size, uf.size)
        assert set(m) <= set(ut.tolist()) and set(m.values()) <= set(uf.tolist())
        assert len(set(m.values())) == len(m)
        got = sum(m.get(t) == f for t, f in zip(truth, fitted))
        table = np.array([[np.sum((truth == t) & (fitted == f)) for f in uf] for t in ut])
        rows, cols = linear_sum_assignment(-table)
        assert got == table[rows, cols].sum()
        if max(ut.size, uf.size) <= 6:
            wide = table if ut.size <= uf.size else table.T
            best = max(
                sum(wide[r, c] for r, c in enumerate(perm))
                for perm in itertools.permutations(range(wide.shape[1]), wide.shape[0])
            )
            assert got == best
