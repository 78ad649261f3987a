"""Acceptance criteria, one test per criterion.

Each test prints a single ACCEPTANCE pass/fail line (run with -s to see
them live).  Criteria 1 and 4 exercise the CLI surface end to end; the
experiment batteries in 2 and 3 run the library pipeline directly.
"""

import time

import numpy as np

import sbanm
from sbanm.cli import main as cli_main
from sbanm.rng import substream

from conftest import planted_network, separable_params_2layer
from test_vem import oracle_block_params, oracle_noise_params, soft_state


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


class TestCriterion1Experiment2:
    def test_fixed_parameter_replicates(self, tmp_path):
        truth_params, _ = sbanm.experiment2_spec()
        sim_dir = tmp_path / "sim"
        assert cli_main([
            "simulate", "--layers", "3", "--nodes", "300", "--experiment2",
            "--candidates", "10", "--seed", "7", "--out", str(sim_dir),
        ]) == 0
        recoveries = 0
        mu_apes, var_apes, rho_apes, noise_var_apes = [], [], [], []
        slowest = 0.0
        for i in range(10):
            cand = sim_dir / f"cand{i:03d}"
            fit_dir = tmp_path / f"fit{i:03d}"
            t0 = time.time()
            assert cli_main([
                "fit", "--input", str(cand / "net.tsv"), "--blocks", "4",
                "--seed", "7", "--out", str(fit_dir),
            ]) == 0
            slowest = max(slowest, time.time() - t0)
            _, truth_labels, _ = sbanm.read_memberships(str(cand / "truth.csv"))
            _, pred_labels, _ = sbanm.read_memberships(str(fit_dir / "memberships.csv"))
            recoveries += sbanm.exact_recovery(truth_labels, pred_labels)
            fitted, _ = sbanm.read_params(str(fit_dir / "params.json"))
            matching = sbanm.optimal_matching(truth_labels, pred_labels)
            rep = sbanm.param_report(truth_params, fitted, matching)
            signal = [q for q in range(4) if q != truth_params.noise_block]
            mu_apes += list(rep.mu_ape[signal].ravel())
            var_apes += list(rep.var_ape[signal].ravel())
            rho_apes += list(rep.rho_ape[signal])
            noise_var_apes += list(rep.noise_var_ape)
        med_mu = float(np.median(mu_apes))
        med_var = float(np.median(var_apes))
        med_rho = float(np.median(rho_apes))
        ok = (
            recoveries >= 9
            and med_mu <= 0.05
            and med_var <= 0.10
            and med_rho <= 0.10
            and slowest <= 120.0
        )
        report(
            1,
            "Experiment-2 reproduction",
            ok,
            f"(recovery {recoveries}/10, median APE mu {med_mu:.4f} "
            f"var {med_var:.4f} rho {med_rho:.4f}, "
            f"noise-var APE {np.median(noise_var_apes):.4f} [reported only], "
            f"slowest fit {slowest:.1f}s)",
        )


class TestCriterion2BivariateRecovery:
    def test_filtered_bivariate_candidates(self):
        spec = sbanm.SimSpec(
            n=500, K=2, Q=(3, 5), prior_means=(0.0, 2.0), noise_mu=(-1.0, 0.0),
        )
        cands = [sbanm.draw_candidate(spec, substream(11, "candidate", i))
                 for i in range(100)]
        kept = sbanm.filter_separable([p for p, _ in cands], 0.10)
        assert len(kept) == 10
        nmis, recoveries, slowest = [], 0, 0.0
        for i in kept:
            params, sizes = cands[i]
            net, labels = sbanm.gen_network(params, sizes, substream(11, "network", i))
            t0 = time.time()
            result = sbanm.fit(net, sbanm.FitConfig(Q=params.Q, seed=11))
            slowest = max(slowest, time.time() - t0)
            nmis.append(sbanm.nmi(labels, result.hard_membership))
            recoveries += sbanm.exact_recovery(labels, result.hard_membership)
        mean_nmi = float(np.mean(nmis))
        ok = mean_nmi >= 0.95 and recoveries >= 8 and slowest <= 600.0
        report(
            2,
            "Experiment-1 bivariate",
            ok,
            f"(mean NMI {mean_nmi:.4f}, recovery {recoveries}/10, "
            f"slowest fit {slowest:.1f}s)",
        )


class TestCriterion3TrivariateRecovery:
    def test_filtered_trivariate_candidates(self):
        spec = sbanm.SimSpec(
            n=200, K=3, Q=(3, 5), prior_means=(-2.0, 0.0, 2.0),
            noise_mu=(-3.0, -1.0, 1.0),
        )
        cands = [sbanm.draw_candidate(spec, substream(13, "candidate", i))
                 for i in range(100)]
        kept = sbanm.filter_separable([p for p, _ in cands], 0.10)
        aris, recoveries, slowest = [], 0, 0.0
        for i in kept:
            params, sizes = cands[i]
            net, labels = sbanm.gen_network(params, sizes, substream(13, "network", i))
            t0 = time.time()
            result = sbanm.fit(net, sbanm.FitConfig(Q=params.Q, seed=13))
            slowest = max(slowest, time.time() - t0)
            aris.append(sbanm.ari(labels, result.hard_membership))
            recoveries += sbanm.exact_recovery(labels, result.hard_membership)
        mean_ari = float(np.mean(aris))
        ok = mean_ari >= 0.75 and recoveries >= 6 and slowest <= 300.0
        report(
            3,
            "Experiment-1 trivariate",
            ok,
            f"(mean ARI {mean_ari:.4f}, recovery {recoveries}/10, "
            f"slowest fit {slowest:.1f}s)",
        )


class TestCriterion4IclSelection:
    def test_select_recovers_true_block_count(self, tmp_path, capsys):
        spec = sbanm.SimSpec(
            n=200, K=3, Q=5, prior_means=(-2.0, 0.0, 2.0),
            noise_mu=(-3.0, -1.0, 1.0),
        )
        cands = [sbanm.draw_candidate(spec, substream(21, "candidate", i))
                 for i in range(50)]
        kept = sbanm.filter_separable([p for p, _ in cands], 0.10)
        params, sizes = cands[kept[0]]
        net, _ = sbanm.gen_network(params, sizes, substream(21, "network", kept[0]))
        net_path = tmp_path / "net.tsv"
        sbanm.write_network(net, str(net_path))
        assert cli_main([
            "select", "--input", str(net_path), "--qmin", "2", "--qmax", "7",
            "--seed", "21",
        ]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        table = dict(line.split("\t") for line in out_lines)
        best = int(table["best"])
        with capsys.disabled():
            report(4, "ICL selection", best == 5, f"(argmax {best}, true Q 5)")


class TestCriterion5PropertySuites:
    def test_property_suites_under_budget(self, tmp_path):
        t_start = time.time()
        failures = []

        # tau rows stay stochastic after every update (checked to 1e-10).
        net60, labels60, params60 = planted_network(seed=50)
        state = sbanm.spectral_init(net60, 3, 50)
        from sbanm.vem import _bootstrap_params

        from sbanm.vem import TAU_INNER_MAX

        boot = _bootstrap_params(net60, state)
        cfg = sbanm.FitConfig(Q=3, seed=50)
        tau, _ = sbanm.e_step(
            net60, boot, state, inner=TAU_INNER_MAX, damping=cfg.damping, tol=cfg.tol_tau
        )
        if np.max(np.abs(tau.sum(axis=1) - 1.0)) > 1e-10:
            failures.append("tau rows not stochastic after e_step")
        tau_svi, _ = sbanm.svi_e_step(net60, boot, state, 0, sbanm.SviConfig(a=20, seed=50))
        if np.max(np.abs(tau_svi.sum(axis=1) - 1.0)) > 1e-10:
            failures.append("tau rows not stochastic after svi_e_step")

        # full-batch ELBO non-decreasing within 1e-6 on 20 seeded 60-node fits
        # (VariationalState construction re-validates row sums each iteration).
        fixed = separable_params_2layer()
        worst = 0.0
        for s in range(20):
            net, _ = sbanm.gen_network(fixed, np.array([24, 20, 16]), substream(s, "c5"))
            result = sbanm.fit(net, sbanm.FitConfig(Q=3, seed=s))
            d = np.diff(result.elbo_trace)
            if d.size:
                worst = min(worst, float(d.min()))
        if worst < -1e-6:
            failures.append(f"ELBO decreased by {-worst:.2e}")

        # M-step estimators vs brute-force double-sum oracles on n <= 10.
        rng = substream(51, "oracle")
        net10 = sbanm.MultilayerNetwork(n=10, K=3, weights=rng.normal(size=(45, 3)))
        st10 = soft_state(10, 3, seed=51)
        noise = sbanm.NoiseParams(mu=rng.normal(size=3), var=rng.uniform(0.5, 2, 3))
        moments10 = sbanm.pair_moments(net10, st10.tau)
        got = sbanm.m_step_block(net10, st10, 1, noise, moments10)
        mu_o, var_o, rho_o = oracle_block_params(net10, st10, 1, noise)
        if not (
            np.allclose(got.mu, mu_o, atol=1e-10)
            and np.allclose(got.var, var_o, atol=1e-10)
            and abs(got.rho - rho_o) <= 1e-10
        ):
            failures.append("m_step_block differs from double-sum oracle")
        got_noise = sbanm.m_step_noise(net10, st10, moments10)
        mu_n, var_n = oracle_noise_params(net10, st10, sbanm.psi(3))
        if not (
            np.allclose(got_noise.mu, mu_n, atol=1e-10)
            and np.allclose(got_noise.var, var_n, atol=1e-10)
        ):
            failures.append("m_step_noise differs from double-sum oracle")

        # psi identity and the parameter-count formula.
        if not all(sbanm.psi(q) * q == q - 1 for q in range(1, 2001)):
            failures.append("psi(Q)*Q != Q-1")
        if sbanm.param_count(3, 4) != 33:
            failures.append("param_count(3,4) != 33")

        # ARI/NMI identity, permutation invariance, and the crossed oracle.
        a = np.array([0, 0, 1, 1, 2, 2])
        if sbanm.ari(a, a) != 1.0 or abs(sbanm.nmi(a, a) - 1.0) > 1e-12:
            failures.append("ARI/NMI identity")
        perm = np.array([2, 0, 1])
        if (
            sbanm.ari(perm[a], a) != 1.0
            or abs(sbanm.nmi(perm[a], a) - 1.0) > 1e-12
        ):
            failures.append("ARI/NMI permutation invariance")
        if abs(sbanm.ari([1, 1, 2, 2], [1, 2, 1, 2]) + 0.5) > 1e-12:
            failures.append("crossed-pair ARI != -0.5")

        # Fisher transform grid checks.
        grid = np.linspace(-0.999, 0.999, 201)
        vals = np.array([sbanm.fisher(r) for r in grid])
        if not (np.all(np.diff(vals) > 0) and np.allclose(vals, -vals[::-1])):
            failures.append("fisher not odd/increasing")
        if not np.allclose(np.tanh(vals), grid, atol=1e-12):
            failures.append("fisher inverse mismatch")

        # Network file round-trip byte identity.
        p1, p2 = tmp_path / "rt1.tsv", tmp_path / "rt2.tsv"
        sbanm.write_network(net60, str(p1))
        sbanm.write_network(sbanm.read_network(str(p1)), str(p2))
        if p1.read_bytes() != p2.read_bytes():
            failures.append("network round trip not byte-identical")

        # Seeded determinism of simulate/fit under --threads 1 vs 8.
        sim1, sim8 = tmp_path / "s1", tmp_path / "s8"
        for out in (sim1, sim8):
            cli_main(["simulate", "--layers", "2", "--nodes", "50", "--blocks", "3",
                      "--seed", "4", "--out", str(out)])
        fit1, fit8 = tmp_path / "f1", tmp_path / "f8"
        cli_main(["fit", "--input", str(sim1 / "net.tsv"), "--blocks", "3",
                  "--seed", "4", "--threads", "1", "--out", str(fit1)])
        cli_main(["fit", "--input", str(sim8 / "net.tsv"), "--blocks", "3",
                  "--seed", "4", "--threads", "8", "--out", str(fit8)])
        same = (
            (sim1 / "net.tsv").read_bytes() == (sim8 / "net.tsv").read_bytes()
            and (fit1 / "memberships.csv").read_bytes()
            == (fit8 / "memberships.csv").read_bytes()
            and (fit1 / "params.json").read_bytes()
            == (fit8 / "params.json").read_bytes()
        )
        if not same:
            failures.append("simulate/fit not deterministic across --threads")

        elapsed = time.time() - t_start
        if elapsed >= 60.0:
            failures.append(f"property suite took {elapsed:.1f}s (budget 60s)")
        report(
            5,
            "Property suites",
            not failures,
            f"({elapsed:.1f}s)" if not failures else f"({'; '.join(failures)})",
        )


class TestCriterion6SpectralSanity:
    def test_two_disjoint_cliques(self):
        n_per = 5
        n = 2 * n_per
        iu, ju = np.triu_indices(n, 1)
        same = (iu < n_per) == (ju < n_per)
        net = sbanm.MultilayerNetwork(
            n=n, K=1, weights=np.where(same, 1.0, 0.0)[:, None]
        )
        state = sbanm.spectral_init(net, 2, 0)
        labels = state.hard_membership()
        ok = (
            len(set(labels[:n_per])) == 1
            and len(set(labels[n_per:])) == 1
            and labels[0] != labels[-1]
        )
        report(6, "Spectral initialization sanity", ok, f"(labels {labels.tolist()})")
