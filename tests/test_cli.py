import argparse
import dataclasses
import logging
import os

import numpy as np
import pytest

import sbanm
from sbanm.cli import _build_parser, main

from conftest import planted_network, random_network


def run_cli(*argv):
    return main(list(argv))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture
def planted_files(tmp_path):
    net, labels, params = planted_network(sizes=(24, 20, 16), seed=30)
    net_path = tmp_path / "net.tsv"
    truth_path = tmp_path / "truth.csv"
    sbanm.write_network(net, str(net_path))
    tau = np.zeros((net.n, 3))
    tau[np.arange(net.n), labels] = 1.0
    sbanm.write_memberships(str(truth_path), labels, tau)
    return net_path, truth_path


class TestFitEvalRoundTrip:
    def test_fit_then_eval_reports_exact_recovery(self, planted_files, tmp_path, capsys):
        net_path, truth_path = planted_files
        out = tmp_path / "fit"
        assert run_cli("fit", "--input", str(net_path), "--blocks", "3",
                       "--seed", "7", "--out", str(out)) == 0
        assert (out / "memberships.csv").exists()
        assert (out / "params.json").exists()
        code = run_cli("eval", "--truth", str(truth_path),
                       "--pred", str(out / "memberships.csv"))
        assert code == 0
        lines = dict(
            line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["exact_recovery"] == "true"
        assert float(lines["ari"]) == 1.0
        assert float(lines["nmi"]) == 1.0

    def test_eval_rejects_merge_into_negative_block(self, planted_files, tmp_path, capsys):
        # The prediction merges truth blocks 1 and 2 into block -1.
        _, truth_path = planted_files
        _, truth, tau = sbanm.read_memberships(str(truth_path))
        pred_path = tmp_path / "pred.csv"
        sbanm.write_memberships(str(pred_path), np.where(truth == 0, 0, -1), tau)
        assert run_cli("eval", "--truth", str(truth_path), "--pred", str(pred_path)) == 0
        lines = dict(
            line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["exact_recovery"] == "false"

    def test_params_json_contract(self, planted_files, tmp_path):
        net_path, _ = planted_files
        out = tmp_path / "fit"
        run_cli("fit", "--input", str(net_path), "--blocks", "3",
                "--seed", "7", "--out", str(out))
        params, extras = sbanm.read_params(str(out / "params.json"))
        assert params.Q == 3 and params.noise_block is not None
        assert extras["seed"] == 7
        assert extras["elbo"] is not None and extras["icl"] is not None

    def test_same_invocation_is_byte_identical(self, planted_files, tmp_path):
        net_path, _ = planted_files
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("fit", "--input", str(net_path), "--blocks", "3",
                    "--seed", "3", "--out", str(out))
        assert read_bytes(a / "memberships.csv") == read_bytes(b / "memberships.csv")
        assert read_bytes(a / "params.json") == read_bytes(b / "params.json")

    def test_threads_flag_does_not_change_results(self, planted_files, tmp_path):
        net_path, _ = planted_files
        a, b = tmp_path / "t1", tmp_path / "t8"
        run_cli("fit", "--input", str(net_path), "--blocks", "3", "--seed", "3",
                "--threads", "1", "--out", str(a))
        run_cli("fit", "--input", str(net_path), "--blocks", "3", "--seed", "3",
                "--threads", "8", "--out", str(b))
        assert read_bytes(a / "memberships.csv") == read_bytes(b / "memberships.csv")
        assert read_bytes(a / "params.json") == read_bytes(b / "params.json")

    def test_svi_flag_round_trip(self, planted_files, tmp_path, capsys):
        net_path, truth_path = planted_files
        out = tmp_path / "svi"
        assert run_cli("fit", "--input", str(net_path), "--blocks", "3", "--seed", "7",
                       "--svi", "20", "--out", str(out)) == 0
        run_cli("eval", "--truth", str(truth_path),
                "--pred", str(out / "memberships.csv"))
        lines = dict(
            line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["exact_recovery"] == "true"

    def test_svi_flag_without_size_uses_the_default(self, tmp_path, capsys):
        # 210 nodes: the first two steps run on subsamples of 150 and 202.
        net, _, _ = planted_network(sizes=(80, 70, 60), seed=31)
        net_path, out = tmp_path / "net.tsv", tmp_path / "svi"
        sbanm.write_network(net, str(net_path))
        svi = sbanm.SviConfig(a=150, seed=7)
        assert sbanm.subsample_size(1, svi, net.n) < net.n
        assert run_cli("fit", "--input", str(net_path), "--blocks", "3", "--seed", "7",
                       "--svi", "--out", str(out)) == 0
        assert " svi=150 " in capsys.readouterr().err.splitlines()[0]
        want = sbanm.fit(net, sbanm.FitConfig(Q=3, seed=7), svi=svi)
        _, hard, _ = sbanm.read_memberships(str(out / "memberships.csv"))
        _, extras = sbanm.read_params(str(out / "params.json"))
        assert np.array_equal(hard, want.hard_membership)
        assert extras["elbo"] == want.elbo


    def test_unconverged_fit_reports_last_iterate(self, planted_files, tmp_path, capsys):
        net_path, _ = planted_files
        out = tmp_path / "short"
        assert run_cli("fit", "--input", str(net_path), "--blocks", "3", "--seed", "7",
                       "--max-iter", "1", "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert "fit did not converge; last iterate written" in err
        assert (out / "memberships.csv").exists()

    def test_svi_schedule_short_of_the_whole_graph_never_converges(
        self, planted_files, tmp_path, capsys
    ):
        # Only full-batch steps run the convergence tests.  With a = 3 the
        # subsample first covers the 60 nodes at step 39, so a fit of 20
        # iterations runs them all and reports no convergence; full batch
        # converges on the same network.
        net_path, _ = planted_files
        net = sbanm.read_network(str(net_path))
        cfg = sbanm.FitConfig(Q=3, max_outer=20, seed=7)
        svi = sbanm.SviConfig(a=3, seed=7)
        assert sbanm.subsample_size(cfg.max_outer - 1, svi, net.n) < net.n
        result = sbanm.fit(net, cfg, svi=svi)
        assert not result.converged
        assert len(result.elbo_trace) == cfg.max_outer
        assert sbanm.fit(net, cfg).converged
        assert run_cli("fit", "--input", str(net_path), "--blocks", "3", "--seed", "7",
                       "--svi", "3", "--max-iter", "20",
                       "--out", str(tmp_path / "svi")) == 0
        assert "warning: fit did not converge; last iterate written\n" in capsys.readouterr().err

    def test_empty_block_is_named(self, planted_files, tmp_path, capsys, monkeypatch):
        # A fit whose hard partition leaves block 1 without a node and whose
        # ELBO falls at two iterations: the real fit's result with its
        # partition and trace replaced, since the inputs that once gave both
        # (demo 02's network at Q=5 among them) now fit without either.
        # The CLI names both, exits 0 and writes its files.
        real_fit = sbanm.vem.fit

        def flawed_fit(*args, **kwargs):
            result = real_fit(*args, **kwargs)
            hard = np.where(result.hard_membership == 1, 0, result.hard_membership)
            trace = np.array([-110.0, -100.0, -100.5, -90.0, -90.002])
            return dataclasses.replace(result, hard_membership=hard, elbo_trace=trace)

        monkeypatch.setattr(sbanm.vem, "fit", flawed_fit)
        net_path, _ = planted_files
        out = tmp_path / "fit"
        assert run_cli("fit", "--input", str(net_path), "--blocks", "3",
                       "--seed", "7", "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert "warning: Q=3: no node assigned to block(s) 1\n" in err
        assert (
            "warning: Q=3: ELBO decreased at iteration(s) 2, 4 "
            "(largest relative drop 5.00e-03)\n" in err
        )
        assert "did not converge" not in err
        assert (out / "memberships.csv").exists()

    @pytest.mark.parametrize("drop, warned", [(0.5e-8, False), (2e-8, True)],
                             ids=["below-tol-elbo", "above-tol-elbo"])
    def test_elbo_drop_warning_threshold_is_tol_elbo(
        self, planted_files, tmp_path, capsys, monkeypatch, drop, warned
    ):
        # The CLI warns of an ELBO fall only where it exceeds vem.TOL_ELBO
        # times the previous magnitude.
        real_fit = sbanm.vem.fit

        def falling_fit(*args, **kwargs):
            result = real_fit(*args, **kwargs)
            trace = np.array([-110.0, -100.0, -100.0 * (1.0 + drop)])
            return dataclasses.replace(result, elbo_trace=trace)

        monkeypatch.setattr(sbanm.vem, "fit", falling_fit)
        net_path, _ = planted_files
        assert run_cli("fit", "--input", str(net_path), "--blocks", "3",
                       "--seed", "7", "--out", str(tmp_path / "fit")) == 0
        err = capsys.readouterr().err
        assert ("warning: Q=3: ELBO decreased at iteration(s) 2 " in err) == warned

    def test_separable_seed_37_is_recovered(self, tmp_path, capsys):
        # On this separable candidate, blending each block with the noise
        # law loses block 2 in the first iteration (ARI 0.810); the fit
        # must recover the planted partition without a warning.
        sim, out = tmp_path / "sim", tmp_path / "fit"
        assert run_cli("simulate", "--layers", "2", "--nodes", "300", "--blocks", "3",
                       "--candidates", "20", "--keep-frac", "0.05", "--seed", "37",
                       "--out", str(sim)) == 0
        assert run_cli("fit", "--input", str(sim / "net.tsv"), "--blocks", "3",
                       "--seed", "37", "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert "warning:" not in err
        run_cli("eval", "--truth", str(sim / "truth.csv"),
                "--pred", str(out / "memberships.csv"))
        lines = dict(
            line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["exact_recovery"] == "true"

    def test_experiment2_fit_has_no_empty_block(self, tmp_path, capsys):
        sim, out = tmp_path / "sim", tmp_path / "fit"
        assert run_cli("simulate", "--layers", "3", "--nodes", "300", "--experiment2",
                       "--seed", "4", "--out", str(sim)) == 0
        assert run_cli("fit", "--input", str(sim / "net.tsv"), "--blocks", "4",
                       "--seed", "4", "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert "no node assigned" not in err
        assert "ELBO decreased" not in err


class TestSimulate:
    def test_simulate_emits_artifacts(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run_cli("simulate", "--layers", "2", "--nodes", "60", "--blocks", "3",
                       "--candidates", "1", "--seed", "5", "--out", str(out))
        assert code == 0
        for name in ("net.tsv", "truth.csv", "params.json"):
            assert (out / name).exists()
        net = sbanm.read_network(str(out / "net.tsv"))
        assert net.n == 60 and net.K == 2
        params, extras = sbanm.read_params(str(out / "params.json"))
        assert params.noise_block == 0 and extras["seed"] == 5

    def test_simulate_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("simulate", "--layers", "2", "--nodes", "50", "--blocks", "3",
                    "--seed", "9", "--out", str(out))
        assert read_bytes(a / "net.tsv") == read_bytes(b / "net.tsv")
        assert read_bytes(a / "truth.csv") == read_bytes(b / "truth.csv")

    def test_candidate_filtering_layout(self, tmp_path):
        out = tmp_path / "multi"
        run_cli("simulate", "--layers", "2", "--nodes", "50", "--blocks", "3-4",
                "--candidates", "20", "--keep-frac", "0.1", "--seed", "2",
                "--out", str(out))
        dirs = sorted(d for d in os.listdir(out) if d.startswith("cand"))
        assert len(dirs) == 2  # ceil(0.1 * 20)
        for d in dirs:
            assert (out / d / "net.tsv").exists()

    def test_experiment2_keeps_every_candidate(self, tmp_path, capsys):
        # --keep-frac filters --blocks candidates only.
        out = tmp_path / "exp2"
        assert run_cli("simulate", "--layers", "3", "--nodes", "300", "--experiment2",
                       "--candidates", "3", "--keep-frac", "0.1", "--seed", "4",
                       "--out", str(out)) == 0
        assert "kept candidates: [0, 1, 2]\n" in capsys.readouterr().err
        assert sorted(d for d in os.listdir(out) if d.startswith("cand")) == [
            "cand000", "cand001", "cand002"
        ]

    def test_keep_frac_help_names_its_scope(self, capsys):
        assert run_cli("simulate", "--help") == 0
        assert (
            "share of --blocks candidates kept by the separability filter; "
            "--experiment2 keeps every candidate"
        ) in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize(
        "flags, draw",
        [
            pytest.param(["--layers", "2", "--nodes", "40", "--blocks", "3", "--candidates", "4"],
                         (40, 2, 3, 4, 0.1), id="layers2"),
            pytest.param(["--layers", "3", "--nodes", "40", "--blocks", "3-5", "--candidates", "6",
                          "--keep-frac", "0.3"], (40, 3, (3, 5), 6, 0.3), id="layers3-range"),
            pytest.param(["--layers", "1", "--nodes", "30", "--blocks", "3", "--candidates", "3"],
                         (30, 1, 3, 3, 0.1), id="layers1-fallback"),
            pytest.param(["--layers", "4", "--nodes", "30", "--blocks", "3", "--candidates", "3",
                          "--keep-frac", "1"], (30, 4, 3, 3, 1.0), id="layers4-fallback"),
            pytest.param(["--layers", "3", "--nodes", "300", "--experiment2", "--candidates", "2"],
                         None, id="experiment2"),
        ],
    )
    def test_files_are_the_library_draw(self, tmp_path, capsys, flags, draw):
        # `sbanm simulate` writes the networks of sbanm.simulate's draw,
        # through the library writers, byte for byte.
        sim = tmp_path / "sim"
        assert run_cli("simulate", *flags, "--seed", "6", "--out", str(sim)) == 0
        if draw is None:
            params, sizes = sbanm.experiment2_spec()
            kept = [(i, params, sizes) for i in range(2)]
        else:
            n, K, Q, candidates, keep_frac = draw
            kept = sbanm.draw_separable(sbanm.experiment1_spec(n, K, Q), 6, candidates, keep_frac)
        assert f"kept candidates: {[i for i, _, _ in kept]}\n" in capsys.readouterr().err
        dirs = [f"cand{i:03d}" for i, _, _ in kept] if len(kept) > 1 else []
        assert sorted(os.listdir(sim)) == (dirs or ["net.tsv", "params.json", "truth.csv"])
        for i, params, sizes in kept:
            got = sim / f"cand{i:03d}" if dirs else sim
            want = tmp_path / "lib" / str(i)
            want.mkdir(parents=True)
            net, labels = sbanm.candidate_network(params, sizes, 6, i)
            sbanm.write_network(net, str(want / "net.tsv"))
            sbanm.write_memberships(str(want / "truth.csv"), labels, np.eye(params.Q)[labels])
            sbanm.write_params(str(want / "params.json"), params, seed=6)
            for name in ("net.tsv", "truth.csv", "params.json"):
                assert read_bytes(got / name) == read_bytes(want / name), name

    def test_experiment2_requires_matching_shape(self, tmp_path, capsys):
        code = run_cli("simulate", "--layers", "2", "--nodes", "300",
                       "--experiment2", "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert "sbanm: data error: --experiment2 requires --layers 3 --nodes 300\n" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(["--layers", "2", "--nodes", "5", "--blocks", "3"],
                         "n=5 is too small for 3 blocks of at least 3 nodes", id="few-nodes"),
            pytest.param(["--layers", "0", "--nodes", "30", "--blocks", "3"],
                         "K must be at least 1", id="no-layers"),
            pytest.param(["--layers", "-1", "--nodes", "30", "--blocks", "3"],
                         "K must be at least 1", id="negative-layers"),
            pytest.param(["--layers", "2", "--nodes", "30", "--blocks", "3", "--keep-frac", "0"],
                         "keep_frac must lie in (0, 1]", id="keep-frac-0"),
        ],
    )
    def test_impossible_settings_are_data_errors(self, tmp_path, capsys, flags, message):
        code = run_cli("simulate", *flags, "--seed", "1", "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"sbanm: data error: {message}" in err
        assert "kept candidates" not in err


class TestSelect:
    def test_select_prints_table_and_argmax(self, planted_files, tmp_path, capsys):
        net_path, _ = planted_files
        code = run_cli("select", "--input", str(net_path), "--qmin", "2",
                       "--qmax", "4", "--seed", "3")
        assert code == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        table = [ln.split("\t") for ln in out_lines]
        assert [row[0] for row in table] == ["2", "3", "4", "best"]
        icls = {int(row[0]): float(row[1]) for row in table[:-1]}
        assert int(table[-1][1]) == max(icls, key=icls.get) == 3

    def test_qmax_not_below_n_fails_before_any_fit(self, tmp_path, capsys, caplog):
        # The fits log each outer iteration as `iter=...`; none may run.
        caplog.set_level(logging.INFO)
        net_path = tmp_path / "net.tsv"
        sbanm.write_network(random_network(12, 2, seed=4), str(net_path))
        code = run_cli("select", "--input", str(net_path), "--qmin", "2", "--qmax", "12")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines()[1:] == [
            "sbanm: data error: need more nodes than blocks: qmax=12, n=12"
        ]
        assert captured.out == ""
        assert "iter=" not in caplog.text


class TestBuildNet:
    def test_fisher_agreement(self, tmp_path):
        resp = tmp_path / "resp.csv"
        resp.write_text(
            "subject,anx:q1,anx:q2,mood:q1,mood:q2\n"
            "s1,1,1,0,NA\n"
            "s2,1,0,0,1\n"
            "s3,0,0,1,1\n"
        )
        out = tmp_path / "built"
        assert run_cli("build-net", "--responses", str(resp),
                       "--transform", "fisher-agreement", "--out", str(out)) == 0
        net = sbanm.read_network(str(out / "net.tsv"))
        assert net.n == 3 and net.K == 2
        # pair (s1,s2) anx: items (y,y),(y,n) -> r = 1/2
        assert net.weights[0, 0] == pytest.approx(np.arctanh(0.5), abs=1e-12)

    def test_logit_strength(self, tmp_path):
        counts = sbanm.MultilayerNetwork(
            n=3, K=1, weights=np.array([[1.0], [3.0], [0.0]])
        )
        src = tmp_path / "counts.tsv"
        sbanm.write_network(counts, str(src))
        out = tmp_path / "norm"
        assert run_cli("build-net", "--responses", str(src),
                       "--transform", "logit-strength", "--out", str(out)) == 0
        net = sbanm.read_network(str(out / "net.tsv"))
        assert net.weights[0, 0] == pytest.approx(np.log(0.25 / 0.75), abs=1e-12)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert run_cli("fit", "--nonsense", "1") == 1

    @pytest.mark.parametrize(
        "argv",
        [["fit", "--blocks", "3", "--out", "o"], ["select", "--qmin", "2", "--qmax", "3"]],
    )
    @pytest.mark.parametrize(
        "flag",
        ["--damping", "--svi-kappa-m", "--svi-kappa-w", "--svi-a", "--tol-elbo", "--tol-tau"],
    )
    def test_step_size_flags_are_gone(self, argv, flag, capsys):
        # The step sizes and stopping tolerances are module constants, and
        # `--svi A` sets the subsample size.
        assert run_cli(*argv, "--input", "net.tsv", "--svi", flag, "2") == 1
        assert f"error: unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli() == 1

    def test_malformed_network_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a network\n")
        assert run_cli("fit", "--input", str(bad), "--blocks", "2",
                       "--out", str(tmp_path / "o")) == 2

    def test_large_declared_n_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("#sbanm-net v1 n=3000000 K=2\n0\t1\t1\t2\n")
        assert run_cli("fit", "--input", str(bad), "--blocks", "2",
                       "--out", str(tmp_path / "o")) == 2
        assert "incomplete dense pair list (1 of 4499998500000 pairs)" in capsys.readouterr().err

    def test_undecodable_network_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"#sbanm-net v1 n=2 K=1\n0\t1\t\xff\n")
        assert run_cli("fit", "--input", str(bad), "--blocks", "2",
                       "--out", str(tmp_path / "o")) == 2
        assert f"{bad}:2: not valid UTF-8" in capsys.readouterr().err

    def test_undecodable_truth_is_data_error(self, planted_files, tmp_path, capsys):
        _, truth_path = planted_files
        bad = tmp_path / "bad.csv"
        bad.write_bytes(truth_path.read_bytes().replace(b"\n1,", b"\n\xff,", 1))
        assert run_cli("eval", "--truth", str(bad), "--pred", str(truth_path)) == 2
        assert f"{bad}:3: not valid UTF-8" in capsys.readouterr().err

    def test_svi_base_size_below_q_is_data_error(self, planted_files, tmp_path, capsys,
                                                 monkeypatch):
        def no_init(*args):
            raise AssertionError("spectral_init reached")

        monkeypatch.setattr(sbanm.vem, "spectral_init", no_init)
        net_path, _ = planted_files
        assert run_cli("fit", "--input", str(net_path), "--blocks", "3", "--svi",
                       "2", "--out", str(tmp_path / "o")) == 2
        assert "subsample too small for Q blocks" in capsys.readouterr().err

    def test_negative_counts_for_logit_strength_are_data_error(self, tmp_path, capsys):
        counts = sbanm.MultilayerNetwork(
            n=3, K=2, weights=np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 1.0]])
        )
        src = tmp_path / "counts.tsv"
        sbanm.write_network(counts, str(src))
        assert run_cli("build-net", "--responses", str(src), "--transform", "logit-strength",
                       "--out", str(tmp_path / "norm")) == 2
        assert "layer 1 has a negative weight" in capsys.readouterr().err

    def test_missing_file_is_plain_error(self, tmp_path):
        assert run_cli("fit", "--input", str(tmp_path / "nope.tsv"), "--blocks", "2",
                       "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize(
        "argv",
        [["fit", "--blocks", "3", "--out", "o"], ["select", "--qmin", "2", "--qmax", "3"]],
    )
    def test_fit_flag_defaults_are_the_config_defaults(self, argv):
        args = _build_parser().parse_args([*argv, "--input", "net.tsv"])
        fit_defaults = {f.name: f.default for f in dataclasses.fields(sbanm.FitConfig)}
        assert (args.max_iter, args.seed) == (fit_defaults["max_outer"], fit_defaults["seed"])
        assert args.svi is None
        bare = _build_parser().parse_args([*argv, "--input", "net.tsv", "--svi"])
        assert bare.svi == sbanm.SviConfig.a

    @pytest.mark.parametrize("command, flags", [
        ("fit", ["--blocks", "--input", "--max-iter", "--out", "--seed", "--svi", "--threads"]),
        ("select",
         ["--input", "--max-iter", "--qmax", "--qmin", "--seed", "--svi", "--threads"]),
    ])
    def test_fit_commands_take_seven_flags(self, command, flags):
        parser = _build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = [a.option_strings[0] for a in sub.choices[command]._actions
                   if a.dest != "help"]
        assert sorted(options) == flags

    def test_default_config_echo(self, tmp_path, capsys):
        run_cli("fit", "--input", str(tmp_path / "nope.tsv"), "--blocks", "3", "--out", "o")
        assert capsys.readouterr().err.splitlines()[0] == (
            f"sbanm fit: blocks=3 input={tmp_path / 'nope.tsv'} max_iter=200 "
            "out=o seed=0 svi=None threads=1"
        )

    def test_config_echoed_to_stderr(self, planted_files, tmp_path, capsys):
        net_path, _ = planted_files
        run_cli("fit", "--input", str(net_path), "--blocks", "3", "--seed", "11",
                "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert "sbanm fit:" in err and "seed=11" in err
