import os

import numpy as np
import pytest

import sbanm
from sbanm.cli import main

from conftest import planted_network


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
                       "--svi", "--svi-a", "20", "--out", str(out)) == 0
        run_cli("eval", "--truth", str(truth_path),
                "--pred", str(out / "memberships.csv"))
        lines = dict(
            line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["exact_recovery"] == "true"


    def test_unconverged_fit_reports_last_iterate(self, planted_files, tmp_path, capsys):
        net_path, _ = planted_files
        out = tmp_path / "short"
        assert run_cli("fit", "--input", str(net_path), "--blocks", "3", "--seed", "7",
                       "--max-iter", "1", "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert "fit did not converge; last iterate written" in err
        assert (out / "memberships.csv").exists()

    def test_empty_block_is_named(self, tmp_path, capsys):
        # On this separable candidate the fit empties block 2 in its first
        # E-step, its ELBO falls by 22.1 from iteration 0 to 1, and it
        # still converges.
        sim, out = tmp_path / "sim", tmp_path / "fit"
        assert run_cli("simulate", "--layers", "2", "--nodes", "300", "--blocks", "3",
                       "--candidates", "20", "--keep-frac", "0.05", "--seed", "37",
                       "--out", str(sim)) == 0
        assert run_cli("fit", "--input", str(sim / "net.tsv"), "--blocks", "3",
                       "--seed", "37", "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert "warning: Q=3: no node assigned to block(s) 2\n" in err
        assert (
            "warning: Q=3: ELBO decreased at iteration(s) 1 (largest relative drop 1.38e-04)\n"
            in err
        )
        assert "did not converge" not in err
        assert (out / "memberships.csv").exists()

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

    def test_experiment2_requires_matching_shape(self, tmp_path):
        code = run_cli("simulate", "--layers", "2", "--nodes", "300",
                       "--experiment2", "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 2

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

    def test_negative_svi_kappa_m_is_data_error(self, planted_files, tmp_path, capsys):
        net_path, _ = planted_files
        assert run_cli("fit", "--input", str(net_path), "--blocks", "3", "--svi",
                       "--svi-kappa-m", "-1", "--out", str(tmp_path / "o")) == 2
        assert "kappa_m must be nonnegative" in capsys.readouterr().err

    def test_infinite_svi_kappa_m_is_data_error(self, planted_files, tmp_path, capsys):
        net_path, _ = planted_files
        assert run_cli("fit", "--input", str(net_path), "--blocks", "3", "--svi",
                       "--svi-kappa-m", "inf", "--out", str(tmp_path / "o")) == 2
        assert "kappa_m must be nonnegative and finite" in capsys.readouterr().err

    def test_svi_base_size_below_q_is_data_error(self, planted_files, tmp_path, capsys,
                                                 monkeypatch):
        def no_init(*args):
            raise AssertionError("spectral_init reached")

        monkeypatch.setattr(sbanm.vem, "spectral_init", no_init)
        net_path, _ = planted_files
        assert run_cli("fit", "--input", str(net_path), "--blocks", "3", "--svi",
                       "--svi-a", "2", "--out", str(tmp_path / "o")) == 2
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

    @pytest.mark.parametrize("flag", ["--tol-elbo", "--tol-tau"])
    def test_nan_tolerance_is_data_error(self, planted_files, tmp_path, capsys, flag):
        net_path, _ = planted_files
        assert run_cli("fit", "--input", str(net_path), "--blocks", "3", flag, "nan",
                       "--out", str(tmp_path / "o")) == 2
        assert "tolerances must be finite and positive" in capsys.readouterr().err

    def test_missing_file_is_plain_error(self, tmp_path):
        assert run_cli("fit", "--input", str(tmp_path / "nope.tsv"), "--blocks", "2",
                       "--out", str(tmp_path / "o")) == 1

    def test_config_echoed_to_stderr(self, planted_files, tmp_path, capsys):
        net_path, _ = planted_files
        run_cli("fit", "--input", str(net_path), "--blocks", "3", "--seed", "11",
                "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert "sbanm fit:" in err and "seed=11" in err
