import warnings

import numpy as np
import pytest

from lowrank import cli
from lowrank.cli import main
from lowrank.datasets import load_matrix, save_matrix


def run(*argv):
    return main(list(argv))


def synth(tmp_path, name="truth", rows=30, cols=30, rank=3, spike=0.1,
          obs=1.0, seed=0):
    out = tmp_path / name
    code = run(
        "synth", "--rows", str(rows), "--cols", str(cols), "--rank",
        str(rank), "--spike-frac", str(spike), "--obs-frac", str(obs),
        "--seed", str(seed), "--out-dir", str(out),
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_all_problem_files(self, tmp_path):
        out = synth(tmp_path, rows=50, cols=50)
        for name in ("d_obs.txt", "l0.txt", "s0.txt", "mask.txt"):
            assert (out / name).exists()
        assert load_matrix(out / "d_obs.txt").shape == (50, 50)

    def test_full_mask_lists_every_entry(self, tmp_path):
        out = synth(tmp_path, rows=50, cols=50, obs=1.0)
        lines = (out / "mask.txt").read_text().splitlines()
        assert len(lines) == 1 + 2500  # header plus one line per entry

    def test_byte_identical_for_same_seed(self, tmp_path):
        a = synth(tmp_path, name="a", seed=9)
        b = synth(tmp_path, name="b", seed=9)
        for name in ("d_obs.txt", "l0.txt", "s0.txt", "mask.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_rank_flag_is_usage_error(self, tmp_path, capsys):
        code = run("synth", "--rows", "5", "--cols", "5",
                   "--out-dir", str(tmp_path / "x"))
        assert code == 2

    def test_invalid_rank_value(self, tmp_path, capsys):
        code = run("synth", "--rows", "5", "--cols", "5", "--rank", "9",
                   "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSolveCommands:
    def test_rpca_then_eval_pipeline(self, tmp_path, capsys):
        truth = synth(tmp_path, rows=60, cols=60, rank=3, spike=0.1)
        est = tmp_path / "est"
        code = run("rpca", "--data", str(truth / "d_obs.txt"),
                   "--rank", "6", "--out-dir", str(est))
        out = capsys.readouterr().out
        assert code == 0
        assert "termination=converged" in out
        for name in ("U.txt", "V.txt", "S.txt", "trace.csv"):
            assert (est / name).exists()

        code = run("eval", "--estimate-dir", str(est),
                   "--truth-dir", str(truth), "--metric", "relerr")
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("metric=relerr value=")
        assert float(line.split("=")[-1]) <= 1e-2

        code = run("eval", "--estimate-dir", str(est),
                   "--truth-dir", str(truth), "--metric", "auc")
        assert code == 0
        assert float(capsys.readouterr().out.strip().split("=")[-1]) >= 0.95

    def test_rmc_with_partial_mask(self, tmp_path, capsys):
        truth = synth(tmp_path, rows=40, cols=40, rank=2, spike=0.05, obs=0.8)
        est = tmp_path / "est"
        code = run("rmc", "--data", str(truth / "d_obs.txt"),
                   "--mask", str(truth / "mask.txt"),
                   "--rank", "4", "--out-dir", str(est))
        assert code == 0
        s = load_matrix(est / "S.txt")
        assert s.shape == (40, 40)

    def test_mc_command_runs(self, tmp_path, capsys):
        truth = synth(tmp_path, rows=30, cols=25, rank=2, spike=0.0, obs=0.7)
        est = tmp_path / "est"
        code = run("mc", "--data", str(truth / "d_obs.txt"),
                   "--mask", str(truth / "mask.txt"), "--lambda", "0.1",
                   "--rank", "4", "--tol", "1e-6", "--max-iter", "800",
                   "--out-dir", str(est))
        assert code == 0
        assert np.all(load_matrix(est / "S.txt") == 0)

    def test_iteration_cap_exit_code_still_writes_outputs(self, tmp_path,
                                                          capsys):
        truth = synth(tmp_path, rows=30, cols=30, rank=3, spike=0.1)
        est = tmp_path / "est"
        code = run("rpca", "--data", str(truth / "d_obs.txt"),
                   "--rank", "6", "--max-iter", "3", "--out-dir", str(est))
        assert code == 3
        assert "termination=max_iter_reached" in capsys.readouterr().out
        assert (est / "U.txt").exists()
        assert len((est / "trace.csv").read_text().splitlines()) == 4

    def test_solver_has_no_seed_flag(self, tmp_path, capsys):
        # no solver draws random numbers; the seed belongs to synth
        truth = synth(tmp_path, rows=20, cols=20, rank=2)
        code = run("rpca", "--data", str(truth / "d_obs.txt"), "--seed", "1",
                   "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_invalid_tol_rejected(self, tmp_path, capsys):
        truth = synth(tmp_path)
        code = run("rpca", "--data", str(truth / "d_obs.txt"),
                   "--tol", "0", "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_aggressive_rho_warns_but_proceeds(self, tmp_path, capsys):
        truth = synth(tmp_path, rows=20, cols=20, rank=2)
        with pytest.warns(UserWarning, match="rho"):
            code = run("rpca", "--data", str(truth / "d_obs.txt"),
                       "--rank", "4", "--rho", "1.5",
                       "--out-dir", str(tmp_path / "est"))
        assert code in (0, 3)
        assert (tmp_path / "est" / "U.txt").exists()

    def test_rho_warning_printed_once(self, tmp_path, capsys):
        truth = synth(tmp_path, rows=20, cols=20, rank=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("rpca", "--data", str(truth / "d_obs.txt"),
                       "--rank", "4", "--rho", "1.5",
                       "--out-dir", str(tmp_path / "est"))
        assert code in (0, 3)
        assert len([w for w in caught if "rho" in str(w.message)]) == 1

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_cpcp_adjust_rank_rejected_before_draw(self, tmp_path, capsys,
                                                   monkeypatch, how):
        def no_draw(*args, **kwargs):
            raise AssertionError("subspace drawn")

        monkeypatch.setattr(cli, "draw_random_subspace", no_draw)
        meas = tmp_path / "y.txt"
        save_matrix(meas, np.ones((10, 1)))
        extra = ["--adjust-rank"]
        if how == "config":
            config = tmp_path / "solver.cfg"
            config.write_text("adjust_rank = true\n")
            extra = ["--config", str(config)]
        code = run("cpcp", "--measurements", str(meas), "--rows", "5",
                   "--cols", "5", "--subspace-seed", "1", "--subspace-dim",
                   "10", "--rank", "2", *extra,
                   "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert "adjust_rank" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("command", ["rmc", "mc", "rpca", "cpcp"])
    def test_rank_above_shape_is_invalid_configuration(self, tmp_path, capsys,
                                                       monkeypatch, command):
        def no_draw(*args, **kwargs):
            raise AssertionError("subspace drawn")

        monkeypatch.setattr(cli, "draw_random_subspace", no_draw)
        truth = synth(tmp_path, rows=20, cols=15, rank=2, obs=0.8)
        if command == "cpcp":
            meas = tmp_path / "y.txt"
            save_matrix(meas, np.ones((10, 1)))
            inputs = ["--measurements", str(meas), "--rows", "20", "--cols",
                      "15", "--subspace-seed", "1", "--subspace-dim", "10"]
        else:
            inputs = ["--data", str(truth / "d_obs.txt")]
            if command != "rpca":
                inputs += ["--mask", str(truth / "mask.txt")]
        code = run(command, *inputs, "--rank", "16",
                   "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert "rank bound d=16 exceeds min(m, n)=15" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("command", ["rmc", "mc"])
    def test_mask_shape_mismatch_is_invalid_input(self, tmp_path, capsys,
                                                  monkeypatch, command):
        def no_solve(*args, **kwargs):
            raise AssertionError("solver called")

        monkeypatch.setattr(cli, f"solve_{command}", no_solve)
        data = synth(tmp_path, name="a", rows=20, cols=15, rank=2, obs=0.8)
        mask = synth(tmp_path, name="b", rows=15, cols=20, rank=2, obs=0.8)
        code = run(command, "--data", str(data / "d_obs.txt"),
                   "--mask", str(mask / "mask.txt"), "--rank", "2",
                   "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert "mask shape (15, 20) != data (20, 15)" in \
            capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("dim, entries, message", [
        (0, 10, "subspace dimension 0 out of range [1, 25]"),
        (26, 26, "subspace dimension 26 out of range [1, 25]"),
        (10, 12, "12 measurements != dimension 10"),
    ])
    def test_cpcp_invalid_measurements_rejected_before_draw(
            self, tmp_path, capsys, monkeypatch, dim, entries, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("subspace drawn")

        monkeypatch.setattr(cli, "draw_random_subspace", no_draw)
        meas = tmp_path / "y.txt"
        save_matrix(meas, np.ones((entries, 1)))
        code = run("cpcp", "--measurements", str(meas), "--rows", "5",
                   "--cols", "5", "--subspace-seed", "1", "--subspace-dim",
                   str(dim), "--rank", "2", "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        truth = synth(tmp_path, rows=20, cols=20, rank=2)
        config = tmp_path / "solver.cfg"
        config.write_text("rank = 4\nmax_iter = 2\n# comment\ntol = 1e-4\n")
        est = tmp_path / "est"
        code = run("rpca", "--data", str(truth / "d_obs.txt"),
                   "--config", str(config), "--max-iter", "400",
                   "--out-dir", str(est))
        # the explicit flag must override the file's two-iteration cap
        assert code == 0
        assert load_matrix(est / "U.txt").shape == (20, 4)

    def test_config_bool_must_be_true_or_false(self, tmp_path, capsys):
        truth = synth(tmp_path, rows=20, cols=20, rank=2)
        config = tmp_path / "solver.cfg"
        config.write_text("rank = 4\nadjust_rank = ture\n")
        code = run("rpca", "--data", str(truth / "d_obs.txt"),
                   "--config", str(config), "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert "adjust_rank" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

        config.write_text("rank = 4\nadjust_rank = TRUE\n")
        code = run("rpca", "--data", str(truth / "d_obs.txt"),
                   "--config", str(config), "--out-dir", str(tmp_path / "est"))
        assert code == 0

    @pytest.mark.parametrize("line", ["rnak = 4", "seed = 3"])
    def test_config_unknown_key_is_rejected(self, tmp_path, capsys, line):
        truth = synth(tmp_path, rows=20, cols=20, rank=2)
        config = tmp_path / "solver.cfg"
        config.write_text(f"max_iter = 50\n{line}\n")
        code = run("rpca", "--data", str(truth / "d_obs.txt"),
                   "--config", str(config), "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert repr(line.split()[0]) in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    def test_missing_data_file_is_io_error(self, tmp_path, capsys):
        code = run("rpca", "--data", str(tmp_path / "nope.txt"),
                   "--out-dir", str(tmp_path / "est"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_cpcp_round_trip(self, tmp_path, capsys):
        from lowrank.datasets import generate_planted, save_matrix
        from lowrank.measurements import draw_random_subspace

        prob = generate_planted(12, 12, 2, spike_frac=0.05, seed=3)
        q = draw_random_subspace(12, 12, 100, seed=77)
        y = q.forward(prob.l0 + prob.s0)
        meas = tmp_path / "y.txt"
        save_matrix(meas, y.reshape(-1, 1))
        est = tmp_path / "est"
        code = run("cpcp", "--measurements", str(meas), "--rows", "12",
                   "--cols", "12", "--subspace-seed", "77",
                   "--subspace-dim", "100", "--rank", "4",
                   "--tol", "1e-8", "--out-dir", str(est))
        assert code in (0, 3)
        u = load_matrix(est / "U.txt")
        v = load_matrix(est / "V.txt")
        assert u.shape == (12, 4) and v.shape == (12, 4)
        header = (est / "trace.csv").read_text().splitlines()[0]
        assert "stop_ratio" in header


class TestEval:
    def test_rmse_requires_test_file(self, tmp_path, capsys):
        truth = synth(tmp_path)
        code = run("eval", "--estimate-dir", str(truth),
                   "--truth-dir", str(truth), "--metric", "rmse")
        assert code == 2
        assert "--test-file" in capsys.readouterr().err

    def test_rmse_from_fixture(self, tmp_path, capsys):
        from lowrank.datasets import save_matrix

        est = tmp_path / "est"
        est.mkdir()
        save_matrix(est / "L.txt", np.array([[1.0, 2.0], [3.0, 4.0]]))
        test_file = tmp_path / "test.txt"
        test_file.write_text("0 0 2.0\n1 1 4.0\n")
        code = run("eval", "--estimate-dir", str(est),
                   "--truth-dir", str(est), "--metric", "rmse",
                   "--test-file", str(test_file))
        assert code == 0
        line = capsys.readouterr().out.strip()
        # errors are 1 and 0, so the value is sqrt(1/2)
        assert float(line.split("=")[-1]) == pytest.approx(np.sqrt(0.5),
                                                           abs=1e-6)

    @pytest.mark.parametrize("bad", ["-1 0 2.0", "9 0 2.0"])
    def test_rmse_index_outside_estimate(self, tmp_path, capsys, bad):
        est = tmp_path / "est"
        est.mkdir()
        save_matrix(est / "L.txt", np.ones((6, 5)))
        test_file = tmp_path / "test.txt"
        test_file.write_text(f"0 0 2.0\n{bad}\n")
        code = run("eval", "--estimate-dir", str(est),
                   "--truth-dir", str(est), "--metric", "rmse",
                   "--test-file", str(test_file))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        u, i, value = bad.split()
        assert captured.err.startswith("error: ")
        assert f"({u}, {i}, {value})" in captured.err
