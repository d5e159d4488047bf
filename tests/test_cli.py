import csv
import dataclasses
import warnings

import numpy as np
import pytest

from lowrank import cli, rmc
from lowrank.cli import main
from lowrank.config import SolverConfig
from lowrank.datasets import load_matrix, save_matrix
from lowrank.measurements import load_mask


def run(*argv):
    return main(list(argv))


def save_estimate(est, low_rank):
    """An estimate directory whose U V^T is ``low_rank``: U = L, V = I."""
    save_matrix(est / "U.txt", low_rank)
    save_matrix(est / "V.txt", np.eye(low_rank.shape[1]))


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

    @pytest.mark.parametrize("magnitude", ["nan", "inf"])
    def test_non_finite_magnitude_rejected(self, tmp_path, capsys, magnitude):
        code = run("synth", "--rows", "5", "--cols", "5", "--rank", "2",
                   "--spike-frac", "0.1", "--magnitude", magnitude,
                   "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert "magnitude" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

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

    def test_summary_reports_resolved_alpha0(self, tmp_path, capsys):
        truth = synth(tmp_path, rows=20, cols=20, rank=2, obs=0.8)
        for name, flags in (("auto", ()), ("fixed", ("--alpha0", "0.25"))):
            est = tmp_path / name
            code = run("rmc", "--data", str(truth / "d_obs.txt"),
                       "--mask", str(truth / "mask.txt"), "--rank", "4",
                       *flags, "--out-dir", str(est))
            assert code == 0
            summary = capsys.readouterr().out.strip().splitlines()[-1]
            alpha0 = float(summary.split(" alpha0=")[1].split()[0])
            with open(est / "trace.csv", newline="") as fh:
                first = next(csv.DictReader(fh))
            assert alpha0 == pytest.approx(float(first["alpha"]), rel=1e-6)
        assert " alpha0=2.500000e-01 stop=residual rank=" in summary

    @pytest.mark.parametrize("command", ["rmc", "mc", "rpca"])
    def test_trace_records_stop_ratio(self, tmp_path, capsys, command):
        truth = synth(tmp_path, rows=30, cols=30, rank=3, obs=0.8)
        inputs = ["--data", str(truth / "d_obs.txt")]
        if command != "rpca":
            inputs += ["--mask", str(truth / "mask.txt")]
        est = tmp_path / "est"
        code = run(command, *inputs, "--rank", "6", "--lambda", "1",
                   "--out-dir", str(est))
        assert code == 0
        with open(est / "trace.csv", newline="") as fh:
            ratios = [row["stop_ratio"] for row in csv.DictReader(fh)]
        blank = [not ratio for ratio in ratios]
        if command == "mc":
            # no change is compared while the previous product is zero
            assert blank[0] and blank == sorted(blank, reverse=True)
            assert not blank[-1]
        else:
            assert not any(blank)
            assert float(ratios[-1]) < 1e-4   # the default tol

    @pytest.mark.parametrize("command", ["rmc", "mc", "rpca", "cpcp"])
    def test_iteration_cap_exit_code_still_writes_outputs(self, tmp_path,
                                                          capsys, command):
        truth = synth(tmp_path, rows=30, cols=30, rank=3, spike=0.1)
        if command == "cpcp":
            save_matrix(tmp_path / "y.txt", np.ones((200, 1)))
            inputs = ["--measurements", str(tmp_path / "y.txt"), "--rows",
                      "30", "--cols", "30", "--subspace-seed", "1",
                      "--subspace-dim", "200"]
        else:
            inputs = ["--data", str(truth / "d_obs.txt")]
            if command != "rpca":
                inputs += ["--mask", str(truth / "mask.txt")]
        est = tmp_path / "est"
        code = run(command, *inputs, "--rank", "6", "--max-iter", "3",
                   "--out-dir", str(est))
        assert code == 3
        summary = capsys.readouterr().out
        assert "termination=max_iter_reached" in summary
        assert " stop=none rank=" in summary
        assert (est / "U.txt").exists()
        lines = (est / "trace.csv").read_text().splitlines()
        # one header for every solver; stop_ratio is blank where not recorded
        assert lines[0] == "iter,residual,objective,alpha,d,stop_ratio,rank"
        assert len(lines) == 4

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
        def no_iteration(*args, **kwargs):
            raise AssertionError("solver iterated")

        monkeypatch.setattr(rmc, "svt", no_iteration)
        data = synth(tmp_path, name="a", rows=20, cols=15, rank=2, obs=0.8)
        mask = synth(tmp_path, name="b", rows=15, cols=20, rank=2, obs=0.8)
        code = run(command, "--data", str(data / "d_obs.txt"),
                   "--mask", str(mask / "mask.txt"), "--rank", "2",
                   "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert "shape mismatch: matrix (20, 15) vs operator (15, 20)" in \
            capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-iter", "0", "max_iter must be >= 1, got 0"),
        ("--rho", "0", "rho must be positive, got 0.0"),
        ("--alpha-max", "0", "alpha_max must be positive, got 0.0"),
        ("--alpha-max", "-1", "alpha_max must be positive, got -1.0"),
        ("--lambda", "nan", "lambda must be nonnegative, got nan"),
        ("--rho", "nan", "rho must be positive, got nan"),
        ("--alpha0", "nan", "alpha0 must be positive, got nan"),
        ("--alpha-max", "nan", "alpha_max must be positive, got nan"),
        ("--tol", "nan", "tol must be positive, got nan"),
    ])
    def test_invalid_schedule_rejected_before_solve(self, tmp_path, capsys,
                                                    monkeypatch, flag, value,
                                                    message):
        def no_solve(*args, **kwargs):
            raise AssertionError("solver called")

        monkeypatch.setattr(cli, "solve_rmc", no_solve)
        truth = synth(tmp_path, rows=20, cols=20, rank=2, obs=0.8)
        code = run("rmc", "--data", str(truth / "d_obs.txt"),
                   "--mask", str(truth / "mask.txt"), flag, value,
                   "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("command", ["rmc", "mc"])
    def test_empty_mask_is_invalid_input(self, tmp_path, capsys, monkeypatch,
                                         command):
        def no_iteration(*args, **kwargs):
            raise AssertionError("solver iterated")

        monkeypatch.setattr(rmc, "svt", no_iteration)
        truth = synth(tmp_path, rows=20, cols=15, rank=2, obs=0.8)
        mask = tmp_path / "empty_mask.txt"
        mask.write_text((truth / "mask.txt").read_text().splitlines()[0] + "\n")
        code = run(command, "--data", str(truth / "d_obs.txt"),
                   "--mask", str(mask), "--rank", "2",
                   "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert "observation mask is empty" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("dim, entries, message", [
        (0, 10, "subspace dimension 0 out of range [1, 25]"),
        (26, 26, "subspace dimension 26 out of range [1, 25]"),
        (10, 12, "measurement vector of shape (12,) does not match "
                 "operator dimension 10"),
        # the file is p x 1, not any shape with p entries
        pytest.param(6, (3, 2), "measurement vector of shape (3, 2) does "
                     "not match operator dimension 6", id="6-3x2-columns"),
    ])
    def test_cpcp_invalid_measurements_rejected_before_draw(
            self, tmp_path, capsys, monkeypatch, dim, entries, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("subspace drawn")

        monkeypatch.setattr(cli, "draw_random_subspace", no_draw)
        meas = tmp_path / "y.txt"
        shape = entries if isinstance(entries, tuple) else (entries, 1)
        save_matrix(meas, np.ones(shape))
        code = run("cpcp", "--measurements", str(meas), "--rows", "5",
                   "--cols", "5", "--subspace-seed", "1", "--subspace-dim",
                   str(dim), "--rank", "2", "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("command", ["rmc", "mc", "rpca", "cpcp"])
    def test_non_finite_input_is_invalid(self, tmp_path, capsys, monkeypatch,
                                         command):
        def no_draw(*args, **kwargs):
            raise AssertionError("subspace drawn")

        monkeypatch.setattr(cli, "draw_random_subspace", no_draw)
        truth = synth(tmp_path, rows=20, cols=15, rank=2, obs=0.8)
        if command == "cpcp":
            values = np.ones((10, 1))
            values[4] = np.nan
            save_matrix(tmp_path / "y.txt", values)
            inputs = ["--measurements", str(tmp_path / "y.txt"), "--rows",
                      "5", "--cols", "5", "--subspace-seed", "1",
                      "--subspace-dim", "10"]
        else:
            data = load_matrix(truth / "d_obs.txt")
            # an entry on Omega: the mask lists it first
            i, j = np.divmod(load_mask(truth / "mask.txt").flat_indices[0], 15)
            data[i, j] = np.inf if command == "rpca" else np.nan
            save_matrix(tmp_path / "bad.txt", data)
            inputs = ["--data", str(tmp_path / "bad.txt")]
            if command != "rpca":
                inputs += ["--mask", str(truth / "mask.txt")]
        code = run(command, *inputs, "--rank", "2",
                   "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert "error:" in capsys.readouterr().err
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

    def test_data_off_mask_may_be_nan(self, tmp_path, capsys):
        truth = synth(tmp_path, rows=20, cols=15, rank=2, obs=0.7)
        marked = load_matrix(truth / "d_obs.txt")
        off = ~load_mask(truth / "mask.txt").marker
        marked[off] = np.resize([np.nan, np.inf, -np.inf], off.sum())
        save_matrix(tmp_path / "marked.txt", marked)
        for data, est in (("d_obs.txt", "a"), ("../marked.txt", "b")):
            code = run("rmc", "--data", str(truth / data),
                       "--mask", str(truth / "mask.txt"), "--rank", "3",
                       "--out-dir", str(tmp_path / est))
            assert code == 0
        for name in ("U.txt", "V.txt", "S.txt", "trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_missing_data_file_is_io_error(self, tmp_path, capsys):
        code = run("rpca", "--data", str(tmp_path / "nope.txt"),
                   "--out-dir", str(tmp_path / "est"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [100000, 4000000000])
    def test_header_beyond_the_body_is_input_error(self, tmp_path, capsys,
                                                   rows):
        data = tmp_path / "d_obs.txt"
        data.write_text(f"{rows} {rows}\n1 2 3\n")
        code = run("rpca", "--data", str(data), "--out-dir",
                   str(tmp_path / "est"))
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {data}:2: expected {rows} values, got 3\n"

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

    def test_cpcp_zero_measurements_converge(self, tmp_path, capsys):
        meas = tmp_path / "y.txt"
        save_matrix(meas, np.zeros((12, 1)))
        est = tmp_path / "est"
        code = run("cpcp", "--measurements", str(meas), "--rows", "4",
                   "--cols", "4", "--subspace-seed", "5",
                   "--subspace-dim", "12", "--rank", "2",
                   "--out-dir", str(est))
        assert code == 0
        assert "termination=converged iters=1 " in capsys.readouterr().out
        assert not np.any(load_matrix(est / "V.txt"))
        assert not np.any(load_matrix(est / "S.txt"))
        assert len((est / "trace.csv").read_text().splitlines()) == 2


class Captured(Exception):
    """Raised in place of a solve, carrying the SolverConfig it was given."""


def capture_config(monkeypatch, tmp_path, command, *flags, config=None):
    """The SolverConfig that ``lowrank COMMAND`` builds from the flags and
    the ``--config`` text, on a 20 x 20 instance."""
    def capture(*args):
        raise Captured(args[-1])

    monkeypatch.setattr(cli, f"solve_{command}", capture)
    monkeypatch.setattr(cli, "draw_random_subspace", lambda *args: None)
    truth = tmp_path / "truth"
    if not truth.exists():
        synth(tmp_path, rows=20, cols=20, rank=2, obs=0.8)
        save_matrix(tmp_path / "y.txt", np.ones((10, 1)))
    if command == "cpcp":
        inputs = ["--measurements", str(tmp_path / "y.txt"), "--rows", "20",
                  "--cols", "20", "--subspace-seed", "1",
                  "--subspace-dim", "10"]
    else:
        inputs = ["--data", str(truth / "d_obs.txt")]
        if command != "rpca":
            inputs += ["--mask", str(truth / "mask.txt")]
    if config is not None:
        (tmp_path / "solver.cfg").write_text(config)
        inputs += ["--config", str(tmp_path / "solver.cfg")]
    with pytest.raises(Captured) as info:
        run(command, *inputs, *flags, "--out-dir", str(tmp_path / "est"))
    return info.value.args[0]


# Each solver flag, its --config key and a value unlike SolverConfig's
# default; --adjust-rank takes no value.
SOLVER_FLAGS = [
    ("--lambda", "lam", "0.5"),
    ("--rank", "rank", "3"),
    ("--rho", "rho", "1.05"),
    ("--alpha0", "alpha0", "0.5"),
    ("--alpha-max", "alpha_max", "1e6"),
    ("--tol", "tol", "1e-3"),
    ("--max-iter", "max_iter", "7"),
    ("--adjust-rank", "adjust_rank", None),
]


class TestSolverSettings:
    @pytest.mark.parametrize("command, max_iter", [
        ("rmc", 500), ("mc", 500), ("rpca", 500), ("cpcp", 1000),
    ])
    def test_unset_settings_take_solver_config_defaults(
            self, tmp_path, monkeypatch, command, max_iter):
        cfg = capture_config(monkeypatch, tmp_path, command)
        assert cfg == SolverConfig(max_iter=max_iter)

    def test_each_field_has_one_flag_and_one_key(self, tmp_path, monkeypatch):
        base = dataclasses.asdict(capture_config(monkeypatch, tmp_path, "rpca"))

        def changed(cfg):
            return [name for name, value in dataclasses.asdict(cfg).items()
                    if value != base[name]]

        reached = []
        for flag, key, value in SOLVER_FLAGS:
            by_flag = capture_config(monkeypatch, tmp_path, "rpca", flag,
                                     *([] if value is None else [value]))
            by_key = capture_config(monkeypatch, tmp_path, "rpca",
                                    config=f"{key} = {value or 'true'}\n")
            assert changed(by_flag) == changed(by_key)
            assert len(changed(by_flag)) == 1
            reached += changed(by_flag)
        fields = [f.name for f in dataclasses.fields(SolverConfig)]
        assert sorted(reached) == sorted(set(fields) - {"seed"})

    def test_bad_key_value_names_file_and_key(self, tmp_path, capsys):
        truth = synth(tmp_path, rows=20, cols=20, rank=2)
        config = tmp_path / "solver.cfg"
        config.write_text("rank = 4.5\n")
        code = run("rpca", "--data", str(truth / "d_obs.txt"),
                   "--config", str(config), "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert f"{config}: rank: " in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    def test_key_overridden_by_flag_is_not_parsed(self, tmp_path, capsys):
        truth = synth(tmp_path, rows=20, cols=20, rank=2)
        config = tmp_path / "solver.cfg"
        config.write_text("rank = x\n")
        code = run("rpca", "--data", str(truth / "d_obs.txt"), "--rank", "3",
                   "--config", str(config), "--out-dir", str(tmp_path / "est"))
        assert code == 0
        assert load_matrix(tmp_path / "est" / "U.txt").shape == (20, 3)

    @pytest.mark.parametrize("key, message", [
        ("lam", "lambda must be nonnegative, got nan"),
        ("rho", "rho must be positive, got nan"),
        ("alpha0", "alpha0 must be positive, got nan"),
        ("alpha_max", "alpha_max must be positive, got nan"),
        ("tol", "tol must be positive, got nan"),
    ])
    def test_nan_key_is_invalid_configuration(self, tmp_path, capsys,
                                              monkeypatch, key, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("solver called")

        monkeypatch.setattr(cli, "solve_rmc", no_solve)
        truth = synth(tmp_path, rows=20, cols=20, rank=2, obs=0.8)
        config = tmp_path / "solver.cfg"
        config.write_text(f"{key} = nan\n")
        code = run("rmc", "--data", str(truth / "d_obs.txt"),
                   "--mask", str(truth / "mask.txt"), "--config", str(config),
                   "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("settings, message", [
        ({"tol": "inf"}, "tol must be finite, got inf"),
        ({"rho": "inf"}, "rho must be finite, got inf"),
        ({"alpha0": "inf", "alpha_max": "inf"},
         "alpha0 must be finite, got inf"),
    ], ids=["tol", "rho", "alpha0"])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_infinite_setting_is_invalid(self, tmp_path, capsys, monkeypatch,
                                         settings, message, given):
        def no_solve(*args, **kwargs):
            raise AssertionError("solver called")

        monkeypatch.setattr(cli, "solve_rmc", no_solve)
        truth = synth(tmp_path, rows=20, cols=20, rank=2, obs=0.8)
        if given == "flag":
            extra = [arg for key, value in settings.items()
                     for arg in ("--" + key.replace("_", "-"), value)]
        else:
            config = tmp_path / "solver.cfg"
            config.write_text("".join(f"{key} = {value}\n"
                                      for key, value in settings.items()))
            extra = ["--config", str(config)]
        code = run("rmc", "--data", str(truth / "d_obs.txt"),
                   "--mask", str(truth / "mask.txt"), *extra,
                   "--out-dir", str(tmp_path / "est"))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "est").exists()


class TestEval:
    def test_rmse_requires_test_file(self, tmp_path, capsys):
        truth = synth(tmp_path)
        code = run("eval", "--estimate-dir", str(truth),
                   "--truth-dir", str(truth), "--metric", "rmse")
        assert code == 2
        assert "--test-file" in capsys.readouterr().err

    def test_rmse_from_fixture(self, tmp_path, capsys):
        est = tmp_path / "est"
        est.mkdir()
        save_estimate(est, np.array([[1.0, 2.0], [3.0, 4.0]]))
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

    @pytest.mark.parametrize("metric", ["relerr", "rmse"])
    def test_estimate_is_u_times_v_transposed(self, tmp_path, capsys, metric):
        # a stray L.txt, such as a zero matrix, is not the estimate
        low_rank = np.array([[1.0, 2.0], [3.0, 4.0]])
        est = tmp_path / "est"
        est.mkdir()
        save_estimate(est, low_rank)
        save_matrix(est / "L.txt", np.zeros((2, 2)))
        save_matrix(est / "l0.txt", low_rank)
        test_file = tmp_path / "test.txt"
        test_file.write_text("0 0 1.0\n1 1 4.0\n")
        code = run("eval", "--estimate-dir", str(est), "--truth-dir",
                   str(est), "--metric", metric, "--test-file", str(test_file))
        assert code == 0
        assert capsys.readouterr().out == f"metric={metric} value=0\n"

    @pytest.mark.parametrize("bad", ["-1 0 2.0", "9 0 2.0"])
    def test_rmse_index_outside_estimate(self, tmp_path, capsys, bad):
        est = tmp_path / "est"
        est.mkdir()
        save_estimate(est, np.ones((6, 5)))
        test_file = tmp_path / "test.txt"
        test_file.write_text(f"0 0 2.0\n{bad}\n")
        code = run("eval", "--estimate-dir", str(est),
                   "--truth-dir", str(est), "--metric", "rmse",
                   "--test-file", str(test_file))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        u, i, value = bad.split()
        assert captured.err.startswith("error: ")
        assert f"({u}, {i}, {value})" in captured.err

    @pytest.mark.parametrize("metric", ["relerr", "auc"])
    def test_shape_mismatch_is_invalid_input(self, tmp_path, capsys, metric):
        truth = synth(tmp_path, rows=20, cols=15)
        est = synth(tmp_path, name="est", rows=15, cols=20)
        save_estimate(est, load_matrix(est / "l0.txt"))
        save_matrix(est / "S.txt", load_matrix(est / "s0.txt"))
        code = run("eval", "--estimate-dir", str(est),
                   "--truth-dir", str(truth), "--metric", metric)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("metric", ["relerr", "auc"])
    def test_missing_estimate_file_is_io_error(self, tmp_path, capsys,
                                               metric):
        truth = synth(tmp_path)
        code = run("eval", "--estimate-dir", str(tmp_path / "absent"),
                   "--truth-dir", str(truth), "--metric", metric)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
