"""End-to-end acceptance checks.

Each test prints one PASS line once its assertions hold, so a plain
``pytest tests/test_acceptance.py -s`` reads as a checklist. Recovery
criteria run against planted problems with known ground truth; the
equivalence and oracle criteria compare independent computations of the
same quantity.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lowrank.config import SolverConfig
from lowrank.cpcp import data_fit_gradient, solve_cpcp
from lowrank.datasets import generate_planted, load_ratings
from lowrank.measurements import draw_random_subspace
from lowrank.metrics import auc, relative_error, rmse
from lowrank.prox import svt
from lowrank.rmc import solve_mc, solve_rmc


def report(number, label):
    print(f"criterion {number} ({label}): PASS")


RMC_SEEDS = (1, 2, 3, 4, 5)
RMC_CFG = dict(m=200, n=200, r=5, spike_frac=0.1, obs_frac=0.7)


@pytest.fixture(scope="module")
def rmc_runs():
    """Solve the five reference instances once; criteria 1, 4, 5 share them."""
    runs = []
    for seed in RMC_SEEDS:
        prob = generate_planted(
            RMC_CFG["m"], RMC_CFG["n"], RMC_CFG["r"],
            spike_frac=RMC_CFG["spike_frac"], obs_frac=RMC_CFG["obs_frac"],
            seed=seed,
        )
        cfg = SolverConfig(lam=np.sqrt(200.0), d=10)
        multiplier_traces = []

        def watch(it, sink=multiplier_traces):
            y = it.y
            sink.append((float(np.max(np.abs(y))),
                         float(np.max(np.abs(y[~prob.mask.marker])))
                         if (~prob.mask.marker).any() else 0.0))

        start = time.perf_counter()
        res = solve_rmc(prob.d_obs, prob.mask, cfg, iter_callback=watch)
        elapsed = time.perf_counter() - start
        obs_norm = float(np.linalg.norm(prob.d_obs[prob.mask.marker]))
        runs.append((prob, cfg, res, elapsed, multiplier_traces, obs_norm))
    return runs


def test_criterion_01_planted_rmc_recovery(rmc_runs):
    for prob, _, res, elapsed, _, _ in rmc_runs:
        assert relative_error(res.low_rank(), prob.l0) <= 1e-2
        obs = prob.mask.marker
        assert auc(np.abs(res.s[obs]), prob.s0[obs] != 0) >= 0.95
        assert elapsed <= 10.0
    report(1, "planted robust completion recovery")


def test_criterion_02_update_scheme_equivalence():
    prob = generate_planted(50, 40, 3, spike_frac=0.1, obs_frac=0.8, seed=7)
    cfg = SolverConfig(lam=1.0, d=8, alpha0=1.0, max_iter=20, tol=1e-12)
    snaps = {"qr": [], "svd": []}
    for scheme in snaps:
        solve_rmc(
            prob.d_obs, prob.mask, cfg, u_scheme=scheme,
            iter_callback=lambda it, key=scheme: snaps[key].append(
                (it.u @ it.v.T, np.linalg.svd(it.v, compute_uv=False).sum(),
                 it.s.copy())
            ),
        )
    assert len(snaps["qr"]) == len(snaps["svd"]) == 20
    for (t1, nuc1, s1), (t2, nuc2, s2) in zip(snaps["qr"], snaps["svd"]):
        scale = max(np.linalg.norm(t1), 1e-30)
        assert np.linalg.norm(t1 - t2) / scale <= 1e-8
        assert abs(nuc1 - nuc2) <= 1e-8
        assert np.linalg.norm(s1 - s2) <= 1e-8
    report(2, "factor update scheme equivalence over 20 iterations")


def test_criterion_03_svt_against_independent_minimizer():
    def objective(x, m, mu):
        return 0.5 * np.linalg.norm(x - m) ** 2 + mu * np.linalg.svd(
            x, compute_uv=False
        ).sum()

    def prox_gradient(m, mu, step=0.5, tol=1e-9, max_iter=20000):
        x = np.zeros_like(m)
        for _ in range(max_iter):
            g = x - step * (x - m)
            u, s, vt = np.linalg.svd(g, full_matrices=False)
            x_new = (u * np.maximum(s - step * mu, 0.0)) @ vt
            if np.linalg.norm(x_new - x) < tol:
                break
            x = x_new
        return x_new

    rng = np.random.default_rng(0)
    for trial in range(50):
        m = rng.standard_normal((8, 5))
        for mu in (0.1, 0.7, 2.0):
            out, _, _ = svt(m, mu)
            f_closed = objective(out, m, mu)
            f_iter = objective(prox_gradient(m, mu), m, mu)
            assert f_closed <= f_iter + 1e-6
    report(3, "singular value thresholding closed form vs iterative oracle")


def test_criterion_04_feasibility_convergence(rmc_runs):
    for _, cfg, res, _, _, obs_norm in rmc_runs:
        assert res.termination == "converged"
        assert res.iterations < cfg.max_iter
        resids = [rec.residual for rec in res.trace]
        checkpoints = [resids[i - 1] for i in (25, 50, 100) if i <= len(resids)]
        assert all(b <= a for a, b in zip(checkpoints, checkpoints[1:]))
        assert resids[-1] < cfg.tol * obs_norm
    report(4, "feasibility residual decay and convergence before the cap")


def test_criterion_05_multiplier_bound(rmc_runs):
    for _, _, _, _, multiplier_traces, _ in rmc_runs:
        for y_max, y_off_max in multiplier_traces:
            assert y_max <= 1.0 + 1e-6
            assert y_off_max == 0.0
    report(5, "multiplier sup-norm bound and support confinement")


def test_criterion_06_rank_adjustment():
    for d_start in (6, 10):
        hits = 0
        for seed in range(10):
            prob = generate_planted(100, 100, 5, spike_frac=0.1,
                                    obs_frac=0.8, seed=seed)
            cfg = SolverConfig(lam=np.sqrt(100.0), d=d_start, alpha0=2.0,
                               adjust_rank=True)
            res = solve_rmc(prob.d_obs, prob.mask, cfg)
            dims = [rec.d for rec in res.trace]
            assert sum(1 for a, b in zip(dims, dims[1:]) if a != b) <= 1
            if dims[-1] == 5:
                hits += 1
        assert hits >= 9, f"d_start={d_start}: only {hits}/10 found rank 5"
    report(6, "rank adjustment finds the planted rank and fires once")


def test_criterion_07_cpcp_recovery_and_gradients():
    hits = 0
    for seed in range(1, 6):
        prob = generate_planted(30, 30, 3, spike_frac=0.05, obs_frac=1.0,
                                seed=seed)
        q = draw_random_subspace(30, 30, 675, seed=seed + 100)
        y = q.forward(prob.l0 + prob.s0)
        cfg = SolverConfig(lam=np.sqrt(30.0), d=6, tol=1e-10, max_iter=1000,
                           seed=seed)
        res = solve_cpcp(y, q, cfg)
        if relative_error(res.low_rank(), prob.l0) <= 5e-2:
            hits += 1
    assert hits >= 4, f"only {hits}/5 seeds recovered"

    rng = np.random.default_rng(0)
    q = draw_random_subspace(6, 6, 20, seed=1)
    y = rng.standard_normal(20)
    point, other = rng.standard_normal((2, 6, 6))
    dual = rng.standard_normal(20)
    alpha = 1.3
    grad = data_fit_gradient(point, other, y, dual, alpha, q)

    def f(x):
        resid = q.forward(x + other) - y - dual / alpha
        return 0.5 * alpha * float(resid @ resid)

    eps = 1e-5
    for _ in range(20):
        direction = rng.standard_normal((6, 6))
        direction /= np.linalg.norm(direction)
        fd = (f(point + eps * direction) - f(point - eps * direction)) / (2 * eps)
        expected = float(np.sum(grad * direction))
        assert abs(fd - expected) <= 1e-5 * max(1.0, abs(expected))
    report(7, "compressive recovery and finite-difference gradient checks")


def test_criterion_08_ratings_completion(tmp_path):
    rng = np.random.default_rng(42)
    profile = rng.standard_normal((80, 5)) @ rng.standard_normal((60, 5)).T
    truth = np.clip(3.0 + profile / np.sqrt(5.0), 1.0, 5.0)
    lines = [
        f"{i} {j} {truth[i, j]:.6f}"
        for i in range(80) for j in range(60) if rng.random() < 0.3
    ]
    path = tmp_path / "ratings.txt"
    path.write_text("\n".join(lines) + "\n")
    ds = load_ratings(path, seed=0)
    train, mask = ds.train_matrix()

    def fit(d):
        cfg = SolverConfig(lam=0.5, d=d, tol=1e-6, max_iter=800)
        res = solve_mc(train, mask, cfg)
        return rmse(np.clip(res.low_rank(), 1.0, 5.0), ds.test)

    rmse_small = fit(5)
    rmse_large = fit(20)
    baseline = rmse(np.full_like(train, train[mask.marker].mean()), ds.test)
    assert rmse_small < baseline
    assert rmse_large < baseline
    assert rmse_large <= 1.10 * rmse_small
    report(8, "held-out ratings error beats baseline and tolerates excess rank")


def test_criterion_09_metric_oracles():
    rng = np.random.default_rng(5)
    for trial in range(5):
        labels = rng.random(200) < 0.4
        labels[0], labels[1] = True, False
        scores = np.round(rng.standard_normal(200) + labels, 1)
        pos = scores[labels]
        neg = scores[~labels]
        wins = sum(
            1.0 if p > q else (0.5 if p == q else 0.0)
            for p in pos for q in neg
        )
        assert auc(scores, labels) == wins / (pos.size * neg.size)

    pred = rng.standard_normal((15, 12))
    triplets = [
        (int(u), int(i), float(v))
        for u, i, v in zip(rng.integers(0, 15, 100), rng.integers(0, 12, 100),
                           rng.standard_normal(100))
    ]
    direct = np.sqrt(
        sum((v - pred[u, i]) ** 2 for u, i, v in triplets) / len(triplets)
    )
    assert abs(rmse(pred, triplets) - direct) <= 1e-12
    report(9, "metric implementations agree with brute-force oracles")


def test_criterion_10_cli_determinism(tmp_path):
    # The subprocesses import the checkout's package, as this process does.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def invoke(out_dir):
        synth_dir = out_dir / "truth"
        est_dir = out_dir / "est"
        for argv in (
            ["synth", "--rows", "40", "--cols", "40", "--rank", "3",
             "--spike-frac", "0.1", "--obs-frac", "0.8", "--seed", "11",
             "--out-dir", str(synth_dir)],
            ["rmc", "--data", str(synth_dir / "d_obs.txt"),
             "--mask", str(synth_dir / "mask.txt"), "--rank", "6",
             "--out-dir", str(est_dir)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "lowrank.cli", *argv],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
        return {
            p.name: p.read_bytes()
            for d in (synth_dir, est_dir) for p in sorted(d.iterdir())
        }

    first = invoke(tmp_path / "a")
    second = invoke(tmp_path / "b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    report(10, "repeated command-line runs are byte identical")
