"""The Omega-restricted ADMM driver against the dense loops it replaced.

``dense_rmc`` and ``dense_mc`` are the former loop bodies of ``solve_rmc`` and
``solve_mc``: every iterate is a full m x n matrix. With rank bound d = 1 the
thin QR of P V is unique, so the driver must follow the same iterate path up
to rounding. With d above the true rank the trailing QR columns of a
rank-deficient P V turn rounding into a different path, so there the gate is
on outcomes.
"""

import numpy as np
import pytest

from lowrank.config import IterationRecord, SolverConfig
from lowrank.datasets import generate_planted
from lowrank.measurements import ObservationMask
from lowrank.metrics import auc, relative_error
from lowrank.prox import soft_threshold, svt
from lowrank.rmc import (
    RANK_ADJUST_START,
    _product_change,
    _rank_truncation_basis,
    adjust_rank_once,
    nuclear_norm,
    orthonormal_factor,
    solve_mc,
    solve_rmc,
    solve_rpca,
)

MATCH_RTOL = 1e-10


def _start(d_obs, mask, cfg):
    data = np.where(mask.marker, d_obs, 0.0)
    obs_norm = float(np.linalg.norm(data))
    alpha = (1.0 / obs_norm if obs_norm > 0 else 1.0) \
        if cfg.alpha0 == "auto" else float(cfg.alpha0)
    threshold = cfg.tol * obs_norm if obs_norm > 0 else cfg.tol
    return data, alpha, threshold


def _adjust(cfg, k, u, v, d, adjusted):
    if cfg.adjust_rank and not adjusted and k >= RANK_ADJUST_START and d >= 2:
        new_d = adjust_rank_once(v, d)
        if new_d != d:
            basis = _rank_truncation_basis(v, new_d)
            return u @ basis, v @ basis, new_d, True
    return u, v, d, adjusted


def dense_rmc(d_obs, mask, cfg, u_scheme="qr", iter_callback=None):
    """Robust completion with every iterate held as a dense m x n matrix."""
    m, n = d_obs.shape
    data, alpha, threshold = _start(d_obs, mask, cfg)
    marker = mask.marker
    lam = cfg.resolve_lambda(m, n)
    d = cfg.d
    u, v = np.eye(m, d), np.zeros((n, d))
    s, y = np.zeros((m, n)), np.zeros((m, n))
    adjusted, trace = False, []
    for k in range(1, cfg.max_iter + 1):
        p = data - s + y / alpha
        u = orthonormal_factor(p @ v, u, u_scheme)
        v = svt(p.T @ u, lam / alpha)
        low_rank = u @ v.T
        a = data - low_rank + y / alpha
        s = np.where(marker, soft_threshold(a, 1.0 / alpha), a)
        residual_mat = data - low_rank - s
        y = y + alpha * residual_mat
        residual = float(np.linalg.norm(residual_mat))
        objective = float(np.abs(s[marker]).sum()) + lam * nuclear_norm(v)
        trace.append(IterationRecord(k, residual, objective, alpha, d))
        if iter_callback is not None:
            iter_callback(k, u, v, s, y)
        if residual < threshold:
            break
        alpha = min(cfg.rho * alpha, cfg.alpha_max)
        u, v, d, adjusted = _adjust(cfg, k, u, v, d, adjusted)
    return trace


def dense_mc(d_obs, mask, cfg, iter_callback=None):
    """Plain completion with every iterate held as a dense m x n matrix."""
    m, n = d_obs.shape
    data, alpha, threshold = _start(d_obs, mask, cfg)
    marker = mask.marker
    lam = cfg.resolve_lambda(m, n)
    d = cfg.d
    u, v = np.eye(m, d), np.zeros((n, d))
    aux, y = data.copy(), np.zeros((m, n))
    low_rank = u @ v.T
    adjusted, trace = False, []
    for k in range(1, cfg.max_iter + 1):
        prev_low_rank = low_rank
        p = aux + y / alpha
        u = orthonormal_factor(p @ v, u, "qr")
        v = svt(p.T @ u, lam / alpha)
        low_rank = u @ v.T
        aux = np.where(marker, (data + alpha * low_rank - y) / (1.0 + alpha),
                       low_rank - y / alpha)
        residual_mat = aux - low_rank
        y = y + alpha * residual_mat
        residual = float(np.linalg.norm(residual_mat))
        objective = 0.5 * float(
            np.sum((data[marker] - low_rank[marker]) ** 2)
        ) + lam * nuclear_norm(v)
        trace.append(IterationRecord(k, residual, objective, alpha, d))
        if iter_callback is not None:
            iter_callback(k, u, v, aux, y)
        change = float(np.linalg.norm(low_rank - prev_low_rank))
        base = float(np.linalg.norm(prev_low_rank))
        if (base > 0 and change < cfg.tol * base) or residual < threshold:
            break
        alpha = min(cfg.rho * alpha, cfg.alpha_max)
        u, v, d, adjusted = _adjust(cfg, k, u, v, d, adjusted)
    return trace


def _snapshots():
    snaps = []

    def grab(k, u, v, split, y):
        snaps.append((u @ v.T, split.copy(), y.copy()))

    return snaps, grab


def _close(got, want):
    return np.linalg.norm(got - want) <= MATCH_RTOL * max(np.linalg.norm(want),
                                                         1e-300)


def assert_same_path(run_driver, run_dense):
    got, grab_got = _snapshots()
    want, grab_want = _snapshots()
    res = run_driver(grab_got)
    trace = res.trace
    dense_trace = run_dense(grab_want)
    assert len(trace) == len(dense_trace) == len(got) == len(want)
    assert np.linalg.norm(want[-1][0]) > 0, "the instance is trivial: L = 0"
    for k, (g, w) in enumerate(zip(got, want), start=1):
        for name, a, b in zip(("U V^T", "split", "Y"), g, w):
            assert _close(a, b), f"iteration {k}: {name} differs"
    for rec, ref in zip(trace, dense_trace):
        assert rec.alpha == pytest.approx(ref.alpha, rel=1e-12)
        assert rec.d == ref.d
        assert rec.residual == pytest.approx(ref.residual, rel=1e-8, abs=1e-14)
        assert rec.objective == pytest.approx(ref.objective, rel=1e-8)
    low_rank, split, y = want[-1]
    assert _close(res.low_rank(), low_rank) and _close(res.y, y)
    return res, split


INSTANCES = (11, 12, 13)


def half_observed(seed, rank=2, spike_frac=0.1, obs_frac=0.5):
    return generate_planted(60, 50, rank, spike_frac=spike_frac,
                            obs_frac=obs_frac, seed=seed)


@pytest.mark.parametrize("seed", INSTANCES)
@pytest.mark.parametrize("u_scheme", ["qr", "svd"])
def test_rmc_matches_dense_loop_every_iteration(seed, u_scheme):
    p = half_observed(seed)
    cfg = SolverConfig(lam=0.7 * np.sqrt(60 * 0.5), d=1, max_iter=300)
    res, s = assert_same_path(
        lambda cb: solve_rmc(p.d_obs, p.mask, cfg, u_scheme=u_scheme,
                             iter_callback=cb),
        lambda cb: dense_rmc(p.d_obs, p.mask, cfg, u_scheme=u_scheme,
                             iter_callback=cb),
    )
    assert _close(res.s, np.where(p.mask.marker, s, 0.0))


@pytest.mark.parametrize("seed", INSTANCES)
def test_rpca_matches_dense_loop_every_iteration(seed):
    p = half_observed(seed, obs_frac=1.0)
    cfg = SolverConfig(lam=0.7 * np.sqrt(60), d=1, max_iter=300)
    full = ObservationMask.full(60, 50)
    assert_same_path(
        lambda cb: solve_rpca(p.d_obs, cfg, iter_callback=cb),
        lambda cb: dense_rmc(p.d_obs, full, cfg, iter_callback=cb),
    )


@pytest.mark.parametrize("seed", INSTANCES)
def test_mc_matches_dense_loop_every_iteration(seed):
    p = half_observed(seed, spike_frac=0.0)
    cfg = SolverConfig(lam=0.1, d=1, tol=1e-6, max_iter=400)
    res, _ = assert_same_path(
        lambda cb: solve_mc(p.d_obs, p.mask, cfg, iter_callback=cb),
        lambda cb: dense_mc(p.d_obs, p.mask, cfg, iter_callback=cb),
    )
    assert np.all(res.s == 0)


def planted_above_d(seed):
    return generate_planted(80, 70, 3, spike_frac=0.1, obs_frac=0.7, seed=seed)


def test_rmc_outcome_matches_dense_loop_above_true_rank():
    for seed in INSTANCES:
        p = planted_above_d(seed)
        cfg = SolverConfig(lam=np.sqrt(80 * 0.7), d=6)
        dense = {}
        dense_trace = dense_rmc(
            p.d_obs, p.mask, cfg,
            iter_callback=lambda k, u, v, s, y: dense.update(low=u @ v.T, s=s))
        res = solve_rmc(p.d_obs, p.mask, cfg)
        obs = p.mask.marker
        assert res.termination == "converged"
        assert relative_error(res.low_rank(), p.l0) <= 1e-3
        assert relative_error(dense["low"], p.l0) <= 1e-3
        assert auc(np.abs(res.s[obs]), p.s0[obs] != 0) >= \
            auc(np.abs(dense["s"][obs]), p.s0[obs] != 0) - 0.01
        assert abs(res.iterations - len(dense_trace)) <= 0.2 * len(dense_trace)


def test_rank_adjustment_outcome_matches_dense_loop():
    for seed in INSTANCES:
        p = planted_above_d(seed)
        cfg = SolverConfig(lam=np.sqrt(80 * 0.7), d=6, alpha0=2.0,
                           adjust_rank=True)
        dense = {}
        dense_trace = dense_rmc(
            p.d_obs, p.mask, cfg,
            iter_callback=lambda k, u, v, s, y: dense.update(low=u @ v.T))
        res = solve_rmc(p.d_obs, p.mask, cfg)
        assert res.termination == "converged"
        assert res.trace[-1].d == dense_trace[-1].d == 3
        want = relative_error(dense["low"], p.l0)
        assert abs(relative_error(res.low_rank(), p.l0) - want) <= 0.1 * want


def test_mc_outcome_matches_dense_loop_above_true_rank():
    for seed in INSTANCES:
        rng = np.random.default_rng(seed)
        l0 = rng.standard_normal((60, 3)) @ rng.standard_normal((50, 3)).T
        mask = ObservationMask(rng.random((60, 50)) < 0.6)
        cfg = SolverConfig(lam=0.1, d=8, tol=1e-6, max_iter=800)
        dense = {}
        dense_trace = dense_mc(
            l0, mask, cfg,
            iter_callback=lambda k, u, v, aux, y: dense.update(low=u @ v.T))
        res = solve_mc(l0, mask, cfg)
        assert res.termination == "converged"
        assert relative_error(res.low_rank(), l0) <= 1e-2
        assert relative_error(res.low_rank(), dense["low"]) <= 1e-3
        assert abs(res.iterations - len(dense_trace)) <= 0.1 * len(dense_trace)


@pytest.mark.parametrize("d, d_prev", [(3, 3), (2, 4), (4, 2)])
def test_product_change_matches_dense_norm(d, d_prev):
    rng = np.random.default_rng(d * 10 + d_prev)
    u = np.linalg.qr(rng.standard_normal((30, d)))[0]
    u_prev = np.linalg.qr(rng.standard_normal((30, d_prev)))[0]
    v = rng.standard_normal((20, d))
    v_prev = rng.standard_normal((20, d_prev))
    dense = np.linalg.norm(u @ v.T - u_prev @ v_prev.T)
    assert _product_change(u, v, u_prev, v_prev) == pytest.approx(dense,
                                                                  rel=1e-12)
    # nearly equal products: the small difference keeps its digits
    near = v + 1e-9 * rng.standard_normal(v.shape)
    dense = np.linalg.norm(u @ near.T - u @ v.T)
    assert _product_change(u, near, u, v) == pytest.approx(dense, rel=1e-6)
