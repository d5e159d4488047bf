"""The Omega-restricted ADMM driver against the dense loops it replaced.

``dense_rmc`` and ``dense_mc`` are the former loop bodies of ``solve_rmc`` and
``solve_mc``: every iterate is a full m x n matrix. With rank bound d = 1 the
thin QR of P V is unique, so the driver must follow the same iterate path up
to rounding. With d above the true rank the trailing QR columns of a
rank-deficient P V turn rounding into a different path, so there the gate is
on outcomes. The RMC and MC checks run on both sides of ``SPARSE_DENSITY``:
above it the driver takes its two products with a dense m x n buffer, below
it with a CSR array over Omega. Both evaluate U V^T on Omega by row blocks,
and one instance on each side spans several blocks.
"""

import tracemalloc

import numpy as np
import pytest

from lowrank.config import IterationRecord, SolverConfig
from lowrank.datasets import generate_planted
from lowrank.measurements import ObservationMask
from lowrank.metrics import auc, relative_error
from lowrank.prox import soft_threshold, svt
from lowrank.rmc import (
    BLOCK_ENTRIES,
    RANK_ADJUST_START,
    SPARSE_DENSITY,
    _omega_matrix,
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
        v, _ = svt(p.T @ u, lam / alpha)
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
        v, _ = svt(p.T @ u, lam / alpha)
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

# Observed fractions above and below SPARSE_DENSITY: dense-buffer and CSR path.
DENSE_OBS, CSR_OBS = 0.5, 0.15


# Rows per block of U V^T on the CSR path at 1000 columns, and a shape whose
# rows span two full blocks and a partial one.
BLOCK_ROWS = BLOCK_ENTRIES // 1000
MULTI_BLOCK = (2 * BLOCK_ROWS + BLOCK_ROWS // 2, 1000)
assert BLOCK_ROWS >= 2, "the last of the three blocks must be partial"


def small_instance(seed, rank=2, spike_frac=0.1, obs_frac=DENSE_OBS,
                   shape=(60, 50)):
    return generate_planted(*shape, rank, spike_frac=spike_frac,
                            obs_frac=obs_frac, seed=seed)


def assert_path(mask, csr):
    """The instance's density lies on the side of the cut that selects the
    CSR path exactly when ``csr``."""
    density = mask.dim / mask.marker.size
    assert (density < SPARSE_DENSITY) == csr, density


def assert_same_result(res, plain):
    """A run without a callback, which evaluates U V^T on Omega alone on the
    CSR path, ends where the run with one does."""
    assert len(plain.trace) == len(res.trace)
    for rec, ref in zip(plain.trace, res.trace):
        assert rec.d == ref.d
        assert rec.residual == pytest.approx(ref.residual, rel=1e-8, abs=1e-14)
    for name in ("u", "v", "s", "y"):
        assert _close(getattr(plain, name), getattr(res, name)), name


def check_rmc_path(seed, u_scheme, obs_frac, shape=(60, 50)):
    p = small_instance(seed, obs_frac=obs_frac, shape=shape)
    assert_path(p.mask, obs_frac == CSR_OBS)
    cfg = SolverConfig(lam=0.7 * np.sqrt(max(shape) * obs_frac), d=1,
                       max_iter=300)
    res, s = assert_same_path(
        lambda cb: solve_rmc(p.d_obs, p.mask, cfg, u_scheme=u_scheme,
                             iter_callback=cb),
        lambda cb: dense_rmc(p.d_obs, p.mask, cfg, u_scheme=u_scheme,
                             iter_callback=cb),
    )
    assert _close(res.s, np.where(p.mask.marker, s, 0.0))
    assert_same_result(res, solve_rmc(p.d_obs, p.mask, cfg, u_scheme=u_scheme))


def check_mc_path(seed, obs_frac, shape=(60, 50)):
    p = small_instance(seed, spike_frac=0.0, obs_frac=obs_frac, shape=shape)
    assert_path(p.mask, obs_frac == CSR_OBS)
    cfg = SolverConfig(lam=0.1, d=1, tol=1e-6, max_iter=400)
    res, _ = assert_same_path(
        lambda cb: solve_mc(p.d_obs, p.mask, cfg, iter_callback=cb),
        lambda cb: dense_mc(p.d_obs, p.mask, cfg, iter_callback=cb),
    )
    assert np.all(res.s == 0)
    assert_same_result(res, solve_mc(p.d_obs, p.mask, cfg))


@pytest.mark.parametrize("seed", INSTANCES)
@pytest.mark.parametrize("u_scheme", ["qr", "svd"])
def test_rmc_matches_dense_loop_every_iteration(seed, u_scheme):
    check_rmc_path(seed, u_scheme, DENSE_OBS)


@pytest.mark.parametrize("seed", INSTANCES)
@pytest.mark.parametrize("u_scheme", ["qr", "svd"])
def test_rmc_csr_path_matches_dense_loop_every_iteration(seed, u_scheme):
    check_rmc_path(seed, u_scheme, CSR_OBS)


def test_rmc_csr_path_over_row_blocks_matches_dense_loop():
    check_rmc_path(INSTANCES[0], "qr", CSR_OBS, shape=MULTI_BLOCK)


def test_mc_csr_path_over_row_blocks_matches_dense_loop():
    check_mc_path(INSTANCES[0], CSR_OBS, shape=MULTI_BLOCK)


def test_rmc_dense_path_over_row_blocks_matches_dense_loop():
    check_rmc_path(INSTANCES[0], "qr", DENSE_OBS, shape=MULTI_BLOCK)


def test_mc_dense_path_over_row_blocks_matches_dense_loop():
    check_mc_path(INSTANCES[0], DENSE_OBS, shape=MULTI_BLOCK)


@pytest.mark.parametrize("seed", INSTANCES)
def test_rpca_matches_dense_loop_every_iteration(seed):
    p = small_instance(seed, obs_frac=1.0)
    cfg = SolverConfig(lam=0.7 * np.sqrt(60), d=1, max_iter=300)
    full = ObservationMask.full(60, 50)
    assert_same_path(
        lambda cb: solve_rpca(p.d_obs, cfg, iter_callback=cb),
        lambda cb: dense_rmc(p.d_obs, full, cfg, iter_callback=cb),
    )


@pytest.mark.parametrize("seed", INSTANCES)
def test_mc_matches_dense_loop_every_iteration(seed):
    check_mc_path(seed, DENSE_OBS)


@pytest.mark.parametrize("seed", INSTANCES)
def test_mc_csr_path_matches_dense_loop_every_iteration(seed):
    check_mc_path(seed, CSR_OBS)


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


def test_rmc_csr_path_recovers_above_true_rank():
    for seed in INSTANCES:
        p = generate_planted(250, 250, 3, spike_frac=0.05, obs_frac=0.2,
                             seed=seed)
        assert_path(p.mask, True)
        res = solve_rmc(p.d_obs, p.mask,
                        SolverConfig(lam=0.7 * np.sqrt(250 * 0.2), d=6))
        obs = p.mask.marker
        assert res.termination == "converged"
        assert relative_error(res.low_rank(), p.l0) <= 1e-3
        assert auc(np.abs(res.s[obs]), p.s0[obs] != 0) >= 0.99


@pytest.mark.parametrize("solve", [solve_mc, solve_rmc])
def test_csr_path_allocates_no_dense_product(solve):
    # Without a callback the loop holds no m x n array: the peak is the
    # dense S and Y of the result, 2 * 8mn bytes, plus O(|Omega|) vectors.
    m, n = 2000, 1000
    rng = np.random.default_rng(3)
    d_obs = rng.standard_normal((m, 3)) @ rng.standard_normal((n, 3)).T
    mask = ObservationMask(rng.random((m, n)) < 0.01)
    assert_path(mask, True)
    cfg = SolverConfig(lam=1.0, d=5, max_iter=5)
    tracemalloc.start()
    try:
        solve(d_obs, mask, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * m * n, peak / (8 * m * n)


@pytest.mark.parametrize("solve", [solve_mc, solve_rmc])
def test_dense_path_holds_one_m_by_n_work_array(solve):
    # Without a callback the loop's one m x n array is the dense buffer of E;
    # U V^T on Omega takes a block buffer, not a second m x n one. The peak
    # is E, the dense S and Y of the result, 3 * 8mn bytes, plus Omega
    # vectors: seven of float64 values and one of block-local indices.
    m, n = 1000, 600
    rng = np.random.default_rng(3)
    d_obs = rng.standard_normal((m, 3)) @ rng.standard_normal((n, 3)).T
    mask = ObservationMask(rng.random((m, n)) < 0.5)
    assert_path(mask, False)
    cfg = SolverConfig(lam=1.0, d=5, max_iter=5)
    tracemalloc.start()
    try:
        solve(d_obs, mask, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 8 * m * n, peak / (8 * m * n)


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


def _random_marker(rng, shape, count):
    marker = np.zeros(shape[0] * shape[1], dtype=bool)
    marker[rng.choice(marker.size, size=count, replace=False)] = True
    return marker.reshape(shape)


def _masks():
    rng = np.random.default_rng(5)
    shape = (37, 23)
    size = shape[0] * shape[1]
    gaps = rng.random(shape) < 0.2
    gaps[[0, 9, 36], :] = False       # empty rows, the first and last included
    gaps[:, [0, 14, 22]] = False      # empty columns
    single = np.zeros(shape, dtype=bool)
    single[36, 0] = True
    below = int(np.ceil(SPARSE_DENSITY * size)) - 1
    blocks = rng.random(MULTI_BLOCK) < 0.1
    blocks[BLOCK_ROWS:2 * BLOCK_ROWS] = False   # a block without Omega entries
    return {
        "empty rows and columns": gaps,
        "single entry": single,
        "just below the cut": _random_marker(rng, shape, below),
        "just above the cut": _random_marker(rng, shape, below + 1),
        "three row blocks": blocks,
    }


@pytest.mark.parametrize("name", sorted(_masks()))
def test_csr_products_match_dense_buffer(name):
    marker = _masks()[name]
    m, n = marker.shape
    flat = np.flatnonzero(marker)
    if name == "just below the cut":
        assert flat.size < SPARSE_DENSITY * m * n
    if name == "just above the cut":
        assert flat.size >= SPARSE_DENSITY * m * n
    rng = np.random.default_rng(flat.size)
    mask = ObservationMask(marker)
    dense_values, dense_load, dense_low_rank = _omega_matrix(mask, csr=False)
    csr_values, csr_load, csr_low_rank = _omega_matrix(mask, csr=True)
    for _ in range(3):   # the values are rewritten in place every iteration
        values = rng.standard_normal(flat.size)
        dense_values[:] = values
        csr_values[:] = values
        v = rng.standard_normal((n, 4))
        u = np.linalg.qr(rng.standard_normal((m, 4)))[0]
        e, e_t = dense_load()
        np.testing.assert_array_equal(e, np.where(marker, e, 0.0))
        assert np.array_equal(e.reshape(-1)[flat], values)
        s, s_t = csr_load()
        for got, want in ((s @ v, e @ v), (s_t @ u, e_t @ u)):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # L = U V^T on Omega, alone and with the whole product
        full = u @ v.T
        want = full.reshape(-1)[flat]
        for low_rank in (dense_low_rank, csr_low_rank):
            for product in (None, np.full((m, n), np.nan)):
                got = np.full(flat.size, np.nan)
                low_rank(u, v, got, product)
                assert np.linalg.norm(got - want) <= \
                    1e-12 * np.linalg.norm(want)
                if product is not None:
                    assert np.linalg.norm(product - full) <= \
                        1e-12 * np.linalg.norm(full)
