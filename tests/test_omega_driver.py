"""The Omega-restricted ADMM driver against the dense loops it replaced.

``dense_rmc`` and ``dense_mc`` are the loops of ``solve_rmc`` and
``solve_mc`` with every iterate held as a full m x n matrix and the products
with P taken as dense ``p @ v`` and ``p.T @ u``. With rank bound d = 1 the
thin QR of P V is unique, so the driver must follow the same iterate path up
to rounding. With d above the true rank the trailing QR columns of a
rank-deficient P V come from rounding and turn it into a different path, so
there the gate is on outcomes. The iteration count of such a path depends on
how P V is rounded: the driver's grouping U_prev (V_prev^T V) + E V carries
columns of U_prev into those trailing columns, a dense ``p @ v`` fresh noise,
and V then gains rank more slowly (80 x 70, d = 6, seeds 11-40: 37.0
iterations on average for the driver, 41.1 for ``p @ v``). So the count
above the true rank is compared with ``factored_rmc``, the dense loop in the
driver's grouping, and every other check with the dense products; that the
driver's products equal ``p @ v`` and ``p.T @ u`` within rounding is checked
on its own. ``dense_rmc`` and ``dense_mc`` take the driver's
over-relaxation (``rmc.RELAXATION``, read at each call) from iteration 2 on,
so that the two remain two implementations of one algorithm; one check per
solver runs both at 1, the unrelaxed scheme. The RMC and MC checks run on
both sides of ``SPARSE_DENSITY``: above it the driver takes its two products
with a dense m x n buffer, below it with a CSR array over Omega. Both
evaluate U V^T on Omega by row blocks, and one instance on each side spans
several blocks.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import issparse

import lowrank.rmc as rmc
from lowrank.config import (
    SPECTRAL_START,
    Iterate,
    IterationRecord,
    SolverConfig,
)
from lowrank.datasets import generate_planted
from lowrank.linalg import qr_thin
from lowrank.measurements import ObservationMask
from lowrank.metrics import auc, relative_error
from lowrank.prox import soft_threshold, svt
from lowrank.rmc import (
    BLOCK_ENTRIES,
    RANK_ADJUST_START,
    SPARSE_DENSITY,
    _OmegaMatrix,
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
EPS = np.finfo(float).eps


def _start(d_obs, mask, cfg, robust):
    """D on Omega, alpha0 and the stopping threshold. "auto" alpha0 is
    SPECTRAL_START * lambda / ||D on Omega||_2 for robust completion, with
    LAPACK's 2-norm, and 1 / ||D on Omega||_F for plain completion."""
    data = np.where(mask.marker, d_obs, 0.0)
    obs_norm = float(np.linalg.norm(data))
    if cfg.alpha0 != "auto":
        alpha = float(cfg.alpha0)
    elif robust:
        lam = cfg.resolve_lambda(*d_obs.shape)
        alpha = min(SPECTRAL_START * lam / np.linalg.norm(data, 2),
                    cfg.alpha_max)
    else:
        alpha = 1.0 / obs_norm if obs_norm > 0 else 1.0
    threshold = cfg.tol * obs_norm if obs_norm > 0 else cfg.tol
    return data, alpha, threshold


def _range_start(d_obs, mask, d):
    """The driver's start factor: the Q of the thin QR of D on Omega times an
    n x d Gaussian drawn with seed 0."""
    g = np.random.default_rng(0).standard_normal((mask.shape[1], d))
    return qr_thin(mask.adjoint(mask.forward(d_obs)) @ g).q


def _adjust(cfg, k, u, v, d, adjusted):
    if cfg.adjust_rank and not adjusted and k >= RANK_ADJUST_START and d >= 2:
        new_d = adjust_rank_once(v, d)
        if new_d != d:
            basis = _rank_truncation_basis(v, new_d)
            return u @ basis, v @ basis, new_d, True
    return u, v, d, adjusted


def _grouped_product(p, w, left, right):
    """P W as the driver groups it: P = left right^T + E, with
    E = P - left right^T zero off Omega."""
    return left @ (right.T @ w) + (p - left @ right.T) @ w


def dense_rmc(d_obs, mask, cfg, u_scheme="qr", iter_callback=None,
              factored=False):
    """Robust completion with every iterate held as a dense m x n matrix.
    ``factored`` takes the products with P in the driver's grouping. From
    iteration 2 on, the S-update and the dual step take
    L^ = gamma L + (1 - gamma) (D - S_prev) in place of L on Omega, and the
    residual is measured from L."""
    m, n = d_obs.shape
    gamma = rmc.RELAXATION
    data, alpha, threshold = _start(d_obs, mask, cfg, robust=True)
    marker = mask.marker
    lam = cfg.resolve_lambda(m, n)
    d = cfg.d
    u, v = _range_start(d_obs, mask, d), np.zeros((n, d))
    u_prev, v_prev = u, v
    s, y = np.zeros((m, n)), np.zeros((m, n))
    adjusted, trace = False, []
    for k in range(1, cfg.max_iter + 1):
        p = data - s + y / alpha
        if v.any():
            p_v = _grouped_product(p, v, u_prev, v_prev) if factored else p @ v
            u = orthonormal_factor(p_v, u_scheme)
        v, _, _ = svt(_grouped_product(p.T, u, v_prev, u_prev) if factored
                   else p.T @ u, lam / alpha)
        low_rank = u @ v.T
        fit = data - low_rank                  # -L off Omega
        if k > 1:                              # D - L^ on Omega
            fit = np.where(marker, gamma * fit + (1.0 - gamma) * s, fit)
        a = fit + y / alpha
        s = np.where(marker, soft_threshold(a, 1.0 / alpha), a)
        y = y + alpha * (fit - s)
        residual_mat = data - low_rank - s
        residual = float(np.linalg.norm(residual_mat))
        objective = float(np.abs(s[marker]).sum()) + lam * nuclear_norm(v)
        trace.append(IterationRecord(k, residual, objective, alpha, d))
        if iter_callback is not None:
            Iterate(trace[-1], u, v, {"s": lambda it: s, "y": lambda it: y}
                    ).pass_to(iter_callback)
        if residual < threshold:
            break
        alpha = min(cfg.rho * alpha, cfg.alpha_max)
        u_prev, v_prev = u, v
        u, v, d, adjusted = _adjust(cfg, k, u, v, d, adjusted)
    return trace


def factored_rmc(d_obs, mask, cfg):
    """``dense_rmc`` with the products with P in the driver's grouping."""
    return dense_rmc(d_obs, mask, cfg, factored=True)


def dense_mc(d_obs, mask, cfg, iter_callback=None):
    """Plain completion with every iterate held as a dense m x n matrix.
    From iteration 2 on, the auxiliary update and the dual step take
    L^ = gamma L + (1 - gamma) aux_prev in place of L on Omega, and the
    residual is measured from L."""
    m, n = d_obs.shape
    gamma = rmc.RELAXATION
    data, alpha, threshold = _start(d_obs, mask, cfg, robust=False)
    marker = mask.marker
    lam = cfg.resolve_lambda(m, n)
    d = cfg.d
    u, v = _range_start(d_obs, mask, d), np.zeros((n, d))
    aux, y = data.copy(), np.zeros((m, n))
    low_rank = u @ v.T
    adjusted, trace = False, []
    for k in range(1, cfg.max_iter + 1):
        prev_low_rank = low_rank
        p = aux + y / alpha
        if v.any():
            u = orthonormal_factor(p @ v, "qr")
        v, _, _ = svt(p.T @ u, lam / alpha)
        low_rank = u @ v.T
        low_hat = low_rank
        if k > 1:                              # L^ on Omega
            low_hat = np.where(marker, gamma * low_rank + (1.0 - gamma) * aux,
                               low_rank)
        aux = np.where(marker, (data + alpha * low_hat - y) / (1.0 + alpha),
                       low_rank - y / alpha)
        y = y + alpha * (aux - low_hat)
        residual = float(np.linalg.norm(aux - low_rank))
        objective = 0.5 * float(
            np.sum((data[marker] - low_rank[marker]) ** 2)
        ) + lam * nuclear_norm(v)
        trace.append(IterationRecord(k, residual, objective, alpha, d))
        if iter_callback is not None:
            Iterate(trace[-1], u, v, {"s": lambda it: aux, "y": lambda it: y}
                    ).pass_to(iter_callback)
        change = float(np.linalg.norm(low_rank - prev_low_rank))
        base = float(np.linalg.norm(prev_low_rank))
        if (base > 0 and change < cfg.tol * base) or residual < threshold:
            break
        alpha = min(cfg.rho * alpha, cfg.alpha_max)
        u, v, d, adjusted = _adjust(cfg, k, u, v, d, adjusted)
    return trace


def _snapshots():
    snaps = []

    def grab(it):
        snaps.append((it.u @ it.v.T, it.s.copy(), it.y.copy()))

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


@pytest.mark.parametrize("obs_frac", [DENSE_OBS, CSR_OBS])
def test_unrelaxed_rmc_matches_dense_loop_every_iteration(obs_frac,
                                                          monkeypatch):
    # gamma = 1, the scheme that the source paper's convergence analysis
    # covers, in both the driver and the reference
    monkeypatch.setattr(rmc, "RELAXATION", 1.0)
    check_rmc_path(INSTANCES[0], "qr", obs_frac)


@pytest.mark.parametrize("obs_frac", [DENSE_OBS, CSR_OBS])
def test_unrelaxed_mc_matches_dense_loop_every_iteration(obs_frac,
                                                         monkeypatch):
    # gamma = 1, the scheme that the source paper's convergence analysis
    # covers, in both the driver and the reference
    monkeypatch.setattr(rmc, "RELAXATION", 1.0)
    check_mc_path(INSTANCES[0], obs_frac)


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
            iter_callback=lambda it: dense.update(low=it.u @ it.v.T, s=it.s))
        res = solve_rmc(p.d_obs, p.mask, cfg)
        obs = p.mask.marker
        assert res.termination == "converged"
        assert relative_error(res.low_rank(), p.l0) <= 1e-3
        assert relative_error(dense["low"], p.l0) <= 1e-3
        assert auc(np.abs(res.s[obs]), p.s0[obs] != 0) >= \
            auc(np.abs(dense["s"][obs]), p.s0[obs] != 0) - 0.01
        # the count depends on how P V is rounded, as the module docstring
        # says: a dense p @ v took 42 iterations on instance 12, the driver 33
        grouped = len(factored_rmc(p.d_obs, p.mask, cfg))
        assert abs(res.iterations - grouped) <= 0.2 * grouped


@pytest.mark.parametrize("obs_frac", [0.7, CSR_OBS])
def test_driver_products_equal_dense_products_above_true_rank(obs_frac,
                                                              monkeypatch):
    # The driver's P V and P^T U, taken from E on Omega and the previous
    # factors, against p @ v and p.T @ u of the dense P rebuilt from each
    # iterate: off Omega P = U V^T, so P = D - S + Y / alpha with the
    # callback's S, which is -U V^T there.
    p = generate_planted(80, 70, 3, spike_frac=0.1, obs_frac=obs_frac,
                         seed=INSTANCES[1])
    assert_path(p.mask, obs_frac == CSR_OBS)
    cfg = SolverConfig(lam=np.sqrt(80 * obs_frac), d=6)
    data = np.where(p.mask.marker, p.d_obs, 0.0)
    calls, iterates = [], []
    real_factor, real_svt = rmc.orthonormal_factor, rmc.svt

    def factor(p_times_v, scheme):
        calls.append(("P V", len(iterates), p_times_v.copy()))
        return real_factor(p_times_v, scheme)

    def shrink(p_t_times_u, mu):
        calls.append(("P^T U", len(iterates), p_t_times_u.copy()))
        return real_svt(p_t_times_u, mu)

    monkeypatch.setattr(rmc, "orthonormal_factor", factor)
    monkeypatch.setattr(rmc, "svt", shrink)
    res = solve_rmc(p.d_obs, p.mask, cfg,
                    iter_callback=lambda it: iterates.append(
                        (it.u.copy(), it.v.copy(), it.s.copy(), it.y.copy())))
    # V's rank stays below d, so P V is rank-deficient at every factor update
    assert 0 < max(rec.rank for rec in res.trace) < cfg.d
    assert sum(name == "P V" for name, _, _ in calls) >= res.iterations // 2
    v, s, y = None, 0.0, 0.0    # before iteration 1: V = 0, S = Y = 0
    for name, k, got in calls:
        if k:
            _, v, s, y = iterates[k - 1]
        target = data - s + y / res.trace[k].alpha
        if name == "P V":
            want = target @ v
        else:   # with the U of iteration k + 1
            want = target.T @ iterates[k][0]
        assert _close(got, want), f"iteration {k + 1}: {name} differs"


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
            iter_callback=lambda it: dense.update(low=it.u @ it.v.T))
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
            iter_callback=lambda it: dense.update(low=it.u @ it.v.T))
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


# SPARSE_DENSITY set to each of these makes the constructor pick the layout
LAYOUT_CUTS = {"csr": np.inf, "dense": 0.0}


def _layout(cut, mask, monkeypatch):
    """An _OmegaMatrix over ``mask`` built with SPARSE_DENSITY = ``cut``."""
    with monkeypatch.context() as patch:
        patch.setattr(rmc, "SPARSE_DENSITY", cut)
        return _OmegaMatrix(mask)


def _is_csr(omega, mask):
    e, _ = omega.load(np.zeros(mask.dim))
    return issparse(e)


@pytest.mark.parametrize("name", sorted(_masks()))
def test_csr_products_match_dense_buffer(name, monkeypatch):
    marker = _masks()[name]
    m, n = marker.shape
    flat = np.flatnonzero(marker)
    mask = ObservationMask(marker)
    if name == "just below the cut":
        assert flat.size < SPARSE_DENSITY * m * n
        assert _is_csr(_OmegaMatrix(mask), mask)
    if name == "just above the cut":
        assert flat.size >= SPARSE_DENSITY * m * n
        assert not _is_csr(_OmegaMatrix(mask), mask)
    rng = np.random.default_rng(flat.size)
    dense = _layout(LAYOUT_CUTS["dense"], mask, monkeypatch)
    csr = _layout(LAYOUT_CUTS["csr"], mask, monkeypatch)
    assert _is_csr(csr, mask) and not _is_csr(dense, mask)
    for _ in range(3):   # the values are rewritten in place every iteration
        gap, c = rng.standard_normal((2, flat.size))
        scale = rng.uniform(0.5, 1.0)
        v = rng.standard_normal((n, 4))
        u = np.linalg.qr(rng.standard_normal((m, 4)))[0]
        # E = gap + scale c, as the driver forms the next E in place
        dense.load(gap)
        e, e_t = dense.add(c, scale)
        np.testing.assert_array_equal(e, np.where(marker, e, 0.0))
        assert np.array_equal(e.reshape(-1)[flat], dense.values)
        assert np.all(np.abs(dense.values - (gap + scale * c))
                      <= 4 * EPS * (np.abs(gap) + np.abs(scale * c)))
        csr.load(gap)
        s, s_t = csr.add(c, scale)
        assert np.array_equal(csr.values, dense.values)
        for got, want in ((s @ v, e @ v), (s_t @ u, e_t @ u)):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # L = U V^T on Omega
        want = (u @ v.T).reshape(-1)[flat]
        for omega in (dense, csr):
            got = np.full(flat.size, np.nan)
            omega.low_rank(u, v, got)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("layout", sorted(LAYOUT_CUTS))
@pytest.mark.parametrize("name", sorted(_masks()))
def test_low_rank_at_inner_size_k_matches_inner_size_d(name, layout,
                                                        monkeypatch):
    # The driver evaluates U V^T on Omega from svt's factors of V, as
    # (U Z_k) W_k^T at inner size k, the rank of V, in place of U V^T at d.
    mask = ObservationMask(_masks()[name])
    m, n = mask.shape
    omega = _layout(LAYOUT_CUTS[layout], mask, monkeypatch)
    rng = np.random.default_rng(mask.dim)
    d = min(6, m, n)
    u = np.linalg.qr(rng.standard_normal((m, d)))[0]
    target = rng.standard_normal((n, d)) * np.geomspace(4.0, 0.25, d)
    for mu in (0.0, 1.0, 3.0):
        v, shrunk, (w_k, z_k_t) = svt(target, mu)
        k = shrunk.size
        assert w_k.shape == (n, k) and z_k_t.shape == (k, d)
        if not k:
            continue
        at_d, at_k = np.full((2, mask.dim), np.nan)
        omega.low_rank(u, v, at_d)
        omega.low_rank(u @ z_k_t.T, w_k, at_k)
        assert _close(at_k, at_d), (mu, k)


@pytest.mark.parametrize("layout", sorted(LAYOUT_CUTS))
@pytest.mark.parametrize("name", ["empty rows and columns",
                                  "just below the cut", "just above the cut"])
def test_norm_2_is_the_spectral_norm_on_omega(name, layout, monkeypatch):
    mask = ObservationMask(_masks()[name])
    data = np.random.default_rng(mask.dim).standard_normal(mask.dim)
    omega = _layout(LAYOUT_CUTS[layout], mask, monkeypatch)
    omega.load(data)
    want = np.linalg.norm(mask.adjoint(data), 2)
    assert abs(omega.norm_2() - want) <= 1e-12 * want


@pytest.mark.parametrize("layout", sorted(LAYOUT_CUTS))
@pytest.mark.parametrize("shape", [(1, 30), (30, 1)])
def test_norm_2_of_a_vector_is_its_frobenius_norm(shape, layout, monkeypatch):
    marker = np.random.default_rng(3).random(shape) < 0.6
    mask = ObservationMask(marker)
    data = np.random.default_rng(4).standard_normal(mask.dim)
    omega = _layout(LAYOUT_CUTS[layout], mask, monkeypatch)
    omega.load(data)
    assert omega.norm_2() == float(np.linalg.norm(data))
    assert omega.norm_2() == pytest.approx(
        np.linalg.norm(mask.adjoint(data)), rel=1e-12)


# While V = 0 the driver skips the factor update and L = U V^T on Omega. The
# checks of that skip start at plain completion's alpha0, 1 / ||D on Omega||_F,
# as robust completion's "auto" alpha0 leaves few such iterations.


def _frobenius_start(d_obs, mask):
    return 1.0 / np.linalg.norm(mask.forward(d_obs))


def _count_factor_updates(monkeypatch):
    calls = []
    real = rmc.orthonormal_factor

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rmc, "orthonormal_factor", counted)
    return calls


@pytest.mark.parametrize("solver", ["rmc", "mc"])
@pytest.mark.parametrize("obs_frac", [DENSE_OBS, CSR_OBS])
def test_factor_update_runs_only_after_nonzero_v(solver, obs_frac,
                                                  monkeypatch):
    p = small_instance(INSTANCES[0], spike_frac=0.1 if solver == "rmc" else 0.0,
                       obs_frac=obs_frac)
    assert_path(p.mask, obs_frac == CSR_OBS)
    calls = _count_factor_updates(monkeypatch)
    if solver == "rmc":
        res = solve_rmc(p.d_obs, p.mask,
                        SolverConfig(lam=0.7 * np.sqrt(60 * obs_frac), d=4))
    else:
        res = solve_mc(p.d_obs, p.mask,
                       SolverConfig(lam=1.0, d=4, tol=1e-6, max_iter=400))
    after_nonzero_v = sum(prev.rank > 0 for prev in res.trace[:-1])
    assert res.trace[0].rank == 0, "no iteration runs with V = 0"
    assert 0 < after_nonzero_v < res.iterations - 1
    assert len(calls) == after_nonzero_v
    assert res.termination == "converged"
    assert np.linalg.norm(res.low_rank()) > 0


@pytest.mark.parametrize("solver", [solve_rmc, solve_mc])
def test_factor_update_never_runs_while_rank_stays_zero(solver, monkeypatch):
    p = small_instance(INSTANCES[1], shape=(12, 10))
    calls = _count_factor_updates(monkeypatch)
    res = solver(p.d_obs, p.mask,
                 SolverConfig(lam=1e6, d=3, max_iter=20,
                              alpha0=_frobenius_start(p.d_obs, p.mask)))
    assert res.iterations == 20
    assert all(rec.rank == 0 for rec in res.trace)
    assert calls == []
    assert_path(p.mask, False)   # the driver's E_0 G is this dense GEMM
    assert np.array_equal(res.u, _range_start(p.d_obs, p.mask, 3))
    assert not np.any(res.v)
