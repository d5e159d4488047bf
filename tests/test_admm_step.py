"""The closed-form Omega step of the ADMM driver, checked by its structure.

For robust completion the step sets Y = alpha clip(W, +-1/alpha) and
S = W - clip(W, +-1/alpha), with W = D - L + Y_old / alpha on Omega. So
after every iteration |Y| <= 1 on Omega, Y = 0 off it, and Y = sign(S)
wherever S is nonzero: the optimality conditions of the l1 term. The step
works in buffers allocated once, and the objective's nuclear norm comes
from the SVD inside ``svt``.
"""

import tracemalloc

import numpy as np
import pytest

from lowrank import rmc
from lowrank.config import SolverConfig
from lowrank.cpcp import solve_cpcp
from lowrank.datasets import generate_planted
from lowrank.rmc import SPARSE_DENSITY, solve_mc, solve_rmc, solve_rpca

KKT_TOL = 1e-12

# Observed fractions above and below SPARSE_DENSITY: dense-buffer and CSR path.
DENSE_OBS, CSR_OBS = 0.5, 0.15


def planted(obs_frac, shape=(80, 60), seed=5):
    p = generate_planted(*shape, 3, spike_frac=0.1, obs_frac=obs_frac,
                         seed=seed)
    if obs_frac < 1.0:
        density = p.mask.dim / (shape[0] * shape[1])
        assert (density < SPARSE_DENSITY) == (obs_frac == CSR_OBS), density
    return p


def assert_kkt(marker, s, y, where):
    s_on, y_on = s[marker], y[marker]
    assert np.all(y[~marker] == 0), where
    assert np.max(np.abs(y_on)) <= 1 + KKT_TOL, where
    support = s_on != 0
    assert np.all(np.abs(y_on[support] - np.sign(s_on[support])) <= KKT_TOL), \
        where
    return int(support.sum())


def check_kkt(run, marker):
    snaps = []
    res = run(lambda it: snaps.append((it.s.copy(), it.y.copy())))
    assert len(snaps) == res.iterations >= 10
    support = [assert_kkt(marker, s, y, f"iteration {k}")
               for k, (s, y) in enumerate(snaps, start=1)]
    assert max(support) > 0, "S is zero on Omega at every iteration"
    assert_kkt(marker, res.s, res.y, "result")
    np.testing.assert_array_equal(res.s[marker], snaps[-1][0][marker])
    np.testing.assert_array_equal(res.y, snaps[-1][1])


@pytest.mark.parametrize("obs_frac", [DENSE_OBS, CSR_OBS])
def test_rmc_multiplier_is_sign_of_sparse_part(obs_frac):
    p = planted(obs_frac)
    cfg = SolverConfig(lam=0.7 * np.sqrt(80 * obs_frac), d=5)
    check_kkt(lambda cb: solve_rmc(p.d_obs, p.mask, cfg, iter_callback=cb),
              p.mask.marker)


def test_rpca_multiplier_is_sign_of_sparse_part():
    p = planted(1.0)
    cfg = SolverConfig(d=5)
    check_kkt(lambda cb: solve_rpca(p.d_obs, cfg, iter_callback=cb),
              np.ones(p.d_obs.shape, dtype=bool))


@pytest.mark.parametrize("solve", [solve_rmc, solve_mc])
@pytest.mark.parametrize("obs_frac", [DENSE_OBS, CSR_OBS])
def test_iteration_allocates_no_omega_vector(monkeypatch, solve, obs_frac):
    # svt is called once per iteration; between two calls the traced memory
    # must not rise above its level at the first by a vector over Omega.
    p = planted(obs_frac, shape=(300, 300))
    levels = []
    svt = rmc.svt

    def measured_svt(*args):
        levels.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return svt(*args)

    monkeypatch.setattr(rmc, "svt", measured_svt)
    cfg = SolverConfig(lam=1.0, d=4, max_iter=8)
    tracemalloc.start()
    try:
        res = solve(p.d_obs, p.mask, cfg)
    finally:
        tracemalloc.stop()
    assert len(levels) == res.iterations == 8
    omega_bytes = 8 * p.mask.dim
    for (current, _), (_, peak) in zip(levels, levels[1:]):
        assert peak - current < omega_bytes, (peak - current) / omega_bytes


@pytest.mark.parametrize("solver", ["rmc", "mc", "cpcp"])
def test_one_svd_per_iteration(monkeypatch, solver):
    p = planted(DENSE_OBS)
    cfg = SolverConfig(lam=1.0, d=4, max_iter=12)
    svd = np.linalg.svd
    calls = []

    def counted_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    if solver == "cpcp":
        res = solve_cpcp(p.mask.forward(p.d_obs), p.mask, cfg)
    else:
        res = {"rmc": solve_rmc, "mc": solve_mc}[solver](p.d_obs, p.mask, cfg)
    assert len(calls) == res.iterations
