"""The closed-form Omega step of the ADMM driver, checked by its structure.

For robust completion the step sets Y = alpha clip(W, +-1/alpha) and
S = W - clip(W, +-1/alpha), with W = D - L + Y_old / alpha on Omega. So
after every iteration |Y| <= 1 on Omega, Y = 0 off it, and Y = sign(S)
wherever S is nonzero: the optimality conditions of the l1 term. From
iteration 2 on the step is over-relaxed, with
W = gamma (D - L) + (1 - gamma) S_prev + Y_old / alpha, and the same holds.
The step works in buffers allocated once, and the objective's nuclear norm
comes from the SVD inside ``svt``.

The driver carries C = Y / alpha in place of Y. Its steps are checked
against the steps that carried Y, kept here as references with the
driver's Omega phase around them: S, Y, Z - L, the next E, the data term
and the residual agree to a few units in the last place. The reductions
and the in-place update of E give the same bits wherever their buffers
sit in memory, so that two runs of one command write the same bytes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank import rmc
from lowrank.config import SolverConfig
from lowrank.cpcp import solve_cpcp
from lowrank.datasets import generate_planted
from lowrank.measurements import ObservationMask
from lowrank.prox import soft_threshold
from lowrank.rmc import (SPARSE_DENSITY, _mc_step, _OmegaMatrix, _robust_step,
                         solve_mc, solve_rmc, solve_rpca)

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
    check_allocations(monkeypatch, solve, obs_frac)


@pytest.mark.parametrize("solve", [solve_rmc, solve_mc])
@pytest.mark.parametrize("obs_frac", [DENSE_OBS, CSR_OBS])
def test_iteration_in_spans_allocates_no_omega_vector(monkeypatch, solve,
                                                      obs_frac):
    # the step runs in several spans on both instances
    monkeypatch.setattr(rmc, "STEP_ENTRIES", 2**12)
    assert check_allocations(monkeypatch, solve, obs_frac) > 2**12


def check_allocations(monkeypatch, solve, obs_frac):
    # svt is called once per iteration; between two calls the traced memory
    # must not rise above its level at the first by a vector over Omega.
    # At 300^2 the dense-buffer instance runs the step in several spans of
    # the default STEP_ENTRIES, the CSR one in one span.
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
    return p.mask.dim


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


def reference_robust_step(data, low, y, scaled, alpha, gap, work):
    """Robust completion's step as it carried Y: ``y`` is overwritten with
    the new Y, ``scaled`` holds Y / alpha on entry."""
    tau = 1.0 / alpha
    np.subtract(data, low, out=work)
    work += scaled
    np.clip(work, -tau, tau, out=gap)
    work -= gap
    np.multiply(gap, alpha, out=y)
    gap -= scaled
    return float(np.abs(work, out=scaled).sum())   # ||S||_1


def reference_mc_step(data, low, y, scaled, alpha, gap, work):
    """Plain completion's step as it carried Y."""
    np.subtract(data, low, out=work)
    fit = 0.5 * float(np.dot(work, work))
    work -= y
    np.divide(work, 1.0 + alpha, out=gap)
    np.multiply(gap, alpha, out=work)
    y += work
    return fit


def reference_phase(step, data, low, y_prev, alpha, alpha_next):
    """The Omega phase of one iteration of the driver that carried Y: the
    step, the residual and the next E = (Z - L) + Y / alpha_next."""
    y, gap, work = y_prev.copy(), np.empty_like(data), np.empty_like(data)
    term = step(data, low, y, y_prev / alpha, alpha, gap, work)
    return {"s": work, "y": y, "gap": gap, "term": term,
            "residual": float(np.linalg.norm(gap)),
            "e_next": gap + y / alpha_next}


def carried_phase(step, data, low, c_prev, alpha_prev, alpha, alpha_next):
    """The same phase as the driver runs it: C = Y / alpha, Z - L written
    into E's Omega values, and the next E formed there in place."""
    omega = _OmegaMatrix(ObservationMask.full(1, data.size))
    c, work, gap = np.empty_like(data), np.empty_like(data), omega.values
    term = step(data, low, c_prev, alpha_prev / alpha, alpha, c, gap, work)
    residual = float(np.linalg.norm(gap))
    gap = gap.copy()
    omega.add(c, alpha / alpha_next)
    return {"s": work, "y": alpha * c, "gap": gap, "term": term,
            "residual": residual, "e_next": omega.values}


ULPS = 8 * np.finfo(float).eps

STEPS = {"robust": (_robust_step, reference_robust_step),
         "mc": (_mc_step, reference_mc_step)}


def check_phase(solver, data, low, c_prev, alpha_prev, alpha, alpha_next):
    """The carried phase agrees with the reference to ULPS of the scale of
    the step's inputs, W = D - L + Y_prev / alpha, elementwise; the data
    term and the residual to that over all entries."""
    step, reference = STEPS[solver]
    got = carried_phase(step, data, low, c_prev, alpha_prev, alpha,
                        alpha_next)
    want = reference_phase(reference, data, low, alpha_prev * c_prev, alpha,
                           alpha_next)
    scale = np.abs(data) + np.abs(low) + alpha_prev / alpha * np.abs(c_prev)
    y_scale = max(alpha, 1.0) * scale + alpha_prev * np.abs(c_prev)
    bounds = {"s": scale, "gap": scale, "y": y_scale,
              "e_next": scale + y_scale / alpha_next}
    if solver == "robust":
        bounds["y"] = np.maximum(bounds["y"], 1.0)
    else:   # S is zero; the step's scratch is not compared
        del bounds["s"]
    for name, bound in bounds.items():
        assert np.all(np.abs(got[name] - want[name]) <= ULPS * bound), name
    if solver == "robust":
        np.testing.assert_array_equal(got["s"] != 0, want["s"] != 0)
        assert np.all(np.abs(got["y"]) <= 1 + ULPS)
    # ||S||_1 for robust completion, ||D - L||^2 / 2 for plain completion
    term_bound = scale.sum() if solver == "robust" else \
        2 * float(np.dot(scale, scale))
    assert abs(got["term"] - want["term"]) <= ULPS * term_bound
    assert abs(got["residual"] - want["residual"]) <= \
        ULPS * float(np.linalg.norm(scale))
    return got


def draw(seed, size, alpha_prev, level, bound_frac):
    """D, L and a C_prev of a robust step at alpha_prev: |C_prev| is at most
    1 / alpha_prev, at the bound on about ``bound_frac`` of the entries.
    D - L is ``level`` times 1 / alpha_prev."""
    rng = np.random.default_rng(seed)
    low = rng.standard_normal(size)
    data = low + level / alpha_prev * rng.standard_normal(size)
    c_prev = rng.uniform(-1.0, 1.0, size)
    at_bound = rng.random(size) < bound_frac
    c_prev[at_bound] = np.sign(c_prev[at_bound])
    return data, low, c_prev / alpha_prev


@pytest.mark.parametrize("solver", sorted(STEPS))
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 400),
       log_alpha=st.floats(-3, 3), growth=st.sampled_from([1.0, 1.1, 1.5]),
       log_level=st.floats(-2, 2), bound_frac=st.floats(0, 1))
def test_carried_step_matches_reference(solver, seed, size, log_alpha, growth,
                                        log_level, bound_frac):
    alpha_prev = 10.0**log_alpha
    data, low, c_prev = draw(seed, size, alpha_prev, 10.0**log_level,
                             bound_frac)
    check_phase(solver, data, low, c_prev, alpha_prev, growth * alpha_prev,
                growth**2 * alpha_prev)


@pytest.mark.parametrize("solver", sorted(STEPS))
def test_first_iteration(solver):
    # Y = 0: C_prev is zero and kappa is 1
    data, low, _ = draw(1, 300, 2.0, 3.0, 0.0)
    check_phase(solver, data, low, np.zeros(300), 2.0, 2.0, 3.0)


@pytest.mark.parametrize("solver", sorted(STEPS))
def test_alpha_at_alpha_max(solver):
    # once alpha reaches alpha_max it stays there: kappa = 1 on both sides
    alpha = SolverConfig().alpha_max
    data, low, c_prev = draw(2, 300, alpha, 3.0, 0.5)
    check_phase(solver, data, low, c_prev, alpha, alpha, alpha)


def reference_relaxed_step(data, low, s_prev, y_prev, alpha, gamma):
    """The over-relaxed robust step as the ADMM update with
    L^ = gamma L + (1 - gamma) Z_prev, Z_prev = D - S_prev: S, Y, Z - L
    measured from L, and ||S||_1."""
    low_hat = gamma * low + (1.0 - gamma) * (data - s_prev)
    s = soft_threshold(data - low_hat + y_prev / alpha, 1.0 / alpha)
    y = y_prev + alpha * (data - s - low_hat)
    return {"s": s, "y": y, "gap": data - s - low,
            "term": float(np.abs(s).sum())}


@pytest.mark.parametrize("gamma", [1.3, rmc.RELAXATION, 1.7])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 400),
       log_alpha=st.floats(-3, 3), growth=st.sampled_from([1.0, 1.1, 1.5]),
       log_level=st.floats(-2, 2), bound_frac=st.floats(0, 1))
def test_relaxed_step_matches_reference(gamma, seed, size, log_alpha, growth,
                                        log_level, bound_frac):
    alpha_prev = 10.0**log_alpha
    alpha = growth * alpha_prev
    data, low, c_prev = draw(seed, size, alpha_prev, 10.0**log_level,
                             bound_frac)
    # S_prev = W_prev - C_prev is zero where C_prev is inside the bound and
    # has C_prev's sign where C_prev is at it
    rng = np.random.default_rng(seed + 1)
    at_bound = np.abs(c_prev) == 1.0 / alpha_prev
    s_prev = np.where(at_bound, np.sign(c_prev), 0.0) * rng.exponential(
        10.0**log_level / alpha_prev, size)
    c, gap, work = np.empty_like(data), np.empty_like(data), s_prev.copy()
    term = _robust_step(data, low, c_prev, alpha_prev / alpha, alpha, c, gap,
                        work, gamma=gamma)
    want = reference_relaxed_step(data, low, s_prev, alpha_prev * c_prev,
                                  alpha, gamma)
    scale = gamma * (np.abs(data) + np.abs(low)) + (gamma - 1.0) * (
        np.abs(data) + np.abs(s_prev) + np.abs(low)) + \
        alpha_prev / alpha * np.abs(c_prev)
    for name, got in (("s", work), ("gap", gap)):
        assert np.all(np.abs(got - want[name]) <= ULPS * scale), name
    assert np.all(np.abs(alpha * c - want["y"]) <=
                  ULPS * np.maximum(max(alpha, 1.0) * scale, 1.0))
    assert np.all(np.abs(alpha * c) <= 1 + ULPS)
    support = work != 0
    assert np.all(np.abs(alpha * c[support] - np.sign(work[support]))
                  <= ULPS)
    assert abs(term - want["term"]) <= ULPS * scale.sum()


def reference_relaxed_mc_step(data, low, z_prev, y_prev, alpha, gamma):
    """The over-relaxed plain completion step as the ADMM update with
    L^ = gamma L + (1 - gamma) Z_prev and Z_prev stored: Z, Y, Z - L
    measured from L, and ||D - L||^2 / 2."""
    low_hat = gamma * low + (1.0 - gamma) * z_prev
    z = (data + alpha * low_hat - y_prev) / (1.0 + alpha)
    y = y_prev + alpha * (z - low_hat)
    return {"z": z, "y": y, "gap": z - low,
            "term": 0.5 * float(np.sum((data - low) ** 2))}


@pytest.mark.parametrize("gamma", [1.3, rmc.RELAXATION, 1.7])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 400),
       log_alpha=st.floats(-3, 3), growth=st.sampled_from([1.0, 1.1, 1.5]),
       log_level=st.floats(-2, 2))
def test_relaxed_mc_step_matches_reference(gamma, seed, size, log_alpha,
                                           growth, log_level):
    alpha_prev = 10.0**log_alpha
    alpha = growth * alpha_prev
    data, low, c_prev = draw(seed, size, alpha_prev, 10.0**log_level, 0.0)
    # every plain completion step leaves Y = D - Z on Omega
    z_prev = data - alpha_prev * c_prev
    c, gap, work = (np.empty_like(data) for _ in range(3))
    term = _mc_step(data, low, c_prev, alpha_prev / alpha, alpha, c, gap,
                    work, gamma=gamma)
    want = reference_relaxed_mc_step(data, low, z_prev, alpha_prev * c_prev,
                                     alpha, gamma)
    scale = gamma * (np.abs(data) + np.abs(low)) + (gamma - 1.0) * (
        np.abs(data) + np.abs(z_prev) + np.abs(low)) + \
        (1.0 + (gamma - 1.0) * alpha) * alpha_prev / alpha * np.abs(c_prev)
    assert np.all(np.abs(gap - want["gap"]) <= ULPS * scale)
    assert np.all(np.abs(low + gap - want["z"]) <= ULPS * scale)
    y_scale = max(alpha, 1.0) * scale + alpha_prev * np.abs(c_prev)
    assert np.all(np.abs(alpha * c - want["y"]) <= ULPS * y_scale)
    dev = np.abs(data) + np.abs(low)
    assert abs(term - want["term"]) <= ULPS * float(np.dot(dev, dev))


@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("obs_frac", [DENSE_OBS, CSR_OBS])
def test_mc_multiplier_is_data_minus_auxiliary(obs_frac, relaxed,
                                               monkeypatch):
    # The identity the plain completion step rests on: after every step
    # Y = D - Z on Omega, with Y the dual step Y_prev + alpha (Z - L^) from
    # the Z that the step reports. The relaxed step rebuilds Z_prev from it.
    if not relaxed:
        monkeypatch.setattr(rmc, "RELAXATION", 1.0)
    gamma = rmc.RELAXATION
    p = planted(obs_frac)
    marker = p.mask.marker
    data = p.d_obs[marker]
    snaps = []
    res = solve_mc(p.d_obs, p.mask, SolverConfig(lam=1.0, d=5),
                   iter_callback=lambda it: snaps.append(
                       (it.record.alpha, (it.u @ it.v.T)[marker],
                        (np.abs(it.u) @ np.abs(it.v.T))[marker],
                        it.s[marker], it.y[marker])))
    assert len(snaps) == res.iterations >= 10
    z_prev, y_prev = None, np.zeros_like(data)
    # |U| |V|^T bounds the rounding of L, which the driver evaluates in
    # another grouping
    for k, (alpha, low, low_abs, z, y) in enumerate(snaps, start=1):
        low_hat = low if k == 1 else gamma * low + (1.0 - gamma) * z_prev
        dual = y_prev + alpha * (z - low_hat)
        scale = np.abs(data) + np.abs(low) + np.abs(z) + np.abs(y)
        assert np.all(np.abs(z + y - data) <= ULPS * scale), k
        scale += np.abs(y_prev) + alpha * (np.abs(low_hat) + np.abs(z) +
                                           gamma * low_abs)
        assert np.all(np.abs(dual - y) <= ULPS * scale), k
        z_prev, y_prev = z, y


def check_first_iteration_is_unrelaxed(solve, cfg, monkeypatch):
    # the relaxation starts at iteration 2, the first whose Z_prev came from
    # a step: iteration 1 is the unrelaxed scheme's, bit for bit
    p = planted(DENSE_OBS)

    def path():
        snaps = []
        solve(p.d_obs, p.mask, cfg, iter_callback=lambda it: snaps.append(
            (it.u.tobytes(), it.v.tobytes(), it.s.tobytes(), it.y.tobytes())))
        return snaps

    relaxed = path()
    monkeypatch.setattr(rmc, "RELAXATION", 1.0)
    unrelaxed = path()
    assert relaxed[0] == unrelaxed[0]
    assert relaxed[1][2:] != unrelaxed[1][2:]


def test_first_iteration_is_unrelaxed(monkeypatch):
    check_first_iteration_is_unrelaxed(
        solve_rmc, SolverConfig(lam=0.7 * np.sqrt(80 * DENSE_OBS), d=5),
        monkeypatch)


def test_mc_first_iteration_is_unrelaxed(monkeypatch):
    check_first_iteration_is_unrelaxed(solve_mc, SolverConfig(lam=1.0, d=5),
                                       monkeypatch)


@pytest.mark.parametrize("level, clipped", [(1e3, True), (1e-3, False)])
def test_every_entry_or_no_entry_clipped(level, clipped):
    # |W| far above or below 1 / alpha on every entry
    alpha = 4.0
    rng = np.random.default_rng(3)
    low = rng.standard_normal(300)
    w = level / alpha * rng.uniform(1.0, 2.0, 300) * rng.choice([-1, 1], 300)
    got = check_phase("robust", low + w, low, np.zeros(300), alpha, alpha,
                      2 * alpha)
    assert np.all((got["s"] != 0) == clipped)
    if clipped:
        assert np.all(np.abs(got["y"]) == alpha * (1.0 / alpha))
    else:
        np.testing.assert_array_equal(got["gap"], got["y"] / alpha)


@pytest.mark.parametrize("solver", sorted(STEPS))
def test_zero_data(solver):
    zero = np.zeros(50)
    got = check_phase(solver, zero, zero, zero, 1.0, 1.5, 2.0)
    for name in ("s", "y", "gap", "e_next"):
        assert not np.any(got[name]), name
    assert got["term"] == got["residual"] == 0.0


def at_offsets(values, count=8):
    """``values`` copied into ``count`` buffers, each starting one float64
    further into a fresh allocation than the last."""
    for offset in range(count):
        buffer = np.empty(values.size + count)
        view = buffer[offset:offset + values.size]
        view[:] = values
        yield view


@pytest.mark.parametrize("size", [7, 1001, 200_003])
def test_reductions_and_update_ignore_buffer_offsets(size):
    # The step's data term and the residual are numpy reductions (np.dot,
    # np.linalg.norm), and the next E is formed by BLAS daxpy in place: each
    # gives the same bits at every pair of offsets. BLAS dasum does not, so
    # no step takes ||S||_1 by it.
    rng = np.random.default_rng(size)
    x, y = rng.standard_normal((2, size))
    results = set()
    for a, b in zip(at_offsets(x), reversed(list(at_offsets(y)))):
        reductions = (float(np.dot(a, b)), float(np.linalg.norm(a)))
        assert rmc.daxpy(a, b, a=0.7) is b
        results.add(reductions + (b.tobytes(),))
    assert len(results) == 1
