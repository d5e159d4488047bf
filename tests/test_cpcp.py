import re

import numpy as np
import pytest

from lowrank.config import SolverConfig
from lowrank.cpcp import data_fit_gradient, solve_cpcp
from lowrank.datasets import generate_planted
from lowrank.measurements import ObservationMask, draw_random_subspace
from lowrank.metrics import relative_error
from lowrank.prox import soft_threshold, svt
from lowrank.rmc import orthonormal_factor, solve_rmc


def measured_problem(m=20, n=16, r=2, p=200, seed=0, spike_frac=0.05):
    prob = generate_planted(m, n, r, spike_frac=spike_frac, obs_frac=1.0,
                            seed=seed)
    q = draw_random_subspace(m, n, p, seed=seed + 100)
    y = q.forward(prob.l0 + prob.s0)
    return prob, q, y


class TestSolveCpcp:
    def test_zero_measurements_give_zero_solution(self):
        q = draw_random_subspace(6, 6, 12, seed=0)
        res = solve_cpcp(np.zeros(12), q, SolverConfig(lam=1.0, d=2))
        assert np.all(res.low_rank() == 0)
        assert np.all(res.s == 0)

    def test_planted_recovery_from_dense_measurements(self):
        prob, q, y = measured_problem(m=30, n=30, r=3, p=675, seed=1)
        cfg = SolverConfig(lam=np.sqrt(30.0), d=6, tol=1e-10, max_iter=1000)
        res = solve_cpcp(y, q, cfg)
        assert res.termination == "converged"
        assert relative_error(res.low_rank(), prob.l0) <= 5e-2

    def test_mask_operator_recovers_like_rmc(self):
        # entry sampling is measurement against the subspace of indicator
        # matrices, so a mask is a CPCP operator and both solvers recover L
        prob = generate_planted(30, 30, 2, spike_frac=0.05, obs_frac=0.8,
                                seed=3)
        cfg = SolverConfig(lam=np.sqrt(24.0), d=4, tol=1e-10, max_iter=1000)
        res = solve_cpcp(prob.mask.forward(prob.d_obs), prob.mask, cfg)
        ref = solve_rmc(prob.d_obs, prob.mask, cfg)
        assert res.termination == "converged"
        assert relative_error(res.low_rank(), prob.l0) <= 1e-3
        assert relative_error(ref.low_rank(), prob.l0) <= 1e-3
        assert res.y.shape == (prob.mask.dim,)

    def test_adjust_rank_rejected(self):
        q = draw_random_subspace(5, 5, 10, seed=2)
        with pytest.raises(ValueError, match="adjust_rank"):
            solve_cpcp(np.zeros(10), q, SolverConfig(d=2, adjust_rank=True))

    def test_measurement_length_mismatch(self):
        q = draw_random_subspace(5, 5, 10, seed=2)
        with pytest.raises(ValueError, match=re.escape(
                "measurement vector of shape (9,) does not match operator "
                "dimension 10")):
            solve_cpcp(np.zeros(9), q, SolverConfig(d=2))

    def test_operator_without_measurements_rejected(self):
        empty = ObservationMask(np.zeros((5, 5), dtype=bool))
        with pytest.raises(ValueError, match=re.escape(
                "subspace dimension 0 out of range [1, 25]")):
            solve_cpcp(np.zeros(0), empty, SolverConfig(d=2))

    def test_nonfinite_measurements_rejected(self):
        q = draw_random_subspace(5, 5, 10, seed=3)
        y = np.zeros(10)
        y[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_cpcp(y, q, SolverConfig(d=2))

    def test_deterministic(self):
        _, q, y = measured_problem(seed=4)
        cfg = SolverConfig(lam=2.0, d=4, max_iter=60)
        r1 = solve_cpcp(y, q, cfg)
        r2 = solve_cpcp(y, q, cfg)
        assert np.array_equal(r1.low_rank(), r2.low_rank())
        assert np.array_equal(r1.s, r2.s)

    def test_stop_ratio_recorded_after_first_iteration(self):
        _, q, y = measured_problem(seed=5)
        res = solve_cpcp(y, q, SolverConfig(lam=2.0, d=4, max_iter=30))
        assert all(rec.stop_ratio is None or rec.stop_ratio >= 0
                   for rec in res.trace)


class CountingOperator:
    """Exposes only the four operator members and counts forward calls."""

    def __init__(self, q):
        self.q = q
        self.forward_calls = 0
        self.shape = q.shape
        self.dim = q.dim
        self.adjoint = q.adjoint

    def forward(self, a):
        self.forward_calls += 1
        return self.q.forward(a)


LAM = 2.0


def collect(seed=7, iters=25):
    """Operator, measurements, result, and one (u, v, s, y) snapshot per
    iteration; snapshot 0 is the starting point of the solver."""
    _, q, y = measured_problem(seed=seed)
    m, n = q.shape
    d = 4
    snaps = [(np.eye(m, d), np.zeros((n, d)), np.zeros((m, n)),
              np.zeros(q.dim))]
    res = solve_cpcp(y, q, SolverConfig(lam=LAM, d=d, max_iter=iters,
                                        tol=1e-14),
                     iter_callback=lambda it: snaps.append(
                         (it.u, it.v, it.s, it.y)))
    assert len(snaps) == res.iterations + 1
    return q, y, res, snaps


class TestForwardReuse:
    def test_two_forward_calls_per_iteration(self):
        _, q, y = measured_problem(seed=9)
        counting = CountingOperator(q)
        calls = []
        res = solve_cpcp(y, counting, SolverConfig(lam=2.0, d=4, max_iter=20),
                         iter_callback=lambda it: calls.append(
                             counting.forward_calls))
        # none at the start, where the iterate is zero
        assert calls == [2 * k for k in range(1, res.iterations + 1)]

    def test_product_gradient_uses_previous_iterate(self):
        # the product step of iteration k linearizes at snapshot k-1 (the
        # forward product the solver reuses) and steps 1/alpha
        q, y, res, snaps = collect(seed=10, iters=20)
        for k in range(1, len(snaps)):
            u, v, s, dual = snaps[k - 1]
            alpha = res.trace[k - 1].alpha
            step = 1.0 / alpha
            t = u @ v.T
            b = t - step * data_fit_gradient(t, s, y, dual, alpha, q)
            u = orthonormal_factor(b @ v, u, "qr")
            v, _ = svt((u.T @ b).T, LAM / alpha)
            u_k, v_k = snaps[k][:2]
            assert np.array_equal(u @ v.T, u_k @ v_k.T), k


class TestIterationInvariants:
    def test_product_cache_coherent(self):
        # the sparse and dual steps of iteration k use the product U V^T of
        # the factors it reports, not a stale or separately held copy
        q, y, res, snaps = collect(seed=10, iters=20)
        for k in range(1, len(snaps)):
            _, _, s, dual = snaps[k - 1]
            u_k, v_k, s_k, dual_k = snaps[k]
            alpha = res.trace[k - 1].alpha
            step = 1.0 / alpha
            t = u_k @ v_k.T
            grad_s = data_fit_gradient(s, t, y, dual, alpha, q)
            s = soft_threshold(s - step * grad_s, 1.0 / alpha)
            dual = dual + alpha * (y - q.forward(t + s))
            assert np.array_equal(s, s_k), k
            assert np.array_equal(dual, dual_k), k

    def test_factor_orthonormal(self):
        _, _, _, snaps = collect()
        for u, _, _, _ in snaps[1:]:
            d = u.shape[1]
            assert np.max(np.abs(u.T @ u - np.eye(d))) <= 1e-8

    def test_gradient_matches_finite_differences(self):
        _, q, y = measured_problem(m=6, n=6, p=20, seed=8)
        rng = np.random.default_rng(0)
        point = rng.standard_normal((6, 6))
        other = rng.standard_normal((6, 6))
        dual = rng.standard_normal(20)
        alpha = 1.7
        grad = data_fit_gradient(point, other, y, dual, alpha, q)

        def f(x):
            resid = q.forward(x + other) - y - dual / alpha
            return 0.5 * alpha * float(resid @ resid)

        eps = 1e-5
        for _ in range(20):
            direction = rng.standard_normal((6, 6))
            direction /= np.linalg.norm(direction)
            fd = (f(point + eps * direction) - f(point - eps * direction)) / (
                2 * eps
            )
            assert fd == pytest.approx(float(np.sum(grad * direction)),
                                       abs=1e-5)

    def test_linearized_surrogate_majorizes_data_fit(self):
        # each product update minimizes the local quadratic model; that model
        # must sit above the true data-fit term at the produced point
        q, y, res, snaps = collect(seed=9)

        def g(x, s, dual, alpha):
            resid = q.forward(x + s) - y - dual / alpha
            return 0.5 * alpha * float(resid @ resid)

        for k in range(1, len(snaps)):
            u_prev, v_prev, s_prev, dual_prev = snaps[k - 1]
            u, v = snaps[k][:2]
            alpha = res.trace[k - 1].alpha
            t_prev, t = u_prev @ v_prev.T, u @ v.T
            grad_t = data_fit_gradient(t_prev, s_prev, y, dual_prev, alpha, q)
            step = 1.0 / alpha
            lin = (
                g(t_prev, s_prev, dual_prev, alpha)
                + float(np.sum(grad_t * (t - t_prev)))
                + np.linalg.norm(t - t_prev) ** 2 / (2 * step)
            )
            actual = g(t, s_prev, dual_prev, alpha)
            assert lin >= actual - 1e-6 * (1.0 + abs(actual))


class TestRpcaCrossConsistency:
    def test_full_measurement_cpcp_tracks_rpca_target(self):
        # with p = m*n the measurements determine the matrix exactly, so the
        # recovered sum must reproduce the data even though the splitting
        # differs from the direct factorization solver
        prob, q, y = measured_problem(m=12, n=10, r=2, p=120, seed=10)
        cfg = SolverConfig(lam=np.sqrt(12.0), d=4, tol=1e-12, max_iter=1500)
        res = solve_cpcp(y, q, cfg)
        data = prob.l0 + prob.s0
        assert relative_error(res.low_rank() + res.s, data) <= 1e-3
