import dataclasses
import re

import numpy as np
import pytest

import lowrank.cpcp as cpcp
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
        # L = S = 0 is the unique optimum, reached at iteration 1; no norm
        # is taken, and the penalty starts at 1
        assert res.termination == "converged"
        assert res.stop_test == "residual"
        assert res.iterations == 1
        assert res.trace[0].alpha == 1.0
        assert np.all(res.low_rank() == 0)
        assert np.all(res.s == 0)

    def test_planted_recovery_from_dense_measurements(self):
        prob, q, y = measured_problem(m=30, n=30, r=3, p=675, seed=1)
        cfg = SolverConfig(lam=np.sqrt(30.0), d=6, tol=1e-10, max_iter=1000)
        res = solve_cpcp(y, q, cfg)
        assert res.termination == "converged"
        assert res.stop_test == "step_ratio"
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

    def test_spectral_start_takes_fewer_iterations(self):
        # criterion 07's instances: from alpha0 = 1 / ||y|| V stays zero
        # until lambda / alpha falls to ||A^T y||_2; the spectral start
        # opens there
        iters, old_iters, hits = [], [], 0
        for seed in range(1, 6):
            prob, q, y = measured_problem(m=30, n=30, r=3, p=675, seed=seed)
            cfg = SolverConfig(lam=np.sqrt(30.0), d=6, tol=1e-10,
                               max_iter=1000)
            res = solve_cpcp(y, q, cfg)
            old = solve_cpcp(y, q, dataclasses.replace(
                cfg, alpha0=1.0 / np.linalg.norm(y)))
            iters.append(res.iterations)
            old_iters.append(old.iterations)
            hits += relative_error(res.low_rank(), prob.l0) <= 5e-2
        assert np.median(iters) < np.median(old_iters)
        assert hits >= 4, f"only {hits}/5 seeds recovered"

    @pytest.mark.xfail(strict=True, reason=(
        "tall CPCP ends at rank 0, labelled converged, from either alpha0"))
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("shape", [(90, 20), (120, 15)],
                             ids=["90x20", "120x15"])
    def test_tall_problem_recovers(self, shape, seed):
        m, n = shape
        prob, q, y = measured_problem(m=m, n=n, r=2, p=int(0.75 * m * n),
                                      seed=seed)
        res = solve_cpcp(y, q, SolverConfig(d=4, tol=1e-10, max_iter=1000))
        assert relative_error(res.low_rank(), prob.l0) <= 1e-3

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
    """Exposes only the four operator members, counts forward calls and
    keeps what each adjoint call returned."""

    def __init__(self, q):
        self.q = q
        self.forward_calls = 0
        self.adjoints = []
        self.shape = q.shape
        self.dim = q.dim

    def forward(self, a):
        self.forward_calls += 1
        return self.q.forward(a)

    def adjoint(self, y):
        self.adjoints.append(self.q.adjoint(y))
        return self.adjoints[-1]


LAM = 2.0


def planted_problem(seed, iters):
    _, q, y = measured_problem(seed=seed)
    return q, y, SolverConfig(lam=LAM, d=4, max_iter=iters, tol=1e-14)


def rank_drop_problem():
    """A problem whose V turns nonzero and back to zero: ranks 0, 0, 1, 1,
    1, 1, 0, ... It starts at alpha0 = 1 / ||y||, the start this pattern was
    designed from, so a change of the "auto" rule leaves it as it is."""
    q = draw_random_subspace(6, 5, 12, seed=5)
    y = np.random.default_rng(5).standard_normal(12)
    return q, y, SolverConfig(lam=LAM, d=2, max_iter=12, tol=1e-14,
                              alpha0=1.0 / np.linalg.norm(y))


def solve_and_collect(q, y, cfg, after_iteration=lambda: None):
    """Operator, measurements, result, and one (u, v, s, y) snapshot per
    iteration; snapshot 0 is the starting point of the solver."""
    m, n = q.shape
    snaps = [(np.eye(m, cfg.d), np.zeros((n, cfg.d)), np.zeros((m, n)),
              np.zeros(q.dim))]

    def record(it):
        snaps.append((it.u, it.v, it.s, it.y))
        after_iteration()

    res = solve_cpcp(y, q, cfg, iter_callback=record)
    assert len(snaps) == res.iterations + 1
    return q, y, res, snaps


def collect(seed=7, iters=25):
    return solve_and_collect(*planted_problem(seed, iters))


def collect_rank_drop():
    return solve_and_collect(*rank_drop_problem())


class TestForwardReuse:
    @pytest.mark.parametrize("case", ["planted", "rank-drop"])
    def test_calls_per_iteration_follow_the_rank(self, case):
        # forward(S), and forward(U V^T) unless V = 0; the product step's
        # adjoint, and the sparse step's unless V = 0 now and before
        if case == "planted":
            _, q, y = measured_problem(seed=9)
            cfg = SolverConfig(lam=2.0, d=4, max_iter=20)
        else:
            q, y, cfg = rank_drop_problem()
        counting = CountingOperator(q)
        calls = []
        res = solve_cpcp(y, counting, cfg, iter_callback=lambda it: calls.append(
            (counting.forward_calls, len(counting.adjoints))))
        ranks = [0] + [rec.rank for rec in res.trace]
        assert ranks[1] == 0 and max(ranks) > 0
        if case == "rank-drop":
            assert ranks[1:8] == [0, 0, 1, 1, 1, 1, 0]
        expected, forwards, adjoints = [], 0, 0
        for k in range(1, len(ranks)):
            forwards += 1 + (ranks[k] > 0)
            adjoints += 1 + (ranks[k] > 0 or ranks[k - 1] > 0)
            expected.append((forwards, adjoints))
        assert calls == expected

    def test_factor_update_runs_only_after_nonzero_v(self, monkeypatch):
        calls = []
        real = cpcp.orthonormal_factor

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cpcp, "orthonormal_factor", counted)
        _, _, res, _ = collect_rank_drop()
        ranks = [rec.rank for rec in res.trace]
        assert ranks[:7] == [0, 0, 1, 1, 1, 1, 0]
        assert len(calls) == sum(rank > 0 for rank in ranks[:-1])

    def test_product_gradient_uses_previous_iterate(self):
        # the product step of iteration k linearizes at snapshot k-1 (the
        # forward products the solver reuses) and steps 1/alpha
        for q, y, res, snaps in (collect(seed=10, iters=20),
                                 collect_rank_drop()):
            for k in range(1, len(snaps)):
                u, v, s, dual = snaps[k - 1]
                alpha = res.trace[k - 1].alpha
                step = 1.0 / alpha
                t = u @ v.T
                fit = q.forward(t) + q.forward(s)
                b = t - step * (alpha * q.adjoint(fit - y - dual / alpha))
                if v.any():
                    u = orthonormal_factor(b @ v, "qr")
                v, _, _ = svt((u.T @ b).T, LAM / alpha)
                u_k, v_k = snaps[k][:2]
                assert np.array_equal(u @ v.T, u_k @ v_k.T), k

    def test_gradients_match_data_fit_gradient(self):
        # the two gradients the solver forms from forward(U V^T) and
        # forward(S) held apart are data_fit_gradient's, up to rounding
        for q, y, cfg in (planted_problem(10, 20), rank_drop_problem()):
            counting = CountingOperator(q)
            marks = [0]
            _, _, res, snaps = solve_and_collect(
                counting, y, cfg,
                lambda: marks.append(len(counting.adjoints)))
            for k in range(1, len(snaps)):
                u_prev, v_prev, s_prev, dual = snaps[k - 1]
                u, v = snaps[k][:2]
                alpha = res.trace[k - 1].alpha
                # the product step's adjoint, then the sparse step's unless
                # the solver reused the first
                grads = [alpha * g
                         for g in counting.adjoints[marks[k - 1]:marks[k]]]
                refs = (data_fit_gradient(u_prev @ v_prev.T, s_prev, y, dual,
                                          alpha, q),
                        data_fit_gradient(s_prev, u @ v.T, y, dual, alpha, q))
                for got, ref in zip((grads[0], grads[-1]), refs):
                    assert np.linalg.norm(got - ref) <= (
                        1e-12 * np.linalg.norm(ref)), k


class TestIterationInvariants:
    def test_product_cache_coherent(self):
        # the sparse and dual steps of iteration k use the product U V^T of
        # the factors it reports, not a stale or separately held copy
        for q, y, res, snaps in (collect(seed=10, iters=20),
                                 collect_rank_drop()):
            for k in range(1, len(snaps)):
                _, _, s, dual = snaps[k - 1]
                u_k, v_k, s_k, dual_k = snaps[k]
                alpha = res.trace[k - 1].alpha
                step = 1.0 / alpha
                ft = q.forward(u_k @ v_k.T)
                grad_s = alpha * q.adjoint(ft + q.forward(s) - y - dual / alpha)
                s = soft_threshold(s - step * grad_s, 1.0 / alpha)
                dual = dual + alpha * (y - (ft + q.forward(s)))
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
