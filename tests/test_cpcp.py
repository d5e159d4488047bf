import numpy as np
import pytest

from lowrank.config import SolverConfig
from lowrank.cpcp import data_fit_gradient, solve_cpcp
from lowrank.datasets import generate_planted
from lowrank.measurements import draw_random_subspace
from lowrank.metrics import relative_error


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
        cfg = SolverConfig(lam=np.sqrt(30.0), d=6, tol=1e-10, max_iter=1000,
                           seed=1)
        res = solve_cpcp(y, q, cfg)
        assert res.termination == "converged"
        assert relative_error(res.low_rank(), prob.l0) <= 5e-2

    def test_measurement_length_mismatch(self):
        q = draw_random_subspace(5, 5, 10, seed=2)
        with pytest.raises(ValueError, match="does not match"):
            solve_cpcp(np.zeros(9), q, SolverConfig(d=2))

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

    def test_step_length_for_orthonormal_basis(self):
        # the measurement Gram operator of an orthonormal basis is a
        # projection, so the raw step scale is one
        _, q, y = measured_problem(seed=6)
        taus = []
        solve_cpcp(y, q, SolverConfig(lam=2.0, d=4, max_iter=3),
                   iter_callback=lambda st: taus.append(st.tau))
        assert all(t == pytest.approx(1.0, rel=1e-5) for t in taus)


class CountingOperator:
    """Wraps a subspace operator and counts the solver's forward calls.

    ``project`` goes to the wrapped operator, so the operator-norm estimate
    made before the loop is not counted.
    """

    def __init__(self, q):
        self.q = q
        self.forward_calls = 0
        self.shape = q.shape
        self.dim = q.dim
        self.adjoint = q.adjoint
        self.project = q.project

    def forward(self, a):
        self.forward_calls += 1
        return self.q.forward(a)


class TestForwardReuse:
    def test_two_forward_calls_per_iteration(self):
        _, q, y = measured_problem(seed=9)
        counting = CountingOperator(q)
        calls = []
        res = solve_cpcp(y, counting, SolverConfig(lam=2.0, d=4, max_iter=20),
                         iter_callback=lambda st: calls.append(
                             counting.forward_calls))
        assert calls == [1 + 2 * k for k in range(1, res.iterations + 1)]

    def test_product_gradient_uses_previous_iterate(self):
        _, q, y = measured_problem(seed=10)
        states = []
        solve_cpcp(y, q, SolverConfig(lam=2.0, d=4, max_iter=20),
                   iter_callback=states.append)
        for st in states:
            expected = data_fit_gradient(st.t_prev, st.s_prev, y,
                                         st.dual_prev, st.alpha, q)
            assert np.array_equal(st.grad_t, expected)


class TestIterationInvariants:
    def collect(self, seed=7, iters=25):
        prob, q, y = measured_problem(seed=seed)
        states = []
        solve_cpcp(y, q, SolverConfig(lam=2.0, d=4, max_iter=iters,
                                      tol=1e-14),
                   iter_callback=states.append)
        return q, y, states

    def test_product_cache_coherent(self):
        _, _, states = self.collect()
        for st in states:
            assert np.linalg.norm(st.t - st.u @ st.v.T) <= 1e-10 * max(
                np.linalg.norm(st.t), 1.0
            )

    def test_factor_orthonormal(self):
        _, _, states = self.collect()
        for st in states:
            d = st.u.shape[1]
            assert np.max(np.abs(st.u.T @ st.u - np.eye(d))) <= 1e-8

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
        q, y, states = self.collect(seed=9)

        def g(x, s, dual, alpha):
            resid = q.forward(x + s) - y - dual / alpha
            return 0.5 * alpha * float(resid @ resid)

        for st in states:
            step = st.tau / st.alpha
            lin = (
                g(st.t_prev, st.s_prev, st.dual_prev, st.alpha)
                + float(np.sum(st.grad_t * (st.t - st.t_prev)))
                + np.linalg.norm(st.t - st.t_prev) ** 2 / (2 * step)
            )
            actual = g(st.t, st.s_prev, st.dual_prev, st.alpha)
            assert lin >= actual - 1e-6 * (1.0 + abs(actual))


class TestRpcaCrossConsistency:
    def test_full_measurement_cpcp_tracks_rpca_target(self):
        # with p = m*n the measurements determine the matrix exactly, so the
        # recovered sum must reproduce the data even though the splitting
        # differs from the direct factorization solver
        prob, q, y = measured_problem(m=12, n=10, r=2, p=120, seed=10)
        cfg = SolverConfig(lam=np.sqrt(12.0), d=4, tol=1e-12, max_iter=1500,
                           seed=10)
        res = solve_cpcp(y, q, cfg)
        data = prob.l0 + prob.s0
        assert relative_error(res.low_rank() + res.s, data) <= 1e-3
