import numpy as np
import pytest

import warnings

from lowrank.config import SolverConfig
from lowrank.cpcp import solve_cpcp
from lowrank.datasets import generate_planted
from lowrank.measurements import ObservationMask
from lowrank.metrics import auc, relative_error
from lowrank.rmc import solve_mc, solve_rmc, solve_rpca


def planted(m=60, n=60, r=3, spike_frac=0.1, obs_frac=0.8, seed=0):
    return generate_planted(m, n, r, spike_frac=spike_frac,
                            obs_frac=obs_frac, seed=seed)


class TestSolveRmc:
    def test_rank_one_clean_recovery(self):
        rng = np.random.default_rng(0)
        d = np.outer(rng.standard_normal(20), rng.standard_normal(15))
        mask = ObservationMask.full(20, 15)
        res = solve_rmc(d, mask, SolverConfig(lam=0.2, d=3, tol=1e-8))
        assert relative_error(res.low_rank(), d) <= 1e-4

    def test_planted_recovery_and_outlier_detection(self):
        p = planted(seed=1)
        res = solve_rmc(p.d_obs, p.mask, SolverConfig(d=6))
        assert res.termination == "converged"
        assert relative_error(res.low_rank(), p.l0) <= 1e-2 * 3
        obs = p.mask.marker
        assert auc(np.abs(res.s[obs]), p.s0[obs] != 0) >= 0.95

    def test_sparse_part_zero_off_mask(self):
        p = planted(seed=2)
        res = solve_rmc(p.d_obs, p.mask, SolverConfig(d=6))
        assert np.all(res.s[~p.mask.marker] == 0)

    def test_multiplier_bounded_and_zero_off_mask(self):
        p = planted(seed=3)
        seen = []
        solve_rmc(p.d_obs, p.mask, SolverConfig(d=6),
                  iter_callback=lambda k, u, v, s, y: seen.append(y.copy()))
        for y in seen:
            assert np.max(np.abs(y)) <= 1.0 + 1e-6
            assert np.all(y[~p.mask.marker] == 0)

    def test_factor_orthonormal_every_iteration(self):
        p = planted(seed=4)
        def check(k, u, v, s, y):
            assert np.max(np.abs(u.T @ u - np.eye(u.shape[1]))) <= 1e-8
        solve_rmc(p.d_obs, p.mask, SolverConfig(d=6), iter_callback=check)

    def test_penalty_schedule_exact(self):
        p = planted(seed=5)
        cfg = SolverConfig(d=6, rho=1.1, alpha0=0.5, alpha_max=7.0)
        res = solve_rmc(p.d_obs, p.mask, cfg)
        alphas = [rec.alpha for rec in res.trace]
        assert alphas[0] == 0.5
        for prev, cur in zip(alphas, alphas[1:]):
            assert cur == min(cfg.rho * prev, cfg.alpha_max)

    def test_complement_fill_in_rule(self):
        # at every iteration, off the mask the sparse part must equal the
        # observed matrix minus the current product
        p = planted(m=12, n=10, seed=6)
        off = ~p.mask.marker
        seen = []

        def check(k, u, v, s, y):
            expected = (p.d_obs - u @ v.T)[off]
            np.testing.assert_allclose(s[off], expected, atol=1e-12)
            seen.append(k)

        res = solve_rmc(p.d_obs, p.mask, SolverConfig(d=4, alpha0=1.0),
                        iter_callback=check)
        assert seen == list(range(1, res.iterations + 1))
        assert res.iterations > 1

    def test_objective_trace_finite(self):
        p = planted(seed=7)
        res = solve_rmc(p.d_obs, p.mask, SolverConfig(d=6))
        objs = [rec.objective for rec in res.trace]
        assert np.all(np.isfinite(objs))

    def test_feasibility_residual_decays_at_checkpoints(self):
        p = planted(m=80, n=80, seed=8)
        res = solve_rmc(p.d_obs, p.mask, SolverConfig(d=6, max_iter=120,
                                                      tol=1e-10))
        resids = [rec.residual for rec in res.trace]
        checkpoints = [resids[i - 1] for i in (25, 50, 100) if i <= len(resids)]
        assert all(b <= a for a, b in zip(checkpoints, checkpoints[1:]))

    def test_deterministic_trace(self):
        p = planted(seed=9)
        r1 = solve_rmc(p.d_obs, p.mask, SolverConfig(d=6))
        r2 = solve_rmc(p.d_obs, p.mask, SolverConfig(d=6))
        assert [rec.residual for rec in r1.trace] == [
            rec.residual for rec in r2.trace
        ]
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.s, r2.s)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            solve_rmc(np.zeros((3, 3)),
                      ObservationMask(np.zeros((3, 3), dtype=bool)),
                      SolverConfig(d=2))

    def test_oversized_rank_bound_rejected(self):
        with pytest.raises(ValueError, match="rank bound"):
            solve_rmc(np.zeros((3, 5)), ObservationMask.full(3, 5),
                      SolverConfig(d=4))

    def test_nonfinite_input_rejected(self):
        d = np.zeros((3, 3))
        d[1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            solve_rmc(d, ObservationMask.full(3, 3), SolverConfig(d=2))


class TestSchemeEquivalence:
    def test_qr_and_svd_updates_give_identical_iterates(self):
        p = planted(m=30, n=24, r=3, seed=10)
        cfg = SolverConfig(lam=1.0, d=6, alpha0=1.0, max_iter=15, tol=1e-12)
        snaps = {"qr": [], "svd": []}
        for scheme in snaps:
            solve_rmc(
                p.d_obs, p.mask, cfg, u_scheme=scheme,
                iter_callback=lambda k, u, v, s, y, key=scheme: snaps[key].append(
                    (u @ v.T,
                     np.linalg.svd(v, compute_uv=False).sum(),
                     s.copy(), y.copy())
                ),
            )
        for (t1, nuc1, s1, y1), (t2, nuc2, s2, y2) in zip(*snaps.values()):
            scale = max(np.linalg.norm(t1), 1e-30)
            assert np.linalg.norm(t1 - t2) <= 1e-8 * scale
            assert abs(nuc1 - nuc2) <= 1e-8
            assert np.linalg.norm(s1 - s2) <= 1e-8
            assert np.linalg.norm(y1 - y2) <= 1e-8


class TestSolveRpca:
    def test_zero_input(self):
        res = solve_rpca(np.zeros((6, 6)), SolverConfig(d=2))
        assert np.all(res.low_rank() == 0)
        assert np.all(res.s == 0)

    def test_purely_sparse_input(self):
        rng = np.random.default_rng(11)
        d = np.where(rng.random((40, 40)) < 0.05, rng.choice([-1.0, 1.0], (40, 40)), 0.0)
        res = solve_rpca(d, SolverConfig(lam=200.0, d=4))
        assert np.linalg.norm(res.low_rank()) <= 1e-3 * np.linalg.norm(d)

    def test_planted_decomposition(self):
        p = planted(m=100, n=100, r=3, spike_frac=0.05, obs_frac=1.0, seed=12)
        res = solve_rpca(p.d_obs, SolverConfig(d=6))
        assert res.termination == "converged"
        assert relative_error(res.low_rank(), p.l0) <= 1e-2


class TestConfigValidation:
    def test_rho_outside_guideline_warns(self):
        with pytest.warns(UserWarning, match="rho"):
            SolverConfig(d=2, rho=1.5).validate()

    @pytest.mark.parametrize("solver", ["rmc", "mc", "rpca", "cpcp"])
    def test_rho_warning_names_the_calling_line(self, solver):
        p = planted(m=12, n=10, r=2, seed=3)
        cfg = SolverConfig(d=2, rho=1.5, max_iter=2)
        calls = {
            "rmc": lambda: solve_rmc(p.d_obs, p.mask, cfg),
            "mc": lambda: solve_mc(p.d_obs, p.mask, cfg),
            "rpca": lambda: solve_rpca(p.d_obs, cfg),
            "cpcp": lambda: solve_cpcp(p.mask.forward(p.d_obs), p.mask, cfg),
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = calls[solver].__code__.co_firstlineno
            calls[solver]()
        (w,) = [w for w in caught if "rho" in str(w.message)]
        assert w.filename == __file__
        assert w.lineno == line

    def test_zero_tol_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(d=2, tol=0.0).validate()

    def test_alpha_cap_below_start_rejected(self):
        with pytest.raises(ValueError, match="alpha_max"):
            SolverConfig(d=2, alpha0=5.0, alpha_max=1.0).validate()

    def test_auto_lambda(self):
        assert SolverConfig().resolve_lambda(100, 50) == pytest.approx(10.0)
