import dataclasses
import sys
import warnings

import numpy as np
import pytest

import lowrank.rmc as rmc
from lowrank.config import SPECTRAL_START, SolverConfig
from lowrank.cpcp import solve_cpcp
from lowrank.datasets import generate_planted
from lowrank.measurements import ObservationMask, draw_random_subspace
from lowrank.metrics import auc, relative_error
from lowrank.rmc import SPARSE_DENSITY, solve_mc, solve_rmc, solve_rpca


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
        assert res.stop_test == "residual"
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
                  iter_callback=lambda it: seen.append(it.y.copy()))
        for y in seen:
            assert np.max(np.abs(y)) <= 1.0 + 1e-6
            assert np.all(y[~p.mask.marker] == 0)

    def test_factor_orthonormal_every_iteration(self):
        p = planted(seed=4)
        def check(it):
            u = it.u
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

        def check(it):
            expected = (p.d_obs - it.u @ it.v.T)[off]
            np.testing.assert_allclose(it.s[off], expected, atol=1e-12)
            seen.append(it.record.iteration)

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


class TestStopRatio:
    @pytest.mark.parametrize("solver", ["rmc", "rpca"])
    def test_ratio_is_residual_over_data_norm(self, solver):
        p = planted(seed=2, obs_frac=0.8 if solver == "rmc" else 1.0)
        cfg = SolverConfig(d=6)
        res = solve_rmc(p.d_obs, p.mask, cfg) if solver == "rmc" else \
            solve_rpca(p.d_obs, cfg)
        norm = np.linalg.norm(p.d_obs[p.mask.marker])
        assert res.termination == "converged"
        for rec in res.trace:
            assert rec.stop_ratio == pytest.approx(rec.residual / norm,
                                                   rel=1e-12)
        # the stop is the first ratio below tol
        assert [rec.stop_ratio < cfg.tol for rec in res.trace] == \
            [False] * (res.iterations - 1) + [True]

    def test_zero_data_ratio_is_the_residual(self):
        mask = ObservationMask.full(6, 5)
        res = solve_rmc(np.zeros((6, 5)), mask, SolverConfig(d=2))
        assert [rec.stop_ratio for rec in res.trace] == \
            [rec.residual for rec in res.trace]


class TestEntriesOffMask:
    @pytest.mark.parametrize("solver", [solve_rmc, solve_mc])
    def test_nonfinite_entries_off_mask_are_not_read(self, solver):
        p = planted(m=40, n=30, r=2, obs_frac=0.7, seed=4)
        cfg = SolverConfig(d=4, max_iter=60)
        off = ~p.mask.marker
        marked = p.d_obs.copy()   # zero off the mask
        marked[off] = np.resize([np.nan, np.inf, -np.inf], off.sum())
        base = solver(p.d_obs, p.mask, cfg)
        res = solver(marked, p.mask, cfg)
        for name in ("u", "v", "s", "y"):
            np.testing.assert_array_equal(getattr(res, name),
                                          getattr(base, name))
        assert res.trace == base.trace


class TestSchemeEquivalence:
    def test_qr_and_svd_updates_give_identical_iterates(self):
        p = planted(m=30, n=24, r=3, seed=10)
        cfg = SolverConfig(lam=1.0, d=6, alpha0=1.0, max_iter=15, tol=1e-12)
        snaps = {"qr": [], "svd": []}
        for scheme in snaps:
            solve_rmc(
                p.d_obs, p.mask, cfg, u_scheme=scheme,
                iter_callback=lambda it, key=scheme: snaps[key].append(
                    (it.u @ it.v.T,
                     np.linalg.svd(it.v, compute_uv=False).sum(),
                     it.s.copy(), it.y.copy())
                ),
            )
        for (t1, nuc1, s1, y1), (t2, nuc2, s2, y2) in zip(*snaps.values()):
            scale = max(np.linalg.norm(t1), 1e-30)
            assert np.linalg.norm(t1 - t2) <= 1e-8 * scale
            assert abs(nuc1 - nuc2) <= 1e-8
            assert np.linalg.norm(s1 - s2) <= 1e-8
            assert np.linalg.norm(y1 - y2) <= 1e-8

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_svd_update_recovers_above_the_true_rank(self, seed, monkeypatch):
        # criterion 01's instances: d = 10 exceeds the true rank 5, so P V
        # loses rank and the polar factor completes the basis itself
        p = planted(m=200, n=200, r=5, spike_frac=0.1, obs_frac=0.7,
                    seed=seed)
        schemes = []
        real = rmc.orthonormal_factor

        def counted(p_times_v, scheme):
            schemes.append(scheme)
            return real(p_times_v, scheme)

        monkeypatch.setattr(rmc, "orthonormal_factor", counted)
        res = solve_rmc(p.d_obs, p.mask, SolverConfig(lam=np.sqrt(200.0),
                                                      d=10), u_scheme="svd")
        assert res.termination == "converged"
        assert schemes and set(schemes) == {"svd"}
        assert relative_error(res.low_rank(), p.l0) <= 1e-2

    @pytest.mark.parametrize("lam", ["auto", 2.0])
    def test_unknown_scheme_rejected_before_the_first_iteration(self, lam):
        p = planted(m=40, n=30, r=2, obs_frac=0.8, seed=1)
        seen = []
        with pytest.raises(ValueError, match="'QR'"):
            solve_rmc(p.d_obs, p.mask, SolverConfig(lam=lam, d=3),
                      u_scheme="QR", iter_callback=seen.append)
        assert seen == []


def spectral_start(d_obs, mask, lam):
    """SPECTRAL_START * lambda / ||D on Omega||_2, by LAPACK's 2-norm."""
    return SPECTRAL_START * lam / np.linalg.norm(
        mask.adjoint(mask.forward(d_obs)), 2)


def frobenius_start(d_obs, mask):
    return 1.0 / np.linalg.norm(mask.forward(d_obs))


# Observed fractions on either side of SPARSE_DENSITY: the CSR path, the dense.
PATHS = [0.15, 0.7]


class TestSpectralStart:
    """Robust completion's "auto" alpha0 is SPECTRAL_START * lambda /
    ||D on Omega||_2, and CPCP's SPECTRAL_START * lambda / ||A^T y||_2;
    plain completion keeps its own start."""

    @pytest.mark.parametrize("obs_frac", PATHS)
    def test_auto_alpha0_is_spectral(self, obs_frac):
        p = planted(obs_frac=obs_frac, seed=13)
        assert (p.mask.dim < SPARSE_DENSITY * 60 * 60) == (obs_frac < 0.25)
        res = solve_rmc(p.d_obs, p.mask, SolverConfig(d=6, max_iter=1))
        assert res.trace[0].alpha == pytest.approx(
            spectral_start(p.d_obs, p.mask, np.sqrt(60)), rel=1e-12)

    def test_rpca_auto_alpha0_is_spectral(self):
        p = planted(m=40, n=30, obs_frac=1.0, seed=14)
        res = solve_rpca(p.d_obs, SolverConfig(lam=2.0, d=4, max_iter=1))
        assert res.trace[0].alpha == pytest.approx(
            spectral_start(p.d_obs, p.mask, 2.0), rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_warm_up_ends_at_once_and_the_solve_is_shorter(self, seed):
        # d = m: the start factor is an orthonormal basis of all m rows, so
        # E^T U holds the whole spectrum of D from the first iteration on
        p = planted(m=30, n=90, r=2, spike_frac=0.05, obs_frac=0.9, seed=seed)
        cfg = SolverConfig(lam=0.6 * np.sqrt(90 * 0.9), d=30)
        res = solve_rmc(p.d_obs, p.mask, cfg)
        assert res.trace[0].alpha == pytest.approx(
            spectral_start(p.d_obs, p.mask, cfg.lam), rel=1e-12)
        assert any(rec.rank for rec in res.trace[:2])
        old = solve_rmc(p.d_obs, p.mask, dataclasses.replace(
            cfg, alpha0=frobenius_start(p.d_obs, p.mask)))
        assert res.iterations < old.iterations
        for run in (res, old):
            assert run.termination == "converged"
            assert relative_error(run.low_rank(), p.l0) <= 1e-3

    def test_mc_keeps_frobenius_start(self):
        p = planted(spike_frac=0.0, obs_frac=0.5, seed=15)
        res = solve_mc(p.d_obs, p.mask, SolverConfig(lam=1.0, d=4, max_iter=2))
        assert res.trace[0].alpha == frobenius_start(p.d_obs, p.mask)

    def test_cpcp_auto_alpha0_is_spectral(self):
        # iteration 1's product-step target is A^T y
        p = planted(m=12, n=10, r=2, obs_frac=1.0, seed=16)
        q = draw_random_subspace(12, 10, 90, seed=16)
        y = q.forward(p.l0 + p.s0)
        res = solve_cpcp(y, q, SolverConfig(lam=1.0, d=3, max_iter=2))
        assert res.trace[0].alpha == pytest.approx(
            SPECTRAL_START * 1.0 / np.linalg.norm(q.adjoint(y), 2),
            rel=1e-12)

    @pytest.mark.parametrize("obs_frac", PATHS)
    def test_cpcp_on_a_mask_starts_where_rmc_does(self, obs_frac):
        # on a mask, A^T y is D on Omega
        p = planted(obs_frac=obs_frac, seed=22)
        cfg = SolverConfig(d=6, max_iter=1)
        cpcp_start = solve_cpcp(p.mask.forward(p.d_obs), p.mask,
                                cfg).trace[0].alpha
        rmc_start = solve_rmc(p.d_obs, p.mask, cfg).trace[0].alpha
        assert cpcp_start == pytest.approx(rmc_start, rel=1e-10)

    @pytest.mark.parametrize("lam", [0.0, np.inf])
    def test_cpcp_no_positive_finite_start_keeps_frobenius_start(self, lam):
        p = planted(m=12, n=10, r=2, obs_frac=1.0, seed=16)
        q = draw_random_subspace(12, 10, 90, seed=16)
        y = q.forward(p.l0 + p.s0)
        res = solve_cpcp(y, q, SolverConfig(lam=lam, d=3, max_iter=2))
        assert res.trace[0].alpha == 1.0 / np.linalg.norm(y)

    def test_zero_data_on_omega_starts_at_one(self):
        # ARPACK raises on a zero matrix; no norm is taken
        p = planted(m=20, n=20, obs_frac=0.5, seed=17)
        off_omega = np.where(p.mask.marker, 0.0, p.d_obs + 1.0)
        res = solve_rmc(off_omega, p.mask, SolverConfig(d=2))
        assert res.trace[0].alpha == 1.0
        assert res.termination == "converged"
        assert not np.any(res.low_rank())

    @pytest.mark.parametrize("lam", [0.0, np.inf])
    def test_no_positive_finite_start_keeps_frobenius_start(self, lam):
        p = planted(m=20, n=20, obs_frac=0.5, seed=18)
        res = solve_rmc(p.d_obs, p.mask, SolverConfig(lam=lam, d=2,
                                                      max_iter=3))
        assert res.trace[0].alpha == frobenius_start(p.d_obs, p.mask)

    def test_overflowing_start_keeps_frobenius_start(self):
        p = planted(m=20, n=20, obs_frac=0.5, seed=18)
        tiny = 1e-10 * p.d_obs
        assert SPECTRAL_START * 1e308 / float(np.linalg.norm(tiny, 2)) == \
            np.inf
        res = solve_rmc(tiny, p.mask, SolverConfig(lam=1e308, d=2,
                                                   max_iter=3))
        assert res.trace[0].alpha == frobenius_start(tiny, p.mask)

    def test_start_above_alpha_max_is_clamped(self):
        p = planted(m=20, n=20, obs_frac=0.5, seed=19)
        cap = 0.1 * spectral_start(p.d_obs, p.mask, np.sqrt(20))
        res = solve_rmc(p.d_obs, p.mask, SolverConfig(d=2, alpha_max=cap,
                                                      max_iter=3))
        assert [rec.alpha for rec in res.trace] == [cap] * 3

    def test_single_row_takes_its_norm(self):
        # svds needs min(m, n) >= 2; a row's 2-norm is its Frobenius norm
        row = np.random.default_rng(20).standard_normal((1, 30))
        res = solve_rpca(row, SolverConfig(lam=2.0, d=1, max_iter=1))
        assert res.trace[0].alpha == pytest.approx(
            SPECTRAL_START * 2.0 / np.linalg.norm(row), rel=1e-15)

    @pytest.mark.parametrize("obs_frac", PATHS)
    def test_rerun_is_bit_identical(self, obs_frac):
        # ARPACK's own start vector is random, and from a random start the
        # norm, and so alpha0, varies in its last bits: the solver seeds it
        p = planted(obs_frac=obs_frac, seed=21)
        cfg = SolverConfig(lam=0.7 * np.sqrt(60 * obs_frac), d=6)
        runs = [solve_rmc(p.d_obs, p.mask, cfg) for _ in range(2)]
        for name in ("u", "v", "s"):
            np.testing.assert_array_equal(getattr(runs[0], name),
                                          getattr(runs[1], name))
        assert runs[0].trace == runs[1].trace
        one = dataclasses.replace(cfg, max_iter=1)
        assert len({solve_rmc(p.d_obs, p.mask, one).trace[0].alpha
                    for _ in range(10)}) == 1


class TestRangeStart:
    """U starts from a basis of the range of D on Omega, so V turns nonzero
    on tall problems too. d fixed coordinate vectors see d rows of D only,
    and from them these problems end at rank 0 and relerr 1."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("shape, obs_frac", [
        pytest.param((2000, 500), 1.0, id="rpca-2000x500"),
        pytest.param((4000, 250), 1.0, id="rpca-4000x250"),
        pytest.param((1000, 500), 0.7, id="rmc-1000x500-70%")])
    def test_tall_problem_recovers(self, shape, obs_frac, seed):
        p = planted(*shape, spike_frac=0.05, obs_frac=obs_frac, seed=seed)
        cfg = SolverConfig(d=6)
        if obs_frac == 1.0:
            res = solve_rpca(p.d_obs, cfg)
        else:
            res = solve_rmc(p.d_obs, p.mask, cfg)
        assert res.termination == "converged"
        assert relative_error(res.low_rank(), p.l0) <= 1e-3

    def test_too_few_observations_stay_at_rank_zero(self):
        p = planted(400, 400, r=5, spike_frac=0.05, obs_frac=0.05, seed=3)
        res = solve_rmc(p.d_obs, p.mask, SolverConfig(d=10))
        assert res.termination == "converged"
        assert all(rec.rank == 0 for rec in res.trace)
        assert not np.any(res.low_rank())


FRAGILE_SEEDS = range(100, 133)
# Seeds of the fragile shape that still end above relerr 1e-3, though the
# convex optimum there equals L0 to 1e-12 (ROADMAP items 2 and 3). Without
# the over-relaxed step seeds 112 and 120 miss it too.
FRAGILE_MISSES = {124, 125, 126}


class TestFragileShape:
    """250^2, rank 3, 5% spikes, 20% observed, lambda = 0.7 sqrt(50), d = 6:
    a shape on which the factored solver is known to stop short of L0."""

    @pytest.mark.parametrize("seed", [
        pytest.param(seed, marks=pytest.mark.xfail(strict=True, reason=(
            "ends above relerr 1e-3 where the convex optimum is L0: a stop "
            "short of L*, to be certified and measured by ROADMAP items 2-3")))
        if seed in FRAGILE_MISSES else seed for seed in FRAGILE_SEEDS])
    def test_recovers(self, seed):
        p = planted(250, 250, spike_frac=0.05, obs_frac=0.2, seed=seed)
        res = solve_rmc(p.d_obs, p.mask,
                        SolverConfig(lam=0.7 * np.sqrt(50), d=6))
        assert relative_error(res.low_rank(), p.l0) <= 1e-3


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


class TestPenaltyNeverFalls:
    """Every "auto" alpha0 is at most alpha_max, the zero-data start and
    plain completion's Frobenius start included, so the traced alpha of
    every solver is nondecreasing and at most alpha_max."""

    @pytest.mark.parametrize("scale", [1.0, 0.0])
    @pytest.mark.parametrize("solver", ["rmc", "rpca", "mc", "cpcp"])
    def test_traced_alpha(self, solver, scale):
        p = planted(m=30, n=30, obs_frac=0.7, seed=23)
        full = scale * (p.l0 + p.s0)
        cfg = SolverConfig(lam=1.0, d=4, alpha_max=1e-3, max_iter=20)
        if solver == "rmc":
            res = solve_rmc(scale * p.d_obs, p.mask, cfg)
        elif solver == "rpca":
            res = solve_rpca(full, cfg)
        elif solver == "mc":
            res = solve_mc(scale * p.d_obs, p.mask, cfg)
        else:
            q = draw_random_subspace(30, 30, 450, seed=24)
            res = solve_cpcp(q.forward(full), q, cfg)
        alphas = [rec.alpha for rec in res.trace]
        assert all(a <= b for a, b in zip(alphas, alphas[1:])), alphas
        assert max(alphas) <= cfg.alpha_max


class TestConfigValidation:
    def test_rho_outside_guideline_warns(self):
        with pytest.warns(UserWarning, match="rho"):
            SolverConfig(d=2, rho=1.5)

    @pytest.mark.parametrize("solver", ["rmc", "mc", "rpca", "cpcp"])
    def test_rho_warning_names_the_calling_line(self, solver):
        p = planted(m=12, n=10, r=2, seed=3)
        calls = {
            "rmc": lambda cfg: solve_rmc(p.d_obs, p.mask, cfg),
            "mc": lambda cfg: solve_mc(p.d_obs, p.mask, cfg),
            "rpca": lambda cfg: solve_rpca(p.d_obs, cfg),
            "cpcp": lambda cfg: solve_cpcp(p.mask.forward(p.d_obs), p.mask,
                                           cfg),
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            make = lambda: SolverConfig(d=2, rho=1.5, max_iter=2)  # noqa: E731
            calls[solver](make())
        (w,) = [w for w in caught if "rho" in str(w.message)]
        assert w.filename == __file__
        assert w.lineno == make.__code__.co_firstlineno

    def test_replace_validates_again(self):
        cfg = SolverConfig(d=2)
        with pytest.raises(ValueError, match="tol must be positive"):
            dataclasses.replace(cfg, tol=0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            dataclasses.replace(cfg, rho=1.5)
        (w,) = caught
        assert (w.filename, w.lineno) == (__file__, line)

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SolverConfig().tol = 0.0

    def test_zero_tol_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(d=2, tol=0.0)

    def test_alpha_cap_below_start_rejected(self):
        with pytest.raises(ValueError, match="alpha_max"):
            SolverConfig(d=2, alpha0=5.0, alpha_max=1.0)

    @pytest.mark.parametrize("field, value", [
        ("max_iter", 0), ("max_iter", -3), ("rho", 0.0), ("rho", -1.1),
        ("alpha_max", 0.0), ("alpha_max", -1.0),
        ("lam", np.nan), ("rho", np.nan), ("alpha0", np.nan),
        ("alpha_max", np.nan), ("tol", np.nan),
        ("d", 2.5), ("max_iter", 2.5), ("d", True), ("lam", "none"),
        ("alpha0", "Auto"), ("adjust_rank", "no"), ("adjust_rank", 1),
        ("tol", None), ("seed", 0.5),
    ])
    def test_schedule_out_of_range_rejected(self, field, value):
        # alpha0 stays "auto", so alpha_max is checked without a numeric start
        with pytest.raises(ValueError, match=f"^{field}"):
            SolverConfig(**{"d": 2, field: value})

    def test_numpy_numbers_are_legal(self):
        cfg = SolverConfig(lam=np.float64(0.5), d=np.int64(3),
                           rho=np.float32(1.05), max_iter=np.int32(5),
                           adjust_rank=np.bool_(False))
        p = planted(m=12, n=10, r=2, seed=3)
        assert solve_rmc(p.d_obs, p.mask, cfg).iterations <= 5

    @pytest.mark.parametrize("field, settings", [
        ("tol", dict(tol=np.inf)),
        ("rho", dict(rho=np.inf)),
        ("alpha0", dict(alpha0=np.inf, alpha_max=np.inf)),
    ], ids=["tol", "rho", "alpha0"])
    def test_infinite_schedule_rejected(self, field, settings):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SolverConfig(d=2, **settings)

    def test_infinite_lambda_and_alpha_cap_are_legal(self):
        SolverConfig(d=2, lam=np.inf, alpha0=1.0, alpha_max=np.inf)

    def test_rho_below_one_still_only_warns(self):
        with pytest.warns(UserWarning, match="rho"):
            SolverConfig(d=2, rho=0.9)

    def test_auto_lambda(self):
        assert SolverConfig().resolve_lambda(100, 50) == pytest.approx(10.0)
