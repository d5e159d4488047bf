import numpy as np
import pytest

from lowrank.config import SolverConfig
from lowrank.datasets import generate_planted, load_ratings
from lowrank.measurements import ObservationMask
from lowrank.metrics import relative_error, rmse
from lowrank.rmc import adjust_rank_once, solve_mc, solve_rmc


class TestSolveMc:
    def test_fully_observed_small_lambda(self):
        rng = np.random.default_rng(0)
        target = rng.standard_normal((25, 3)) @ rng.standard_normal((20, 3)).T
        mask = ObservationMask.full(25, 20)
        res = solve_mc(target, mask, SolverConfig(lam=0.01, d=5, tol=1e-9,
                                                  max_iter=1000))
        assert relative_error(res.low_rank(), target) <= 1e-3

    def test_planted_completion(self):
        rng = np.random.default_rng(1)
        l0 = rng.standard_normal((60, 4)) @ rng.standard_normal((50, 4)).T
        mask = ObservationMask(rng.random((60, 50)) < 0.6)
        res = solve_mc(l0, mask, SolverConfig(lam=0.1, d=8, tol=1e-6,
                                              max_iter=800))
        assert relative_error(res.low_rank(), l0) <= 1e-2

    def test_sparse_component_identically_zero(self):
        rng = np.random.default_rng(2)
        d = rng.standard_normal((10, 10))
        res = solve_mc(d, ObservationMask.full(10, 10), SolverConfig(d=3))
        assert np.all(res.s == 0)

    def test_trace_and_termination(self):
        rng = np.random.default_rng(3)
        l0 = rng.standard_normal((30, 5)) @ rng.standard_normal((24, 5)).T
        mask = ObservationMask(rng.random((30, 24)) < 0.7)
        res = solve_mc(l0, mask, SolverConfig(lam=0.1, d=7, tol=1e-6,
                                              max_iter=800))
        assert res.termination == "converged"
        assert res.iterations == len(res.trace)
        assert all(np.isfinite(rec.objective) for rec in res.trace)

    def test_stop_ratio_is_relative_product_change(self):
        rng = np.random.default_rng(3)
        l0 = rng.standard_normal((30, 5)) @ rng.standard_normal((24, 5)).T
        mask = ObservationMask(rng.random((30, 24)) < 0.7)
        cfg = SolverConfig(lam=0.1, d=7, tol=1e-6, max_iter=800)
        products = []
        res = solve_mc(l0, mask, cfg,
                       iter_callback=lambda it: products.append(it.u @ it.v.T))
        assert res.termination == "converged"
        for k, rec in enumerate(res.trace):
            base = np.linalg.norm(products[k - 1]) if k else 0.0
            if base == 0:
                assert rec.stop_ratio is None
            else:
                change = np.linalg.norm(products[k] - products[k - 1])
                assert rec.stop_ratio == pytest.approx(change / base,
                                                       rel=1e-6, abs=1e-12)
        # MC also stops on a small residual, as this run does, with every
        # stop_ratio at or above tol; stop_test tells the two apart
        last = res.trace[-1]
        assert res.stop_test == "residual"
        assert last.residual < cfg.tol * np.linalg.norm(l0[mask.marker])
        assert all(rec.stop_ratio is None or rec.stop_ratio >= cfg.tol
                   for rec in res.trace[:-1])

    def test_stop_test_names_the_product_change(self):
        rng = np.random.default_rng(3)
        l0 = rng.standard_normal((30, 5)) @ rng.standard_normal((24, 5)).T
        mask = ObservationMask(rng.random((30, 24)) < 0.7)
        cfg = SolverConfig(lam=1.0, d=7, tol=1e-4, max_iter=800)
        res = solve_mc(l0, mask, cfg)
        assert res.termination == "converged"
        assert res.stop_test == "product_change"
        assert res.trace[-1].stop_ratio < cfg.tol
        capped = solve_mc(l0, mask, SolverConfig(lam=1.0, d=7, max_iter=5))
        assert capped.termination == "max_iter_reached"
        assert capped.stop_test is None

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            solve_mc(np.zeros((3, 3)),
                     ObservationMask(np.zeros((3, 3), dtype=bool)),
                     SolverConfig(d=2))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        l0 = rng.standard_normal((20, 3)) @ rng.standard_normal((16, 3)).T
        mask = ObservationMask(rng.random((20, 16)) < 0.8)
        cfg = SolverConfig(lam=0.1, d=5)
        r1 = solve_mc(l0, mask, cfg)
        r2 = solve_mc(l0, mask, cfg)
        assert np.array_equal(r1.low_rank(), r2.low_rank())


class TestRatingsCompletion:
    def rating_problem(self, tmp_path):
        rng = np.random.default_rng(7)
        profile = rng.standard_normal((40, 3)) @ rng.standard_normal((30, 3)).T
        truth = np.clip(3.0 + profile / np.sqrt(3), 1.0, 5.0)
        lines = []
        for i in range(40):
            for j in range(30):
                if rng.random() < 0.4:
                    lines.append(f"{i} {j} {truth[i, j]:.6f}")
        path = tmp_path / "ratings.txt"
        path.write_text("\n".join(lines) + "\n")
        return load_ratings(path)

    def test_beats_global_mean_baseline(self, tmp_path):
        ds = self.rating_problem(tmp_path)
        train, mask = ds.train_matrix()
        res = solve_mc(train, mask, SolverConfig(lam=0.5, d=5, tol=1e-6,
                                                 max_iter=800))
        pred = np.clip(res.low_rank(), 1.0, 5.0)
        model_rmse = rmse(pred, ds.test)
        mean = train[mask.marker].mean()
        baseline = rmse(np.full_like(train, mean), ds.test)
        assert model_rmse < baseline


class TestRankAdjustment:
    def make_v(self, spectrum, n=40, seed=0):
        spectrum = np.asarray(spectrum, dtype=np.float64)
        d = spectrum.size
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.standard_normal((n, d)))[0]
        return basis * np.sqrt(spectrum)

    def test_clear_gap_detected(self):
        v = self.make_v([10.0, 9.5, 9.0, 1e-4, 1e-4])
        assert adjust_rank_once(v, 5) == 3

    def test_flat_spectrum_unchanged(self):
        v = self.make_v([1.0, 1.0, 1.0, 1.0])
        assert adjust_rank_once(v, 4) == 4

    def test_rank_one_input_passes_through(self):
        assert adjust_rank_once(np.ones((5, 1)), 1) == 1

    def test_zero_factor_unchanged(self):
        assert adjust_rank_once(np.zeros((6, 4)), 4) == 4

    def test_exact_zero_tail_ignored(self):
        # a hard-zero tail marks numerical rank, not a spectral jump
        v = self.make_v([4.0, 3.0, 2.0, 0.0, 0.0])
        assert adjust_rank_once(v, 5) == 5

    def test_partial_spectrum_unchanged(self):
        # under the automatic penalty V keeps two of four directions early
        # on; a single quotient is no spectral jump
        v = self.make_v([10.0, 1e-3, 0.0, 0.0])
        assert adjust_rank_once(v, 4) == 4

    def test_two_directions_unchanged(self):
        # one quotient leaves no rest for it to dominate
        assert adjust_rank_once(self.make_v([1.0, 1.0]), 2) == 2

    def test_solver_with_auto_penalty_keeps_accuracy(self):
        p = generate_planted(100, 100, 3, spike_frac=0.1, obs_frac=0.7,
                             seed=11)
        cfg = SolverConfig(lam=np.sqrt(100 * 0.7), d=6, adjust_rank=True)
        res = solve_rmc(p.d_obs, p.mask, cfg)
        assert relative_error(res.low_rank(), p.l0) <= 1e-3

    def test_solver_adjusts_at_most_once(self):
        p = generate_planted(80, 80, 4, spike_frac=0.1, obs_frac=0.9, seed=3)
        res = solve_rmc(p.d_obs, p.mask,
                        SolverConfig(d=8, alpha0=2.0, adjust_rank=True))
        dims = [rec.d for rec in res.trace]
        changes = sum(1 for a, b in zip(dims, dims[1:]) if a != b)
        assert changes <= 1
        assert all(b <= a for a, b in zip(dims, dims[1:]))

    def test_solver_finds_planted_rank(self):
        p = generate_planted(100, 100, 5, spike_frac=0.1, obs_frac=0.8, seed=0)
        res = solve_rmc(p.d_obs, p.mask,
                        SolverConfig(d=10, alpha0=2.0, adjust_rank=True))
        assert res.trace[-1].d == 5
        assert res.u.shape[1] == 5
