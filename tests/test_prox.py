import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lowrank.linalg import RANK_CUTOFF
from lowrank.prox import soft_threshold, svt


def nuclear_objective(x, m, mu):
    return 0.5 * np.linalg.norm(x - m) ** 2 + mu * np.linalg.svd(
        x, compute_uv=False
    ).sum()


def prox_gradient_nuclear(m, mu, step=0.5, tol=1e-9, max_iter=20000):
    """Independent minimizer of the nuclear-norm proximal objective.

    Plain proximal gradient with its own shrinkage built directly on
    numpy's SVD, deliberately separate from the library code path.
    """
    x = np.zeros_like(m)
    for _ in range(max_iter):
        g = x - step * (x - m)
        u, s, vt = np.linalg.svd(g, full_matrices=False)
        x_new = (u * np.maximum(s - step * mu, 0.0)) @ vt
        if np.linalg.norm(x_new - x) < tol:
            return x_new
        x = x_new
    return x


class TestSvt:
    def test_diagonal_example(self):
        out, _, _ = svt(np.diag([3.0, 1.0]), 2.0)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_threshold_is_identity(self):
        m = np.random.default_rng(0).standard_normal((6, 4))
        out, _, _ = svt(m, 0.0)
        assert np.linalg.norm(out - m) <= 1e-8 * np.linalg.norm(m)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), -0.5)

    def test_exact_tie_maps_to_zero(self):
        # sigma == mu must vanish, not survive as a zero-direction artifact
        out, _, _ = svt(np.diag([2.0, 1.0]), 1.0)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_matches_proximal_gradient_oracle(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((8, 5))
        mu = 0.7
        out, _, _ = svt(m, mu)
        f_closed = nuclear_objective(out, m, mu)
        f_oracle = nuclear_objective(prox_gradient_nuclear(m, mu), m, mu)
        assert f_closed <= f_oracle + 1e-6

    def test_rank_equals_count_above_threshold(self):
        rng = np.random.default_rng(3)
        for mu in (0.5, 2.0, 10.0):
            m = rng.standard_normal((7, 5))
            sigma = np.linalg.svd(m, compute_uv=False)
            out, _, _ = svt(m, mu)
            out_sigma = np.linalg.svd(out, compute_uv=False)
            expected = int(np.sum(sigma > mu))
            got = int(np.sum(out_sigma > RANK_CUTOFF * max(out_sigma[0], 1e-300)))
            assert got == expected

    def test_returns_singular_values_of_result(self):
        rng = np.random.default_rng(21)
        for shape in ((7, 5), (5, 7), (40, 6)):
            m = rng.standard_normal(shape)
            sigma = np.linalg.svd(m, compute_uv=False)
            for mu in (0.0, 0.5, 0.5 * (sigma[1] + sigma[2])):
                out, shrunk, _ = svt(m, mu)
                assert shrunk.size == np.sum(sigma > mu)
                # the singular values of the result, truncated to its rank
                want = np.linalg.svd(out, compute_uv=False)[:shrunk.size]
                assert np.linalg.norm(shrunk - want) <= \
                    1e-12 * np.linalg.norm(want)
                assert np.all(np.diff(shrunk) <= 0)

    def test_values_empty_when_all_shrunk(self):
        m = np.random.default_rng(4).standard_normal((6, 4))
        sigma_max = np.linalg.svd(m, compute_uv=False)[0]
        # an exact tie at the largest value, and a threshold above it
        for m, mu in ((np.diag([2.0, 1.0]), 2.0), (m, 1.5 * sigma_max)):
            out, shrunk, _ = svt(m, mu)
            assert shrunk.shape == (0,)
            assert out.shape == m.shape and np.all(out == 0)

    def test_firmly_nonexpansive(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.standard_normal((6, 4))
            b = rng.standard_normal((6, 4))
            out_a, _, _ = svt(a, 0.8)
            out_b, _, _ = svt(b, 0.8)
            assert (
                np.linalg.norm(out_a - out_b)
                <= np.linalg.norm(a - b) + 1e-12
            )


class TestSoftThreshold:
    def test_case_analysis(self):
        out = soft_threshold(np.array([[2.5, -0.3, 1.0]]), 1.0)
        np.testing.assert_allclose(out, [[1.5, 0.0, 0.0]])

    def test_zero_threshold_is_identity(self):
        a = np.random.default_rng(1).standard_normal((4, 4))
        np.testing.assert_array_equal(soft_threshold(a, 0.0), a)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones((2, 2)), -1e-9)

    def test_scalar_minimizer_oracle(self):
        # each output entry minimizes (1/2)(x - a)^2 + tau * |x|; the three
        # stationary candidates cover all cases of the piecewise derivative
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6))
        tau = 0.4
        out = soft_threshold(a, tau)
        for aij, xij in zip(a.ravel(), out.ravel()):
            candidates = [aij - tau, aij + tau, 0.0]
            best = min(candidates,
                       key=lambda x: 0.5 * (x - aij) ** 2 + tau * abs(x))
            assert xij == pytest.approx(best, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 5),
                  elements=st.floats(-100, 100, allow_nan=False)),
           st.floats(0, 10, allow_nan=False))
    def test_shrinks_magnitude_exactly(self, a, tau):
        out = soft_threshold(a, tau)
        np.testing.assert_allclose(
            np.abs(out), np.maximum(np.abs(a) - tau, 0.0), atol=1e-12
        )

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (4, 3),
                  elements=st.floats(-50, 50, allow_nan=False)))
    def test_odd_symmetry(self, a):
        np.testing.assert_array_equal(
            soft_threshold(-a, 0.7), -soft_threshold(a, 0.7)
        )
