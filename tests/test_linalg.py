import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lowrank.linalg import (
    PowerIterationError,
    qr_thin,
    spectral_norm,
    svd_thin,
)


class TestQrThin:
    def test_identity_is_its_own_factorization(self):
        f = qr_thin(np.eye(3))
        np.testing.assert_allclose(f.q, np.eye(3))
        np.testing.assert_allclose(f.r, np.eye(3))

    def test_rank_two_input_gives_orthonormal_q(self):
        a = np.array([[3.0, 0.0], [4.0, 0.0], [0.0, 1.0]])
        f = qr_thin(a)
        np.testing.assert_allclose(f.q.T @ f.q, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(f.q @ f.r, a, atol=1e-10)

    def test_random_tall_matrix_reconstructs(self):
        a = np.random.default_rng(11).standard_normal((20, 5))
        f = qr_thin(a)
        assert np.linalg.norm(f.q @ f.r - a) <= 1e-10 * np.linalg.norm(a)
        assert np.all(np.diag(f.r) >= 0)

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError, match="rows >= cols"):
            qr_thin(np.ones((2, 4)))

    def test_nonfinite_rejected(self):
        a = np.ones((3, 2))
        a[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            qr_thin(a)

    def test_deterministic(self):
        a = np.random.default_rng(5).standard_normal((12, 4))
        f1, f2 = qr_thin(a), qr_thin(a.copy())
        assert np.array_equal(f1.q, f2.q)
        assert np.array_equal(f1.r, f2.r)

    def test_matches_reduced_qr_up_to_column_signs(self):
        a = np.random.default_rng(7).standard_normal((50, 6))
        f = qr_thin(a)
        q, r = np.linalg.qr(a, mode="reduced")
        signs = np.sign(np.diag(r))
        np.testing.assert_allclose(f.q, q * signs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(f.r, signs[:, None] * r, rtol=0, atol=1e-12)
        assert f.q.flags.c_contiguous

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, (9, 4),
                  elements=st.floats(-1e3, 1e3, allow_nan=False)))
    def test_q_always_orthonormal(self, a):
        f = qr_thin(a)
        assert np.max(np.abs(f.q.T @ f.q - np.eye(4))) <= 1e-10


class TestSvdThin:
    def test_diagonal_matrix(self):
        f = svd_thin(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(f.sigma, [3.0, 1.0])

    def test_zero_matrix_has_rank_zero(self):
        f = svd_thin(np.zeros((4, 3)))
        assert f.rank == 0

    def test_planted_rank_three(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((10, 3)) @ rng.standard_normal((6, 3)).T
        assert svd_thin(a).rank == 3

    def test_reconstruction_and_ordering(self):
        a = np.random.default_rng(3).standard_normal((8, 5))
        f = svd_thin(a)
        rel = np.linalg.norm(f.reconstruct() - a) / max(np.linalg.norm(a), 1.0)
        assert rel <= 1e-8
        assert np.all(np.diff(f.sigma) <= 0)
        assert np.all(f.sigma >= 0)

    def test_factor_orthonormality(self):
        f = svd_thin(np.random.default_rng(4).standard_normal((7, 4)))
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(f.rank), atol=1e-10)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(f.rank), atol=1e-10)

    def test_deterministic(self):
        a = np.random.default_rng(6).standard_normal((9, 5))
        f1, f2 = svd_thin(a), svd_thin(a.copy())
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.v, f2.v)


class TestSpectralNorm:
    def test_identity_operator(self):
        assert spectral_norm(lambda x: x, (5, 4)) == pytest.approx(1.0)

    def test_projection_has_unit_norm(self):
        rng = np.random.default_rng(0)
        b = np.linalg.qr(rng.standard_normal((12, 3)))[0]
        proj = lambda x: b @ (b.T @ x)
        assert spectral_norm(proj, (12, 2)) == pytest.approx(1.0, rel=1e-6)

    def test_scaled_projection(self):
        rng = np.random.default_rng(1)
        b = np.linalg.qr(rng.standard_normal((10, 4)))[0]
        op = lambda x: 2.0 * (b @ (b.T @ x))
        assert spectral_norm(op, (10, 3)) == pytest.approx(2.0, rel=1e-6)

    def test_nonconvergence_carries_estimate(self):
        a = np.diag([3.0, 1.0, 0.5])
        with pytest.raises(PowerIterationError) as err:
            spectral_norm(lambda x: a @ x, (3, 3), max_iter=1)
        assert np.isfinite(err.value.estimate)
