"""Dense linear-algebra kernels: thin QR, thin SVD, spectral-norm estimation.

These are the only numerical primitives the solvers need. All functions are
pure and operate on plain float64 numpy arrays (row-major).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Singular values below RANK_CUTOFF * sigma_max are treated as zero.
RANK_CUTOFF = 1e-12


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; ``estimate`` holds the last iterate."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


def check_matrix(a, name="matrix"):
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class QrFactors:
    q: np.ndarray  # m x d, orthonormal columns
    r: np.ndarray  # d x d, upper triangular, nonnegative diagonal


@dataclass(frozen=True)
class ThinSvd:
    u: np.ndarray      # n x r, orthonormal columns
    sigma: np.ndarray  # length r, nonincreasing, all > cutoff (or empty)
    v: np.ndarray      # d x r, orthonormal columns

    @property
    def rank(self):
        return self.sigma.size

    def reconstruct(self):
        return (self.u * self.sigma) @ self.v.T


def qr_thin(a):
    """Thin QR of a tall matrix (m >= d) with R's diagonal made nonnegative.

    The sign convention makes Q unique for full column-rank input; for
    rank-deficient input the trailing columns of Q are an arbitrary (but
    deterministic) orthonormal completion.
    """
    a = check_matrix(a, "qr input")
    m, d = a.shape
    if m < d:
        raise ValueError(f"qr_thin requires rows >= cols, got {m}x{d}")
    # check_matrix has already rejected non-finite entries
    q, r = scipy.linalg.qr(a, mode="economic", check_finite=False)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    # LAPACK returns Q column-major; keep it row-major like every other array
    # here, so the products downstream keep their layout and rounding.
    return QrFactors(np.multiply(q, signs, order="C"), signs[:, None] * r)


def svd_thin(a):
    """Thin SVD truncated at the numerical rank (RANK_CUTOFF * sigma_max)."""
    a = check_matrix(a, "svd input")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size and s[0] > 0:
        r = int(np.sum(s > RANK_CUTOFF * s[0]))
    else:
        r = 0
    return ThinSvd(u[:, :r].copy(), s[:r].copy(), vt[:r].T.copy())


def spectral_norm(op, shape, seed=0, tol=1e-6, max_iter=500):
    """Largest eigenvalue of a self-adjoint PSD matrix-to-matrix operator.

    Power iteration started from a seeded Gaussian matrix. ``op`` maps an
    array of ``shape`` to another of the same shape. Raises
    PowerIterationError (carrying the last estimate) if the iteration does
    not stabilize within ``max_iter`` steps.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    nrm = np.linalg.norm(x)
    if nrm == 0:
        return 0.0
    x /= nrm
    est = 0.0
    for _ in range(max_iter):
        y = op(x)
        new_est = float(np.sum(x * y))
        ynrm = np.linalg.norm(y)
        if ynrm == 0:
            return 0.0
        x = y / ynrm
        if abs(new_est - est) <= tol * max(abs(new_est), 1e-300):
            return new_est
        est = new_est
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} steps", est
    )
