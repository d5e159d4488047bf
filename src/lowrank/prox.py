"""Proximal operators: singular value thresholding and elementwise soft-thresholding."""

import numpy as np

# perfbench/tracing.py patches svd_thin in this module, so it stays importable
# from it; svt does not call it.
from .linalg import RANK_CUTOFF, check_matrix, svd_thin  # noqa: F401


def svt(m, mu):
    """Singular value thresholding: shrink singular values by ``mu``.

    Returns ``(x, shrunk, (left, right))``: X = U diag(max(sigma - mu, 0)) V^T
    from the thin SVD of ``m``, the proximal operator of mu * (nuclear norm);
    the nonzero shrunk values sigma - mu, nonincreasing; and X's kept
    factors, ``left`` = U_k diag(shrunk) and ``right`` = V_k^T, with
    X = left @ right bit for bit. The shrunk values are the singular values
    of X, so ``shrunk.sum()`` is its nuclear norm without a second SVD, and
    the factors let a caller form products with X at inner size k, the
    number of values kept. Singular values exactly equal to mu map to zero;
    when none exceeds mu, X is zero, ``shrunk`` is empty and the factors
    have no columns and no rows. As in ``svd_thin``, values at or below
    RANK_CUTOFF * sigma_max count as zero.

    The input is checked once and ``np.linalg.svd`` called once; since sigma
    is sorted, the kept values are a prefix and V_k^T is sliced, not copied.
    GEMM rounding can depend on operand layout, and the scaled left factor
    is built in Fortran order, which gives the bits of thresholding
    ``svd_thin``'s factors by a boolean mask, the reference in the tests.
    One BLAS thread, best of 2000 interleaved calls, 500 x 10: 125 us
    through ``svd_thin``, 103 us here, of which ``np.linalg.svd`` takes 77.
    """
    if mu < 0:
        raise ValueError(f"svt threshold must be nonnegative, got {mu}")
    m = check_matrix(m, "svt input")
    u, sigma, v_t = np.linalg.svd(m, full_matrices=False)
    floor = max(mu, RANK_CUTOFF * sigma[0]) if sigma.size else mu
    k = int(np.count_nonzero(sigma > floor))
    shrunk = sigma[:k] - mu
    left, right = np.multiply(u[:, :k], shrunk, order="F"), v_t[:k]
    if not k:
        return np.zeros_like(m), shrunk, (left, right)
    return left @ right, shrunk, (left, right)


def soft_threshold(a, tau):
    """Elementwise shrinkage toward zero by ``tau`` (prox of tau * l1-norm)."""
    if tau < 0:
        raise ValueError(f"soft threshold must be nonnegative, got {tau}")
    a = np.asarray(a, dtype=np.float64)
    return a - np.clip(a, -tau, tau)
