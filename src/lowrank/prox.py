"""Proximal operators: singular value thresholding and elementwise soft-thresholding."""

import numpy as np

from .linalg import check_matrix, svd_thin


def svt(m, mu):
    """Singular value thresholding: shrink singular values by ``mu``.

    Returns ``(x, shrunk)``: X = U diag(max(sigma - mu, 0)) V^T from the thin
    SVD of ``m``, the proximal operator of mu * (nuclear norm), and the
    nonzero shrunk values sigma - mu, nonincreasing. These are the singular
    values of X, so ``shrunk.sum()`` is its nuclear norm without a second
    SVD. Singular values exactly equal to mu map to zero; when none exceeds
    mu, X is zero and ``shrunk`` is empty.
    """
    if mu < 0:
        raise ValueError(f"svt threshold must be nonnegative, got {mu}")
    m = check_matrix(m, "svt input")
    f = svd_thin(m)
    keep = f.sigma > mu
    shrunk = f.sigma[keep] - mu
    if not shrunk.size:
        return np.zeros_like(m), shrunk
    return (f.u[:, keep] * shrunk) @ f.v[:, keep].T, shrunk


def soft_threshold(a, tau):
    """Elementwise shrinkage toward zero by ``tau`` (prox of tau * l1-norm)."""
    if tau < 0:
        raise ValueError(f"soft threshold must be nonnegative, got {tau}")
    a = np.asarray(a, dtype=np.float64)
    return a - np.clip(a, -tau, tau)
