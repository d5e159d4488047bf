"""Proximal operators: singular value thresholding and elementwise soft-thresholding."""

import numpy as np

from .linalg import check_matrix, svd_thin


def svt(m, mu):
    """Singular value thresholding: shrink singular values by ``mu``.

    Returns U diag(max(sigma - mu, 0)) V^T from the thin SVD of ``m``; the
    proximal operator of mu * (nuclear norm). Singular values exactly equal
    to mu map to zero.
    """
    if mu < 0:
        raise ValueError(f"svt threshold must be nonnegative, got {mu}")
    m = check_matrix(m, "svt input")
    f = svd_thin(m)
    keep = f.sigma > mu
    if not np.any(keep):
        return np.zeros_like(m)
    return (f.u[:, keep] * (f.sigma[keep] - mu)) @ f.v[:, keep].T


def soft_threshold(a, tau):
    """Elementwise shrinkage toward zero by ``tau`` (prox of tau * l1-norm)."""
    if tau < 0:
        raise ValueError(f"soft threshold must be nonnegative, got {tau}")
    a = np.asarray(a, dtype=np.float64)
    return a - np.clip(a, -tau, tau)
