"""Linearized ADMM for low-rank plus sparse recovery from linear measurements.

The solver reads four members of its measurement operator ``q``: ``shape``,
``dim``, ``forward`` and ``adjoint`` (the contract of
``lowrank.measurements``). So ``q`` may be a random ``SubspaceOperator`` or an
``ObservationMask``, whose entry sampling is measurement against the subspace
of indicator matrices.

The data-fit quadratic couples all matrix entries through the operator, so the
factor and sparse updates each linearize it at the current point and take a
gradient step followed by the matching proximal map. The operator's rows are
orthonormal, so its Gram operator ``adjoint(forward(.))`` is an orthogonal
projection of norm 1 and the step is 1 / alpha. The multiplier lives in
measurement space.
"""

import numpy as np

from .config import IterationRecord, SolveResult
# perfbench/tracing.py patches spectral_norm and nuclear_norm in this module,
# so they stay importable from it; the solver calls neither.
from .linalg import spectral_norm  # noqa: F401
from .prox import soft_threshold, svt
from .rmc import nuclear_norm, orthonormal_factor  # noqa: F401

# Denominators below this are treated as zero in the stopping ratio.
_RATIO_FLOOR = 1e-30


def solve_cpcp(y_meas, q, cfg, iter_callback=None):
    """Recover a low-rank plus sparse matrix from p linear measurements.

    ``q`` is a measurement operator with orthonormal rows, a mask included.
    ``iter_callback(k, u, v, s, y)`` is invoked after each iteration's dual
    update, as for the other solvers, with the m x n sparse part S and the
    length-p measurement-space multiplier y, as in ``SolveResult.y``.
    """
    cfg.validate()
    if cfg.adjust_rank:
        raise ValueError("adjust_rank is not supported by solve_cpcp")
    y_meas = np.asarray(y_meas, dtype=np.float64)
    if y_meas.ndim != 1 or y_meas.shape[0] != q.dim:
        raise ValueError(
            f"measurement vector of length {y_meas.shape} does not match "
            f"operator dimension {q.dim}"
        )
    if not np.all(np.isfinite(y_meas)):
        raise ValueError("measurements contain non-finite values")
    m, n = q.shape
    cfg.check_rank_bound(m, n)

    lam = cfg.resolve_lambda(m, n)
    alpha = cfg.resolve_alpha0(float(np.linalg.norm(y_meas)))

    d = cfg.d
    u = np.eye(m, d)
    v = np.zeros((n, d))
    s = np.zeros((m, n))
    t = u @ v.T
    dual = np.zeros(q.dim)
    # forward(t + s) at the current iterate, shared by the next iteration's
    # product gradient, the dual step and the residual.
    fit = q.forward(t + s)
    trace = []
    termination = "max_iter_reached"

    for k in range(1, cfg.max_iter + 1):
        t_prev, s_prev = t, s
        # The data-fit gradient carries a factor alpha and the Gram operator
        # has norm 1, so the quadratic's Lipschitz constant is alpha.
        step = 1.0 / alpha
        grad_t = alpha * q.adjoint(fit - y_meas - dual / alpha)
        b = t - step * grad_t
        u = orthonormal_factor(b @ v, u, "qr")
        # SVT of the d x n step target, applied in its n x d orientation
        # (unitarily equivalent) so the small side carries the thresholding.
        v, shrunk = svt((u.T @ b).T, lam / alpha)
        t = u @ v.T
        grad_s = data_fit_gradient(s, t, y_meas, dual, alpha, q)
        s = soft_threshold(s - step * grad_s, 1.0 / alpha)
        fit = q.forward(t + s)
        dual = dual + alpha * (y_meas - fit)

        residual = float(np.linalg.norm(y_meas - fit))
        objective = float(np.abs(s).sum()) + lam * float(shrunk.sum())
        denom = float(np.linalg.norm(t_prev) ** 2 + np.linalg.norm(s_prev) ** 2)
        numer = float(
            np.linalg.norm(t - t_prev) ** 2 + np.linalg.norm(s - s_prev) ** 2
        )
        ratio = numer / denom if denom >= _RATIO_FLOOR else None
        trace.append(IterationRecord(k, residual, objective, alpha, d, ratio))
        if iter_callback is not None:
            iter_callback(k, u, v, s, dual)
        if k > 1 and ratio is not None and ratio < cfg.tol:
            termination = "converged"
            break
        alpha = min(cfg.rho * alpha, cfg.alpha_max)

    return SolveResult(u=u, v=v, s=s, y=dual, trace=trace, termination=termination)


def data_fit_gradient(point, other, y_meas, dual, alpha, q):
    """Gradient of the linearized data-fit quadratic at ``point``.

    The quadratic is (alpha/2) * || y - P(point + other) + dual/alpha ||^2
    with P the measurement forward map; used by the solver for both the
    product and the sparse blocks, and exposed for finite-difference checks.
    """
    return alpha * q.adjoint(q.forward(point + other) - y_meas - dual / alpha)
