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

The operator's passes set an iteration's cost, so the solver holds
forward(U V^T) and forward(S) apart and each iteration makes: one adjoint
for the product step; one forward of U V^T and one adjoint for the sparse
step, both dropped while V = 0 (the sparse step then reuses the product
step's gradient, the same vector); and one forward of S, which a
``SubspaceOperator`` forms from S's nonzero entries alone while they are
few. By linearity this is the iteration that forms forward(U V^T + S).

The penalty starts as robust completion's does: "auto" alpha0 is
SPECTRAL_START * lambda / ||A^T y||_2 (``SolverConfig.resolve_alpha0``),
with A the forward map and y the measurements. On iteration 1 fit and
multiplier are zero, so the product step's target is A^T y, and the first
threshold lambda / alpha0 = 2 ||A^T y||_2 lies just above every singular
value of that target, below which V stays zero. Iteration 1's product-step
adjoint does not depend on alpha, so it is taken once, before the loop, and
gives the norm too; the norm is the only one estimated (``linalg.norm_2``).
"""

import numpy as np

from .config import Iterate, IterationRecord, SolveResult
# perfbench/tracing.py patches spectral_norm and nuclear_norm in this module,
# so they stay importable from it; the solver calls neither.
from .linalg import norm_2, spectral_norm  # noqa: F401
from .prox import soft_threshold, svt
from .rmc import nuclear_norm, orthonormal_factor  # noqa: F401

# Denominators below this are treated as zero in the stopping ratio.
_RATIO_FLOOR = 1e-30


def check_cpcp_problem(y_meas, shape, dim, cfg):
    """All of ``solve_cpcp``'s checks of ``dim`` measurements ``y_meas`` of
    a matrix of this ``shape``, made without the operator, so before it is
    drawn; returns ``y_meas`` as a float64 vector."""
    if cfg.adjust_rank:
        raise ValueError("adjust_rank is not supported by cpcp")
    m, n = shape
    if not 1 <= dim <= m * n:
        raise ValueError(f"subspace dimension {dim} out of range [1, {m * n}]")
    y_meas = np.asarray(y_meas, dtype=np.float64)
    if y_meas.shape != (dim,):
        raise ValueError(f"measurement vector of shape {y_meas.shape} does "
                         f"not match operator dimension {dim}")
    if not np.all(np.isfinite(y_meas)):
        raise ValueError("measurements contain non-finite values")
    cfg.check_rank_bound(m, n)
    return y_meas


def solve_cpcp(y_meas, q, cfg, iter_callback=None):
    """Recover a low-rank plus sparse matrix from p linear measurements.

    ``q`` is a measurement operator with orthonormal rows, a mask included.
    ``iter_callback(it)`` is invoked after each iteration's dual update, as
    for the other solvers, with an ``Iterate`` view whose ``s`` is the m x n
    sparse part S and ``y`` the length-p measurement-space multiplier, as in
    ``SolveResult.y``; the solver holds both already.
    """
    y_meas = check_cpcp_problem(y_meas, q.shape, q.dim, cfg)
    m, n = q.shape

    lam = cfg.resolve_lambda(m, n)
    y_norm = float(np.linalg.norm(y_meas))
    # iteration 1's product-step adjoint, of fit - y - dual / alpha = -y
    adj = q.adjoint(-y_meas)
    alpha = cfg.resolve_alpha0(y_norm, lam, lambda: norm_2(adj))

    d = cfg.d
    u = np.eye(m, d)
    v = np.zeros((n, d))
    s = np.zeros((m, n))
    t = np.zeros((m, n))             # U V^T with V = 0
    rank = 0                         # of V; U V^T is zero when it is 0
    dual = np.zeros(q.dim)
    # forward(t) and forward(s) at the current iterate, held apart, and their
    # sum fit, which the next product gradient, the dual step and the
    # residual share; all zero at the start.
    zero = np.zeros(q.dim)
    ft = fs = fit = zero
    trace = []
    termination, stop_test = "max_iter_reached", None
    # read only while the callback runs, so they see this iteration's S and y
    forms = {"s": lambda it: s, "y": lambda it: dual,
             "support": lambda it: int(np.count_nonzero(s))}

    for k in range(1, cfg.max_iter + 1):
        t_prev, s_prev, rank_prev = t, s, rank
        # The data-fit gradient carries a factor alpha and the Gram operator
        # has norm 1, so the quadratic's Lipschitz constant is alpha.
        step = 1.0 / alpha
        if k > 1:
            adj = q.adjoint(fit - y_meas - dual / alpha)
        grad_t = alpha * adj
        b = t - step * grad_t
        if rank_prev:                # else V = 0 and B V = 0: U is kept
            u = orthonormal_factor(b @ v, "qr")
        # SVT of the d x n step target, applied in its n x d orientation
        # (unitarily equivalent) so the small side carries the thresholding.
        v, shrunk, _ = svt((u.T @ b).T, lam / alpha)
        rank = shrunk.size
        t = u @ v.T
        if rank or rank_prev:
            ft = q.forward(t) if rank else zero
            grad_s = alpha * q.adjoint(ft + fs - y_meas - dual / alpha)
        else:
            # V = 0 now and before: ft is zero on both sides, so the sparse
            # step's adjoint argument is the product step's, bit for bit.
            grad_s = grad_t
        s = soft_threshold(s - step * grad_s, 1.0 / alpha)
        fs = q.forward(s)
        fit = ft + fs
        dual = dual + alpha * (y_meas - fit)

        residual = float(np.linalg.norm(y_meas - fit))
        objective = float(np.abs(s).sum()) + lam * float(shrunk.sum())
        denom = float(np.linalg.norm(t_prev) ** 2 + np.linalg.norm(s_prev) ** 2)
        numer = float(
            np.linalg.norm(t - t_prev) ** 2 + np.linalg.norm(s - s_prev) ** 2
        )
        ratio = numer / denom if denom >= _RATIO_FLOOR else None
        trace.append(IterationRecord(k, residual, objective, alpha, d, ratio,
                                     rank=rank))
        if iter_callback is not None:
            Iterate(trace[-1], u, v, forms).pass_to(iter_callback)
        # y = 0: L = S = 0, the first iterate, is the optimum; its ratio is None
        if y_norm == 0 or (ratio is not None and ratio < cfg.tol):
            termination = "converged"
            stop_test = "residual" if y_norm == 0 else "step_ratio"
            break
        alpha = min(cfg.rho * alpha, cfg.alpha_max)

    return SolveResult(u=u, v=v, s=s, y=dual, trace=trace,
                       termination=termination, stop_test=stop_test)


def data_fit_gradient(point, other, y_meas, dual, alpha, q):
    """Gradient of the linearized data-fit quadratic at ``point``.

    The quadratic is (alpha/2) * || y - P(point + other) + dual/alpha ||^2
    with P the measurement forward map. The solver takes this gradient for
    the product and the sparse blocks, formed from P(U V^T) and P(S) held
    apart; this reference form serves finite-difference checks.
    """
    return alpha * q.adjoint(q.forward(point + other) - y_meas - dual / alpha)
