"""ADMM solvers for robust matrix completion, RPCA, and plain matrix completion.

One driver runs both completion solvers. Each iteration updates the
orthonormal factor by a thin QR of the current target times the right factor,
thresholds the singular values of the small factor-side matrix, updates the
solver's split variable on the observed entries Omega in closed form, then
takes a dual ascent step with a geometric penalty schedule. A once-only
rank-shrinking heuristic watches the eigenvalue quotients of V^T V for a
dominant spectral jump.

Off Omega the multiplier stays zero and the target P equals the previous
product U V^T, so P differs from that product only on Omega. The two products
with P are therefore a rank-d term plus a product with one m x n buffer that
is nonzero only on Omega. An iteration costs three m x n GEMMs of width d
(that buffer times V, its transpose times U, and U V^T, read on Omega),
O(|Omega|) elementwise work on vectors, and two reused m x n buffers; the
dense sparse part and multiplier are formed only for ``iter_callback`` and
for the result.
"""

import math

import numpy as np

# perfbench/tracing.py patches these names in this module, mask_project
# included, so they stay importable from it.
from .config import IterationRecord, SolveResult
from .linalg import check_matrix, qr_thin, svd_thin
from .measurements import ObservationMask, mask_project  # noqa: F401
from .prox import soft_threshold, svt

# Threshold below which the factor-update input is considered all-zero and
# the orthonormal factor is carried over unchanged (both update schemes must
# handle this degenerate case identically for their iterates to match).
_DEGENERATE = 1e-300

# The once-only rank adjustment is first evaluated at this iteration.
RANK_ADJUST_START = 3

# A spectral jump must dominate the mean quotient by this factor to fire.
RANK_ADJUST_GAP = 10.0


def nuclear_norm(a):
    return float(np.linalg.svd(a, compute_uv=False).sum())


def orthonormal_factor(p_times_v, previous, scheme):
    """Update the orthonormal factor from the m x d product target.

    scheme "qr": orthonormal basis of the column span via thin QR.
    scheme "svd": the polar factor (closest orthonormal matrix). Both give
    identical products with the subsequent thresholded right factor.
    """
    if np.max(np.abs(p_times_v), initial=0.0) < _DEGENERATE:
        return previous
    if scheme == "qr":
        return qr_thin(p_times_v).q
    if scheme == "svd":
        f = svd_thin(p_times_v)
        d = p_times_v.shape[1]
        if f.rank < d:
            # Rank-deficient polar factor is not unique; keep the carried
            # basis so both schemes stay comparable.
            return previous
        return f.u @ f.v.T
    raise ValueError(f"unknown factor update scheme {scheme!r}")


def adjust_rank_once(v, current_d):
    """Detect a dominant jump in the spectrum of V^T V and return the new rank.

    Eigenvalues of the d x d Gram matrix are sorted nonincreasing, the
    quotient sequence formed over the positive part of the spectrum, and the
    working rank cut at the largest quotient when it dominates the rest by
    RANK_ADJUST_GAP. The exactly zero tail left behind by the thresholded
    factor update is excluded: it marks the current numerical rank, not the
    spectral jump this heuristic looks for, and keeping it would make the
    detector fire on the first iteration with any rank-deficient factor.
    """
    if current_d < 2:
        return current_d
    eigvals = np.linalg.eigvalsh(v.T @ v)[::-1]
    positive = eigvals[eigvals > max(eigvals[0], 0.0) * 1e-12]
    if positive.size < 2:
        return current_d
    quotients = positive[:-1] / positive[1:]
    r_hat = int(np.argmax(quotients))
    others = quotients.sum() - quotients[r_hat]
    if others == 0.0:
        return r_hat + 1
    gap = (positive.size - 1) * quotients[r_hat] / others
    if gap >= RANK_ADJUST_GAP:
        return r_hat + 1
    return current_d


def _rank_truncation_basis(v, new_d):
    """Orthonormal d x new_d basis of the top eigendirections of V^T V."""
    eigvals, eigvecs = np.linalg.eigh(v.T @ v)
    order = np.argsort(eigvals)[::-1]
    return eigvecs[:, order[:new_d]]


def _scatter(out, flat, values):
    """Write ``values`` at the flat indices of the m x n array ``out``."""
    out.reshape(-1)[flat] = values
    return out


def _product_change(u, v, u_prev, v_prev):
    """||U V^T - U_prev V_prev^T||_F for orthonormal U, in O((m + n) d^2).

    With C = U^T U_prev and W = U_prev - U C orthogonal to U, the difference
    is U (V - V_prev C^T)^T - W V_prev^T, and the squared norms of these two
    orthogonal terms add.
    """
    c = u.T @ u_prev
    w = u_prev - u @ c
    inside = float(np.linalg.norm(v - v_prev @ c.T)) ** 2
    outside = float(np.sum((w.T @ w) * (v_prev.T @ v_prev)))
    return math.sqrt(inside + max(outside, 0.0))


def _admm(d_obs, mask, cfg, update, data_term, sparse=None, stop=None,
          u_scheme="qr", iter_callback=None):
    """The ADMM loop shared by ``solve_rmc`` and ``solve_mc``.

    Both split L = U V^T from a target Z held on Omega only: Z = D - S for
    robust completion, the auxiliary matrix for plain completion. Off Omega
    Z equals the product and the multiplier Y is zero, so the residual Z - L
    and the dual step live on Omega too. What differs is passed in:

    - ``update(data, low, y, alpha)``: the new Z on Omega, given L on Omega;
    - ``data_term(data, z, low)``: the data part of the objective;
    - ``sparse(data, z)``: the sparse part S = D - Z, or None when the solver
      has none; the callback then receives the auxiliary matrix Z instead;
    - ``stop(u, v, u_prev, v_prev)``: a stopping test besides the residual.
    """
    cfg.validate()
    d_full = check_matrix(d_obs, "observed data")
    m, n = d_full.shape
    if mask.marker.shape != (m, n):
        raise ValueError(f"mask shape {mask.marker.shape} != data shape {(m, n)}")
    if mask.num_observed == 0:
        raise ValueError("observation mask is empty")
    if cfg.d > min(m, n):
        raise ValueError(f"rank bound d={cfg.d} exceeds min(m, n)={min(m, n)}")

    flat = np.flatnonzero(mask.marker)
    data = d_full.reshape(-1)[flat]
    lam = cfg.resolve_lambda(m, n)
    obs_norm = float(np.linalg.norm(data))
    alpha = (1.0 / obs_norm if obs_norm > 0 else 1.0) \
        if cfg.alpha0 == "auto" else float(cfg.alpha0)
    threshold = cfg.tol * obs_norm if obs_norm > 0 else cfg.tol

    d = cfg.d
    u = np.eye(m, d)
    v = np.zeros((n, d))
    # Factors of the product that P equals off Omega; the rank adjustment
    # truncates U and V but not these.
    u_prev, v_prev = u, v
    z = data.copy()
    y = np.zeros_like(data)
    low = np.zeros_like(data)      # U_prev V_prev^T on Omega
    e = np.zeros((m, n))           # P - U_prev V_prev^T, written on Omega only
    product = np.empty((m, n))     # U V^T
    adjusted = False
    trace = []
    termination = "max_iter_reached"

    for k in range(1, cfg.max_iter + 1):
        _scatter(e, flat, z + y / alpha - low)
        u = orthonormal_factor(u_prev @ (v_prev.T @ v) + e @ v, u, u_scheme)
        v = svt(v_prev @ (u_prev.T @ u) + e.T @ u, lam / alpha)
        np.matmul(u, v.T, out=product)
        low = product.reshape(-1)[flat]
        z = update(data, low, y, alpha)
        gap = z - low
        y = y + alpha * gap
        residual = float(np.linalg.norm(gap))
        objective = data_term(data, z, low) + lam * nuclear_norm(v)
        trace.append(IterationRecord(k, residual, objective, alpha, d))
        if iter_callback is not None:
            if sparse is None:
                split = _scatter(product.copy(), flat, z)
            else:   # off Omega D = 0 and Z = U V^T, so S = -U V^T there
                split = _scatter(sparse(0.0, product), flat, sparse(data, z))
            iter_callback(k, u, v, split, _scatter(np.zeros((m, n)), flat, y))
        if residual < threshold or (
                stop is not None and stop(u, v, u_prev, v_prev)):
            termination = "converged"
            break
        alpha = min(cfg.rho * alpha, cfg.alpha_max)
        u_prev, v_prev = u, v
        if cfg.adjust_rank and not adjusted and k >= RANK_ADJUST_START and d >= 2:
            new_d = adjust_rank_once(v, d)
            if new_d != d:
                basis = _rank_truncation_basis(v, new_d)
                v = v @ basis
                u = u @ basis
                d = new_d
                adjusted = True

    s = np.zeros((m, n))
    if sparse is not None:
        _scatter(s, flat, sparse(data, z))
    return SolveResult(u=u, v=v, s=s, y=_scatter(np.zeros((m, n)), flat, y),
                       trace=trace, termination=termination)


def solve_rmc(d_obs, mask, cfg, u_scheme="qr", iter_callback=None):
    """Robust matrix completion: sparse errors plus trace-norm factor penalty.

    ``d_obs`` is the observed data; entries off the mask are ignored.
    ``u_scheme`` selects the QR or the SVD (polar) factor update; the two
    produce identical products. ``iter_callback(k, u, v, s, y)`` is invoked
    after each iteration's dual update, for diagnostics, with S and Y as
    m x n matrices: off the mask S is the exact fill-in -U V^T and Y is zero.
    The returned S is zero off the mask.
    """
    def update(data, low, y, alpha):
        return data - soft_threshold(data - low + y / alpha, 1.0 / alpha)

    def l1_norm(data, z, low):
        return float(np.abs(data - z).sum())

    return _admm(d_obs, mask, cfg, update, l1_norm,
                 sparse=lambda data, z: data - z,
                 u_scheme=u_scheme, iter_callback=iter_callback)


def solve_rpca(d_obs, cfg, u_scheme="qr", iter_callback=None):
    """RPCA: the fully observed special case of robust matrix completion."""
    d_obs = check_matrix(d_obs, "observed data")
    full = ObservationMask.full(*d_obs.shape)
    return solve_rmc(d_obs, full, cfg, u_scheme=u_scheme, iter_callback=iter_callback)


def solve_mc(d_obs, mask, cfg, iter_callback=None):
    """Matrix completion without a sparse term: least-squares data fit plus
    trace-norm factor penalty, split via an auxiliary full matrix constrained
    to equal the factor product.

    The auxiliary matrix has a closed-form update: a convex blend of data and
    product on observed entries, the product minus the scaled multiplier off
    them. Stops on small relative change of the product or near-exact
    feasibility of the auxiliary constraint. ``iter_callback(k, u, v, aux,
    y)`` receives the auxiliary matrix in place of a sparse part.
    """
    def update(data, low, y, alpha):
        return (data + alpha * low - y) / (1.0 + alpha)

    def squared_error(data, z, low):
        return 0.5 * float(np.sum((data - low) ** 2))

    def small_change(u, v, u_prev, v_prev):
        base = float(np.linalg.norm(v_prev))   # ||U_prev V_prev^T||_F
        return base > 0 and _product_change(u, v, u_prev, v_prev) < cfg.tol * base

    return _admm(d_obs, mask, cfg, update, squared_error, stop=small_change,
                 iter_callback=iter_callback)
