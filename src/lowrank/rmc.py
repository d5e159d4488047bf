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
with P are therefore a rank-d term plus a product with a matrix E that is
zero off Omega (the sparse-plus-low-rank products of Mazumder, Hastie and
Tibshirani's Soft-Impute). Below an observed fraction |Omega| / mn of
SPARSE_DENSITY, E is a CSR array whose values are the Omega vector itself:
its two products cost O(|Omega| d). L = U V^T is then needed only on Omega,
and is evaluated block by block: one GEMM per block of rows that holds
Omega entries, into one small reused buffer, from which the block's Omega
entries are taken. No m x n array is allocated in the loop. Above the cut,
E is a dense m x n buffer and an iteration costs three m x n GEMMs of width
d (E V, E^T U and U V^T into a second buffer, read on Omega). Either way
the rest is O(|Omega|) elementwise work on vectors held in buffers
allocated once; the dense product, sparse part and multiplier are formed
only for ``iter_callback`` and for the result.
"""

import math

import numpy as np
from scipy.sparse import csr_array

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

# Below this observed fraction |Omega| / mn the two products with the
# Omega-supported matrix E are taken in CSR form and U V^T is evaluated on
# Omega by row blocks; above it dense BLAS on m x n buffers is faster. One
# BLAS thread, d = 10-20, 500^2-1000^2: the CSR and dense products of E cost
# the same at 0.2-0.35, and at 500^2, 70% observed, d = 20 one full GEMM of
# U V^T plus the take beats the blocks (0.62 ms against 0.65 ms).
SPARSE_DENSITY = 0.25

# On the CSR path U V^T is evaluated by blocks of rows whose product holds
# about this many entries, so the reused block buffer (512 KiB) stays in L2.
# One BLAS thread, d = 10, shortest of repeated runs: L on Omega at
# 1000 x 500, 4.5% observed, took 0.45 ms in blocks of 2^16 entries, 0.51 ms
# in blocks of 2^15 and 0.59 ms as one GEMM; at 10000 x 5000, 1%, blocks of
# 2^16 took 42 ms and of 2^15 (6 rows each) 58 ms.
BLOCK_ENTRIES = 2**16

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
    quotient sequence formed, and the working rank cut at the largest
    quotient when it dominates the mean of the others by RANK_ADJUST_GAP.
    The test runs only while V keeps all d directions. A zero tail left by
    the thresholded factor update marks the current numerical rank, not the
    spectral jump this heuristic looks for, and the quotients left without
    it are too few to judge: under the automatic penalty V keeps two
    directions at the first check, and their single quotient, with no rest
    to dominate, would cut the rank to 1. For the same reason d must be at
    least 3.
    """
    if current_d < 3:
        return current_d
    eigvals = np.linalg.eigvalsh(v.T @ v)[::-1]
    if eigvals[-1] <= eigvals[0] * 1e-12:
        return current_d
    quotients = eigvals[:-1] / eigvals[1:]
    r_hat = int(np.argmax(quotients))
    others = quotients.sum() - quotients[r_hat]
    gap = (current_d - 1) * quotients[r_hat] / others
    if gap >= RANK_ADJUST_GAP:
        return r_hat + 1
    return current_d


def _rank_truncation_basis(v, new_d):
    """Orthonormal d x new_d basis of the top eigendirections of V^T V."""
    eigvals, eigvecs = np.linalg.eigh(v.T @ v)
    order = np.argsort(eigvals)[::-1]
    return eigvecs[:, order[:new_d]]


def _omega_matrix(mask, csr):
    """An m x n matrix E that is zero off Omega, kept with its Omega values,
    and the evaluation of L = U V^T on Omega.

    Returns ``(values, load, low_rank)``: the caller writes E on Omega, in the
    mask's row-major order, into ``values``, and ``load()`` returns E and E^T
    ready for products. ``low_rank(u, v, out, product=None)`` writes U V^T on
    Omega into ``out``; given an m x n ``product``, it writes all of U V^T
    there too.

    With ``csr``, E is a CSR array whose ``data`` is ``values`` and E^T a CSC
    view of the same array, so loading is free and each product costs
    O(|Omega| d). U V^T is evaluated by blocks of rows, one GEMM per block
    that holds Omega entries, into one buffer of about BLOCK_ENTRIES entries;
    the block bounds in Omega and the block-local indices are computed here,
    in O(|Omega|) memory. Otherwise E is a dense m x n buffer, zeroed once,
    that ``load`` writes at Omega, each product is a dense GEMM, and U V^T is
    one GEMM into a second m x n buffer.
    """
    m, n = mask.shape
    flat = mask.flat_indices
    if csr:
        # flat is row-major, so it lists Omega in CSR order
        indptr = np.searchsorted(flat, np.arange(0, m * n + 1, n))
        e = csr_array((np.zeros(flat.size), flat % n, indptr), shape=(m, n))
        e_t = e.T
        if not np.shares_memory(e_t.data, e.data):
            raise RuntimeError("the CSC transpose does not share the CSR values")
        rows = max(1, BLOCK_ENTRIES // n)
        starts = np.arange(0, m, rows)
        bounds = indptr[np.append(starts, m)]   # each block's span of Omega
        # flat index minus the flat index of its block's first entry
        local = flat - np.repeat(starts * n, np.diff(bounds))
        buffer = np.empty((min(rows, m), n))
        # (rows, Omega span, block-local indices, buffer view) of each block
        blocks = [(slice(r0, r1), slice(lo, hi), local[lo:hi], buffer[:r1 - r0])
                  for r0, r1, lo, hi in zip(
                      starts.tolist(), np.minimum(starts + rows, m).tolist(),
                      bounds[:-1].tolist(), bounds[1:].tolist())]

        def low_rank(u, v, out, product=None):
            for block_rows, span, indices, block in blocks:
                if product is not None:
                    block = product[block_rows]
                elif span.start == span.stop:
                    continue
                np.matmul(u[block_rows], v.T, out=block)
                # indices in range: mode="clip" lets take write out unbuffered
                np.take(block.reshape(-1), indices, out=out[span], mode="clip")

        return e.data, lambda: (e, e_t), low_rank

    e = np.zeros((m, n))
    values = np.zeros(flat.size)
    buffer = np.empty((m, n))

    def load():
        e.reshape(-1)[flat] = values
        return e, e.T

    def low_rank(u, v, out, product=None):
        product = buffer if product is None else product
        np.matmul(u, v.T, out=product)
        np.take(product.reshape(-1), flat, out=out, mode="clip")

    return values, load, low_rank


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

    - ``update(data, low, y, scaled, alpha, out)``: write the new Z on Omega
      into ``out``, given L on Omega, Y and ``scaled`` = Y / alpha;
    - ``data_term(data, z, low, work)``: the data part of the objective,
      with ``work`` as scratch space;
    - ``sparse(data, z)``: the sparse part S = D - Z, or None when the solver
      has none; the callback then receives the auxiliary matrix Z instead;
    - ``stop(u, v, u_prev, v_prev)``: a stopping test besides the residual.

    The Omega vectors live in buffers allocated once, so without
    ``iter_callback`` an iteration allocates none of length |Omega| outside
    ``soft_threshold``.
    """
    cfg.validate()
    data = mask.forward(d_obs)
    m, n = mask.shape
    if mask.dim == 0:
        raise ValueError("observation mask is empty")
    if cfg.d > min(m, n):
        raise ValueError(f"rank bound d={cfg.d} exceeds min(m, n)={min(m, n)}")

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
    # E = P - U_prev V_prev^T is zero off Omega; ``values`` holds it on Omega
    values, load, low_rank = _omega_matrix(mask,
                                           mask.dim < SPARSE_DENSITY * m * n)
    z = data.copy()
    y = np.zeros_like(data)
    low = np.zeros_like(data)      # U_prev V_prev^T on Omega
    scaled = np.empty_like(data)   # Y / alpha
    gap = np.empty_like(data)      # Z - U V^T on Omega
    work = np.empty_like(data)
    adjusted = False
    trace = []
    termination = "max_iter_reached"

    for k in range(1, cfg.max_iter + 1):
        np.divide(y, alpha, out=scaled)
        np.add(z, scaled, out=values)
        values -= low
        e, e_t = load()
        u = orthonormal_factor(u_prev @ (v_prev.T @ v) + e @ v, u, u_scheme)
        v = svt(v_prev @ (u_prev.T @ u) + e_t @ u, lam / alpha)
        # the dense U V^T, formed only for the callback, which keeps it
        product = None if iter_callback is None else np.empty((m, n))
        low_rank(u, v, low, product)
        update(data, low, y, scaled, alpha, z)
        np.subtract(z, low, out=gap)
        np.multiply(gap, alpha, out=work)
        y += work
        residual = float(np.linalg.norm(gap))
        objective = data_term(data, z, low, work) + lam * nuclear_norm(v)
        trace.append(IterationRecord(k, residual, objective, alpha, d))
        if iter_callback is not None:
            if sparse is None:
                split, on_omega = product, z
            else:   # off Omega D = 0 and Z = U V^T, so S = -U V^T there
                split = np.subtract(0.0, product, out=product)
                on_omega = sparse(data, z)
            split.reshape(-1)[mask.flat_indices] = on_omega
            iter_callback(k, u, v, split, mask.adjoint(y))
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

    s = np.zeros((m, n)) if sparse is None else mask.adjoint(sparse(data, z))
    return SolveResult(u=u, v=v, s=s, y=mask.adjoint(y),
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
    def update(data, low, y, scaled, alpha, out):
        np.subtract(data, low, out=out)
        out += scaled
        np.subtract(data, soft_threshold(out, 1.0 / alpha), out=out)

    def l1_norm(data, z, low, work):
        np.subtract(data, z, out=work)
        return float(np.abs(work, out=work).sum())

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
    def update(data, low, y, scaled, alpha, out):
        np.multiply(low, alpha, out=out)
        out += data
        out -= y
        out /= 1.0 + alpha

    def squared_error(data, z, low, work):
        np.subtract(data, low, out=work)
        return 0.5 * float(np.square(work, out=work).sum())

    def small_change(u, v, u_prev, v_prev):
        base = float(np.linalg.norm(v_prev))   # ||U_prev V_prev^T||_F
        return base > 0 and _product_change(u, v, u_prev, v_prev) < cfg.tol * base

    return _admm(d_obs, mask, cfg, update, squared_error, stop=small_change,
                 iter_callback=iter_callback)
