"""ADMM solvers for robust matrix completion, RPCA, and plain matrix completion.

One driver runs both completion solvers. Each iteration updates the
orthonormal factor by a thin QR of the current target times the right factor,
thresholds the singular values of the small factor-side matrix, then takes
one closed-form step on the observed entries Omega: the solver's split
variable, the dual ascent step and the data term of the objective together.
The penalty follows a geometric schedule. A once-only rank-shrinking
heuristic watches the eigenvalue quotients of V^T V for a dominant spectral
jump.

For robust completion, with W = D - L + Y / alpha on Omega, the step is that
of scaled-form ADMM (Boyd et al., "Distributed Optimization and Statistical
Learning via the Alternating Direction Method of Multipliers", 2011,
section 3.1.1) in closed form: with C = clip(W, -1/alpha, 1/alpha), the
sparse part is S = W - C (W soft-thresholded by 1/alpha) and the new
multiplier is Y = alpha C, so |Y| <= 1 on Omega and Y = sign(S) wherever
S is nonzero. The nuclear norm in the objective is the sum of the singular
values that ``svt`` returns; no second SVD is taken.

Off Omega the multiplier stays zero and the target P equals the previous
product U V^T, so P differs from that product only on Omega. The two products
with P are therefore a rank-d term plus a product with a matrix E that is
zero off Omega (the sparse-plus-low-rank products of Mazumder, Hastie and
Tibshirani's Soft-Impute), and L = U V^T is needed only on Omega. One object,
``_OmegaMatrix``, holds E and evaluates L on Omega by row blocks, one GEMM per
block into one small reused buffer. Its constructor picks E's layout. Below
an observed fraction |Omega| / mn of SPARSE_DENSITY, E is a CSR array whose
values are the Omega vector itself: its two products cost O(|Omega| d), and
the loop allocates no m x n array. Above the cut, E is a dense m x n buffer,
the loop's one m x n array, and its products are GEMMs of width d. The rest
is O(|Omega|) elementwise work on vectors held in buffers allocated once,
and no vector of length |Omega| is allocated in the loop. The dense sparse
part and multiplier are formed for the result, and for ``iter_callback`` only
when its ``Iterate`` view is read; a callback that reads neither leaves the
run bit-identical to one without a callback.

Every solve opens with V = 0, and V stays zero until the threshold
lambda / alpha falls below the top singular value of E^T U. Robust completion
therefore starts the penalty near where that warm-up ends: its "auto" alpha0
is 0.5 lambda / ||D on Omega||_2 (``SolverConfig.resolve_alpha0``), so the
first threshold is 2 ||D on Omega||_2, just above every singular value of
E^T U. Plain completion keeps alpha0 = 1 / ||D on Omega||_F. While V = 0,
P V and L are zero, so the factor update, its two products and the
evaluation of L are skipped, and U stays the start factor np.eye(m, d), so
E^T U is the first d rows of E, transposed, scattered from the Omega entries
of those rows, and E is formed on those entries alone.
Such an iteration costs O(|Omega|) elementwise work plus the SVD of an n x d
matrix, with the same result bit for bit.
"""

import math

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import svds

# perfbench/tracing.py patches these names in this module, mask_project,
# soft_threshold, svd_thin and nuclear_norm included, so they stay importable
# from it; the solvers do not call those four.
from .config import Iterate, IterationRecord, SolveResult
from .linalg import check_matrix, qr_thin, svd_thin  # noqa: F401
from .measurements import ObservationMask, mask_project  # noqa: F401
from .prox import soft_threshold, svt  # noqa: F401

# Below this observed fraction |Omega| / mn the two products with the
# Omega-supported matrix E are taken in CSR form; above it dense BLAS on an
# m x n buffer is faster. One BLAS thread, d = 10-20, 500^2-1000^2: the CSR
# and dense products of E cost the same at 0.2-0.35.
SPARSE_DENSITY = 0.25

# U V^T is evaluated on Omega by blocks of rows whose product holds about
# this many entries, so the reused block buffer (512 KiB) stays in L2.
# One BLAS thread, d = 10, shortest of repeated runs: L on Omega at
# 1000 x 500, 4.5% observed, took 0.45 ms in blocks of 2^16 entries, 0.51 ms
# in blocks of 2^15 and 0.59 ms as one GEMM; at 10000 x 5000, 1%, blocks of
# 2^16 took 42 ms and of 2^15 (6 rows each) 58 ms. At 500^2, 70%, d = 20 the
# blocks took 0.65 ms, one GEMM into a second m x n buffer 0.62 ms.
BLOCK_ENTRIES = 2**16

# The once-only rank adjustment is first evaluated at this iteration.
RANK_ADJUST_START = 3

# A spectral jump must dominate the mean quotient by this factor to fire.
RANK_ADJUST_GAP = 10.0


def nuclear_norm(a):
    return float(np.linalg.svd(a, compute_uv=False).sum())


def orthonormal_factor(p_times_v, scheme):
    """A new orthonormal basis from the m x d product target P V: the Q of
    its thin QR (scheme "qr") or its polar factor W Z^T, from its thin SVD
    W Sigma Z^T (scheme "svd"). The products with the next thresholded right
    factor are identical while P V has rank d; below it each scheme completes
    the basis with trailing columns of its own."""
    if scheme == "qr":
        return qr_thin(p_times_v).q
    w, _, z_t = np.linalg.svd(p_times_v, full_matrices=False)
    return w @ z_t


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


class _OmegaMatrix:
    """E, an m x n matrix that is zero off Omega and rewritten on Omega each
    iteration, and the evaluation of L = U V^T on Omega. The constructor
    alone picks E's layout, as the module docstring describes, and allocates
    every buffer the methods write, so none allocates a vector of length
    |Omega| or an m x n array.

    U V^T is evaluated by blocks of rows, one GEMM per block that holds Omega
    entries, into one buffer of about BLOCK_ENTRIES entries; the block bounds
    in Omega and the block-local indices are computed here, in O(|Omega|)
    memory.
    """

    def __init__(self, mask):
        m, n = mask.shape
        flat = self._flat = mask.flat_indices
        # flat is row-major, so it lists Omega in CSR order
        indptr = self._indptr = np.searchsorted(flat,
                                                np.arange(0, m * n + 1, n))
        rows = max(1, BLOCK_ENTRIES // n)
        starts = np.arange(0, m, rows)
        bounds = indptr[np.append(starts, m)]   # each block's span of Omega
        # flat index minus the flat index of its block's first entry
        local = flat - np.repeat(starts * n, np.diff(bounds))
        buffer = np.empty((min(rows, m), n))
        # (rows, Omega span, block-local indices, buffer view, the bound take
        # of its flat view) of each block that holds Omega entries
        self._blocks = [
            (slice(r0, r1), slice(lo, hi), local[lo:hi], buffer[:r1 - r0],
             buffer[:r1 - r0].reshape(-1).take)
            for r0, r1, lo, hi in zip(
                starts.tolist(), np.minimum(starts + rows, m).tolist(),
                bounds[:-1].tolist(), bounds[1:].tolist()) if lo < hi]
        if mask.dim < SPARSE_DENSITY * m * n:
            e = csr_array((np.zeros(flat.size), flat % n, indptr), shape=(m, n))
            self._values, self._dense = e.data, None
        else:
            e = np.zeros((m, n))
            self._values, self._dense = np.zeros(flat.size), e.reshape(-1)
        self._e, self._e_t = e, e.T
        if self._dense is None and not np.shares_memory(self._e_t.data, e.data):
            raise RuntimeError("the CSC transpose does not share the CSR values")

    def load(self, gap, scaled):
        """Write E = ``gap`` + ``scaled`` on Omega; return E and E^T."""
        np.add(gap, scaled, out=self._values)
        if self._dense is not None:
            self._dense[self._flat] = self._values
        return self._e, self._e_t

    def start_product(self, gap, scaled, d):
        """E^T np.eye(m, d), with E = ``gap`` + ``scaled`` formed on the Omega
        entries of its first d rows only."""
        head = self._indptr[d]
        np.add(gap[:head], scaled[:head], out=self._values[:head])
        # the flat indices of the first d rows index a d x n matrix
        rows = np.zeros((d, self._e.shape[1]))
        rows.reshape(-1)[self._flat[:head]] = self._values[:head]
        return rows.T

    def low_rank(self, u, v, out):
        """Write U V^T on Omega into ``out``."""
        v_t = v.T
        for block_rows, span, indices, block, take in self._blocks:
            np.matmul(u[block_rows], v_t, out=block)
            # indices in range: mode="clip" lets take write out unbuffered
            take(indices, out=out[span], mode="clip")

    def norm_2(self, data):
        """||D on Omega||_2 for the Omega values ``data``: the Frobenius norm
        of a 1 x n or m x 1 matrix, else ARPACK's from a seeded start vector,
        as ARPACK's own is random and a rerun must be bit-identical."""
        if min(self._e.shape) == 1:
            return float(np.linalg.norm(data))
        start = np.random.default_rng(0).standard_normal(min(self._e.shape))
        return float(svds(self.load(data, 0.0)[0], k=1, v0=start,
                          return_singular_vectors=False)[0])


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


def _admm(d_obs, mask, cfg, step, robust, stop=None, u_scheme="qr",
          iter_callback=None):
    """The ADMM loop shared by ``solve_rmc`` and ``solve_mc``.

    Both split L = U V^T from a target Z held on Omega only: Z = D - S for
    robust completion, the auxiliary matrix for plain completion. Off Omega
    Z equals the product and the multiplier Y is zero, so the residual Z - L
    and the dual step live on Omega too. The Z-update and dual step of each
    solver have one closed form, passed in as

    - ``step(data, low, y, scaled, alpha, gap, work)``: given L on Omega in
      ``low``, Y in ``y`` and ``scaled`` = Y / alpha, overwrite ``y`` with
      the new Y and ``gap`` with the new Z - L on Omega, and return the data
      part of the objective. The step may overwrite ``scaled`` and uses
      ``work`` as scratch space, but when ``robust`` it leaves S on Omega in
      ``work``: it is what the callback and the result report. Otherwise the
      callback's ``Iterate.s`` is the auxiliary matrix Z = L + (Z - L) in
      place of S, and S is zero;
    - ``stop(u, v, u_prev, v_prev)``: a stopping test besides the residual,
      returning the ratio it compares with ``tol`` (None where it compares
      none) and whether the test holds. Without it, the residual over
      ||D on Omega||_F is the ratio recorded as ``stop_ratio``.

    The next iteration's E = P - L on Omega is (Z - L) + Y / alpha, which
    ``_OmegaMatrix.load`` writes from ``gap``. While V = 0 (``rank``, the
    size of ``svt``'s shrunk values, is 0) the factor update and the
    evaluation of L are skipped, and while U is also the start factor
    ``start_product`` reads E^T U off the Omega entries of E's first d rows,
    the only entries of E formed then: such an iteration costs O(|Omega|)
    and one n x d SVD, not O(|Omega| d) or mn d products. Every buffer is
    allocated once, so an iteration allocates no vector of length |Omega|;
    its one SVD is inside ``svt``, whose shrunk values give V's nuclear norm.
    ``iter_callback`` receives an ``Iterate`` view over these buffers, which
    forms the m x n S and Y only when read.
    """
    data = mask.forward(d_obs)
    m, n = mask.shape
    if mask.dim == 0:
        raise ValueError("observation mask is empty")
    cfg.check_rank_bound(m, n)

    lam = cfg.resolve_lambda(m, n)
    obs_norm = float(np.linalg.norm(data))
    threshold = cfg.tol * obs_norm if obs_norm > 0 else cfg.tol

    d = cfg.d
    u = start = np.eye(m, d)
    v = np.zeros((n, d))
    rank = 0                       # of V
    # Factors of the product that P equals off Omega; the rank adjustment
    # truncates U and V but not these.
    u_prev, v_prev = u, v
    # E = P - U_prev V_prev^T, zero off Omega
    omega = _OmegaMatrix(mask)
    alpha = cfg.resolve_alpha0(
        obs_norm, lam, (lambda: omega.norm_2(data)) if robust else None)
    y = np.zeros_like(data)
    low = np.zeros_like(data)      # U_prev V_prev^T on Omega
    gap = data.copy()              # Z - U_prev V_prev^T on Omega; Z starts at D
    scaled = np.empty_like(data)   # Y / alpha
    work = np.zeros_like(data)     # S on Omega after a robust step

    def dense_split(it):
        # off Omega Z = U V^T, and for robust completion D = 0 and S = -U V^T
        split = it.u @ it.v.T
        if robust:
            np.negative(split, out=split)
        split.reshape(-1)[mask.flat_indices] = work if robust else low + gap
        return split

    forms = {"s": dense_split, "y": lambda it: mask.adjoint(y),
             "support": lambda it: int(np.count_nonzero(work)) if robust else 0}
    adjusted = False
    trace = []
    termination = "max_iter_reached"

    for k in range(1, cfg.max_iter + 1):
        np.divide(y, alpha, out=scaled)
        # While V = 0, P V = 0 and the factor update is skipped, so U stays
        # the start factor and E^T U needs E on the first d rows only.
        if rank or u is not start:
            e, e_t = omega.load(gap, scaled)
            if rank:
                u = orthonormal_factor(u_prev @ (v_prev.T @ v) + e @ v,
                                       u_scheme)
            e_t_u = e_t @ u
        else:
            e_t_u = omega.start_product(gap, scaled, d)
        v, shrunk = svt(v_prev @ (u_prev.T @ u) + e_t_u, lam / alpha)
        rank = shrunk.size
        if rank:
            omega.low_rank(u, v, low)
        else:
            low.fill(0.0)
        data_term = step(data, low, y, scaled, alpha, gap, work)
        residual = float(np.linalg.norm(gap))
        objective = data_term + lam * float(shrunk.sum())
        if stop is None:
            ratio, done = residual / (obs_norm or 1.0), False
        else:
            ratio, done = stop(u, v, u_prev, v_prev)
        trace.append(IterationRecord(k, residual, objective, alpha, d,
                                     stop_ratio=ratio, rank=rank))
        if iter_callback is not None:
            Iterate(trace[-1], u, v, forms).pass_to(iter_callback)
        if residual < threshold or done:
            termination = "converged"
            break
        alpha = min(cfg.rho * alpha, cfg.alpha_max)
        u_prev, v_prev = u, v
        # not after the last iteration: the result is the iterate last recorded
        if cfg.adjust_rank and not adjusted and \
                RANK_ADJUST_START <= k < cfg.max_iter:
            new_d = adjust_rank_once(v, d)
            if new_d != d:
                basis = _rank_truncation_basis(v, new_d)
                v = v @ basis
                u = u @ basis
                d = new_d
                adjusted = True

    s = mask.adjoint(work) if robust else np.zeros((m, n))
    return SolveResult(u=u, v=v, s=s, y=mask.adjoint(y),
                       trace=trace, termination=termination)


def solve_rmc(d_obs, mask, cfg, u_scheme="qr", iter_callback=None):
    """Robust matrix completion: sparse errors plus trace-norm factor penalty.

    ``d_obs`` is the observed data; entries off the mask are ignored.
    ``u_scheme`` selects the QR ("qr") or the polar ("svd") factor update,
    as ``orthonormal_factor`` describes. ``iter_callback(it)`` is invoked
    after each iteration's dual update, for diagnostics, with an ``Iterate``
    view whose S and Y are m x n matrices, formed only when read: off the
    mask S is the exact fill-in -U V^T and Y is zero. The returned S is zero
    off the mask.
    """
    def step(data, low, y, scaled, alpha, gap, work):
        # W = D - L + Y/alpha and C = clip(W, +-1/alpha): S = W - C is the
        # soft-thresholded W, Z - L = D - S - L = C - Y/alpha and the new
        # multiplier Y + alpha (Z - L) = alpha C, so |Y| <= 1.
        tau = 1.0 / alpha
        np.subtract(data, low, out=work)
        work += scaled
        np.clip(work, -tau, tau, out=gap)
        work -= gap
        np.multiply(gap, alpha, out=y)
        gap -= scaled
        return float(np.abs(work, out=scaled).sum())   # ||S||_1

    if u_scheme not in ("qr", "svd"):
        raise ValueError(f"unknown factor update scheme {u_scheme!r}")
    return _admm(d_obs, mask, cfg, step, robust=True, u_scheme=u_scheme,
                 iter_callback=iter_callback)


def solve_rpca(d_obs, cfg, iter_callback=None):
    """RPCA: the fully observed special case of robust matrix completion."""
    d_obs = check_matrix(d_obs, "observed data")
    full = ObservationMask.full(*d_obs.shape)
    return solve_rmc(d_obs, full, cfg, iter_callback=iter_callback)


def solve_mc(d_obs, mask, cfg, iter_callback=None):
    """Matrix completion without a sparse term: least-squares data fit plus
    trace-norm factor penalty, split via an auxiliary full matrix constrained
    to equal the factor product.

    The auxiliary matrix has a closed-form update: a convex blend of data and
    product on observed entries, the product minus the scaled multiplier off
    them. Stops on small relative change of the product or near-exact
    feasibility of the auxiliary constraint. ``iter_callback(it)`` receives
    an ``Iterate`` view whose ``s`` is the auxiliary matrix in place of a
    sparse part.
    """
    def step(data, low, y, scaled, alpha, gap, work):
        # On Omega Z = (D + alpha L - Y) / (1 + alpha), so
        # Z - L = (D - L - Y) / (1 + alpha).
        np.subtract(data, low, out=work)
        fit = 0.5 * float(np.dot(work, work))   # ||D - L||^2 / 2 on Omega
        work -= y
        np.divide(work, 1.0 + alpha, out=gap)
        np.multiply(gap, alpha, out=work)
        y += work
        return fit

    def small_change(u, v, u_prev, v_prev):
        base = float(np.linalg.norm(v_prev))   # ||U_prev V_prev^T||_F
        if not base > 0:
            return None, False
        change = _product_change(u, v, u_prev, v_prev)
        return change / base, change < cfg.tol * base

    return _admm(d_obs, mask, cfg, step, robust=False, stop=small_change,
                 iter_callback=iter_callback)
