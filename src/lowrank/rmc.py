"""ADMM solvers for robust matrix completion, RPCA, and plain matrix completion.

One driver runs both completion solvers. Each iteration updates the
orthonormal factor by a thin QR of the current target times the right factor,
thresholds the singular values of the small factor-side matrix, then takes
one closed-form step on the observed entries Omega: the solver's split
variable, the dual ascent step and the data term of the objective together.
The penalty follows a geometric schedule. A once-only rank-shrinking
heuristic watches the eigenvalue quotients of V^T V for a dominant spectral
jump.

The step is that of scaled-form ADMM (Boyd et al., "Distributed
Optimization and Statistical Learning via the Alternating Direction Method
of Multipliers", 2011, sections 3.1.1 and 3.4.1): the loop carries the
scaled multiplier C = Y / alpha, never Y, and rescales it by
kappa = alpha_prev / alpha when the penalty grows. With
W = D - L + kappa C_prev on Omega, robust completion's step is
C = clip(W, -1/alpha, 1/alpha), and the sparse part is S = W - C (W
soft-thresholded by 1/alpha). So Y = alpha C has |Y| <= 1 on Omega and
Y = sign(S) wherever S is nonzero, and ||S||_1 = <Y, S>. Plain completion's
step is C = W / (1 + alpha), and it leaves Y = D - Z on Omega, that is
Z = D - alpha C, after every step. Unrelaxed, Z - L = C - kappa C_prev for
both. Y itself is formed only for the result and for a callback that reads
it. The nuclear norm in the objective is the sum of the singular values
that ``svt`` returns; no second SVD is taken.

From iteration 2 on, the first whose Z_prev came from a step, both steps
are over-relaxed (Boyd et al., section 3.4.3; Eckstein and Bertsekas, "On
the Douglas-Rachford Splitting Method and the Proximal Point Algorithm for
Maximal Monotone Operators", Math. Programming 1992): the Z-update and the
dual step take L^ = gamma L + (1 - gamma) Z_prev in place of L on Omega,
with gamma = RELAXATION. For robust completion Z_prev = D - S_prev there,
so W = gamma (D - L) + (1 - gamma) S_prev + kappa C_prev, and C and S are
clip(W, -1/alpha, 1/alpha) and W - C as before, so the conditions on Y
above still hold. For plain completion Z_prev = D - kappa alpha C_prev, so
W = gamma (D - L) + kappa (1 + (1 - gamma) alpha) C_prev with no Z kept,
and C = W / (1 + alpha) as before; one body of six elementwise passes and
one dot product serves every gamma. The residual, Z - L = D - L - S or
D - L - alpha C, is measured from L, not from L^, so ||Z - L|| is still
the residual and the next E is still (Z - L) + kappa_next C. Off Omega
Z = L is kept, so P still equals the previous product there. The factor
updates, the penalty schedule and the stop test are those of the
unrelaxed scheme. The source paper's convergence analysis covers only that
scheme, gamma = 1, which iteration 1 runs.

Off Omega the multiplier stays zero and the target P equals the previous
product U V^T, so P differs from that product only on Omega. The two products
with P are therefore a rank-d term plus a product with a matrix E that is
zero off Omega (the sparse-plus-low-rank products of Mazumder, Hastie and
Tibshirani's Soft-Impute), and L = U V^T is needed only on Omega. One object,
``_OmegaMatrix``, holds E and evaluates L on Omega by row blocks, one GEMM per
block into one small reused buffer. L is evaluated from ``svt``'s kept
factors, V = W_k Z_k^T with W_k scaled by the shrunk values, as
(U Z_k) W_k^T: the GEMMs run at inner size k, the rank of V, not d. The
step writes Z - L into E's Omega values, and once alpha grows one BLAS
daxpy adds kappa C there, which gives the next E = (Z - L) + Y / alpha in
place. Its constructor picks E's layout. Below
an observed fraction |Omega| / mn of SPARSE_DENSITY, E is a CSR array whose
values are the Omega vector itself: its two products cost O(|Omega| d), and
the loop allocates no m x n array. Above the cut, E is a dense m x n buffer,
the loop's one m x n array, and its products are GEMMs of width d. The rest
is O(|Omega|) elementwise work on vectors held in buffers allocated once:
per iteration, passes that each write one such vector, nine for robust
completion (eight in its unrelaxed first iteration) and eight for plain
completion, and two reductions. The step's passes and its reduction run
span by span, over contiguous spans of Omega of at most
STEP_ENTRIES entries, so that the slices it streams stay in L2 between its
passes; the step is elementwise, so the spans change only the rounding of
its data term. L on Omega, the
residual and the update of E run over whole vectors. No vector of length
|Omega| is allocated in the loop. The dense sparse part and multiplier are
formed for the result, and for ``iter_callback`` only when its ``Iterate``
view is read; a callback that reads neither leaves the run bit-identical
to one without a callback.

Every solve opens with V = 0 and U the randomized range finder's basis of
D on Omega (Halko, Martinsson and Tropp, "Finding Structure with
Randomness", SIAM Review 2011): the Q of the thin QR of E_0 G, where E_0 is
D on Omega and G a seeded n x d Gaussian. This U sees every row of D: d
fixed coordinate vectors see d rows only, and on a tall D the sparse part
absorbs D before V turns nonzero. V stays zero until the
threshold lambda / alpha falls below the top singular value of E^T U.
Robust completion therefore starts the penalty near where that warm-up ends:
its "auto" alpha0 is 0.5 lambda / ||D on Omega||_2
(``SolverConfig.resolve_alpha0``), so the first threshold is
2 ||D on Omega||_2, just above every singular value of E^T U. Plain
completion keeps alpha0 = 1 / ||D on Omega||_F. While V = 0, P V and L are
zero, so the factor update and the evaluation of L are skipped.
"""

import math
from functools import partial

import numpy as np
from scipy.linalg.blas import daxpy
from scipy.sparse import csr_array

# perfbench/tracing.py patches these names in this module, mask_project,
# soft_threshold, svd_thin and nuclear_norm included, so they stay importable
# from it; the solvers do not call those four.
from .config import Iterate, IterationRecord, SolveResult
from .linalg import check_matrix, norm_2, qr_thin, svd_thin  # noqa: F401
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

# The Omega step runs on contiguous spans of Omega of at most this many
# entries, so that the six span slices it reads and writes (1.5 MiB) stay in
# a 2 MiB L2, where the six whole vectors do not. One thread, best of 200
# calls in 6 interleaved rounds: the robust step on the 2 * 10^5 entries of
# 1000^2, 20% observed, took 0.83 ms on whole vectors and 0.85, 0.70, 0.64,
# 0.62 and 0.60 ms in spans of 2^12, 2^13, 2^14, 2^15 and 2^16 entries.
# Whole solves at that shape (seeds 1-3, median of 5 interleaved rounds)
# took 4.08 ms per iteration on whole vectors, 3.82 in spans of 2^15 and
# 3.75 in spans of 2^16, within the rounds' spread; 2^15 is the largest
# span whose six slices fit in L2.
STEP_ENTRIES = 2**15

# The over-relaxation factor gamma of both completion steps
# (``_robust_step``, ``_mc_step``), applied from iteration 2 on. One BLAS
# thread, median iterations of robust completion at gamma = 1, 1.4, 1.5, 1.6
# and 1.7: at the CLI's 500^2, rank 10, 70% observed, default lambda, d = 20
# (seeds 1-30) 30, 26, 25, 26 and 29; at 1000^2, 20% observed (seeds 1-30)
# 74.5, 71, 70.5, 69 and 69; at 250^2, 20% observed, d = 6 (seeds 100-132)
# 81, 76, 76, 74 and 73, with 5, 3, 3, 3 and 3 seeds above relerr 1e-3.
# Plain completion on perfbench's mc-ratings model (1000 x 500, rank 5, 5%
# observed, lambda = 0.5, d = 10, seeds 3000-3029) at gamma = 1, 1.3, 1.5
# and 1.7: 91, 77, 73 and 69. One value serves both, as 1.7 costs robust
# completion four iterations at the CLI's shape. 1 - gamma = -0.5 also
# scales S_prev exactly.
RELAXATION = 1.5

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
    it are too few to judge. Under the automatic penalty, on criterion 06's
    instances (100^2, rank 5, d = 6 and 10), V holds one to four directions
    at the first check and never more than the planted rank, so the test
    never runs there; a V of two directions would leave a single quotient,
    which with no rest to dominate would cut the rank to 1. For the same
    reason d must be at least 3.
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
    |Omega| or an m x n array. ``values`` is E on Omega, a buffer the caller
    may write between loads: the CSR array's own values, or the vector that
    ``load`` and ``add`` scatter into the dense buffer.

    U V^T is evaluated by blocks of rows, one GEMM per block that holds Omega
    entries, into one buffer of about BLOCK_ENTRIES entries; the block bounds
    in Omega and the block-local indices are computed here, in O(|Omega|)
    memory.
    """

    def __init__(self, mask):
        m, n = mask.shape
        flat = self._flat = mask.flat_indices
        # flat is row-major, so it lists Omega in CSR order
        indptr = np.searchsorted(flat, np.arange(0, m * n + 1, n))
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
            self.values, self._dense = e.data, None
        else:
            e = np.zeros((m, n))
            self.values, self._dense = np.zeros(flat.size), e.reshape(-1)
        self._e, self._e_t = e, e.T
        if self._dense is None and not np.shares_memory(self._e_t.data, e.data):
            raise RuntimeError("the CSC transpose does not share the CSR values")

    def load(self, values):
        """Write E = ``values`` on Omega; return E and E^T."""
        np.copyto(self.values, values)
        return self._scatter()

    def add(self, c, scale):
        """Add ``scale`` * ``c`` to E on Omega, in place by one BLAS daxpy,
        whose bits do not depend on the buffers' alignment; return E and
        E^T."""
        daxpy(c, self.values, a=scale)
        return self._scatter()

    def _scatter(self):
        if self._dense is not None:
            self._dense[self._flat] = self.values
        return self._e, self._e_t

    def low_rank(self, u, v, out):
        """Write U V^T on Omega into ``out``."""
        v_t = v.T
        for block_rows, span, indices, block, take in self._blocks:
            np.matmul(u[block_rows], v_t, out=block)
            # indices in range: mode="clip" lets take write out unbuffered
            take(indices, out=out[span], mode="clip")

    def norm_2(self):
        """||E||_2 of the E last loaded (``linalg.norm_2``)."""
        return norm_2(self._e, self.values)


def _spans(size):
    """Contiguous slices that tile range(size) in order, each at most
    STEP_ENTRIES long."""
    return [slice(lo, min(lo + STEP_ENTRIES, size))
            for lo in range(0, size, STEP_ENTRIES)]


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
          iter_callback=None, relax=1.0):
    """The ADMM loop shared by ``solve_rmc`` and ``solve_mc``.

    Both split L = U V^T from a target Z held on Omega only: Z = D - S for
    robust completion, the auxiliary matrix for plain completion. Off Omega
    Z equals the product and the multiplier Y is zero, so the residual Z - L
    and the dual step live on Omega too. The loop carries C = Y / alpha in
    place of Y. The Z-update and dual step of each solver have one closed
    form, passed in as

    - ``step(data, low, c_prev, kappa, alpha, c, gap, work)``: given L on
      Omega in ``low`` and the last C in ``c_prev``, so that
      Y_prev / alpha = ``kappa`` C_prev with kappa = alpha_prev / alpha,
      write the new C into ``c`` and Z - L on Omega into ``gap``, and return
      the data part of the objective. The step uses ``work`` as scratch
      space, but when ``robust`` it leaves S on Omega in ``work``: it is
      what the callback and the result report.
      Otherwise the callback's ``Iterate.s`` is the auxiliary matrix
      Z = L + (Z - L) in place of S, and S is zero;
    - ``stop(u, v, u_prev, v_prev)``: a stopping test besides the residual,
      returning the ratio it compares with ``tol`` (None where it compares
      none) and the test's name when it holds, else None. Without it, the
      residual over ||D on Omega||_F is the ratio recorded as
      ``stop_ratio``. ``SolveResult.stop_test`` names the test that ended
      the run, the residual's ("residual") where both hold;
    - ``relax``: an over-relaxation factor, passed to ``step`` as its
      ``gamma`` from iteration 2 on, the first whose Z_prev came from a
      step; 1 leaves every step unrelaxed and calls ``step`` without it.
      Robust completion's step reads Z_prev = D - S_prev from the S in
      ``work``. Plain completion's rebuilds it from ``c_prev``, as its
      every step leaves Z = D - alpha C, and forms
      W = gamma (D - L) + kappa (1 + (1 - gamma) alpha) C_prev in six
      elementwise passes and one dot product. Both write Z - L measured
      from L, not from L^, into ``gap``. The source paper's convergence
      analysis covers only relax = 1.

    U starts as the range finder's basis of E_0 = D on Omega, the Q of the
    thin QR of E_0 G for a seeded n x d Gaussian G, and the same load of E_0
    gives ``norm_2`` for robust completion's alpha0. ``gap`` is E's own
    Omega buffer, ``_OmegaMatrix.values``: the next iteration's
    E = P - L on Omega is (Z - L) + Y / alpha_next, which
    ``_OmegaMatrix.add`` forms there in place, as (Z - L) + kappa C with the
    next kappa. The two C buffers swap each iteration. L on Omega is
    evaluated from ``svt``'s factors at inner size ``rank``, the number of
    shrunk values; while V = 0 (``rank`` is 0) the factor update and the
    evaluation of L are skipped. ``step`` is called once per span of
    ``_spans`` on slice views of the Omega vectors, and the data terms it
    returns are summed. Every buffer is allocated once, so an
    iteration allocates no vector of length |Omega|; its one SVD is inside
    ``svt``, whose shrunk values give V's nuclear norm.
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
    # E = P - U_prev V_prev^T, zero off Omega; it starts as D on Omega
    omega = _OmegaMatrix(mask)
    e, e_t = omega.load(data)
    alpha = cfg.resolve_alpha0(obs_norm, lam,
                               omega.norm_2 if robust else None)
    u = qr_thin(e @ np.random.default_rng(0).standard_normal((n, d))).q
    v = np.zeros((n, d))
    rank = 0                       # of V
    # Factors of the product that P equals off Omega; the rank adjustment
    # truncates U and V but not these.
    u_prev, v_prev = u, v
    low = np.zeros_like(data)      # U V^T on Omega
    gap = omega.values             # Z - U V^T on Omega, then the next E
    c = np.zeros_like(data)        # Y / alpha
    c_prev = np.zeros_like(data)   # the last Y / alpha_prev; Y starts at 0
    kappa = 1.0                    # alpha_prev / alpha
    work = np.zeros_like(data)     # S on Omega after a robust step
    spans = _spans(data.size)
    relaxed = step if relax == 1.0 else partial(step, gamma=relax)

    def dense_split(it):
        # off Omega Z = U V^T, and for robust completion D = 0 and S = -U V^T
        split = it.u @ it.v.T
        if robust:
            np.negative(split, out=split)
        split.reshape(-1)[mask.flat_indices] = work if robust else low + gap
        return split

    forms = {"s": dense_split, "y": lambda it: mask.adjoint(alpha * c),
             "support": lambda it: int(np.count_nonzero(work)) if robust else 0}
    adjusted = False
    trace = []
    termination, stop_test = "max_iter_reached", None

    for k in range(1, cfg.max_iter + 1):
        if rank:                   # while V = 0, P V = 0 and U is kept
            u = orthonormal_factor(u_prev @ (v_prev.T @ v) + e @ v, u_scheme)
        v, shrunk, (w_k, z_k_t) = svt(v_prev @ (u_prev.T @ u) + e_t @ u,
                                      lam / alpha)
        rank = shrunk.size
        if rank:                   # L = U V^T = (U Z_k) W_k^T
            omega.low_rank(u @ z_k_t.T, w_k, low)
        else:
            low.fill(0.0)
        step_k = step if k == 1 else relaxed
        data_term = sum(step_k(data[s], low[s], c_prev[s], kappa, alpha,
                               c[s], gap[s], work[s]) for s in spans)
        residual = float(np.linalg.norm(gap))
        objective = data_term + lam * float(shrunk.sum())
        if stop is None:
            ratio, held = residual / (obs_norm or 1.0), None
        else:
            ratio, held = stop(u, v, u_prev, v_prev)
        trace.append(IterationRecord(k, residual, objective, alpha, d,
                                     stop_ratio=ratio, rank=rank))
        if iter_callback is not None:
            Iterate(trace[-1], u, v, forms).pass_to(iter_callback)
        if residual < threshold or held:
            termination = "converged"
            stop_test = "residual" if residual < threshold else held
            break
        # nothing moves after the last iteration: the result is the iterate
        # last recorded, with Y = alpha C
        if k == cfg.max_iter:
            break
        alpha_next = min(cfg.rho * alpha, cfg.alpha_max)
        kappa = alpha / alpha_next
        e, e_t = omega.add(c, kappa)
        alpha = alpha_next
        c, c_prev = c_prev, c
        u_prev, v_prev = u, v
        if cfg.adjust_rank and not adjusted and k >= RANK_ADJUST_START:
            new_d = adjust_rank_once(v, d)
            if new_d != d:
                basis = _rank_truncation_basis(v, new_d)
                v = v @ basis
                u = u @ basis
                d = new_d
                adjusted = True

    s = mask.adjoint(work) if robust else np.zeros((m, n))
    return SolveResult(u=u, v=v, s=s, y=mask.adjoint(alpha * c),
                       trace=trace, termination=termination,
                       stop_test=stop_test)


def _robust_step(data, low, c_prev, kappa, alpha, c, gap, work, gamma=1.0):
    """Robust completion's step on Omega, in ``_admm``'s contract.

    With W = D - L + Y_prev / alpha, C = clip(W, +-1/alpha) is the new
    Y / alpha and S = W - C the soft-thresholded W; Z - L = D - S - L is
    then C - Y_prev / alpha, and the data term ||S||_1 is <Y, S> = alpha
    <C, S>, as Y = sign(S) wherever S is nonzero. Six elementwise passes
    and one dot product.

    With ``gamma`` other than 1 the step is over-relaxed: L is replaced by
    L^ = gamma L + (1 - gamma) Z_prev with Z_prev = D - S_prev, the S that
    ``work`` holds on entry, so W = gamma (D - L) + (1 - gamma) S_prev +
    Y_prev / alpha, and the same clip gives C and S. Z - L = D - L - S is
    measured from L, not from L^, so the residual and the next E keep their
    meaning, and ||S||_1 = alpha <C, S> still holds. Seven elementwise
    passes and one dot product. This is the relaxation of Eckstein and
    Bertsekas (1992); the source paper's convergence analysis covers only
    gamma = 1.
    """
    if gamma == 1.0:
        np.multiply(c_prev, kappa, out=gap)          # Y_prev / alpha
        np.subtract(data, low, out=work)
        work += gap                                  # W
    else:
        np.subtract(data, low, out=gap)              # D - L
        work *= 1.0 - gamma                          # (1 - gamma) S_prev
        daxpy(gap, work, a=gamma)
        daxpy(c_prev, work, a=kappa)                 # W
    np.clip(work, -1.0 / alpha, 1.0 / alpha, out=c)
    work -= c                                        # S
    if gamma == 1.0:
        np.subtract(c, gap, out=gap)                 # C - Y_prev / alpha
    else:
        gap -= work                                  # D - L - S
    return alpha * float(np.dot(work, c))


def _mc_step(data, low, c_prev, kappa, alpha, c, gap, work, gamma=1.0):
    """Plain completion's step on Omega, in ``_admm``'s contract.

    On Omega Z = (D + alpha L^ - Y_prev) / (1 + alpha) and
    Y = Y_prev + alpha (Z - L^), with L^ = gamma L + (1 - gamma) Z_prev, so
    with W = D - L^ + Y_prev / alpha the new Y / alpha is C = W / (1 + alpha),
    and Y = D - Z: Z = D - alpha C on Omega after every step. So Z_prev is
    D - kappa alpha C_prev, rebuilt from ``c_prev`` with no Z kept, and
    W = gamma (D - L) + kappa (1 + (1 - gamma) alpha) C_prev. Z - L =
    D - L - alpha C is measured from L, not from L^, so the residual and the
    next E keep their meaning. The data term is ||D - L||^2 / 2 on Omega.
    Six elementwise passes and one dot product, for every ``gamma``; 1, the
    unrelaxed step, is the only value the source paper's convergence
    analysis covers.
    """
    np.subtract(data, low, out=gap)                  # D - L
    fit = 0.5 * float(np.dot(gap, gap))
    np.multiply(c_prev, kappa * (1.0 + (1.0 - gamma) * alpha) / gamma,
                out=work)
    work += gap                                      # W / gamma
    np.multiply(work, gamma / (1.0 + alpha), out=c)
    np.multiply(c, alpha, out=work)
    gap -= work                                      # D - L - alpha C
    return fit


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
    if u_scheme not in ("qr", "svd"):
        raise ValueError(f"unknown factor update scheme {u_scheme!r}")
    return _admm(d_obs, mask, cfg, _robust_step, robust=True,
                 u_scheme=u_scheme, iter_callback=iter_callback,
                 relax=RELAXATION)


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
    def small_change(u, v, u_prev, v_prev):
        base = float(np.linalg.norm(v_prev))   # ||U_prev V_prev^T||_F
        if not base > 0:
            return None, None
        change = _product_change(u, v, u_prev, v_prev)
        return change / base, ("product_change" if change < cfg.tol * base
                               else None)

    return _admm(d_obs, mask, cfg, _mc_step, robust=False, stop=small_change,
                 iter_callback=iter_callback, relax=RELAXATION)
