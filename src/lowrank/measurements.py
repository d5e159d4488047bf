"""Observation models: entrywise masks and random-subspace linear measurements.

``ObservationMask`` and ``SubspaceOperator`` are linear measurement operators
with four members: ``shape``, the (m, n) of the matrices measured; ``dim``,
the number p of coefficients; ``forward(a)``, an m x n matrix to its p
coefficients, raising ``ValueError`` on another shape or a non-finite
measured entry; and ``adjoint(y)``, p coefficients back to an m x n matrix,
raising ``ValueError`` on another length. Both have orthonormal rows, so
``forward(adjoint(y))`` is ``y`` and ``adjoint(forward(a))`` projects ``a``
onto the measured subspace. A mask's coefficients are its observed entries
in row-major order: ``forward`` gathers them, ``adjoint`` scatters them into
zeros. A subspace's ``forward`` of a matrix with fewer than GATHER_DENSITY
* mn nonzero entries reads only the basis columns of those entries; of any
other matrix, it is the product of the whole basis with the matrix.

Mask files (``save_mask``, re-exported here, and ``load_mask``) are
``textio``'s: its docstring states their format. ``load_mask`` is
``ObservationMask.from_indices`` over the pairs ``textio`` reads.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import textio
from .linalg import check_matrix, qr_thin
from .textio import save_mask  # noqa: F401 (re-exported)

# A drawn basis B is accepted when every entry of B B^T 1 - 1 is at most
# ORTHONORMAL_TOL. One Cholesky QR pass meets it up to p/mn of about 0.9
# (measured at mn = 900); from about 0.95 on, G is ill-conditioned enough to
# need a second pass. The largest entry of |B B^T - I| was at most 2.1x this
# residual in the same measurements; the 2-norm of a random probe's
# residual would understate it by up to 35x.
ORTHONORMAL_TOL = 1e-13
# A Cholesky pivot r_jj^2 at or below PIVOT_FLOOR * ||g_j||^2 means
# kappa(G) >= 1e6: a column that is, or nearly is, a combination of those
# before it, whose pivot may be rounding noise.
PIVOT_FLOOR = 1e-12
# SubspaceOperator.forward of a matrix with fewer than GATHER_DENSITY * mn
# nonzeros multiplies them by the gathered rows of basis^T, not the whole
# basis by the matrix. Best of 300 on a 2-core Xeon, one OpenBLAS thread,
# p = 0.75 mn: at 45^2 the dense product took 1.21 ms and the gather 0.13,
# 0.43, 0.88 and 1.19 ms at 5%, 12.5%, 25% and 35% nonzeros; at 30^2, 0.19 ms
# dense and 0.04, 0.12 and 0.18 ms gathered at 12.5%, 25% and 30%.
GATHER_DENSITY = 0.25


def _check_shape(a, shape):
    a = np.asarray(a, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"shape mismatch: matrix {a.shape} vs operator {shape}")
    return a


def _check_length(y, dim):
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (dim,):
        raise ValueError(f"measurement length {y.shape} != {dim}")
    return y


class _PairError(ValueError):
    """A pair that ``from_indices`` refuses; ``at`` is its position."""

    def __init__(self, message, at):
        super().__init__(message)
        self.at = at


@dataclass(frozen=True, eq=False, init=False)
class ObservationMask:
    """Observed entries as row-major flat indices ``i * cols + j``: ascending,
    unique, read-only int64. Masks compare and hash by identity."""

    shape: tuple[int, int]
    flat_indices: np.ndarray

    def __init__(self, marker):
        """The mask of the True entries of the boolean m x n ``marker``."""
        marker = np.asarray(marker, dtype=bool)
        if marker.ndim != 2:
            raise ValueError("mask marker must be 2-D")
        self._hold(*marker.shape, np.flatnonzero(marker).copy())

    def _hold(self, rows, cols, flat):
        # flat is ascending, unique, int64, and nothing else refers to it
        flat.flags.writeable = False
        object.__setattr__(self, "shape", (int(rows), int(cols)))
        object.__setattr__(self, "flat_indices", flat)
        return self

    @classmethod
    def from_indices(cls, rows, cols, pairs):
        if int(rows) * int(cols) > np.iinfo(np.int64).max:
            raise ValueError(f"mask shape {rows}x{cols} has more than "
                             "2^63 - 1 entries")
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        i, j = pairs[:, 0], pairs[:, 1]
        outside = (i < 0) | (i >= rows) | (j < 0) | (j >= cols)
        if outside.any():
            at = int(np.argmax(outside))
            bad_i, bad_j = pairs[at]
            raise _PairError(
                f"mask index ({bad_i}, {bad_j}) out of range {rows}x{cols}", at
            )
        flat = i * cols + j
        # Mask files and sorted ratings tables give row-major pairs: no sort.
        ordered = flat if np.all(flat[1:] > flat[:-1]) else np.sort(flat)
        if np.any(ordered[1:] == ordered[:-1]):
            _, first = np.unique(flat, return_index=True)
            repeat = np.ones(len(pairs), dtype=bool)
            repeat[first] = False
            at = int(np.argmax(repeat))
            dup_i, dup_j = pairs[at]
            raise _PairError(f"duplicate mask index ({dup_i}, {dup_j})", at)
        return cls.__new__(cls)._hold(rows, cols, ordered)

    @classmethod
    def full(cls, rows, cols):
        flat = np.arange(rows * cols, dtype=np.int64)
        return cls.__new__(cls)._hold(rows, cols, flat)

    @property
    def marker(self):
        """A fresh m x n boolean matrix, True on the observed entries."""
        marker = np.zeros(self.shape, dtype=bool)
        marker.reshape(-1)[self.flat_indices] = True
        return marker

    @property
    def dim(self):
        return self.flat_indices.size

    def forward(self, a):
        """The observed entries of ``a`` in row-major order; the entries off
        the mask are not read, so they may be NaN or infinite."""
        values = _check_shape(a, self.shape).reshape(-1)[self.flat_indices]
        if not np.all(np.isfinite(values)):
            raise ValueError("mask forward input has a non-finite measured entry")
        return values

    def adjoint(self, y):
        """The m x n matrix holding ``y`` on the mask and zero off it."""
        y = _check_length(y, self.dim)
        out = np.zeros(self.shape)
        out.reshape(-1)[self.flat_indices] = y
        return out


def mask_project(a, mask):
    """Keep entries on the mask, zero the rest."""
    return mask.adjoint(mask.forward(a))


def load_mask(path):
    """Read a mask file (see ``textio``). A pair out of range or repeated
    is named by its file line."""
    shape, pairs, lines = textio.read_pairs(path)
    try:
        return ObservationMask.from_indices(*shape, pairs)
    except _PairError as exc:
        raise ValueError(f"{path}:{lines[exc.at]}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class SubspaceOperator:
    """Random linear subspace of matrix space with orthonormal basis rows.

    ``basis`` stacks the p vectorized basis matrices as rows (p x m*n).
    Forward maps a matrix to its p coefficients; adjoint maps coefficients
    back to the matrix-space projection component.
    """

    shape: tuple[int, int]
    basis: np.ndarray  # p x (m*n), orthonormal rows

    @property
    def dim(self):
        return self.basis.shape[0]

    def forward(self, a):
        """The p coefficients of ``a``. Below GATHER_DENSITY nonzeros, only
        the basis columns of ``a``'s nonzero entries are read."""
        a = _check_shape(check_matrix(a, "subspace forward input"), self.shape)
        flat = a.ravel()
        if np.count_nonzero(flat) < GATHER_DENSITY * flat.size:
            nz = np.flatnonzero(flat)
            # basis.T is C-ordered, so each gathered row is contiguous
            return flat[nz] @ self.basis.T[nz]
        return self.basis @ flat

    def adjoint(self, y):
        y = _check_length(y, self.dim)
        return (self.basis.T @ y).reshape(self.shape)


def _cholesky_qr(b):
    """One Cholesky QR pass over the rows of the F-ordered p x k ``b``,
    overwriting it: R^-T b, where b b^T = R^T R and R is upper triangular
    with a positive diagonal. None, with ``b`` untouched, when a pivot of R
    is at or below PIVOT_FLOOR."""
    gram = b @ b.T              # one SYRK, so exactly symmetric
    row_norms2 = gram.diagonal().copy()
    try:
        # gram.T is gram in F order, which LAPACK factors in place
        r = scipy.linalg.cholesky(gram.T, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    if np.any(r.diagonal() ** 2 <= PIVOT_FLOOR * row_norms2):
        return None
    return scipy.linalg.solve_triangular(r, b, trans="T", overwrite_b=True,
                                         check_finite=False)


def _orthonormal_rows(g):
    """Q^T for the thin QR g = Q R (k x p, k >= p, C-ordered) whose R has a
    positive diagonal: the rows of G R^-1 as an F-ordered p x k view of g's
    memory, which it overwrites.

    Cholesky QR, with a second pass on the result when one pass leaves its
    rows further than ORTHONORMAL_TOL from orthonormal (CholeskyQR2). When a
    pass finds a pivot at the floor, or two passes do not suffice, the rows
    come from a Householder QR of what the passes left, which is g itself
    if the first pass stopped.
    """
    basis = g.T
    ones = np.ones(basis.shape[0])
    for _ in range(2):
        passed = _cholesky_qr(basis)
        if passed is None:
            break
        basis = passed
        if np.abs(basis @ (basis.T @ ones) - ones).max() <= ORTHONORMAL_TOL:
            return basis
    return qr_thin(basis.T).q.T


def draw_random_subspace(m, n, p, seed):
    """Orthonormalized Gaussian draw of a p-dimensional subspace of R^{m x n}.

    The basis rows are those of G R^-1 for the seeded mn x p Gaussian G and
    the upper triangular R of G^T G = R^T R, found by Cholesky QR in G's own
    memory. R has a positive diagonal, so this is the basis of G's QR with a
    positive-diagonal R, the same up to rounding as the Householder QR of
    earlier versions: a seed names the same subspace and coefficients, and
    measurement files written with them stay valid.
    """
    if not 1 <= p <= m * n:
        raise ValueError(f"subspace dimension {p} out of range [1, {m * n}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m * n, p))
    return SubspaceOperator((m, n), _orthonormal_rows(g))
