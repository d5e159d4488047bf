"""Observation models: entrywise masks and random-subspace linear measurements.

``ObservationMask`` and ``SubspaceOperator`` are linear measurement operators
with four members: ``shape``, the (m, n) of the matrices measured; ``dim``,
the number p of coefficients; ``forward(a)``, an m x n matrix to its p
coefficients, raising ``ValueError`` on another shape or a non-finite entry;
and ``adjoint(y)``, p coefficients back to an m x n matrix, raising
``ValueError`` on another length. Both have orthonormal rows, so
``forward(adjoint(y))`` is ``y`` and ``adjoint(forward(a))`` projects ``a``
onto the measured subspace. A mask's coefficients are its observed entries
in row-major order: ``forward`` gathers them, ``adjoint`` scatters them into
zeros.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import check_matrix, qr_thin


def _check_shape(a, shape, name):
    a = check_matrix(a, name)
    if a.shape != shape:
        raise ValueError(f"shape mismatch: matrix {a.shape} vs operator {shape}")
    return a


def _check_length(y, dim):
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (dim,):
        raise ValueError(f"measurement length {y.shape} != {dim}")
    return y


@dataclass(frozen=True, eq=False)
class ObservationMask:
    """Index set of observed entries, stored as a read-only copy of a boolean
    marker matrix. Masks compare and hash by identity."""

    marker: np.ndarray  # bool, shape (rows, cols)

    def __post_init__(self):
        marker = np.array(self.marker, dtype=bool)
        if marker.ndim != 2:
            raise ValueError("mask marker must be 2-D")
        # flat_indices is computed once from the marker, so it must not change
        marker.flags.writeable = False
        object.__setattr__(self, "marker", marker)

    @classmethod
    def from_indices(cls, rows, cols, pairs):
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        i, j = pairs[:, 0], pairs[:, 1]
        outside = (i < 0) | (i >= rows) | (j < 0) | (j >= cols)
        if outside.any():
            bad_i, bad_j = pairs[np.argmax(outside)]
            raise ValueError(
                f"mask index ({bad_i}, {bad_j}) out of range {rows}x{cols}"
            )
        flat = i * cols + j
        marker = np.zeros(rows * cols, dtype=bool)
        marker[flat] = True
        if np.count_nonzero(marker) != flat.size:
            _, first = np.unique(flat, return_index=True)
            repeat = np.ones(flat.size, dtype=bool)
            repeat[first] = False
            dup_i, dup_j = pairs[np.argmax(repeat)]
            raise ValueError(f"duplicate mask index ({dup_i}, {dup_j})")
        return cls(marker.reshape(rows, cols))

    @classmethod
    def full(cls, rows, cols):
        return cls(np.ones((rows, cols), dtype=bool))

    @property
    def shape(self):
        return self.marker.shape

    @cached_property
    def flat_indices(self):
        """Row-major flat indices of the observed entries, ascending."""
        return np.flatnonzero(self.marker)

    @property
    def dim(self):
        return self.flat_indices.size

    def forward(self, a):
        """The observed entries of ``a`` in row-major order."""
        a = _check_shape(a, self.shape, "mask forward input")
        return a.reshape(-1)[self.flat_indices]

    def adjoint(self, y):
        """The m x n matrix holding ``y`` on the mask and zero off it."""
        y = _check_length(y, self.dim)
        out = np.zeros(self.shape)
        out.reshape(-1)[self.flat_indices] = y
        return out


def mask_project(a, mask):
    """Keep entries on the mask, zero the rest."""
    return mask.adjoint(mask.forward(a))


def save_mask(path, mask):
    """Text format: "rows cols" header then one 0-based "i j" pair per line
    in row-major order."""
    rows, cols = mask.shape
    pairs = np.column_stack(np.divmod(mask.flat_indices, cols))
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        fh.write("%d %d\n" * len(pairs) % tuple(pairs.ravel().tolist()))


def read_shape(fh, path):
    """Parse the "rows cols" header line of a mask or matrix text file."""
    header = fh.readline().split()
    try:
        rows, cols = map(int, header)
    except ValueError:
        raise ValueError(f"{path}: bad header {' '.join(header)!r}, "
                         "expected 'rows cols'") from None
    if rows < 0 or cols < 0:
        raise ValueError(f"{path}: negative shape {rows}x{cols}")
    return rows, cols


def load_mask(path):
    with open(path) as fh:
        rows, cols = read_shape(fh, path)
        # Skip the blank lines before the first pair: loadtxt warns on input
        # without data, and a header-only file is an empty mask.
        start = fh.tell()
        while (line := fh.readline()) and not line.strip():
            start = fh.tell()
        pairs = np.empty((0, 2), dtype=np.int64)
        if line:
            fh.seek(start)
            try:
                pairs = np.loadtxt(fh, dtype=np.int64, comments=None, ndmin=2)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
    if pairs.shape[1] != 2:
        raise ValueError(
            f"{path}: expected 'i j' per line, got {pairs.shape[1]} fields"
        )
    try:
        return ObservationMask.from_indices(rows, cols, pairs)
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
    seed: int | None = field(default=None)

    @property
    def dim(self):
        return self.basis.shape[0]

    def forward(self, a):
        a = _check_shape(a, self.shape, "subspace forward input")
        return self.basis @ a.ravel()

    def adjoint(self, y):
        y = _check_length(y, self.dim)
        return (self.basis.T @ y).reshape(self.shape)


def draw_random_subspace(m, n, p, seed):
    """Orthonormalized Gaussian draw of a p-dimensional subspace of R^{m x n}."""
    if not 1 <= p <= m * n:
        raise ValueError(f"subspace dimension {p} out of range [1, {m * n}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m * n, p))
    basis = qr_thin(g).q.T
    return SubspaceOperator((m, n), basis, seed=seed)
