"""Observation models: entrywise masks and random-subspace linear measurements.

Both models fit one linear-measurement interface: a forward map producing a
coefficient vector and its adjoint mapping coefficients back to matrix space.
A mask can be expressed as a subspace operator whose basis elements are the
indicator matrices of the observed entries.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import check_matrix, qr_thin


@dataclass(frozen=True)
class ObservationMask:
    """Index set of observed entries, stored as a boolean marker matrix."""

    marker: np.ndarray  # bool, shape (rows, cols)

    def __post_init__(self):
        marker = np.asarray(self.marker, dtype=bool)
        if marker.ndim != 2:
            raise ValueError("mask marker must be 2-D")
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
    def rows(self):
        return self.marker.shape[0]

    @property
    def cols(self):
        return self.marker.shape[1]

    @property
    def num_observed(self):
        return int(self.marker.sum())

    @property
    def indices(self):
        """Observed (i, j) pairs in row-major order."""
        return np.argwhere(self.marker)

    def complement(self):
        return ObservationMask(~self.marker)


def mask_project(a, mask):
    """Keep entries on the mask, zero the rest."""
    a = check_matrix(a, "mask_project input")
    if a.shape != mask.marker.shape:
        raise ValueError(
            f"shape mismatch: matrix {a.shape} vs mask {mask.marker.shape}"
        )
    return np.where(mask.marker, a, 0.0)


def save_mask(path, mask):
    """Text format: "rows cols" header then one 0-based "i j" pair per line
    in row-major order."""
    pairs = mask.indices
    with open(path, "w") as fh:
        fh.write(f"{mask.rows} {mask.cols}\n")
        fh.write("%d %d\n" * len(pairs) % tuple(pairs.ravel().tolist()))


def load_mask(path):
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: bad mask header")
        rows, cols = int(header[0]), int(header[1])
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

    ambient_rows: int
    ambient_cols: int
    basis: np.ndarray  # p x (m*n), orthonormal rows
    seed: int | None = field(default=None)

    @property
    def dim(self):
        return self.basis.shape[0]

    def forward(self, a):
        a = check_matrix(a, "subspace forward input")
        if a.shape != (self.ambient_rows, self.ambient_cols):
            raise ValueError(
                f"shape mismatch: {a.shape} vs ambient "
                f"({self.ambient_rows}, {self.ambient_cols})"
            )
        return self.basis @ a.ravel()

    def adjoint(self, y):
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.dim,):
            raise ValueError(f"measurement length {y.shape} != {self.dim}")
        return (self.basis.T @ y).reshape(self.ambient_rows, self.ambient_cols)

    def project(self, a):
        """Orthogonal projection in matrix space (adjoint of forward)."""
        return self.adjoint(self.forward(a))


def subspace_forward(a, q):
    return q.forward(a)


def subspace_adjoint(y, q):
    return q.adjoint(y)


def draw_random_subspace(m, n, p, seed):
    """Orthonormalized Gaussian draw of a p-dimensional subspace of R^{m x n}."""
    if not 1 <= p <= m * n:
        raise ValueError(f"subspace dimension {p} out of range [1, {m * n}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m * n, p))
    basis = qr_thin(g).q.T
    return SubspaceOperator(m, n, basis, seed=seed)


def mask_as_subspace(mask):
    """The mask's P_Omega as a SubspaceOperator over indicator matrices."""
    mn = mask.rows * mask.cols
    flat = np.flatnonzero(mask.marker.ravel())
    basis = np.zeros((flat.size, mn))
    basis[np.arange(flat.size), flat] = 1.0
    return SubspaceOperator(mask.rows, mask.cols, basis)
