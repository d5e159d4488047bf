"""Problem generation, ratings ingestion, and matrix text I/O."""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .measurements import ObservationMask, mask_project, read_shape


@dataclass(frozen=True)
class PlantedProblem:
    """Synthetic instance with known low-rank part, spikes, and mask."""

    l0: np.ndarray
    s0: np.ndarray
    mask: ObservationMask
    d_obs: np.ndarray
    rank: int


def generate_planted(m, n, r, spike_frac, magnitude=1.0, obs_frac=1.0, seed=0):
    """Draw a planted low-rank + sparse-spike recovery problem.

    The low-rank part is a product of seeded Gaussian factors (redrawn in the
    measure-zero event it is rank deficient); spikes have independent
    Bernoulli support and uniform random signs; each entry is observed
    independently with probability ``obs_frac``.
    """
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range [1, {min(m, n)}]")
    if not 0.0 <= spike_frac <= 1.0:
        raise ValueError(f"spike fraction {spike_frac} outside [0, 1]")
    if not 0.0 <= obs_frac <= 1.0:
        raise ValueError(f"observation fraction {obs_frac} outside [0, 1]")
    rng = np.random.default_rng(seed)
    while True:
        left = rng.standard_normal((m, r))
        right = rng.standard_normal((n, r))
        # left @ right.T has rank r exactly when both factors do
        if np.linalg.matrix_rank(left) == r and np.linalg.matrix_rank(right) == r:
            break
    l0 = left @ right.T
    support = rng.random((m, n)) < spike_frac
    signs = rng.choice([-1.0, 1.0], size=(m, n))
    s0 = np.where(support, magnitude * signs, 0.0)
    marker = rng.random((m, n)) < obs_frac
    if not marker.any():
        marker[0, 0] = True  # keep the instance solvable
    mask = ObservationMask(marker)
    d_obs = mask_project(l0 + s0, mask)
    return PlantedProblem(l0=l0, s0=s0, mask=mask, d_obs=d_obs, rank=r)


@dataclass
class RatingDataset:
    """User-item rating triplets with a seeded 9:1 train/test split."""

    triplets: list[tuple[int, int, float]]
    num_users: int
    num_items: int
    train_idx: np.ndarray
    test_idx: np.ndarray
    duplicate_count: int = 0

    @property
    def train(self):
        return [self.triplets[i] for i in self.train_idx]

    @property
    def test(self):
        return [self.triplets[i] for i in self.test_idx]

    def train_matrix(self):
        """Dense matrix of training ratings plus its observation mask."""
        # sorted, because adjoint reads the values in row-major order
        train = np.fromiter(sorted(self.train), dtype=[
            ("user", np.int64), ("item", np.int64), ("value", np.float64)])
        mask = ObservationMask.from_indices(
            self.num_users, self.num_items,
            np.column_stack((train["user"], train["item"])))
        return mask.adjoint(train["value"]), mask


def split_ratings(triplets, seed, test_fraction=0.1):
    """Seeded shuffle partition: ceil(9/10) train, floor(1/10) test."""
    n = len(triplets)
    n_test = int(math.floor(n * test_fraction))
    order = np.random.default_rng(seed).permutation(n)
    return np.sort(order[n_test:]), np.sort(order[:n_test])


def _split_fields(line):
    if "::" in line:
        return line.strip().split("::")
    if "," in line:
        return line.strip().split(",")
    return line.split()


def load_ratings(path, seed=0):
    """Read "user item rating [timestamp]" lines; separators are sniffed.

    External 1-based (or arbitrary) ids are remapped to dense 0-based
    indices by sorted order. Duplicate (user, item) pairs keep the last
    value and are counted with a warning.
    """
    raw = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = _split_fields(line)
            if len(parts) not in (3, 4):
                raise ValueError(f"{path}:{lineno}: expected 3 or 4 fields")
            try:
                user, item, value = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            raw.append((user, item, value))
    if not raw:
        raise ValueError(f"{path}: no ratings found")

    users = sorted({u for u, _, _ in raw})
    items = sorted({i for _, i, _ in raw})
    user_map = {u: k for k, u in enumerate(users)}
    item_map = {i: k for k, i in enumerate(items)}

    latest = {}
    duplicates = 0
    for user, item, value in raw:
        key = (user_map[user], item_map[item])
        if key in latest:
            duplicates += 1
        latest[key] = value
    if duplicates:
        warnings.warn(f"{path}: {duplicates} duplicate (user, item) pairs; "
                      "kept the last value of each", stacklevel=2)

    triplets = [(u, i, val) for (u, i), val in sorted(latest.items())]
    train_idx, test_idx = split_ratings(triplets, seed)
    return RatingDataset(
        triplets=triplets,
        num_users=len(users),
        num_items=len(items),
        train_idx=train_idx,
        test_idx=test_idx,
        duplicate_count=duplicates,
    )


def save_matrix(path, a):
    """Text format: "rows cols" header then one row per line, 17 significant
    digits so a round trip is bit-lossless."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("save_matrix expects a 2-D array")
    rows, cols = a.shape
    row_format = " ".join(["%.17g"] * cols) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        fh.writelines(row_format % tuple(row.tolist()) for row in a)


def load_matrix(path):
    with open(path) as fh:
        rows, cols = read_shape(fh, path)
        if rows == 0 or cols == 0:
            raise ValueError(f"{path}: degenerate shape {rows}x{cols}")
        out = np.empty((rows, cols))
        for i in range(rows):
            parts = fh.readline().split()
            if len(parts) != cols:
                raise ValueError(
                    f"{path}:{i + 2}: expected {cols} values, got {len(parts)}"
                )
            try:
                out[i] = [float(x) for x in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{i + 2}: {exc}") from exc
        for lineno, line in enumerate(fh, start=rows + 2):
            if line.strip():
                raise ValueError(f"{path}:{lineno}: more than {rows} rows")
    return out
