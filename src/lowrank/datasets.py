"""Problem generation and ratings ingestion.

Ingestion contract. A ratings file (``load_ratings``, and the test file of
``lowrank eval --metric rmse``) holds one rating per line: ``user item
rating`` and an optional fourth field, a timestamp that is never read.
Blank lines are skipped. A line containing ``::`` is split on ``::``, else
one containing ``,`` on ``,``, else on whitespace. Ids are Python ``int``
literals and ratings Python ``float`` literals; a rating that is not finite
(``nan``, ``inf``, ``1e400``) is rejected. Every error names the file and
line (``path:line: ...``), a byte that is not UTF-8 included, and a file
without ratings is rejected.

The grammar is applied per line, but read per file: the separator is sniffed
once from the whole file and numpy's C parser reads the columns. When that
parse cannot vouch for the per-line answer (mixed separators or field
counts, ids such as ``1_000`` that only Python's ``int`` reads, or any
error), the file is re-read line by line by the reference reader, which
returns what the per-line grammar gives or raises its ``path:line`` error.
Either way the result is the same.

``load_ratings`` remaps ids to dense 0-based indices in sorted order. A
(user, item) pair given more than once keeps its last value, and the number
of repeats is counted in ``duplicate_count`` and warned about once.

Matrix files (``save_matrix``/``load_matrix``, re-exported here) are
``textio``'s: its docstring states their format.
"""

import functools
import io
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import textio
from .measurements import ObservationMask, mask_project
from .textio import load_matrix, save_matrix  # noqa: F401 (re-exported)


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
    if not math.isfinite(magnitude):
        raise ValueError(f"spike magnitude {magnitude} is not finite")
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


RATING_DTYPE = np.dtype([("user", np.int64), ("item", np.int64),
                         ("value", np.float64)])
TEST_FRACTION = 0.1


class RatingDataset:
    """User-item ratings with a seeded 9:1 train/test split.

    ``columns`` is a structured array (``RATING_DTYPE``: ``user``, ``item``,
    ``value``), one row per rating; ``load_ratings`` stores it deduplicated
    in row-major order. The constructor also takes a list of (user, item,
    rating) tuples. ``train_idx`` and ``test_idx`` index the rows of
    ``columns``; ``test`` is the test rows as a list of such tuples, built
    on first read.
    """

    def __init__(self, triplets, num_users, num_items, train_idx, test_idx,
                 duplicate_count=0):
        self.columns = np.asarray(triplets, dtype=RATING_DTYPE)
        if self.columns.ndim != 1:
            raise ValueError("triplets must be (user, item, rating) tuples")
        self.num_users = num_users
        self.num_items = num_items
        self.train_idx = train_idx
        self.test_idx = test_idx
        self.duplicate_count = duplicate_count

    @functools.cached_property
    def test(self):
        return self.columns[self.test_idx].tolist()

    def train_matrix(self):
        """Dense matrix of training ratings plus its observation mask."""
        train = self.columns[self.train_idx]
        # adjoint reads the values in row-major order
        flat = train["user"] * self.num_items + train["item"]
        train = train[np.argsort(flat, kind="stable")]
        mask = ObservationMask.from_indices(
            self.num_users, self.num_items,
            np.column_stack((train["user"], train["item"])))
        return mask.adjoint(train["value"]), mask


def split_ratings(triplets, seed):
    """Seeded shuffle partition: ceil(9/10) train, floor(1/10) test."""
    n = len(triplets)
    n_test = int(math.floor(n * TEST_FRACTION))
    order = np.random.default_rng(seed).permutation(n)
    return np.sort(order[n_test:]), np.sort(order[:n_test])


def _split_fields(line):
    if "::" in line:
        return line.strip().split("::")
    if "," in line:
        return line.strip().split(",")
    return line.split()


def _read_rating_lines(lines, path):
    """The reference reader: the grammar applied line by line in Python."""
    users, items, values = [], [], []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = _split_fields(line)
        if len(parts) not in (3, 4):
            raise ValueError(f"{path}:{lineno}: expected 3 or 4 fields")
        try:
            user, item, value = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if not math.isfinite(value):
            raise ValueError(
                f"{path}:{lineno}: non-finite rating {parts[2].strip()!r}")
        users.append(user)
        items.append(item)
        values.append(value)
    if not users:
        raise ValueError(f"{path}: no ratings found")
    return np.array(users), np.array(items), np.array(values)


def _parse_rating_columns(data):
    """The same grammar through numpy's C parser, or None where it cannot
    vouch for the reference's answer.

    The separator is sniffed once: ``::`` if it occurs anywhere, else ``,``
    if that does, else whitespace, so a line that the per-line grammar would
    split on another separator fails the parse. The field count comes from
    the first non-blank line, and loadtxt refuses lines of any other count.
    ``::`` is parsed as two ``:`` columns around an empty one.
    """
    sep = b"::" if b"::" in data else b"," if b"," in data else None
    first = re.search(rb"\S[^\r\n]*", data)
    if first is None:
        return None
    fields = len(first.group().split(sep))
    if fields not in (3, 4):
        return None
    columns = [("user", np.int64), ("item", np.int64), ("value", np.float64),
               ("stamp", "S1")]
    dtype, gaps = [], []
    for k, column in enumerate(columns[:fields]):
        if k and sep == b"::":
            gaps.append(f"gap{k}")
            dtype.append((gaps[-1], "S1"))
        dtype.append(column)
    lines = io.TextIOWrapper(io.BytesIO(data))
    with warnings.catch_warnings():
        # Any warning, such as one numpy gives before changing a rule, is a
        # refusal.
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1,
                               delimiter={b"::": ":", b",": ","}.get(sep))
        except (ValueError, Warning):
            return None
    if any((table[name] != b"").any() for name in gaps):
        return None
    if not np.isfinite(table["value"]).all():
        return None
    return table["user"], table["item"], table["value"]


def read_rating_columns(path):
    """(user, item, rating) columns of a ratings file, in file order, ids as
    written. See the module docstring for the grammar and the errors."""
    with open(path, "rb") as fh:
        data = fh.read()
    columns = _parse_rating_columns(data)
    if columns is None:
        text = textio.decode(data, path)
        columns = _read_rating_lines(io.StringIO(text, newline=None), path)
    return columns


def load_ratings(path, seed=0):
    """Read "user item rating [timestamp]" lines (the grammar and errors of
    the module docstring) into a ``RatingDataset``.

    External 1-based (or arbitrary) ids are remapped to dense 0-based
    indices by sorted order. Duplicate (user, item) pairs keep the last
    value and are counted with a warning.
    """
    user, item, value = read_rating_columns(path)
    users, user_idx = np.unique(user, return_inverse=True)
    items, item_idx = np.unique(item, return_inverse=True)
    # A stable sort keeps equal keys in file order, so the last of each run
    # is the value that wins.
    key = user_idx * len(items) + item_idx
    order = np.argsort(key, kind="stable")
    key = key[order]
    keep = order[np.append(key[1:] != key[:-1], True)]
    duplicates = len(order) - len(keep)
    if duplicates:
        warnings.warn(f"{path}: {duplicates} duplicate (user, item) pairs; "
                      "kept the last value of each", stacklevel=2)

    columns = np.empty(len(keep), dtype=RATING_DTYPE)
    columns["user"] = user_idx[keep]
    columns["item"] = item_idx[keep]
    columns["value"] = value[keep]
    train_idx, test_idx = split_ratings(columns, seed)
    return RatingDataset(columns, len(users), len(items), train_idx, test_idx,
                         duplicate_count=duplicates)
