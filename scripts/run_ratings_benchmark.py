#!/usr/bin/env python3
"""Collaborative-filtering benchmark on synthetic (or real) rating triplets.

Completes the sparse user-item matrix at several factor rank bounds and
reports held-out RMSE against the global-mean baseline, with the iteration
count and milliseconds per iteration of each solve. It also prints how long
``load_ratings`` and ``train_matrix`` took. Pass --ratings to score a real
triplet file ("user item rating", "u::i::r::t", or CSV); without it a rank-5
preference matrix is synthesized as "u::i::r::t" lines, 80 users by 60 items
at 30% density, or --synthetic-lines N of them on a MovieLens-1M-shaped
matrix scaled to N (6040 x 3706 at 10^6 lines). The last line sums it up:
the baseline, the test RMSE and iterations at each d, and the d whose solve
did not converge, or "none"; the exit status is 1 when there is such a d.
Pass --ranks with no value to time the ingestion alone:

    python3 scripts/run_ratings_benchmark.py --synthetic-lines 1000000 --ranks
"""

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from lowrank import SolverConfig, load_ratings, rmse, solve_mc


def synthesize(path, lines, num_users, num_items, rank=5, seed=42):
    """Write ``lines`` distinct "user::item::rating::timestamp" lines in a
    random order: 1-based ids, ratings of a rank-``rank`` preference model
    rounded to 1-5 stars."""
    rng = np.random.default_rng(seed)
    cells = np.empty(0, dtype=np.int64)
    while cells.size < lines:  # redraw the cells that collided
        cells = np.sort(np.concatenate((cells, rng.integers(
            0, num_users * num_items, size=lines - cells.size))))
        cells = cells[np.append(True, cells[1:] != cells[:-1])]
    users, items = np.divmod(rng.permutation(cells), num_items)
    left = rng.standard_normal((num_users, rank))
    right = rng.standard_normal((num_items, rank))
    affinity = np.einsum("kr,kr->k", left[users], right[items]) / np.sqrt(rank)
    stars = np.clip(np.rint(3.0 + affinity), 1, 5).astype(np.int64)
    stamps = rng.integers(956_703_932, 1_046_454_590, size=lines)
    table = np.column_stack((users + 1, items + 1, stars, stamps))
    block = 100_000
    with open(path, "w") as fh:
        for start in range(0, lines, block):
            rows = table[start:start + block]
            fh.write("%d::%d::%d::%d\n" * len(rows)
                     % tuple(rows.ravel().tolist()))


def movielens_shape(lines):
    """Users and items of a MovieLens-1M-shaped matrix holding ``lines``."""
    scale = np.sqrt(lines / 1_000_209)
    return max(1, round(6040 * scale)), max(1, round(3706 * scale))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ratings", type=Path, default=None)
    ap.add_argument("--synthetic-lines", type=int, default=None)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.5)
    ap.add_argument("--ranks", type=int, nargs="*", default=[2, 5, 10, 20])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        path = args.ratings
        if path is None:
            path = Path(tmp) / "ratings.dat"
            if args.synthetic_lines is None:
                synthesize(path, 1440, 80, 60)
            else:
                synthesize(path, args.synthetic_lines,
                           *movielens_shape(args.synthetic_lines))
            print("synthesized rank-5 ratings")
        start = time.perf_counter()
        ds = load_ratings(path, seed=args.seed)
    loaded = time.perf_counter()
    train, mask = ds.train_matrix()
    print(f"load_ratings {loaded - start:.3f} s, "
          f"train_matrix {time.perf_counter() - loaded:.3f} s")
    print(f"{ds.num_users} users x {ds.num_items} items, "
          f"{mask.dim} train / {len(ds.test_idx)} test ratings")

    global_mean = mask.forward(train).mean()
    baseline = rmse(np.broadcast_to(global_mean, train.shape), ds.test)
    print(f"global-mean baseline RMSE: {baseline:.4f}")

    solves, unconverged = [], []
    for d in args.ranks:
        cfg = SolverConfig(lam=args.lam, d=d, tol=1e-6, max_iter=800)
        start = time.perf_counter()
        res = solve_mc(train, mask, cfg)
        per_iter_ms = 1e3 * (time.perf_counter() - start) / res.iterations
        pred = np.clip(res.low_rank(), 1.0, 5.0)
        test_rmse = rmse(pred, ds.test)
        print(f"d={d:>3}: test RMSE {test_rmse:.4f} "
              f"({res.iterations} iterations, {per_iter_ms:.2f} ms/iteration, "
              f"{res.termination})")
        solves.append(f"d={d} {test_rmse:.4f} in {res.iterations}")
        if res.termination != "converged":
            unconverged.append(str(d))
    print(f"baseline {baseline:.4f}; test RMSE and iterations: "
          f"{', '.join(solves) or 'no solve'}; unconverged d: "
          f"{' '.join(unconverged) or 'none'}")
    return 1 if unconverged else 0


if __name__ == "__main__":
    raise SystemExit(main())
