#!/usr/bin/env python3
"""Collaborative-filtering benchmark on synthetic (or real) rating triplets.

Completes the sparse user-item matrix at several factor rank bounds and
reports held-out RMSE against the global-mean baseline. Pass --ratings to
score a real triplet file ("user item rating", "u::i::r::t", or CSV);
without it a rank-5 preference matrix is synthesized.
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from lowrank import SolverConfig, load_ratings, rmse, solve_mc


def synthesize(path, num_users=80, num_items=60, rank=5, density=0.3, seed=42):
    rng = np.random.default_rng(seed)
    profile = rng.standard_normal((num_users, rank)) @ \
        rng.standard_normal((num_items, rank)).T
    truth = np.clip(3.0 + profile / np.sqrt(rank), 1.0, 5.0)
    lines = [
        f"{i} {j} {truth[i, j]:.6f}"
        for i in range(num_users) for j in range(num_items)
        if rng.random() < density
    ]
    path.write_text("\n".join(lines) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ratings", type=Path, default=None)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.5)
    ap.add_argument("--ranks", type=int, nargs="+", default=[2, 5, 10, 20])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    if args.ratings is None:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ratings.txt"
            synthesize(path)
            ds = load_ratings(path, seed=args.seed)
        print("synthesized rank-5 ratings")
    else:
        ds = load_ratings(args.ratings, seed=args.seed)
    train, mask = ds.train_matrix()
    print(f"{ds.num_users} users x {ds.num_items} items, "
          f"{len(ds.train)} train / {len(ds.test)} test ratings")

    global_mean = train[mask.marker].mean()
    baseline = rmse(np.full_like(train, global_mean), ds.test)
    print(f"global-mean baseline RMSE: {baseline:.4f}")

    for d in args.ranks:
        cfg = SolverConfig(lam=args.lam, d=d, tol=1e-6, max_iter=800)
        res = solve_mc(train, mask, cfg)
        pred = np.clip(res.low_rank(), 1.0, 5.0)
        print(f"d={d:>3}: test RMSE {rmse(pred, ds.test):.4f} "
              f"({res.iterations} iterations, {res.termination})")


if __name__ == "__main__":
    main()
