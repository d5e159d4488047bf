#!/usr/bin/env python3
"""Sweep planted robust-completion problems and report recovery quality.

For each seed a rank-r matrix is corrupted with sign spikes, partially
observed, and solved; the table lists the relative recovery error of the
low-rank part and the AUC of the sparse magnitudes against the planted
spike support (the analogue of scoring corrupted-pixel detection), the
time per iteration, and the number of opening iterations whose thresholded
factor V is zero (rank 0), which skip the factor update. A last line gives
the median iterations, the median relative error and the seeds that end
above relative error 1e-3 ("none" when no seed does).

The fragile shape of the test suite, seeds 100-132:

    python scripts/run_planted_recovery.py --rows 250 --cols 250 --rank 3 \
        --spike-frac 0.05 --obs-frac 0.2 --d 6 \
        --lambda 4.949747468305833 \
        --first-seed 100 --seeds 33
"""

import argparse
import time

import numpy as np

from lowrank import (
    SolverConfig,
    auc,
    generate_planted,
    relative_error,
    solve_rmc,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=200)
    ap.add_argument("--cols", type=int, default=200)
    ap.add_argument("--rank", type=int, default=5)
    ap.add_argument("--spike-frac", type=float, default=0.1)
    ap.add_argument("--obs-frac", type=float, default=0.7)
    ap.add_argument("--d", type=int, default=10)
    ap.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="trace-norm weight (default sqrt(max(rows, cols)))")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seeds", type=int, default=5, help="how many seeds")
    args = ap.parse_args(argv)

    lam = (float(np.sqrt(max(args.rows, args.cols))) if args.lam is None
           else args.lam)
    print(f"lambda = {lam:.4f}, factor rank bound d = {args.d}")
    print(f"{'seed':>4} {'iters':>6} {'relerr':>10} {'auc':>7} {'time':>7} "
          f"{'ms/iter':>8} {'rank0':>6}")
    iterations, errors, failed = [], [], []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        prob = generate_planted(
            args.rows, args.cols, args.rank,
            spike_frac=args.spike_frac, obs_frac=args.obs_frac, seed=seed,
        )
        start = time.perf_counter()
        res = solve_rmc(prob.d_obs, prob.mask,
                        SolverConfig(lam=lam, d=args.d))
        elapsed = time.perf_counter() - start
        err = relative_error(res.low_rank(), prob.l0)
        score = auc(np.abs(prob.mask.forward(res.s)),
                    prob.mask.forward(prob.s0) != 0)
        ranks = [rec.rank for rec in res.trace]
        warm_up = next((k for k, rank in enumerate(ranks) if rank), len(ranks))
        print(f"{seed:>4} {res.iterations:>6} {err:>10.3e} "
              f"{score:>7.4f} {elapsed:>6.2f}s "
              f"{1e3 * elapsed / res.iterations:>8.2f} {warm_up:>6}")
        iterations.append(res.iterations)
        errors.append(err)
        if not err <= 1e-3:
            failed.append(seed)
    print(f"median iterations {np.median(iterations):g}, median relerr "
          f"{np.median(errors):.3e}, seeds above relerr 1e-3: "
          f"{' '.join(map(str, failed)) or 'none'}")


if __name__ == "__main__":
    main()
