#!/usr/bin/env python3
"""Sweep planted robust-completion problems and report recovery quality.

For each seed a rank-r matrix is corrupted with sign spikes, partially
observed, and solved; the table lists the relative recovery error of the
low-rank part and the AUC of the sparse magnitudes against the planted
spike support (the analogue of scoring corrupted-pixel detection).
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
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args(argv)

    lam = float(np.sqrt(max(args.rows, args.cols)))
    print(f"lambda = {lam:.4f}, factor rank bound d = {args.d}")
    print(f"{'seed':>4} {'iters':>6} {'relerr':>10} {'auc':>7} {'time':>7}")
    for seed in range(1, args.seeds + 1):
        prob = generate_planted(
            args.rows, args.cols, args.rank,
            spike_frac=args.spike_frac, obs_frac=args.obs_frac, seed=seed,
        )
        start = time.perf_counter()
        res = solve_rmc(prob.d_obs, prob.mask,
                        SolverConfig(lam=lam, d=args.d))
        elapsed = time.perf_counter() - start
        err = relative_error(res.low_rank(), prob.l0)
        obs = prob.mask.marker
        score = auc(np.abs(res.s[obs]), prob.s0[obs] != 0)
        print(f"{seed:>4} {res.iterations:>6} {err:>10.3e} "
              f"{score:>7.4f} {elapsed:>6.2f}s")


if __name__ == "__main__":
    main()
