#!/usr/bin/env python3
"""Recovery of a low-rank + sparse matrix vs the number of measurements.

Measures y = P_Q(L0 + S0) against a random orthonormal subspace of
increasing dimension and reports the iterations, the relative recovery
error, the initial penalty alpha0 and the number of warm-up iterations with
V = 0 (rank0), tracing the phase transition from under- to well-determined
regimes.
"""

import argparse

import numpy as np

from lowrank import (
    SolverConfig,
    draw_random_subspace,
    generate_planted,
    relative_error,
    solve_cpcp,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=30)
    ap.add_argument("--rank", type=int, default=3)
    ap.add_argument("--spike-frac", type=float, default=0.05)
    ap.add_argument("--fractions", type=float, nargs="+",
                    default=[0.25, 0.5, 0.75, 0.9])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    m = n = args.size
    prob = generate_planted(m, n, args.rank, spike_frac=args.spike_frac,
                            obs_frac=1.0, seed=args.seed)
    lam = float(np.sqrt(m))
    print(f"{m}x{n}, rank {args.rank}, {args.spike_frac:.0%} spikes, "
          f"lambda={lam:.3f}")
    print(f"{'p/mn':>6} {'p':>6} {'iters':>6} {'relerr':>10} "
          f"{'alpha0':>10} {'rank0':>6}")
    for frac in args.fractions:
        p = int(frac * m * n)
        q = draw_random_subspace(m, n, p, seed=args.seed + 100)
        y = q.forward(prob.l0 + prob.s0)
        cfg = SolverConfig(lam=lam, d=2 * args.rank, tol=1e-10,
                           max_iter=1000)
        res = solve_cpcp(y, q, cfg)
        err = relative_error(res.low_rank(), prob.l0)
        # iterations before V first turns nonzero
        ranks = [rec.rank for rec in res.trace]
        warm_up = next((k for k, rank in enumerate(ranks) if rank), len(ranks))
        print(f"{frac:>6.2f} {p:>6} {res.iterations:>6} {err:>10.3e} "
              f"{res.trace[0].alpha:>10.3e} {warm_up:>6}")


if __name__ == "__main__":
    main()
