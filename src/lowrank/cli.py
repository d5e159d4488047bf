"""Command-line experiment harness.

Subcommands: synth (planted problem files), rmc / rpca / mc / cpcp (solver
runs writing factor, sparse, and trace files), eval (metrics between an
estimate directory and a truth directory).

Exit codes: 0 success, 1 I/O failure, 2 invalid flags, configuration or
inputs, 3 solver hit the iteration cap (outputs are still written).
"""

import argparse
import dataclasses
import os
import sys
import warnings

import numpy as np

from .config import SolverConfig, write_trace_csv
from .cpcp import solve_cpcp
from .datasets import generate_planted, load_matrix, save_matrix
from .measurements import draw_random_subspace, load_mask, save_mask
from .metrics import auc, relative_error, rmse
from .rmc import solve_mc, solve_rmc, solve_rpca

# Flag name -> SolverConfig's default; the --rank flag sets field d, and
# max_iter is chosen per solver.
SOLVER_DEFAULTS = {
    "rank" if f.name == "d" else f.name: f.default
    for f in dataclasses.fields(SolverConfig)
} | {"max_iter": None}


def _auto_or_float(text):
    return text if text == "auto" else float(text)


def _add_solver_flags(sub):
    # Defaults are None sentinels so a config file can fill unset flags.
    sub.add_argument("--lambda", dest="lam", type=_auto_or_float, default=None)
    sub.add_argument("--rank", type=int, default=None)
    sub.add_argument("--rho", type=float, default=None)
    sub.add_argument("--alpha0", type=_auto_or_float, default=None)
    sub.add_argument("--alpha-max", dest="alpha_max", type=float, default=None)
    sub.add_argument("--tol", type=float, default=None)
    sub.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    sub.add_argument("--adjust-rank", dest="adjust_rank", action="store_const",
                     const=True, default=None)
    sub.add_argument("--config", default=None,
                     help="key=value file; explicit flags win")
    sub.add_argument("--out-dir", required=True)


def build_parser():
    parser = argparse.ArgumentParser(prog="lowrank")
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="generate a planted problem")
    synth.add_argument("--rows", type=int, required=True)
    synth.add_argument("--cols", type=int, required=True)
    synth.add_argument("--rank", type=int, required=True)
    synth.add_argument("--spike-frac", type=float, default=0.0)
    synth.add_argument("--magnitude", type=float, default=1.0)
    synth.add_argument("--obs-frac", type=float, default=1.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out-dir", required=True)

    for name in ("rmc", "mc"):
        sub = subs.add_parser(name)
        sub.add_argument("--data", required=True)
        sub.add_argument("--mask", required=True)
        _add_solver_flags(sub)

    rpca = subs.add_parser("rpca")
    rpca.add_argument("--data", required=True)
    _add_solver_flags(rpca)

    cpcp = subs.add_parser("cpcp")
    cpcp.add_argument("--measurements", required=True,
                      help="p x 1 matrix file of measurement coefficients")
    cpcp.add_argument("--rows", type=int, required=True)
    cpcp.add_argument("--cols", type=int, required=True)
    cpcp.add_argument("--subspace-seed", dest="subspace_seed", type=int,
                      required=True)
    cpcp.add_argument("--subspace-dim", dest="subspace_dim", type=int,
                      required=True)
    _add_solver_flags(cpcp)

    ev = subs.add_parser("eval")
    ev.add_argument("--estimate-dir", required=True)
    ev.add_argument("--truth-dir", required=True)
    ev.add_argument("--metric", choices=["relerr", "auc", "rmse"], required=True)
    ev.add_argument("--test-file", default=None)
    return parser


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


# Solver flag (and config file key) -> how its text is read.
SOLVER_CASTS = {
    "lam": _auto_or_float,
    "rank": int,
    "rho": float,
    "alpha0": _auto_or_float,
    "alpha_max": float,
    "tol": float,
    "max_iter": int,
    "adjust_rank": bool,
}


def _build_solver_config(args, default_max_iter):
    file_values = {}
    if args.config is not None:
        file_values = _read_config_file(args.config)
        unknown = sorted(set(file_values) - set(SOLVER_CASTS))
        if unknown:
            raise ValueError(f"{args.config}: unknown key {unknown[0]!r}; "
                             f"expected one of {', '.join(SOLVER_CASTS)}")

    def pick(name):
        cast = SOLVER_CASTS[name]
        flag = getattr(args, name)
        if flag is not None:
            return flag
        if name in file_values:
            raw = file_values[name]
            if cast is bool:
                if raw.lower() not in ("true", "false"):
                    raise ValueError(f"{name} must be true or false, got {raw!r}")
                return raw.lower() == "true"
            return cast(raw)
        default = SOLVER_DEFAULTS[name]
        return default_max_iter if name == "max_iter" else default

    picked = {name: pick(name) for name in SOLVER_CASTS}
    picked["d"] = picked.pop("rank")
    return SolverConfig(**picked)


def _write_result(out_dir, result, include_ratio=False):
    os.makedirs(out_dir, exist_ok=True)
    save_matrix(os.path.join(out_dir, "U.txt"), result.u)
    save_matrix(os.path.join(out_dir, "V.txt"), result.v)
    save_matrix(os.path.join(out_dir, "S.txt"), result.s)
    write_trace_csv(os.path.join(out_dir, "trace.csv"), result.trace,
                    include_ratio=include_ratio)


def _summary(result):
    residual = result.trace[-1].residual if result.trace else float("nan")
    print(
        f"termination={result.termination} iters={result.iterations} "
        f"residual={residual:.6e}"
    )


def cmd_synth(args):
    try:
        problem = generate_planted(
            args.rows, args.cols, args.rank,
            spike_frac=args.spike_frac, magnitude=args.magnitude,
            obs_frac=args.obs_frac, seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    save_matrix(os.path.join(args.out_dir, "d_obs.txt"), problem.d_obs)
    save_matrix(os.path.join(args.out_dir, "l0.txt"), problem.l0)
    save_matrix(os.path.join(args.out_dir, "s0.txt"), problem.s0)
    save_mask(os.path.join(args.out_dir, "mask.txt"), problem.mask)
    return 0


def cmd_solve(args):
    cpcp = args.command == "cpcp"
    if cpcp:
        y_meas = load_matrix(args.measurements).ravel()
        shape = (args.rows, args.cols)
    else:
        data = load_matrix(args.data)
        shape = data.shape
        mask = None if args.command == "rpca" else load_mask(args.mask)
    # Every input is checked before the cpcp subspace draw, which takes
    # seconds at 80^2, and before anything is written.
    try:
        cfg = _build_solver_config(args, 1000 if cpcp else 500)
        # The solver validates cfg again and warns then, so warn only once.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg.validate()
        cfg.check_rank_bound(*shape)
        if cpcp:
            if cfg.adjust_rank:
                raise ValueError("adjust_rank is not supported by cpcp")
            p, size = args.subspace_dim, args.rows * args.cols
            if not 1 <= p <= size:
                raise ValueError(
                    f"subspace dimension {p} out of range [1, {size}]")
            if y_meas.size != p:
                raise ValueError(f"{y_meas.size} measurements != dimension {p}")
        elif mask is not None and mask.shape != shape:
            raise ValueError(f"mask shape {mask.shape} != data {shape}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if cpcp:
        q = draw_random_subspace(args.rows, args.cols, p, args.subspace_seed)
        result = solve_cpcp(y_meas, q, cfg)
        _write_result(args.out_dir, result, include_ratio=True)
    else:
        if mask is None:
            result = solve_rpca(data, cfg)
        else:
            solver = solve_rmc if args.command == "rmc" else solve_mc
            result = solver(data, mask, cfg)
        _write_result(args.out_dir, result)

    _summary(result)
    return 0 if result.termination == "converged" else 3


def _load_estimate_low_rank(est_dir):
    l_path = os.path.join(est_dir, "L.txt")
    if os.path.exists(l_path):
        return load_matrix(l_path)
    u = load_matrix(os.path.join(est_dir, "U.txt"))
    v = load_matrix(os.path.join(est_dir, "V.txt"))
    return u @ v.T


def _load_test_triplets(path):
    triplets = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'user item rating'")
            triplets.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return triplets


def cmd_eval(args):
    if args.metric == "relerr":
        l_hat = _load_estimate_low_rank(args.estimate_dir)
        l_ref = load_matrix(os.path.join(args.truth_dir, "l0.txt"))
        value = relative_error(l_hat, l_ref)
    elif args.metric == "auc":
        s_hat = load_matrix(os.path.join(args.estimate_dir, "S.txt"))
        s_ref = load_matrix(os.path.join(args.truth_dir, "s0.txt"))
        mask = load_mask(os.path.join(args.truth_dir, "mask.txt"))
        value = auc(np.abs(mask.forward(s_hat)), mask.forward(s_ref) != 0)
    else:
        if args.test_file is None:
            print("error: --test-file is required for rmse", file=sys.stderr)
            return 2
        predicted = _load_estimate_low_rank(args.estimate_dir)
        value = rmse(predicted, _load_test_triplets(args.test_file))
    print(f"metric={args.metric} value={value:.6g}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_solve(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
