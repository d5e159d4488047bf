"""Command-line experiment harness.

Subcommands: synth (planted problem files), rmc / rpca / mc / cpcp (solver
runs writing U.txt, V.txt, S.txt and trace.csv, whose one header is
iter,residual,objective,alpha,d,stop_ratio,rank; stop_ratio is the quantity
the solver's stop compares with tol, blank on an iteration where it
compares none, though mc also stops on residual over ||D on Omega||_F,
which stop_ratio does not record; the summary line's stop= names the test
that ended the run; cpcp reads a p x 1 measurements file),
eval (metrics between an estimate directory, whose low-rank estimate is
U V^T, and a truth directory).

Exit codes: 0 success, 1 I/O failure, 2 invalid flags, configuration or
inputs, 3 solver hit the iteration cap (outputs are still written). The
settings are checked by ``SolverConfig`` and the inputs by the solvers, so
every input a solver rejects, non-finite data on Omega included, exits 2
with nothing written; cpcp's inputs are checked before the subspace draw.
"""

import argparse
import os
import sys

import numpy as np

from .config import SolverConfig, write_trace_csv
from .cpcp import check_cpcp_problem, solve_cpcp
from .datasets import generate_planted, read_rating_columns
from .measurements import draw_random_subspace, load_mask
from .metrics import auc, relative_error, rmse
from .rmc import solve_mc, solve_rmc, solve_rpca
from .textio import load_matrix, save_mask, save_matrix


def _auto_or_float(text):
    return text if text == "auto" else float(text)


def _true_or_false(text):
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


# Solver flag -> its --config key, which names the SolverConfig field (rank
# sets d), and the parser of the key's text. --adjust-rank takes no value.
SOLVER_SETTINGS = {
    "--lambda": ("lam", _auto_or_float),
    "--rank": ("rank", int),
    "--rho": ("rho", float),
    "--alpha0": ("alpha0", _auto_or_float),
    "--alpha-max": ("alpha_max", float),
    "--tol": ("tol", float),
    "--max-iter": ("max_iter", int),
    "--adjust-rank": ("adjust_rank", _true_or_false),
}


def _add_solver_flags(sub):
    # An unset flag is None, so a config file or SolverConfig can fill it.
    for flag, (key, parse) in SOLVER_SETTINGS.items():
        if parse is _true_or_false:
            sub.add_argument(flag, dest=key, action="store_const", const=True)
        else:
            sub.add_argument(flag, dest=key, type=parse)
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


def _build_solver_config(args, default_max_iter):
    file_values = {}
    if args.config is not None:
        file_values = _read_config_file(args.config)
        keys = [key for key, _ in SOLVER_SETTINGS.values()]
        unknown = sorted(set(file_values) - set(keys))
        if unknown:
            raise ValueError(f"{args.config}: unknown key {unknown[0]!r}; "
                             f"expected one of {', '.join(keys)}")
    # Settings given neither way take SolverConfig's defaults.
    settings = {"max_iter": default_max_iter}
    for key, parse in SOLVER_SETTINGS.values():
        value = getattr(args, key)
        if value is None and key in file_values:
            try:
                value = parse(file_values[key])
            except ValueError as exc:
                raise ValueError(f"{args.config}: {key}: {exc}") from None
        if value is not None:
            settings["d" if key == "rank" else key] = value
    return SolverConfig(**settings)


def _write_result(out_dir, result):
    os.makedirs(out_dir, exist_ok=True)
    save_matrix(os.path.join(out_dir, "U.txt"), result.u)
    save_matrix(os.path.join(out_dir, "V.txt"), result.v)
    save_matrix(os.path.join(out_dir, "S.txt"), result.s)
    write_trace_csv(os.path.join(out_dir, "trace.csv"), result.trace)


def _summary(result):
    # max_iter >= 1, so there is a record; the first has the resolved alpha0
    first, last = result.trace[0], result.trace[-1]
    print(
        f"termination={result.termination} iters={result.iterations} "
        f"residual={last.residual:.6e} alpha0={first.alpha:.6e} "
        f"stop={result.stop_test or 'none'} rank={last.rank}"
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
        # p x 1; a wider file fails check_cpcp_problem's shape check
        y_meas = load_matrix(args.measurements)
        y_meas = y_meas[:, 0] if y_meas.shape[1] == 1 else y_meas
    else:
        data = load_matrix(args.data)
        mask = None if args.command == "rpca" else load_mask(args.mask)
    # The solvers check their inputs before iterating, and cpcp's are checked
    # before the draw: about 8 s and 540 MiB at 80^2, p = 0.75 mn.
    try:
        cfg = _build_solver_config(args, 1000 if cpcp else 500)
        if cpcp:
            shape, p = (args.rows, args.cols), args.subspace_dim
            y_meas = check_cpcp_problem(y_meas, shape, p, cfg)
            q = draw_random_subspace(*shape, p, args.subspace_seed)
            result = solve_cpcp(y_meas, q, cfg)
        elif mask is None:
            result = solve_rpca(data, cfg)
        else:
            solver = solve_rmc if args.command == "rmc" else solve_mc
            result = solver(data, mask, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _write_result(args.out_dir, result)
    _summary(result)
    return 0 if result.termination == "converged" else 3


def _load_estimate_low_rank(est_dir):
    u = load_matrix(os.path.join(est_dir, "U.txt"))
    v = load_matrix(os.path.join(est_dir, "V.txt"))
    return u @ v.T


def _load_test_triplets(path):
    """Test ratings in the ``load_ratings`` grammar, ids used as written."""
    users, items, values = read_rating_columns(path)
    return list(zip(users.tolist(), items.tolist(), values.tolist()))


def _masked_auc(s_hat, s_ref, mask):
    return auc(np.abs(mask.forward(s_hat)), mask.forward(s_ref) != 0)


def cmd_eval(args):
    # A file that fails to read or parse exits 1 through main.
    if args.metric == "relerr":
        score = relative_error
        inputs = (_load_estimate_low_rank(args.estimate_dir),
                  load_matrix(os.path.join(args.truth_dir, "l0.txt")))
    elif args.metric == "auc":
        score = _masked_auc
        inputs = (load_matrix(os.path.join(args.estimate_dir, "S.txt")),
                  load_matrix(os.path.join(args.truth_dir, "s0.txt")),
                  load_mask(os.path.join(args.truth_dir, "mask.txt")))
    else:
        if args.test_file is None:
            print("error: --test-file is required for rmse", file=sys.stderr)
            return 2
        score = rmse
        inputs = (_load_estimate_low_rank(args.estimate_dir),
                  _load_test_triplets(args.test_file))
    try:
        value = score(*inputs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
