#!/usr/bin/env python3
"""Benchmark of the lowrank solvers; run from the root of a checkout.

    python3 perfbench/run.py --workload rmc-sparse --seed 1 --seconds 20 --trace 0

Runs one workload of BENCHMARK.json against the checkout's ``src/lowrank``
with the BLAS thread count pinned. Every run is a process of its own, so
peak RSS and lazy BLAS set-up belong to that workload alone. Seeded
instances are solved back to back (a closed loop with one caller) until
``--seconds`` have passed; every output is checked and a failed check counts
as a failed instance instead of ending the run.

The last output line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Untraced (``--trace 0``) the metrics are the
end-to-end ones, with times in reference seconds (see ``REFERENCE_S``).
Traced (``--trace 1``) each instance is solved untraced and then traced;
the traced outputs must be bit-identical to the untraced ones, and the
spans give the per-layer metrics. The line before it records the
environment and the timing summaries. Records and spans are also written to
``.perfbench_out/``.
"""

import os
import sys

# Pinned BLAS threads, set before numpy is imported. The iterate path
# depends on the thread count, so a fixed count makes repeated runs
# bit-identical; it must not exceed nproc.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({name: str(BLAS_THREADS) for name in THREAD_VARIABLES})

# The checkout's source only, ahead of anything installed.
SRC = os.path.realpath("src")
if not os.path.isfile(os.path.join(SRC, "lowrank", "__init__.py")):
    print("error: run from the root of a lowrank checkout "
          "(src/lowrank not found)", file=sys.stderr)
    raise SystemExit(2)
if BLAS_THREADS > len(os.sched_getaffinity(0)):
    print(f"error: {BLAS_THREADS} BLAS threads exceed nproc", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import lowrank  # noqa: E402
from lowrank import cli, cpcp, datasets, measurements, metrics, rmc  # noqa: E402
from lowrank.config import SolverConfig  # noqa: E402
from tracing import Tracer, instance_layers  # noqa: E402

OUT_DIR = ".perfbench_out"

# Every run solves at least this many instances, so that set-up and solve
# times are medians even when one instance takes most of --seconds.
MIN_INSTANCES = 3

# Output checks, per instance.
RMC_MAX_RELERR = 1e-3
RMC_MIN_AUC = 0.99
CPCP_MAX_RELERR = 5e-2     # the bar of acceptance criterion 07

# rmc-sparse passes lambda = LAMBDA_FACTOR * sqrt(max(m, n) * |Omega| / mn).
LAMBDA_FACTOR = 0.7

# Host speed. Neighbours on the shared host slow this process for minutes at
# a time, on a 2-vCPU host by up to 1.7x for interpreted code and 1.3x for
# BLAS, and CPU time slows with wall time, so neither clock holds still
# between runs. A fixed reference kernel that does not use lowrank is timed
# between instances, for REFERENCE_SHARE of the time the instances take.
# Untraced times are reported in reference seconds: the measured time x
# REFERENCE_S / the mean reference time of the run. REFERENCE_S is about the
# kernel's shortest time seen on that host with one BLAS thread, so a
# reference second is about a second at the host's best speed.
REFERENCE_S = 0.04
REFERENCE_SHARE = 0.08
_reference_rng = np.random.default_rng(20141)
_REFERENCE_ROW = _reference_rng.standard_normal(500)
_REFERENCE_DENSE = _reference_rng.standard_normal((500, 500))
_REFERENCE_THIN = _reference_rng.standard_normal((500, 10))


def reference_seconds():
    """Time a fixed kernel made of the program's kinds of work, in about equal
    shares: text formatting and parsing, elementwise passes over a dense
    matrix, and BLAS products with a thin QR and SVD."""
    start = time.perf_counter()
    for _ in range(24):
        text = " ".join(f"{x:.17g}" for x in _REFERENCE_ROW)
        [float(x) for x in text.split()]
    for _ in range(5):
        shrunk = np.sign(_REFERENCE_DENSE) * \
            np.maximum(np.abs(_REFERENCE_DENSE) - 0.5, 0.0)
        _REFERENCE_DENSE - shrunk
    for _ in range(16):
        q, _ = np.linalg.qr(_REFERENCE_DENSE @ _REFERENCE_THIN)
        np.linalg.svd(q.T @ _REFERENCE_DENSE, full_matrices=False)
    return time.perf_counter() - start


# Bound before any tracing wrapper is installed, so that the harness's own
# reads for its checks never appear as spans.
_load_matrix = datasets.load_matrix

# "full" is what the benchmark measures; "tiny" is for the smoke test. Full
# sizes let four to twenty-five instances fit in one 25 s run on 2 cores
# with one BLAS thread. cpcp-subspace runs at 45^2, not the 60^2 of
# acceptance criterion 07. At 60^2 the 74 MiB basis makes every forward and
# adjoint stream from memory, and the solve time swung by up to 2x with the
# host's memory load. The 24 MiB basis of 45^2 swung far less, and 200 of
# 200 seeded instances met criterion 07's bar; at 40^2 some miss it.
SIZES = {
    "full": {
        "cli-dense": dict(n=500, rank=10, solver_rank=20),
        "rmc-sparse": dict(n=1000, rank=3, obs=0.2),
        "mc-ratings": dict(users=1000, items=500, rank=5, density=0.05),
        "cpcp-subspace": dict(n=45, rank=3),
    },
    "tiny": {
        "cli-dense": dict(n=100, rank=2, solver_rank=6),
        "rmc-sparse": dict(n=150, rank=2, obs=0.5),
        "mc-ratings": dict(users=100, items=60, rank=3, density=0.3),
        "cpcp-subspace": dict(n=40, rank=2),
    },
}


@dataclass
class Outcome:
    """What one instance produced and how long each part took."""

    seed: int
    wall_s: float = 0.0
    setup_s: float = 0.0
    solve_s: float = 0.0
    iterations: int = 0
    relerr: float = 0.0
    auc: float = 0.0
    rmse: float = 0.0
    digest: str = ""
    failure: str | None = None
    facts: dict = field(default_factory=dict)   # per-layer values, not timed


class CheckFailed(Exception):
    pass


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_converged(result):
    check(result.termination == "converged",
          f"solver stopped with {result.termination}")


def digest_arrays(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def digest_files(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def rmse_all(l_hat, l0):
    return float(np.linalg.norm(l_hat - l0) / math.sqrt(l0.size))


# --- workloads ---------------------------------------------------------------
# Each fills an Outcome for one seeded instance and raises CheckFailed when an
# output is wrong. Calls into lowrank go through module attributes, so that
# the tracing wrappers see them. The clock starts at the first lowrank call.


def cli_dense(size, seed, work, out):
    """synth -> rmc -> eval relerr -> eval auc, in-process through cli.main."""
    truth, est = os.path.join(work, "truth"), os.path.join(work, "est")

    def lowrank_cli(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        check(code == 0, f"lowrank {argv[0]} exited with {code}")
        return buf.getvalue()

    def eval_metric(name):
        text = lowrank_cli("eval", "--estimate-dir", est, "--truth-dir", truth,
                           "--metric", name)
        return float(text.strip().rsplit("value=", 1)[1])

    n = str(size["n"])
    solver = Tracer()
    start = time.perf_counter()
    lowrank_cli("synth", "--rows", n, "--cols", n, "--rank", str(size["rank"]),
                "--spike-frac", "0.05", "--obs-frac", "0.7",
                "--seed", str(seed), "--out-dir", truth)
    out.setup_s = time.perf_counter() - start
    # The CLI's solver call, timed by a tracer of its own.
    with solver.installed([("lowrank.cli", "solve_rmc", "rmc.solve_rmc")]):
        lowrank_cli("rmc", "--data", os.path.join(truth, "d_obs.txt"),
                    "--mask", os.path.join(truth, "mask.txt"),
                    "--rank", str(size["solver_rank"]), "--out-dir", est)
    out.solve_s = sum(s.duration for s in solver.spans if s.kind == "call")
    out.iterations = sum(result.iterations for _, _, result in solver.solves)
    out.relerr = eval_metric("relerr")
    out.auc = eval_metric("auc")
    out.wall_s = time.perf_counter() - start
    # Not program work: the harness re-reads the written factors, for an
    # independent check of the printed relerr and the RMSE over all entries.
    l_hat = _load_matrix(os.path.join(est, "U.txt")) @ \
        _load_matrix(os.path.join(est, "V.txt")).T
    l0 = _load_matrix(os.path.join(truth, "l0.txt"))
    relerr = float(np.linalg.norm(l_hat - l0) / np.linalg.norm(l0))
    out.rmse = rmse_all(l_hat, l0)
    out.digest = digest_files(*(os.path.join(est, name)
                                for name in ("U.txt", "V.txt", "S.txt")))
    check(abs(relerr - out.relerr) <= 1e-5 * relerr,
          f"printed relerr {out.relerr} disagrees with the factors ({relerr})")
    check(out.relerr <= RMC_MAX_RELERR, f"relerr {out.relerr:.3e} > {RMC_MAX_RELERR}")
    check(out.auc >= RMC_MIN_AUC, f"auc {out.auc:.4f} < {RMC_MIN_AUC}")


def rmc_sparse(size, seed, work, out):
    """generate_planted -> solve_rmc with the observed-fraction-scaled lambda."""
    n = size["n"]
    start = time.perf_counter()
    prob = datasets.generate_planted(n, n, size["rank"], spike_frac=0.05,
                                     obs_frac=size["obs"], seed=seed)
    observed = prob.mask.marker
    # The default lam="auto" returns L = 0 below about 50% observed, so lambda
    # is passed explicitly, scaled by sqrt(|Omega|/mn). Unscaled by
    # LAMBDA_FACTOR, about 1 instance in 30 misses the relerr bar: a row of L
    # with a large norm is absorbed into S.
    lam = LAMBDA_FACTOR * math.sqrt(n) * math.sqrt(
        np.count_nonzero(observed) / observed.size)
    out.setup_s = time.perf_counter() - start
    res = rmc.solve_rmc(prob.d_obs, prob.mask, SolverConfig(lam=lam, d=10))
    out.solve_s = time.perf_counter() - start - out.setup_s
    out.iterations = res.iterations
    l_hat = res.low_rank()
    out.relerr = metrics.relative_error(l_hat, prob.l0)
    out.auc = metrics.auc(np.abs(res.s[observed]), prob.s0[observed] != 0)
    out.wall_s = time.perf_counter() - start
    out.rmse = rmse_all(l_hat, prob.l0)
    out.digest = digest_arrays(res.u, res.v, res.s)
    check_converged(res)
    check(out.relerr <= RMC_MAX_RELERR, f"relerr {out.relerr:.3e} > {RMC_MAX_RELERR}")
    check(out.auc >= RMC_MIN_AUC, f"auc {out.auc:.4f} < {RMC_MIN_AUC}")


def write_ratings(path, size, seed):
    """Rating triplets from the preference model of
    scripts/run_ratings_benchmark.py. Returns the true ratings of the users
    and items that occur in the file."""
    rng = np.random.default_rng(seed)
    rank = size["rank"]
    profile = rng.standard_normal((size["users"], rank)) @ \
        rng.standard_normal((size["items"], rank)).T
    truth = np.clip(3.0 + profile / np.sqrt(rank), 1.0, 5.0)
    users, items = np.nonzero(rng.random(truth.shape) < size["density"])
    with open(path, "w") as fh:
        fh.writelines(f"{u} {i} {truth[u, i]:.6f}\n" for u, i in zip(users, items))
    # load_ratings maps ids to dense indices in sorted order.
    return truth[np.ix_(np.unique(users), np.unique(items))]


def mc_ratings(size, seed, work, out):
    """load_ratings -> train_matrix -> solve_mc -> rmse on the test split."""
    path = os.path.join(work, "ratings.txt")
    truth = write_ratings(path, size, seed)
    start = time.perf_counter()
    ds = datasets.load_ratings(path, seed=seed)
    train, mask = ds.train_matrix()
    out.setup_s = time.perf_counter() - start
    res = rmc.solve_mc(train, mask,
                       SolverConfig(lam=0.5, d=10, tol=1e-6, max_iter=800))
    out.solve_s = time.perf_counter() - start - out.setup_s
    out.iterations = res.iterations
    pred = res.low_rank()
    test = ds.test
    out.rmse = metrics.rmse(pred, test)
    baseline = metrics.rmse(np.full_like(pred, train[mask.marker].mean()), test)
    out.relerr = metrics.relative_error(pred, truth)
    # Ranking quality: do predictions order liked (> 3) above other ratings?
    out.auc = metrics.auc([pred[u, i] for u, i, _ in test],
                          [r > 3.0 for _, _, r in test])
    out.wall_s = time.perf_counter() - start
    out.digest = digest_arrays(res.u, res.v, res.s)
    check_converged(res)
    check(out.rmse < baseline,
          f"test rmse {out.rmse:.4f} not below the global-mean {baseline:.4f}")


def cpcp_subspace(size, seed, work, out):
    """draw_random_subspace (fresh per instance) -> solve_cpcp, p = 0.75 mn."""
    n, rank = size["n"], size["rank"]
    start = time.perf_counter()
    prob = datasets.generate_planted(n, n, rank, spike_frac=0.05, seed=2 * seed)
    q = measurements.draw_random_subspace(n, n, int(0.75 * n * n), seed=2 * seed + 1)
    y = q.forward(prob.l0 + prob.s0)
    out.setup_s = time.perf_counter() - start
    res = cpcp.solve_cpcp(y, q, SolverConfig(lam=math.sqrt(n), d=2 * rank,
                                             tol=1e-10, max_iter=1000, seed=seed))
    out.solve_s = time.perf_counter() - start - out.setup_s
    out.iterations = res.iterations
    l_hat = res.low_rank()
    out.relerr = metrics.relative_error(l_hat, prob.l0)
    out.auc = metrics.auc(np.abs(res.s), prob.s0 != 0)
    out.wall_s = time.perf_counter() - start
    out.rmse = rmse_all(l_hat, prob.l0)
    out.digest = digest_arrays(res.u, res.v, res.s)
    out.facts["measurements.basis_mib"] = q.basis.nbytes / 2**20
    check_converged(res)
    check(out.relerr <= CPCP_MAX_RELERR, f"relerr {out.relerr:.3e} > {CPCP_MAX_RELERR}")


WORKLOADS = {
    "cli-dense": cli_dense,
    "rmc-sparse": rmc_sparse,
    "mc-ratings": mc_ratings,
    "cpcp-subspace": cpcp_subspace,
}


# --- running ------------------------------------------------------------------


def solver_facts(tracer):
    """Surviving rank and S support on the mask, from the traced solves."""
    facts = {}
    for name, args, result in tracer.solves:
        if name in ("rmc.solve_rmc", "rmc.solve_mc"):
            facts["rmc.final_rank"] = int(np.linalg.matrix_rank(result.v))
        if name == "rmc.solve_rmc":
            marker = args[1].marker
            facts["rmc.s_nnz_frac"] = \
                np.count_nonzero(result.s[marker]) / np.count_nonzero(marker)
    return facts


def run_instance(workload, size, seed, work, tracer=None):
    """Solve one instance; a raised error or failed check becomes its failure."""
    out = Outcome(seed)
    os.makedirs(work)
    try:
        if tracer is None:
            WORKLOADS[workload](size, seed, work, out)
        else:
            with tracer.installed():
                WORKLOADS[workload](size, seed, work, out)
            out.facts.update(solver_facts(tracer))
    except CheckFailed as exc:
        out.failure = str(exc)
    except Exception:  # noqa: BLE001 - one instance failing must not end the run
        out.failure = traceback.format_exc(limit=4)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def summarize(samples):
    """Median, mean, the highest percentile with at least 10 samples beyond
    it, and the sample count."""
    n = len(samples)
    summary = {"median": statistics.median(samples), "mean": statistics.fmean(samples),
               "n": n, "percentile": None, "value": None}
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            summary["percentile"] = p
            summary["value"] = cut[round(p * 10) - 1]
            break
    return summary


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, AttributeError):
        blas_version = "unknown"
    return {
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "python": sys.version.split()[0],
    }


def end_to_end(outcomes, failed, attempted, host_slowdown):
    """End-to-end metrics. Times, in reference seconds, and quality come from
    the instances that passed; with none passed they are null and only
    pass_frac says why."""
    values = {"peak_rss_mib":
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "pass_frac": (attempted - failed) / attempted}
    ok = [o for o in outcomes if o.failure is None]
    if not ok:
        return values | dict.fromkeys(
            ("wall_s", "setup_s", "solve_s", "auc", "relerr_digits", "rmse_digits"))
    # wall_s and solve_s are the mean per instance over the run (the inverse
    # of instances solved per second): on a shared 2-core host an instance
    # runs either fast or about 1.6x slower for seconds at a time, and the
    # median of such a two-level sample jumps between the levels from run to
    # run. Measured medians and tail percentiles are in the record line.
    values.update({name: statistics.fmean(getattr(o, name) for o in ok)
                   / host_slowdown for name in ("wall_s", "solve_s")})
    values["setup_s"] = statistics.median(o.setup_s for o in ok) / host_slowdown
    values["auc"] = statistics.median(o.auc for o in ok)
    # Errors as digits, -log10: the median relerr of CPCP instances at
    # tol=1e-10 moves by a factor of two between seeds, which no relative
    # bound of at most 25% can hold; a tenfold worse error is one digit lost.
    for name in ("relerr", "rmse"):
        values[name + "_digits"] = -math.log10(
            statistics.median(getattr(o, name) for o in ok))
    return values


def per_layer(traced, untraced, tracer):
    per_instance = []
    for index, out in enumerate(traced):
        layers = instance_layers([s for s in tracer.spans if s.instance == index])
        layers.setdefault("rmc.final_rank", 0)
        layers.setdefault("rmc.s_nnz_frac", 0.0)
        layers.setdefault("measurements.basis_mib", 0.0)
        layers.update(out.facts)
        per_instance.append(layers)
    values = {name: statistics.median(layers[name] for layers in per_instance)
              for name in per_instance[0]}
    ratios = [t.wall_s / u.wall_s - 1.0 for t, u in zip(traced, untraced)
              if t.failure is None and u.failure is None]
    values["trace.overhead_frac"] = statistics.median(ratios) if ratios else None
    return values


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)
    if os.path.commonpath([SRC, os.path.realpath(lowrank.__file__)]) != SRC:
        raise SystemExit(f"lowrank imported from {lowrank.__file__}, not {SRC}")

    size = SIZES[args.scale][args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    work_root = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    untraced, traced, reference = [], [], []
    start = time.perf_counter()
    index = 0
    while index < MIN_INSTANCES or time.perf_counter() - start < args.seconds:
        seed = args.seed * 1000 + index
        untraced.append(run_instance(args.workload, size, seed,
                                     os.path.join(work_root, f"{index}-u")))
        if tracer is not None:
            tracer.instance = index
            tracer.solves.clear()
            out = run_instance(args.workload, size, seed,
                               os.path.join(work_root, f"{index}-t"), tracer)
            if out.failure is None and out.digest != untraced[-1].digest:
                out.failure = "traced outputs differ from untraced outputs"
            traced.append(out)
        # After the instance, so that the first instance pays the one-time
        # costs of a cold process as a user's first call would.
        busy = time.perf_counter() - start - sum(reference)
        while sum(reference) < REFERENCE_SHARE * busy:
            reference.append(reference_seconds())
        index += 1
    host_slowdown = statistics.fmean(reference) / REFERENCE_S
    shutil.rmtree(work_root, ignore_errors=True)

    failures = [o for o in untraced + traced if o.failure is not None]
    failed_seeds = {o.seed for o in failures}
    attempted = len(untraced)
    failed = len(failed_seeds)
    timings = {name: summarize([getattr(o, name) for o in untraced])
               for name in ("wall_s", "setup_s", "solve_s")}
    if tracer is None:
        values = end_to_end(untraced, failed, attempted, host_slowdown)
    else:
        values = per_layer(traced, untraced, tracer)
    units = declared_units(args.trace)
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} are "
                         "measured or declared, not both")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "size": size,
        "lowrank": os.path.dirname(lowrank.__file__),
        "environment": environment(),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "cold_wall_s": untraced[0].wall_s,
        "timings": timings,
        "reference_s": reference, "host_slowdown": host_slowdown,
        "instances": [asdict(o) for o in untraced],
        "traced_instances": [asdict(o) for o in traced],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, name + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(OUT_DIR, name + ".spans.jsonl"), "w") as fh:
            for span in tracer.to_records():
                fh.write(json.dumps(span) + "\n")
    for o in failures:
        print(f"instance seed {o.seed} failed: {o.failure}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in (
        "workload", "environment", "attempted", "failed", "failed_frac",
        "cold_wall_s", "timings", "host_slowdown")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
