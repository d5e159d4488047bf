"""Outside-in tracing of the ``lowrank`` package.

The package is measured without changing it: each traced function is
replaced, for the duration of one instance, by a wrapper installed at the
name its caller looks up (``lowrank.rmc.soft_threshold`` is the name
``solve_rmc`` calls, ``lowrank.cli.solve_rmc`` the one the CLI calls). Every
call becomes a span with name, start, end and parent; spans of one solved
instance share the instance id. Solver iterations are marked through the
solvers' public ``iter_callback`` hook. Spans stay in memory until the run
writes them out.
"""

import contextlib
import importlib
import os
import statistics
import time
from dataclasses import asdict, dataclass, field

# (module, attribute, span name). A function imported into several modules is
# listed once per module, because each module looks the name up in its own
# namespace. "Class.method" attributes are patched on the class.
TRACE_TARGETS = [
    ("lowrank.cli", "main", "cli.main"),
    ("lowrank.cli", "cmd_synth", "cli.synth"),
    ("lowrank.cli", "cmd_solve", "cli.rmc"),
    ("lowrank.cli", "cmd_eval", "cli.eval"),
    ("lowrank.cli", "generate_planted", "datasets.generate_planted"),
    ("lowrank.cli", "save_matrix", "datasets.save_matrix"),
    ("lowrank.cli", "load_matrix", "datasets.load_matrix"),
    ("lowrank.cli", "save_mask", "measurements.save_mask"),
    ("lowrank.cli", "load_mask", "measurements.load_mask"),
    ("lowrank.cli", "draw_random_subspace", "measurements.draw_random_subspace"),
    ("lowrank.cli", "solve_rmc", "rmc.solve_rmc"),
    ("lowrank.cli", "solve_mc", "rmc.solve_mc"),
    ("lowrank.cli", "solve_cpcp", "cpcp.solve_cpcp"),
    ("lowrank.cli", "relative_error", "metrics.relative_error"),
    ("lowrank.cli", "auc", "metrics.auc"),
    ("lowrank.cli", "rmse", "metrics.rmse"),
    ("lowrank.cli", "write_trace_csv", "config.write_trace_csv"),
    ("lowrank.datasets", "generate_planted", "datasets.generate_planted"),
    ("lowrank.datasets", "load_ratings", "datasets.load_ratings"),
    ("lowrank.datasets", "RatingDataset.train_matrix", "datasets.train_matrix"),
    ("lowrank.datasets", "mask_project", "measurements.mask_project"),
    ("lowrank.rmc", "solve_rmc", "rmc.solve_rmc"),
    ("lowrank.rmc", "solve_mc", "rmc.solve_mc"),
    ("lowrank.rmc", "orthonormal_factor", "rmc.orthonormal_factor"),
    ("lowrank.rmc", "nuclear_norm", "rmc.nuclear_norm"),
    ("lowrank.rmc", "adjust_rank_once", "rmc.adjust_rank_once"),
    ("lowrank.rmc", "check_matrix", "linalg.check_matrix"),
    ("lowrank.rmc", "qr_thin", "linalg.qr_thin"),
    ("lowrank.rmc", "svd_thin", "linalg.svd_thin"),
    ("lowrank.rmc", "mask_project", "measurements.mask_project"),
    ("lowrank.rmc", "soft_threshold", "prox.soft_threshold"),
    ("lowrank.rmc", "svt", "prox.svt"),
    ("lowrank.cpcp", "solve_cpcp", "cpcp.solve_cpcp"),
    ("lowrank.cpcp", "data_fit_gradient", "cpcp.data_fit_gradient"),
    ("lowrank.cpcp", "spectral_norm", "linalg.spectral_norm"),
    ("lowrank.cpcp", "orthonormal_factor", "rmc.orthonormal_factor"),
    ("lowrank.cpcp", "nuclear_norm", "rmc.nuclear_norm"),
    ("lowrank.cpcp", "soft_threshold", "prox.soft_threshold"),
    ("lowrank.cpcp", "svt", "prox.svt"),
    ("lowrank.prox", "check_matrix", "linalg.check_matrix"),
    ("lowrank.prox", "svd_thin", "linalg.svd_thin"),
    ("lowrank.linalg", "check_matrix", "linalg.check_matrix"),
    ("lowrank.measurements", "check_matrix", "linalg.check_matrix"),
    ("lowrank.measurements", "qr_thin", "linalg.qr_thin"),
    ("lowrank.measurements", "mask_project", "measurements.mask_project"),
    ("lowrank.measurements", "draw_random_subspace",
     "measurements.draw_random_subspace"),
    ("lowrank.measurements", "SubspaceOperator.forward", "measurements.forward"),
    ("lowrank.measurements", "SubspaceOperator.adjoint", "measurements.adjoint"),
    ("lowrank.metrics", "relative_error", "metrics.relative_error"),
    ("lowrank.metrics", "auc", "metrics.auc"),
    ("lowrank.metrics", "rmse", "metrics.rmse"),
]

SOLVERS = ("rmc.solve_rmc", "rmc.solve_mc", "cpcp.solve_cpcp")

# Spans whose first argument is a file path; its size is recorded.
FILE_SPANS = {
    "datasets.save_matrix": "bytes_written",
    "datasets.load_matrix": "bytes_read",
    "datasets.load_ratings": "bytes_read",
}


@dataclass
class Span:
    id: int
    parent: int | None
    instance: int
    name: str
    start: float
    end: float = 0.0
    kind: str = "call"       # "call" or "iteration" (a solver's iteration mark)
    size: int = 0            # bytes of the file a FILE_SPANS call touched

    @property
    def duration(self):
        return self.end - self.start


@dataclass
class Tracer:
    """Span recorder. ``instance`` tags new spans; ``solves`` keeps
    (span name, arguments, result) of every traced solver call, so the
    harness can inspect the factors a solver returned inside the CLI."""

    spans: list[Span] = field(default_factory=list)
    instance: int = 0
    solves: list = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self.instance, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        size_key = FILE_SPANS.get(name)
        is_solver = name in SOLVERS

        def traced(*args, **kwargs):
            span = self._open(name)
            if is_solver:
                kwargs["iter_callback"] = self._marker(
                    span, kwargs.get("iter_callback"))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if size_key is not None:
                span.size = os.path.getsize(args[0])
            if is_solver:
                self.solves.append((name, args, result))
            return result

        return traced

    def _marker(self, solver_span, user_callback):
        """iter_callback that closes one iteration span per call."""
        last = [solver_span.start]

        def mark(*args):
            now = time.perf_counter()
            self.spans.append(Span(len(self.spans), solver_span.id,
                                   self.instance, solver_span.name + ".iteration",
                                   last[0], now, kind="iteration"))
            last[0] = now
            if user_callback is not None:
                user_callback(*args)

        return mark

    @contextlib.contextmanager
    def installed(self, targets=TRACE_TARGETS):
        """Install a wrapper for each (module, attribute, span name) target;
        restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name in targets:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def to_records(self):
        return [asdict(s) for s in self.spans]


def _self_times(spans):
    """Span id -> duration minus the time its child calls cover."""
    child_time = {}
    for s in spans:
        if s.parent is not None and s.kind == "call":
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}


def _under(span, ancestor_names, by_id):
    parent = span.parent
    while parent is not None:
        if by_id[parent].name in ancestor_names:
            return True
        parent = by_id[parent].parent
    return False


def instance_layers(spans):
    """Per-layer numbers of one traced instance, from its spans.

    ``*_ms`` is the mean inclusive time per call, ``*_s`` the inclusive time
    summed over the instance, ``*_per_iter`` divides by solver iterations.
    A layer the workload never calls reads 0.

    ``rmc.self_ms_per_iter`` and ``cpcp.self_ms_per_iter`` are the solver
    body between traced calls. They bundle phases that only spans inside the
    solver could split: forming P, the P V and P^T U products, the residual,
    the dual update and the l1 part of the objective.
    """
    by_id = {s.id: s for s in spans}
    self_time = _self_times(spans)
    calls = [s for s in spans if s.kind == "call"]

    def total(name):
        return sum(s.duration for s in calls if s.name == name)

    def per_call_ms(name):
        n = sum(1 for s in calls if s.name == name)
        return 1e3 * total(name) / n if n else 0.0

    def iterations(solvers):
        return [s for s in spans if s.kind == "iteration"
                and s.name.rsplit(".", 1)[0] in solvers]

    def self_s(names):
        return sum(self_time[s.id] for s in calls if s.name in names)

    rmc_solvers = ("rmc.solve_rmc", "rmc.solve_mc")
    rmc_iters = iterations(rmc_solvers)
    cpcp_iters = iterations(("cpcp.solve_cpcp",))

    def cpcp_calls_per_iter(name):
        if not cpcp_iters:
            return 0.0
        n = sum(1 for s in calls
                if s.name == name and _under(s, ("cpcp.solve_cpcp",), by_id))
        return n / len(cpcp_iters)

    def iter_ms(iters):
        return 1e3 * statistics.median(s.duration for s in iters) if iters else 0.0

    def self_ms_per_iter(solvers, iters):
        return 1e3 * self_s(solvers) / len(iters) if iters else 0.0

    return {
        "rmc.iterations": len(rmc_iters),
        "rmc.iter_ms_p50": iter_ms(rmc_iters),
        "rmc.self_ms_per_iter": self_ms_per_iter(rmc_solvers, rmc_iters),
        "rmc.orthonormal_factor_ms": per_call_ms("rmc.orthonormal_factor"),
        "rmc.nuclear_norm_ms": per_call_ms("rmc.nuclear_norm"),
        "prox.svt_ms": per_call_ms("prox.svt"),
        "prox.soft_threshold_ms": per_call_ms("prox.soft_threshold"),
        "linalg.qr_thin_ms": per_call_ms("linalg.qr_thin"),
        "linalg.svd_thin_ms": per_call_ms("linalg.svd_thin"),
        "linalg.check_matrix_ms": per_call_ms("linalg.check_matrix"),
        "linalg.spectral_norm_ms": per_call_ms("linalg.spectral_norm"),
        "measurements.forward_calls_per_iter":
            cpcp_calls_per_iter("measurements.forward"),
        "measurements.adjoint_calls_per_iter":
            cpcp_calls_per_iter("measurements.adjoint"),
        "measurements.forward_ms": per_call_ms("measurements.forward"),
        "measurements.adjoint_ms": per_call_ms("measurements.adjoint"),
        "measurements.draw_subspace_s": total("measurements.draw_random_subspace"),
        "measurements.mask_project_ms": per_call_ms("measurements.mask_project"),
        "measurements.save_mask_s": total("measurements.save_mask"),
        "measurements.load_mask_s": total("measurements.load_mask"),
        "cpcp.iterations": len(cpcp_iters),
        "cpcp.iter_ms_p50": iter_ms(cpcp_iters),
        "cpcp.self_ms_per_iter": self_ms_per_iter(("cpcp.solve_cpcp",), cpcp_iters),
        "cpcp.data_fit_gradient_ms": per_call_ms("cpcp.data_fit_gradient"),
        "datasets.generate_planted_s": total("datasets.generate_planted"),
        "datasets.save_matrix_s": total("datasets.save_matrix"),
        "datasets.load_matrix_s": total("datasets.load_matrix"),
        "datasets.bytes_written": sum(
            s.size for s in calls if FILE_SPANS.get(s.name) == "bytes_written"),
        "datasets.bytes_read": sum(
            s.size for s in calls if FILE_SPANS.get(s.name) == "bytes_read"),
        "datasets.load_ratings_s": total("datasets.load_ratings"),
        "datasets.train_matrix_s": total("datasets.train_matrix"),
        "metrics.relative_error_ms": per_call_ms("metrics.relative_error"),
        "metrics.auc_ms": per_call_ms("metrics.auc"),
        "metrics.rmse_ms": per_call_ms("metrics.rmse"),
        "cli.synth_s": total("cli.synth"),
        "cli.rmc_s": total("cli.rmc"),
        "cli.eval_s": total("cli.eval"),
        "cli.self_s": self_s(("cli.main", "cli.synth", "cli.rmc", "cli.eval")),
        "config.write_trace_csv_s": total("config.write_trace_csv"),
    }
