"""Solver configuration and result containers shared by all solvers."""

import csv
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np


def _outside_stacklevel():
    """The ``stacklevel`` with which a warning raised in the caller of this
    function names the first frame outside the package: the line that called
    into it, however many package frames (solver, driver) lie between."""
    package = __name__.rpartition(".")[0] + "."
    level = 2
    frame = sys._getframe(level)
    while frame is not None and \
            frame.f_globals.get("__name__", "").startswith(package):
        frame = frame.f_back
        level += 1
    return level


@dataclass
class SolverConfig:
    lam: float | str = "auto"        # regularizer; "auto" -> sqrt(max(m, n))
    d: int = 10                      # initial rank bound
    rho: float = 1.1                 # penalty growth factor, (1.0, 1.1] advised
    alpha0: float | str = "auto"     # initial penalty; "auto" -> 1 / ||data||
    alpha_max: float = 1e10
    tol: float = 1e-4                # relative stopping tolerance
    max_iter: int = 500
    adjust_rank: bool = False
    # No solver reads seed; it stays because perfbench/run.py passes seed=.
    seed: int = 0

    def validate(self):
        if self.d < 1:
            raise ValueError(f"rank bound d must be >= 1, got {self.d}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.lam != "auto" and self.lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
        if self.alpha0 != "auto":
            if self.alpha0 <= 0:
                raise ValueError(f"alpha0 must be positive, got {self.alpha0}")
            if self.alpha_max < self.alpha0:
                raise ValueError(
                    f"alpha_max {self.alpha_max} < alpha0 {self.alpha0}"
                )
        if not 1.0 < self.rho <= 1.1:
            # Guideline from the penalty-schedule heuristic, not a hard bound.
            warnings.warn(
                f"rho={self.rho} outside (1.0, 1.1]; the penalty schedule is "
                "usually run with a growth factor in that range",
                stacklevel=_outside_stacklevel(),
            )

    def check_rank_bound(self, m, n):
        if self.d > min(m, n):
            raise ValueError(
                f"rank bound d={self.d} exceeds min(m, n)={min(m, n)}")

    def resolve_lambda(self, m, n):
        return math.sqrt(max(m, n)) if self.lam == "auto" else float(self.lam)

    def resolve_alpha0(self, data_norm):
        if self.alpha0 != "auto":
            return float(self.alpha0)
        return 1.0 / data_norm if data_norm > 0 else 1.0


@dataclass
class IterationRecord:
    iteration: int
    residual: float
    objective: float
    alpha: float
    d: int
    stop_ratio: float | None = None


@dataclass
class SolveResult:
    u: np.ndarray
    v: np.ndarray
    s: np.ndarray
    y: np.ndarray                    # matrix (RMC/MC) or vector (CPCP) multiplier
    trace: list[IterationRecord] = field(default_factory=list)
    termination: str = "max_iter_reached"   # "converged" | "max_iter_reached"

    @property
    def iterations(self):
        return len(self.trace)

    def low_rank(self):
        return self.u @ self.v.T


def write_trace_csv(path, trace, include_ratio=False):
    cols = ["iter", "residual", "objective", "alpha", "d"]
    if include_ratio:
        cols.append("stop_ratio")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for rec in trace:
            row = [
                rec.iteration,
                f"{rec.residual:.17g}",
                f"{rec.objective:.17g}",
                f"{rec.alpha:.17g}",
                rec.d,
            ]
            if include_ratio:
                ratio = rec.stop_ratio
                row.append("" if ratio is None else f"{ratio:.17g}")
            writer.writerow(row)
