"""Solver configuration and result containers shared by all solvers."""

import csv
import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property

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
        # Each test is written so that NaN, which fails every comparison,
        # fails it too. tol, rho and a numeric alpha0 must also be finite:
        # an infinite one ends the run at once labelled converged. An
        # infinite lam (L = 0 is then the optimum) or alpha_max (no cap) is
        # a legal setting.
        if not self.d >= 1:
            raise ValueError(f"rank bound d must be >= 1, got {self.d}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not math.isfinite(self.tol):
            raise ValueError(f"tol must be finite, got {self.tol}")
        if self.lam != "auto" and not self.lam >= 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not math.isfinite(self.rho):
            raise ValueError(f"rho must be finite, got {self.rho}")
        if not self.alpha_max > 0:
            raise ValueError(f"alpha_max must be positive, got {self.alpha_max}")
        if self.alpha0 != "auto":
            if not self.alpha0 > 0:
                raise ValueError(f"alpha0 must be positive, got {self.alpha0}")
            if not math.isfinite(self.alpha0):
                raise ValueError(f"alpha0 must be finite, got {self.alpha0}")
            if not self.alpha_max >= self.alpha0:
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
    rank: int | None = None          # rank of V after thresholding


class Iterate:
    """One iteration of a solver, as ``iter_callback`` receives it.

    ``record`` is the ``IterationRecord`` just appended to the trace, and
    ``u`` and ``v`` are the new factors. The rest is formed on first read and
    cached, so a callback pays only for what it reads:

    - ``s``: the m x n sparse part, whose entries off Omega are the exact
      fill-in -U V^T (MC gives its auxiliary matrix Z);
    - ``y``: the multiplier as in ``SolveResult.y``, m x n for RMC, RPCA and
      MC and a length-p vector for CPCP;
    - ``support``: the number of nonzero entries of S on Omega (of S for
      CPCP; 0 for MC, whose S is zero).

    The solver's buffers behind these are overwritten by its next iteration,
    so once the callback has returned, reading one that the callback did not
    read raises ``RuntimeError``. Arrays the callback did read are its own.
    ``forms`` maps each of the three names to a function of the view that
    forms the value.
    """

    def __init__(self, record, u, v, forms):
        self.record = record
        self.u = u
        self.v = v
        self._forms = forms

    def pass_to(self, callback):
        """Call ``callback(self)``; when it returns, the view stops forming."""
        try:
            callback(self)
        finally:
            self._forms = None

    def _form(self, name):
        if self._forms is None:
            raise RuntimeError(
                f"Iterate.{name} of iteration {self.record.iteration} was not "
                "read during the callback, and the solver has moved on")
        return self._forms[name](self)

    @cached_property
    def s(self):
        return self._form("s")

    @cached_property
    def y(self):
        return self._form("y")

    @cached_property
    def support(self):
        return self._form("support")


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
    cols.append("rank")
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
            row.append("" if rec.rank is None else rec.rank)
            writer.writerow(row)
