"""Solver configuration and result containers shared by all solvers."""

import csv
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


# Robust completion's and CPCP's "auto" alpha0 is this multiple of lambda /
# ||D||_2, the 2-norm of the data: D on Omega, or A^T y for CPCP's
# measurements y. Its first threshold lambda / alpha0, 2 ||D||_2, lies just
# above every singular value of E^T U (for CPCP, of its first product-step
# target A^T y), below which V stays zero; the Frobenius start 1 / ||D||_F
# puts it at lambda ||D||_F, and the first iterations only lower it. Median
# iterations, then median / max relerr of L, for the Frobenius start,
# c = 0.5 and c = 1, from the range finder's U (one BLAS thread of a 2-core
# Xeon, 5% spikes):
# - 500^2, rank 10, 70% observed, auto lambda, d = 20, seeds 1-16: 66, 30 and
#   24 iterations; 8.6e-5 / 1.2e-4, 8.9e-5 / 1.2e-4 and 9.6e-5 / 1.1e-4;
# - 1000^2, rank 3, 20% observed, lambda = 0.7 sqrt(n |Omega| / mn), d = 10,
#   seeds 1-16: 95, 74.5 and 65 iterations; 1.1e-4 / 1.2e-4, 1.2e-4 /
#   1.2e-4 and 1.1e-4 / 1.2e-4;
# - 250^2, rank 3, 20% observed, d = 6, seeds 100-199: the runs above
#   relerr 1e-3 at c = 0.5, 0.75, 1, 1.25 and 1.5 are 9, 12, 9, 20 and 43
#   with lambda = 0.7 sqrt(50), not monotone in c, and 8, 10, 10, 17 and 45
#   with the lambda above (other hardware read 7, 13, 7, 17 and 42 with
#   0.7 sqrt(50)): single seeds here turn on rounding and on lambda.
# CPCP, rank 3, 5% spikes, d = 6, lambda = sqrt(n), tol 1e-10, U from eye:
# - 45^2, p = 0.75 mn, seeds 1000-1039 drawn as perfbench's cpcp-subspace
#   draws them: 63 iterations (14 with V = 0) from 1 / ||y||; 49, 46 (4 with
#   V = 0), 44 and 42 at c = 0.35, 0.5, 0.7 and 1; no run above relerr 1e-3
#   on either side, median 1.15e-5 from 1 / ||y|| and 1.02e-5 at c = 0.5.
#   Drawn as criterion 07 draws its instances (planted seed s, subspace
#   seed s + 100), seed 1000, 99 iterations and relerr 6.3e-6 from
#   1 / ||y||, ends converged at relerr 1.2e-4, 1.9e-3, 3.8e-3 and 9.7e-4
#   at c = 0.35, 0.5, 0.7 and 1;
# - 30^2, p = 675, seeds 1-60, drawn as criterion 07 draws them: 66
#   iterations from 1 / ||y||; 55, 52, 50 and 48 at c = 0.35, 0.5, 0.7 and
#   1; the same 10 seeds end above relerr 1e-3 from every start, none above
#   5e-2.
# c stays 0.5: c = 1 ties c = 0.5 at 250^2 with lambda = 0.7 sqrt(50), but
# as a point on a jagged curve, not a margin, and no stop at c = 1 has been
# checked against the KKT residuals or a convex reference, as any faster
# penalty schedule must be.
# Plain completion keeps the Frobenius start: on the benchmark's ratings
# (1000 x 500, 5% observed, lambda = 0.5, seeds 1-3) c = 1 cut 90 to 83
# iterations and raised the test RMSE from 0.27-0.30 to 0.37-0.39.
SPECTRAL_START = 0.5


def _outside_stacklevel():
    """The ``stacklevel`` with which a warning raised in the caller of this
    function names the first frame outside the package and ``dataclasses``:
    the line that made the config, directly or by ``dataclasses.replace``."""
    package = __name__.rpartition(".")[0] + "."
    level = 2
    frame = sys._getframe(level)
    while frame is not None and frame.f_globals.get(
            "__name__", "").startswith((package, "dataclasses")):
        frame = frame.f_back
        level += 1
    return level


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings, validated when made. A config is frozen: derive a
    variant with ``dataclasses.replace``, which validates it again."""

    lam: float | str = "auto"        # regularizer; "auto" -> sqrt(max(m, n))
    d: int = 10                      # initial rank bound
    # penalty growth factor, (1.0, 1.1] advised; validate gives the
    # measured cliff above 1.1
    rho: float = 1.1
    # initial penalty; "auto" -> 0.5 lam / ||data||_2 for RMC, RPCA and
    # CPCP (whose data is A^T y), 1 / ||data||_F for MC (resolve_alpha0)
    alpha0: float | str = "auto"
    alpha_max: float = 1e10
    tol: float = 1e-4                # relative stopping tolerance
    max_iter: int = 500
    adjust_rank: bool = False
    # No solver reads seed; it stays because perfbench/run.py passes seed=.
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        # numpy numbers are numbers; a bool is neither a number nor "auto"
        for names, kind, what in (
                (("d", "max_iter", "seed"), numbers.Integral, "an integer"),
                (("rho", "alpha_max", "tol"), numbers.Real, "a number"),
                (("lam", "alpha0"), (numbers.Real, str), 'a number or "auto"')):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kind) or \
                        isinstance(value, str) and value != "auto":
                    raise ValueError(f"{name} must be {what}, got {value!r}")
        if not isinstance(self.adjust_rank, (bool, np.bool_)):
            raise ValueError(
                f"adjust_rank must be True or False, got {self.adjust_rank!r}")
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
            # Past 1.1 the fixed schedule has a cliff that the stop does not
            # see. Measured on the benchmark's instance shapes, one BLAS
            # thread:
            # - rmc-sparse (1000^2, 20% observed, d = 10,
            #   lam = 0.7 sqrt(n |Omega| / mn)): 1.1 -> 1.2 cuts the median
            #   from 78 to 57 iterations, but at 1.2 seed 2024 ends at relerr
            #   1.9e-3 labelled converged, 1 of seeds 2000-2049 (all 50 meet
            #   relerr 1e-3 at 1.1); 1.25 misses it on 4 of 30 seeds and 1.3
            #   on 12 of 12;
            # - cpcp-subspace (45^2, p = 0.75 mn): at 1.2 seed 1013 ends at
            #   relerr 5.8e-2 labelled converged, 1 of 30 seeds;
            # - cli-dense (500^2, 70% observed): 24 of 24 seeds pass at
            #   every rho up to 1.25.
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

    def resolve_alpha0(self, data_norm, lam=None, data_norm_2=None):
        """The initial penalty. A numeric alpha0 is returned as given.
        "auto" is 1 for zero data (``data_norm``, the data's Frobenius norm,
        is 0). Otherwise, given ``data_norm_2``, a function that returns the
        data's 2-norm and is called only when needed, it is SPECTRAL_START *
        ``lam`` / that norm where that is positive and finite; failing that,
        1 / ``data_norm``. Every "auto" start is at most alpha_max, so the
        penalty never falls. RMC, RPCA and CPCP pass ``data_norm_2``, of D
        on Omega and of A^T y for CPCP's measurements y, so their "auto" is
        spectral; MC passes none."""
        if self.alpha0 != "auto":
            return float(self.alpha0)
        if not data_norm > 0:
            return min(1.0, self.alpha_max)
        if data_norm_2 is not None:
            spectral = SPECTRAL_START * lam / data_norm_2()
            if 0 < spectral < math.inf:
                return min(spectral, self.alpha_max)
        return min(1.0 / data_norm, self.alpha_max)


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
    # The test that ended a converged run: "residual", "product_change" (MC)
    # or "step_ratio" (CPCP); None when the run reached max_iter.
    stop_test: str | None = None

    @property
    def iterations(self):
        return len(self.trace)

    def low_rank(self):
        return self.u @ self.v.T


def write_trace_csv(path, trace):
    """One header for every solver; a ratio or rank not recorded is blank."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "residual", "objective", "alpha", "d",
                         "stop_ratio", "rank"])
        for rec in trace:
            ratio = rec.stop_ratio
            writer.writerow([
                rec.iteration,
                f"{rec.residual:.17g}",
                f"{rec.objective:.17g}",
                f"{rec.alpha:.17g}",
                rec.d,
                "" if ratio is None else f"{ratio:.17g}",
                "" if rec.rank is None else rec.rank,
            ])
