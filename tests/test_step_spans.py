"""The completion driver's Omega step, run in spans of Omega.

``_admm`` calls the step once per span of at most STEP_ENTRIES entries, so
that the vectors it streams stay in cache. Every operation of the step is
elementwise, so the iterates, the multiplier, the residuals, the penalty,
the rank and the stop tests do not depend on the spans; only the data term
of the objective, a sum of one dot product per span, may move in its last
bits. Each instance here has more than STEP_ENTRIES observed entries and is
solved twice: with the default spans, and with STEP_ENTRIES at |Omega|, the
one-span path.
"""

import math

import numpy as np
import pytest

from lowrank import rmc
from lowrank.config import SolverConfig
from lowrank.datasets import generate_planted
from lowrank.rmc import SPARSE_DENSITY, STEP_ENTRIES, _spans

OBJECTIVE_RTOL = 1e-12


@pytest.mark.parametrize("size", [1, STEP_ENTRIES - 1, STEP_ENTRIES,
                                  STEP_ENTRIES + 1, 3 * STEP_ENTRIES + 17])
def test_spans_tile_omega_in_order(size):
    spans = _spans(size)
    assert spans[0].start == 0 and spans[-1].stop == size
    for span, after in zip(spans, spans[1:]):
        assert span.stop == after.start
    for span in spans:
        assert span.step is None
        assert 0 < span.stop - span.start <= STEP_ENTRIES
    assert len(spans) == math.ceil(size / STEP_ENTRIES)


def planted(n, obs_frac, spike_frac, seed):
    p = generate_planted(n, n, 3, spike_frac=spike_frac, obs_frac=obs_frac,
                         seed=seed)
    return p, p.mask.dim < SPARSE_DENSITY * n * n


def rmc_instance(n, obs_frac):
    p, sparse = planted(n, obs_frac, 0.05, 7)
    cfg = SolverConfig(lam=0.7 * math.sqrt(n * obs_frac), d=6)
    return (lambda: rmc.solve_rmc(p.d_obs, p.mask, cfg)), p.mask.dim, sparse


def rpca_instance(n):
    p, _ = planted(n, 1.0, 0.05, 8)
    return (lambda: rmc.solve_rpca(p.d_obs, SolverConfig(d=6))), n * n, False


def mc_instance(n, obs_frac):
    p, sparse = planted(n, obs_frac, 0.0, 9)
    cfg = SolverConfig(lam=1.0, d=6)
    return (lambda: rmc.solve_mc(p.d_obs, p.mask, cfg)), p.mask.dim, sparse


# (instance, whether E takes the CSR layout)
INSTANCES = {
    "rmc-csr": (lambda: rmc_instance(450, 0.2), True),
    "rmc-dense": (lambda: rmc_instance(250, 0.7), False),
    "rpca": (lambda: rpca_instance(200), False),
    "mc-csr": (lambda: mc_instance(450, 0.2), True),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_spans_leave_the_iterate_path_unchanged(monkeypatch, name):
    make, csr = INSTANCES[name]
    solve, omega_size, sparse = make()
    assert sparse == csr
    assert omega_size > STEP_ENTRIES
    spanned = solve()
    monkeypatch.setattr(rmc, "STEP_ENTRIES", omega_size)
    whole = solve()
    for field in ("u", "v", "s", "y"):
        assert getattr(spanned, field).tobytes() == \
            getattr(whole, field).tobytes(), field
    assert (spanned.termination, spanned.stop_test) == \
        (whole.termination, whole.stop_test)
    assert len(spanned.trace) == len(whole.trace) >= 10
    for got, want in zip(spanned.trace, whole.trace):
        assert (got.residual, got.alpha, got.rank, got.stop_ratio) == \
            (want.residual, want.alpha, want.rank, want.stop_ratio)
        assert got.objective == pytest.approx(want.objective,
                                              rel=OBJECTIVE_RTOL)
