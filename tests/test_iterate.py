"""The ``Iterate`` view that every solver passes to ``iter_callback``.

The view holds the record just appended and the new factors; the m x n S and
Y and the support count are formed only when read. A callback that reads
nothing must leave the run bit-identical to one without a callback and must
not raise its memory peak, values read during the callback stay the
callback's own, and values not read cannot be formed once the solver has
moved on. The record's ``rank`` is the rank of V after thresholding.
"""

import csv
import tracemalloc

import numpy as np
import pytest

from lowrank.cli import main
from lowrank.config import SolverConfig
from lowrank.cpcp import solve_cpcp
from lowrank.datasets import generate_planted
from lowrank.measurements import ObservationMask
from lowrank.rmc import SPARSE_DENSITY, solve_mc, solve_rmc, solve_rpca

# Observed fractions above and below SPARSE_DENSITY: dense-buffer and CSR path.
DENSE_OBS, CSR_OBS = 0.5, 0.15


def planted(obs_frac, spike_frac=0.1, seed=5):
    p = generate_planted(80, 60, 3, spike_frac=spike_frac, obs_frac=obs_frac,
                         seed=seed)
    if obs_frac < 1.0:
        density = p.mask.dim / (80 * 60)
        assert (density < SPARSE_DENSITY) == (obs_frac == CSR_OBS), density
    return p


def rmc_run(obs_frac):
    p = planted(obs_frac)
    cfg = SolverConfig(lam=0.7 * np.sqrt(80 * obs_frac), d=5)
    return p.mask, lambda cb: solve_rmc(p.d_obs, p.mask, cfg, iter_callback=cb)


def mc_run(obs_frac):
    p = planted(obs_frac, spike_frac=0.0)
    cfg = SolverConfig(lam=0.1, d=5, tol=1e-6, max_iter=300)
    return p.mask, lambda cb: solve_mc(p.d_obs, p.mask, cfg, iter_callback=cb)


def rpca_run():
    p = planted(1.0)
    cfg = SolverConfig(d=5)
    return (ObservationMask.full(80, 60),
            lambda cb: solve_rpca(p.d_obs, cfg, iter_callback=cb))


def cpcp_run():
    p = planted(DENSE_OBS)
    cfg = SolverConfig(lam=2.0, d=4, max_iter=40)
    y = p.mask.forward(p.d_obs)
    return None, lambda cb: solve_cpcp(y, p.mask, cfg, iter_callback=cb)


RUNS = {
    "rmc dense": lambda: rmc_run(DENSE_OBS),
    "rmc csr": lambda: rmc_run(CSR_OBS),
    "rpca": rpca_run,
    "mc dense": lambda: mc_run(DENSE_OBS),
    "mc csr": lambda: mc_run(CSR_OBS),
    "cpcp": cpcp_run,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_callback_that_reads_nothing_leaves_run_bit_identical(name):
    _, run = RUNS[name]()
    plain = run(None)
    calls = []
    watched = run(calls.append)
    assert len(calls) == watched.iterations >= 10
    for attr in ("u", "v", "s", "y"):
        np.testing.assert_array_equal(getattr(watched, attr),
                                      getattr(plain, attr), err_msg=attr)
    assert watched.trace == plain.trace
    assert watched.termination == plain.termination
    assert [it.record for it in calls] == plain.trace


@pytest.mark.parametrize("name", sorted(RUNS))
def test_rank_is_the_rank_of_v(name):
    _, run = RUNS[name]()
    ranks = []

    def check(it):
        assert it.record.rank == np.linalg.matrix_rank(it.v), \
            f"iteration {it.record.iteration}"
        ranks.append(it.record.rank)

    res = run(check)
    assert ranks == [rec.rank for rec in res.trace]
    assert res.trace[-1].rank == np.linalg.matrix_rank(res.v)
    assert 0 < res.trace[-1].rank <= res.trace[-1].d


@pytest.mark.parametrize("name", sorted(RUNS))
def test_support_counts_nonzero_sparse_part(name):
    mask, run = RUNS[name]()
    counts = []

    def check(it):
        if name.startswith("mc"):
            want = 0        # MC has no sparse part; its ``s`` is Z
        elif mask is None:
            want = np.count_nonzero(it.s)
        else:
            want = np.count_nonzero(it.s.reshape(-1)[mask.flat_indices])
        assert it.support == want
        counts.append(it.support)

    res = run(check)
    assert len(counts) == res.iterations
    if not name.startswith("mc"):
        assert max(counts) > 0, "S is zero at every iteration"


def keep(snaps, it, read):
    for attr in read:
        getattr(it, attr)
    snaps.append((it, read))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_unread_values_cannot_be_formed_after_return(name):
    _, run = RUNS[name]()
    snaps = []
    patterns = [(), ("s",), ("y",), ("support",), ("s", "y", "support")]
    res = run(lambda it: keep(snaps, it, patterns[len(snaps) % len(patterns)]))
    assert len(snaps) == res.iterations
    for it, read in snaps:
        for attr in ("s", "y", "support"):
            if attr in read:
                getattr(it, attr)
            else:
                with pytest.raises(RuntimeError, match="not read"):
                    getattr(it, attr)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_arrays_read_in_callback_stay_unchanged(name):
    _, run = RUNS[name]()
    snaps = []

    def grab(it):
        assert it.s is it.s and it.y is it.y   # formed once, then cached
        snaps.append((it.s, it.s.copy(), it.y, it.y.copy()))

    res = run(grab)
    assert len(snaps) == res.iterations
    for k, (s, s_then, y, y_then) in enumerate(snaps, start=1):
        np.testing.assert_array_equal(s, s_then, err_msg=f"S of {k}")
        np.testing.assert_array_equal(y, y_then, err_msg=f"Y of {k}")


def peak_with_noop_callback(solve, d_obs, mask):
    cfg = SolverConfig(lam=1.0, d=5, max_iter=5)
    tracemalloc.start()
    try:
        res = solve(d_obs, mask, cfg, iter_callback=lambda it: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.iterations == 5
    return peak


@pytest.mark.parametrize("solve", [solve_mc, solve_rmc])
def test_noop_callback_keeps_csr_path_peak(solve):
    # the no-callback bound: the dense S and Y of the result, 2 * 8mn bytes,
    # plus O(|Omega|) vectors
    m, n = 2000, 1000
    rng = np.random.default_rng(3)
    d_obs = rng.standard_normal((m, 3)) @ rng.standard_normal((n, 3)).T
    mask = ObservationMask(rng.random((m, n)) < 0.01)
    assert mask.dim < SPARSE_DENSITY * m * n
    peak = peak_with_noop_callback(solve, d_obs, mask)
    assert peak < 2.5 * 8 * m * n, peak / (8 * m * n)


@pytest.mark.parametrize("solve", [solve_mc, solve_rmc])
def test_noop_callback_keeps_dense_path_peak(solve):
    # the no-callback bound: the dense buffer of E and the result's S and Y,
    # 3 * 8mn bytes, plus Omega vectors
    m, n = 1000, 600
    rng = np.random.default_rng(3)
    d_obs = rng.standard_normal((m, 3)) @ rng.standard_normal((n, 3)).T
    mask = ObservationMask(rng.random((m, n)) < 0.5)
    assert mask.dim >= SPARSE_DENSITY * m * n
    peak = peak_with_noop_callback(solve, d_obs, mask)
    assert peak < 7.5 * 8 * m * n, peak / (8 * m * n)


def test_cli_reports_final_rank(tmp_path, capsys):
    truth = tmp_path / "truth"
    est = tmp_path / "est"
    assert main(["synth", "--rows", "40", "--cols", "40", "--rank", "3",
                 "--spike-frac", "0.1", "--obs-frac", "0.8", "--seed", "4",
                 "--out-dir", str(truth)]) == 0
    code = main(["rmc", "--data", str(truth / "d_obs.txt"), "--mask",
                 str(truth / "mask.txt"), "--rank", "6",
                 "--out-dir", str(est)])
    assert code in (0, 3)
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    with open(est / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "residual", "objective", "alpha", "d",
                       "stop_ratio", "rank"]
    assert all(int(row[-1]) <= int(row[4]) for row in rows[1:])
    assert summary.endswith(f" rank={rows[-1][-1]}")


@pytest.mark.parametrize("max_iter", [3, 4, 5])
def test_result_is_last_recorded_iterate_under_rank_adjustment(max_iter):
    # the rank adjustment fires at iteration 3 on this instance; it must not
    # truncate the result after the last recorded iteration
    p = generate_planted(80, 70, 3, spike_frac=0.1, obs_frac=0.7, seed=4)
    cfg = SolverConfig(lam=np.sqrt(56), d=6, alpha0=2.0, adjust_rank=True,
                       max_iter=max_iter)
    calls = []
    res = solve_rmc(p.d_obs, p.mask, cfg, iter_callback=calls.append)
    assert res.termination == "max_iter_reached"
    last = calls[-1]
    assert res.u is last.u and res.v is last.v
    assert res.v.shape[1] == res.trace[-1].d
    assert res.trace[-1].rank == np.linalg.matrix_rank(res.v)
    if max_iter > 3:
        assert res.trace[-1].d == 3, "the adjustment did not fire"
