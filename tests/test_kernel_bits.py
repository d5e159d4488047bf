"""``qr_thin`` and ``svt`` against the kernels they replaced, bit for bit.

``qr_thin`` calls LAPACK's dgeqrf and dorgqr directly and ``svt`` slices one
``np.linalg.svd``; both must return the bits of the reference versions kept
here: ``scipy.linalg.qr`` with the sign fix, and the thresholding of
``svd_thin``'s copied, boolean-masked factors. Inputs cover the shapes,
ranks and memory layouts the solvers and the subspace draw pass in, and the
solvers are run end to end with each pair of kernels.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank import cpcp, rmc
from lowrank.config import SolverConfig
from lowrank.datasets import generate_planted
from lowrank.linalg import (RANK_CUTOFF, QrFactors, check_matrix, qr_thin,
                            svd_thin)
from lowrank.measurements import draw_random_subspace
from lowrank.prox import svt


def reference_qr_thin(a):
    a = check_matrix(a, "qr input")
    m, d = a.shape
    if m < d:
        raise ValueError(f"qr_thin requires rows >= cols, got {m}x{d}")
    q, r = scipy.linalg.qr(a, mode="economic", check_finite=False)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return QrFactors(np.multiply(q, signs, order="C"), signs[:, None] * r)


def reference_svt(m, mu):
    if mu < 0:
        raise ValueError(f"svt threshold must be nonnegative, got {mu}")
    m = check_matrix(m, "svt input")
    f = svd_thin(m)
    keep = f.sigma > mu
    shrunk = f.sigma[keep] - mu
    if not shrunk.size:
        return np.zeros_like(m), shrunk
    return (f.u[:, keep] * shrunk) @ f.v[:, keep].T, shrunk


def assert_same(got, want):
    assert got.shape == want.shape
    assert got.flags.c_contiguous == want.flags.c_contiguous
    np.testing.assert_array_equal(got, want, strict=True)
    # signed zeros too, which compare equal
    assert got.tobytes() == want.tobytes()


def laid_out(a, layout):
    """``a``'s values in C order, Fortran order, or as a strided view."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    wide = np.zeros((a.shape[0], 2 * a.shape[1] + 1))
    wide[:, 1::2] = a
    return wide[:, 1::2]


def drawn(seed, rows, cols, rank, scale=1.0):
    """A seeded rows x cols Gaussian product of the given rank."""
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((rows, rank))
                    @ rng.standard_normal((rank, cols)))


layouts = st.sampled_from(["C", "F", "strided"])
seeds = st.integers(0, 2**32 - 1)


class TestQrThin:
    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, d=st.integers(1, 12), extra=st.integers(0, 60),
           deficit=st.integers(0, 12), layout=layouts)
    def test_tall_and_square(self, seed, d, extra, deficit, layout):
        # rank below d when deficit > 0: trailing columns of Q are then a
        # completion, the case that amplifies rounding
        a = laid_out(drawn(seed, d + extra, d, max(d - deficit, 0)), layout)
        got, want = qr_thin(a), reference_qr_thin(a)
        assert_same(got.q, want.q)
        assert_same(got.r, want.r)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("shape", [(6, 3), (5, 5)])
    def test_zero_matrix(self, shape, layout):
        a = laid_out(np.zeros(shape), layout)
        got, want = qr_thin(a), reference_qr_thin(a)
        assert_same(got.q, want.q)
        assert_same(got.r, want.r)

    @pytest.mark.parametrize("shape", [(7, 0), (0, 0)])
    def test_zero_columns(self, shape):
        a = np.zeros(shape)
        got, want = qr_thin(a), reference_qr_thin(a)
        assert_same(got.q, want.q)
        assert_same(got.r, want.r)

    def test_subspace_shape(self):
        # the Householder fallback of the subspace draw: mn x p, blocked
        a = laid_out(drawn(3, 900, 200, 200), "F")
        got, want = qr_thin(a), reference_qr_thin(a)
        assert_same(got.q, want.q)
        assert_same(got.r, want.r)


class TestSvt:
    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, rows=st.integers(1, 300), cols=st.integers(1, 24),
           rank=st.integers(0, 24), power=st.floats(-3, 3), layout=layouts,
           wide=st.booleans(), level=st.floats(0, 1.5))
    def test_threshold_levels(self, seed, rows, cols, rank, power, layout,
                              wide, level):
        shape = (cols, rows) if wide else (rows, cols)
        m = laid_out(drawn(seed, *shape, min(rank, *shape), 10.0**power),
                     layout)
        mu = level * np.linalg.norm(m, 2)
        x, shrunk = svt(m, mu)
        want_x, want_shrunk = reference_svt(m, mu)
        assert_same(x, want_x)
        assert_same(shrunk, want_shrunk)

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, rows=st.integers(1, 300), cols=st.integers(1, 24),
           tie=st.integers(0, 23))
    def test_value_equal_to_mu(self, seed, rows, cols, tie):
        m = drawn(seed, rows, cols, min(rows, cols))
        # the call svt makes, so mu is one of its singular values exactly
        sigma = np.linalg.svd(m, full_matrices=False)[1]
        mu = float(sigma[min(tie, sigma.size - 1)])
        x, shrunk = svt(m, mu)
        want_x, want_shrunk = reference_svt(m, mu)
        assert_same(x, want_x)
        assert_same(shrunk, want_shrunk)
        assert shrunk.size == np.count_nonzero(sigma > mu)

    @pytest.mark.parametrize("mu", [0.0, 1.0])
    @pytest.mark.parametrize("shape", [(9, 4), (4, 9), (0, 3), (3, 0)])
    def test_zero_matrix(self, shape, mu):
        x, shrunk = svt(np.zeros(shape), mu)
        want_x, want_shrunk = reference_svt(np.zeros(shape), mu)
        assert_same(x, want_x)
        assert_same(shrunk, want_shrunk)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_truncation_at_rank_cutoff(self, layout):
        # two singular values below RANK_CUTOFF * sigma_max: mu = 0 keeps
        # the other four
        rng = np.random.default_rng(7)
        u = np.linalg.qr(rng.standard_normal((30, 6)))[0]
        v = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        sigma = np.array([5.0, 3.0, 2.0, 1.0, 1e-2 * RANK_CUTOFF, 0.0])
        m = laid_out((u * sigma) @ v.T, layout)
        x, shrunk = svt(m, 0.0)
        want_x, want_shrunk = reference_svt(m, 0.0)
        assert shrunk.size == 4
        assert_same(x, want_x)
        assert_same(shrunk, want_shrunk)


def solve_all():
    """U, V, S and trace of one small instance per solver."""
    p = generate_planted(40, 30, 3, spike_frac=0.1, obs_frac=0.7, seed=3)
    cfg = SolverConfig(d=6, max_iter=60)
    q = draw_random_subspace(20, 20, 300, seed=4)
    c = generate_planted(20, 20, 2, spike_frac=0.05, seed=4)
    results = {
        "rmc": rmc.solve_rmc(p.d_obs, p.mask, cfg),
        "mc": rmc.solve_mc(p.d_obs - p.s0, p.mask,
                           SolverConfig(lam=1.0, d=6, max_iter=60)),
        "cpcp": cpcp.solve_cpcp(q.forward(c.l0 + c.s0), q,
                                SolverConfig(lam=np.sqrt(20), d=4,
                                             max_iter=60)),
    }
    return {name: (r.u, r.v, r.s, [dataclasses.astuple(t) for t in r.trace])
            for name, r in results.items()}


def test_solvers_match_reference_kernels(monkeypatch):
    new = solve_all()
    monkeypatch.setattr(rmc, "qr_thin", reference_qr_thin)
    monkeypatch.setattr(rmc, "svt", reference_svt)
    monkeypatch.setattr(cpcp, "svt", reference_svt)
    reference = solve_all()
    for name, (u, v, s, trace) in new.items():
        want_u, want_v, want_s, want_trace = reference[name]
        assert_same(u, want_u)
        assert_same(v, want_v)
        assert_same(s, want_s)
        assert trace == want_trace, name
        assert len(trace) > 5, name
