import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank import measurements, textio
from lowrank.datasets import RatingDataset, generate_planted
from lowrank.linalg import qr_thin
from lowrank.measurements import (
    ObservationMask,
    SubspaceOperator,
    draw_random_subspace,
    load_mask,
    mask_project,
    save_mask,
)


class TestObservationMask:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ObservationMask.from_indices(2, 2, [(0, 0), (2, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ObservationMask.from_indices(2, 2, [(0, 0), (0, 0)])

    def test_first_offending_pair_reported(self):
        with pytest.raises(ValueError, match=r"\(3, 0\) out of range"):
            ObservationMask.from_indices(2, 2, [(0, 0), (3, 0), (0, 5)])
        with pytest.raises(ValueError, match=r"duplicate mask index \(1, 0\)"):
            ObservationMask.from_indices(2, 2, [(1, 0), (0, 1), (1, 0),
                                                (0, 1)])

    def test_empty_pairs(self):
        assert ObservationMask.from_indices(2, 2, []).dim == 0

    def test_shape_beyond_int64_flat_indices_rejected(self):
        # 2^32 x 2^32 entries: flat index i * cols + j would wrap round
        with pytest.raises(ValueError, match=r"more than 2\^63 - 1 entries"):
            ObservationMask.from_indices(2 ** 32, 2 ** 32, [[0, 1]])

    def test_roundtrip_through_file(self, tmp_path):
        mask = ObservationMask.from_indices(3, 4, [(0, 0), (1, 3), (2, 1)])
        path = tmp_path / "mask.txt"
        save_mask(path, mask)
        np.testing.assert_array_equal(load_mask(path).marker, mask.marker)

    def test_identity_equality_and_hash(self):
        a, b = ObservationMask.full(2, 2), ObservationMask.full(2, 2)
        assert a == a
        assert a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2

    def test_written_marker_leaves_mask_unchanged(self):
        mask = ObservationMask.from_indices(2, 3, [(0, 1), (1, 2)])
        marker = mask.marker
        marker[:] = True
        np.testing.assert_array_equal(mask.flat_indices, [1, 5])
        np.testing.assert_array_equal(
            mask.forward(np.arange(6.0).reshape(2, 3)), [1.0, 5.0])
        assert mask.marker is not marker
        assert np.count_nonzero(mask.marker) == 2

    @pytest.mark.parametrize("build", [
        lambda tmp: ObservationMask([[False, True, False],
                                     [False, False, True]]),
        lambda tmp: ObservationMask.from_indices(2, 3, [(0, 1), (1, 2)]),
        lambda tmp: ObservationMask.from_indices(2, 3, [(1, 2), (0, 0),
                                                        (0, 1)]),
        lambda tmp: ObservationMask.full(2, 3),
        lambda tmp: load_mask(_mask_file(tmp, "2 3\n0 1\n1 2\n")),
        lambda tmp: generate_planted(4, 3, 1, spike_frac=0.1, obs_frac=0.5,
                                     seed=1).mask,
        lambda tmp: RatingDataset([(0, 1, 4.0), (1, 2, 3.0)], 2, 3,
                                  np.array([0, 1]), np.array([], int)
                                  ).train_matrix()[1],
    ], ids=["constructor", "from_indices", "from_indices_unsorted", "full",
            "load_mask", "generate_planted", "train_matrix"])
    def test_flat_indices_are_read_only(self, tmp_path, build):
        mask = build(tmp_path)
        flat = mask.flat_indices
        assert flat.dtype == np.int64
        assert flat.size > 0 and np.all(np.diff(flat) > 0)
        assert all(type(size) is int for size in mask.shape)
        with pytest.raises(ValueError):
            flat[0] = flat[-1]
        assert flat.base is None or not flat.base.flags.writeable

    def test_from_indices_allocates_no_marker(self):
        rows = cols = 2000
        flat = np.sort(np.random.default_rng(0).choice(
            rows * cols, size=40_000, replace=False))
        pairs = np.column_stack(np.divmod(flat, cols))
        tracemalloc.start()
        try:
            mask = ObservationMask.from_indices(rows, cols, pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(mask.flat_indices, flat)
        # an m x n boolean marker alone would take rows * cols bytes
        assert peak < rows * cols / 4

    def test_unsorted_pairs_are_sorted(self):
        mask = ObservationMask.from_indices(2, 3, [(1, 2), (0, 0), (1, 0)])
        np.testing.assert_array_equal(mask.flat_indices, [0, 3, 5])

    def test_caller_array_is_copied(self):
        marker = np.array([[True, False], [False, True]])
        mask = ObservationMask(marker)
        marker[0, 1] = True
        np.testing.assert_array_equal(
            mask.forward(np.arange(4.0).reshape(2, 2)), [0.0, 3.0])


def _mask_file(tmp_path, text):
    path = tmp_path / "mask.txt"
    path.write_text(text)
    return path


class TestMaskFile:
    def write(self, tmp_path, text):
        return _mask_file(tmp_path, text)

    @pytest.mark.parametrize("text", [
        "2 2\n0 0\n1\n",
        "2 2\n1\n",
        "2 2\n0 0\n0 1 1\n",
        "2 2\n0 1 1\n",
        "2 2\n0\n1\n",
        "2 2\n0 1 1 0\n",
        "2 2\n0 x\n",
        "2 2\n0 1.5\n",
        "2 2\n# pairs\n0 0\n",
        "2 2\n0 0 # first\n",
    ])
    def test_malformed_line_names_file(self, tmp_path, text):
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError) as info:
            load_mask(path)
        assert str(path) in str(info.value)

    def test_shape_beyond_int64_flat_indices_names_file(self, tmp_path):
        path = self.write(tmp_path, "4000000000 4000000000\n"
                                    "3999999999 3999999999\n")
        with pytest.raises(ValueError) as info:
            load_mask(path)
        assert str(info.value) == (f"{path}: mask shape 4000000000x4000000000"
                                   " has more than 2^63 - 1 entries")

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "2 3\n\n   \n0 1\n\n1 2\n\n")
        mask = load_mask(path)
        np.testing.assert_array_equal(
            mask.marker, [[False, True, False], [False, False, True]]
        )

    @pytest.mark.parametrize("text, lineno", [
        ("2 3\n0 1\n\n1 x\n", 4),
        ("2 3\n\n0 1.5\n", 3),
        ("2 3\n0 1\n1 2 0\n", 3),
        ("2 3\n0 1 2\n1 2 0\n", 2),
        ("2 3\r\n0 1\r\n1\r\n", 3),
        ("2 3\n0 99999999999999999999\n", 2),
        ("2 3\n0 1_0\n", 2),
    ])
    def test_malformed_line_names_file_line(self, tmp_path, text, lineno):
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError) as info:
            load_mask(path)
        assert str(info.value).startswith(f"{path}:{lineno}: ")

    @pytest.mark.parametrize("text", [
        "2 3\n\n0 1\n\n \n1 2\n\n",
        "2 3\r\n0 1\r\n\r\n1 2\r\n",
        "2 3\n0\t1\n1\t 2\t\n",
        "2 3\n+0 +1\n+1 2\n",
        "2 3\n  0   1  \n 1    2\n",
        "2 3\n-0 01\n+1 002",
    ])
    def test_accepted_layouts(self, tmp_path, text):
        mask = load_mask(self.write(tmp_path, text))
        np.testing.assert_array_equal(mask.flat_indices, [1, 5])

    @settings(max_examples=300, deadline=None)
    @given(line=st.text(st.sampled_from("0123456789+-_.xe\t ١"),
                        max_size=8))
    def test_reference_refuses_what_loadtxt_refuses(self, line):
        # the reference check only names the line of a refusal; it must
        # refuse exactly the lines np.loadtxt refuses
        try:
            textio._check_mask_lines([line], "m", 2)
            ours = True
        except ValueError:
            ours = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                theirs = np.loadtxt(io.StringIO(line), dtype=np.int64,
                                    comments=None, ndmin=2)
            except (ValueError, Warning):
                theirs = None
        if not line.split():
            assert ours
        else:
            assert ours == (theirs is not None and theirs.shape[1] == 2)

    @pytest.mark.parametrize("text", ["2 3\n", "2 3\n\n \n"])
    def test_header_only_is_empty_mask(self, tmp_path, text):
        mask = load_mask(self.write(tmp_path, text))
        assert mask.shape == (2, 3)
        assert mask.dim == 0

    def test_zero_shape_header_is_empty_mask(self, tmp_path):
        mask = load_mask(self.write(tmp_path, "0 0\n"))
        assert mask.shape == (0, 0)
        assert mask.dim == 0

    @pytest.mark.parametrize("text", ["x 2\n", "2\n", "2 3 4\n", "",
                                      "-1 3\n", "2 -3\n0 0\n"])
    def test_bad_header_names_file(self, tmp_path, text):
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError) as info:
            load_mask(path)
        assert str(path) in str(info.value)
        assert "header" in str(info.value) or "negative" in str(info.value)

    @pytest.mark.parametrize("pair", ["2 0", "0 3", "-1 0"])
    def test_out_of_range_pair_rejected(self, tmp_path, pair):
        path = self.write(tmp_path, f"2 3\n0 0\n{pair}\n")
        with pytest.raises(ValueError, match="out of range"):
            load_mask(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = self.write(tmp_path, "2 3\n0 1\n1 1\n0 1\n")
        with pytest.raises(ValueError, match=r"duplicate mask index \(0, 1\)"):
            load_mask(path)

    def test_out_of_range_pair_names_file_line(self, tmp_path):
        # the blank line 3 makes the pair's line differ from its position
        path = self.write(tmp_path, "2 3\n0 0\n\n1 5\n")
        with pytest.raises(ValueError) as info:
            load_mask(path)
        assert str(info.value) == \
            f"{path}:4: mask index (1, 5) out of range 2x3"

    def test_duplicate_pair_names_file_line(self, tmp_path):
        path = self.write(tmp_path, "2 3\n0 1\n1 1\n0 1\n")
        with pytest.raises(ValueError) as info:
            load_mask(path)
        assert str(info.value) == f"{path}:4: duplicate mask index (0, 1)"

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "mask.txt"
        save_mask(path, ObservationMask.from_indices(2, 3, [(1, 2), (0, 1),
                                                            (1, 0)]))
        assert path.read_bytes() == b"2 3\n0 1\n1 0\n1 2\n"
        save_mask(path, ObservationMask(np.zeros((2, 3), dtype=bool)))
        assert path.read_bytes() == b"2 3\n"


class TestMaskProject:
    def test_full_mask_is_identity(self):
        a = np.random.default_rng(0).standard_normal((3, 5))
        np.testing.assert_array_equal(mask_project(a, ObservationMask.full(3, 5)), a)

    def test_partition_of_entries(self):
        a = np.random.default_rng(1).standard_normal((4, 4))
        mask = ObservationMask(np.random.default_rng(2).random((4, 4)) < 0.5)
        np.testing.assert_allclose(
            mask_project(a, mask) + mask_project(a, ObservationMask(~mask.marker)),
            a,
        )

    def test_small_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = ObservationMask.from_indices(2, 2, [(0, 0), (1, 1)])
        np.testing.assert_array_equal(
            mask_project(a, mask), [[1.0, 0.0], [0.0, 4.0]]
        )

    def test_idempotent(self):
        a = np.random.default_rng(3).standard_normal((5, 5))
        mask = ObservationMask(np.random.default_rng(4).random((5, 5)) < 0.4)
        once = mask_project(a, mask)
        np.testing.assert_array_equal(mask_project(once, mask), once)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=re.escape(
                "shape mismatch: matrix (2, 2) vs operator (3, 3)")):
            mask_project(np.ones((2, 2)), ObservationMask.full(3, 3))


class TestSubspaceOperator:
    def test_basis_element_maps_to_unit_vector(self):
        q = draw_random_subspace(4, 3, 5, seed=0)
        b2 = q.basis[2].reshape(4, 3)
        np.testing.assert_allclose(q.forward(b2), np.eye(5)[2],
                                   atol=1e-10)

    def test_orthogonal_input_maps_to_zero(self):
        q = draw_random_subspace(3, 3, 2, seed=1)
        a = np.random.default_rng(5).standard_normal((3, 3))
        a -= q.adjoint(q.forward(a))
        assert np.linalg.norm(q.forward(a)) <= 1e-10

    def test_forward_is_a_contraction(self):
        q = draw_random_subspace(5, 4, 7, seed=2)
        a = np.random.default_rng(6).standard_normal((5, 4))
        assert np.linalg.norm(q.forward(a)) <= np.linalg.norm(a) + 1e-12

    def test_adjoint_identity(self):
        q = draw_random_subspace(4, 4, 9, seed=3)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        y = rng.standard_normal(9)
        lhs = q.forward(a) @ y
        rhs = float(np.sum(a * q.adjoint(y)))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_adjoint_of_forward_recovers_basis_element(self):
        q = draw_random_subspace(3, 4, 6, seed=4)
        b0 = q.basis[0].reshape(3, 4)
        np.testing.assert_allclose(
            q.adjoint(q.forward(b0)), b0, atol=1e-10
        )

    def test_zero_measurements_give_zero_matrix(self):
        q = draw_random_subspace(3, 3, 4, seed=5)
        np.testing.assert_array_equal(q.adjoint(np.zeros(4)),
                                      np.zeros((3, 3)))

    def test_length_mismatch(self):
        q = draw_random_subspace(3, 3, 4, seed=6)
        with pytest.raises(ValueError):
            q.adjoint(np.zeros(5))


class GatherGuard(np.ndarray):
    """A basis whose transpose, which only the gather reads, may not be
    read."""

    @property
    def T(self):
        raise AssertionError("basis gathered before the input was checked")


class TestSubspaceGather:
    M, N = 9, 8
    # fewer nonzeros than this take the gather; ceil(0.25 * 72) = 18
    CUT = math.ceil(measurements.GATHER_DENSITY * M * N)

    def sparse(self, k, seed=0):
        rng = np.random.default_rng(seed)
        a = np.zeros(self.M * self.N)
        a[rng.choice(a.size, k, replace=False)] = rng.standard_normal(k)
        return a.reshape(self.M, self.N)

    @pytest.mark.parametrize("k", [0, 1, CUT - 1, CUT, CUT + 1])
    def test_sparse_input_matches_dense_product(self, k):
        q = draw_random_subspace(self.M, self.N, 40, seed=1)
        a = self.sparse(k)
        got, ref = q.forward(a), q.basis @ a.ravel()
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        nz = np.flatnonzero(a)
        path = a.ravel()[nz] @ q.basis.T[nz] if k < self.CUT else ref
        assert np.array_equal(got, path)

    def test_dense_input_is_the_dense_product(self):
        q = draw_random_subspace(self.M, self.N, 40, seed=2)
        a = np.random.default_rng(3).standard_normal((self.M, self.N))
        assert np.array_equal(q.forward(a), q.basis @ a.ravel())

    @pytest.mark.parametrize("bad", ["inf", "shape"])
    def test_sparse_input_checked_before_gather(self, bad):
        q = draw_random_subspace(self.M, self.N, 40, seed=4)
        guarded = SubspaceOperator(q.shape, q.basis.view(GatherGuard))
        a = self.sparse(3)
        if bad == "inf":
            a[np.unravel_index(np.flatnonzero(a)[0], a.shape)] = np.inf
        else:
            a = a[:, 1:]
        with pytest.raises(ValueError):
            guarded.forward(a)


class TestDrawRandomSubspace:
    def test_full_dimension_is_a_bijection(self):
        q = draw_random_subspace(3, 3, 9, seed=0)
        y = np.random.default_rng(8).standard_normal(9)
        np.testing.assert_allclose(
            q.forward(q.adjoint(y)), y, atol=1e-10
        )

    def test_rank_one_projection_norm(self):
        # solve_cpcp's unit step assumes this Gram operator norm
        from lowrank.linalg import spectral_norm

        q = draw_random_subspace(4, 4, 1, seed=1)
        gram = lambda a: q.adjoint(q.forward(a))
        assert spectral_norm(gram, (4, 4)) == pytest.approx(1.0, rel=1e-6)

    def test_gram_matrix_is_identity(self):
        q = draw_random_subspace(8, 8, 48, seed=2)
        gram = q.basis @ q.basis.T
        assert np.max(np.abs(gram - np.eye(48))) <= 1e-8

    def test_dimension_out_of_range(self):
        with pytest.raises(ValueError):
            draw_random_subspace(3, 3, 10, seed=0)
        with pytest.raises(ValueError):
            draw_random_subspace(3, 3, 0, seed=0)

    def test_deterministic_given_seed(self):
        q1 = draw_random_subspace(5, 5, 10, seed=42)
        q2 = draw_random_subspace(5, 5, 10, seed=42)
        assert np.array_equal(q1.basis, q2.basis)

    def test_projection_idempotent_and_self_adjoint(self):
        q = draw_random_subspace(5, 4, 8, seed=3)
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((5, 4))
        project = lambda x: q.adjoint(q.forward(x))
        np.testing.assert_allclose(project(project(a)), project(a), atol=1e-8)
        assert np.sum(project(a) * b) == pytest.approx(
            np.sum(a * project(b)), abs=1e-8
        )


class TestCholeskyQrDraw:
    """The draw orthonormalizes its Gaussian G by Cholesky QR in G's memory."""

    @pytest.mark.parametrize("m, n, p", [(12, 12, 100), (45, 45, 1518),
                                         (3, 3, 9)])
    def test_same_basis_as_householder_qr(self, m, n, p):
        g = np.random.default_rng(4).standard_normal((m * n, p))
        basis = draw_random_subspace(m, n, p, seed=4).basis
        assert basis.flags.f_contiguous
        assert np.max(np.abs(basis - qr_thin(g).q.T)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("frac", [0.1, 0.75, 0.95, 1.0])
    def test_rows_orthonormal(self, frac, seed):
        p = round(frac * 900)
        basis = draw_random_subspace(30, 30, p, seed).basis
        assert np.max(np.abs(basis @ basis.T - np.eye(p))) <= 1e-13

    def test_ill_conditioned_g_takes_second_pass(self, monkeypatch):
        rng = np.random.default_rng(5)
        u = qr_thin(rng.standard_normal((400, 60))).q
        v = qr_thin(rng.standard_normal((60, 60))).q
        g = (u * np.geomspace(1.0, 1e-5, 60)) @ v.T
        assert np.linalg.cond(g) == pytest.approx(1e5, rel=1e-3)
        one_pass, passes = measurements._cholesky_qr, []

        def counted(b):
            passes.append(b.shape)
            return one_pass(b)

        monkeypatch.setattr(measurements, "_cholesky_qr", counted)
        basis = measurements._orthonormal_rows(g.copy())
        assert len(passes) == 2
        assert np.max(np.abs(basis @ basis.T - np.eye(60))) <= 1e-13

    @pytest.mark.parametrize("column", ["zero", "repeat", "combination"])
    def test_rank_deficient_g_gets_householder_qr(self, column):
        for seed in range(10):
            g = np.random.default_rng(seed).standard_normal((60, 20))
            g[:, 7] = {"zero": 0.0, "repeat": g[:, 3],
                       "combination": g[:, 3] - 2.0 * g[:, 5]}[column]
            np.testing.assert_array_equal(
                measurements._orthonormal_rows(g.copy()), qr_thin(g).q.T)

    def test_draw_holds_g_and_its_gram_matrix_only(self):
        mn, p = 900, 675
        draw_random_subspace(30, 30, p, seed=0)
        tracemalloc.start()
        try:
            draw_random_subspace(30, 30, p, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 8 * (mn * p + p * p)


OPERATORS = {
    "mask": lambda: ObservationMask(
        np.random.default_rng(10).random((4, 5)) < 0.5
    ),
    "subspace": lambda: draw_random_subspace(4, 5, 9, seed=11),
}


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_measurement_operator_contract(name):
    """Both operators honour the four-member contract of the module."""
    op = OPERATORS[name]()
    assert op.shape == (4, 5)
    assert op.dim == (np.count_nonzero(op.marker) if name == "mask" else 9)
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 5))
    y = rng.standard_normal(op.dim)
    sparse = np.zeros((4, 5))
    sparse[1, 2], sparse[3, 0] = 2.5, -1.0
    assert op.adjoint(y).shape == (4, 5)
    for x in (a, sparse):
        assert op.forward(x).shape == (op.dim,)
        assert float(op.forward(x) @ y) == pytest.approx(
            float(np.sum(x * op.adjoint(y))), abs=1e-12
        )
    np.testing.assert_allclose(op.forward(op.adjoint(y)), y, atol=1e-12)
    for bad in (np.zeros((5, 4)), np.zeros(20), np.full((4, 5), np.nan)):
        with pytest.raises(ValueError):
            op.forward(bad)
    for bad in (np.zeros(op.dim + 1), np.zeros((op.dim, 1))):
        with pytest.raises(ValueError):
            op.adjoint(bad)


def test_mask_coefficients_in_row_major_order():
    a = np.arange(6.0).reshape(2, 3)
    mask = ObservationMask.from_indices(2, 3, [(1, 0), (0, 2)])
    np.testing.assert_array_equal(mask.flat_indices, [2, 3])
    np.testing.assert_array_equal(mask.forward(a), [2.0, 3.0])
    np.testing.assert_array_equal(mask.adjoint([7.0, 8.0]),
                                  [[0.0, 0.0, 7.0], [8.0, 0.0, 0.0]])
