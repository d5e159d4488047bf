import numpy as np
import pytest

from lowrank.measurements import (
    ObservationMask,
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

    def test_marker_is_read_only(self):
        mask = ObservationMask.full(2, 3)
        with pytest.raises(ValueError):
            mask.marker[0, 0] = False

    def test_caller_array_is_copied(self):
        marker = np.array([[True, False], [False, True]])
        mask = ObservationMask(marker)
        marker[0, 1] = True
        np.testing.assert_array_equal(
            mask.forward(np.arange(4.0).reshape(2, 2)), [0.0, 3.0])


class TestMaskFile:
    def write(self, tmp_path, text):
        path = tmp_path / "mask.txt"
        path.write_text(text)
        return path

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

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "2 3\n\n   \n0 1\n\n1 2\n\n")
        mask = load_mask(path)
        np.testing.assert_array_equal(
            mask.marker, [[False, True, False], [False, False, True]]
        )

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
        with pytest.raises(ValueError, match="mismatch"):
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
    assert op.forward(a).shape == (op.dim,)
    assert op.adjoint(y).shape == (4, 5)
    assert float(op.forward(a) @ y) == pytest.approx(
        float(np.sum(a * op.adjoint(y))), abs=1e-12
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
