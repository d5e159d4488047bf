"""The text writers against the writers they replaced, kept here as
references: every file must be the reference's bytes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lowrank.measurements import ObservationMask, load_mask, save_mask
from lowrank.textio import WRITE_BLOCK as _BLOCK, load_matrix, save_matrix


def reference_save_matrix(path, a):
    """One "%.17g" per value."""
    a = np.asarray(a, dtype=np.float64)
    rows, cols = a.shape
    row_format = " ".join(["%.17g"] * cols) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        fh.writelines(row_format % tuple(row.tolist()) for row in a)


def reference_save_mask(path, mask):
    """One "%d %d" per pair."""
    rows, cols = mask.shape
    pairs = np.column_stack(np.divmod(mask.flat_indices, cols))
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        fh.write("%d %d\n" * len(pairs) % tuple(pairs.ravel().tolist()))


def assert_same_bytes(tmp_path, writer, reference, value):
    ours, theirs = tmp_path / "ours.txt", tmp_path / "reference.txt"
    writer(ours, value)
    reference(theirs, value)
    assert ours.read_bytes() == theirs.read_bytes()


SPECIAL = [-0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
           2.2250738585072009e-308, 1.0 / 3.0, -1e300]
values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(SPECIAL)).filter(lambda x: x != 0)


matrices = arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=st.one_of(values, st.just(0.0), st.just(-0.0)))


class TestSaveMatrix:
    @settings(max_examples=200, deadline=None)
    @given(a=matrices)
    def test_bytes_of_any_matrix(self, tmp_path_factory, a):
        tmp = tmp_path_factory.mktemp("any")
        assert_same_bytes(tmp, save_matrix, reference_save_matrix, a)

    @pytest.mark.parametrize("a", [
        np.array([[1.5, 0.0, -0.0, 0.0, 0.0, np.nan, 0.0]]),
        np.array([[0.0], [-0.0], [np.inf], [0.0], [5e-324]]),
        np.zeros((3, 4)),
        np.full((2, 3), -0.0),
        np.arange(1.0, 13.0).reshape(3, 4),
        np.zeros((0, 3)),
        np.zeros((3, 0)),
    ], ids=["1xn", "mx1", "all-zero", "all-negative-zero", "no-zero",
            "no-rows", "no-columns"])
    def test_bytes_of_edge_shapes(self, tmp_path, a):
        assert_same_bytes(tmp_path, save_matrix, reference_save_matrix, a)

    @pytest.mark.parametrize("zero_frac", [0.0, 0.3, 0.5, 0.95])
    def test_bytes_of_planted_like_matrix(self, tmp_path, zero_frac):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((40, 30))
        a[rng.random(a.shape) < zero_frac] = 0.0
        assert_same_bytes(tmp_path, save_matrix, reference_save_matrix, a)

    def test_bytes_of_a_million_values(self, tmp_path):
        # random bit patterns reach every exponent, nan payloads and
        # subnormals; the scaled normals fill the kernel's decades
        rng = np.random.default_rng(29)
        column = np.concatenate([
            rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64).view(np.float64),
            rng.standard_normal(10 ** 5),
            1e-9 * rng.standard_normal(10 ** 5),
            1e12 * rng.standard_normal(10 ** 5),
        ])
        assert_same_bytes(tmp_path, save_matrix, reference_save_matrix,
                          column.reshape(-1, 1))

    @pytest.mark.parametrize("value, text", [
        # ties at the 17th digit go to the even digit
        (2251799813685247.25, "2251799813685247.2"),
        (2251799813685247.75, "2251799813685247.8"),
        # the float nearest 1e-14 lies below it and rounds up into the next
        # decade; the float below 1.0 does not
        (1e-14, "1e-14"),
        (float(np.nextafter(1.0, 0.0)), "0.99999999999999989"),
        (9.9999999999999998e16, "1e+17"),
        # the fixed form holds from 1e-4 up to 1e17
        (1e-4, "0.0001"),
        (float(np.nextafter(1e-4, 0.0)), "9.9999999999999991e-05"),
        (1e-5, "1.0000000000000001e-05"),
        (1e16, "10000000000000000"),
        (float(np.nextafter(1e16, 0.0)), "9999999999999998"),
        (1e17, "1e+17"),
        (-123.45, "-123.45"),
        (2.5e-300, "2.5e-300"),
        (-1.7976931348623157e308, "-1.7976931348623157e+308"),
        (2.2250738585072014e-308, "2.2250738585072014e-308"),
        (5e-324, "4.9406564584124654e-324"),
        (-0.0, "-0"),
        (math.nan, "nan"),
        (-math.inf, "-inf"),
    ])
    def test_text_of_hard_cases(self, tmp_path, value, text):
        path = tmp_path / "a.txt"
        save_matrix(path, np.array([[value]]))
        assert path.read_text() == f"1 1\n{text}\n"
        assert_same_bytes(tmp_path, save_matrix, reference_save_matrix,
                          np.array([[value]]))

    def test_bytes_of_decade_edges(self, tmp_path):
        # every power of ten with both float neighbours, the smallest normal,
        # subnormals, three-digit exponents and the non-finite values
        edges = []
        for e in range(-12, 18):
            ten = float(f"1e{e}")
            edges += [np.nextafter(ten, 0.0), ten, np.nextafter(ten, np.inf)]
        edges += [1e-100, 1e100, -3.3e-250, 7.1e299,
                  2.2250738585072014e-308, 2.2250738585072009e-308, 5e-324,
                  -1e-310, 0.0, -0.0, math.nan, math.inf, -math.inf]
        a = np.array(edges)
        assert_same_bytes(tmp_path, save_matrix, reference_save_matrix,
                          np.stack([a, -a]))

    @pytest.mark.parametrize("shape", [
        (3 * _BLOCK // 7 + 5, 7),
        (1, _BLOCK + 1234),
    ], ids=["rows-across-blocks", "row-longer-than-a-block"])
    def test_bytes_across_blocks(self, tmp_path, shape):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(shape)
        a[rng.random(shape) < 0.3] = 0.0
        a[rng.random(shape) < 0.01] = -0.0
        assert_same_bytes(tmp_path, save_matrix, reference_save_matrix, a)

    def test_bytes_of_factor_with_small_columns(self, tmp_path):
        # like the V of a rank-10 fit at d = 20: half its values lie below
        # 1e-4, down to the kernel's lowest decades
        rng = np.random.default_rng(11)
        v = rng.standard_normal((500, 20))
        v[:, 10:] *= 10.0 ** rng.uniform(-16, -5, (500, 10))
        assert (np.abs(v) < 1e-4).mean() >= 0.5
        assert_same_bytes(tmp_path, save_matrix, reference_save_matrix, v)

    @settings(max_examples=100, deadline=None)
    @given(a=matrices)
    def test_roundtrip_is_bit_exact(self, tmp_path_factory, a):
        # the text holds "nan" for every NaN, so only the canonical one
        # comes back bit for bit
        a[np.isnan(a)] = np.nan
        path = tmp_path_factory.mktemp("roundtrip") / "a.txt"
        save_matrix(path, a)
        back = load_matrix(path)
        assert np.array_equal(back.view(np.uint64), a.view(np.uint64))


class TestSaveMask:
    @pytest.mark.parametrize("marker", [
        np.zeros((3, 4), dtype=bool),
        np.ones((3, 4), dtype=bool),
        np.array([[True, False, True, True, False]]),
        np.array([[True], [False], [True]]),
        np.zeros((0, 0), dtype=bool),
        np.zeros((4, 0), dtype=bool),
        np.eye(12, dtype=bool),
    ], ids=["empty", "full", "one-row", "one-column", "zero-shape",
            "no-columns", "diagonal-past-ten"])
    def test_bytes_of_edge_masks(self, tmp_path, marker):
        assert_same_bytes(tmp_path, save_mask, reference_save_mask,
                          ObservationMask(marker))

    @settings(max_examples=100, deadline=None)
    @given(marker=arrays(bool, st.tuples(st.integers(1, 15),
                                         st.integers(1, 15))))
    def test_bytes_of_random_mask(self, tmp_path_factory, marker):
        tmp = tmp_path_factory.mktemp("mask")
        mask = ObservationMask(marker)
        assert_same_bytes(tmp, save_mask, reference_save_mask, mask)
        back = load_mask(tmp / "ours.txt")
        assert back.shape == mask.shape
        assert np.array_equal(back.flat_indices, mask.flat_indices)
