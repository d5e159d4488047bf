import numpy as np
import pytest

from lowrank.datasets import (
    RatingDataset,
    generate_planted,
    load_matrix,
    load_ratings,
    save_matrix,
)


class TestGeneratePlanted:
    def test_reproducible_given_seed(self):
        a = generate_planted(20, 15, 3, spike_frac=0.1, seed=5)
        b = generate_planted(20, 15, 3, spike_frac=0.1, seed=5)
        assert np.array_equal(a.l0, b.l0)
        assert np.array_equal(a.s0, b.s0)
        assert np.array_equal(a.mask.marker, b.mask.marker)

    def test_different_seeds_differ(self):
        a = generate_planted(20, 15, 3, spike_frac=0.1, seed=1)
        b = generate_planted(20, 15, 3, spike_frac=0.1, seed=2)
        assert not np.array_equal(a.l0, b.l0)

    def test_planted_rank_is_exact(self):
        p = generate_planted(30, 25, 4, spike_frac=0.0, seed=0)
        assert np.linalg.matrix_rank(p.l0) == 4
        assert p.rank == 4

    @pytest.mark.parametrize("m, n, r, seed", [(30, 20, 20, 0), (45, 45, 3, 1),
                                               (60, 50, 5, 2)])
    def test_low_rank_part_is_the_seeded_factor_product(self, m, n, r, seed):
        p = generate_planted(m, n, r, spike_frac=0.1, obs_frac=0.5, seed=seed)
        rng = np.random.default_rng(seed)
        left = rng.standard_normal((m, r))
        right = rng.standard_normal((n, r))
        assert np.array_equal(p.l0, left @ right.T)

    def test_spike_count_within_binomial_bounds(self):
        p = generate_planted(100, 100, 2, spike_frac=0.1, seed=3)
        count = int((p.s0 != 0).sum())
        # 10 standard deviations around the mean of Binomial(10^4, 0.1)
        assert abs(count - 1000) <= 10 * np.sqrt(1e4 * 0.1 * 0.9)

    def test_spike_magnitudes(self):
        p = generate_planted(40, 40, 2, spike_frac=0.2, magnitude=3.5, seed=4)
        vals = p.s0[p.s0 != 0]
        assert set(np.unique(vals)) <= {-3.5, 3.5}

    def test_observed_data_masked(self):
        p = generate_planted(20, 20, 2, spike_frac=0.1, obs_frac=0.5, seed=6)
        assert np.all(p.d_obs[~p.mask.marker] == 0)
        obs = p.mask.marker
        np.testing.assert_array_equal(p.d_obs[obs], (p.l0 + p.s0)[obs])

    def test_no_spikes_when_fraction_zero(self):
        p = generate_planted(10, 10, 1, spike_frac=0.0, seed=7)
        assert not (p.s0 != 0).any()

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            generate_planted(5, 5, 6, spike_frac=0.1)
        with pytest.raises(ValueError, match="rank"):
            generate_planted(5, 5, 0, spike_frac=0.1)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError, match="spike"):
            generate_planted(5, 5, 2, spike_frac=1.5)
        with pytest.raises(ValueError, match="observation"):
            generate_planted(5, 5, 2, spike_frac=0.1, obs_frac=-0.1)

    @pytest.mark.parametrize("magnitude", [np.nan, np.inf, -np.inf])
    def test_non_finite_magnitude_rejected(self, magnitude):
        with pytest.raises(ValueError, match="magnitude"):
            generate_planted(5, 5, 2, spike_frac=0.0, magnitude=magnitude)


class TestLoadRatings:
    def write(self, tmp_path, text):
        path = tmp_path / "ratings.dat"
        path.write_text(text)
        return path

    def test_double_colon_format_with_timestamp(self, tmp_path):
        path = self.write(tmp_path, "1::5::3.0::978300760\n")
        ds = load_ratings(path)
        assert ds.columns.tolist() == [(0, 0, 3.0)]
        assert ds.num_users == 1 and ds.num_items == 1

    def test_whitespace_format(self, tmp_path):
        path = self.write(tmp_path, "3 7 4.5\n3 2 1.0\n9 2 2.0\n")
        ds = load_ratings(path)
        assert ds.num_users == 2 and ds.num_items == 2
        assert (0, 1, 4.5) in ds.columns.tolist()  # user 3 -> 0, item 7 -> 1

    def test_comma_format(self, tmp_path):
        path = self.write(tmp_path, "1,1,5.0\n2,1,3.0\n")
        assert load_ratings(path).num_users == 2

    def test_ids_remapped_by_sorted_order(self, tmp_path):
        path = self.write(tmp_path, "10 100 1.0\n2 50 2.0\n")
        ds = load_ratings(path)
        assert sorted(ds.columns.tolist()) == [(0, 0, 2.0), (1, 1, 1.0)]

    def test_duplicates_keep_last_and_warn(self, tmp_path):
        path = self.write(tmp_path, "1 1 2.0\n1 1 4.0\n1 2 1.0\n")
        with pytest.warns(UserWarning, match="1 duplicate"):
            ds = load_ratings(path)
        assert ds.duplicate_count == 1
        assert (0, 0, 4.0) in ds.columns.tolist()

    def test_malformed_line_reports_location(self, tmp_path):
        path = self.write(tmp_path, "1 1 2.0\n1 2\n")
        with pytest.raises(ValueError, match=":2:"):
            load_ratings(path)

    def test_non_numeric_rating_reports_location(self, tmp_path):
        path = self.write(tmp_path, "1 1 abc\n")
        with pytest.raises(ValueError, match=":1:"):
            load_ratings(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "\n\n")
        with pytest.raises(ValueError, match="no ratings"):
            load_ratings(path)

    def test_ten_ratings_split_nine_to_one(self, tmp_path):
        lines = "\n".join(f"{i} {i} 1.0" for i in range(10))
        ds = load_ratings(self.write(tmp_path, lines))
        assert len(ds.columns[ds.train_idx]) == 9
        assert len(ds.test) == 1
        assert set(ds.train_idx) | set(ds.test_idx) == set(range(10))

    def test_split_deterministic_given_seed(self, tmp_path):
        lines = "\n".join(f"{i} {i % 5} {i / 3:.3f}" for i in range(30))
        d1 = load_ratings(self.write(tmp_path, lines), seed=11)
        d2 = load_ratings(self.write(tmp_path, lines), seed=11)
        assert np.array_equal(d1.test_idx, d2.test_idx)

    def test_train_matrix_contents(self, tmp_path):
        path = self.write(tmp_path, "1 1 2.0\n1 2 3.0\n2 1 4.0\n2 2 5.0\n"
                                    "3 1 1.0\n3 2 2.0\n4 1 3.0\n4 2 4.0\n"
                                    "5 1 5.0\n5 2 1.0\n")
        ds = load_ratings(path)
        data, mask = ds.train_matrix()
        assert data.shape == (5, 2)
        assert mask.dim == len(ds.train_idx)
        for u, i, val in ds.columns[ds.train_idx].tolist():
            assert data[u, i] == val and mask.marker[u, i]

    def test_train_matrix_matches_triplet_loop(self, tmp_path):
        rng = np.random.default_rng(3)
        users = rng.choice(np.arange(1, 400), size=12, replace=False)
        items = rng.choice(np.arange(1, 900), size=9, replace=False)
        lines = [f"{u} {i} {rng.integers(1, 6)}.{rng.integers(0, 10)}"
                 for u in users for i in items if rng.random() < 0.6]
        ds = load_ratings(self.write(tmp_path, "\n".join(lines)), seed=4)
        data, mask = ds.train_matrix()
        expected = np.zeros((ds.num_users, ds.num_items))
        marker = np.zeros((ds.num_users, ds.num_items), dtype=bool)
        for u, i, val in ds.columns[ds.train_idx].tolist():
            expected[u, i] = val
            marker[u, i] = True
        assert np.array_equal(data, expected)
        assert np.array_equal(mask.marker, marker)
        # triplets out of row-major order land where the loop put them
        unsorted = RatingDataset([(1, 0, 2.0), (0, 1, 3.0)], 2, 2,
                                 np.array([0, 1]), np.array([], dtype=int))
        data, mask = unsorted.train_matrix()
        assert np.array_equal(data, [[0.0, 3.0], [2.0, 0.0]])
        assert np.array_equal(mask.marker, data != 0)


class TestMatrixIo:
    def test_bitwise_roundtrip(self, tmp_path):
        a = np.random.default_rng(0).standard_normal((7, 5)) * 1e3
        a[0, 0] = 1.0 / 3.0
        path = tmp_path / "a.txt"
        save_matrix(path, a)
        assert np.array_equal(load_matrix(path), a)

    def test_golden_bytes(self, tmp_path):
        a = np.array([[-0.0, 5e-324, np.inf],
                      [np.nan, 1.0 / 3.0, 1e300]])
        path = tmp_path / "g.txt"
        save_matrix(path, a)
        assert path.read_bytes() == (
            b"2 3\n"
            b"-0 4.9406564584124654e-324 inf\n"
            b"nan 0.33333333333333331 1.0000000000000001e+300\n"
        )

    def test_special_values_roundtrip(self, tmp_path):
        a = np.array([[-0.0, 5e-324, -np.inf, np.nan, 2.5e-308]])
        path = tmp_path / "s.txt"
        save_matrix(path, a)
        back = load_matrix(path)
        assert np.array_equal(back, a, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(a))

    def test_header_records_shape(self, tmp_path):
        path = tmp_path / "b.txt"
        save_matrix(path, np.zeros((2, 3)))
        assert path.read_text().splitlines()[0] == "2 3"

    def test_degenerate_shape_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 0\n")
        with pytest.raises(ValueError, match="degenerate"):
            load_matrix(path)

    def test_non_integer_header_names_file(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("x 2\n1 2\n")
        with pytest.raises(ValueError, match="bad header") as info:
            load_matrix(path)
        assert str(path) in str(info.value)

    def test_short_row_reports_location(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("2 3\n1 2 3\n4 5\n")
        with pytest.raises(ValueError, match=":3:"):
            load_matrix(path)

    def test_surplus_row_reports_location(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("2 3\n1 2 3\n4 5 6\n\n7 8 9\n")
        with pytest.raises(ValueError, match="more than 2 rows") as info:
            load_matrix(path)
        assert f"{path}:5:" in str(info.value)

    def test_trailing_blank_lines_allowed(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 2\n1 2\n\n  \n")
        np.testing.assert_array_equal(load_matrix(path), [[1.0, 2.0]])

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            save_matrix(tmp_path / "e.txt", np.zeros(4))
