"""Ratings and matrix ingestion: the columnar readers against the per-line
grammar they replace.

``reference_load_ratings`` is the line-at-a-time reader, written out here so
that ``load_ratings`` is checked against an oracle that shares no code with
it: ids, split, mask, values, duplicate count, warning text and error
messages must all agree.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lowrank import datasets
from lowrank.cli import main
from lowrank.datasets import load_matrix, load_ratings, save_matrix


def reference_load_ratings(path, seed):
    raw = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if "::" in line:
                parts = line.strip().split("::")
            elif "," in line:
                parts = line.strip().split(",")
            else:
                parts = line.split()
            if len(parts) not in (3, 4):
                raise ValueError(f"{path}:{lineno}: expected 3 or 4 fields")
            try:
                user, item = int(parts[0]), int(parts[1])
                value = float(parts[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}:{lineno}: non-finite rating {parts[2].strip()!r}")
            raw.append((user, item, value))
    if not raw:
        raise ValueError(f"{path}: no ratings found")
    user_map = {u: k for k, u in enumerate(sorted({u for u, _, _ in raw}))}
    item_map = {i: k for k, i in enumerate(sorted({i for _, i, _ in raw}))}
    latest, duplicates = {}, 0
    for user, item, value in raw:
        key = (user_map[user], item_map[item])
        duplicates += key in latest
        latest[key] = value
    messages = []
    if duplicates:
        messages.append(f"{path}: {duplicates} duplicate (user, item) pairs; "
                        "kept the last value of each")
    triplets = [(u, i, v) for (u, i), v in sorted(latest.items())]
    n_test = len(triplets) // 10
    order = np.random.default_rng(seed).permutation(len(triplets))
    return (triplets, len(user_map), len(item_map), np.sort(order[n_test:]),
            np.sort(order[:n_test]), duplicates, messages)


def outcome(load, path, seed):
    """What a loader returns, warnings included, or the error it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(path, seed)
        except ValueError as exc:
            return ("error", str(exc))
    return ("ok", result, [str(w.message) for w in caught])


def columnar_load_ratings(path, seed):
    ds = load_ratings(path, seed=seed)
    data, mask = ds.train_matrix()
    return (ds.columns.tolist(), ds.num_users, ds.num_items, ds.train_idx, ds.test_idx,
            ds.duplicate_count, data, mask.marker)


def assert_same_outcome(path, seed=0):
    expected = outcome(reference_load_ratings, path, seed)
    got = outcome(columnar_load_ratings, path, seed)
    assert got[0] == expected[0], (got, expected)
    if got[0] == "error":
        assert got[1] == expected[1]
        return
    triplets, users, items, train_idx, test_idx, dups, messages = expected[1]
    assert got[1][:3] == (triplets, users, items)
    assert np.array_equal(got[1][3], train_idx)
    assert np.array_equal(got[1][4], test_idx)
    assert got[1][5] == dups
    assert got[2] == messages
    data, marker = np.zeros((users, items)), np.zeros((users, items), bool)
    for k in train_idx:
        u, i, v = triplets[k]
        data[u, i], marker[u, i] = v, True
    assert np.array_equal(got[1][6], data)
    assert np.array_equal(got[1][7], marker)


# Plain tokens, and odd ones: forms only Python's int or float takes (1_000,
# 1_0), an id nobody takes (1.0), non-finite and non-numeric ratings, and
# timestamps that hold a separator.
plain_ids = st.integers(-2, 6).map(str)
odd_ids = st.sampled_from(["+3", "007", "1_000", "1.0", "x", " 4 "])
plain_ratings = st.one_of(st.floats(-5, 5, allow_nan=False).map(repr),
                          st.integers(1, 5).map(str))
odd_ratings = st.sampled_from(["3.", ".5", "1e0", "-0", "nan", "inf", "1_0",
                               "abc"])
stamps = st.one_of(st.integers(0, 10**10).map(str),
                   st.sampled_from(["abc", "12:30", "", "a b", "a,b", "a::b"]))


@st.composite
def rating_files(draw):
    """Mostly one separator and plain tokens, so that half the files load."""
    sep = draw(st.sampled_from(["::", ",", " ", "\t", "  "]))
    mixed = draw(st.integers(0, 3)) == 0
    width = draw(st.sampled_from([3, 4]))
    odd = draw(st.integers(0, 2)) == 0
    ids = st.one_of(plain_ids, odd_ids) if odd else plain_ids
    ratings = st.one_of(plain_ratings, odd_ratings) if odd else plain_ratings
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 8)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        fields = [draw(ids), draw(ids), draw(ratings)]
        count = draw(st.sampled_from([3, 4, 2, 5])) if mixed else width
        fields += [draw(stamps) for _ in range(count - 3)]
        fields = fields[:count]
        line_sep = draw(st.sampled_from(["::", ",", " ", ":", ": :"])) \
            if mixed else sep
        lines.append(line_sep.join(fields))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


class TestRatingsParity:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=rating_files(), seed=st.integers(0, 3))
    @example(text="1::2::3::978300760\n1::3::4::978300761\n", seed=0)
    @example(text="1,2,3\n1,3,4,5\n2,2,1,x\n", seed=0)
    @example(text="1 1 2\n1 1 4\n2 1 3\r\n\r\n1 1 5\n", seed=1)
    # usecols would let a 5-field line through; the reference rejects it.
    @example(text="1 2 3\n1 3 4 5 6\n", seed=0)
    # numpy refuses 1.0 as an int64 today; either way the answer must not move.
    @example(text="1.0 2 3\n", seed=0)
    @example(text="+3 1_000 2.5\n3 1000 1.5\n", seed=0)
    @example(text="1::2::3\n4,5,6\n7 8 9\n", seed=0)
    @example(text="1::2::3::12:30\n", seed=0)
    # A separator anywhere in the file decides, not the first line's.
    @example(text="1,2,3,x\n1,3,3,a::b\n", seed=0)
    @example(text="1 2 3 x\n1 3 3 a,b\n", seed=0)
    @example(text="1: :2: :3\n", seed=0)
    # ":" columns around a non-empty gap are not a "::" separator.
    @example(text="1::2::3\n4: :5: :6\n", seed=0)
    @example(text="1::2:x:3\n", seed=0)
    @example(text="1 1 nan\n", seed=0)
    @example(text="\n  \n", seed=0)
    def test_matches_per_line_reference(self, tmp_path, text, seed):
        path = tmp_path / "ratings.dat"
        path.write_bytes(text.encode())
        assert_same_outcome(path, seed)


class TestRatingsColumnarPath:
    """Files in one separator and one field count never reach the per-line
    reader; the others do, and only they."""

    @pytest.fixture
    def reference_calls(self, monkeypatch):
        calls = []
        reference = datasets._read_rating_lines

        def counted(*args):
            calls.append(args)
            return reference(*args)

        monkeypatch.setattr(datasets, "_read_rating_lines", counted)
        return calls

    @pytest.mark.parametrize("text", [
        "1::5::3::978300760\n2::5::4::978300761\n",
        "1::5::3\n2::5::4",
        "1,5,3.5\r\n2,5,4\r\n",
        "1,5,3,x\n2,5,4,\n",
        "1 5 3\n\n  \n2\t5 4\n",
        "1 5 3 stamp\n2 5 4 -\n",
        "+1 -5 3e0\n",
    ])
    def test_homogeneous_files_take_the_columnar_path(self, tmp_path, text,
                                                      reference_calls):
        path = tmp_path / "r.dat"
        path.write_bytes(text.encode())
        assert load_ratings(path).columns.size
        assert reference_calls == []

    @pytest.mark.parametrize("text", [
        "1 2 3\n1 3 4 5 6\n",     # a 5-field line
        "1 2 3\n1 3 4 9\n",       # 3 and 4 fields mixed
        "1::2::3\n1 3 4\n",       # separators mixed
        "1_000 2 3\n",            # only Python's int takes it
        "1.0 2 3\n",
        "1: :2: :3\n",
        "1 1 inf\n",
    ])
    def test_other_files_take_the_reference_path(self, tmp_path, text,
                                                 reference_calls):
        path = tmp_path / "r.dat"
        path.write_bytes(text.encode())
        try:
            load_ratings(path)
        except ValueError:
            pass
        assert len(reference_calls) == 1


class TestNonFiniteRatings:
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_load_ratings_rejects_with_location(self, tmp_path, token):
        path = tmp_path / "r.dat"
        path.write_text(f"1 1 2.0\n2 1 {token}\n")
        with pytest.raises(ValueError, match="non-finite rating") as info:
            load_ratings(path)
        assert f"{path}:2:" in str(info.value)

    def test_eval_rmse_rejects_with_location(self, tmp_path, capsys):
        save_matrix(tmp_path / "U.txt", np.ones((3, 3)))
        save_matrix(tmp_path / "V.txt", np.eye(3))
        test_file = tmp_path / "test.txt"
        test_file.write_text("0 0 2.0\n1 1 nan\n")
        code = main(["eval", "--estimate-dir", str(tmp_path),
                     "--truth-dir", str(tmp_path), "--metric", "rmse",
                     "--test-file", str(test_file)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{test_file}:2: non-finite rating 'nan'" in err

    def test_eval_rmse_reads_the_ratings_grammar(self, tmp_path, capsys):
        save_matrix(tmp_path / "U.txt", np.array([[1.0, 2.0], [3.0, 4.0]]))
        save_matrix(tmp_path / "V.txt", np.eye(2))
        test_file = tmp_path / "test.txt"
        test_file.write_text("0::0::2.0::978300760\r\n\r\n1::1::4.0::0\r\n")
        code = main(["eval", "--estimate-dir", str(tmp_path),
                     "--truth-dir", str(tmp_path), "--metric", "rmse",
                     "--test-file", str(test_file)])
        assert code == 0
        value = float(capsys.readouterr().out.strip().split("=")[-1])
        assert value == pytest.approx(np.sqrt(0.5), abs=1e-6)


class TestLoadMatrixEdges:
    def test_blank_line_inside_body_errors_at_its_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3 2\n1 2\n\n3 4\n5 6\n")
        with pytest.raises(ValueError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}:3: expected 2 values, got 0"

    def test_whitespace_line_inside_body_errors_at_its_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 2\n \t\n3 4\n")
        with pytest.raises(ValueError, match=f"{path}:3: expected 2 values"):
            load_matrix(path)

    def test_surplus_row_right_after_the_body(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n1 2\n3 4\n")
        with pytest.raises(ValueError, match=f"{path}:3: more than 1 rows"):
            load_matrix(path)

    def test_missing_row_at_end_of_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 2\n")
        with pytest.raises(ValueError, match=f"{path}:3: expected 2 values"):
            load_matrix(path)

    def test_crlf_and_missing_final_newline_are_bit_identical(self, tmp_path):
        a = np.random.default_rng(1).standard_normal((4, 3))
        a[0, :] = [-0.0, 5e-324, np.nan]
        path = tmp_path / "lf.txt"
        save_matrix(path, a)
        text = path.read_bytes()
        for variant in (text.replace(b"\n", b"\r\n"), text.rstrip(b"\n"),
                        text.replace(b"\n", b"\r\n").rstrip(b"\r\n")):
            other = tmp_path / "variant.txt"
            other.write_bytes(variant)
            back = load_matrix(other)
            assert back.tobytes() == load_matrix(path).tobytes()
            assert np.array_equal(back, a, equal_nan=True)

    @pytest.mark.parametrize("text, expected", [
        ("1 2\n1_0 2\n", [[10.0, 2.0]]),   # only Python's float takes 1_0
        ("2 1\n7\n8\n", [[7.0], [8.0]]),
        ("1 1\n5", [[5.0]]),
    ])
    def test_shapes_and_python_only_tokens(self, tmp_path, text, expected):
        path = tmp_path / "m.txt"
        path.write_text(text)
        back = load_matrix(path)
        assert back.shape == np.shape(expected)
        assert np.array_equal(back, expected)
