"""Ratings, matrix and mask ingestion: the columnar and vectorised readers
against the per-line grammar they replace.

``reference_load_ratings`` is the line-at-a-time reader, written out here so
that ``load_ratings`` is checked against an oracle that shares no code with
it: ids, split, mask, values, duplicate count, warning text and error
messages must all agree. ``float_load_matrix`` reads a matrix file one
Python ``float`` a token, and ``loadtxt_load_mask`` is the ``np.loadtxt``
mask reader that ``load_mask`` replaced; ``load_matrix`` and ``load_mask``
must match them bit for bit, or raise the same message.
"""

import math
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lowrank import datasets, measurements, textio
from lowrank.cli import main
from lowrank.datasets import load_matrix, load_ratings, save_matrix
from lowrank.measurements import ObservationMask, load_mask, save_mask


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
    @pytest.mark.parametrize("rows", [100000, 4000000000])
    def test_header_beyond_the_body_allocates_nothing(self, tmp_path, rows):
        # a body of B bytes holds at most (B + 1) // 2 tokens: the reader
        # names the short row without allocating rows x rows values
        path = tmp_path / "m.txt"
        path.write_text(f"{rows} {rows}\n1 2 3\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"{path}:2: expected {rows} values, got 3"
        assert peak < 2 ** 20

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


def float_load_matrix(path):
    """The matrix grammar, one Python ``float`` a token."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        try:
            rows, cols = map(int, header)
        except ValueError:
            raise ValueError(f"{path}: bad header {' '.join(header)!r}, "
                             "expected 'rows cols'") from None
        if rows < 0 or cols < 0:
            raise ValueError(f"{path}: negative shape {rows}x{cols}")
        if rows == 0 or cols == 0:
            raise ValueError(f"{path}: degenerate shape {rows}x{cols}")
        out = []
        for lineno in range(2, rows + 2):
            tokens = fh.readline().split()
            if len(tokens) != cols:
                raise ValueError(f"{path}:{lineno}: expected {cols} values, "
                                 f"got {len(tokens)}")
            try:
                out.append([float(token) for token in tokens])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
        for lineno, line in enumerate(fh, start=rows + 2):
            if line.strip():
                raise ValueError(f"{path}:{lineno}: more than {rows} rows")
    return np.array(out)


def loadtxt_load_mask(path):
    """``load_mask`` as it was when ``np.loadtxt`` parsed the pairs."""
    with open(path) as fh:
        header = fh.readline().split()
        try:
            rows, cols = map(int, header)
        except ValueError:
            raise ValueError(f"{path}: bad header {' '.join(header)!r}, "
                             "expected 'rows cols'") from None
        if rows < 0 or cols < 0:
            raise ValueError(f"{path}: negative shape {rows}x{cols}")
        start, lineno = fh.tell(), 2
        while (line := fh.readline()) and not line.strip():
            start, lineno = fh.tell(), lineno + 1
        pairs = np.empty((0, 2), dtype=np.int64)
        if line:
            fh.seek(start)
            try:
                pairs = np.loadtxt(fh, dtype=np.int64, comments=None, ndmin=2)
                if pairs.shape[1] != 2:
                    raise ValueError("expected 'i j' per line, got "
                                     f"{pairs.shape[1]} fields")
            except ValueError as exc:
                fh.seek(start)
                textio._check_mask_lines(fh, path, lineno)
                raise ValueError(f"{path}: {exc}") from exc
    try:
        return ObservationMask.from_indices(rows, cols, pairs)
    except measurements._PairError as exc:
        # the pairs are the nonblank lines after the header
        with open(path) as fh:
            next(fh)
            lines = [lineno for lineno, line in enumerate(fh, start=2)
                     if line.split()]
        raise ValueError(f"{path}:{lines[exc.at]}: {exc}") from exc


def read_outcome(load, path):
    try:
        return ("ok", load(path))
    except ValueError as exc:
        return ("error", str(exc))


def assert_reads_as_float(path):
    expected = read_outcome(float_load_matrix, path)
    got = read_outcome(load_matrix, path)
    assert got[0] == expected[0], (got, expected)
    if got[0] == "error":
        assert got[1] == expected[1]
    else:
        assert got[1].shape == expected[1].shape
        assert got[1].tobytes() == expected[1].tobytes()


# Values at the edges of save_matrix's kernel and of the reader's: zeros,
# subnormals, the smallest normal, non-finite values, both sides of 1e-15
# and 1e16, a point past the first 16 bytes, and 2^53 with its neighbours.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               math.nan, math.inf, -math.inf, 1e-15, 1e16,
               float(np.nextafter(1e-15, 0)), float(np.nextafter(1e16, 0)),
               float(np.nextafter(1e16, math.inf)), 1234567890123456.8,
               2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 1e300, -1e-300]
matrix_values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(),
                          st.floats(-10, 10), st.floats(-1e-5, 1e-5))


@st.composite
def written_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    values = draw(st.lists(matrix_values, min_size=rows * cols,
                           max_size=rows * cols))
    return np.array(values).reshape(rows, cols)


@st.composite
def decimal_tokens(draw):
    """A decimal token: sign, 1 to 25 digits with leading zeros, a point
    anywhere, and an exponent of any width; or an odd form."""
    odd = draw(st.sampled_from([
        ".5", "5.", "+.5", "1_0", "Infinity", "-inf", "nan", "-nan", "1e",
        "e5", ".", "-", "--1", "+-1", "1.2.3", "1e5e5", "1e+-5", "0x10",
        "9007199254740993", "9007199254740991", "18014398509481986"]))
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    if draw(st.integers(0, 3)) == 0:
        digits = "0" * draw(st.integers(1, 6)) + digits
    cut = draw(st.integers(0, len(digits)))
    point = draw(st.sampled_from(["", "."]))
    exponent = draw(st.sampled_from([
        "", "e{:+d}", "E{:d}", "e{:+03d}", "e-{:03d}", "e{:04d}"]))
    token = (draw(st.sampled_from(["", "-", "+"])) + digits[:cut] + point
             + digits[cut:] + exponent.format(draw(st.integers(0, 400))))
    return odd if draw(st.integers(0, 5)) == 0 else token


@st.composite
def headers(draw, rows, cols):
    """The header line of a rows x cols file, mostly as the writers give
    it; else a form that ``int`` reads (a sign, blanks, a leading zero, an
    underscore, a non-ASCII digit) or one it refuses (three fields, a
    negative or non-numeric field)."""
    if draw(st.integers(0, 3)):
        return f"{rows} {cols}"
    arabic = str(rows).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    return draw(st.sampled_from([
        f"+{rows} {cols}", f" {rows}\t{cols} ", f"0{rows} {cols}",
        f"{rows} {cols} 4", f"-1 {cols}", f"x {cols}", f"{rows}_0 {cols}",
        f"{arabic} {cols}"]))


@st.composite
def matrix_texts(draw):
    """Matrix files in the canonical layout, and in others: tabs, runs of
    spaces, leading blanks, CRLF, no final newline, blank lines at the end
    or inside, a missing or surplus token or row; headers as ``headers``
    draws them."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    canonical = draw(st.booleans())
    token = draw(st.sampled_from([
        decimal_tokens(), matrix_values.map(lambda v: "%.17g" % v)]))
    lines = []
    for _ in range(rows):
        tokens = [draw(token) for _ in range(cols)]
        if canonical:
            lines.append(" ".join(tokens))
            continue
        if draw(st.integers(0, 5)) == 0:
            tokens = tokens[:-1] if draw(st.booleans()) else tokens + ["1"]
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(tokens))
    if not canonical and draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, rows)),
                     draw(st.sampled_from(["", "  ", "1 2"])))
    end = "\n" if canonical else draw(st.sampled_from(["\n", "\r\n"]))
    tail = draw(st.sampled_from([end, "", end * 2, end + " \t" + end]))
    return draw(headers(rows, cols)) + end + end.join(lines) + tail


class TestMatrixReadsAsFloat:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(a=written_matrices())
    def test_written_values(self, tmp_path, a):
        path = tmp_path / "m.txt"
        save_matrix(path, a)
        assert_reads_as_float(path)
        back = load_matrix(path)
        # bit for bit, nan aside: "nan" reads as Python's nan
        nan = np.isnan(a)
        assert np.array_equal(np.isnan(back), nan)
        assert back[~nan].tobytes() == a[~nan].tobytes()

    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=matrix_texts())
    @example(text="1 3\n9007199254740993 18014398509481986 1_0\n")
    @example(text="2 2\r\n1 2\r\n3 4")
    @example(text="2 1\n1\n\n2\n")
    @example(text="1 2\n0 -0\n\n \t\n")
    @example(text="1 1\n" + "1" * 70 + "\n")
    @example(text="+2 1\n7\n8\n")
    @example(text="2 1\r7\r8\r")
    def test_texts(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_bytes(text.encode())
        assert_reads_as_float(path)


def near_ties():
    """Tokens of 17 to 25 digits just above, at and below the midpoint
    between two neighbouring doubles, and exact ties: integers, which the
    kernel rounds half to even itself, and fractions whose 10^-q is
    inexact, which round to even only if the kernel leaves them to
    float."""
    tokens = ["9007199254740993", "18014398509481986", "18014398509481985",
              "9007199254740993.0", "4503599627370496.5", "1e23",
              "9007199254740991.5", "4.50359962737049575e15",
              "2.251799813685247875e15",
              # ties that the kernel, without its midpoint test, rounds to odd
              "4.39784341186238025e15", "-4.44592060855164425e15",
              "4.42989304741999625e15", "4.40378320610010825e15",
              "-4.36815679275620425e15"]
    rng = np.random.default_rng(5)
    for bits, fractions in [(52, [".5"]), (51, [".25", ".75"]),
                            (50, [".125", ".375", ".625", ".875"])]:
        for k in rng.integers(2 ** bits, 2 ** (bits + 1), 24).tolist():
            tie = f"{k}{fractions[k % len(fractions)]}"
            digits = tie.replace(".", "")
            tokens += [tie, f"{digits[0]}.{digits[1:]}e{len(str(k)) - 1}"]
    for x in [1.0, 0.1, 123.456, 1e-5, 2.0 ** 60, 6.02214076e23, 1e-250]:
        mid = (Decimal(x) + Decimal(float(np.nextafter(x, math.inf)))) / 2
        for digits in (17, 18, 19, 25):
            tokens += [f"{mid:.{digits - 1}e}", f"{-mid:.{digits - 1}e}"]
        tokens.append(f"{mid:f}")
    return tokens


def test_near_ties_read_as_float(tmp_path):
    tokens = near_ties()
    path = tmp_path / "m.txt"
    path.write_text(f"1 {len(tokens)}\n" + " ".join(tokens) + "\n")
    assert load_matrix(path).tobytes() == \
        np.array([[float(t) for t in tokens]]).tobytes()


class TestCanonicalFilesTakeTheKernel:
    """Written files never reach a reference reader."""

    def test_matrix(self, tmp_path, monkeypatch):
        a = np.random.default_rng(3).standard_normal((40, 30)) * 1e-3
        a[a < 0] = 0.0
        a[0, :3] = [-0.0, 1e-7, 12345.678]
        save_matrix(tmp_path / "m.txt", a)
        monkeypatch.setattr(textio, "_read_matrix_rows", None)
        assert load_matrix(tmp_path / "m.txt").tobytes() == a.tobytes()

    def test_mask(self, tmp_path, monkeypatch):
        marker = np.random.default_rng(4).random((30, 40)) < 0.5
        save_mask(tmp_path / "mask.txt", ObservationMask(marker))
        monkeypatch.setattr(textio, "_check_mask_lines", None)
        assert np.array_equal(load_mask(tmp_path / "mask.txt").marker, marker)


@pytest.fixture
def refused(monkeypatch):
    """The count of tokens that ``_decimal`` leaves to ``float``, one entry a
    batch of the loads that follow."""
    counts = []
    decimal = textio._decimal

    def counted(*args):
        values, ok = decimal(*args)
        counts.append(int(np.count_nonzero(~ok)))
        return values, ok

    monkeypatch.setattr(textio, "_decimal", counted)
    return counts


def write_tokens(path, tokens, cols):
    rows = len(tokens) // cols
    path.write_text(f"{rows} {cols}\n" + "".join(
        " ".join(tokens[i * cols:(i + 1) * cols]) + "\n" for i in range(rows)))


class TestKernelReadsEveryForm:
    """Token forms that the number kernel reads itself, each value bit for
    bit as ``float`` reads its token."""

    def test_sixteen_integer_digits(self, tmp_path, refused):
        # "%.17g" writes 1e15 <= |x| < 1e16 with the point at byte 16
        rng = np.random.default_rng(6)
        a = rng.uniform(1e15, 1e16, (200, 200))
        a *= rng.choice([-1.0, 1.0], a.shape)
        path = tmp_path / "m.txt"
        save_matrix(path, a)
        tokens = path.read_bytes().replace(b"-", b"").split()
        assert any(token.find(b".") == 16 for token in tokens)
        assert_reads_as_float(path)
        assert refused and sum(refused) == 0

    def test_exponent_only_in_the_second_batch(self, tmp_path, refused):
        rng = np.random.default_rng(7)
        tokens = ["%.6f" % x for x in rng.uniform(0.5, 9.5, 100 * 100)]
        tokens[textio.READ_BLOCK + 100] = "1.5e-7"
        path = tmp_path / "m.txt"
        write_tokens(path, tokens, 100)
        assert_reads_as_float(path)
        assert len(refused) == 2 and sum(refused) == 0

    def test_every_token_has_an_exponent(self, tmp_path, refused):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(60 * 50) * 10.0 ** rng.integers(-250, 250,
                                                                60 * 50)
        # 17 significant digits, so that no token is a near-tie, which the
        # kernel leaves to float
        tokens = ["%.16e" % v for v in x]
        tokens[::2] = [t.upper() for t in tokens[::2]]
        path = tmp_path / "m.txt"
        write_tokens(path, tokens, 50)
        assert_reads_as_float(path)
        assert refused and sum(refused) == 0

    def test_point_at_bytes_16_to_23(self, tmp_path, refused):
        rng = np.random.default_rng(9)
        tokens = []
        for point in range(16, 24):
            for fraction in range(24 - point):
                width = point + fraction
                digits = str(rng.integers(1, 10 ** min(width, 18)))
                digits = digits.rjust(width, "0")
                sign = str(rng.choice(["", "-", "+"]))
                tokens.append(sign + digits[:point] + "." + digits[point:])
        path = tmp_path / "m.txt"
        write_tokens(path, tokens, len(tokens))
        assert_reads_as_float(path)
        assert refused and sum(refused) == 0

    def test_nineteen_and_twenty_digits_up_to_two_to_the_62(self, tmp_path,
                                                            refused):
        # N below 2^62 whose first 16 digits are at their limit, 2^62 // 10^c
        # for the c digits after them; 2^62 itself is left to float
        tokens = ["4611686018427387648e0", "4611686018427387647",
                  "4611686018427387903", "-4611686018427387000",
                  "04611686018427387903", "+4611686018427387.903e3",
                  str(2 ** 62)]
        path = tmp_path / "m.txt"
        write_tokens(path, tokens, len(tokens))
        assert_reads_as_float(path)
        assert refused == [1]


def exact_ties():
    """Tokens of N 10^q, N < 2^62 and q >= 0, that are exact midpoints
    between two neighbouring doubles: M 2^a for an odd 54-bit M = K 5^q,
    from 2^53 up to 2^79, 1e23 among them. Each is written as its integer
    digits where those are below 2^62, as N e q, and in "%.*e" form, with
    either sign."""
    rng = np.random.default_rng(11)
    tokens = []
    for q in range(24):
        five = 5 ** q
        lo, hi = -(-2 ** 53 // five), -(-2 ** 54 // five)
        for k in rng.integers(lo, hi, 6).tolist() + [lo, hi - 1]:
            k |= 1
            if not 2 ** 53 <= k * five < 2 ** 54:
                continue
            for a in {q, q + 1, (62 - k.bit_length()) // 2 + q,
                      min(62 - k.bit_length() + q, 25)}:
                n = k << (a - q)
                if n >= 2 ** 62 or k * five << a >= 2 ** 79:
                    continue
                sign = str(rng.choice(["", "-"]))
                digits = str(n)
                point = f"{digits[0]}.{digits[1:]}e+{q + len(digits) - 1}"
                tokens += [f"{sign}{digits}e{q}", sign + point]
                if k * five << a < 2 ** 62:
                    tokens.append(f"{sign}{k * five << a}")
    return tokens


class TestExactTies:
    """Exact midpoints with q >= 0 are settled by the kernel, half to even,
    as ``float`` settles them."""

    def test_constructed_ties(self, tmp_path, refused):
        tokens = exact_ties()
        assert "1e23" in tokens or "-1e23" in tokens
        assert len(tokens) > 150
        values = [Decimal(t) for t in tokens]
        assert all(v == int(v) for v in values)
        path = tmp_path / "m.txt"
        write_tokens(path, tokens, len(tokens))
        assert_reads_as_float(path)
        assert refused and sum(refused) == 0

    @pytest.mark.parametrize("low, high", [(1e16, 1e17), (1e17, 1e18)])
    def test_sixteen_significant_digits(self, tmp_path, refused, low, high):
        # "%.15e" gives 16 significant digits, as shortest-repr writers do;
        # a quarter of these tokens in [1e16, 1e17) are exact ties
        x = np.random.default_rng(12).uniform(low, high, 20_000)
        path = tmp_path / "m.txt"
        write_tokens(path, ["%.15e" % v for v in x], 100)
        assert_reads_as_float(path)
        assert refused and sum(refused) == 0


@st.composite
def mask_texts(draw):
    """Mask files as save_mask writes them and in other layouts: signs,
    leading zeros, long or odd indices, tabs, CRLF, blank lines, three
    fields, pairs out of range or repeated; headers as ``headers`` draws
    them."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    index = st.one_of(st.integers(0, 6).map(str), st.sampled_from(
        ["+1", "-0", "007", "99999999999999999999", "123456789", "1_0",
         "1.0", "x", "١"]))
    canonical = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if canonical:
            i, j = draw(st.integers(0, 6)), draw(st.integers(0, 6))
            lines.append(f"{i} {j}")
            continue
        count = draw(st.sampled_from([2, 2, 1, 3]))
        fields = [draw(index) for _ in range(count)]
        lines.append(draw(st.sampled_from([" ", "\t", "  "])).join(fields))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " "])))
    end = "\n" if canonical else draw(st.sampled_from(["\n", "\r\n"]))
    tail = draw(st.sampled_from([end, "", end * 2]))
    return (draw(headers(rows, cols)) + end + end.join(lines)
            + (tail if lines else ""))


def mask_outcome(load, path):
    result = read_outcome(load, path)
    if result[0] == "ok":
        return ("ok", result[1].shape, result[1].flat_indices.tolist())
    return result


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mask_texts())
@example(text="2 3\n0 1\n1 2\n")
@example(text="2 3\n0 1\n1 2")
@example(text="2 3\n0 1\n0 1\n")
@example(text="2 3\n0 9\n")
@example(text="2 3\n\n0 1\n")
@example(text="3 3\n0 1 2\n")
@example(text="2 3\n0 1\n1 ")
@example(text="2 3\n0 1\n\n1 2\n0 1\n")
@example(text="2 3\n0 1\n0 2\n1 0\n0 2\n")
@example(text="+2 3\n0 1\n1 2\n")
def test_load_mask_matches_loadtxt_reader(tmp_path, text):
    path = tmp_path / "mask.txt"
    path.write_bytes(text.encode())
    assert mask_outcome(load_mask, path) == \
        mask_outcome(loadtxt_load_mask, path)


class TestUndecodableBytes:
    """A byte that is not UTF-8 is named by file and line."""

    @pytest.mark.parametrize("data, line", [
        (b"2 2\n1 2\n3 \xff\n", 3),
        (b"2 \xff\n1 2\n3 4\n", 1),
        (b"1 2\n1 2\n\n\xfe\n", 4),
        (b"2 1\r7\r\xff\r", 3),           # a lone "\r" ends a line too
        (b"2 1\r\n7\r\n\xff\r\n", 3),
    ])
    def test_load_matrix(self, tmp_path, data, line):
        path = tmp_path / "m.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            load_matrix(path)
        assert str(info.value).startswith(f"{path}:{line}: byte 0x")

    def test_load_mask(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_bytes(b"2 3\n0 1\n\xc3 2\n")
        with pytest.raises(ValueError) as info:
            load_mask(path)
        assert str(info.value).startswith(f"{path}:3: byte 0xc3 is not UTF-8")

    def test_load_ratings(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_bytes(b"1 1 2.0\n2 1 3.0\n\n2 \xff 4.0\n")
        with pytest.raises(ValueError) as info:
            load_ratings(path)
        assert str(info.value).startswith(f"{path}:4: byte 0xff is not UTF-8")

    def test_load_ratings_cr(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_bytes(b"1 2 3\r4 5 \xff\r")
        with pytest.raises(ValueError) as info:
            load_ratings(path)
        assert str(info.value).startswith(f"{path}:2: byte 0xff is not UTF-8")

    def test_cli_rmc(self, tmp_path, capsys):
        data, mask = tmp_path / "d_obs.txt", tmp_path / "mask.txt"
        data.write_bytes(b"2 2\n1 \xff\n3 4\n")
        save_mask(mask, ObservationMask.full(2, 2))
        code = main(["rmc", "--data", str(data), "--mask", str(mask),
                     "--rank", "1", "--out-dir", str(tmp_path / "est")])
        assert code == 1
        assert f"error: {data}:2: byte 0xff is not UTF-8" in \
            capsys.readouterr().err
