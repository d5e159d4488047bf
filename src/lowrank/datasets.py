"""Problem generation, ratings ingestion, and matrix text I/O.

Ingestion contract. A ratings file (``load_ratings``, and the test file of
``lowrank eval --metric rmse``) holds one rating per line: ``user item
rating`` and an optional fourth field, a timestamp that is never read.
Blank lines are skipped. A line containing ``::`` is split on ``::``, else
one containing ``,`` on ``,``, else on whitespace. Ids are Python ``int``
literals and ratings Python ``float`` literals; a rating that is not finite
(``nan``, ``inf``, ``1e400``) is rejected. Every error names the file and
line (``path:line: ...``), and a file without ratings is rejected.

The grammar is applied per line, but read per file: the separator is sniffed
once from the whole file and numpy's C parser reads the columns. When that
parse cannot vouch for the per-line answer (mixed separators or field
counts, ids such as ``1_000`` that only Python's ``int`` reads, or any
error), the file is re-read line by line by the reference reader, which
returns what the per-line grammar gives or raises its ``path:line`` error.
Either way the result is the same.

``load_ratings`` remaps ids to dense 0-based indices in sorted order. A
(user, item) pair given more than once keeps its last value, and the number
of repeats is counted in ``duplicate_count`` and warned about once.

A matrix file (``save_matrix``/``load_matrix``) has a ``rows cols`` header
and then exactly ``rows`` lines of ``cols`` values; blank lines may follow
the last row but not precede it, and each value is what Python's ``float``
reads from its token. A body in the layout ``save_matrix`` writes is read by
the vectorised reader of ``textscan``: its tokenizer finds the separators
in numpy, and its kernel reads each value exactly, by SWAR digit arithmetic
and a double-double product with 10^q, leaving to ``float`` only the tokens
it cannot vouch for. Any other body is read line by line by the reference
reader, which raises the ``path:line`` errors. A byte that is not UTF-8 is
such an error too, in every reader of this module.

``save_matrix`` writes each value as ``"%.17g"`` does, byte for byte. It
formats blocks of at most ``_BLOCK`` values in numpy, so no temporary is the
size of the matrix. An exact zero is the literal ``0`` or ``-0``. A normal
number with 1e-15 <= |x| < 1e16 is rounded half to even to 17 significant
digits by exact integer arithmetic (one 128-bit product per value, after
Ryu: Adams, PLDI 2018), and its digits come from a table of 4-digit
strings. nan, +-inf, subnormals and the values outside that range are
formatted by ``"%.17g"`` itself.
"""

import functools
import io
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import textscan
from .measurements import ObservationMask, mask_project, read_shape


@dataclass(frozen=True)
class PlantedProblem:
    """Synthetic instance with known low-rank part, spikes, and mask."""

    l0: np.ndarray
    s0: np.ndarray
    mask: ObservationMask
    d_obs: np.ndarray
    rank: int


def generate_planted(m, n, r, spike_frac, magnitude=1.0, obs_frac=1.0, seed=0):
    """Draw a planted low-rank + sparse-spike recovery problem.

    The low-rank part is a product of seeded Gaussian factors (redrawn in the
    measure-zero event it is rank deficient); spikes have independent
    Bernoulli support and uniform random signs; each entry is observed
    independently with probability ``obs_frac``.
    """
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range [1, {min(m, n)}]")
    if not 0.0 <= spike_frac <= 1.0:
        raise ValueError(f"spike fraction {spike_frac} outside [0, 1]")
    if not 0.0 <= obs_frac <= 1.0:
        raise ValueError(f"observation fraction {obs_frac} outside [0, 1]")
    if not math.isfinite(magnitude):
        raise ValueError(f"spike magnitude {magnitude} is not finite")
    rng = np.random.default_rng(seed)
    while True:
        left = rng.standard_normal((m, r))
        right = rng.standard_normal((n, r))
        # left @ right.T has rank r exactly when both factors do
        if np.linalg.matrix_rank(left) == r and np.linalg.matrix_rank(right) == r:
            break
    l0 = left @ right.T
    support = rng.random((m, n)) < spike_frac
    signs = rng.choice([-1.0, 1.0], size=(m, n))
    s0 = np.where(support, magnitude * signs, 0.0)
    marker = rng.random((m, n)) < obs_frac
    if not marker.any():
        marker[0, 0] = True  # keep the instance solvable
    mask = ObservationMask(marker)
    d_obs = mask_project(l0 + s0, mask)
    return PlantedProblem(l0=l0, s0=s0, mask=mask, d_obs=d_obs, rank=r)


RATING_DTYPE = np.dtype([("user", np.int64), ("item", np.int64),
                         ("value", np.float64)])
TEST_FRACTION = 0.1


class RatingDataset:
    """User-item ratings with a seeded 9:1 train/test split.

    ``columns`` is a structured array (``RATING_DTYPE``: ``user``, ``item``,
    ``value``), one row per rating; ``load_ratings`` stores it deduplicated
    in row-major order. The constructor also takes a list of (user, item,
    rating) tuples. ``train_idx`` and ``test_idx`` index the rows of
    ``columns``; ``test`` is the test rows as a list of such tuples, built
    on first read.
    """

    def __init__(self, triplets, num_users, num_items, train_idx, test_idx,
                 duplicate_count=0):
        self.columns = np.asarray(triplets, dtype=RATING_DTYPE)
        if self.columns.ndim != 1:
            raise ValueError("triplets must be (user, item, rating) tuples")
        self.num_users = num_users
        self.num_items = num_items
        self.train_idx = train_idx
        self.test_idx = test_idx
        self.duplicate_count = duplicate_count

    @functools.cached_property
    def test(self):
        return self.columns[self.test_idx].tolist()

    def train_matrix(self):
        """Dense matrix of training ratings plus its observation mask."""
        train = self.columns[self.train_idx]
        # adjoint reads the values in row-major order
        flat = train["user"] * self.num_items + train["item"]
        train = train[np.argsort(flat, kind="stable")]
        mask = ObservationMask.from_indices(
            self.num_users, self.num_items,
            np.column_stack((train["user"], train["item"])))
        return mask.adjoint(train["value"]), mask


def split_ratings(triplets, seed):
    """Seeded shuffle partition: ceil(9/10) train, floor(1/10) test."""
    n = len(triplets)
    n_test = int(math.floor(n * TEST_FRACTION))
    order = np.random.default_rng(seed).permutation(n)
    return np.sort(order[n_test:]), np.sort(order[:n_test])


def _split_fields(line):
    if "::" in line:
        return line.strip().split("::")
    if "," in line:
        return line.strip().split(",")
    return line.split()


def _read_rating_lines(lines, path):
    """The reference reader: the grammar applied line by line in Python."""
    users, items, values = [], [], []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = _split_fields(line)
        if len(parts) not in (3, 4):
            raise ValueError(f"{path}:{lineno}: expected 3 or 4 fields")
        try:
            user, item, value = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if not math.isfinite(value):
            raise ValueError(
                f"{path}:{lineno}: non-finite rating {parts[2].strip()!r}")
        users.append(user)
        items.append(item)
        values.append(value)
    if not users:
        raise ValueError(f"{path}: no ratings found")
    return np.array(users), np.array(items), np.array(values)


def _parse_rating_columns(data):
    """The same grammar through numpy's C parser, or None where it cannot
    vouch for the reference's answer.

    The separator is sniffed once: ``::`` if it occurs anywhere, else ``,``
    if that does, else whitespace, so a line that the per-line grammar would
    split on another separator fails the parse. The field count comes from
    the first non-blank line, and loadtxt refuses lines of any other count.
    ``::`` is parsed as two ``:`` columns around an empty one.
    """
    sep = b"::" if b"::" in data else b"," if b"," in data else None
    first = re.search(rb"\S[^\r\n]*", data)
    if first is None:
        return None
    fields = len(first.group().split(sep))
    if fields not in (3, 4):
        return None
    columns = [("user", np.int64), ("item", np.int64), ("value", np.float64),
               ("stamp", "S1")]
    dtype, gaps = [], []
    for k, column in enumerate(columns[:fields]):
        if k and sep == b"::":
            gaps.append(f"gap{k}")
            dtype.append((gaps[-1], "S1"))
        dtype.append(column)
    lines = io.TextIOWrapper(io.BytesIO(data))
    with warnings.catch_warnings():
        # Any warning, such as one numpy gives before changing a rule, is a
        # refusal.
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1,
                               delimiter={b"::": ":", b",": ","}.get(sep))
        except (ValueError, Warning):
            return None
    if any((table[name] != b"").any() for name in gaps):
        return None
    if not np.isfinite(table["value"]).all():
        return None
    return table["user"], table["item"], table["value"]


def read_rating_columns(path):
    """(user, item, rating) columns of a ratings file, in file order, ids as
    written. See the module docstring for the grammar and the errors."""
    with open(path, "rb") as fh:
        data = fh.read()
    columns = _parse_rating_columns(data)
    if columns is None:
        text = textscan.decode(data, path)
        columns = _read_rating_lines(io.StringIO(text, newline=None), path)
    return columns


def load_ratings(path, seed=0):
    """Read "user item rating [timestamp]" lines (the grammar and errors of
    the module docstring) into a ``RatingDataset``.

    External 1-based (or arbitrary) ids are remapped to dense 0-based
    indices by sorted order. Duplicate (user, item) pairs keep the last
    value and are counted with a warning.
    """
    user, item, value = read_rating_columns(path)
    users, user_idx = np.unique(user, return_inverse=True)
    items, item_idx = np.unique(item, return_inverse=True)
    # A stable sort keeps equal keys in file order, so the last of each run
    # is the value that wins.
    key = user_idx * len(items) + item_idx
    order = np.argsort(key, kind="stable")
    key = key[order]
    keep = order[np.append(key[1:] != key[:-1], True)]
    duplicates = len(order) - len(keep)
    if duplicates:
        warnings.warn(f"{path}: {duplicates} duplicate (user, item) pairs; "
                      "kept the last value of each", stacklevel=2)

    columns = np.empty(len(keep), dtype=RATING_DTYPE)
    columns["user"] = user_idx[keep]
    columns["item"] = item_idx[keep]
    columns["value"] = value[keep]
    train_idx, test_idx = split_ratings(columns, seed)
    return RatingDataset(columns, len(users), len(items), train_idx, test_idx,
                         duplicate_count=duplicates)


# save_matrix's kernel. For x = m 2^e (m the 53-bit significand) and
# k = floor(log10 |x|), N = |x| 10^q = m 5^q 2^(e + q) with q = 16 - k lies in
# [1e16, 1e17); "%.17g" writes N rounded half to even to an integer, with
# the point and exponent that k gives. The kernel forms N exactly from the
# 128-bit product m 5^q. It covers the normal numbers with 1e-15 <= |x| < 1e16;
# nan, +-inf, subnormals and the rest of the range go through "%.17g".
_BLOCK = 1 << 15                 # values per pass, so no temporary is m x n
_KMIN, _KMAX = -15, 15           # the decades k of the kernel
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_HALF = _U64(1 << 63)            # one half, as a 64-bit binary fraction
_E16, _E17 = _U64(10 ** 16), _U64(10 ** 17)
# 5^q = _POW5_HEAD[q] * _POW5_TAIL[q] for q <= 16 - _KMIN, with the head
# small enough that m times it stays below 2^63 and the tail below 2^63.
_POW5_HEAD = np.array([5 ** max(q - 27, 0) for q in range(17 - _KMIN)],
                      dtype=np.uint64)
_POW5_TAIL = np.array([5 ** min(q, 27) for q in range(17 - _KMIN)],
                      dtype=np.uint64)
# the ASCII of 0000..9999, one uint32 word each, and their trailing zeros
_DIGITS4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)),
                         dtype=np.uint32)
_ZEROS4 = np.array([4] + [len(s) - len(s.rstrip("0")) for s in
                          ("%04d" % i for i in range(1, 10000))], dtype=np.int8)

# Every token is laid out in a slot of _SLOT bytes, and the bytes outside it
# are NUL. Columns: 0 sign, 1-2 "0.", 3-5 "000", 6 sign, 7 digit 1, 8-22
# digits 2-16, 23 ".", 24-39 digits 2-17, 40-43 "e-XY", 44 separator, 45-47
# unused. Digits 2-17 are laid out twice, so that the point can follow any
# digit: "123.45" is columns 7-9, 23 and 26-27, and "-0.0625" is columns
# 0-2, 5 and 7-9.
_SLOT = 48
_SEP = 44
# A token's code is (k - _KMIN, digits - 1, sign) for the kernel; k reaches
# _KMAX + 1 when rounding carries into the next decade. The last code is the
# separator alone, for "%.17g" to fill.
_FALLBACK = (_KMAX + 2 - _KMIN) * 17 * 2
# Word 5 of a slot, its columns 20-23, is ANDed with digits 14-17 of a
# value; this mask keeps column 23, the point, as the template has it.
_KEEP_POINT = np.frombuffer(b"\0\0\0\xff", dtype=np.uint32)[0]


def _slot_templates():
    """The slot of every code as one void item of _SLOT bytes, and the
    length of its token with the separator. Each column that holds a digit
    of the value is 0xFF, for the value's digits to be ANDed in."""
    plain = np.r_[7:23, 39]      # digits 1-17 of a token without a point
    table = np.zeros((_FALLBACK + 1, _SLOT), dtype=np.uint8)
    for k in range(_KMIN, _KMAX + 2):
        full = np.frombuffer(b"-0.000-" + b"\xff" * 16 + b"." + b"\xff" * 16
                             + b"e%+03d" % k + b" " * 4, dtype=np.uint8)
        for digits in range(1, 18):
            kept = np.zeros(_SLOT, dtype=bool)
            kept[_SEP] = True
            if -4 <= k < 0:        # 0.000ddd
                kept[1:3] = kept[6 + k + 1:6] = True
                kept[plain[:digits]] = True
                sign = 0
            elif k >= 0:           # ddd.ddd
                kept[plain[:k + 1]] = True
                if digits > k + 1:
                    kept[23] = kept[24 + k:23 + digits] = True
                sign = 6
            else:                  # d.ddde-XY
                kept[7] = kept[40:44] = True
                if digits > 1:
                    kept[23] = kept[24:23 + digits] = True
                sign = 6
            code = ((k - _KMIN) * 17 + digits - 1) * 2
            table[code] = table[code + 1] = np.where(kept, full, 0)
            table[code + 1, sign] = ord("-")
    table[_FALLBACK, _SEP] = ord(" ")
    return table.view(f"V{_SLOT}").ravel(), np.count_nonzero(table, axis=1)


_TEMPLATES, _LENGTHS = _slot_templates()


def _scaled(m, e, k):
    """N = floor(m 2^e 10^(16 - k)) and the fraction it drops, which is
    compared with one half: its leading 64 bits, and whether any bit below
    them is set. Exact where the kernel applies."""
    q = 16 - k
    a = m * _POW5_HEAD.take(q)                     # < 2^63
    b = _POW5_TAIL.take(q)                         # < 2^63
    # hi 2^64 + lo = a b, from four products of 32-bit limbs
    al, ah, bl, bh = a & _LOW32, a >> _U64(32), b & _LOW32, b >> _U64(32)
    low = al * bl
    mid = ah * bl + (low >> _U64(32))
    mid2 = al * bh + (mid & _LOW32)
    hi = ah * bh + (mid >> _U64(32)) + (mid2 >> _U64(32))
    lo = (mid2 << _U64(32)) | (low & _LOW32)
    # N = (hi 2^64 + lo) 2^-s with s in [-2, 72] where the kernel applies.
    # Shifts by 64 - r are taken as 63 - r and 1, so that none reaches 64.
    s = -(e + q)
    # Past 63, the low bits go first and are kept only as a sticky bit.
    over = np.clip(s - 63, 0, 63).astype(np.uint64)
    sticky = ((lo << (_U64(63) - over)) << _U64(1)) != 0
    lo = (((hi << (_U64(63) - over)) << _U64(1))) | (lo >> over)
    hi >>= over
    right = np.clip(s, 0, 63).astype(np.uint64)
    left = np.clip(-s, 0, 63).astype(np.uint64)
    n = (((hi << (_U64(63) - right)) << _U64(1)) | (lo >> right)) << left
    frac = (lo << (_U64(63) - right)) << _U64(1)
    return n, frac, sticky


def _decimal(x):
    """(N, k, ok): |x| rounded half to even to 17 significant digits, as the
    integer N in [1e16, 1e17) and the decade k of its leading digit, for the
    values where ``ok``; the rest are left to "%.17g"."""
    bits = x.view(np.uint64)
    biased = (bits >> _U64(52)).astype(np.int64) & 0x7FF
    ok = (biased != 0) & (biased != 0x7FF)         # normal numbers
    m = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    e = biased - 1075
    log = np.zeros(x.size)
    np.log10(np.abs(x), out=log, where=ok)
    k = np.floor(log).astype(np.int64)
    ok &= (k >= _KMIN) & (k <= _KMAX)
    np.clip(k, _KMIN, _KMAX, out=k)
    n, frac, sticky = _scaled(m, e, k)
    # log10 can miss the decade by one either way near a power of ten
    step = ok * ((n >= _E17).astype(np.int64) - (n < _E16))
    redo = np.flatnonzero(step)
    if redo.size:
        k[redo] += step[redo]
        ok[redo] = (k[redo] >= _KMIN) & (k[redo] <= _KMAX)
        redo = redo[ok[redo]]
        n[redo], frac[redo], sticky[redo] = _scaled(m[redo], e[redo], k[redo])
    ok &= (n >= _E16) & (n < _E17)
    n += (frac > _HALF) | ((frac == _HALF) & (sticky | ((n & _U64(1)) == 1)))
    carry = n == _E17                              # 99..9.5 became 10^17
    n[carry] = _E16
    k += carry
    return n, k, ok


def _digits(n):
    """The first digit of each N in [1e16, 1e17) as ASCII, digits 2-17 as
    four uint32 words of ASCII, and the count of digits up to the last
    nonzero one."""
    head = (n // _U64(10 ** 8)).astype(np.uint32)  # digits 1-9
    tail = (n - head * _U64(10 ** 8)).astype(np.uint32)
    first = head // 10 ** 8
    head -= first * 10 ** 8
    groups = np.empty((4, n.size), dtype=np.uint32)
    np.floor_divide(head, 10000, out=groups[0])
    np.floor_divide(tail, 10000, out=groups[2])
    groups[1] = head - groups[0] * 10000
    groups[3] = tail - groups[2] * 10000
    zeros = _ZEROS4.take(groups[0])                # trailing zeros of N
    for g in groups[1:]:
        zeros = _ZEROS4.take(g) + (g == 0) * zeros
    return ((first + ord("0")).astype(np.uint8), _DIGITS4.take(groups.T),
            17 - zeros)


def _format_block(x, start, cols):
    """The text of the values ``x``, flat indices ``start`` on of a matrix
    with ``cols`` columns, each value followed by its separator."""
    nonzero = np.flatnonzero(x)                    # nan included
    y = x[nonzero]
    n, k, ok = _decimal(y)
    first, words, digits = _digits(n)
    code = np.where(ok, ((k - _KMIN) * 17 + digits - 1) * 2 + (y < 0),
                    _FALLBACK)
    slots = _TEMPLATES.take(code)
    cells = slots.view(np.uint8).reshape(-1, _SLOT)
    cells[:, 7] &= first
    cells.view(np.uint32)[:, 6:10] &= words        # columns 24-39
    words[:, 3] |= _KEEP_POINT                     # then columns 8-23
    cells.view(np.uint32)[:, 2:6] &= words
    lengths = np.full(x.size, 2)                   # "0" and its separator
    lengths[nonzero] = _LENGTHS.take(code)
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = np.array([b"%.17g" % v for v in y[slow].tolist()], dtype="S24")
        cells[slow, 7:31] = text.view(np.uint8).reshape(-1, 24)
        lengths[nonzero[slow]] = np.char.str_len(text) + 1
    negative_zero = np.flatnonzero(x.view(np.uint64) == _U64(1 << 63))
    lengths[negative_zero] = 3
    ends = np.cumsum(lengths)                      # past each separator
    text = cells[cells != 0]                       # the nonzero values
    # The zeros' tokens go between the others; without zeros the nonzero
    # values' tokens are the whole text.
    zero_ends = ends[x == 0]
    if zero_ends.size:
        out = np.full(ends[-1], ord("0"), dtype=np.uint8)
        kept = np.ones(out.size, dtype=bool)
        kept[zero_ends - 2] = kept[zero_ends - 1] = False
        kept[ends[negative_zero] - 3] = False
        out[kept] = text
        out[zero_ends - 1] = ord(" ")
        out[ends[negative_zero] - 3] = ord("-")
        text = out
    text[ends[(cols - 1 - start) % cols::cols] - 1] = ord("\n")
    return text.tobytes()


def save_matrix(path, a):
    """Text format: "rows cols" header then one row per line, each value as
    "%.17g" writes it, so a round trip is bit-lossless.

    The values are formatted in blocks of at most _BLOCK, in numpy. An exact
    zero is the token "0" or "-0", put in place without formatting. A normal
    number with 1e-15 <= |x| < 1e16 is rounded to 17 digits by exact integer
    arithmetic (see ``_scaled``), and its digits come from a table of 4-digit
    strings. Its token and separator sit in a fixed-width slot whose other
    bytes are NUL, so one mask of the nonzero bytes gives the text of a
    block's nonzero values. Only nan, +-inf, subnormals and the values
    outside that range are formatted by "%.17g" itself.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("save_matrix expects a 2-D array")
    rows, cols = a.shape
    with open(path, "wb") as fh:
        fh.write(b"%d %d\n" % (rows, cols))
        if cols == 0:
            fh.write(b"\n" * rows)
            return
        flat = a.reshape(-1)
        for start in range(0, flat.size, _BLOCK):
            fh.write(_format_block(flat[start:start + _BLOCK], start, cols))


def _read_matrix_rows(fh, path, rows, cols):
    """The reference reader of a matrix body: ``rows`` lines of ``cols``
    values, each token parsed by Python's ``float``."""
    out = np.empty((rows, cols))
    for i in range(rows):
        parts = fh.readline().split()
        if len(parts) != cols:
            raise ValueError(
                f"{path}:{i + 2}: expected {cols} values, got {len(parts)}"
            )
        try:
            out[i] = [float(x) for x in parts]
        except ValueError as exc:
            raise ValueError(f"{path}:{i + 2}: {exc}") from exc
    return out


def load_matrix(path):
    """Read a ``save_matrix`` file. A body in the layout ``save_matrix``
    writes is read by ``textscan.read_floats``; any other is re-read from
    its text by the reference reader, which raises the error naming the file
    and line. Either way each value is what Python's ``float`` reads from
    its token, so ``1_0`` is 10."""
    header, buf, end = textscan.read_file(path)
    shape = textscan.shape(header)
    if shape is not None and all(shape):
        try:
            return textscan.read_floats(buf, end, *shape)
        except textscan.Refused:
            pass
    fh = io.StringIO(textscan.text(path, header, buf, end), newline=None)
    rows, cols = read_shape(fh, path)
    if rows == 0 or cols == 0:
        raise ValueError(f"{path}: degenerate shape {rows}x{cols}")
    out = _read_matrix_rows(fh, path, rows, cols)
    for lineno, line in enumerate(fh, start=rows + 2):
        if line.strip():
            raise ValueError(f"{path}:{lineno}: more than {rows} rows")
    return out
