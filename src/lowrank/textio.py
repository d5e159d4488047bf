"""Matrix and mask text files: the format, its readers and its writers.

The format. A matrix or mask file is UTF-8 text whose first line is a
``rows cols`` header: two fields that Python's ``int`` reads, neither
negative. Fields are split on whitespace, and lines end in ``\\n``,
``\\r\\n`` or ``\\r``.

- A matrix file (``save_matrix``/``load_matrix``) then has exactly ``rows``
  lines of ``cols`` values, each what Python's ``float`` reads from its
  token, so ``1_0`` is 10. Blank lines may follow the last row but not
  precede it, and a shape with no rows or no columns is refused.
- A mask file (``save_mask``/``load_mask``) has one 0-based ``i j`` pair
  a line, each index an optional sign and ASCII digits within int64, the
  grammar ``np.loadtxt`` reads; blank lines are skipped. ``load_mask``
  refuses a pair out of range or given twice.

Every error names the file and, past the header, the line (``path:line:
...``); a byte that is not UTF-8 is such an error too. The writers give the
canonical layout: tokens joined by single spaces into lines that end in
``\\n``, and mask pairs in row-major order.

Reading. ``load_matrix`` and ``read_pairs`` read a file once: its header
line, parsed once by ``read_shape``, and its body into a numpy buffer that
ends in zero bytes. The body is scanned in chunks that end at a separator,
and a chunk's separators are found in numpy. A body in the canonical layout
(whose last line end may be missing) is read by the vectorised readers; any
other is refused (``Refused``) and its decoded text goes to the reference
reader, which gives the same values or the error that names the line.

Tokens are read eight bytes at a time, from an unaligned 64-bit view of the
buffer, by SWAR arithmetic: eight ASCII digits in one uint64 become their
value in three multiplications (Lemire, "Number Parsing at a Gigabyte per
Second", Software: Practice and Experience 2021). A decimal token
``[+-]digits[.digits][(e|E)[+-]digits]`` of at most 24 bytes is an integer
N < 2^62 of its digits times 10^q. Its double is exact by construction:
N 10^q is formed as a double-double, from an error-free product with a
two-part table of 10^q (Dekker's TwoProduct), and rounded once; the rounding
is kept only where the bound on the product's error cannot reach the
midpoint between the result and a neighbouring double (after Clinger, "How
to Read Floating Point Numbers Accurately", PLDI 1990). For q >= 0 below
2^79 the value is an integer, and a midpoint the bound cannot exclude is
the value itself: an exact tie, which the kernel rounds half to even.
Python's ``float`` reads each token the kernel cannot vouch for: ``nan``,
``1_0``, more than 24 bytes, an "e" before the last 8 bytes, N >= 2^62,
|q| > ``_QMAX``, any other near-tie. Every token is thus read as ``float``
reads it. The kernel finds each token's form in the words it reads: the
point in its first 24 bytes, the "e" in its last 8, and it parses exponents
only for a batch in which a token has one.

Writing. ``save_matrix`` writes each value as ``"%.17g"`` does, byte for
byte, so a round trip is bit-lossless. It formats blocks of at most
``WRITE_BLOCK`` values in numpy. An exact zero is the literal ``0`` or
``-0``. A normal number with 1e-15 <= |x| < 1e16 is rounded half to even to
17 significant digits by exact integer arithmetic (one 128-bit product per
value, after Ryu: Adams, PLDI 2018), and its digits come from a table of
4-digit strings. nan, +-inf, subnormals and the values outside that range
are formatted by ``"%.17g"`` itself. ``save_mask`` joins each row's ``"i "``
prefix with column names from a table of index strings.
"""

import io
import os
import re

import numpy as np

# Tokens per pass of the number kernel: its arrays of one word a token are
# 64 KiB, below glibc's 128 KiB mmap threshold. At 2^12 a warm process read
# the dense 500^2 matrices of the CLI 14-36% slower (CHANGES.md). The
# writer's block is larger, for its own measured reason (WRITE_BLOCK).
READ_BLOCK = 1 << 13
# A chunk of the tokenizer spans at most CHUNK bytes, and its byte mask is
# below the mmap threshold too.
CHUNK = 12 * READ_BLOCK
# Zero bytes before the body, for the 8 bytes that end at a token's end,
# and after it: a separator at its end, and room for the 8-byte reads of its
# last token.
_FRONT, _PAD = 8, 40

_U64 = np.uint64
_ASCII0 = _U64(0x3030303030303030)             # "0" in every byte
_ONES = _U64(0x0101010101010101)
_HIGH = _U64(0x8080808080808080)
_CASE = _U64(0x2020202020202020)               # "E" | 0x20 is "e"
_PAIRS = _U64(0x000000FF000000FF)


class Refused(Exception):
    """The body is not in the canonical layout; read it by the reference."""


def read_file(path):
    """The header line of a text file as bytes, and its body in a uint8
    buffer, between ``_FRONT`` and ``_PAD`` zero bytes; the body is
    ``buf[_FRONT:end]``. A lone "\\r" ends the header, as it ends a line
    of universal newlines."""
    with open(path, "rb") as fh:
        header = fh.readline()
        size = max(os.fstat(fh.fileno()).st_size - len(header), 0)
        buf = np.zeros(_FRONT + size + _PAD, dtype=np.uint8)
        end = _FRONT + fh.readinto(buf[_FRONT:_FRONT + size].data)
        rest = fh.read()                          # a pipe, or a file that grew
    line, cr, front = header.partition(b"\r")
    if front in (b"", b"\n"):
        front = b""
    else:
        header = line + cr
    if front or rest:
        body = front + buf[_FRONT:end].tobytes() + rest
        buf = np.zeros(_FRONT + len(body) + _PAD, dtype=np.uint8)
        buf[_FRONT:_FRONT + len(body)] = np.frombuffer(body, dtype=np.uint8)
        end = _FRONT + len(body)
    return header, buf, end


def decode(data, path, line=1):
    """``data`` as UTF-8 text; an undecodable byte raises ``ValueError``
    naming the file and the byte's line, counted from ``line``, the line of
    data's first byte. Lines end in "\\n", "\\r\\n" or a lone "\\r"."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start]
        line += (before.count(b"\n") + before.count(b"\r")
                 - before.count(b"\r\n"))
        raise ValueError(f"{path}:{line}: byte 0x{data[exc.start]:02x} is "
                         f"not UTF-8 ({exc.reason})") from None


def read_shape(header, path):
    """(rows, cols) of the header line of a matrix or mask file: two fields
    that ``int`` reads, neither negative."""
    fields = decode(header, path).split()
    try:
        rows, cols = map(int, fields)
    except ValueError:
        raise ValueError(f"{path}: bad header {' '.join(fields)!r}, "
                         "expected 'rows cols'") from None
    if rows < 0 or cols < 0:
        raise ValueError(f"{path}: negative shape {rows}x{cols}")
    return rows, cols


def _body_lines(path, buf, end):
    """The body that ``read_file`` read as lines of text, for a reference
    reader; they are file lines 2 on."""
    text = decode(buf[_FRONT:end].tobytes(), path, line=2)
    return io.StringIO(text, newline=None)


def tokens(buf, end, cols, count=None):
    """Yield (starts, lengths) of the tokens of the canonical body
    ``buf[_FRONT:end]``, chunk by chunk, in file order: ``count`` tokens and
    blank lines after them, or every token if ``count`` is None. Raise
    ``Refused`` on any other layout.

    A chunk ends at a separator and holds about ``READ_BLOCK`` tokens: its
    span in bytes follows the bytes per token of the chunk before it, up to
    ``CHUNK``."""
    pos, done, span = _FRONT, 0, 2 * READ_BLOCK
    while pos < end if count is None else done < count:
        if pos >= end:
            raise Refused                        # fewer than count tokens
        stop = min(pos + span, end)
        # The zero byte at end is a separator, for a last line without one.
        if stop == end and buf[end - 1] <= 32:
            stop -= 1
        stop += int(np.argmax(buf[stop:stop + 64] <= 32))
        if buf[stop] > 32:
            raise Refused                        # a token of 64 bytes or more
        seps = np.flatnonzero(buf[pos:stop + 1] <= 32)
        span = min(max((stop + 1 - pos) * READ_BLOCK // seps.size,
                       2 * READ_BLOCK), CHUNK)
        seps += pos
        if count is not None:
            seps = seps[:count - done]
        starts = np.empty_like(seps)
        starts[0] = pos
        starts[1:] = seps[:-1] + 1
        lengths = seps - starts
        ends = buf[seps]
        newline = ends == 10
        newline[-1] |= seps[-1] == end
        line_end = np.zeros(seps.size, dtype=bool)
        line_end[(cols - 1 - done) % cols::cols] = True
        if (not lengths.all() or not np.array_equal(newline, line_end)
                or not ((ends == 32) | newline).all()):
            raise Refused
        yield starts, lengths
        done += seps.size
        pos = int(seps[-1]) + 1
    if count is None and done % cols:
        raise Refused                            # a short last line
    if count is not None and buf[pos:end].tobytes().strip():
        raise Refused                            # a row the reference names


def _words(buf):
    """The little-endian uint64 at every byte offset of buf, unaligned."""
    return np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))


def _low_bytes(count):
    """The mask of the low ``count`` bytes of a word, count clipped to
    [0, 8]."""
    return np.array([(1 << 8 * min(max(c, 0), 8)) - 1 for c in count],
                    dtype=np.uint64)


def _digits(d):
    """The value of each word's digits, ASCII less "0" in its top bytes and
    zero below them, and the high bit of each byte that is not a digit.
    The digits are summed in pairs, fours and eights (Lemire's SWAR step)."""
    bad = d + _U64(0x7676767676767676)
    bad |= d
    d *= _U64(2561)                              # d * 10 + (d >> 8)
    d >>= _U64(8)
    fours = d >> _U64(16)
    fours &= _PAIRS
    fours *= _U64(1 + (10000 << 32))
    d &= _PAIRS
    d *= _U64(100 + (1000000 << 32))
    d += fours
    d >>= _U64(32)
    return d.view(np.int64), bad


def _lifted(w, lift):
    """The digit values of the low bytes of each word that a left shift by
    ``lift`` bits keeps, moved to its top. A borrow of the subtraction moves
    only up, out of the word or into a byte that is not a digit."""
    d = w - _ASCII0
    d <<= lift
    return d


# The first x bytes of a token, by word of 8 bytes: the mask of the bytes
# past them, and the shift that moves them to the top of the word.
_SPAN = np.arange(65)
_PAST = [~_low_bytes(_SPAN - 8 * i) for i in range(3)]
_LIFT = [(8 * (8 - np.clip(_SPAN - 8 * i, 0, 8))).astype(np.uint64)
         for i in range(3)]
_TOP = ~_low_bytes(8 - _SPAN)                     # the top x bytes of a word
_ZERO_TOP = _ASCII0 & _TOP


def read_indices(buf, end):
    """The tokens of a canonical two-column body as int64, all of them
    one to eight ASCII digits; else ``Refused``."""
    words = _words(buf)
    out = []
    for starts, lengths in tokens(buf, end, 2):
        if lengths.max() > 8:
            raise Refused
        values, bad = _digits(_lifted(words[starts], _LIFT[0].take(lengths)))
        if np.bitwise_or.reduce(bad) & _HIGH:
            raise Refused
        out.append(values)
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


# 10^q for |q| <= _QMAX as hi + lo, hi the nearest double and lo the double
# nearest the rest, with hi split in halves of 26 bits for TwoProduct. With
# 1 <= N < 2^62 every partial product and result is then a normal number.
_QMAX = 280
_SPLIT = float(2 ** 27 + 1)


def _pow10_table():
    hi, lo = [], []
    for q in range(-_QMAX, _QMAX + 1):
        if q >= 0:
            h = float(10 ** q)
            lo.append(float(10 ** q - int(h)))
        else:
            d = 10 ** -q
            h = 1 / d                             # correctly rounded
            a, b = h.as_integer_ratio()
            lo.append((b - a * d) / (d * b))      # 1/d - a/b
        hi.append(h)
    hi = np.array(hi)
    head = _SPLIT * hi - (_SPLIT * hi - hi)
    return hi, np.array(lo), head, hi - head


_POW10 = _pow10_table()
# N = head 10^c + tail for the c digits of the third word. Below _LIMIT
# head keeps N below 2^62; at it N may or may not be, and is below 2^63.
_SCALE = [10 ** np.clip(_SPAN - 8 * i, 0, 8) for i in range(3)]
_LIMIT = (1 << 62) // _SCALE[2]
_FRACTION = _U64((1 << 52) - 1)
_EXPONENT = _U64(0x7FF << 52)


def _first(w, byte):
    """The offset of the first byte equal to ``byte`` in each word, 8 where
    there is none. The lowest flag of the zero-byte test on w XOR byte is
    exact, and the exponent of its value as a double is its offset."""
    t = w ^ (_ONES * _U64(byte))
    flags = t - _ONES
    flags &= ~t
    flags &= _HIGH
    flags &= -flags
    # 2^(8j + 7) has the biased exponent 1030 + 8j, and 0.0 has 0
    at = flags.astype(np.float64).view(np.uint64) >> _U64(55)
    at ^= _U64(128)
    return np.minimum(at, _U64(8)).view(np.int64)


def _decimal(buf, starts, lengths):
    """The values of the tokens at ``starts``, and which of them the kernel
    vouches for."""
    words = _words(buf)
    first = buf[starts]
    negative = first == 45                        # "-"
    signed = negative | (first == 43)             # "+"
    s = starts + signed
    n = lengths - signed
    w = [words[s], words[s + 8], words[s + 16]]
    # The point is looked for in the first 24 bytes, the "e" in the last 8;
    # a point or "e" elsewhere fails the digit test. The later words are
    # searched only if a token has no point in its first, and the exponent
    # is parsed only if a token has an "e".
    dot = _first(w[0], 46)
    if dot.max() == 8:
        dot += (dot >> 3) * _first(w[1], 46)
        dot += (dot >> 4) * _first(w[2], 46)      # none: 24
    last = words[s + n - 8]
    last &= _TOP.take(np.minimum(n, 64))          # not the bytes before
    e_at = _first(last | _CASE, 101)
    exp = n - 8 + e_at                            # where the mantissa ends
    point = np.minimum(dot, exp)
    fraction = np.maximum(exp - point - 1, 0)     # digits after the point
    digits = np.minimum(point + fraction, 64)
    # Delete the point: the bytes after it move down by one.
    for i in range(3):
        down = w[i] >> _U64(8)
        if i < 2:
            down |= w[i + 1] << _U64(56)
        down ^= w[i]
        down &= _PAST[i].take(point)
        w[i] ^= down
    v, bad = zip(*(_digits(_lifted(w[i], _LIFT[i].take(digits)))
                   for i in range(3)))
    head = v[0] * _SCALE[1].take(digits)
    head += v[1]
    ok = head <= _LIMIT.take(digits)
    ok &= (digits >= 1) & (n <= 24)
    big = head * _SCALE[2].take(digits)
    big += v[2]
    ok &= big < 1 << 62
    flags = bad[0] | bad[1]
    flags |= bad[2]
    q = -fraction
    if e_at.min() < 8:
        # an optional sign and digits, the top bytes of last
        sign = last >> ((e_at.view(np.uint64) << _U64(3)) + _U64(8))
        sign &= _U64(0xFF)
        minus = (sign == _U64(45)).astype(np.int64)
        count = 7 - e_at
        count -= (sign == _U64(43)).astype(np.int64) + minus
        ok &= (count >= 1) | (e_at == 8)
        count = np.maximum(count, 0)
        last &= _TOP.take(count)
        last -= _ZERO_TOP.take(count)
        e, bad = _digits(last)
        flags |= bad
        e ^= -minus
        e += minus
        q += e
    ok &= (flags & _HIGH) == 0
    ok &= np.abs(q) <= _QMAX
    np.minimum(q, _QMAX, out=q)
    np.maximum(q, -_QMAX, out=q)
    q += _QMAX
    big *= ok
    hi, lo, hi_head, hi_tail = (table.take(q) for table in _POW10)
    # N = nh + nl exactly, and nh hi = p + err exactly (TwoProduct)
    nh = big.astype(np.float64)
    nl = (big - nh.astype(np.int64)).astype(np.float64)
    p = nh * hi
    nh_head = _SPLIT * nh
    nh_head -= nh_head - nh
    nh_tail = nh - nh_head
    err = nh_head * hi_head
    err -= p
    err += nh_head * hi_tail
    err += nh_tail * hi_head
    err += nh_tail * hi_tail
    err += nh * lo
    err += nl * hi
    # r = round(p + err), and p + err - r exactly (TwoSum)
    r = p + err
    back = r - p
    low = p - (r - back)
    low += err - back
    # The true value is within r 2^-80 of p + err, and r is its rounding
    # when that cannot cross the midpoint to a neighbour. Half the gap
    # above r is 2^(e - 53); below a power of two the gap is half as wide.
    bits = r.view(np.uint64)
    half = (bits & _EXPONENT) - _U64(53 << 52)
    below = np.flatnonzero(((bits & _FRACTION) == 0) & (low < 0))
    half[below] -= _U64(1 << 52)
    up = low > 0
    np.abs(low, out=low)
    low += r * 2.0 ** -80
    clear = (low < half.view(np.float64)) | (big == 0)
    # For q >= 0 the true value N 10^q is an integer, and so is every
    # midpoint from 2^53 up; below that no midpoint is within r 2^-79 of an
    # integer. So below 2^79 a midpoint that the bound cannot exclude is
    # within r 2^-79 < 1 of the value, and is the value: a tie, which rounds
    # half to even, to whichever of r and its neighbour towards the midpoint
    # has an even significand.
    tie = np.flatnonzero(~clear & ok & (q >= _QMAX) & (r < 2.0 ** 79))
    odd = tie[(bits[tie] & _U64(1)) == 1]
    bits[odd] += np.where(up[odd], _U64(1), ~_U64(0))
    ok &= clear
    ok[tie] = True
    bits |= negative.view(np.uint8).astype(np.uint64) << _U64(63)
    return r, ok


def _fill(out, buf, at, starts, lengths):
    """Write the values of the tokens at ``starts`` to ``out[at]``: the
    kernel reads them, and Python's ``float`` the ones it does not vouch
    for."""
    values, ok = _decimal(buf, starts, lengths)
    for k in np.flatnonzero(~ok).tolist():
        start = int(starts[k])
        token = buf[start:start + int(lengths[k])].tobytes()
        try:
            values[k] = float(token.decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            raise Refused from None
    out[at] = values


def read_floats(buf, end, rows, cols):
    """The rows x cols values of a canonical matrix body, each as Python's
    ``float`` reads its token; else ``Refused``. The tokens "0" and "-0"
    are set in place; the others go to the kernel ``READ_BLOCK`` at a
    time, gathered over chunks.
    A body of B bytes holds at most (B + 1) // 2 tokens: a shape that claims
    more is refused before its values are allocated."""
    if rows * cols > (end - _FRONT + 1) // 2:
        raise Refused
    out = np.zeros(rows * cols)
    held, done = [], 0
    for starts, lengths in tokens(buf, end, cols, rows * cols):
        first = buf[starts]
        zero = (lengths == 1) & (first == 48)
        minus = np.flatnonzero((lengths == 2) & (first == 45))
        minus = minus[buf[starts[minus] + 1] == 48]
        out[done + minus] = -0.0
        zero[minus] = True
        at = np.flatnonzero(~zero)
        held.append((at + done, starts[at], lengths[at]))
        done += zero.size
        if (sum(part[0].size for part in held) >= READ_BLOCK
                or done == out.size):
            at, starts, lengths = map(np.concatenate, zip(*held))
            stop = (at.size if done == out.size
                    else at.size // READ_BLOCK * READ_BLOCK)
            for lo in range(0, stop, READ_BLOCK):
                part = slice(lo, min(lo + READ_BLOCK, stop))
                _fill(out, buf, at[part], starts[part], lengths[part])
            held = [(at[stop:], starts[stop:], lengths[stop:])]
    return out.reshape(rows, cols)


def load_matrix(path):
    """Read a matrix file: a canonical body by ``read_floats``, any other
    by the reference reader."""
    header, buf, end = read_file(path)
    rows, cols = read_shape(header, path)
    if rows == 0 or cols == 0:
        raise ValueError(f"{path}: degenerate shape {rows}x{cols}")
    try:
        return read_floats(buf, end, rows, cols)
    except Refused:
        pass
    fh = _body_lines(path, buf, end)
    out = _read_matrix_rows(fh, path, rows, cols)
    for lineno, line in enumerate(fh, start=rows + 2):
        if line.strip():
            raise ValueError(f"{path}:{lineno}: more than {rows} rows")
    return out


def _read_matrix_rows(fh, path, rows, cols):
    """The reference reader of a matrix body: ``rows`` lines of ``cols``
    values, each token parsed by Python's ``float``. Nothing is allocated
    for rows not yet read, so a header can claim more than the body holds."""
    out = []
    for i in range(rows):
        parts = fh.readline().split()
        if len(parts) != cols:
            raise ValueError(
                f"{path}:{i + 2}: expected {cols} values, got {len(parts)}"
            )
        try:
            out.append([float(x) for x in parts])
        except ValueError as exc:
            raise ValueError(f"{path}:{i + 2}: {exc}") from exc
    return np.array(out)


def read_pairs(path):
    """The shape of a mask file, its ``i j`` pairs as an (n, 2) int64 array,
    and the file line of each pair: a canonical body, each index one to
    eight ASCII digits, by ``read_indices`` (pair k is on line k + 2), any
    other by the reference reader."""
    header, buf, end = read_file(path)
    shape = read_shape(header, path)
    try:
        pairs = read_indices(buf, end).reshape(-1, 2)
    except Refused:
        return shape, *_check_mask_lines(_body_lines(path, buf, end), path, 2)
    return shape, pairs, range(2, len(pairs) + 2)


# An index as np.loadtxt reads an int64: an optional sign and ASCII digits.
_INDEX = re.compile(r"[+-]?[0-9]+", re.ASCII)
_INT64 = np.iinfo(np.int64)


def _check_mask_lines(lines, path, lineno):
    """The reference reader of a mask body whose first line is file line
    ``lineno``: blank lines are skipped and every other line must hold two
    indices, split on whitespace and read by the grammar of ``_INDEX``. The
    first line that does not raises ``path:line: ...``; else the pairs are
    returned as an (n, 2) int64 array, with the list of their lines."""
    pairs, at = [], []
    for lineno, line in enumerate(lines, start=lineno):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 2:
            raise ValueError(
                f"{path}:{lineno}: expected 'i j', got {len(fields)} fields")
        for field in fields:
            if not (_INDEX.fullmatch(field)
                    and _INT64.min <= int(field) <= _INT64.max):
                raise ValueError(
                    f"{path}:{lineno}: {field!r} is not an int64 index")
        pairs.append((int(fields[0]), int(fields[1])))
        at.append(lineno)
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), at


# save_matrix's kernel. For x = m 2^e (m the 53-bit significand) and
# k = floor(log10 |x|), N = |x| 10^q = m 5^q 2^(e + q) with q = 16 - k lies in
# [1e16, 1e17); "%.17g" writes N rounded half to even to an integer, with
# the point and exponent that k gives. The kernel forms N exactly from the
# 128-bit product m 5^q. It covers the normal numbers with 1e-15 <= |x| < 1e16;
# nan, +-inf, subnormals and the rest of the range go through "%.17g".
#
# Values per pass, so no temporary is m x n. Not READ_BLOCK: writing the
# matrices of a cli-dense instance (500^2, 70% observed, rank 10, seed 1;
# one BLAS thread, a warm process, medians of 15 interleaved runs) in
# blocks of 2^13 took 41.6 ms for d_obs against 36.8 ms at 2^15, 47.4
# against 44.6 for l0 and 14.1 against 10.6 for s0.
WRITE_BLOCK = 1 << 15
_KMIN, _KMAX = -15, 15           # the decades k of the kernel
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


def _to_decimal(x):
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


def _digit_words(n):
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
    n, k, ok = _to_decimal(y)
    first, words, digits = _digit_words(n)
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
    """Write the 2-D array ``a`` as a matrix file, each value as "%.17g"
    writes it, ``WRITE_BLOCK`` values at a time (see the module
    docstring)."""
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
        for start in range(0, flat.size, WRITE_BLOCK):
            fh.write(_format_block(flat[start:start + WRITE_BLOCK], start,
                                   cols))


def save_mask(path, mask):
    """Write the mask file of ``mask``, its pairs in row-major order. Each
    row's lines are its "i " prefix joined with the names of its columns,
    from a table of index strings."""
    rows, cols = mask.shape
    flat = mask.flat_indices
    names = np.array([str(j) for j in range(cols)], dtype=object)
    columns = names.take(flat % cols).tolist()
    bounds = np.searchsorted(flat, np.arange(rows + 1) * cols).tolist()
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if lo < hi:
                prefix = f"{i} "
                fh.write(prefix + ("\n" + prefix).join(columns[lo:hi]) + "\n")
