"""Reading matrix and mask text: one tokenizer and an exact number kernel.

``load_matrix`` and ``load_mask`` read a file's header line, and its body
into a numpy buffer that ends in zero bytes, once. The body is scanned in
chunks that end at a separator, and a chunk's separators are found in numpy.
It must be in the canonical layout ``save_matrix`` and ``save_mask`` write:
tokens joined by single spaces into lines that end in ``\\n`` (the file's
last line end may be missing), ``cols`` tokens a line. A body in any other
layout is refused (``Refused``); the caller then reads the file with its
reference reader, which gives the same values or the error that names the
file and line.

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
to Read Floating Point Numbers Accurately", PLDI 1990). Python's ``float``
reads each token the kernel cannot vouch for: ``nan``, ``1_0``, more than
24 bytes, a point past byte 16, an "e" before the last 8 bytes, N >= 2^62,
|q| > ``_QMAX``, a near-tie. Every token is thus read as ``float`` reads it.
"""

import os

import numpy as np

# Tokens per pass of the number kernel: its arrays of one word a token are
# 64 KiB, below glibc's 128 KiB mmap threshold. At 2^12 a warm process read
# the dense 500^2 matrices of the CLI 14-36% slower (CHANGES.md).
BLOCK = 1 << 13
# A chunk of the tokenizer spans at most CHUNK bytes, and its byte mask is
# below the mmap threshold too.
CHUNK = 12 * BLOCK
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
    ``buf[_FRONT:end]``."""
    with open(path, "rb") as fh:
        header = fh.readline()
        size = max(os.fstat(fh.fileno()).st_size - len(header), 0)
        buf = np.zeros(_FRONT + size + _PAD, dtype=np.uint8)
        end = _FRONT + fh.readinto(buf[_FRONT:_FRONT + size].data)
        rest = fh.read()                          # a pipe, or a file that grew
    if rest:
        body = buf[_FRONT:end].tobytes() + rest
        buf = np.zeros(_FRONT + len(body) + _PAD, dtype=np.uint8)
        buf[_FRONT:_FRONT + len(body)] = np.frombuffer(body, dtype=np.uint8)
        end = _FRONT + len(body)
    return header, buf, end


def decode(data, path, line=1):
    """``data`` as UTF-8 text; an undecodable byte raises ``ValueError``
    naming the file and the byte's line, counted from ``line``, the line of
    data's first byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line += data.count(b"\n", 0, exc.start)
        raise ValueError(f"{path}:{line}: byte 0x{data[exc.start]:02x} is "
                         f"not UTF-8 ({exc.reason})") from None


def text(path, header, buf, end):
    """The whole file that ``read_file`` read, as text (see ``decode``)."""
    return decode(header + buf[_FRONT:end].tobytes(), path)


def shape(header):
    """(rows, cols) of a header of two ASCII numbers, else None."""
    fields = header.split()
    if len(fields) != 2 or not all(f.isdigit() for f in fields):
        return None
    return int(fields[0]), int(fields[1])


def tokens(buf, end, cols, count=None):
    """Yield (starts, lengths) of the tokens of the canonical body
    ``buf[_FRONT:end]``, chunk by chunk, in file order: ``count`` tokens and
    blank lines after them, or every token if ``count`` is None. Raise
    ``Refused`` on any other layout.

    A chunk ends at a separator and holds about ``BLOCK`` tokens: its span
    in bytes follows the bytes per token of the chunk before it, up to
    ``CHUNK``."""
    pos, done, span = _FRONT, 0, 2 * BLOCK
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
        span = min(max((stop + 1 - pos) * BLOCK // seps.size, 2 * BLOCK),
                   CHUNK)
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
# N = head 10^c + tail for the c digits of the third word; head below
# _LIMIT keeps N below 2^62.
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


def _decimal(buf, starts, lengths, exponents):
    """The values of the tokens at ``starts``, and which of them the kernel
    vouches for. Without ``exponents`` no token has an "e" or "E"."""
    words = _words(buf)
    first = buf[starts]
    negative = first == 45                        # "-"
    signed = negative | (first == 43)             # "+"
    s = starts + signed
    n = lengths - signed
    w = [words[s], words[s + 8], words[s + 16]]
    # The point is looked for in the first 16 bytes, the "e" in the last 8;
    # a point or "e" elsewhere fails the digit test. The second word is
    # searched only if a token has no point in its first.
    dot = _first(w[0], 46)
    if dot.max() == 8:
        dot += (dot >> 3) * _first(w[1], 46)
    dot += (dot >> 4) << 3                        # none: 24
    if exponents:
        last = words[s + n - 8]
        last &= _TOP.take(np.minimum(n, 64))      # not the bytes before
        e_at = _first(last | _CASE, 101)
        exp = n - 8 + e_at                        # where the mantissa ends
    else:
        exp = n
    point = np.minimum(dot, exp)
    fraction = np.maximum(exp - point - 1, 0)     # digits after the point
    digits = np.minimum(point + fraction, 64)
    # Delete the point: the bytes after it move down by one. Where every
    # point, or integer's end, is in the first word, the other two move.
    moved = point.max() < 8
    for i in range(3):
        down = w[i] >> _U64(8)
        if i < 2:
            down |= w[i + 1] << _U64(56)
        if i == 0 or not moved:
            down ^= w[i]
            down &= _PAST[i].take(point)
            w[i] ^= down
        else:
            w[i] = down
    v, bad = zip(*(_digits(_lifted(w[i], _LIFT[i].take(digits)))
                   for i in range(3)))
    head = v[0] * _SCALE[1].take(digits)
    head += v[1]
    ok = head < _LIMIT.take(digits)
    ok &= (digits >= 1) & (n <= 24)
    big = head * _SCALE[2].take(digits)
    big += v[2]
    flags = bad[0] | bad[1]
    flags |= bad[2]
    q = -fraction
    if exponents:
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
    np.abs(low, out=low)
    low += r * 2.0 ** -80
    ok &= (low < half.view(np.float64)) | (big == 0)
    bits |= negative.view(np.uint8).astype(np.uint64) << _U64(63)
    return r, ok


def _fill(out, buf, at, starts, lengths, exponents):
    """Write the values of the tokens at ``starts`` to ``out[at]``: the
    kernel reads them, and Python's ``float`` the ones it does not vouch
    for."""
    values, ok = _decimal(buf, starts, lengths, exponents)
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
    are set in place; the others go to the kernel ``BLOCK`` at a time,
    gathered over chunks, with a note of the chunks that hold an "e"."""
    out = np.zeros(rows * cols)
    held, done = [], 0
    for starts, lengths in tokens(buf, end, cols, rows * cols):
        first = buf[starts]
        zero = (lengths == 1) & (first == 48)
        minus = np.flatnonzero((lengths == 2) & (first == 45))
        minus = minus[buf[starts[minus] + 1] == 48]
        out[done + minus] = -0.0
        zero[minus] = True
        span = buf[starts[0]:starts[-1] + lengths[-1]]
        exponents = ((span | 32) == 101).any()
        at = np.flatnonzero(~zero)
        held.append((at + done, starts[at], lengths[at],
                     np.full(at.size, exponents)))
        done += zero.size
        if sum(part[0].size for part in held) >= BLOCK or done == out.size:
            at, starts, lengths, exponents = map(np.concatenate, zip(*held))
            stop = at.size if done == out.size else at.size // BLOCK * BLOCK
            for lo in range(0, stop, BLOCK):
                part = slice(lo, min(lo + BLOCK, stop))
                _fill(out, buf, at[part], starts[part], lengths[part],
                      exponents[part].any())
            held = [(at[stop:], starts[stop:], lengths[stop:],
                     exponents[stop:])]
    return out.reshape(rows, cols)
