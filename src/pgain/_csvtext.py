"""CSV text of labels and float64 columns, laid out as bytes in numpy.

``float_cells`` gives each float the bytes of ``"%.17g" % v``. For finite
values with 1e-11 < |v| < 1e17, and for ±0, it computes the 17 correctly
rounded significant digits exactly in integer arithmetic, as Ryu printf
does (Adams 2019, Proc. ACM Program. Lang. 3, OOPSLA): with v = m * 2**e
(m < 2**53) and X the decimal exponent of v, the digits are
D = round-half-even(m * 5**k * 2**(e + k)) for k = 16 - X in [0, 27], where
5**k < 2**63, so m * 5**k fits two uint64 limbs. X starts as a ``log10``
estimate and is corrected from the exact truncated D. The other values
(NaN, ±inf, subnormals, the rest of the range) are formatted by CPython's
``%.17g``, all of a call's at once. The text is then spelled by one
table row per decimal exponent, digit count and sign: C's ``%g`` rules,
fixed notation for -4 <= X < 17, ``d.ddde-XX`` below, trailing zeros cut.

A cell is ``CELL`` bytes, NUL-padded anywhere, not only at its end: a CSV
row is its cells, commas and newline side by side, and ``row_bytes``
deletes every NUL. No number holds a NUL byte, and a label that does is
kept apart, as is one wider than ``LABEL_CAP``.
"""

from __future__ import annotations

import functools

import numpy as np

# a cell: sign, "0.000", 17 digits each followed by a slot for the point
# (but the last), "e-XX"
CELL = 43
LABEL_CAP = 32  # UTF-8 bytes; a wider label's text is kept apart
LABEL_CHUNK = 8192  # labels joined into one string at a time
_DIGITS = 6  # cell column of the first digit; digit j is at _DIGITS + 2 j
_SUFFIX = _DIGITS + 33  # cell column of "e-XX"
_LOW, _HIGH = np.nextafter(1e-11, 1.0), 1e17  # the exact path's range
_MIN_X, _MAX_X = -11, 16
_EMPTY = 2 * 17 * (_MAX_X - _MIN_X + 1)  # the all-NUL table row
_FIVES = np.array([5 ** k for k in range(28)], dtype=np.uint64)
_MASK32 = np.uint64(0xFFFFFFFF)
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


@functools.cache
def _quads() -> np.ndarray:
    """The four ASCII digits of each of 0..9999, as one uint32."""
    quads = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    return (quads + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]


@functools.cache
def _layout() -> np.ndarray:
    """The cell of every (X, digit count, sign), row ``((X - _MIN_X) * 17
    + nd - 1) * 2 + negative``, and an all-NUL row last. Digit columns
    hold 0xFF where the digit is written, to be ANDed with it."""
    x, nd, neg = np.meshgrid(np.arange(_MIN_X, _MAX_X + 1), np.arange(1, 18),
                             np.arange(2), indexing="ij")
    x, nd, neg = (a.reshape(-1, 1) for a in (x, nd, neg))
    fixed, j = x >= -4, np.arange(17)
    table = np.zeros((_EMPTY + 1, CELL), dtype=np.uint8)
    table[:-1, 0] = np.where(neg[:, 0], ord("-"), 0)
    # fixed notation below 1: "0." and -X - 1 zeros before the digits
    prefix = np.arange(5) < np.where(fixed & (x < 0), 1 - x, 0)
    table[:-1, 1:6] = np.where(prefix, np.frombuffer(b"0.000", np.uint8), 0)
    # integer digits are written even when zero; fractional ones up to nd
    kept = j < np.where(fixed, np.maximum(nd, x + 1), nd)
    table[:-1, _DIGITS:_SUFFIX:2] = np.where(kept, 0xFF, 0)
    dot = np.where(fixed, x, 0)  # the digit the point follows
    dot = (j[:16] == dot) & (nd > dot + 1) & ~(fixed & (x < 0))
    table[:-1, _DIGITS + 1:_SUFFIX:2] = np.where(dot, ord("."), 0)
    # "e-XX" (written for X < -4 only)
    suffix = np.array([b"e-%02d" % (-v % 100)
                       for v in range(_MIN_X, _MAX_X + 1)])
    suffix = suffix.view(np.uint8).reshape(-1, 4)[x[:, 0] - _MIN_X]
    table[:-1, _SUFFIX:] = np.where(fixed, 0, suffix)
    return table


def float_cells(values) -> np.ndarray:
    """The ``(n, CELL)`` cells of ``"%.17g" % v`` for float64 ``values``."""
    v = np.asarray(values, dtype=np.float64)
    a = np.abs(v)
    exact = ((a > _LOW) & (a < _HIGH)) | (a == 0)
    code = np.full(v.size, _EMPTY, dtype=np.intp)
    # slices write faster than index arrays
    rows = slice(None) if exact.all() else np.flatnonzero(exact)
    if exact.any():
        digits, x, nd = _digits(a[rows])
        code[rows] = ((x - _MIN_X) * 17 + nd - 1) * 2 + np.signbit(v[rows])
    cells = _layout()[code]
    if exact.any():
        cells[rows, _DIGITS:_SUFFIX:2] &= digits
    if not exact.all():  # CPython's digits, padded to 24 bytes by spaces
        other = slice(None) if not exact.any() else np.flatnonzero(~exact)
        text = b"%-24.17g" * v[other].size % tuple(v[other].tolist())
        text = text.translate(_SPACE_TO_NUL)
        cells[other, :24] = np.frombuffer(text, dtype=np.uint8).reshape(-1, 24)
    return cells


def _digits(a):
    """For positive float64 ``a`` in the exact range or zero: the 17 ASCII
    digits of each value rounded to 17 significant digits, its decimal
    exponent X and its count of significant digits (zero is "0", X = 0)."""
    mant, exp = np.frexp(a)
    m = (mant * 2.0 ** 53).astype(np.uint64)
    e = exp.astype(np.int64) - 53
    zero = a == 0
    x = np.floor(np.log10(np.maximum(a, _LOW))).astype(np.int64)
    x[zero] = 0
    np.clip(x, _MIN_X, _MAX_X, out=x)
    d, floor = _scaled(m, e, x)
    # log10 may miss the exponent by one near a power of ten: the truncated
    # value, not the rounded one, tells (D may round up to 1e17)
    for wrong, step in (((floor < 10 ** 16) & ~zero, -1),
                        (floor >= 10 ** 17, 1)):
        fix = np.flatnonzero(wrong)
        if fix.size:
            x[fix] += step
            d[fix], _ = _scaled(m[fix], e[fix], x[fix])
    top = d == 10 ** 17
    d[top] = 10 ** 16
    x += top
    # D = d0 * 10**16 + high * 10**8 + low; four digits per lookup, in a
    # buffer whose bytes 3:20 are the 17 digits
    d0, rest = np.divmod(d, np.uint64(10 ** 16))
    high, low = (r.astype(np.uint32)
                 for r in np.divmod(rest, np.uint64(10 ** 8)))
    table, quads = _quads(), np.empty((d.size, 5), dtype=np.uint32)
    quads[:, 1] = table[high // 10000]
    quads[:, 2] = table[high % 10000]
    quads[:, 3] = table[low // 10000]
    quads[:, 4] = table[low % 10000]
    digits = quads.view(np.uint8)[:, 3:]
    digits[:, 0] = d0 + ord("0")
    nd = np.full(d.size, 17)
    cut = np.flatnonzero(low % 10 == 0)  # the last digit is 0
    nd[cut] -= np.argmax(digits[cut, ::-1] != ord("0"), axis=1)
    nd[zero] = 1
    return digits, x, nd


def _scaled(m, e, x):
    """``(round-half-even(m 2**e 10**(16 - x)), its floor)`` as uint64, for
    16 - x in [0, 27]: the product m 5**k is two limbs, hi and lo, shifted
    by s = -(e + k), right, or left where s <= 0 (no rounding there). Each
    temporary is deleted once spent, to keep the call's peak memory low."""
    k = 16 - x
    s = -(e + k)
    f_hi = _FIVES[k]
    del k
    f_lo = f_hi & _MASK32
    f_hi >>= np.uint64(32)
    m_lo, m_hi = m & _MASK32, m >> np.uint64(32)
    mid = m_lo * f_hi
    mid += m_hi * f_lo  # < 2**63 + 2**53
    hi = m_hi * f_hi
    del m_hi, f_hi
    low = m_lo * f_lo
    del m_lo, f_lo
    lo = mid << np.uint64(32)
    lo += low
    hi += mid >> np.uint64(32)
    hi += lo < low  # the carry
    del mid, low
    r = np.clip(s, 1, 63).astype(np.uint64)
    floor = hi << (np.uint64(64) - r)
    floor |= lo >> r
    del hi
    r -= np.uint64(1)
    half = np.left_shift(np.uint64(1), r)
    rest = half << np.uint64(1)
    rest -= np.uint64(1)
    rest &= lo
    up = rest > half
    up |= (rest == half) & (floor & np.uint64(1) == 1)
    del r, half, rest
    left = np.flatnonzero(s <= 0)  # m 5**k 2**-s < 2**64: lo alone
    floor[left] = lo[left] << (-s[left]).astype(np.uint64)
    up[left] = False
    return floor + up, floor


class LabelCells:
    """The UTF-8 text of every label, as a ``(n, width)`` uint8 matrix of
    NUL-padded rows, width the widest label of at most ``LABEL_CAP`` bytes.
    A wider label, or one holding a NUL, has an all-NUL row, and its text
    is ``wide_text[t]`` for its row ``wide_rows[t]``. Built from one joined
    string per ``LABEL_CHUNK`` labels, so no object per label is made."""

    def __init__(self, labels):
        wide: dict[int, bytes] = {}
        chunk = LABEL_CHUNK
        starts = range(0, len(labels), chunk)
        # a first pass finds the width
        width = max((int(_label_bytes(labels, i, i + chunk, wide)[1].max())
                     for i in starts), default=0)
        self.matrix = np.zeros((len(labels), width), dtype=np.uint8)
        for i in starts:
            text, lens, begin = _label_bytes(labels, i, i + chunk, wide)
            for col in range(width):
                column = np.take(text, begin + col, mode="clip")
                column[lens <= col] = 0
                self.matrix[i:i + lens.size, col] = column
        self.wide_rows = np.array(sorted(wide), dtype=np.intp)
        self.wide_text = [wide[r] for r in self.wide_rows.tolist()]

    def __len__(self) -> int:
        return len(self.matrix)


def _label_bytes(labels, i, j, wide):
    """The UTF-8 bytes of the labels i:j joined by NULs, each label's length
    and its start in the bytes. A wide label has length 0, and its text
    goes to ``wide[row]``."""
    chunk = list(labels[i:j])
    text = "\0".join(chunk).encode()
    if text.count(0) != len(chunk) - 1:  # a label holds a NUL
        for t, label in enumerate(chunk):
            if "\0" in label:
                wide[i + t] = label.encode()
                chunk[t] = ""
        text = "\0".join(chunk).encode()
    text = np.frombuffer(text, dtype=np.uint8)
    lens = np.diff(np.flatnonzero(text == 0), prepend=-1, append=text.size) - 1
    begin = np.cumsum(lens + 1) - lens - 1
    for t in np.flatnonzero(lens > LABEL_CAP).tolist():
        wide[i + t] = text[begin[t]:begin[t] + lens[t]].tobytes()
    return text, np.where(lens > LABEL_CAP, 0, lens), begin


def row_bytes(columns, i: int, j: int) -> bytes:
    """The CSV rows i:j of ``columns`` (``LabelCells`` and float arrays of
    equal length): each row's cells joined by commas, and a newline. A NaN
    is an empty cell."""
    widths = [c.matrix.shape[1] if isinstance(c, LabelCells) else CELL
              for c in columns]
    j = min(j, len(columns[0]))
    rows = np.empty((j - i, sum(widths) + len(widths)), dtype=np.uint8)
    pos, wide = 0, []
    for column, width in zip(columns, widths):
        cells = rows[:, pos:pos + width]
        if isinstance(column, LabelCells):
            cells[...] = column.matrix[i:j]
            a, b = np.searchsorted(column.wide_rows, (i, j))
            if b > a:
                wide.append((column.wide_rows[a:b] - i, pos,
                             column.wide_text[a:b]))
        else:
            values = column[i:j]
            cells[...] = float_cells(values)
            cells[np.isnan(values)] = 0
        rows[:, pos + width] = ord(",")
        pos += width + 1
    rows[:, -1] = ord("\n")
    # bytes.translate deletes the NULs faster than np.compress, and makes
    # no index array
    text = rows.tobytes()
    if not wide:
        del rows, cells  # before the second copy
        return text.translate(None, b"\0")
    text = text.translate(None, b"\0")
    # a wide label's bytes go where its row's text reaches its column
    starts = np.cumsum(np.count_nonzero(rows, axis=1))
    starts = np.concatenate([[0], starts[:-1]])
    at = [np.repeat(starts[r] + np.count_nonzero(rows[r, :pos], axis=1),
                    [len(t) for t in texts]) for r, pos, texts in wide]
    add = b"".join(b"".join(texts) for _, _, texts in wide)
    return np.insert(np.frombuffer(text, dtype=np.uint8), np.concatenate(at),
                     np.frombuffer(add, dtype=np.uint8)).tobytes()
