"""Fixed-width text kernels of the network writer: numpy builds the text of
many numbers at once, byte for byte what Python's formatting gives.

Text is laid out column-major: a (text rows, values) uint8 array whose
row t holds byte t of every value's text, and whose zero bytes are
padding, anywhere in a column.  numpy's inner loops then run over values.
table_text joins such columns into tab-separated lines with one
transpose and one boolean mask that drops the padding.
"""

from __future__ import annotations

import numpy as np

# Longest format(x, ".17g") of a float64: "-2.2250738585072014e-308".
_TEXT_ROWS = 24
# 5**s for the scales s = 16 - X of the exact path: X is -4..13 and its
# first guess at most one off, so s is 2..21 and 5**s < 2**49.
_POW5 = np.array([5**s for s in range(22)], dtype=np.uint64)
# The two ASCII digits of each of 0..99, as one uint16 each.
_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)
_U32 = np.uint64(0xFFFFFFFF)
_E16, _E17 = np.uint64(10**16), np.uint64(10**17)
# The text "0." and -X-1 zeros before the digits of a value with X < 0.
_ZERO_POINT = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_LEAD = np.array([-1, -1, -2, -3, -4], dtype=np.int8)[:, None]


def _scaled_significand(m: np.ndarray, E: np.ndarray, X: np.ndarray):
    """For x = m * 2**(E - 53) (m < 2**53) and scale s = 16 - X, return
    (floor, round-half-even) of x * 10**s, exactly, as uint64.

    x * 10**s = m * 5**s / 2**r with r = 53 - E - s; the product m * 5**s
    (< 2**102) is formed in two 64-bit limbs from 32-bit halves and shifted
    right by r, which lies in 1..63 for every x the caller passes.  All
    arithmetic stays in uint64: mixing in a signed integer would promote to
    float64 (numpy 1.x also does so with some Python int operands)."""
    p = _POW5[16 - X]
    r = (53 - E - (16 - X)).astype(np.uint64)
    ml, mh = m & _U32, m >> np.uint64(32)
    pl, ph = p & _U32, p >> np.uint64(32)
    low = ml * pl
    mid = ml * ph + mh * pl + (low >> np.uint64(32))
    lo = (mid << np.uint64(32)) | (low & _U32)
    hi = mh * ph + (mid >> np.uint64(32))
    one = np.uint64(1)
    floor = (hi << (np.uint64(64) - r)) | (lo >> r)
    rest, half = lo & ((one << r) - one), one << (r - one)
    up = (rest > half) | ((rest == half) & (floor & one == one))
    return floor, floor + up


def float_text(v: np.ndarray) -> np.ndarray:
    """format(u, ".17g") of every u in the 1-D array v, as a (24, len(v))
    uint8 array: text row t, value p holds byte t of the text of v[p] or a
    zero byte of padding, zeros anywhere in the column.

    Values with 1e-4 <= |v| < 1e14 are exact in uint64 arithmetic and print
    in fixed notation.  Their decimal exponent X starts at floor(log10|v|)
    and moves until floor(v * 10**(16 - X)) has 17 digits; the rounded
    significand N then takes its digits two at a time.  %g strips trailing
    fraction zeros, the point with them when nothing follows it, and puts
    "0." plus -X-1 zeros before the digits when X < 0.  Any other value (0,
    -0.0, subnormals, the rest outside the range, non-finite) is formatted
    by Python one at a time.  (Rounding to 17 digits never carries into an
    18th: that needs a double within half a unit of the 17th digit below a
    power of ten, and no double in the exact range is.)"""
    a = np.abs(v)
    exact = (a >= 1e-4) & (a < 1e14)
    a = np.where(exact, a, 1.0)
    M, E = np.frexp(a)
    m = (M * 2.0**53).astype(np.uint64)
    E = E.astype(np.int64)
    X = np.floor(np.log10(a)).astype(np.int64)
    while True:
        floor, N = _scaled_significand(m, E, X)
        off = (floor >= _E17).astype(np.int64) - (floor < _E16)
        if not off.any():
            break
        X += off
    X = X.astype(np.int8)

    pairs = np.empty((8, v.size), dtype=np.intp)
    for k in range(7, -1, -1):
        N, pairs[k] = np.divmod(N, np.uint64(100))
    digits = np.empty((17, v.size), dtype=np.uint8)
    digits[0] = N + ord("0")
    pair_text = np.take(_DIGIT_PAIRS, pairs).view(np.uint8).reshape(8, v.size, 2)
    digits[1::2] = pair_text[..., 0]
    digits[2::2] = pair_text[..., 1]
    # The pair indices take 64 bytes per value; free them before the text
    # is built.
    del pairs, pair_text
    # Digits 0..end-1 stay: the integer part and the fraction up to its
    # last nonzero digit (digit 0 is never zero).
    row = np.arange(18, dtype=np.int8)[:, None]
    nonzero_end = ((digits != ord("0")).view(np.int8) * (row[:17] + 1)).max(axis=0)
    end = np.maximum(nonzero_end, X + 1)
    digits *= (row[:17] < end).view(np.uint8)
    point = ((X >= 0) & (end > X + 1)) * np.uint8(ord("."))

    text = np.zeros((_TEXT_ROWS, v.size), dtype=np.uint8)
    text[0] = (v < 0) * np.uint8(ord("-"))
    text[1:6] = (X <= _LEAD) * _ZERO_POINT
    # Rows 6.. hold digits 0..X, the point, then digits X+1..16; or, for
    # X < 0, all 17 digits after the "0." above.  Selection by arithmetic
    # on 0/1 masks: numpy's masked copies are several times slower.
    last = np.where(X >= 0, X, np.int8(17))
    padded = np.zeros((19, v.size), dtype=np.uint8)
    padded[1:18] = digits
    text[6:] = (
        padded[1:] * (row <= last).view(np.uint8)
        + padded[:18] * (row > last + 1).view(np.uint8)
        + point * (row == last + 1).view(np.uint8)
    )
    other = np.flatnonzero(~exact)
    if other.size:
        texts = b"".join(
            format(u, ".17g").encode().ljust(_TEXT_ROWS, b"\0") for u in v[other].tolist()
        )
        text[:, other] = np.frombuffer(texts, dtype=np.uint8).reshape(-1, _TEXT_ROWS).T
    return text


def int_text(v: np.ndarray, width: int) -> np.ndarray:
    """Decimal text of the nonnegative integers v (< 10**width) as a
    (width, len(v)) uint8 array, leading zeros as zero bytes."""
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)[:, None]
    text = (v // powers % 10 + ord("0")).astype(np.uint8)
    text[(v < powers) & (powers > 1)] = 0
    return text


def table_text(fields: list[np.ndarray]) -> bytes:
    """The text of a table given field by field: each field is a (rows of
    text, table rows) uint8 array whose zero bytes are padding.  Each table
    row joins its fields with tabs and ends in a newline."""
    grid = np.zeros((sum(len(f) + 1 for f in fields), fields[0].shape[1]), dtype=np.uint8)
    at = 0
    for f in fields:
        grid[at : at + len(f)] = f
        grid[at + len(f)] = ord("\t")
        at += len(f) + 1
    grid[-1] = ord("\n")
    text = np.ascontiguousarray(grid.T)
    return text[text != 0].tobytes()
