"""The exact text of ``"%.17g" % v`` for a float64 array, built in numpy passes.

``g17_cells(values)`` returns one row of ``WIDTH`` bytes per value that holds
its text in order, with NUL bytes before, between and after the parts, so
``bytes.translate(None, b"\\0")`` of the rows gives the text.

Each finite nonzero |v| = f·2^e is scaled to y = |v|·10^(16−E), E = ⌊log10 |v|⌋,
with a double-double table of powers of ten and Dekker's exact product, to about
2⁻¹⁰⁴ relative. The 17 significant digits are ⌊y⌋ rounded half-up on the fraction.
Python formats a value itself when that decision is not safe: its fraction lies
within 1e-6 of ½ (exact ties round half to even), ⌊y⌋ falls outside [10¹⁶, 10¹⁷)
because log10 misjudged E, or the rounding carries to 10¹⁷; so do zeros,
infinities and NaNs. log10 only estimates E, so its last bit cannot change the
output.

The text is laid out on three little-endian uint64 words per value, 8 bytes
each, with few passes: the digits, with a "0" put in at the point's column by
integer arithmetic, become ASCII through a table of 4-digit groups; one byte
mask cuts the trailing zeros (and the point, when no digit follows it); and
the body is shifted past the sign's byte and any "0.000" prefix, with the
"e±dd" exponent at fixed bytes after it.
"""

from __future__ import annotations

import functools

import numpy as np

# the longest %.17g text: "-1.2345678901234567e-308"
WIDTH = 24

_K_MIN, _K_MAX = -310, 345  # 10**k for k = 16 − E, E in −324…308 (or one off), with margin
_E_MAX = 330  # per-exponent tables cover E = −_E_MAX…_E_MAX
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves
_TIE_MARGIN = 1e-6  # far above the ~1e-14 error of y < 10**17
_FIXED = range(-4, 17)  # %g writes E in this range in fixed notation, else e±XX


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """(hi, hi's split halves, lo, b) per k in _K_MIN.._K_MAX, with 1 ≤ hi < 2,
    |lo| ≤ ulp(hi)/2 and 10**k = (hi + lo)·2**b to within 2⁻¹⁰⁶ relative."""
    hi, lo, b = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        e = num.bit_length() - den.bit_length()
        if num << max(-e, 0) < den << max(e, 0):
            e -= 1
        num, den = num << max(-e, 0), den << max(e, 0)  # num / den in [1, 2)
        h = num / den  # int / int rounds correctly
        lo.append((num * 2 ** 52 - int(h * 2 ** 52) * den) / (den * 2 ** 52))
        hi.append(h)
        b.append(e)
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo), np.array(b, np.int32))


def _decimal(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, E, slow) per value: |v| rounds to the 17 digits D·10^(E−16), D in
    [10¹⁶, 10¹⁷), wherever slow is False; where it is True, Python formats v."""
    mag = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        estimate = np.floor(np.log10(mag))
    special = ~np.isfinite(estimate)  # zero, infinity or NaN
    estimate[special], mag[special] = 0.0, 1.0
    E = estimate.astype(np.int64)
    f, e = np.frexp(mag)

    k = 16 - _K_MIN - E
    hi, hi_hi, hi_lo, lo, b = (a[k] for a in _powers_of_ten())
    p = f * hi  # f·(hi + lo) = p + q, Dekker's two-product for f·hi
    f_hi, f_lo = _split(f)
    q = ((f_hi * hi_hi - p) + f_hi * hi_lo + f_lo * hi_hi) + f_lo * hi_lo + f * lo
    s = e + b
    y_hi, y_lo = np.ldexp(p, s), np.ldexp(q, s)  # y = y_hi + y_lo, exactly scaled

    # y_hi ≥ 10¹⁶ > 2⁵³ is a whole number; a smaller one leaves D < 10¹⁶
    step = np.floor(y_lo)
    frac = y_lo - step
    D = y_hi.astype(np.int64) + step.astype(np.int64)
    slow = special | (D < 10 ** 16) | (np.abs(frac - 0.5) < _TIE_MARGIN)
    D += frac > 0.5
    slow |= D >= 10 ** 17  # also where 99…9.5 rounds up to one digit more
    return D, E, slow


def _words(texts: list[bytes]) -> np.ndarray:
    """(len(texts), 3) uint64: each text NUL-padded to WIDTH bytes, byte k of
    a word in bits 8k…8k+7."""
    rows = np.array(texts, dtype=f"S{WIDTH}").view("<u8").reshape(len(texts), 3)
    return rows.astype(np.uint64)


@functools.cache
def _tables() -> tuple:
    """The lookup tables of the layout, built once.

    The body is the 17 digits with a "0" inserted at the column of the point,
    18 digits in all: d1…d8, d9…d16 and the last two in three words.
    - per 4-digit group n (0…9999) and per pair (0…99): its ASCII text, and
      for group j of the body the column just past its last nonzero digit,
      4j + (1…4), or 0 when n is 0 (16 + (1…2) for the pair);
    - per byte count (0…24), one row per word: the mask of the first bytes;
    - per exponent E, with the point column P = E + 1 in fixed notation at or
      above 1, P = 1 in exponent notation and none (17, which the body cuts)
      below 1: 10 to the 17 − P digits after P, "0" − "." at byte P of each
      word, the digits fixed notation keeps before the point (E + 1, or 0),
      the bits the body moves past the sign (8) or past "0." and its zeros
      (48), and those bytes: "0." and −E − 1 zeros at bytes 1… in fixed
      notation below 1, "e±dd" at bytes 19… in exponent notation.
    """
    tens, ones = np.divmod(np.arange(100), 10)
    pairs = ((tens + ord("0")) | ((ones + ord("0")) << 8)).astype(np.uint64)
    last = np.where(ones > 0, 2, np.where(tens > 0, 1, 0))  # digits up to the last nonzero
    groups = (pairs[:, None] | (pairs << np.uint64(16))).ravel()  # 100·i + k: pair i, then k
    count = np.where(last > 0, 2 + last, last[:, None]).ravel()
    ends = np.array([np.where(count > 0, 4 * j + count, 0) for j in range(4)], np.int8)
    pair_ends = np.where(last > 0, 16 + last, 0).astype(np.int8)
    low = _words([b"\xff" * k for k in range(WIDTH + 1)]).T.copy()

    E = np.arange(-_E_MAX, _E_MAX + 1).tolist()
    small = [e in _FIXED and e < 0 for e in E]
    point = [17 if s else e + 1 if e in _FIXED else 1 for s, e in zip(small, E)]
    dot = _words([b"\0" * p + b"\2" for p in point]).T.copy()
    head = _words([b"\0" + b"0.000"[:1 - e] if s else
                   b"\0" * 19 + (b"" if e in _FIXED else b"e%+03d" % e) for s, e in zip(small, E)])
    return (groups, ends, pairs, pair_ends, low, np.array([10 ** (17 - p) for p in point]), dot,
            np.array([e + 1 if e in _FIXED and e >= 0 else 0 for e in E], np.int8),
            np.array([48 if s else 8 for s in small], np.uint64), head[:, 0], head[:, 2])


def g17_cells(values: np.ndarray) -> np.ndarray:
    """(len(values), WIDTH) uint8: the bytes of ``"%.17g" % v`` per value of a
    float64 array, in order, with NUL bytes around and between them."""
    D, E, slow = _decimal(values)
    groups, ends, pairs, pair_ends, low, scale, dot, whole, shift, head, exp = _tables()
    D[slow] = 10 ** 16  # any 17 digits: Python rewrites these rows

    # the body: a "0" digit at the point column, made "." where a digit follows
    # it; the digits up to the last nonzero one, and at least the whole part
    row = E + _E_MAX
    p = scale[row]
    D += D // p * (9 * p)
    h, hundreds = D // 10 ** 10, D // 100
    m = hundreds - h * 10 ** 8
    pair = D - hundreds * 100
    a = h // 10 ** 4
    b = h - a * 10 ** 4
    c = m // 10 ** 4
    d = m - c * 10 ** 4
    kept = np.maximum(np.maximum(ends[0][a], ends[1][b]), np.maximum(ends[2][c], ends[3][d]))
    kept = np.maximum(np.maximum(kept, pair_ends[pair]), whole[row]).astype(np.intp)
    digits = (groups[a] | (groups[b] << np.uint64(32)), groups[c] | (groups[d] << np.uint64(32)),
              pairs[pair])
    body = [(digits[j] - dot[j][row]) & low[j][kept] for j in range(3)]

    # the sign at byte 0, then the prefix, the body and the exponent
    by = shift[row]
    back = np.uint64(64) - by
    out = np.empty((len(values), 3), "<u8")
    out[:, 0] = head[row] | (body[0] << by) | (np.signbit(values) * np.uint64(ord("-")))
    out[:, 1] = (body[1] << by) | (body[0] >> back)
    out[:, 2] = (body[2] << by) | (body[1] >> back) | exp[row]
    out = out.view(np.uint8)
    (slow,) = np.nonzero(slow)
    if slow.size:
        texts = [("%.17g" % v).encode() for v in values[slow].tolist()]
        out[slow] = np.array(texts, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
    return out
