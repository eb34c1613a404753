"""The exact text of ``"%.17g" % v`` for a float64 array, built in numpy passes.

``g17_cells(values)`` returns one row of ``WIDTH`` ASCII bytes per value, padded
with NUL bytes, so ``bytes.translate(None, b"\\0")`` of the rows gives the text.

Each finite nonzero |v| = f·2^e is scaled to y = |v|·10^(16−E), E = ⌊log10 |v|⌋,
with a double-double table of powers of ten and Dekker's exact product, to about
2⁻¹⁰⁴ relative. The 17 significant digits are ⌊y⌋ rounded half-up on the fraction.
Python formats a value itself when that decision is not safe: its fraction lies
within 1e-6 of ½ (exact ties round half to even), ⌊y⌋ falls outside [10¹⁶, 10¹⁷)
because log10 misjudged E, or the rounding carries to 10¹⁷; so do zeros,
infinities and NaNs. log10 only estimates E, so its last bit cannot change the
output.
"""

from __future__ import annotations

import functools

import numpy as np

# one row per value: the sign, the "0.000" of fixed notation below 1, the 17
# digits with the point among them, and "e±ddd"; every %g form fits, NUL padded
WIDTH = 29

_K_MIN, _K_MAX = -310, 345  # 10**k for k = 16 − E, E in −324…308 (or one off), with margin
_E_MAX = 330  # exponent texts cover −_E_MAX…_E_MAX
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


@functools.cache
def _digit_groups() -> np.ndarray:
    """(10000,) uint32: the four ASCII digits of 0000…9999."""
    n = np.arange(10000)[:, None]
    digits = n // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    return digits.astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _exponents() -> np.ndarray:
    """(2·_E_MAX + 2, 5) uint8: "e±ddd" for E = −_E_MAX…_E_MAX, the hundreds NUL
    below 100, and a last row of NULs."""
    e = np.arange(-_E_MAX, _E_MAX + 1)
    a = np.abs(e)
    text = [np.full_like(e, ord("e")), np.where(e < 0, ord("-"), ord("+")),
            np.where(a >= 100, a // 100 + ord("0"), 0), a // 10 % 10 + ord("0"), a % 10 + ord("0")]
    return np.vstack([np.stack(text, axis=1), np.zeros(5, int)]).astype(np.uint8)


@functools.cache
def _prefixes() -> np.ndarray:
    """(6, 5) uint8: row k holds the first k characters of "0.000"."""
    return np.frombuffer(b"0.000", np.uint8) * np.tri(6, 5, -1, np.uint8)


@functools.cache
def _body_masks() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(19, 18) uint8 rows per body column p: 1 before p, 1 after p, and "." at p."""
    col = np.arange(18)
    p = np.arange(19)[:, None]
    return ((col < p).astype(np.uint8), (col > p).astype(np.uint8),
            ((col == p) * ord(".")).astype(np.uint8))


def g17_cells(values: np.ndarray) -> np.ndarray:
    """(len(values), WIDTH) uint8: the NUL-padded bytes of ``"%.17g" % v`` per
    value of a float64 array."""
    mag = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        estimate = np.floor(np.log10(mag))
    special = ~np.isfinite(estimate)  # zero, infinity or NaN
    E = np.where(special, 0.0, estimate).astype(np.int64)
    f, e = np.frexp(np.where(special, 1.0, mag))

    k = 16 - _K_MIN - E
    hi, hi_hi, hi_lo, lo, b = (np.take(a, k) for a in _powers_of_ten())
    p = f * hi  # f·(hi + lo) = p + q, Dekker's two-product for f·hi
    f_hi, f_lo = _split(f)
    q = ((f_hi * hi_hi - p) + f_hi * hi_lo + f_lo * hi_hi) + f_lo * hi_lo + f * lo
    s = e + b
    y_hi, y_lo = np.ldexp(p, s), np.ldexp(q, s)  # y = y_hi + y_lo, exactly scaled

    whole = np.floor(y_hi)
    rest = (y_hi - whole) + y_lo
    step = np.floor(rest)
    frac = rest - step
    D = whole.astype(np.int64) + step.astype(np.int64)
    fallback = special | (D < 10 ** 16) | (D >= 10 ** 17) | (np.abs(frac - 0.5) < _TIE_MARGIN)
    D += frac > 0.5
    fallback |= D == 10 ** 17  # 99…9.5 rounds up to one digit more

    n = len(values)
    lead, tail = np.divmod(D, 10 ** 16)
    high, low = np.divmod(tail, 10 ** 8)
    quads = np.empty((n, 4), np.int64)
    quads[:, 0], quads[:, 1] = np.divmod(high, 10 ** 4)
    quads[:, 2], quads[:, 3] = np.divmod(low, 10 ** 4)
    digits = np.zeros((n, 18), np.uint8)  # the 17 digits and a NUL
    digits[:, 0] = lead + ord("0")
    digits[:, 1:17] = np.take(_digit_groups(), quads).view(np.uint8)
    trailing_zeros = np.argmin(digits[:, 16:0:-1] == ord("0"), axis=1)
    significant = np.where(tail == 0, 1, 17 - trailing_zeros)  # argmin is 0 when all are 0

    sci = (E < _FIXED.start) | (E >= _FIXED.stop)
    point = np.where(sci, 1, np.where(E >= 0, E + 1, 17))  # body column of the point; 17: none
    kept = np.where(sci | (E < 0), significant, np.maximum(significant, E + 1))
    kept += kept > point  # the point itself, when a digit follows it
    before, after, point_char = _body_masks()
    shifted = np.zeros_like(digits)  # digit k − 1 in column k; the flat shift moves
    shifted.ravel()[1:] = digits.ravel()[:-1]  # each row's last column, a NUL, to the next row
    body = (digits * np.take(before, point, axis=0) + shifted * np.take(after, point, axis=0)
            + np.take(point_char, point, axis=0)) * np.take(before, kept, axis=0)
    prefix = np.where(sci | (E >= 0), 0, 1 - E)  # "0." and −E−1 zeros
    exp = np.where(sci, E + _E_MAX, 2 * _E_MAX + 1)  # the last row is all NUL
    out = np.concatenate([(np.signbit(values) * np.uint8(ord("-")))[:, None],
                          np.take(_prefixes(), prefix, axis=0), body,
                          np.take(_exponents(), exp, axis=0)], axis=1)

    (slow,) = np.nonzero(fallback)
    if slow.size:
        text = [("%.17g" % v).encode() for v in values[slow].tolist()]
        out[slow] = np.array(text, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
    return out
