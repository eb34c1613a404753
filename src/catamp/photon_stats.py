"""Photon-number distributions and reduced factorial moments.

Every term of the state contributes a two-fold Laguerre series built from two
effective "thermal + coherent" channels with thermal weights lambda_+/- and
coherent weights A_+/-.  Laguerre polynomials are used in the standard
convention (L_0 = 1, L_1 = 1 - x, three-term recurrence); the factorials that
a convention carrying an extra n! would need are folded into the series
prefactors so that distributions are normalized and match the Fock-space
reference.  The ladder x^m * L_m(y) * e^c is evaluated by a renormalized
recurrence in the variables (x, x*y, c), which is regular at the t = 0 point
where the thermal weights vanish and safe against overflow at large gain.

Each distribution and factorial moment evolves the term table once
(coeffs.evolve_terms) and reads that record.  Row 15 - i is row i with every amplitude negated: same
class, bit-identical quadratic quantities (A_+/-, single-mode c1).  So the
ladders run over rows 0..7 only, each weighted by the paired prefactor of rows
i and 15 - i, and the two channel ladders of the sum distribution are
convolved by numpy.fft at a 5-smooth length.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coeffs import EvolvedTerms, evolve_terms
from .params import System
from .rho_terms import TermClass


class TruncationWarning(UserWarning):
    """The requested n_max leaves more probability mass in the tail than the
    stated tolerance."""


TAIL_TOL = 1e-6
MAX_FACTORIAL_ORDER = 64
# below this (relative) separation, the two thermal channels are treated as
# the decoupled per-mode channels; exact when the cross-correlation vanishes
_DEGENERATE_TOL = 1e-9


@dataclass(frozen=True)
class Distribution:
    """Photon-number probabilities P(0..n_max) with optional class parts."""

    probs: np.ndarray
    n_max: int
    class_parts: dict[TermClass, np.ndarray] | None = field(default=None)

    @property
    def total(self) -> float:
        return float(np.sum(self.probs))

    def mean(self) -> float:
        return float(np.dot(np.arange(self.n_max + 1), self.probs))


def laguerre(n: int, x):
    """Standard Laguerre polynomial L_n(x) (scalar or array, real or complex).

    Three-term recurrence; supports orders well past 512.
    """
    if n < 0 or n != int(n):
        raise ValueError("n must be a nonnegative integer")
    x = np.asarray(x)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else prev[()]
    cur = 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur if cur.ndim else cur[()]


def generating_quantities(ev: EvolvedTerms) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Thermal weights lambda_+/- and the rows' coherent weights A_+/-.

    The thermal weights depend on the noise coefficients only; A_+ and A_-
    are (16,) arrays, one value per row.  When the two channel weights
    degenerate (which requires the anomalous correlation to vanish), the
    partial-fraction split is replaced by the per-mode decoupled assignment,
    which is exact there.
    """
    b1, b2, d = ev.coeffs.B1N, ev.coeffs.B2N, ev.coeffs.D
    c1, c2 = ev.ab1 * ev.abp1, ev.ab2 * ev.abp2
    disc = math.sqrt((b1 - b2) ** 2 + 4.0 * abs(d) ** 2)
    scale = 1.0 + b1 + b2
    if disc < _DEGENERATE_TOL * scale:
        return (b1, b2, -c1, -c2) if b1 >= b2 else (b2, b1, -c2, -c1)
    lam_p = 0.5 * (b1 + b2) + 0.5 * disc
    lam_m = 0.5 * (b1 + b2) - 0.5 * disc
    cross = ev.abp1 * ev.abp2 * d + ev.ab1 * ev.ab2 * d.conjugate()

    def numer(lam):
        return cross - c1 * (b2 - lam) - c2 * (b1 - lam)

    # the split carries 1/(lambda_minus - lambda_plus) = -1/disc
    return lam_p, lam_m, -numer(lam_p) / disc, numer(lam_m) / disc


# renormalization band of the ladder's running pair, and the log of its step
_SMALL, _BIG = 1e-100, 1e100
_LN_1E200 = 200.0 * math.log(10.0)


def _ladder(x: complex, xy: complex, c: complex, n: int) -> np.ndarray:
    """Values e^c * x^m * L_m(xy / x) for m = 0..n, by renormalized recurrence.

    Written in terms of (x, xy) the recurrence is polynomial, hence regular at
    x = 0.  A floating shift keeps the running pair inside float range; the
    shift is folded back per order, so genuinely tiny values underflow to 0
    and genuinely huge intermediate magnitudes survive.
    """
    shift = c.real
    prev = complex(math.cos(c.imag), math.sin(c.imag))  # e^{i Im c}
    cur = x * prev - xy * prev
    vals = np.empty(n + 1, dtype=complex)
    vals[:2] = (prev, cur)[: n + 1]
    marks = [(0, shift)]  # (first order, shift) at each renormalization
    in_band = False  # |cur| is known to lie in [_SMALL, _BIG]
    for m in range(1, n):
        nxt = ((x * (2 * m + 1) - xy) * cur - m * x * x * prev) / (m + 1)
        if not (in_band and _SMALL <= abs(nxt) <= _BIG):
            mag = max(abs(nxt), abs(cur))
            if mag > _BIG or 0.0 < mag < _SMALL:
                scale, step = (1e-200, _LN_1E200) if mag > _BIG else (1e200, -_LN_1E200)
                nxt, cur, shift = nxt * scale, cur * scale, shift + step
                marks.append((m + 1, shift))
            in_band = _SMALL <= abs(nxt) <= _BIG
        prev, cur = cur, nxt
        vals[m + 1] = cur
    starts, values = zip(*marks)
    shifts = np.repeat(values, np.diff([*starts, n + 1]))
    with np.errstate(over="ignore", under="ignore"):
        vals *= np.exp(shifts, out=shifts)
    return vals


def _fft_size(n: int) -> int:
    """Smallest 5-smooth integer >= n, a fast numpy.fft length."""
    best, p5 = 2 * n, 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 * 2^a for the least a reaching n
            best, p35 = min(best, p35 << ((n - 1) // p35).bit_length()), p35 * 3
        p5 *= 5
    return best


def _paired_prefactors(ev: EvolvedTerms) -> list[complex]:
    """Prefactor of row i plus that of its parity partner 15 - i, i = 0..7."""
    return (ev.prefactor[:8] + ev.prefactor[:7:-1]).tolist()


def _auto_n_max(ev: EvolvedTerms, mode: int | None) -> int:
    """Truncation from the mean and variance of the photon-number observable."""
    w1 = _factorial_moment(ev, 1, mode)
    w2 = _factorial_moment(ev, 2, mode)
    mean = max(w1, 0.0)
    var = max(w2 + mean - mean**2, mean)
    return max(int(math.ceil(mean + 8.0 * math.sqrt(var + 1.0))), 31) + 1


# auto-truncation targets a tail well below the normalization tolerance
_AUTO_TAIL_TARGET = 1e-9
_AUTO_GROWTH_TRIES = 4


def _with_auto_tail(n_max, auto, compute):
    """Run compute(n_max); with automatic truncation, grow until the tail
    drops below the target (thermal tails can outlive the variance margin)."""
    if n_max is not None:
        probs, extra = compute(n_max)
        _check_tail(probs)
        return probs, extra, n_max
    n_max = auto()
    for _ in range(_AUTO_GROWTH_TRIES):
        probs, extra = compute(n_max)
        if 1.0 - float(np.sum(probs)) <= _AUTO_TAIL_TARGET:
            return probs, extra, n_max
        n_max = int(1.7 * n_max) + 50
    _check_tail(probs)
    return probs, extra, n_max


def sum_pnd(system: System, t: float, n_max: int | None = None) -> Distribution:
    """Distribution of the total photon number n1 + n2.

    Also exposes the three class parts (mixture, symmetric interference,
    asymmetric interference); the parts may be negative individually, the
    total is a probability distribution.
    """
    ev = evolve_terms(system, t)
    lam_p, lam_m, a_plus, a_minus = generating_quantities(ev)
    den_p, den_m = 1.0 + lam_p, 1.0 + lam_m
    rows = list(zip(ev.kind[:8], _paired_prefactors(ev), a_plus[:8].tolist(),
                    a_minus[:8].tolist()))

    def compute(nm):
        size = _fft_size(2 * nm + 1)
        spec_u, spec_v = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
        parts = {kind: np.zeros(nm + 1) for kind in TermClass}
        for kind, pref, ap, am in rows:
            np.fft.fft(_ladder(lam_p / den_p, ap / den_p**2, ap / den_p, nm), size, out=spec_u)
            np.fft.fft(_ladder(lam_m / den_m, am / den_m**2, am / den_m, nm), size, out=spec_v)
            spec_u *= spec_v
            spec_u *= pref / (den_p * den_m)
            parts[kind] += np.fft.ifft(spec_u, out=spec_u)[: nm + 1].real
        real_parts = {kind: ev.norm * arr for kind, arr in parts.items()}
        return sum(real_parts.values()), real_parts

    probs, real_parts, n_max = _with_auto_tail(n_max, lambda: _auto_n_max(ev, None), compute)
    return Distribution(probs=probs, n_max=n_max, class_parts=real_parts)


def single_pnd(mode: int, system: System, t: float, n_max: int | None = None) -> Distribution:
    """Marginal photon-number distribution of one mode (1 = signal, 2 = idler)."""
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    ev = evolve_terms(system, t)
    b, abar, abarp = ev.mode(mode)
    den = 1.0 + b
    rows = list(zip(_paired_prefactors(ev), (abar[:8] * abarp[:8]).tolist()))

    def compute(nm):
        acc = np.zeros(nm + 1, dtype=complex)
        for pref, c1 in rows:
            acc += (pref / den) * _ladder(b / den, -c1 / den**2, -c1 / den, nm)
        return ev.norm * acc.real, None

    probs, _, n_max = _with_auto_tail(n_max, lambda: _auto_n_max(ev, mode), compute)
    return Distribution(probs=probs, n_max=n_max)


def _check_tail(probs: np.ndarray) -> None:
    tail = 1.0 - float(np.sum(probs))
    if tail > TAIL_TOL:
        warnings.warn(f"photon-number tail mass {tail:.3e} exceeds {TAIL_TOL:.0e}; "
                      "increase n_max", TruncationWarning, stacklevel=3)


def factorial_moments(
    system: System, t: float, k: int, scope: str = "compound", mode: int = 1
) -> tuple[float, float]:
    """Reduced factorial moment <W^k> and its normalized form <W^k>/<W>^k - 1.

    scope "compound" uses the photon-number sum of both modes, "single" the
    chosen mode alone.  Negative normalized values indicate sub-Poissonian
    (antibunched) light.  The normalized form is NaN when <W> = 0.
    """
    if k < 0 or k != int(k):
        raise ValueError("k must be a nonnegative integer")
    if k > MAX_FACTORIAL_ORDER:
        raise ValueError(f"k must be <= {MAX_FACTORIAL_ORDER}")
    if scope not in ("compound", "single"):
        raise ValueError("scope must be 'compound' or 'single'")
    if k == 0:
        return 1.0, 0.0
    ev = evolve_terms(system, t)
    mode = None if scope == "compound" else mode
    wk = _factorial_moment(ev, k, mode)
    if k == 1:
        return wk, 0.0
    w1 = _factorial_moment(ev, 1, mode)
    if w1 == 0.0:
        return wk, float("nan")
    return wk, wk / w1**k - 1.0


def _factorial_moment(ev: EvolvedTerms, k: int, mode: int | None) -> float:
    """<W^k> of the sum n1 + n2 (mode None) or of one mode, from the record."""
    kfac = math.factorial(k)
    if mode is None:
        lam_p, lam_m, a_plus, a_minus = generating_quantities(ev)
        vals = [kfac * np.dot(_ladder(complex(lam_m), am, 0j, k)[::-1],
                              _ladder(complex(lam_p), ap, 0j, k))
                for ap, am in zip(a_plus[:8].tolist(), a_minus[:8].tolist())]
    else:
        b, abar, abarp = ev.mode(mode)
        vals = [kfac * _ladder(complex(b), -c1, 0j, k)[k]
                for c1 in (abar[:8] * abarp[:8]).tolist()]
    total = 0j
    for pref, val in zip(_paired_prefactors(ev), vals):
        total += pref * val
    return float((ev.norm * total).real)
