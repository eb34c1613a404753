"""Photon-number distributions and reduced factorial moments.

Every term (row) of the state has a closed-form photon-number generating
function.  With u = 1 - s, the noise covariance Sigma = [[B1N, D], [D*, B2N]]
and the row's weights a, b (generating_quantities) it is

    G_i(s) = exp(u (a_i + b_i u) / Delta(u)) / Delta(u),  Delta(u) = 1 + T u + K u^2,

and P(n) = N1^2 N2^2 Re sum_i p_i [s^n] G_i(s).  For the sum n1 + n2,
Delta(u) = det(I + u Sigma): T = B1N + B2N, K = B1N B2N - |D|^2; one mode
alone has T = B_jN and K = b = 0.  The distributions read every coefficient
n <= n_max at once from samples of G on the roots of unity: one block pass
over the 8 paired rows (closed under the adjoint, class by class) per block of
samples, class sums in row order, and one batched inverse FFT for all classes,
at a 5-smooth length; the block width bounds the working set at any n_max.
The automatic n_max comes from a Chernoff bound on the tail, G(s) /
s^(n_max + 1) over real s > 1, so one kernel call meets the tail target.  The
factorial moments <W^k> are k! times the Taylor coefficients of G about
s = 1, from one four-term recurrence; at K = b = 0 it is the Laguerre
recurrence of T^m L_m(-a / T) in the standard convention (L_0 = 1,
L_1 = 1 - x), whose factorials are folded into the series so that
distributions are normalized and match the Fock-space reference.

Each distribution and factorial moment evolves the term table once
(coeffs.evolve_terms) and reads that record.  Row 15 - i is row i with every
amplitude negated: same class, bit-identical a and b.  So only rows 0..7 are
evaluated, each weighted by the paired prefactor of rows i and 15 - i.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coeffs import EvolvedTerms, evolve_terms
from .params import System, _count
from .rho_terms import _ADJOINT, _KINDS, TermClass


class TruncationWarning(UserWarning):
    """The requested n_max leaves more probability mass in the tail than the
    stated tolerance."""


TAIL_TOL = 1e-6
MAX_FACTORIAL_ORDER = 64


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


def generating_quantities(
    ev: EvolvedTerms, mode: int | None = None
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """T, K of Delta(u) = 1 + T u + K u^2 and the rows' weights a, b ((16,) arrays)
    of the sum n1 + n2 (mode None) or of mode 1 or 2 alone, where K = b = 0."""
    if mode is not None:
        bn, abar, abarp = ev.mode(mode)
        a = -abar * abarp
        return bn, 0.0, a, np.zeros_like(a)
    b1, b2, d = ev.coeffs.B1N, ev.coeffs.B2N, ev.coeffs.D
    c1, c2 = ev.ab1 * ev.abp1, ev.ab2 * ev.abp2
    cross = ev.abp1 * ev.abp2 * d + ev.ab1 * ev.ab2 * d.conjugate()
    return b1 + b2, b1 * b2 - abs(d) ** 2, -(c1 + c2), cross - c1 * b2 - c2 * b1


# half-circle samples per block pass: the (16, block) temporaries stay small
# (131 kB) at figure 6's n_max and at the 2^20 cap alike
_KERNEL_BLOCK = 512


def _fft_length(n: int) -> int:
    """The smallest even 2^i 3^j 5^k >= n: a length pocketfft transforms in
    radix passes, never by Bluestein's algorithm over a large prime factor."""
    half = max(-(-n // 2), 1)
    best, p5 = 2 * half, 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 * 2^a for the least a reaching half
            best, p35 = min(best, p35 << ((half - 1) // p35).bit_length()), p35 * 3
        p5 *= 5
    return 2 * best


def _real_coefficients(t_coef: float, k_coef: float, p, a, b, ends, n_max: int) -> np.ndarray:
    """Re [s^n] of each class's generating function, n = 0..n_max, as a
    (len(ends), n_max + 1) array.

    A row (p, a, b) stands for p exp(a w + b u w) / Delta(u) with u = 1 - s,
    Delta(u) = 1 + T u + K u^2 and w = u / Delta(u).  p, a and b are (8, 1)
    arrays, the paired rows grouped by class: class c spans rows
    ends[c - 1]:ends[c], the first from 0.  Each class holds the conjugate of
    every row it holds (the Hermitian conjugate of the state, _pnd), so its
    coefficients are real, its samples on s = e^{-2 pi i k / N} are Hermitian
    in k, and the half circle k = 0..N/2 holds them all.  One block pass over
    the 8 rows evaluates every term at _KERNEL_BLOCK samples at a time, each
    class sum adds its rows in row order, and one batched irfft returns every
    class's coefficients.  Only the (8, block) terms are temporaries, so memory
    beyond the samples and the result does not grow with n_max.  N is
    _fft_length(2 (n_max + 1)), at most 1.16 times 2 (n_max + 1), so the
    aliased terms P(n + N), ... lie beyond twice the truncation, far below the
    tail target, and the rows past n_max are dropped.
    """
    size = _fft_length(2 * (n_max + 1))
    u = -np.expm1(np.arange(size // 2 + 1) * (-2j * math.pi / size))  # accurate near s = 1
    den = 1.0 + t_coef * u + k_coef * u * u
    w = u / den
    uw = u * w
    sums = np.empty((len(ends), u.size), dtype=complex)
    # a last block of one column would be summed pairwise, not in row order,
    # so it joins the block before (u.size >= 2)
    starts = range(0, u.size - 1, _KERNEL_BLOCK)
    for lo, hi in zip(starts, (*starts[1:], u.size)):
        cols = slice(lo, hi)
        z = a * w[cols] + b * uw[cols]
        terms = p * np.exp(z, out=z)
        for c, (start, stop) in enumerate(zip((0, *ends), ends)):
            np.add.reduce(terms[start:stop], axis=0, out=sums[c, cols])
    sums /= den
    return np.fft.irfft(sums, size)[:, : n_max + 1]


def _paired_prefactors(ev: EvolvedTerms) -> np.ndarray:
    """Prefactor of row i plus that of its parity partner 15 - i, i = 0..7."""
    return ev.prefactor[:8] + ev.prefactor[:7:-1]


def _class_layout(classes: tuple, kinds: tuple) -> tuple[tuple, tuple[int, ...], tuple[int, ...]]:
    """The classes, the order of the 8 paired rows that groups them by class
    (row order kept within a class), and the end of each class's rows in that
    order."""
    order = tuple(i for kind in classes for i in range(8) if kinds[i] is kind)
    return classes, order, tuple(itertools.accumulate(kinds.count(kind) for kind in classes))


# every record's rows have rho_terms' kinds; one mode alone has one class, None
_SUM_LAYOUT = _class_layout(tuple(TermClass), _KINDS[:8])
_MODE_LAYOUT = _class_layout((None,), (None,) * 8)


# auto-truncation targets a tail well below the normalization tolerance, and
# never goes past the cap (57x figure 6's n_max); explicit n_max is uncapped
_AUTO_TAIL_TARGET = 1e-9
_AUTO_N_MAX_CAP = 2**20
# the Chernoff bound's s = 1 + v: v = 2^(k/4) from 2^-16, below which the
# bound N + 1 >= log(1e9) / log s passes the cap, to 64, 4 points per octave
_CHERNOFF_V = 2.0 ** (np.arange(-64, 25) / 4)


def _chernoff_n_max(norm: float, t_coef: float, k_coef: float, p, a, b) -> int:
    """The least n_max over the grid whose Chernoff bound on the tail meets
    the target, from the kernel's 8 paired rows p, a, b ((8, 1) arrays); the
    cap where none does.

    P(n) >= 0, so for real s > 1 where G converges the tail obeys

        sum_{n > N} P(n) <= G(s) / s^(N + 1),  N = ceil(log(G(s) / target) / log s) - 1.

    At u = 1 - s = -v the paired rows, closed under conjugation, give
    G(s) = norm Re sum p exp(a w + b u w) / Delta(u), summed in log space.
    Delta(-v) = (1 - lam_+ v)(1 - lam_- v), lam the roots of t^2 - T t + K
    (the covariance's eigenvalues, for the sum), so v stays below
    0.98 / lam_max.  Points where G is not finite and positive (the sum
    cancels, or leaves float range) are skipped.
    """
    lam_max = 0.5 * (t_coef + math.sqrt(max(t_coef * t_coef - 4.0 * k_coef, 0.0)))
    v = _CHERNOFF_V[: np.searchsorted(_CHERNOFF_V, 0.98 / lam_max)] if lam_max else _CHERNOFF_V
    den = 1.0 - v * (t_coef - k_coef * v)
    with np.errstate(all="ignore"):
        z = (a - b * v) * (-v / den)
        top = z.real.max(axis=0)
        log_g = np.log(norm * np.sum(p * np.exp(z - top), axis=0).real / den) + top
        bound = (log_g - math.log(_AUTO_TAIL_TARGET)) / np.log1p(v)
    bound = bound[np.isfinite(bound)]
    if not bound.size:
        return _AUTO_N_MAX_CAP
    return min(max(math.ceil(bound.min()) - 1, 0), _AUTO_N_MAX_CAP)


def _pnd(system: System, t: float, n_max, mode: int | None):
    """P(n), the real class parts (one part, None, for one mode) and n_max.

    Automatic truncation takes the Chernoff bound's n_max (_chernoff_n_max),
    which holds the tail below _AUTO_TAIL_TARGET or stops at the cap, so the
    kernel runs once; an explicit n_max is taken as it is.
    """
    ev = evolve_terms(system, t)
    t_coef, k_coef, a, b = generating_quantities(ev, mode)
    classes, order, ends = _SUM_LAYOUT if mode is None else _MODE_LAYOUT
    rows = np.array((_paired_prefactors(ev), a[:8], b[:8]))
    n_max = (_chernoff_n_max(ev.norm, t_coef, k_coef, *rows[..., None]) if n_max is None
             else _count("n_max", n_max))
    # averaged with its adjoint's conjugate, row _ADJOINT[i] is row i's exact conjugate
    p, a, b = (0.5 * (rows + rows[:, _ADJOINT].conj())).take(order, axis=1)[..., None]
    parts = ev.norm * _real_coefficients(t_coef, k_coef, p, a, b, ends, n_max)
    probs = np.add.reduce(parts, axis=0, initial=-0.0)  # -0.0 + x is x, a zero's sign too
    tail = 1.0 - float(np.sum(probs))
    if not math.isfinite(tail):
        warnings.warn(f"photon-number distribution is not finite (tail mass {tail}): "
                      "the generating function leaves float range here",
                      TruncationWarning, stacklevel=2)
    elif tail > TAIL_TOL:
        warnings.warn(f"photon-number tail mass {tail:.3e} exceeds {TAIL_TOL:.0e}; "
                      "increase n_max", TruncationWarning, stacklevel=2)
    return probs, dict(zip(classes, parts)), n_max


def sum_pnd(system: System, t: float, n_max: int | None = None) -> Distribution:
    """Distribution of the total photon number n1 + n2.

    Also exposes the three class parts (mixture, symmetric interference,
    asymmetric interference); the parts may be negative individually, the
    total is a probability distribution.
    """
    probs, parts, n_max = _pnd(system, t, n_max, None)
    return Distribution(probs=probs, n_max=n_max, class_parts=parts)


def single_pnd(mode: int, system: System, t: float, n_max: int | None = None) -> Distribution:
    """Marginal photon-number distribution of one mode (1 = signal, 2 = idler)."""
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    probs, _, n_max = _pnd(system, t, n_max, mode)
    return Distribution(probs=probs, n_max=n_max)


def factorial_moments(
    system: System, t: float, k: int, scope: str = "compound", mode: int = 1
) -> tuple[float, float]:
    """Reduced factorial moment <W^k> and its normalized form <W^k>/<W>^k - 1.

    scope "compound" uses the photon-number sum of both modes, "single" the
    chosen mode alone.  Negative normalized values indicate sub-Poissonian
    (antibunched) light.  The normalized form is NaN when <W> = 0.
    """
    k = _count("k", k)
    if k > MAX_FACTORIAL_ORDER:
        raise ValueError(f"k must be <= {MAX_FACTORIAL_ORDER}")
    if scope not in ("compound", "single"):
        raise ValueError("scope must be 'compound' or 'single'")
    ev = evolve_terms(system, t)
    quantities = generating_quantities(ev, None if scope == "compound" else mode)
    if k == 0:
        return 1.0, 0.0
    moments = _factorial_moments(ev, quantities, k)
    wk, w1 = moments[k], moments[1]
    if k == 1:
        return wk, 0.0
    if w1 == 0.0:
        return wk, float("nan")
    return wk, wk / w1**k - 1.0


def _taylor_coefficients(t_coef: float, k_coef: float, a, b, k: int) -> list[list[complex]]:
    """[v^m] F(v), m = 0..k, of each row (a, b), F(v) = G(1 + v) = exp(-v (a - b v) / P) / P.

    P = 1 - T v + K v^2, and F solves P^2 F' = S F with S cubic, so with Q the
    coefficients of 1 - P^2:  (m+1) F_{m+1} = sum_{j=0..3} (S_j + Q_j (m-j)) F_{m-j}.
    """
    t, kc = t_coef, k_coef
    q0, q1, q2, q3 = 2.0 * t, -(t * t + 2.0 * kc), 2.0 * t * kc, -kc * kc
    s3, tk3 = 2.0 * q3, 3.0 * t * kc
    out = []
    for ar, br in zip(a, b):
        s0, s1, s2 = t - ar, 2.0 * br + q1, ar * kc - br * t + tk3
        f0, f1, f2, f3 = 1.0 + 0j, 0j, 0j, 0j  # F_m .. F_{m-3}, with F_{-j} = 0
        series = [f0]
        for m in range(k):
            nxt = ((s0 + q0 * m) * f0 + (s1 + q1 * (m - 1)) * f1
                   + (s2 + q2 * (m - 2)) * f2 + (s3 + q3 * (m - 3)) * f3)
            f0, f1, f2, f3 = nxt / (m + 1), f0, f1, f2
            series.append(f0)
        out.append(series)
    return out


def _factorial_moments(ev: EvolvedTerms, quantities, k: int) -> list[float]:
    """<W^m>, m = 0..k, of the observable whose generating_quantities of the
    record are given: m! [v^m] of the generating function at s = 1 + v."""
    t_coef, k_coef, a, b = quantities
    rows = _taylor_coefficients(t_coef, k_coef, a[:8].tolist(), b[:8].tolist(), k)
    prefactors = _paired_prefactors(ev).tolist()
    # m! last: past float range the moment is inf, not an inf - inf NaN
    return [float((ev.norm * sum(p * v for p, v in zip(prefactors, column))).real)
            * math.factorial(m) for m, column in enumerate(zip(*rows))]
