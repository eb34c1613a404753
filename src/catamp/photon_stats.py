"""Photon-number distributions and reduced factorial moments.

Every term (row) of the state has a closed-form photon-number generating
function, built from two effective "thermal + coherent" channels with thermal
weights lambda_+/- and coherent weights A_+/- (generating_quantities):

    G_i(s) = prod_+/- exp(A_i u / (1 + lambda u)) / (1 + lambda u),  u = 1 - s,

and P(n) = N1^2 N2^2 Re sum_i p_i [s^n] G_i(s).  One mode alone has a single
channel, lambda = B_jN and A = -abar_j abar_j'.  The distributions read every
coefficient n <= n_max at once from samples of G on the roots of unity, one
inverse FFT per class.  The factorial moments <W^k>, the k-th derivatives of
G at s = 1, are products of Laguerre ladders lambda^m L_m(A / lambda) in the
standard convention (L_0 = 1, L_1 = 1 - x), whose factorials are folded into
the series so that distributions are normalized and match the Fock-space
reference.

Each distribution and factorial moment evolves the term table once
(coeffs.evolve_terms) and reads that record.  Row 15 - i is row i with every
amplitude negated: same class, bit-identical quadratic quantities (A_+/-,
single-mode c1).  So only rows 0..7 are evaluated, each weighted by the
paired prefactor of rows i and 15 - i.
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


def _real_coefficients(lams, rows, n_max: int) -> dict:
    """Re [s^n] of each class's generating function, n = 0..n_max.

    A row (kind, p, A) stands for p * prod_j exp(A_j w_j) / (1 + lam_j u) with
    u = 1 - s and w_j = u / (1 + lam_j u), one factor per thermal channel j.
    Each row enters as (p G + conj(p) Gbar) / 2, Gbar carrying the conjugated
    A_j, whose coefficients are the real parts of p G's.  A class's samples on
    s = e^{-2 pi i k / N} are then Hermitian in k, so the half circle
    k = 0..N/2 holds them all and one irfft returns the coefficients.  With
    N = 2 (n_max + 1) the aliased terms P(n + N), ... lie beyond twice the
    truncation, far below the tail target.
    """
    size = 2 * (n_max + 1)
    u = -np.expm1(np.arange(size // 2 + 1) * (-2j * math.pi / size))  # accurate near s = 1
    ws, base = [], 0.5  # the 1/2 of the symmetrized rows
    for lam in lams:
        den = 1.0 + lam * u
        ws.append(u / den)
        base = base / den
    sums = {}
    for kind, pref, amps in rows:
        acc = sums.setdefault(kind, np.zeros_like(u))
        for p, a in ((pref, amps), (pref.conjugate(), [x.conjugate() for x in amps])):
            z = sum(aj * w for aj, w in zip(a, ws))
            acc += p * np.exp(z, out=z)
    return {kind: np.fft.irfft(acc * base, size)[: n_max + 1] for kind, acc in sums.items()}


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
    rows = list(zip(ev.kind[:8], _paired_prefactors(ev), zip(a_plus[:8].tolist(),
                                                            a_minus[:8].tolist())))

    def compute(nm):
        coeffs = _real_coefficients((lam_p, lam_m), rows, nm)
        parts = {kind: ev.norm * coeffs[kind] for kind in TermClass}
        return sum(parts.values()), parts

    probs, real_parts, n_max = _with_auto_tail(n_max, lambda: _auto_n_max(ev, None), compute)
    return Distribution(probs=probs, n_max=n_max, class_parts=real_parts)


def single_pnd(mode: int, system: System, t: float, n_max: int | None = None) -> Distribution:
    """Marginal photon-number distribution of one mode (1 = signal, 2 = idler)."""
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    ev = evolve_terms(system, t)
    b, abar, abarp = ev.mode(mode)
    rows = [(None, pref, (-c1,)) for pref, c1 in zip(_paired_prefactors(ev),
                                                      (abar[:8] * abarp[:8]).tolist())]

    def compute(nm):
        return ev.norm * _real_coefficients((b,), rows, nm)[None], None

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


def _ladders(lam: float, amps: np.ndarray, k: int) -> np.ndarray:
    """lam^m L_m(A / lam) for m = 0..k, one row per A in amps: the coefficients of
    exp(-A v / (1 - lam v)) / (1 - lam v) in v, by the plain Laguerre recurrence."""
    out = np.empty((len(amps), k + 1), dtype=complex)
    out[:, 0] = 1.0
    if k:
        out[:, 1] = lam - amps
    for m in range(1, k):
        out[:, m + 1] = ((lam * (2 * m + 1) - amps) * out[:, m]
                         - m * lam * lam * out[:, m - 1]) / (m + 1)
    return out


def _factorial_moment(ev: EvolvedTerms, k: int, mode: int | None) -> float:
    """<W^k> of the sum n1 + n2 (mode None) or of one mode, from the record:
    k! [v^k] of the generating function at s = 1 + v."""
    if mode is None:
        lam_p, lam_m, a_plus, a_minus = generating_quantities(ev)
        vals = np.sum(_ladders(lam_p, a_plus[:8], k) * _ladders(lam_m, a_minus[:8], k)[:, ::-1],
                      axis=1)
    else:
        b, abar, abarp = ev.mode(mode)
        vals = _ladders(b, -abar[:8] * abarp[:8], k)[:, k]
    total = np.dot(_paired_prefactors(ev), vals)
    # k! last: past float range the moment is inf, not an inf - inf NaN
    return float((ev.norm * total).real) * math.factorial(k)
