"""Quadrature squeezing factors for single and compound modes.

Factors are normalized so that vacuum gives S = Q = 0 and negative values
mean fluctuations below the vacuum level: for an operator C with
c = [C, C+] and quadratures X = (C + C+)/2, Y = (C - C+)/(2i) the factors
are the variances divided by c, minus 1/4.  One mode is C = A_j (c = 1), the
compound mode C = A1 + A2 (c = 2).  With this scale the compound Y factor of a
real-amplitude, zero-pump-phase configuration decomposes exactly into the
mean of the two single-mode factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .charfn import moment
from .coeffs import coeffs_at
from .params import AmplifierParams, CatSpec, System, _finite


class DomainError(ValueError):
    """Requested bound is undefined at this parameter point."""


@dataclass(frozen=True)
class SqueezeFactors:
    """X- and Y-quadrature squeezing factors (0 for vacuum, < 0 squeezed)."""

    S: float
    Q: float


def _factors(mean: complex, sq: complex, n: float, c: float) -> SqueezeFactors:
    """Factors of an operator C from <C>, <C^2>, <C+ C> and c = [C, C+]:
    each quadrature variance of C divided by c, minus 1/4."""
    vx = 0.25 * (c + 2.0 * n + 2.0 * sq.real) - mean.real**2
    vy = 0.25 * (c + 2.0 * n - 2.0 * sq.real) - mean.imag**2
    return SqueezeFactors(S=vx / c - 0.25, Q=vy / c - 0.25)


def single_mode_squeezing(mode: int, system: System, t: float) -> SqueezeFactors:
    """Squeezing factors of one mode (1 = signal, 2 = idler)."""
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    a, sq, n = (moment(*((m, k, 0, 0) if mode == 1 else (0, 0, m, k)), system, t)
                for m, k in ((0, 1), (0, 2), (1, 1)))
    return _factors(a, sq, n.real, 1.0)


def two_mode_squeezing(system: System, t: float) -> SqueezeFactors:
    """Squeezing factors of the compound mode C = A1 + A2 ([C, C+] = 2)."""
    a1 = moment(0, 1, 0, 0, system, t)
    a2 = moment(0, 0, 0, 1, system, t)
    sq1 = moment(0, 2, 0, 0, system, t)
    sq2 = moment(0, 0, 0, 2, system, t)
    n1 = moment(1, 1, 0, 0, system, t)
    n2 = moment(0, 0, 1, 1, system, t)
    a1a2 = moment(0, 1, 0, 1, system, t)
    a1d_a2 = moment(1, 0, 0, 1, system, t)
    return _factors(a1 + a2, sq1 + sq2 + 2.0 * a1a2,
                    n1.real + n2.real + 2.0 * a1d_a2.real, 2.0)


# --- specialized closed forms for real-amplitude configurations -------------


def _f_even(x: float) -> float:
    """Y-noise reduction x*(tanh x - 1) of an even cat; in (-0.279, 0] for x > 0."""
    return x * (math.tanh(x) - 1.0)


def _f_odd(x: float) -> float:
    """Y-noise excess x*(coth x - 1) of an odd cat; in (0, 1) and -> 1 as x -> 0."""
    if x == 0.0:
        raise DomainError("odd-cat noise function is singular at zero amplitude")
    return x * (2.0 / math.expm1(2.0 * x))


def _squares(alpha1: float, alpha2: float) -> tuple[float, float]:
    """The squared amplitudes; ValueError naming an amplitude that is not finite."""
    return _finite("alpha1", alpha1) ** 2, _finite("alpha2", alpha2) ** 2


def _q_factor(params: AmplifierParams, t: float, signal: float, idler: float) -> float:
    """Signal Y factor (B1N + f1^2 * signal + |f2|^2 * idler) / 2 from the signal
    cat's noise function and the idler's term."""
    c = coeffs_at(params, t)
    return 0.5 * (c.B1N + c.f1**2 * signal + abs(c.f2) ** 2 * idler)


def q_factor_even_even(alpha1: float, alpha2: float, params: AmplifierParams, t: float) -> float:
    """Signal Y factor for (even, even) input with real amplitudes."""
    x1, x2 = _squares(alpha1, alpha2)
    return _q_factor(params, t, _f_even(x1),
                     x2 * (math.tanh(x2) + math.cos(2.0 * params.pump_phase)))


def q_factor_odd_even(alpha1: float, alpha2: float, params: AmplifierParams, t: float) -> float:
    """Signal Y factor for (odd, even) input with real amplitudes."""
    x1, x2 = _squares(alpha1, alpha2)
    return _q_factor(params, t, _f_odd(x1),
                     x2 * (math.tanh(x2) + math.cos(2.0 * params.pump_phase)))


def q_factor_even_yurke(alpha1: float, alpha2: float, params: AmplifierParams, t: float) -> float:
    """Signal Y factor for (even, Yurke-Stoler) input with real amplitudes."""
    x1, x2 = _squares(alpha1, alpha2)
    phi = params.pump_phase
    idler = 1.0 + math.cos(2.0 * phi) - 2.0 * math.exp(-4.0 * x2) * math.sin(phi) ** 2
    return _q_factor(params, t, _f_even(x1), x2 * idler)


# --- squeezing-survival bounds ----------------------------------------------


def _cat_noise_fn(cat: CatSpec) -> float:
    """The per-cat noise function entering the undamped survival bounds."""
    if cat.rel_phase == 0.0:
        return _f_even(cat.amp_mag**2)
    if cat.rel_phase == math.pi:
        return _f_odd(cat.amp_mag**2)
    raise ValueError("survival bound is defined for even/odd cats only")


def squeeze_survival_time(cat1: CatSpec, cat2: CatSpec, g: float) -> float | None:
    """Time up to which the signal's initial Y squeezing survives (undamped,
    pump phase pi/2).  Returns None when there is no initial squeezing to
    survive (the bound would be imaginary)."""
    g = _finite("g", g)
    if g <= 0.0:
        raise ValueError("g must be > 0")
    f1 = _cat_noise_fn(cat1)
    f2 = _cat_noise_fn(cat2)
    if f1 == 0.0:
        return 0.0
    radicand = -f1 / (1.0 + f1 + f2)
    if radicand < 0.0:
        return None
    return math.asinh(math.sqrt(radicand)) / g


def two_mode_squeeze_time_bound(alpha1: float, alpha2: float) -> float | None:
    """Scaled-time bound g*t below which the compound Y quadrature of an
    (even, odd) real-amplitude, zero-pump-phase input stays squeezed.

    Returns None when the configuration is never squeezed; the odd cat at
    zero amplitude is rejected.
    """
    x1, x2 = _squares(alpha1, alpha2)
    noise = _f_even(x1) + _f_odd(x2)
    if noise > 0.0:
        return None
    return math.asinh(math.sqrt(-noise / (2.0 * (1.0 + x1 + x2 + noise))))
