"""Closed-form time-dependent coefficients of the damped amplifier solution.

The Heisenberg-Langevin solution propagates the two mode operators with three
amplitude coefficients f1, f2, f3 and accumulates Gaussian noise described by
two variances B1N, B2N and one anomalous cross-correlation D.  Everything is
evaluated in the factored form decay-envelope times cosh/sinh, which stays
stable at large gamma*t, and removable singularities (g=0 with symmetric
losses, and the gamma1*gamma2 = 4 g^2 surface) are handled explicitly.
evolve_terms combines the coefficients with the term table of rho_terms into
the record the observables read, once per (system, t).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .params import AmplifierParams, System
from .rho_terms import TermClass, enumerate_terms


class NearSingularDenominator(UserWarning):
    """Parameters lie near the gamma1*gamma2 = 4 g^2 surface; noise
    coefficients were evaluated by analytic limit / Richardson extrapolation."""


# relative distance below which gamma1*gamma2 - 4g^2 counts as singular
_CRITICAL_TOL = 1e-6
# displacement used for the Richardson average in the asymmetric case
_RICHARDSON_DELTA = 1e-6


@dataclass(frozen=True)
class EvolvedCoeffs:
    """All time-dependent scalars of the solution at one instant.

    f1, f3 are real amplitude-propagation coefficients, f2 the complex
    cross-mode one.  B1N, B2N >= 0 are the accumulated noise photon numbers,
    D the anomalous signal-idler correlation.
    """

    f1: float
    f2: complex
    f3: float
    B1N: float
    B2N: float
    D: complex


def _sinhc(x: float) -> float:
    """sinh(x)/x, by series below |x| = 1e-4 (removable singularity)."""
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    return math.sinh(x) / x


def dyn_coeffs(params: AmplifierParams, t: float) -> tuple[float, complex, float]:
    """Amplitude-propagation coefficients (f1, f2, f3) at time t >= 0."""
    if t < 0:
        raise ValueError("t must be >= 0")
    g1, g2, g = params.gamma1, params.gamma2, params.g
    eps = params.eps
    se = math.sqrt(eps)
    x = se * t / 4.0
    decay = math.exp(-(g1 + g2) * t / 4.0)
    shc = _sinhc(x)
    f1 = decay * (math.cosh(x) + (g2 - g1) * (t / 4.0) * shc)
    f3 = decay * (math.cosh(x) + (g1 - g2) * (t / 4.0) * shc)
    f2 = 1j * g * t * cmath.exp(1j * params.pump_phase) * decay * shc
    return f1, f2, f3


def _envelopes(g_sum: float, se: float, t: float) -> tuple[float, float, float, float]:
    """Auxiliary integrals (E, E1, F, G) of the noise accumulation."""
    decay = math.exp(-g_sum * t / 2.0)
    ch = math.cosh(se * t / 2.0)
    sh = math.sinh(se * t / 2.0)
    E = 1.0 - decay * ch
    E1 = decay * (ch - 1.0)
    F = decay * sh
    if g_sum > 0.0:
        G = -math.expm1(-g_sum * t / 2.0) / g_sum
    else:
        G = t / 2.0
    return E, E1, F, G


def _b1n_general(g: float, g1: float, g2: float, n1: float, n2: float, t: float) -> float:
    """Noise variance of mode 1, general asymmetric-loss form (needs eps > 0
    and gamma1*gamma2 != 4 g^2)."""
    eps = (g1 - g2) ** 2 + 16.0 * g * g
    se = math.sqrt(eps)
    gs = g1 + g2
    E, E1, F, G = _envelopes(gs, se, t)
    den = g1 * g2 - 4.0 * g * g
    out = 8.0 * g * g * E1
    out += (g1 * n1 / den) * ((g2 * eps - 4.0 * g * g * gs) * E
                              - se * (g2 * (g2 - g1) + 4.0 * g * g) * F)
    out += (4.0 * g2 * g * g * (1.0 + n2) / den) * (gs * E - se * F)
    out -= 16.0 * g * g * G * (g2 * (1.0 + n2) - g1 * n1)
    return out / eps


def _d_general(g: float, phi: float, g1: float, g2: float,
               n1: float, n2: float, t: float) -> complex:
    """Anomalous correlation D, general asymmetric-loss form."""
    eps = (g1 - g2) ** 2 + 16.0 * g * g
    se = math.sqrt(eps)
    gs = g1 + g2
    E, E1, F, G = _envelopes(gs, se, t)
    den = g1 * g2 - 4.0 * g * g
    bracket = (g2 - g1) * E1 - se * F
    bracket += (g1 * n1 / den) * ((g1 * g2 - g2 * g2 - 8.0 * g * g) * E + g2 * se * F)
    bracket += (g2 * (1.0 + n2) / den) * ((g1 * g2 - g1 * g1 - 8.0 * g * g) * E + g1 * se * F)
    bracket += 2.0 * G * (g1 * n1 * (g2 - g1) + g2 * (1.0 + n2) * (g1 - g2))
    # the factor i makes D equal the anomalous moment <A1+ A2+> of the noise;
    # verified against the Fock-space reference on damped vacuum input
    return 1j * (2.0 * g * cmath.exp(-1j * phi) / eps) * bracket


def _noise_symmetric(g: float, phi: float, gamma: float, n1: float, n2: float,
                     t: float) -> tuple[float, float, complex]:
    """Symmetric-loss noise coefficients, valid through the critical point
    gamma = 2g (analytic limit) and at g = 0."""
    eps = 16.0 * g * g
    se = 4.0 * g
    gs = 2.0 * gamma
    E, E1, F, G = _envelopes(gs, se, t)
    den = gamma * gamma - 4.0 * g * g
    crit = abs(den) < _CRITICAL_TOL * (gamma * gamma + 4.0 * g * g)
    if crit:
        # L'Hopital limits of (gamma*E - 2g*F)/den and (gamma*F - 2g*E)/den
        ex = -math.expm1(-4.0 * g * t)  # 1 - e^{-4gt}
        phi_fn = ex / (8.0 * g) + t / 2.0
        psi_fn = ex / (8.0 * g) - t / 2.0
        warnings.warn(
            "gamma1*gamma2 near 4g^2: symmetric-critical analytic limit used",
            NearSingularDenominator,
            stacklevel=3,
        )
    else:
        phi_fn = (gamma * E - 2.0 * g * F) / den
        psi_fn = (gamma * F - 2.0 * g * E) / den
    b1 = 0.5 * E1 + 0.5 * gamma * (1.0 + n1 + n2) * phi_fn - gamma * G * (1.0 + n2 - n1)
    b2 = 0.5 * E1 + 0.5 * gamma * (1.0 + n1 + n2) * phi_fn - gamma * G * (1.0 + n1 - n2)
    d = 1j * 0.5 * cmath.exp(-1j * phi) * (gamma * (1.0 + n1 + n2) * psi_fn - F)
    return b1, b2, d


def noise_coeffs(params: AmplifierParams, t: float) -> tuple[float, float, complex]:
    """Noise variances and anomalous correlation (B1N, B2N, D) at time t >= 0."""
    if t < 0:
        raise ValueError("t must be >= 0")
    g, phi = params.g, params.pump_phase
    g1, g2 = params.gamma1, params.gamma2
    n1, n2 = params.nbar1, params.nbar2
    if g == 0.0 and g1 == 0.0 and g2 == 0.0:
        return 0.0, 0.0, 0j
    if g1 == g2:
        return _noise_symmetric(g, phi, g1, n1, n2, t)
    den = g1 * g2 - 4.0 * g * g
    if abs(den) < _CRITICAL_TOL * (g1 * g2 + 4.0 * g * g):
        warnings.warn(
            "gamma1*gamma2 near 4g^2: Richardson extrapolation used",
            NearSingularDenominator,
            stacklevel=2,
        )
        d = _RICHARDSON_DELTA
        b1 = 0.5 * (_b1n_general(g, g1 * (1 + d), g2 * (1 + d), n1, n2, t)
                    + _b1n_general(g, g1 * (1 - d), g2 * (1 - d), n1, n2, t))
        b2 = 0.5 * (_b1n_general(g, g2 * (1 + d), g1 * (1 + d), n2, n1, t)
                    + _b1n_general(g, g2 * (1 - d), g1 * (1 - d), n2, n1, t))
        dval = 0.5 * (_d_general(g, phi, g1 * (1 + d), g2 * (1 + d), n1, n2, t)
                      + _d_general(g, phi, g1 * (1 - d), g2 * (1 - d), n1, n2, t))
        return b1, b2, dval
    return (
        _b1n_general(g, g1, g2, n1, n2, t),
        _b1n_general(g, g2, g1, n2, n1, t),
        _d_general(g, phi, g1, g2, n1, n2, t),
    )


def coeffs_at(params: AmplifierParams, t: float) -> EvolvedCoeffs:
    """Assemble the full coefficient record for one time; every observable
    evaluates through here, so a non-finite t is refused for all of them."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    f1, f2, f3 = dyn_coeffs(params, t)
    b1, b2, d = noise_coeffs(params, t)
    return EvolvedCoeffs(f1=f1, f2=f2, f3=f3, B1N=b1, B2N=b2, D=d)


@dataclass(frozen=True)
class EvolvedTerms:
    """The term table of one system carried to one instant.

    The observables read this record: the coefficients, the global factor
    N1^2*N2^2, the row prefactors and classes, and the drift amplitudes of
    the 16 rows ((16,) arrays).  The unprimed pair ab1, ab2 multiplies zeta_j
    in the characteristic-function exponent and descends from the bra
    amplitudes; the primed pair abp1, abp2 multiplies -zeta_j* and descends
    from the ket amplitudes.
    """

    coeffs: EvolvedCoeffs
    norm: float
    prefactor: np.ndarray
    kind: tuple[TermClass, ...]
    ab1: np.ndarray
    ab2: np.ndarray
    abp1: np.ndarray
    abp2: np.ndarray

    def mode(self, mode: int) -> tuple[float, np.ndarray, np.ndarray]:
        """Noise variance B_jN and drift amplitudes (abar_j, abar_j') of mode j."""
        if mode == 1:
            return self.coeffs.B1N, self.ab1, self.abp1
        if mode == 2:
            return self.coeffs.B2N, self.ab2, self.abp2
        raise ValueError("mode must be 1 or 2")


def evolve_terms(system: System, t: float) -> EvolvedTerms:
    """The system's term table and the coefficients at t, combined once."""
    table, norm = enumerate_terms(system.cat1, system.cat2)
    c = coeffs_at(system.params, t)
    f2c = c.f2.conjugate()
    a1_bra_c, a2_bra_c = table.a1_bra.conj(), table.a2_bra.conj()
    return EvolvedTerms(
        coeffs=c, norm=norm, prefactor=table.prefactor, kind=table.kind,
        ab1=a1_bra_c * c.f1 + table.a2_ket * f2c,
        ab2=table.a1_ket * f2c + a2_bra_c * c.f3,
        abp1=table.a1_ket * c.f1 + a2_bra_c * c.f2,
        abp2=a1_bra_c * c.f2 + table.a2_ket * c.f3,
    )
