"""Closed-form time-dependent coefficients of the damped amplifier solution.

The Heisenberg-Langevin solution propagates the two mode operators with three
amplitude coefficients f1, f2, f3 and accumulates Gaussian noise described by
two variances B1N, B2N and one anomalous cross-correlation D.  Both come from
one drift matrix, split over its two eigenprojectors: the amplitudes are its
exponential, decay envelope times cosh/sinh, and the noise one integral of
that exponential, which has no denominator that vanishes on the
gamma1*gamma2 = 4 g^2 surface.  evolve_terms combines the coefficients with
the term table of rho_terms into the record the observables read, once per
(system, t).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import AmplifierParams, System
from .rho_terms import TermClass, enumerate_terms


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


def _phi(x: float, t: float) -> float:
    """Integral of e^{x s} over 0 <= s <= t."""
    xt = x * t
    return t * math.expm1(xt) / xt if xt else t


def coeffs_at(params: AmplifierParams, t: float) -> EvolvedCoeffs:
    """All coefficients at time t >= 0, from the drift of (a1, a2+).

    The drift is M = -sigma*I + H with H = [[delta, kappa], [kappa*, -delta]]
    and H^2 = omega^2*I.  The amplitudes f1, f2, f3 are the entries (1,1),
    (1,2) and (2,2) of e^{Mt} = e^{-sigma t}[cosh(omega t) I
    + t sinh(omega t)/(omega t) H].  The noise record is
    X = int_0^t e^{Ms} Q e^{M+s} ds with Q = [[gamma1*nbar1, kappa],
    [kappa*, gamma2*nbar2]].  Splitting e^{Ms} over the projectors (I +- R)/2,
    R = H/omega, gives X = [(P++ + P-- + 2P+-) Q + (P++ - P--) (QR + RQ)
    + (P++ + P-- - 2P+-) RQR] / 4, with P the integrals of the three exponents
    e^{2(omega - sigma)s}, e^{-2(omega + sigma)s} and e^{-2 sigma s}.  No
    denominator vanishes on the critical surface gamma1*gamma2 = 4g^2.
    B1N = X11, B2N = X22 and D = conj(X12).  Every observable evaluates through
    here, so all refuse a t that is not finite and >= 0 or overflows a coefficient.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    try:
        c = _coeffs(params, t)
        if all(map(cmath.isfinite, (c.f1, c.f2, c.f3, c.B1N, c.B2N, c.D))):
            return c
    except OverflowError:
        pass
    raise ValueError(f"t = {t} puts a coefficient beyond float range for this amplifier")


def _coeffs(params: AmplifierParams, t: float) -> EvolvedCoeffs:
    g, g1, g2 = params.g, params.gamma1, params.gamma2
    q1, q2 = g1 * params.nbar1, g2 * params.nbar2
    phasor = cmath.exp(1j * params.pump_phase)
    kappa = 1j * g * phasor
    sigma = (g1 + g2) / 4.0
    omega = math.sqrt(params.eps) / 4.0

    x = omega * t
    if x > 700.0 or (x and sigma * t > 700.0):
        # cosh x overflows from x = 710.48, and e^{-sigma t} underflows from
        # sigma t = 745, while e^{-sigma t} cosh x need not: fold the decay into
        # e^{(omega - sigma)t}, times (1 + e^{-2x})/2 and (1 - e^{-2x})/(2x)
        grow, fold = math.exp((omega - sigma) * t), math.exp(-2.0 * x)
        decay, cosh, shc = 1.0, 0.5 * grow * (1.0 + fold), grow * -math.expm1(-2.0 * x) / (2.0 * x)
    else:
        decay, cosh = math.exp(-sigma * t), math.cosh(x)
        shc = math.sinh(x) / x if x else 1.0  # x = 0 is the removable singularity
    f1 = decay * (cosh + (g2 - g1) * (t / 4.0) * shc)
    f3 = decay * (cosh + (g1 - g2) * (t / 4.0) * shc)
    f2 = 1j * g * t * phasor * decay * shc

    # R = H/omega = [[r, k], [k*, -r]] with |k| = u = g/omega; R = 0 where H = 0
    # (g = 0 and gamma1 = gamma2)
    r, k, u = ((g2 - g1) / 4.0 / omega, kappa / omega, g / omega) if omega else (0.0, 0j, 0.0)
    gu = g * u  # kappa k* = g^2/omega
    pp = _phi(2.0 * (omega - sigma), t)
    mm = _phi(-2.0 * (omega + sigma), t)
    pm = _phi(-2.0 * sigma, t)
    s, d, c = pp + mm + 2.0 * pm, pp - mm, pp + mm - 2.0 * pm

    def diag(r: float, q: float, q_other: float) -> float:
        # (QR + RQ)_jj = 2(rq + gu), (RQR)_jj = r^2 q + 2r gu + u^2 q_other; the
        # same expression for both modes keeps the mode swap exact
        return 0.25 * (s * q + d * 2.0 * (r * q + gu)
                       + c * (r * (r * q + 2.0 * gu) + u * u * q_other))

    # (QR + RQ)_12 = k(q1 + q2), (RQR)_12 = r k (q1 - q2) + kappa (u^2 - r^2)
    x12 = 0.25 * (s * kappa + d * k * (q1 + q2)
                  + c * (r * k * (q1 - q2) + kappa * (u * u - r * r)))
    return EvolvedCoeffs(f1=f1, f2=f2, f3=f3, B1N=diag(r, q1, q2), B2N=diag(-r, q2, q1),
                         D=x12.conjugate())


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


@functools.lru_cache(maxsize=1)
def _evolve(system: System, t: float) -> EvolvedTerms:
    """The system's term table and the coefficients at t, combined; the
    record's arrays are read-only, since the cache hands it out again."""
    table, norm = enumerate_terms(system.cat1, system.cat2)
    c = coeffs_at(system.params, t)
    f2c = c.f2.conjugate()
    a1_bra_c, a2_bra_c = table.a1_bra.conj(), table.a2_bra.conj()
    ev = EvolvedTerms(
        coeffs=c, norm=norm, prefactor=table.prefactor, kind=table.kind,
        ab1=a1_bra_c * c.f1 + table.a2_ket * f2c,
        ab2=table.a1_ket * f2c + a2_bra_c * c.f3,
        abp1=table.a1_ket * c.f1 + a2_bra_c * c.f2,
        abp2=a1_bra_c * c.f2 + table.a2_ket * c.f3,
    )
    for arr in (ev.prefactor, ev.ab1, ev.ab2, ev.abp1, ev.abp2):
        arr.flags.writeable = False
    return ev


def evolve_terms(system: System, t: float) -> EvolvedTerms:
    """The system's term table and the coefficients at t, combined once.

    The last record is returned again while an equal (system, t) comes back,
    as it does when one observable calls another at one point.  Equal keys
    build identical bits: a System stores a zero as +0.0, and so does t here.
    """
    return _evolve(system, float(t + 0.0))
