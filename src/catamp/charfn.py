"""Normally ordered characteristic function and low-order moments.

Each density-operator term contributes a Gaussian-times-linear exponential in
(zeta1, zeta2); the full function is the weighted 16-term sum.  Moments are
obtained by exact polynomial differentiation of the quadratic exponent, so no
numerical differentiation enters the production path.
"""

from __future__ import annotations

import cmath

from .coeffs import EvolvedCoeffs, coeffs_at, evolved_amplitudes
from .params import System
from .rho_terms import DensityTerm, enumerate_terms


class OrderTooHigh(ValueError):
    """Requested moment order exceeds the implemented closed-form bound."""


MAX_MOMENT_ORDER = 4


def char_term(
    term: DensityTerm, coeffs: EvolvedCoeffs, zeta1: complex, zeta2: complex
) -> complex:
    """One term's contribution to the two-mode characteristic function."""
    ab1, ab2, abp1, abp2 = evolved_amplitudes(term, coeffs)
    z1c = complex(zeta1).conjugate()
    z2c = complex(zeta2).conjugate()
    expo = (
        zeta1 * zeta2 * coeffs.D
        + z1c * z2c * coeffs.D.conjugate()
        - (zeta1 * z1c).real * coeffs.B1N
        - (zeta2 * z2c).real * coeffs.B2N
        + zeta1 * ab1
        - z1c * abp1
        + zeta2 * ab2
        - z2c * abp2
    )
    return term.prefactor() * cmath.exp(expo)


def single_mode_char(term: DensityTerm, coeffs: EvolvedCoeffs, zeta1: complex) -> complex:
    """Signal-mode characteristic function: the zeta2 = 0 slice."""
    return char_term(term, coeffs, zeta1, 0j)


def char_full(system: System, t: float, zeta1: complex, zeta2: complex) -> complex:
    """Characteristic function of the full state (16-term weighted sum)."""
    terms, norm = enumerate_terms(system.cat1, system.cat2)
    coeffs = coeffs_at(system.params, t)
    return norm * sum(char_term(term, coeffs, zeta1, zeta2) for term in terms)


# --- moment extraction ------------------------------------------------------
#
# Variables are indexed 0..3 = (zeta1, zeta1*, zeta2, zeta2*).  The per-term
# exponent Q is quadratic, so repeated application of
#     d/dv (P * e^Q) = (dP/dv + P * dQ/dv) * e^Q
# keeps P polynomial; evaluating at zeta = 0 picks out P's constant term.

_QUAD_PARTNERS = {
    0: ((1, "mB1"), (2, "D")),
    1: ((0, "mB1"), (3, "Dc")),
    2: ((3, "mB2"), (0, "D")),
    3: ((2, "mB2"), (1, "Dc")),
}


def _derive(poly, var, lin, quad, sign):
    out: dict[tuple, complex] = {}

    def add(mono, coef):
        if coef != 0:
            out[mono] = out.get(mono, 0j) + coef

    for mono, coef in poly.items():
        c = sign * coef
        if mono[var] > 0:
            lower = list(mono)
            lower[var] -= 1
            add(tuple(lower), c * mono[var])
        if lin[var] != 0:
            add(mono, c * lin[var])
        for partner, key in _QUAD_PARTNERS[var]:
            q = quad[key]
            if q != 0:
                raised = list(mono)
                raised[partner] += 1
                add(tuple(raised), c * q)
    return out


def _moment_term(orders, term: DensityTerm, coeffs: EvolvedCoeffs) -> complex:
    m1, n1, m2, n2 = orders
    ab1, ab2, abp1, abp2 = evolved_amplitudes(term, coeffs)
    lin = (ab1, -abp1, ab2, -abp2)
    quad = {
        "mB1": -coeffs.B1N,
        "mB2": -coeffs.B2N,
        "D": coeffs.D,
        "Dc": coeffs.D.conjugate(),
    }
    poly = {(0, 0, 0, 0): 1 + 0j}
    for var, count, sign in ((0, m1, 1), (1, n1, -1), (2, m2, 1), (3, n2, -1)):
        for _ in range(count):
            poly = _derive(poly, var, lin, quad, sign)
    return poly.get((0, 0, 0, 0), 0j) * term.prefactor()


def moment(m1: int, n1: int, m2: int, n2: int, system: System, t: float) -> complex:
    """Normally ordered moment <A1+^m1 A1^n1 A2+^m2 A2^n2> at time t.

    Implemented in closed form up to total order MAX_MOMENT_ORDER; higher
    orders of the photon-number sum are available through the reduced
    factorial moments.
    """
    orders = (m1, n1, m2, n2)
    if any(o < 0 or o != int(o) for o in orders):
        raise ValueError("moment orders must be nonnegative integers")
    if sum(orders) > MAX_MOMENT_ORDER:
        raise OrderTooHigh(
            f"total order {sum(orders)} exceeds the closed-form bound {MAX_MOMENT_ORDER}"
        )
    terms, norm = enumerate_terms(system.cat1, system.cat2)
    coeffs = coeffs_at(system.params, t)
    return norm * sum(_moment_term(orders, term, coeffs) for term in terms)
