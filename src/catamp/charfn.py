"""Normally ordered characteristic function and low-order moments.

Each density-operator term contributes a Gaussian-times-linear exponential in
(zeta1, zeta2); the full function is the weighted 16-term sum, evaluated on
all rows of the evolved term record (coeffs.evolve_terms) at once.  Moments are
obtained by exact polynomial differentiation of the quadratic exponent, so no
numerical differentiation enters the production path.
"""

from __future__ import annotations

import numpy as np

from .coeffs import EvolvedTerms, evolve_terms
from .params import System, _count


class OrderTooHigh(ValueError):
    """Requested moment order exceeds the implemented closed-form bound."""


MAX_MOMENT_ORDER = 4


def _char_terms(ev: EvolvedTerms, zeta1: complex, zeta2: complex) -> np.ndarray:
    """The 16 rows' contributions to the two-mode characteristic function."""
    c = ev.coeffs
    z1c = complex(zeta1).conjugate()
    z2c = complex(zeta2).conjugate()
    expo = (
        zeta1 * zeta2 * c.D
        + z1c * z2c * c.D.conjugate()
        - (zeta1 * z1c).real * c.B1N
        - (zeta2 * z2c).real * c.B2N
        + zeta1 * ev.ab1
        - z1c * ev.abp1
        + zeta2 * ev.ab2
        - z2c * ev.abp2
    )
    return ev.prefactor * np.exp(expo)


def char_full(system: System, t: float, zeta1: complex, zeta2: complex) -> complex:
    """Characteristic function of the full state (16-term weighted sum)."""
    ev = evolve_terms(system, t)
    return ev.norm * sum(_char_terms(ev, zeta1, zeta2).tolist())


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
    out: dict[tuple, np.ndarray] = {}

    def add(mono, coef):
        out[mono] = out[mono] + coef if mono in out else coef

    for mono, coef in poly.items():
        c = sign * coef
        if mono[var] > 0:
            lower = list(mono)
            lower[var] -= 1
            add(tuple(lower), c * mono[var])
        add(mono, c * lin[var])
        for partner, key in _QUAD_PARTNERS[var]:
            raised = list(mono)
            raised[partner] += 1
            add(tuple(raised), c * quad[key])
    return out


def _moment_terms(orders, ev: EvolvedTerms) -> np.ndarray:
    """The 16 rows' contributions to one normally ordered moment."""
    m1, n1, m2, n2 = orders
    c = ev.coeffs
    lin = (ev.ab1, -ev.abp1, ev.ab2, -ev.abp2)
    quad = {"mB1": -c.B1N, "mB2": -c.B2N, "D": c.D, "Dc": c.D.conjugate()}
    poly = {(0, 0, 0, 0): np.ones(16, dtype=complex)}
    for var, count, sign in ((0, m1, 1), (1, n1, -1), (2, m2, 1), (3, n2, -1)):
        for _ in range(count):
            poly = _derive(poly, var, lin, quad, sign)
    return poly[(0, 0, 0, 0)] * ev.prefactor


def moment(m1: int, n1: int, m2: int, n2: int, system: System, t: float) -> complex:
    """Normally ordered moment <A1+^m1 A1^n1 A2+^m2 A2^n2> at time t.

    Implemented in closed form up to total order MAX_MOMENT_ORDER; higher
    orders of the photon-number sum are available through the reduced
    factorial moments.
    """
    orders = tuple(map(_count, ("m1", "n1", "m2", "n2"), (m1, n1, m2, n2)))
    if sum(orders) > MAX_MOMENT_ORDER:
        raise OrderTooHigh(
            f"total order {sum(orders)} exceeds the closed-form bound {MAX_MOMENT_ORDER}"
        )
    ev = evolve_terms(system, t)
    # a Python sum adds the rows in canonical order; np.sum would regroup them
    return ev.norm * sum(_moment_terms(orders, ev).tolist())
