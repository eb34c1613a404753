"""Normally ordered characteristic function and low-order moments.

Each density-operator term contributes a Gaussian-times-linear exponential in
(zeta1, zeta2); the full function is the weighted 16-term sum, evaluated on
all rows of the evolved term record (coeffs.evolve_terms) at once.  Moments are
Gaussian moments of each row, summed over pairings by Isserlis' theorem, so
no numerical differentiation enters the production path.
"""

from __future__ import annotations

import numpy as np

from .coeffs import EvolvedTerms, evolve_terms
from .params import System, _count


class OrderTooHigh(ValueError):
    """Requested moment order exceeds the implemented closed-form bound."""


# the partial pairings of the differentiated variables grow like the telephone
# numbers (T(20) ~ 2.4e10), so the order cap also keeps a request from hanging
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
# With the variables w = (zeta1, -zeta1*, zeta2, -zeta2*) a row's exponent is
#     sum_i mean[i] w_i + sum_{i<j} pair[i, j] w_i w_j,
# a Gaussian times a linear exponential.  Its derivatives at w = 0 are
# Gaussian moments, so by Isserlis' (Wick's) theorem each is a sum over the
# partial pairings of the differentiated variables.


def _isserlis(variables: tuple, mean: tuple, pair: dict):
    """Sum over the partial pairings of variables (sorted ascending): a lone
    variable v contributes mean[v], a pair (u, v) contributes pair[u, v]
    (zero for pairs that are not keys)."""
    if not variables:
        return 1.0
    first, rest = variables[0], variables[1:]
    total = mean[first] * _isserlis(rest, mean, pair)
    for k, other in enumerate(rest):
        if (first, other) in pair:
            total = total + pair[first, other] * _isserlis(rest[:k] + rest[k + 1:], mean, pair)
    return total


def _moment_terms(orders, ev: EvolvedTerms) -> np.ndarray:
    """The 16 rows' contributions to one normally ordered moment."""
    c = ev.coeffs
    variables = tuple(var for var, count in enumerate(orders) for _ in range(count))
    mean = (ev.ab1, ev.abp1, ev.ab2, ev.abp2)
    pair = {(0, 1): c.B1N, (2, 3): c.B2N, (0, 2): c.D, (1, 3): c.D.conjugate()}
    return _isserlis(variables, mean, pair) * ev.prefactor


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
