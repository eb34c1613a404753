"""Expansion of the initial two-mode cat x cat density operator.

The product of two two-component superpositions expands into 16 elementary
operators |k1>|k2><b2|<b1| with ket/bra amplitudes +-alpha_j and a pure phase
weight, held as the rows of one term table.  Terms split into three classes:
diagonal (statistical mixture), both modes off-diagonal (symmetric
interference), one mode off-diagonal (asymmetric interference).  The global
factor N1^2*N2^2 is returned separately.

The total parity maps each term to its all-signs-flipped partner, which has
the conjugate weight, and the amplifier and thermal losses conserve it; so in
photon-number distributions the symmetric class carries cos(phi1 +- phi2) and
the asymmetric class cos(phi2) (idler off-diagonal) or cos(phi1) (signal
off-diagonal), phi1 and phi2 being the cats' relative phases.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import CatSpec, normalization


class TermClass(Enum):
    MIXTURE = "M"
    SYM_INTERFERENCE = "SI"
    ASYM_INTERFERENCE = "AI"


# canonical row order: bits 3..0 of the row index are the signs of the mode-1
# ket, mode-1 bra, mode-2 ket and mode-2 bra amplitudes (0 is +, 1 is -), so
# row 15 - i is row i with every sign flipped, its parity partner
_NEG1K, _NEG1B, _NEG2K, _NEG2B = ((np.arange(16) >> bit) & 1 for bit in (3, 2, 1, 0))
_OFF1, _OFF2 = _NEG1K != _NEG1B, _NEG2K != _NEG2B
_KINDS = tuple(
    TermClass.SYM_INTERFERENCE if off1 and off2
    else TermClass.ASYM_INTERFERENCE if off1 or off2
    else TermClass.MIXTURE
    for off1, off2 in zip(_OFF1, _OFF2)
)
# the adjoint swaps each mode's ket and bra signs: by parity, paired row i to row _ADJOINT[i]
_SWAPPED = _NEG1B << 3 | _NEG1K << 2 | _NEG2B << 1 | _NEG2K
_ADJOINT = np.minimum(_SWAPPED, 15 - _SWAPPED)[:8]


@dataclass(frozen=True)
class TermTable:
    """The 16 elements |a1_ket>|a2_ket><a2_bra|<a1_bra| * weight as rows.

    Every field but kind is a (16,) complex array in canonical order.  The
    prefactor of a row is its weight times the coherent overlaps <bra|ket> of
    both modes, i.e. its trace; the 16 prefactors weighted by N1^2*N2^2 sum
    to exactly 1.
    """

    a1_ket: np.ndarray
    a1_bra: np.ndarray
    a2_ket: np.ndarray
    a2_bra: np.ndarray
    weight: np.ndarray
    prefactor: np.ndarray
    kind: tuple[TermClass, ...] = _KINDS


def coherent_overlap(bra: complex, ket: complex) -> complex:
    """<bra|ket> for two coherent states."""
    return cmath.exp(
        bra.conjugate() * ket - 0.5 * abs(bra) ** 2 - 0.5 * abs(ket) ** 2
    )


def enumerate_terms(cat1: CatSpec, cat2: CatSpec) -> tuple[TermTable, float]:
    """The term table plus the global factor N1^2*N2^2.

    Rows are in canonical order (mode-1 ket sign, mode-1 bra sign, mode-2 ket
    sign, mode-2 bra sign; + before -) so per-term and per-class outputs
    downstream are deterministic.  Weights are built as exp of exact
    +-rel_phase sums.  A mode's overlap takes one value on the diagonal and
    one off it, so four overlaps serve all 16 rows.
    """
    a1 = cat1.amplitude
    a2 = cat2.amplitude
    weight = np.exp(1j * ((_NEG1K - _NEG1B) * cat1.rel_phase
                          + (_NEG2K - _NEG2B) * cat2.rel_phase))
    overlap1 = np.where(_OFF1, coherent_overlap(a1, -a1), coherent_overlap(a1, a1))
    overlap2 = np.where(_OFF2, coherent_overlap(a2, -a2), coherent_overlap(a2, a2))
    table = TermTable(
        a1_ket=(1 - 2 * _NEG1K) * a1,
        a1_bra=(1 - 2 * _NEG1B) * a1,
        a2_ket=(1 - 2 * _NEG2K) * a2,
        a2_bra=(1 - 2 * _NEG2B) * a2,
        weight=weight,
        prefactor=weight * overlap1 * overlap2,
    )
    return table, normalization(cat1) * normalization(cat2)
