"""Single-mode Wigner function on a phase-space grid.

Each row of the evolved term record contributes a complex Gaussian centred
between its bra/ket drift amplitudes, with a width growing with the
accumulated noise; the 16-row weighted sum is real.  On a rectangular grid
each row's Gaussian is an outer product of an x factor and a y factor, so the
whole grid is one (ny, 16) @ (16, nx) product.  Negativity of the summed
function signals surviving phase-space interference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coeffs import EvolvedTerms, evolve_terms
from .params import System

_IMAG_RESIDUE_TOL = 1e-10
_BOUNDARY_TOL = 1e-6
# count_peaks: maxima below this fraction of max W are ignored, and a
# secondary one must rise this fraction of max W above its saddle
_REL_THRESHOLD = 0.05
_REL_PROMINENCE = 0.05


class SupportWarning(UserWarning):
    """The grid clips non-negligible Wigner mass at its boundary."""


@dataclass(frozen=True)
class GridSpec:
    """Rectangular phase-space grid for z = x + i*y."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int = 201
    ny: int = 201

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for axis, low, high, num in (("x", self.x_min, self.x_max, self.nx),
                                     ("y", self.y_min, self.y_max, self.ny)):
            if num < 2:
                raise ValueError(f"n{axis} must be >= 2, got {num}")
            if not low < high:
                raise ValueError(f"{axis}_max must be > {axis}_min, got {high} <= {low}")


@dataclass(frozen=True)
class PhaseGrid:
    """Evaluated Wigner values W[iy, ix] on the grid spec's lattice."""

    spec: GridSpec
    values: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.spec.x_min, self.spec.x_max, self.spec.nx)

    @property
    def y(self) -> np.ndarray:
        return np.linspace(self.spec.y_min, self.spec.y_max, self.spec.ny)

    def integral(self) -> float:
        """Riemann sum of W over the grid."""
        dx = (self.spec.x_max - self.spec.x_min) / (self.spec.nx - 1)
        dy = (self.spec.y_max - self.spec.y_min) / (self.spec.ny - 1)
        return float(np.sum(self.values)) * dx * dy


def _wigner_sum(ev: EvolvedTerms, x: np.ndarray, y, mode: int) -> np.ndarray:
    """Wigner function of one mode on the lattice of x (1-D) and y (1-D or scalar).

    Row k's exponent -2(ab - conj z)(ab' - z)/w at z = x + iy splits exactly
    into -2(ab - x)(ab' - x)/w - 2y(y - i(ab - ab'))/w, so each row is an
    outer product ey[k] ex[k] and the weighted 16-row sum is one matrix
    product, W[iy, ix] (W[ix] for a scalar y).  The x factor keeps the
    product form: expanded in powers of x it loses digits to cancellation.
    """
    b, ab, abp = ev.mode(mode)
    width = 1.0 + 2.0 * b
    y = np.asarray(y, dtype=float)[..., None]
    ex = np.exp(-2.0 * np.subtract.outer(ab, x) * np.subtract.outer(abp, x) / width)
    ey = np.exp(-2.0 * y * (y - 1j * (ab - abp)) / width)
    acc = (ey * (ev.norm * 2.0 / (math.pi * width) * ev.prefactor)) @ ex
    scale = float(np.max(np.abs(acc))) or 1.0
    residue = float(np.max(np.abs(acc.imag)))
    if residue > _IMAG_RESIDUE_TOL * scale:
        raise RuntimeError(
            f"Wigner sum not real: imaginary residue {residue:.3e} (scale {scale:.3e})"
        )
    return acc.real


def default_grid(system: System, t: float, mode: int = 1) -> GridSpec:
    """Symmetric grid covering all drift centres plus 5 noise widths; the grid
    of wigner_grid and wigner_cut when none is given."""
    b, _, abarp = evolve_terms(system, t).mode(mode)
    r = float(np.max(np.abs(abarp))) + 5.0 * math.sqrt(1.0 + 2.0 * b)
    return GridSpec(-r, r, -r, r)


def wigner_grid(system: System, t: float, spec: GridSpec | None = None,
                mode: int = 1) -> PhaseGrid:
    """Wigner function of one mode over a rectangular grid."""
    if spec is None:
        spec = default_grid(system, t, mode)
    ev = evolve_terms(system, t)
    x = np.linspace(spec.x_min, spec.x_max, spec.nx)
    y = np.linspace(spec.y_min, spec.y_max, spec.ny)
    vals = _wigner_sum(ev, x, y, mode)
    peak = float(np.max(np.abs(vals))) or 1.0
    edge = max(
        float(np.max(np.abs(vals[0, :]))),
        float(np.max(np.abs(vals[-1, :]))),
        float(np.max(np.abs(vals[:, 0]))),
        float(np.max(np.abs(vals[:, -1]))),
    )
    if edge > _BOUNDARY_TOL * peak:
        warnings.warn(
            f"Wigner boundary magnitude {edge:.3e} exceeds {_BOUNDARY_TOL:.0e} of peak",
            SupportWarning,
            stacklevel=2,
        )
    return PhaseGrid(spec=spec, values=vals)


def wigner_cut(system: System, t: float, y: float = -0.25,
               x: np.ndarray | None = None, mode: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Wigner values along a constant-y line (exact evaluation, no snapping)."""
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y}")
    if x is None:
        spec = default_grid(system, t, mode)
        x = np.linspace(spec.x_min, spec.x_max, spec.nx)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
        raise ValueError("x must be a 1-D array of finite values with at least one point")
    return x, _wigner_sum(evolve_terms(system, t), x, y, mode)


def _strict_maxima(v: np.ndarray, cut: float) -> list[tuple[float, int, int]]:
    core = v[1:-1, 1:-1]
    mask = core > cut
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            mask &= core > v[1 + dy : v.shape[0] - 1 + dy, 1 + dx : v.shape[1] - 1 + dx]
    iy, ix = np.nonzero(mask)
    return sorted(
        ((float(v[j + 1, i + 1]), j + 1, i + 1) for j, i in zip(iy, ix)), reverse=True
    )


def _reaches_higher(v: np.ndarray, floor: float, val: float, j: int, i: int) -> bool:
    """Whether the 4-connected component of {v > floor} holding (j, i) has a
    value above val.

    The component grows one 4-neighbour step at a time inside a window of
    radius r around (j, i).  After s <= r steps it lies within s pixels of
    (j, i), so the window changes nothing; then the grown part moves into a
    window of twice the radius.
    """
    comp, y0, x0 = np.ones((1, 1), dtype=bool), j, i
    size, steps, r = 1, 0, 8
    while True:
        wy0, wx0 = max(j - r, 0), max(i - r, 0)
        win = v[wy0 : j + r + 1, wx0 : i + r + 1]
        h, w = win.shape
        # a -inf column ends each row, so the flat shifts by 1 and w + 1 reach
        # the 4 neighbours and never wrap into the next row
        padded = np.full((h, w + 1), -np.inf)
        padded[:, :w] = win
        inside, higher = (padded > floor).ravel(), (padded > val).ravel()
        cur = np.zeros((h, w + 1), dtype=bool)
        cur[y0 - wy0 : y0 - wy0 + comp.shape[0], x0 - wx0 : x0 - wx0 + comp.shape[1]] = comp
        cur = cur.ravel()
        while steps < r:
            steps += 1
            grown = cur.copy()
            for shift in (1, w + 1):
                grown[shift:] |= cur[:-shift]
                grown[:-shift] |= cur[shift:]
            grown &= inside
            if np.count_nonzero(grown & higher):
                return True
            grown_size = np.count_nonzero(grown)
            if grown_size == size:
                return False
            cur, size = grown, grown_size
        comp, y0, x0, r = cur.reshape(h, w + 1), wy0, wx0, 2 * r


def count_peaks(grid: PhaseGrid) -> int:
    """Number of well-separated maxima above 5 % of the maximum.

    Strict interior local maxima above _REL_THRESHOLD * max are collected,
    highest first; the highest always counts.  Every other maximum counts
    only when it rises at least _REL_PROMINENCE * max above the saddle that
    connects it to higher ground, i.e. when the 4-connected component of
    {W > val - _REL_PROMINENCE * max} holding it has no value above val: one
    windowed flood fill per maximum (_reaches_higher).  This keeps the count
    grid-resolution independent (a broad lobe does not split into several
    peaks over percent-deep ripples).
    """
    v = grid.values
    vmax = float(np.max(v))
    if vmax <= 0.0:
        return 0
    maxima = _strict_maxima(v, _REL_THRESHOLD * vmax)
    return len(maxima[:1]) + sum(
        not _reaches_higher(v, val - _REL_PROMINENCE * vmax, val, j, i)
        for val, j, i in maxima[1:]
    )
