"""Domain types for two-mode cat-state input to a dissipative parametric amplifier.

All times are scaled: the product g*t is the dimensionless evolution (squeeze)
parameter, and decay rates gamma are quoted in the same inverse time unit as
the gain g.  Every type here is an immutable value object and safe to share.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum

TWO_PI = 2.0 * math.pi


class DegenerateCat(ValueError):
    """A cat whose two components cancel: the superposition is the zero vector."""


def _finite(name: str, value: float) -> float:
    """value as a float, a zero as +0.0 so that equal inputs store identical
    bits; ValueError naming the field unless it is finite."""
    value = float(value) + 0.0
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _count(name: str, value) -> int:
    """value as an int; ValueError naming the argument unless it is an integer >= 0."""
    try:
        count = operator.index(value)
    except TypeError:
        count = -1
    if count < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return count


def _canonical_phase(phi: float) -> float:
    """Reduce an angle to [0, 2*pi), a zero as +0.0."""
    out = math.fmod(float(phi), TWO_PI) + 0.0
    if out < 0.0:
        out += TWO_PI
    return out


@dataclass(frozen=True)
class CatSpec:
    """One mode's initial cat state  N*(|alpha> + e^{i*rel_phase}|-alpha>).

    amp_mag   -- |alpha| >= 0 (dimensionless field amplitude)
    amp_phase -- phase of alpha, radians (stored reduced to [0, 2*pi))
    rel_phase -- relative phase between the two coherent components;
                 0 gives the even cat, pi the odd cat, pi/2 the Yurke-Stoler cat
    """

    amp_mag: float
    amp_phase: float = 0.0
    rel_phase: float = 0.0

    def __post_init__(self):
        if not self.amp_mag >= 0.0:
            raise ValueError(f"amp_mag must be >= 0, got {self.amp_mag}")
        object.__setattr__(self, "amp_mag", _finite("amp_mag", self.amp_mag))
        for name in ("amp_phase", "rel_phase"):
            object.__setattr__(self, name, _canonical_phase(_finite(name, getattr(self, name))))
        normalization(self)

    @classmethod
    def even(cls, amp_mag: float, amp_phase: float = 0.0) -> "CatSpec":
        return cls(amp_mag, amp_phase, 0.0)

    @classmethod
    def odd(cls, amp_mag: float, amp_phase: float = 0.0) -> "CatSpec":
        return cls(amp_mag, amp_phase, math.pi)

    @classmethod
    def yurke_stoler(cls, amp_mag: float, amp_phase: float = 0.0) -> "CatSpec":
        return cls(amp_mag, amp_phase, math.pi / 2.0)

    @property
    def amplitude(self) -> complex:
        """Complex amplitude alpha = amp_mag * e^{i*amp_phase}."""
        return self.amp_mag * complex(math.cos(self.amp_phase), math.sin(self.amp_phase))


def normalization(cat: CatSpec) -> float:
    """Squared normalization constant N^2 of the two-component superposition.

    N^2 = 1 / (2*(1 + exp(-2*|alpha|^2) * cos(rel_phase))), finite and positive
    for every constructible CatSpec: construction calls this, so a cat whose
    denominator rounds to 0 is refused there.
    """
    den = 2.0 * (1.0 + math.exp(-2.0 * cat.amp_mag**2) * math.cos(cat.rel_phase))
    if den <= 0.0:
        raise DegenerateCat(
            f"odd cat with amp_mag {cat.amp_mag} is the zero vector (no normalization)")
    return 1.0 / den


class Regime(Enum):
    UNDERDAMPED = "underdamped"
    OVERDAMPED = "overdamped"
    CRITICAL = "critical"


@dataclass(frozen=True)
class AmplifierParams:
    """Gain, pump phase, cavity decay rates and reservoir occupations.

    g          -- gain coefficient (>= 0, inverse time)
    pump_phase -- initial pump phase, radians (stored reduced to [0, 2*pi))
    gamma1/2   -- cavity decay rates of signal/idler (>= 0, inverse time)
    nbar1/2    -- mean reservoir occupations seen by signal/idler (>= 0)
    """

    g: float
    pump_phase: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    nbar1: float = 0.0
    nbar2: float = 0.0

    def __post_init__(self):
        for name in ("g", "gamma1", "gamma2", "nbar1", "nbar2"):
            val = getattr(self, name)
            if not val >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {val}")
            object.__setattr__(self, name, _finite(name, val))
        object.__setattr__(self, "pump_phase",
                           _canonical_phase(_finite("pump_phase", self.pump_phase)))

    @property
    def eps(self) -> float:
        """Discriminant (gamma1-gamma2)^2 + 16 g^2 of the drift eigenproblem."""
        return (self.gamma1 - self.gamma2) ** 2 + 16.0 * self.g**2

    def regime(self) -> Regime:
        """Damping regime: amplification vs dissipation.

        For symmetric losses gamma1 = gamma2 = gamma this is the textbook
        comparison of 2g against gamma; the general criterion 4g^2 vs
        gamma1*gamma2 reduces to it and matches the sign of the growing
        exponent of the drift coefficients.  The comparison is exact, so no
        finite input overflows it.
        """
        from fractions import Fraction  # imported here, so `import catamp` loads no decimal

        lhs = 4 * Fraction(self.g) ** 2
        rhs = Fraction(self.gamma1) * Fraction(self.gamma2)
        if lhs > rhs:
            return Regime.UNDERDAMPED
        if lhs < rhs:
            return Regime.OVERDAMPED
        return Regime.CRITICAL


@dataclass(frozen=True)
class System:
    """A full input configuration: the two cats and the amplifier parameters."""

    cat1: CatSpec
    cat2: CatSpec
    params: AmplifierParams

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.cat1, self.cat2, self.params))

    def __hash__(self) -> int:
        # the dataclass hash of the fields, computed once: the record cache in
        # coeffs hashes its key on every lookup
        return self._hash
