import math

import numpy as np
import pytest

import catamp as ca
from catamp import oracle


class TestNormalization:
    @pytest.mark.parametrize("mag", [0.0, 0.3, 1.0, 2.5])
    def test_yurke_stoler_is_half(self, mag):
        # cos(pi/2) = 0 kills the overlap term
        assert ca.normalization(ca.CatSpec.yurke_stoler(mag)) == pytest.approx(0.5)

    def test_large_amplitude_limit(self):
        assert ca.normalization(ca.CatSpec.even(6.0)) == pytest.approx(0.5, abs=1e-12)

    def test_even_unit_amplitude_frozen(self):
        # 1/(2*(1+e^-2)) evaluated with 50-digit mpmath
        assert ca.normalization(ca.CatSpec.even(1.0)) == pytest.approx(
            0.4403985389889412, rel=1e-15
        )

    def test_degenerate_odd_cat_rejected(self):
        with pytest.raises(ca.DegenerateCat):
            ca.CatSpec.odd(0.0)
        # exp(-2e-18) rounds to 1, so the normalization denominator is 0
        with pytest.raises(ca.DegenerateCat):
            ca.CatSpec.odd(1e-9)
        # zero-amplitude even cat is fine (it is the vacuum)
        assert ca.normalization(ca.CatSpec.even(0.0)) == pytest.approx(0.25)

    def test_phase_canonicalization(self):
        a = ca.CatSpec(1.0, amp_phase=-np.pi / 2, rel_phase=7.0 * np.pi)
        assert 0.0 <= a.amp_phase < 2.0 * np.pi
        assert 0.0 <= a.rel_phase < 2.0 * np.pi
        b = ca.CatSpec(1.0, amp_phase=-np.pi / 2 + 2.0 * np.pi, rel_phase=np.pi)
        assert ca.normalization(a) == pytest.approx(ca.normalization(b), rel=1e-12)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            ca.CatSpec(-0.1)

    def test_negative_amplifier_values_rejected(self):
        with pytest.raises(ValueError):
            ca.AmplifierParams(g=-1.0)
        with pytest.raises(ValueError):
            ca.AmplifierParams(g=1.0, nbar1=-0.2)

    def test_non_finite_cat_rejected(self):
        with pytest.raises(ValueError, match="amp_phase must be finite"):
            ca.CatSpec(1.0, amp_phase=math.nan)

    def test_non_finite_amplifier_rejected(self):
        with pytest.raises(ValueError, match="g must be finite"):
            ca.AmplifierParams(g=math.inf)


class TestFockNorm:
    def test_unit_norm_in_fock_space(self, rng):
        from conftest import random_cat

        for _ in range(12):
            cat = random_cat(rng, max_mag=2.0)
            dim = math.ceil(cat.amp_mag**2 + 8.0 * math.sqrt(cat.amp_mag**2 + 1.0)) + 6
            vec = oracle._cat_vec(cat, dim)
            assert abs(np.vdot(vec, vec).real - 1.0) < 1e-12


class TestRegime:
    def test_symmetric_classification(self):
        under = ca.AmplifierParams(g=1.0, gamma1=1.5, gamma2=1.5)
        over = ca.AmplifierParams(g=1.0, gamma1=2.5, gamma2=2.5)
        crit = ca.AmplifierParams(g=1.0, gamma1=2.0, gamma2=2.0)
        assert under.regime() is ca.Regime.UNDERDAMPED
        assert over.regime() is ca.Regime.OVERDAMPED
        assert crit.regime() is ca.Regime.CRITICAL

    def test_beyond_float_range_squares(self):
        # 4 g^2 and gamma1*gamma2 leave float range here; the comparison is exact
        huge_g = ca.AmplifierParams(g=1e160)
        assert huge_g.regime() is ca.Regime.UNDERDAMPED
        lossy = ca.AmplifierParams(g=1e160, gamma1=1e200, gamma2=1e200)
        assert lossy.regime() is ca.Regime.OVERDAMPED

    def test_exhaustive_and_exclusive(self, rng):
        for _ in range(100):
            g = float(rng.uniform(0.0, 2.0))
            gam = float(rng.uniform(0.0, 5.0))
            p = ca.AmplifierParams(g=g, gamma1=gam, gamma2=gam)
            regimes = [p.regime() is r for r in ca.Regime]
            assert sum(regimes) == 1

    def test_eps_nonnegative(self, rng):
        for _ in range(50):
            p = ca.AmplifierParams(
                g=float(rng.uniform(0, 3)),
                gamma1=float(rng.uniform(0, 4)),
                gamma2=float(rng.uniform(0, 4)),
            )
            assert p.eps >= 0.0
