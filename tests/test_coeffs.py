import cmath
import dataclasses
import functools
import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catamp as ca
from catamp import oracle

from conftest import amplifiers, make_system


def symmetric_f1(g, gamma, t):
    # independent form of the drift coefficient for equal losses
    return 0.5 * (math.exp((g - gamma / 2) * t) + math.exp(-(g + gamma / 2) * t))


def amplitudes(params, t):
    """(f1, f2, f3) of the coefficient record."""
    c = ca.coeffs_at(params, t)
    return c.f1, c.f2, c.f3


def noise(params, t):
    """(B1N, B2N, D) of the coefficient record."""
    c = ca.coeffs_at(params, t)
    return c.B1N, c.B2N, c.D


def drift_exponential(g, pump, gamma1, gamma2, t):
    """(f1, f2, f3) at 50 digits: the entries (1,1), (1,2), (2,2) of e^{Mt},
    with M the drift of (a1, a2+)."""
    with mpmath.workdps(50):
        g, pump, gamma1, gamma2, t = map(mpmath.mpf, (g, pump, gamma1, gamma2, t))
        kappa = 1j * g * mpmath.expj(pump)
        m = mpmath.matrix([[-gamma1 / 2, kappa], [mpmath.conj(kappa), -gamma2 / 2]])
        e = mpmath.expm(m * t)
        return float(e[0, 0].real), complex(e[0, 1]), float(e[1, 1].real)


def van_loan_noise(g, pump, gamma1, gamma2, nbar1, nbar2, t):
    """(B1N, B2N, D) at 40 digits: X = int_0^t e^{Ms} Q e^{M+s} ds = e^{Mt} G,
    where G is the top-right block of expm([[-M, Q], [0, M+]] t) (Van Loan
    1978), with M the drift of (a1, a2+) and Q its noise matrix."""
    with mpmath.workdps(40):
        g, pump, gamma1, gamma2, nbar1, nbar2, t = map(
            mpmath.mpf, (g, pump, gamma1, gamma2, nbar1, nbar2, t))
        kappa = 1j * g * mpmath.expj(pump)
        m = mpmath.matrix([[-gamma1 / 2, kappa], [mpmath.conj(kappa), -gamma2 / 2]])
        q = mpmath.matrix([[gamma1 * nbar1, kappa], [mpmath.conj(kappa), gamma2 * nbar2]])
        block = mpmath.zeros(4, 4)
        for i in range(2):
            for j in range(2):
                block[i, j], block[i, j + 2], block[i + 2, j + 2] = -m[i, j], q[i, j], m.H[i, j]
        e = mpmath.expm(block * t)
        x = mpmath.expm(m * t) * mpmath.matrix([[e[0, 2], e[0, 3]], [e[1, 2], e[1, 3]]])
        return float(x[0, 0].real), float(x[1, 1].real), complex(mpmath.conj(x[0, 1]))


class TestDynCoeffs:
    def test_initial_condition(self, rng):
        for _ in range(10):
            p = ca.AmplifierParams(
                g=float(rng.uniform(0, 2)), pump_phase=float(rng.uniform(0, 6)),
                gamma1=float(rng.uniform(0, 3)), gamma2=float(rng.uniform(0, 3)),
            )
            f1, f2, f3 = amplitudes(p, 0.0)
            assert f1 == pytest.approx(1.0)
            assert f2 == 0
            assert f3 == pytest.approx(1.0)

    def test_undamped_closed_forms(self):
        p = ca.AmplifierParams(g=0.8, pump_phase=0.6)
        for t in (0.1, 0.7, 2.0):
            f1, f2, f3 = amplitudes(p, t)
            assert f1 == pytest.approx(math.cosh(0.8 * t), rel=1e-14)
            assert f3 == pytest.approx(math.cosh(0.8 * t), rel=1e-14)
            assert f2 == pytest.approx(1j * np.exp(0.6j) * math.sinh(0.8 * t), rel=1e-14)
            # commutator preservation
            assert f1**2 - abs(f2) ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("g,gamma", [(1.0, 0.5), (1.0, 2.0), (0.3, 2.2), (2.0, 0.0)])
    def test_symmetric_losses_match_reference_form(self, g, gamma):
        p = ca.AmplifierParams(g=g, gamma1=gamma, gamma2=gamma)
        for t in np.linspace(0.0, 3.0, 13):
            f1, _, f3 = amplitudes(p, float(t))
            ref = symmetric_f1(g, gamma, float(t))
            assert abs(f1 - ref) < 1e-13
            assert abs(f3 - ref) < 1e-13

    def test_pure_decay_limit(self):
        # g = 0: amplitude decays as e^{-gamma_j t / 2}
        p = ca.AmplifierParams(g=0.0, gamma1=1.2, gamma2=0.4)
        f1, f2, f3 = amplitudes(p, 0.9)
        assert f1 == pytest.approx(math.exp(-1.2 * 0.9 / 2), rel=1e-12)
        assert f3 == pytest.approx(math.exp(-0.4 * 0.9 / 2), rel=1e-12)
        assert f2 == 0

    def test_removable_singularity_g0_symmetric(self):
        p = ca.AmplifierParams(g=0.0, gamma1=0.7, gamma2=0.7)
        f1, f2, f3 = amplitudes(p, 1.3)
        assert f1 == pytest.approx(math.exp(-0.7 * 1.3 / 2), rel=1e-12)
        assert f3 == pytest.approx(f1)

    @pytest.mark.parametrize("gt", [1e-9, 1e-6, 3e-5])
    def test_small_x_matches_50_digit_exponential(self, gt):
        # sinh(x)/x at small x = omega*t, where only x = 0 is special: each
        # coefficient within 4 ulp of its magnitude
        for g, pump, gamma1, gamma2 in ((1.0, 0.7, 0.3, 0.9), (2.5, 2.1, 1.7, 0.2)):
            t = gt / g
            got = amplitudes(ca.AmplifierParams(g=g, pump_phase=pump, gamma1=gamma1,
                                                gamma2=gamma2), t)
            for value, want in zip(got, drift_exponential(g, pump, gamma1, gamma2, t)):
                assert abs(value - want) <= 4 * math.ulp(abs(want))


class TestNoiseCoeffs:
    def test_initial_condition(self):
        p = ca.AmplifierParams(g=1.0, gamma1=0.5, gamma2=1.5, nbar1=0.3, nbar2=0.7)
        b1, b2, d = noise(p, 0.0)
        assert b1 == pytest.approx(0.0, abs=1e-15)
        assert b2 == pytest.approx(0.0, abs=1e-15)
        assert abs(d) == pytest.approx(0.0, abs=1e-15)

    def test_undamped_limits(self):
        p = ca.AmplifierParams(g=0.9, pump_phase=1.1)
        for t in (0.2, 0.8):
            b1, b2, d = noise(p, t)
            assert b1 == pytest.approx(math.sinh(0.9 * t) ** 2, rel=1e-12)
            assert b2 == pytest.approx(b1, rel=1e-12)
            assert abs(d) == pytest.approx(
                math.sinh(0.9 * t) * math.cosh(0.9 * t), rel=1e-12
            )

    def test_pure_thermal_relaxation(self):
        # g = 0, symmetric losses: each mode relaxes to its own reservoir
        p = ca.AmplifierParams(g=0.0, gamma1=0.8, gamma2=0.8, nbar1=0.4, nbar2=1.1)
        t = 1.7
        b1, b2, d = noise(p, t)
        assert b1 == pytest.approx(0.4 * -math.expm1(-0.8 * t), rel=1e-12)
        assert b2 == pytest.approx(1.1 * -math.expm1(-0.8 * t), rel=1e-12)
        assert abs(d) < 1e-15

    def test_swap_symmetry_exact(self, rng):
        for _ in range(20):
            g = float(rng.uniform(0.1, 2.0))
            g1, g2 = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
            n1, n2 = float(rng.uniform(0, 2)), float(rng.uniform(0, 2))
            t = float(rng.uniform(0, 2))
            pa = ca.AmplifierParams(g=g, gamma1=g1, gamma2=g2, nbar1=n1, nbar2=n2)
            pb = ca.AmplifierParams(g=g, gamma1=g2, gamma2=g1, nbar1=n2, nbar2=n1)
            b1a, b2a, _ = noise(pa, t)
            b1b, b2b, _ = noise(pb, t)
            assert b1a == b2b
            assert b2a == b1b

    def test_positivity_sweep(self, rng):
        for _ in range(300):
            g = float(rng.uniform(0.05, 2.0))
            gam = float(rng.uniform(0.0, 4.0 * g))
            p = ca.AmplifierParams(
                g=g, gamma1=gam, gamma2=float(rng.uniform(0.0, 4.0 * g)),
                nbar1=float(rng.uniform(0, 3)), nbar2=float(rng.uniform(0, 3)),
            )
            t = float(rng.uniform(0.0, 5.0 / g))
            b1, b2, _ = noise(p, t)
            assert b1 >= -1e-14
            assert b2 >= -1e-14

    def test_damped_matches_oracle_vacuum(self):
        # B1N(t) equals <a1+ a1> of the evolved two-mode vacuum
        p = ca.AmplifierParams(g=1.0, pump_phase=0.3, gamma1=0.9, gamma2=2.3,
                               nbar1=0.4, nbar2=0.8)
        vac = ca.System(ca.CatSpec.even(0.0), ca.CatSpec.even(0.0), p)
        state = oracle.build_initial(vac.cat1, vac.cat2, 14, 14)
        evolved = oracle.evolve(state, p, 0.35)
        b1, b2, d = noise(p, 0.35)
        assert b1 == pytest.approx(oracle.fock_moment(evolved, 1, 1, 0, 0).real, abs=2e-5)
        assert b2 == pytest.approx(oracle.fock_moment(evolved, 0, 0, 1, 1).real, abs=2e-5)
        # D is the anomalous moment <A1+ A2+> = conj<a1 a2>
        ref = np.conj(oracle.fock_moment(evolved, 0, 1, 0, 1))
        assert abs(d - ref) < 2e-5

    def test_critical_regime_continuity(self):
        # values on the singular surface sit between nearby off-surface values
        g = 1.0
        p_c = ca.AmplifierParams(g=g, gamma1=2.0, gamma2=2.0, nbar1=0.5, nbar2=0.5)
        b1c, _, dc = noise(p_c, 0.7)
        vals = []
        for fac in (0.999, 1.001):
            p = ca.AmplifierParams(g=g, gamma1=2.0 * fac, gamma2=2.0 * fac,
                                   nbar1=0.5, nbar2=0.5)
            vals.append(noise(p, 0.7)[0])
        assert min(vals) - 1e-6 <= b1c <= max(vals) + 1e-6
        assert abs(dc) > 0

    # (g, pump, gamma1, gamma2, nbar1, nbar2, t)
    @pytest.mark.parametrize("case", [
        (1.0, 0.3, 2.0, 2.0, 0.5, 0.5, 0.7),
        (1.0, 0.3, 2.0 * (1 + 2e-6), 2.0 * (1 + 2e-6), 0.5, 0.5, 0.7),
        (1.0, 0.3, 2.0 * (1 + 1e-7), 2.0 * (1 + 1e-7), 0.5, 0.5, 0.7),
        (1.0, 0.3, 1.0, 4.0, 0.2, 0.6, 0.5),
        (1.0, 0.3, 1.0, 4.0 * (1 + 2e-6), 0.2, 0.6, 0.5),
        (1.0, 0.3, 1.0, 4.0 * (1 + 1e-7), 0.2, 0.6, 0.5),
        (0.0, 0.0, 0.8, 0.8, 0.4, 1.1, 1.7),
        (0.0, 0.0, 1.2, 0.4, 0.4, 1.1, 0.9),
        (1e-6, 0.7, 0.0, 0.0, 0.0, 0.0, 1.0),
        (1e-6, 0.7, 0.5, 0.9, 0.3, 0.2, 1.0),
        (0.5, math.pi / 2, 1.1, 1.1, 0.5, 0.5, 0.2),
    ], ids=["symmetric_critical", "symmetric_2e-6_off", "symmetric_1e-7_off",
            "asymmetric_critical", "asymmetric_2e-6_off", "asymmetric_1e-7_off",
            "g0_equal_losses", "g0_unequal_losses", "gt_1e-6_lossless", "gt_1e-6_damped",
            "fig10_overdamped"])
    def test_matches_40_digit_van_loan_reference(self, case):
        # the critical surfaces gamma1*gamma2 = 4g^2, points just off them, the
        # g = 0 and small-gain limits: one formula within 1e-14 everywhere
        *fields, t = case
        p = ca.AmplifierParams(*fields)
        ref = van_loan_noise(*fields, t)
        scale = max(1.0, *(abs(v) for v in ref))
        for got, want in zip(noise(p, t), ref):
            assert abs(got - want) <= 1e-14 * scale


# t >= 1e-3 with g >= 0.1 keeps g*t >= 1e-4: below it B_jN ~ (g*t)^2 is accurate
# only in absolute terms, about 1e-16*g*t, as P++ - P-- is a difference of two
# numbers near t
@settings(derandomize=True, max_examples=1000, deadline=None)
@given(params=amplifiers, lossless=st.booleans(), t=st.floats(1e-3, 2.0))
def test_noise_is_a_physical_covariance(params, lossless, t):
    # Cauchy-Schwarz on the noise operators: |<A1+ A2+>|^2 <= <A1+ A1><A2 A2+>,
    # with equality for the pure two-mode squeezed vacuum of the lossless amplifier
    if lossless:
        params = dataclasses.replace(params, gamma1=0.0, gamma2=0.0)
    b1, b2, d = noise(params, t)
    bound = min(b1 * (1.0 + b2), (1.0 + b1) * b2)
    if lossless:
        assert abs(abs(d) ** 2 - bound) <= 1e-11 * bound
    else:
        assert abs(d) ** 2 <= bound * (1.0 + 1e-11)


class TestEvolvedAmplitudes:
    def test_initial_identity(self, rng):
        sys1 = make_system("even", 1.3, "yss", 0.8, psi1=0.4, psi2=1.1)
        table, norm = ca.enumerate_terms(sys1.cat1, sys1.cat2)
        ev = ca.evolve_terms(sys1, 0.0)
        assert ev.norm == norm and ev.kind == table.kind
        assert np.array_equal(ev.prefactor, table.prefactor)
        for i in range(16):
            assert ev.ab1[i] == pytest.approx(np.conj(table.a1_bra[i]))
            assert ev.ab2[i] == pytest.approx(np.conj(table.a2_bra[i]))
            assert ev.abp1[i] == pytest.approx(table.a1_ket[i])
            assert ev.abp2[i] == pytest.approx(table.a2_ket[i])

    def test_diagonal_coherent_undamped(self):
        # the ket-side signal amplitude follows cosh/sinh mixing; row 0 is the
        # diagonal coherent element |1.2>|0.7><0.7|<1.2|
        p = ca.AmplifierParams(g=1.0, pump_phase=0.9)
        ev = ca.evolve_terms(ca.System(ca.CatSpec.even(1.2), ca.CatSpec.even(0.7), p), 0.6)
        expect = 1.2 * math.cosh(0.6) + 1j * np.exp(0.9j) * 0.7 * math.sinh(0.6)
        assert ev.abp1[0] == pytest.approx(expect, rel=1e-12)
        # every row mixes its own signal ket and idler bra the same way
        table, _ = ca.enumerate_terms(ca.CatSpec.even(1.2), ca.CatSpec.even(0.7))
        expect = (table.a1_ket * math.cosh(0.6)
                  + 1j * np.exp(0.9j) * np.conj(table.a2_bra) * math.sinh(0.6))
        assert np.allclose(ev.abp1, expect, rtol=1e-12, atol=0)

    def test_overdamped_drift_decays(self):
        # strongly damped case: the evolved signal amplitude shrinks monotonically
        p = ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2, gamma1=5.0, gamma2=5.0,
                               nbar1=1.0, nbar2=1.0)
        system = ca.System(ca.CatSpec.even(3.0), ca.CatSpec.even(2.0), p)
        mags = [abs(ca.evolve_terms(system, float(t)).abp1[0])
                for t in np.linspace(0.0, 2.0, 41)]
        assert all(b < a + 1e-12 for a, b in zip(mags, mags[1:]))


class TestCoeffsRecord:
    def test_record_fields(self):
        p = ca.AmplifierParams(g=1.0, gamma1=0.4, gamma2=0.4, nbar1=0.2, nbar2=0.2)
        c = ca.coeffs_at(p, 0.0)
        assert (c.f1, c.f2, c.f3, c.B1N, c.B2N, c.D) == (1.0, 0j, 1.0, 0.0, 0.0, 0j)
        c2 = ca.coeffs_at(p, 0.5)
        assert c2.B1N > 0.0 and c2.B2N > 0.0


class TestNonFiniteTime:
    # coeffs_at refuses the time, so every observable does
    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("observable", [
        lambda s, t: ca.moment(1, 1, 0, 0, s, t),
        lambda s, t: ca.two_mode_squeezing(s, t),
        lambda s, t: ca.sum_pnd(s, t),
        lambda s, t: ca.wigner_grid(s, t),
        lambda s, t: ca.factorial_moments(s, t, 0),
        lambda s, t: amplitudes(s.params, t),
        lambda s, t: noise(s.params, t),
    ], ids=["moment", "two_mode_squeezing", "sum_pnd", "wigner_grid", "factorial_moments_k0",
            "dyn_coeffs", "noise_coeffs"])
    def test_observables_name_t(self, observable, t):
        system = make_system("even", 1.0, "odd", 0.5)
        with pytest.raises(ValueError, match="t must be finite"):
            observable(system, t)


_OVERDAMPED = ca.AmplifierParams(g=1.0, gamma1=5.0, gamma2=5.0, nbar1=0.5, nbar2=0.5)


class TestFloatRange:
    # where a coefficient leaves float range coeffs_at refuses t, so no
    # observable sees a NaN or an OverflowError
    @pytest.mark.parametrize("params, t", [
        (ca.AmplifierParams(g=1.0), 352.0),
        (ca.AmplifierParams(g=1.0), 354.0),
        (ca.AmplifierParams(g=1.0), 355.0),
        (ca.AmplifierParams(g=1.0, gamma1=1.9, gamma2=1.9, nbar1=0.5, nbar2=0.5), 2e4),
        (ca.AmplifierParams(g=1e160), 0.1),
    ], ids=["lossless_nan", "lossless_nan_354", "lossless_expm1_overflow",
            "underdamped_growth_overflow", "huge_g"])
    def test_refused_naming_t(self, params, t):
        with pytest.raises(ValueError, match=f"t = {t} puts a coefficient beyond float range"):
            ca.coeffs_at(params, t)

    def test_observables_refuse_it(self):
        system = make_system("even", 1.0, "odd", 0.7)
        k0 = functools.partial(ca.factorial_moments, k=0)
        for observable in (ca.two_mode_squeezing, ca.sum_pnd, ca.wigner_grid, k0):
            with pytest.raises(ValueError, match="beyond float range"):
                observable(system, 354.0)
        with pytest.raises(ValueError, match="beyond float range"):
            k0(system, 1e9)

    def test_last_values_before_the_frontier(self):
        # lossless B1N = sinh^2(g t)
        lossless = ca.coeffs_at(ca.AmplifierParams(g=1.0), 351.0)
        assert lossless.B1N == pytest.approx(math.sinh(351.0) ** 2, rel=1e-12)
        # the overdamped steady state, reached long before cosh overflows
        late, steady = ca.coeffs_at(_OVERDAMPED, 700.0), ca.coeffs_at(_OVERDAMPED, 50.0)
        assert (late.B1N, late.D) == pytest.approx((steady.B1N, steady.D), rel=1e-14)
        assert late.B1N == pytest.approx(0.690476, abs=1e-6)

    @pytest.mark.parametrize("params", [
        _OVERDAMPED,
        ca.AmplifierParams(g=0.7, pump_phase=0.9, gamma1=3.0, gamma2=4.5, nbar1=0.2, nbar2=0.9),
    ], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("t", [720.0, 1e4])
    def test_overdamped_steady_state_past_cosh_overflow(self, params, t):
        # past omega*t = 710.48, where cosh overflows, the coefficients still
        # come out: the noise at its steady state X, the solution of
        # M X + X M^+ + Q = 0, within 1 ulp of a 40-digit solve
        sigma, delta = (params.gamma1 + params.gamma2) / 4.0, (params.gamma2 - params.gamma1) / 4.0
        kappa = 1j * params.g * cmath.exp(1j * params.pump_phase)
        with mpmath.workdps(40):
            m = mpmath.matrix([[-sigma + delta, kappa], [kappa.conjugate(), -sigma - delta]])
            q = mpmath.matrix([[params.gamma1 * params.nbar1, kappa],
                               [kappa.conjugate(), params.gamma2 * params.nbar2]])
            eye = mpmath.eye(2)
            # vec(M X + X M^+) = (I (x) M + conj(M) (x) I) vec(X), vec by columns
            lyapunov = mpmath.matrix(4, 4)
            for i, j, k, l in np.ndindex(2, 2, 2, 2):
                lyapunov[2 * j + i, 2 * l + k] = (eye[j, l] * m[i, k]
                                                  + mpmath.conj(m[j, l]) * eye[i, k])
            x = mpmath.lu_solve(lyapunov, -mpmath.matrix([q[0, 0], q[1, 0], q[0, 1], q[1, 1]]))
            x11, x22, d = float(mpmath.re(x[0])), float(mpmath.re(x[3])), complex(mpmath.conj(x[2]))
        c = ca.coeffs_at(params, t)
        assert (c.f1, c.f2, c.f3) == (0.0, 0.0, 0.0)
        assert abs(c.B1N - x11) <= np.spacing(x11) and abs(c.B2N - x22) <= np.spacing(x22)
        assert c.D == pytest.approx(d, rel=1e-15)

    @pytest.mark.parametrize("t", [700.5, 705.0, 709.0])
    def test_critical_amplitudes_agree_across_the_switch(self, t):
        # from omega*t = 700 the decay is folded into two exponentials; where
        # cosh still fits both forms agree (critical, g = 1: sigma = omega = 1)
        c = ca.coeffs_at(ca.AmplifierParams(g=1.0, gamma1=2.0, gamma2=2.0, nbar1=0.5, nbar2=0.5), t)
        assert c.f1 == pytest.approx(math.exp(-t) * math.cosh(t), rel=1e-13)
        assert c.f2 == pytest.approx(1j * t * math.exp(-t) * math.sinh(t) / t, rel=1e-13)


    # sigma = 1.5 > omega: e^{-sigma t} is subnormal from t = 472 and 0 from
    # t = 497, while the amplitudes, about e^{-(sigma - omega)t}/2, are in range
    _DECAY_UNDERFLOW = [
        ca.AmplifierParams(g=1.0, pump_phase=0.4, gamma1=3.0, gamma2=3.0, nbar1=0.5, nbar2=0.5),
        ca.AmplifierParams(g=1.0, pump_phase=0.4, gamma1=2.5, gamma2=3.5, nbar1=0.5, nbar2=0.2),
    ]

    @pytest.mark.parametrize("params", _DECAY_UNDERFLOW, ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("t", [600.0, 690.0, 700.0, 705.0])
    def test_amplitudes_past_the_decay_underflow(self, params, t):
        # from sigma*t = 700 the decay is folded into e^{(omega - sigma)t}
        want = drift_exponential(params.g, params.pump_phase, params.gamma1, params.gamma2, t)
        c = ca.coeffs_at(params, t)
        for got, ref in zip((c.f1, c.f2, c.f3), want):
            assert ref != 0.0 and abs(got - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("params", _DECAY_UNDERFLOW, ids=["symmetric", "asymmetric"])
    def test_amplitudes_continuous_across_the_decay_switch(self, params):
        # the last t of the unfolded form and the first of the folded one
        sigma = (params.gamma1 + params.gamma2) / 4.0
        t = 700.0 / sigma
        while sigma * t > 700.0:
            t = math.nextafter(t, 0.0)
        while sigma * math.nextafter(t, math.inf) <= 700.0:
            t = math.nextafter(t, math.inf)
        before, after = ca.coeffs_at(params, t), ca.coeffs_at(params, math.nextafter(t, math.inf))
        for a, b in ((before.f1, after.f1), (before.f2, after.f2), (before.f3, after.f3)):
            assert a != 0.0 and abs(a - b) <= 1e-13 * abs(a)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(g=st.floats(0.0, 2.0), gamma1=st.floats(0.0, 8.0), gamma2=st.floats(0.0, 8.0),
       nbar1=st.floats(0.0, 2.0), nbar2=st.floats(0.0, 2.0),
       pump=st.floats(0.0, 2.0 * math.pi, exclude_max=True), t=st.floats(0.0, 1000.0))
def test_coefficients_finite_or_refused(g, gamma1, gamma2, nbar1, nbar2, pump, t):
    # never a NaN, never an OverflowError: six finite numbers or the refusal
    params = ca.AmplifierParams(g, pump, gamma1, gamma2, nbar1, nbar2)
    try:
        c = ca.coeffs_at(params, t)
    except ValueError as exc:
        assert "beyond float range" in str(exc)
        return
    assert all(map(cmath.isfinite, (c.f1, c.f2, c.f3, c.B1N, c.B2N, c.D)))


class TestOneEvaluationPerCall:
    # every observable builds the evolved record once per (system, t)
    @pytest.mark.parametrize("observable", [
        lambda s, t: ca.moment(1, 1, 1, 1, s, t),
        lambda s, t: ca.char_full(s, t, 0.3 - 0.1j, 0.2j),
        lambda s, t: ca.sum_pnd(s, t),
        lambda s, t: ca.single_pnd(2, s, t),
        lambda s, t: ca.factorial_moments(s, t, 3),
        lambda s, t: ca.factorial_moments(s, t, 2, scope="single", mode=1),
        lambda s, t: ca.wigner_grid(s, t),
        lambda s, t: ca.wigner_cut(s, t),
    ], ids=["moment", "char_full", "sum_pnd", "single_pnd", "factorial_moments",
            "factorial_moments_single", "wigner_grid", "wigner_cut"])
    def test_enumerate_terms_and_coeffs_at_run_once(self, monkeypatch, observable):
        calls = {"enumerate_terms": 0, "coeffs_at": 0}
        for name in calls:
            original = getattr(ca.coeffs, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            # patch every catamp namespace that binds the function
            for module in [m for key, m in sys.modules.items() if key.startswith("catamp")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        system = make_system("even", 1.1, "odd", 0.7, gamma=0.3, nbar=0.2)
        ca.coeffs._evolve.cache_clear()  # an earlier test may have left this record
        observable(system, 0.4)
        assert calls == {"enumerate_terms": 1, "coeffs_at": 1}


def record_bits(ev):
    """Every bit of an evolved record: the scalars, the classes and the arrays."""
    c = ev.coeffs
    scalars = np.array([c.f1, c.f2, c.f3, c.B1N, c.B2N, c.D, ev.norm], dtype=complex)
    return [scalars.tobytes(), ev.kind] + [
        getattr(ev, name).tobytes() for name in ("prefactor", "ab1", "ab2", "abp1", "abp2")]


def observable_bits(system, t):
    """The bits of every observable that reads the record, at one point."""
    spec = ca.GridSpec(-7.0, 7.0, -6.0, 6.0, 21, 17)
    values = [
        *(dataclasses.astuple(f) for f in (ca.two_mode_squeezing(system, t),
                                            ca.single_mode_squeezing(1, system, t),
                                            ca.single_mode_squeezing(2, system, t))),
        ca.moment(1, 1, 0, 1, system, t), ca.moment(0, 2, 2, 0, system, t),
        ca.factorial_moments(system, t, 4),
        ca.factorial_moments(system, t, 3, scope="single", mode=2),
    ]
    arrays = [ca.sum_pnd(system, t, n_max=40).probs, ca.wigner_grid(system, t, spec).values]
    # repr round-trips every float and keeps the sign of zero
    return [repr(values)] + [a.tobytes() for a in arrays]


def fresh_bits(system, t):
    """record_bits of a record built now, never served from the cache."""
    return record_bits(ca.coeffs._evolve.__wrapped__(system, t))


def builds(calls):
    """How many records evolve_terms builds for the (system, t) calls, from an
    empty cache; the records are returned too."""
    ca.coeffs._evolve.cache_clear()
    records = [ca.evolve_terms(system, t) for system, t in calls]
    return ca.coeffs._evolve.cache_info().misses, records


class TestEvolveMemo:
    # evolve_terms hands the last record out again while an equal (system, t)
    # comes back; equal keys build identical bits, so no output depends on
    # which of them built the record
    def test_same_system_and_t_return_the_same_record(self):
        system = make_system("even", 1.1, "odd", 0.7, gamma=0.3, nbar=0.2)
        t = 0.4
        assert ca.evolve_terms(system, t) is ca.evolve_terms(system, t)

    def test_equal_but_distinct_system_shares_the_record(self):
        system = make_system("even", 1.1, "odd", 0.7, gamma=0.3, nbar=0.2)
        twin = dataclasses.replace(system)
        assert twin == system and twin is not system
        n, (ev, ev_twin) = builds([(system, 0.4), (twin, 0.4)])
        assert n == 1 and ev_twin is ev
        assert record_bits(ev) == fresh_bits(twin, 0.4)

    def test_a_twin_built_field_by_field_hashes_equal(self):
        # a System keeps its first hash: a twin built anew from the same field
        # values computes its own, equal to it and to the generated tuple hash,
        # and dataclasses.replace builds an object with a hash of its own
        system = make_system("yss", 0.9, "even", 1.2, gamma=0.5, nbar=0.1, pump=0.8)
        first = hash(system)
        twin = ca.System(ca.CatSpec(**dataclasses.asdict(system.cat1)),
                         ca.CatSpec(**dataclasses.asdict(system.cat2)),
                         ca.AmplifierParams(**dataclasses.asdict(system.params)))
        moved = dataclasses.replace(system, params=ca.AmplifierParams(1.3, 0.8, 0.5))
        assert twin == system and twin is not system
        assert hash(twin) == first == hash(system) == hash((system.cat1, system.cat2, system.params))
        assert hash(moved) == hash((moved.cat1, moved.cat2, moved.params)) != first
        n, (ev, ev_twin, ev_moved) = builds([(system, 0.4), (twin, 0.4), (moved, 0.4)])
        assert n == 2 and ev_twin is ev and ev_moved is not ev
        assert record_bits(ev_moved) == fresh_bits(moved, 0.4)

    def test_t_types_share_the_record(self):
        system = make_system("yss", 0.9, "even", 1.2, gamma=0.5, nbar=0.1, pump=0.8)
        n, records = builds([(system, t) for t in (0.35, np.float64(0.35), np.array(0.35))])
        assert n == 1 and all(ev is records[0] for ev in records)
        assert record_bits(records[0]) == fresh_bits(system, 0.35)

    def test_signed_zeros_share_one_record(self):
        # a -0.0 in t builds other bits than 0.0 (the sign reaches f2), so t
        # is read and every System field stored with a zero as +0.0
        system = make_system("yss", 0.9, "even", 1.2, gamma=0.5, nbar=0.1, pump=0.8)
        assert fresh_bits(system, -0.0) != fresh_bits(system, 0.0)
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            n, (_, ev) = builds([(system, first), (system, second)])
            assert n == 1 and record_bits(ev) == fresh_bits(system, 0.0)
        # equal System objects whose amplitude phase or gain is 0.0 and -0.0
        zeros = (0.0, -0.0)
        pairs = {"amp_phase": [dataclasses.replace(system, cat1=ca.CatSpec(1.3, z, math.pi))
                               for z in zeros],
                 "g": [dataclasses.replace(system, params=ca.AmplifierParams(z, 0.8, 0.5))
                       for z in zeros]}
        for field, (plus, minus) in pairs.items():
            assert plus == minus, field
            for first, second in ((plus, minus), (minus, plus)):
                n, (_, ev) = builds([(first, 0.3), (second, 0.3)])
                assert n == 1 and record_bits(ev) == fresh_bits(plus, 0.3), field

    def test_interleaved_systems_match_fresh_builds(self, monkeypatch):
        a = make_system("even", 1.1, "yss", 0.8, psi1=0.3, gamma=0.4, nbar=0.2, pump=0.7)
        b = make_system("odd", 0.6, "even", 1.4, psi2=-0.5, gamma=1.2, nbar=0.5)
        t = 0.45
        with monkeypatch.context() as patch:
            for module in (ca.charfn, ca.photon_stats, ca.wigner):
                patch.setattr(module, "evolve_terms", ca.coeffs._evolve.__wrapped__)
            fresh = {id(s): observable_bits(s, t) for s in (a, b)}
        for system in (a, b, a):
            assert observable_bits(system, t) == fresh[id(system)]

    def test_threads_sharing_the_memo_read_their_own_records(self):
        # the cache is keyed by value, so a thread never gets another
        # thread's record, even when switching every 1 us
        systems = [make_system("even", 0.5 + 0.2 * i, "odd", 0.7, gamma=0.1 * i, nbar=0.2)
                   for i in range(6)]
        t = 0.35
        expected = [record_bits(ca.coeffs._evolve(s, t)) for s in systems]
        mismatches = []

        def worker(i):
            for _ in range(300):
                if record_bits(ca.evolve_terms(systems[i], t)) != expected[i]:
                    mismatches.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(systems))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_record_arrays_are_read_only(self):
        ev = ca.evolve_terms(make_system("even", 1.1, "odd", 0.7), 0.4)
        for name in ("prefactor", "ab1", "ab2", "abp1", "abp2"):
            with pytest.raises(ValueError):
                getattr(ev, name)[0] = 0.0

    def test_a_0d_array_t_is_read_by_value(self):
        # a 0-d array is the same object after its value changes
        system = make_system("even", 1.0, "odd", 0.5)
        t = np.array(0.3)
        assert ca.moment(1, 1, 0, 0, system, t) == ca.moment(1, 1, 0, 0, system, 0.3)
        t[...] = 0.6
        assert ca.moment(1, 1, 0, 0, system, t) == ca.moment(1, 1, 0, 0, system, 0.6)
        assert ca.evolve_terms(system, t) is ca.evolve_terms(system, 0.6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_failed_build_leaves_the_memo_alone(self, bad):
        system = make_system("even", 1.1, "odd", 0.7, gamma=0.3)
        t = 0.4
        ev = ca.evolve_terms(system, t)
        for _ in range(2):
            with pytest.raises(ValueError, match="t must be finite"):
                ca.evolve_terms(system, bad)
        assert ca.evolve_terms(system, t) is ev
