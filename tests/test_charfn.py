import cmath
import itertools
import math

import numpy as np
import pytest

import catamp as ca
from catamp import oracle
from catamp.charfn import _char_terms
from catamp.rho_terms import coherent_overlap

from conftest import make_system, random_cat


# --- reference: moments by polynomial differentiation of the exponent -----------
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
    out = {}

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


def derived_moment_rows(orders, ev):
    """The 16 rows' contributions to one normally ordered moment."""
    c = ev.coeffs
    lin = (ev.ab1, -ev.abp1, ev.ab2, -ev.abp2)
    quad = {"mB1": -c.B1N, "mB2": -c.B2N, "D": c.D, "Dc": c.D.conjugate()}
    poly = {(0, 0, 0, 0): np.ones(16, dtype=complex)}
    for var, count, sign in zip(range(4), orders, (1, -1, 1, -1)):
        for _ in range(count):
            poly = _derive(poly, var, lin, quad, sign)
    return poly[(0, 0, 0, 0)] * ev.prefactor


@pytest.fixture(scope="module")
def evolved_pair():
    """A complex-amplitude configuration and its Fock-space evolution."""
    system = ca.System(
        ca.CatSpec.even(1.0, 0.3),
        ca.CatSpec.yurke_stoler(0.8, 5.783185307179586),  # -0.5 canonicalized
        ca.AmplifierParams(g=1.0, pump_phase=0.7),
    )
    t = 0.35
    state = oracle.build_initial(system.cat1, system.cat2, 25, 25)
    return system, t, oracle.evolve(state, system.params, t)


class TestCharFunction:
    def test_trace_normalization(self, rng):
        for _ in range(8):
            system = ca.System(random_cat(rng), random_cat(rng),
                               ca.AmplifierParams(g=1.0, pump_phase=1.4,
                                                  gamma1=0.3, gamma2=0.8,
                                                  nbar1=0.2, nbar2=0.5))
            val = ca.char_full(system, float(rng.uniform(0, 1)), 0j, 0j)
            assert val == pytest.approx(1.0, abs=1e-12)

    def test_coherent_term_at_t0(self):
        # diagonal coherent element reduces to the textbook form
        system = make_system("even", 1.1, "even", 0.6)
        table, _ = ca.enumerate_terms(system.cat1, system.cat2)
        ev = ca.evolve_terms(system, 0.0)
        z1 = 0.4 - 0.2j
        val = _char_terms(ev, z1, 0j)[0]  # row 0: (+,+,+,+) diagonal
        a1 = table.a1_ket[0]
        assert val == pytest.approx(cmath.exp(z1 * np.conj(a1) - np.conj(z1) * a1))

    def test_single_mode_is_zeta2_slice(self, rng):
        # at zeta2 = 0 only the signal's noise and drift amplitudes remain
        system = make_system("yss", 1.3, "odd", 0.9, psi1=0.7)
        t = 0.45
        ev = ca.evolve_terms(system, t)
        for _ in range(5):
            z = complex(rng.normal(), rng.normal()) * 0.5
            signal = ev.norm * np.sum(ev.prefactor * np.exp(
                -abs(z) ** 2 * ev.coeffs.B1N + z * ev.ab1 - np.conj(z) * ev.abp1))
            assert ca.char_full(system, t, z, 0j) == pytest.approx(signal, rel=1e-13)

    def test_hermiticity_property(self, rng):
        # C(-z1, -z2) = conj(C(z1, z2)) for a hermitian state
        system = ca.System(random_cat(rng), random_cat(rng),
                           ca.AmplifierParams(g=0.9, pump_phase=2.2,
                                              gamma1=0.5, gamma2=1.1,
                                              nbar1=0.4, nbar2=0.1))
        t = 0.6
        for _ in range(100):
            z1 = complex(rng.normal(), rng.normal()) * 0.5
            z2 = complex(rng.normal(), rng.normal()) * 0.5
            lhs = ca.char_full(system, t, -z1, -z2)
            rhs = np.conj(ca.char_full(system, t, z1, z2))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_t0_marginal_matches_cat_characteristic_function(self):
        # direct four-overlap expansion of the single-mode cat function
        cat = ca.CatSpec.even(1.2, 0.5)
        system = ca.System(cat, ca.CatSpec.even(0.7), ca.AmplifierParams(g=1.0))
        n2 = ca.normalization(cat)
        alpha = cat.amplitude
        for z in (0.3 + 0.1j, -0.6 + 0.9j):
            expect = 0j
            for sk in (1, -1):
                for sb in (1, -1):
                    w = cmath.exp(1j * cat.rel_phase * ((sk < 0) - (sb < 0)))
                    k, b = sk * alpha, sb * alpha
                    expect += w * coherent_overlap(b, k) * cmath.exp(
                        z * np.conj(b) - np.conj(z) * k
                    )
            expect *= n2
            got = ca.char_full(system, 0.0, z, 0j)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_matches_fock_oracle(self, rng, evolved_pair):
        system, t, evolved = evolved_pair
        for _ in range(10):
            z1 = complex(rng.normal(), rng.normal()) * 0.4
            z2 = complex(rng.normal(), rng.normal()) * 0.4
            ref = oracle.char_fn(evolved, z1, z2)
            got = ca.char_full(system, t, z1, z2)
            assert abs(got - ref) < 1e-8
            # single-mode slice against the oracle as well
            ref1 = oracle.char_fn(evolved, z1, 0j)
            got1 = ca.char_full(system, t, z1, 0j)
            assert abs(got1 - ref1) < 1e-8


class TestMoments:
    def test_order_bound(self):
        system = make_system("even", 1.0, "even", 1.0)
        with pytest.raises(ca.OrderTooHigh):
            ca.moment(2, 1, 1, 1, system, 0.1)
        with pytest.raises(ValueError):
            ca.moment(-1, 0, 0, 0, system, 0.1)
        for orders, name in (((1.0, 1, 0, 0), "m1"), ((0, 0, 1, 0.5), "n2"),
                             ((0, "1", 0, 0), "n1")):
            with pytest.raises(ValueError, match=f"{name} must be an integer >= 0"):
                ca.moment(*orders, system, 0.1)

    def test_even_cat_mean_photon_number(self):
        # Fock-sum oracle for the even cat's mean photon number
        mag = 1.0
        system = make_system("even", mag, "even", 0.5)
        n = np.arange(0, 80, 2)
        weights = np.exp(-mag**2) * mag ** (2 * n) / np.array(
            [math.factorial(int(k)) for k in n]
        )
        fock_sum = 4.0 * ca.normalization(ca.CatSpec.even(mag)) * float(
            np.sum(n * weights)
        )
        got = ca.moment(1, 1, 0, 0, system, 0.0)
        assert got.real == pytest.approx(fock_sum, rel=1e-12)
        assert got.real == pytest.approx(mag**2 * math.tanh(mag**2), rel=1e-12)

    def test_vacuum_first_moments_vanish(self):
        system = make_system("even", 0.0, "even", 0.0, gamma=0.7, nbar=0.6)
        for t in (0.0, 0.4, 1.1):
            assert abs(ca.moment(0, 1, 0, 0, system, t)) < 1e-14
            assert abs(ca.moment(0, 0, 1, 0, system, t)) < 1e-14

    def test_vacuum_anomalous_moment_equals_conj_d(self):
        system = make_system("even", 0.0, "even", 0.0, pump=1.3)
        t = 0.5
        d = ca.coeffs_at(system.params, t).D
        got = ca.moment(0, 1, 0, 1, system, t)  # <A1 A2>
        assert got == pytest.approx(np.conj(d), rel=1e-12)

    def test_finite_difference_consistency(self, rng):
        # central differences of the characteristic function reproduce moments
        system = ca.System(random_cat(rng, 1.5), random_cat(rng, 1.5),
                           ca.AmplifierParams(g=1.1, pump_phase=0.8,
                                              gamma1=0.6, gamma2=0.2,
                                              nbar1=0.3, nbar2=0.9))
        t = 0.37
        h = 1e-4

        def c(z1, z2):
            return ca.char_full(system, t, z1, z2)

        def d_z(f, which):
            # Wirtinger derivative via central differences in x and y
            def out(z1, z2):
                if which == 0:
                    fx = (f(z1 + h, z2) - f(z1 - h, z2)) / (2 * h)
                    fy = (f(z1 + 1j * h, z2) - f(z1 - 1j * h, z2)) / (2 * h)
                else:
                    fx = (f(z1, z2 + h) - f(z1, z2 - h)) / (2 * h)
                    fy = (f(z1, z2 + 1j * h) - f(z1, z2 - 1j * h)) / (2 * h)
                return 0.5 * (fx - 1j * fy)
            return out

        def d_zc(f, which):
            def out(z1, z2):
                if which == 0:
                    fx = (f(z1 + h, z2) - f(z1 - h, z2)) / (2 * h)
                    fy = (f(z1 + 1j * h, z2) - f(z1 - 1j * h, z2)) / (2 * h)
                else:
                    fx = (f(z1, z2 + h) - f(z1, z2 - h)) / (2 * h)
                    fy = (f(z1, z2 + 1j * h) - f(z1, z2 - 1j * h)) / (2 * h)
                return 0.5 * (fx + 1j * fy)
            return out

        # <A1+ A1> = d/dz1 (-d/dz1*) C at 0
        fd = -d_z(d_zc(c, 0), 0)(0j, 0j)
        assert fd == pytest.approx(ca.moment(1, 1, 0, 0, system, t), rel=1e-6)
        # <A1 A2> = (-d/dz1*)(-d/dz2*) C
        fd = d_zc(d_zc(c, 0), 1)(0j, 0j)
        assert fd == pytest.approx(ca.moment(0, 1, 0, 1, system, t), rel=1e-6)
        # <A2+ A2>
        fd = -d_z(d_zc(c, 1), 1)(0j, 0j)
        assert fd == pytest.approx(ca.moment(0, 0, 1, 1, system, t), rel=1e-6)

    def test_isserlis_matches_polynomial_differentiation(self, rng):
        # every order <= 4 on damped systems, within 1e-15 of the rows' scale
        orders = [o for o in itertools.product(range(5), repeat=4)
                  if sum(o) <= ca.MAX_MOMENT_ORDER]
        assert len(orders) == 70
        for _ in range(20):
            system = ca.System(random_cat(rng), random_cat(rng),
                               ca.AmplifierParams(g=float(rng.uniform(0.2, 1.5)),
                                                  pump_phase=float(rng.uniform(0, 6)),
                                                  gamma1=float(rng.uniform(0, 2)),
                                                  gamma2=float(rng.uniform(0, 2)),
                                                  nbar1=float(rng.uniform(0, 1)),
                                                  nbar2=float(rng.uniform(0, 1))))
            t = float(rng.uniform(0, 1.2))
            ev = ca.evolve_terms(system, t)
            for order in orders:
                rows = ev.norm * derived_moment_rows(order, ev)
                got = ca.moment(*order, system, t)
                assert abs(got - sum(rows.tolist())) <= 1e-15 * np.sum(np.abs(rows))

    def test_fourth_order_matches_oracle(self, evolved_pair):
        system, t, evolved = evolved_pair
        for orders in ((2, 2, 0, 0), (1, 1, 1, 1), (0, 2, 2, 0)):
            got = ca.moment(*orders, system, t)
            ref = oracle.fock_moment(evolved, *orders)
            assert abs(got - ref) < 1e-8
