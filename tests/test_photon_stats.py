import dataclasses
import functools
import importlib.util
import itertools
import math
import pathlib
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import eval_laguerre

import catamp as ca
from catamp import oracle, photon_stats
from catamp.photon_stats import TruncationWarning, _taylor_coefficients
from catamp.rho_terms import _ADJOINT

from conftest import CAT_MAKERS, amplifiers, cats, make_system, random_cat, swap_modes


# renormalization band of the reference ladder's running pair, and the log of its step
_SMALL, _BIG = 1e-100, 1e100
_LN_1E200 = 200.0 * math.log(10.0)


def _ladder(x: complex, xy: complex, c: complex, n: int) -> np.ndarray:
    """Values e^c * x^m * L_m(xy / x) for m = 0..n, by renormalized recurrence.

    The reference for the generating-function kernel: written in (x, xy) the
    recurrence is regular at x = 0; a floating shift keeps the running pair
    inside float range and is folded back per order, so genuinely tiny values
    underflow to 0 and genuinely huge intermediate magnitudes survive.
    """
    shift = c.real
    prev = complex(math.cos(c.imag), math.sin(c.imag))  # e^{i Im c}
    cur = x * prev - xy * prev
    vals = np.empty(n + 1, dtype=complex)
    vals[:2] = (prev, cur)[: n + 1]
    marks = [(0, shift)]  # (first order, shift) at each renormalization
    for m in range(1, n):
        nxt = ((x * (2 * m + 1) - xy) * cur - m * x * x * prev) / (m + 1)
        mag = max(abs(nxt), abs(cur))
        if mag > _BIG or 0.0 < mag < _SMALL:
            scale, step = (1e-200, _LN_1E200) if mag > _BIG else (1e200, -_LN_1E200)
            nxt, cur, shift = nxt * scale, cur * scale, shift + step
            marks.append((m + 1, shift))
        prev, cur = cur, nxt
        vals[m + 1] = cur
    starts, values = zip(*marks)
    shifts = np.repeat(values, np.diff([*starts, n + 1]))
    with np.errstate(over="ignore", under="ignore"):
        vals *= np.exp(shifts, out=shifts)
    return vals


def eigen_split(ev):
    """The two-channel form of every row's sum generating function, the reference.

    G(s) = prod_+/- exp(A_+/- u / (1 + lambda_+/- u)) / (1 + lambda_+/- u): the
    thermal weights lambda_+/- are the roots of Delta(u) = (1 + lambda_+ u)(1 + lambda_- u),
    the eigenvalues of the noise covariance, and the coherent weights solve
    a = A_+ + A_-, b = A_+ lambda_- + A_- lambda_+.  Taken from the kernel's own
    (T, K, a, b) in 50-digit arithmetic; at lambda_+ = lambda_- (b = a lambda) the
    whole of a goes to one channel.  Returns mpmath numbers, A_+/- as (16,) lists.
    """
    t_coef, k_coef, a, b = ca.generating_quantities(ev)
    with mpmath.workdps(50):
        t_coef, k_coef = mpmath.mpf(t_coef), mpmath.mpf(k_coef)
        disc = mpmath.sqrt(max(t_coef**2 - 4 * k_coef, 0))
        lam_p, lam_m = (t_coef + disc) / 2, (t_coef - disc) / 2
        a, b = [mpmath.mpc(x) for x in a], [mpmath.mpc(x) for x in b]
        a_plus = [x if disc == 0 else (x * lam_p - y) / disc for x, y in zip(a, b)]
        a_minus = [x - xp for x, xp in zip(a, a_plus)]
    return lam_p, lam_m, a_plus, a_minus


def float_split(ev):
    """eigen_split rounded to floats: lambda_+/- and (16,) complex arrays A_+/-."""
    lam_p, lam_m, a_plus, a_minus = eigen_split(ev)
    return (float(lam_p), float(lam_m), np.array([complex(x) for x in a_plus]),
            np.array([complex(x) for x in a_minus]))


def laguerre(n, x):
    """L_n(x) from the factorial-moment recurrence of photon_stats at T = 1, K = b = 0."""
    x = np.asarray(x, dtype=complex)
    rows = _taylor_coefficients(1.0, 0.0, x.ravel().tolist(), [0j] * x.size, n)
    return np.array([series[n] for series in rows]).reshape(x.shape)[()]


class TestLaguerre:
    # the factorial-moment recurrence at K = b = 0 is the Laguerre recurrence
    def test_low_orders(self):
        assert laguerre(0, 3.7) == 1.0
        assert laguerre(1, 3.7) == pytest.approx(1.0 - 3.7)
        # standard convention: L_2(0) = 1 (a convention with an extra n!
        # would give 2 here; the factorials live in the series prefactors)
        assert laguerre(2, 0.0) == pytest.approx(1.0)
        assert laguerre(2, 1.5) == pytest.approx(1.0 - 2 * 1.5 + 1.5**2 / 2)

    @pytest.mark.parametrize("n", [3, 17, 64, 200, 512])
    def test_against_scipy(self, n, rng):
        xs = rng.uniform(-20.0, 40.0, size=8)
        got = laguerre(n, xs)
        ref = eval_laguerre(n, xs)
        assert np.allclose(got, ref, rtol=1e-8, atol=1e-8)

    def test_complex_argument(self):
        z = 0.7 - 1.3j
        # recurrence agrees with the explicit quadratic
        assert laguerre(2, z) == pytest.approx(1.0 - 2 * z + z * z / 2)

    def test_invalid_order(self):
        system = make_system("even", 1.0, "odd", 0.8)
        for scope in ("compound", "single"):
            for k in (-1, 2.0, math.nan, "2"):
                with pytest.raises(ValueError, match="k must be an integer >= 0"):
                    ca.factorial_moments(system, 0.3, k, scope=scope)

    def test_invalid_mode(self):
        # k = 0 too reads the chosen mode before it answers
        system = make_system("even", 1.0, "odd", 0.8)
        for k in (0, 2):
            for mode in (0, 7):
                with pytest.raises(ValueError, match="mode must be 1 or 2"):
                    ca.factorial_moments(system, 0.3, k, scope="single", mode=mode)


def random_system(rng):
    return ca.System(random_cat(rng), random_cat(rng),
                     ca.AmplifierParams(g=float(rng.uniform(0.2, 1.5)),
                                        pump_phase=float(rng.uniform(0, 6)),
                                        gamma1=float(rng.uniform(0, 2)),
                                        gamma2=float(rng.uniform(0, 2)),
                                        nbar1=float(rng.uniform(0, 1)),
                                        nbar2=float(rng.uniform(0, 1))))


class TestGeneratingQuantities:
    def test_root_identities(self, rng):
        # Delta(u) = 1 + T u + K u^2 is det(I + u Sigma) of the noise covariance,
        # and one mode's is its own factor 1 + B_jN u
        for _ in range(30):
            system = random_system(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ev = ca.evolve_terms(system, float(rng.uniform(0, 1.2)))
            c = ev.coeffs
            sigma = np.array([[c.B1N, c.D], [c.D.conjugate(), c.B2N]])
            scale = 1.0 + c.B1N + c.B2N
            for u in (0.3, 1.0, -0.7 + 0.4j, np.exp(2.1j) - 1.0):
                for mode, block in ((None, sigma), (1, sigma[:1, :1]), (2, sigma[1:, 1:])):
                    t_coef, k_coef, _, _ = ca.generating_quantities(ev, mode)
                    det = np.linalg.det(np.eye(len(block)) + u * block)
                    assert 1.0 + t_coef * u + k_coef * u * u == pytest.approx(
                        det, abs=1e-12 * scale**2)

    def test_split_matches_the_record(self, rng):
        # the two thermal channels from B and D, and A_+/- by partial fractions
        # over the record's drift amplitudes, give back the kernel's a and b
        for _ in range(10):
            ev = ca.evolve_terms(random_system(rng), float(rng.uniform(0.05, 1.2)))
            b1, b2, d = ev.coeffs.B1N, ev.coeffs.B2N, ev.coeffs.D
            disc = math.sqrt((b1 - b2) ** 2 + 4.0 * abs(d) ** 2)
            lam_p, lam_m = 0.5 * (b1 + b2 + disc), 0.5 * (b1 + b2 - disc)
            c1, c2 = ev.ab1 * ev.abp1, ev.ab2 * ev.abp2
            cross = ev.abp1 * ev.abp2 * d + ev.ab1 * ev.ab2 * d.conjugate()
            a_plus = -(cross - c1 * (b2 - lam_p) - c2 * (b1 - lam_p)) / disc
            a_minus = (cross - c1 * (b2 - lam_m) - c2 * (b1 - lam_m)) / disc
            _, _, a, b = ca.generating_quantities(ev)
            split = float_split(ev)
            scale = 1.0 + b1 + b2
            assert split[:2] == pytest.approx((lam_p, lam_m), abs=1e-12 * scale)
            assert np.allclose(a, a_plus + a_minus, rtol=1e-12, atol=1e-12)
            assert np.allclose(b, a_plus * lam_m + a_minus * lam_p, rtol=1e-9, atol=1e-9 * scale)
            assert np.allclose(split[2], a_plus, rtol=1e-9, atol=1e-9)
            assert np.allclose(split[3], a_minus, rtol=1e-9, atol=1e-9)

    def test_vacuum_undamped_split(self):
        # B = sinh^2 and |D| = sinh cosh: T = 2 sinh^2, K = -sinh^2, and the
        # thermal weights split as sinh^2 +- sinh cosh, the lower one negative
        system = make_system("even", 0.0, "even", 0.0, pump=0.4)
        t = 0.6
        ev = ca.evolve_terms(system, t)
        t_coef, k_coef, _, _ = ca.generating_quantities(ev)
        s, c = math.sinh(t), math.cosh(t)
        assert t_coef == pytest.approx(2.0 * s * s, rel=1e-12)
        assert k_coef == pytest.approx(-s * s, rel=1e-12)
        lam_p, lam_m, _, _ = float_split(ev)
        assert lam_p == pytest.approx(s * s + s * c, rel=1e-12)
        assert lam_m == pytest.approx(s * s - s * c, rel=1e-12)
        assert lam_m < 0.0

    def test_t0_reduces_to_initial_amplitudes(self):
        system = make_system("even", 1.1, "yss", 0.8, psi1=0.5)
        ev = ca.evolve_terms(system, 0.0)
        c1, c2 = ev.ab1 * ev.abp1, ev.ab2 * ev.abp2
        t_coef, k_coef, a, b = ca.generating_quantities(ev)
        assert t_coef == pytest.approx(0.0, abs=1e-12)
        assert k_coef == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(b)) <= 1e-12
        assert np.max(np.abs(a + c1 + c2)) <= 1e-12
        for mode, cj in ((1, c1), (2, c2)):
            t_coef, k_coef, a, b = ca.generating_quantities(ev, mode)
            assert (t_coef, k_coef) == pytest.approx((0.0, 0.0), abs=1e-12)
            assert np.array_equal(a, -cj) and not np.any(b)

    def test_matches_direct_gaussian_integral(self, rng):
        # the generating function in determinant form equals the closed
        # 4-dimensional Gaussian integral of the characteristic function
        system = ca.System(random_cat(rng, 1.4), random_cat(rng, 1.4),
                           ca.AmplifierParams(g=0.9, pump_phase=1.9,
                                              gamma1=0.7, gamma2=0.3,
                                              nbar1=0.4, nbar2=0.6))
        t = 0.52
        ev = ca.evolve_terms(system, t)
        coeffs = ev.coeffs
        t_coef, k_coef, a, b = ca.generating_quantities(ev)
        for i in range(6):
            pref, ab1, ab2, abp1, abp2 = (ev.prefactor[i], ev.ab1[i], ev.ab2[i],
                                          ev.abp1[i], ev.abp2[i])
            for lam in (0.35, 1.0):
                delta = 1.0 + t_coef * lam + k_coef * lam * lam
                via_det = pref / delta * np.exp(lam * (a[i] + b[i] * lam) / delta)
                # real 4x4 Gaussian: zeta_j = x_j + i y_j
                m = np.zeros((4, 4))
                m[0, 0] = m[1, 1] = 1.0 / lam + coeffs.B1N
                m[2, 2] = m[3, 3] = 1.0 / lam + coeffs.B2N
                d = coeffs.D
                # 2 Re(D zeta1 zeta2) as a quadratic form in (x1,y1,x2,y2)
                quad = np.array([
                    [0, 0, d.real, -d.imag],
                    [0, 0, -d.imag, -d.real],
                    [d.real, -d.imag, 0, 0],
                    [-d.imag, -d.real, 0, 0],
                ])
                m -= quad
                vec = np.array([ab1 - abp1, 1j * (ab1 + abp1),
                                ab2 - abp2, 1j * (ab2 + abp2)])
                sol = np.linalg.solve(m, vec)
                direct = (
                    pref
                    / (lam**2 * math.sqrt(np.linalg.det(m)))
                    * np.exp(0.25 * np.dot(vec, sol))
                )
                assert via_det == pytest.approx(direct, rel=1e-9)


class TestLadder:
    def test_matches_plain_evaluation(self):
        x, y = 0.6, -2.3
        vals = _ladder(complex(x), complex(x * y), 0j, 8)
        for m in range(9):
            assert vals[m] == pytest.approx(x**m * eval_laguerre(m, y), rel=1e-12)

    def test_zero_thermal_weight_gives_poisson_factors(self):
        c1 = 1.7
        vals = _ladder(0j, complex(-c1), complex(-c1), 12)
        for m in range(13):
            expect = math.exp(-c1) * c1**m / math.factorial(m)
            assert vals[m].real == pytest.approx(expect, rel=1e-12)

    def test_extreme_scale_survives(self):
        # e^c underflows float range alone; combined values stay finite
        vals = _ladder(complex(-0.497), complex(5000.0 * -0.497 * 0.503 / 1.0),
                       complex(-900.0), 400)
        assert np.all(np.isfinite(vals))


class TestSumPnd:
    def test_normalization_random(self, rng):
        for _ in range(6):
            system = ca.System(random_cat(rng, 1.6), random_cat(rng, 1.6),
                               ca.AmplifierParams(g=1.0, pump_phase=1.0,
                                                  gamma1=0.4, gamma2=0.9,
                                                  nbar1=0.3, nbar2=0.2))
            dist = ca.sum_pnd(system, float(rng.uniform(0.0, 0.8)))
            assert dist.total == pytest.approx(1.0, abs=1e-8)
            assert np.min(dist.probs) > -1e-10

    def test_small_case_matches_oracle(self):
        system = make_system("even", 0.8, "even", 0.8, pump=np.pi / 2)
        t = 0.3
        state = oracle.build_initial(system.cat1, system.cat2, 30, 30)
        evolved = oracle.evolve(state, system.params, t)
        ref = oracle.pnd_sum(evolved)
        dist = ca.sum_pnd(system, t, n_max=len(ref) - 1)
        assert np.max(np.abs(dist.probs - ref)) < 1e-8

    def test_fig6_parity(self):
        # amplified even (x) even input keeps the photon-number sum even
        system = ca.System(ca.CatSpec.even(3.0), ca.CatSpec.even(2.0),
                           ca.AmplifierParams(g=1e4, pump_phase=np.pi / 2))
        dist = ca.sum_pnd(system, 3e-4)
        assert dist.total == pytest.approx(1.0, abs=1e-8)
        assert abs(np.sum(dist.probs[1::2])) < 1e-10

    def test_class_parts_sum_and_signs(self):
        system = ca.System(ca.CatSpec.even(3.0), ca.CatSpec.even(2.0),
                           ca.AmplifierParams(g=1e4, pump_phase=np.pi / 2))
        dist = ca.sum_pnd(system, 3e-4)
        total = sum(dist.class_parts.values())
        assert np.max(np.abs(total - dist.probs)) < 1e-15
        si = dist.class_parts[ca.TermClass.SYM_INTERFERENCE]
        # the symmetric-interference part oscillates through both signs
        assert si.min() < -1e-5 and si.max() > 1e-5

    def test_phase_structure_kills_interference_classes(self):
        # even (x) yurke-stoler: the symmetric class and the idler-side
        # asymmetric terms cancel exactly by phase; the signal-side
        # asymmetric terms survive only at a dynamically suppressed level
        system = ca.System(ca.CatSpec.even(3.0), ca.CatSpec.yurke_stoler(2.0),
                           ca.AmplifierParams(g=1e4, pump_phase=np.pi / 2))
        dist = ca.sum_pnd(system, 3e-4)
        si = dist.class_parts[ca.TermClass.SYM_INTERFERENCE]
        ai = dist.class_parts[ca.TermClass.ASYM_INTERFERENCE]
        assert np.max(np.abs(si)) < 1e-15
        assert np.max(np.abs(ai)) < 1e-3 * dist.probs.max()

    def test_n_max_must_be_a_nonnegative_integer(self):
        system = make_system("even", 1.0, "odd", 0.8)
        for n_max in (-1, 2.5, 40.0, math.nan, "40"):
            with pytest.raises(ValueError, match="n_max must be an integer >= 0"):
                ca.sum_pnd(system, 0.3, n_max=n_max)
            for mode in (1, 2):
                with pytest.raises(ValueError, match="n_max must be an integer >= 0"):
                    ca.single_pnd(mode, system, 0.3, n_max=n_max)
        assert ca.sum_pnd(system, 0.3, n_max=np.int64(40)).n_max == 40

    def test_capped_automatic_truncation_returns_its_n_max(self, monkeypatch):
        # when the automatic truncation stops at the cap short of the tail
        # target, the returned n_max is the one the probabilities were computed at
        monkeypatch.setattr(photon_stats, "_AUTO_N_MAX_CAP", 5)
        system = make_system("even", 1.0, "odd", 0.8)
        with pytest.warns(TruncationWarning):
            dists = (ca.sum_pnd(system, 0.3), ca.single_pnd(1, system, 0.3))
        for dist in dists:
            assert dist.n_max == 5
            assert len(dist.probs) == dist.n_max + 1

    def test_automatic_truncation_is_capped(self):
        # a strongly amplified signal asks for millions of photon numbers; the
        # automatic choice stops at the cap and the tail is reported instead
        system = ca.System(ca.CatSpec.even(2.0), ca.CatSpec.odd(1.5), ca.AmplifierParams(g=1.0))
        with pytest.warns(TruncationWarning):
            dist = ca.single_pnd(1, system, 6.0)
        assert dist.n_max == photon_stats._AUTO_N_MAX_CAP == 2**20
        assert len(dist.probs) == dist.n_max + 1

    def test_truncation_warning(self):
        system = make_system("even", 1.5, "even", 1.0)
        with pytest.warns(TruncationWarning):
            ca.sum_pnd(system, 0.8, n_max=6)

    def test_non_finite_distribution_warns(self):
        # at g t = 30 the generating function leaves float range: every P(n)
        # is NaN, so the tail mass is NaN, which no tolerance comparison flags
        system = make_system("even", 1.0, "odd", 1.0, pump=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow in exp
            with pytest.warns(TruncationWarning, match="distribution is not finite"):
                dist = ca.sum_pnd(system, 30.0, n_max=100)
        assert np.isnan(dist.probs).all()

    def test_convention_audit_regression(self):
        # reading the series with standard Laguerre polynomials while keeping
        # the printed per-order factorials breaks normalization and the oracle
        # match; this pins the resolved convention
        system = make_system("even", 0.8, "even", 0.8, pump=np.pi / 2)
        t = 0.3
        ev = ca.evolve_terms(system, t)
        lp, lm, a_plus, a_minus = float_split(ev)
        dp, dm = 1.0 + lp, 1.0 + lm
        n_max = 30
        wrong = np.zeros(n_max + 1)
        for i in range(16):
            pref = ev.prefactor[i] / (dp * dm) * np.exp(a_plus[i] / dp + a_minus[i] / dm)
            for n in range(n_max + 1):
                acc = 0j
                for el in range(n + 1):
                    acc += (
                        (lm / dm) ** (n - el) * (lp / dp) ** el
                        * eval_laguerre(n - el, a_minus[i] / (lm * dm))
                        * eval_laguerre(el, a_plus[i] / (lp * dp))
                        / (math.factorial(n - el) * math.factorial(el))
                    )
                wrong[n] += (ev.norm * pref * acc).real
        correct = ca.sum_pnd(system, t, n_max=n_max).probs
        assert abs(np.sum(wrong) - 1.0) > 1e-3
        assert np.max(np.abs(wrong - correct)) > 1e-3


class TestSinglePnd:
    def test_even_cat_parity_at_t0(self):
        system = make_system("even", 1.4, "even", 0.9)
        dist = ca.single_pnd(1, system, 0.0)
        assert abs(np.sum(dist.probs[1::2])) < 1e-12
        assert dist.total == pytest.approx(1.0, abs=1e-10)

    def test_yurke_stoler_is_poissonian_at_t0(self):
        mag = 1.3
        system = make_system("yss", mag, "even", 0.7)
        dist = ca.single_pnd(1, system, 0.0, n_max=40)
        n = np.arange(41)
        pois = np.exp(-mag**2) * mag ** (2 * n) / np.array(
            [math.factorial(int(k)) for k in n])
        assert np.max(np.abs(dist.probs - pois)) < 1e-12

    def test_small_case_matches_oracle(self):
        system = ca.System(ca.CatSpec.odd(0.8, 0.4), ca.CatSpec.even(1.0),
                           ca.AmplifierParams(g=1.0, pump_phase=1.2))
        t = 0.3
        state = oracle.build_initial(system.cat1, system.cat2, 28, 28)
        evolved = oracle.evolve(state, system.params, t)
        for mode in (1, 2):
            ref = oracle.pnd_single(evolved, mode)
            dist = ca.single_pnd(mode, system, t, n_max=len(ref) - 1)
            assert np.max(np.abs(dist.probs - ref)) < 1e-8

    def test_fig3_parity_flip(self):
        # oscillation parity of the signal distribution flips with the
        # sign of the phase mismatch
        argmaxes = {}
        for label, pump in (("plus", np.pi / 2), ("minus", -np.pi / 2)):
            system = ca.System(ca.CatSpec.yurke_stoler(3.0),
                               ca.CatSpec.yurke_stoler(2.0),
                               ca.AmplifierParams(g=1.0, pump_phase=pump))
            dist = ca.single_pnd(1, system, 0.55)
            argmaxes[label] = int(np.argmax(dist.probs))
        assert argmaxes["plus"] % 2 != argmaxes["minus"] % 2

    def test_mean_consistent_with_moment(self, rng):
        system = ca.System(random_cat(rng, 1.4), random_cat(rng, 1.4),
                           ca.AmplifierParams(g=0.8, pump_phase=0.2,
                                              gamma1=0.5, gamma2=0.5,
                                              nbar1=0.4, nbar2=0.4))
        t = 0.6
        dist = ca.single_pnd(1, system, t)
        mean_moment = ca.moment(1, 1, 0, 0, system, t).real
        assert dist.mean() == pytest.approx(mean_moment, abs=1e-8)


class TestFactorialMoments:
    def test_zeroth_is_one(self):
        system = make_system("even", 1.0, "odd", 0.8)
        assert ca.factorial_moments(system, 0.3, 0) == (1.0, 0.0)

    def test_first_matches_moments(self, rng):
        system = ca.System(random_cat(rng, 1.5), random_cat(rng, 1.5),
                           ca.AmplifierParams(g=1.0, pump_phase=2.7,
                                              gamma1=0.3, gamma2=1.0,
                                              nbar1=0.1, nbar2=0.8))
        t = 0.45
        w1, _ = ca.factorial_moments(system, t, 1)
        expect = (ca.moment(1, 1, 0, 0, system, t)
                  + ca.moment(0, 0, 1, 1, system, t)).real
        assert w1 == pytest.approx(expect, abs=1e-10)

    def test_second_matches_fourth_order_moments(self, rng):
        system = ca.System(random_cat(rng, 1.2), random_cat(rng, 1.2),
                           ca.AmplifierParams(g=0.9, pump_phase=0.5))
        t = 0.38
        w2, _ = ca.factorial_moments(system, t, 2)
        expect = (ca.moment(2, 2, 0, 0, system, t)
                  + ca.moment(0, 0, 2, 2, system, t)
                  + 2.0 * ca.moment(1, 1, 1, 1, system, t)).real
        assert w2 == pytest.approx(expect, rel=1e-10)

    def test_coherent_term_is_poissonian_at_t0(self):
        # a diagonal coherent element (plain coherent input) has exactly
        # Poissonian factorial moments before any evolution; row 0 is the
        # diagonal coherent element |1.3>|0.9><0.9|<1.3|
        system = ca.System(ca.CatSpec.even(1.3), ca.CatSpec.even(0.9), ca.AmplifierParams(g=1.0))
        lam_p, lam_m, a_plus, a_minus = float_split(ca.evolve_terms(system, 0.0))
        mean = 1.3**2 + 0.9**2
        for k in (1, 2, 3, 5):
            lp = _ladder(complex(lam_p), a_plus[0], 0j, k)
            lm = _ladder(complex(lam_m), a_minus[0], 0j, k)
            wk = (math.factorial(k) * np.dot(lm[::-1], lp)).real
            assert wk == pytest.approx(mean**k, rel=1e-12)

    def test_large_cat_approaches_poissonian(self):
        # component overlap e^{-2|alpha|^2} sets the deviation scale
        system = make_system("even", 2.5, "even", 2.0)
        for k in (2, 3):
            _, kc = ca.factorial_moments(system, 0.0, k)
            assert abs(kc) < 5e-3

    def test_matches_oracle(self):
        system = ca.System(ca.CatSpec.even(1.0, 0.3),
                           ca.CatSpec.yurke_stoler(0.8, 0.9),
                           ca.AmplifierParams(g=1.0, pump_phase=0.7))
        t = 0.35
        state = oracle.build_initial(system.cat1, system.cat2, 25, 25)
        evolved = oracle.evolve(state, system.params, t)
        for k in (1, 2, 3, 5):
            wk, _ = ca.factorial_moments(system, t, k)
            ref = oracle.factorial_moment(evolved, k)
            assert wk == pytest.approx(ref, rel=1e-6)
        for k in (1, 2, 4):
            wk, _ = ca.factorial_moments(system, t, k, scope="single", mode=2)
            ref = oracle.factorial_moment(evolved, k, scope="single", mode=2)
            assert wk == pytest.approx(ref, rel=1e-6)

    def test_order_bound(self):
        system = make_system("even", 1.0, "even", 1.0)
        with pytest.raises(ValueError):
            ca.factorial_moments(system, 0.1, 65)

    def test_first_normalized_is_nan_at_zero_mean(self):
        # <W>/<W> - 1 is NaN at <W> = 0 (vacuum, no evolution) and exactly 0 elsewhere
        vacuum = ca.System(ca.CatSpec.even(0.0), ca.CatSpec.even(0.0), ca.AmplifierParams(g=0.0))
        _, system, t = SWEEP[0]
        for scope, mode in (("compound", 1), ("single", 1), ("single", 2)):
            w1, kc = ca.factorial_moments(vacuum, 0.0, 1, scope=scope, mode=mode)
            assert w1 == 0.0 and math.isnan(kc)
            w1, kc = ca.factorial_moments(system, t, 1, scope=scope, mode=mode)
            assert w1 > 0.0 and kc == 0.0


# --- the parity-paired FFT kernel against the direct 16-term formula -----------------


def direct_sum_parts(system, t, n_max):
    """Class parts of P(n1 + n2): per-row ladders and np.convolve over all 16 rows."""
    ev = ca.evolve_terms(system, t)
    lam_p, lam_m, a_plus, a_minus = float_split(ev)
    dp, dm = 1.0 + lam_p, 1.0 + lam_m
    parts = {kind: np.zeros(n_max + 1, dtype=complex) for kind in ca.TermClass}
    for i in range(16):
        u = _ladder(lam_p / dp, a_plus[i] / dp**2, a_plus[i] / dp, n_max)
        v = _ladder(lam_m / dm, a_minus[i] / dm**2, a_minus[i] / dm, n_max)
        parts[ev.kind[i]] += ev.prefactor[i] / (dp * dm) * np.convolve(u, v)[: n_max + 1]
    return {kind: ev.norm * arr.real for kind, arr in parts.items()}


def _row_c1(ev, i, mode):
    return ev.ab1[i] * ev.abp1[i] if mode == 1 else ev.ab2[i] * ev.abp2[i]


def direct_single(mode, system, t, n_max):
    ev = ca.evolve_terms(system, t)
    b = ev.coeffs.B1N if mode == 1 else ev.coeffs.B2N
    acc = np.zeros(n_max + 1, dtype=complex)
    for i in range(16):
        c1 = _row_c1(ev, i, mode)
        acc += ev.prefactor[i] / (1 + b) * _ladder(b / (1 + b), -c1 / (1 + b) ** 2,
                                                   -c1 / (1 + b), n_max)
    return ev.norm * acc.real


def direct_factorial(system, t, k, scope, mode=1):
    ev = ca.evolve_terms(system, t)
    lam_p, lam_m, a_plus, a_minus = float_split(ev)
    total = 0j
    for i in range(16):
        if scope == "compound":
            lp = _ladder(complex(lam_p), a_plus[i], 0j, k)
            lm = _ladder(complex(lam_m), a_minus[i], 0j, k)
            val = np.dot(lm[::-1], lp)
        else:
            b = ev.coeffs.B1N if mode == 1 else ev.coeffs.B2N
            val = _ladder(complex(b), -_row_c1(ev, i, mode), 0j, k)[k]
        total += ev.prefactor[i] * val
    return float((ev.norm * math.factorial(k) * total).real)


_LOSSES = {"lossless": (0.0, 0.0), "damped": (0.6, 0.6), "asymmetric": (0.2, 1.1)}


def sweep_systems():
    """Every cat-kind pair under each loss setting, fixed-seed amplitudes and times."""
    rng = np.random.default_rng(4)
    for (k1, k2), (loss, (g1, g2)) in itertools.product(
            itertools.product(CAT_MAKERS, repeat=2), _LOSSES.items()):
        params = ca.AmplifierParams(g=1.0, pump_phase=float(rng.uniform(0, 6.3)),
                                    gamma1=g1, gamma2=g2, nbar1=0.3 * (g1 > 0), nbar2=0.2)
        system = ca.System(CAT_MAKERS[k1](float(rng.uniform(0.3, 3.0)), float(rng.uniform(0, 6.3))),
                           CAT_MAKERS[k2](float(rng.uniform(0.3, 3.0)), float(rng.uniform(0, 6.3))),
                           params)
        yield f"{k1}-{k2}-{loss}", system, float(rng.uniform(0.05, 2.2))


SWEEP = list(sweep_systems())


class TestPairedKernel:
    @pytest.mark.parametrize("label, system, t", SWEEP, ids=[c[0] for c in SWEEP])
    def test_sum_pnd_matches_direct_formula(self, label, system, t):
        dist = ca.sum_pnd(system, t)
        ref = direct_sum_parts(system, t, dist.n_max)
        scale = max(np.max(np.abs(p)) for p in ref.values())
        for kind, part in ref.items():
            assert np.max(np.abs(dist.class_parts[kind] - part)) <= 1e-12 * scale
        assert np.max(np.abs(dist.probs - sum(ref.values()))) <= 1e-12 * scale
        for mode in (1, 2):
            single = ca.single_pnd(mode, system, t)
            ref1 = direct_single(mode, system, t, single.n_max)
            assert np.max(np.abs(single.probs - ref1)) <= 1e-12 * np.max(np.abs(ref1))

    @pytest.mark.parametrize("label, system, t", SWEEP[::3], ids=[c[0] for c in SWEEP[::3]])
    def test_factorial_moments_match_direct_formula(self, label, system, t):
        for k in (1, 2, 5):
            for scope, mode in (("compound", 1), ("single", 1), ("single", 2)):
                wk, _ = ca.factorial_moments(system, t, k, scope=scope, mode=mode)
                assert wk == pytest.approx(direct_factorial(system, t, k, scope, mode),
                                           rel=1e-12)

    @pytest.mark.parametrize("label, system, t", SWEEP, ids=[c[0] for c in SWEEP])
    def test_parity_partners_share_quadratic_quantities(self, label, system, t):
        ev = ca.evolve_terms(system, t)
        weights = [ca.generating_quantities(ev, mode)[2:] for mode in (None, 1, 2)]

        def bits(i):
            values = [w[i] for pair in weights for w in pair]
            return np.array(values, dtype=complex).view(np.uint64).tolist()

        for i in range(16):
            assert ev.kind[15 - i] == ev.kind[i]
            assert bits(15 - i) == bits(i)

    @pytest.mark.parametrize("label, system, t", SWEEP, ids=[c[0] for c in SWEEP])
    def test_adjoint_rows_are_conjugates(self, label, system, t):
        # the evolved state stays Hermitian: paired row _ADJOINT[i] carries the
        # conjugate (p, a, b) of row i, to rounding, for the sum and each mode
        ev = ca.evolve_terms(system, t)
        p = ev.prefactor[:8] + ev.prefactor[:7:-1]
        for mode in (None, 1, 2):
            for row in (p, *ca.generating_quantities(ev, mode)[2:]):
                scale = max(np.max(np.abs(row[:8])), 1e-300)
                assert np.max(np.abs(row[:8][_ADJOINT] - row[:8].conj())) <= 1e-12 * scale

    @pytest.mark.filterwarnings("ignore::catamp.photon_stats.TruncationWarning")
    @pytest.mark.parametrize("label, system, t", SWEEP, ids=[c[0] for c in SWEEP])
    def test_kernel_rows_are_exact_adjoint_conjugates(self, label, system, t, monkeypatch):
        # the (p, a, b) rows the kernel receives, in row order: row _ADJOINT[i]
        # equals row i's conjugate (as floats: a self-adjoint row's imaginary
        # +0.0 conjugates to -0.0), and they are the reference's rows
        calls = []
        kernel = photon_stats._real_coefficients
        monkeypatch.setattr(photon_stats, "_real_coefficients",
                            lambda *args: calls.append(args) or kernel(*args))
        ev = ca.evolve_terms(system, t)
        for mode in (None, 1, 2):
            calls.clear()
            if mode is None:
                ca.sum_pnd(system, t, n_max=8)
            else:
                ca.single_pnd(mode, system, t, n_max=8)
            _, _, kernel_rows, _ = calls[0]
            rows = np.array([row[1:] for row in kernel_rows])
            assert np.array_equal(rows[_ADJOINT], rows.conj())
            assert rows.tobytes() == np.array(symmetrized_rows(ev, mode)).tobytes()


# --- the generating-function kernel: aliasing, a 40-digit reference, overflow ----------


# even(2) (x) odd(1.5) at g t = 4: lambda_- is near -1/2, so one channel's pole
# 1 + 1/lambda_- lies just outside the unit circle, and n_max is about 1e5
STRONG = ca.System(ca.CatSpec.even(2.0), ca.CatSpec.odd(1.5),
                   ca.AmplifierParams(g=1.0, pump_phase=0.3))
STRONG_T = 4.0


class TestGeneratingFunctionKernel:
    @pytest.mark.parametrize("label, system, t", SWEEP[1::4], ids=[c[0] for c in SWEEP[1::4]])
    def test_doubling_the_circle_changes_nothing(self, label, system, t):
        # n_max = 2m + 1 doubles the number of roots of unity: the aliased
        # mass P(n + N) + ... beyond the auto truncation is below 1e-15
        m = ca.sum_pnd(system, t).n_max
        small, large = ca.sum_pnd(system, t, n_max=m), ca.sum_pnd(system, t, n_max=2 * m + 1)
        assert np.max(np.abs(small.probs - large.probs[: m + 1])) <= 1e-15
        for kind in ca.TermClass:
            assert np.max(np.abs(small.class_parts[kind]
                                 - large.class_parts[kind][: m + 1])) <= 1e-15
        for mode in (1, 2):
            m = ca.single_pnd(mode, system, t).n_max
            small = ca.single_pnd(mode, system, t, n_max=m)
            large = ca.single_pnd(mode, system, t, n_max=2 * m + 1)
            assert np.max(np.abs(small.probs - large.probs[: m + 1])) <= 1e-15

    def test_class_parts_match_a_40_digit_convolution(self):
        # the kernel's own T, K, a, b split into lambda_+/-, A_+/- and, with the
        # paired prefactors, carried through 40-digit ladders and a direct
        # convolution at a few n
        ev = ca.evolve_terms(STRONG, STRONG_T)
        lam_p, lam_m, a_plus, a_minus = eigen_split(ev)
        dist = ca.sum_pnd(STRONG, STRONG_T)
        ns = (1000, 3000, 10000)
        with mpmath.workdps(40):

            def ladder(lam, a):
                # e^{A/(1+lam)} x^m L_m(y), x = lam/(1+lam), x y = A/(1+lam)^2
                den = 1 + lam
                x, xy = lam / den, a / den**2
                prev, cur = mpmath.mpf(1), x - xy
                vals = [prev, cur]
                for m in range(1, ns[-1]):
                    prev, cur = cur, ((x * (2 * m + 1) - xy) * cur - m * x * x * prev) / (m + 1)
                    vals.append(cur)
                return mpmath.exp(a / den) / den, vals

            ref = {kind: [mpmath.mpf(0)] * len(ns) for kind in ca.TermClass}
            for i in range(8):
                pref = mpmath.mpc(ev.prefactor[i]) + mpmath.mpc(ev.prefactor[15 - i])
                fu, u = ladder(lam_p, a_plus[i])
                fv, v = ladder(lam_m, a_minus[i])
                for j, n in enumerate(ns):
                    conv = mpmath.fsum(u[k] * v[n - k] for k in range(n + 1))
                    ref[ev.kind[i]][j] += mpmath.re(pref * fu * fv * conv) * ev.norm
            ref = {kind: np.array([float(v) for v in vals]) for kind, vals in ref.items()}
        for kind, vals in ref.items():
            assert np.max(np.abs(dist.class_parts[kind][list(ns)] - vals)) <= 2e-16
        assert np.max(np.abs(dist.probs[list(ns)] - sum(ref.values()))) <= 2e-16

    def test_overflowing_factorial_moment_is_inf_not_nan(self):
        # <W^64> of the sum exceeds float range here; the single-mode one does not
        wk, kc = ca.factorial_moments(STRONG, STRONG_T, 64)
        assert wk == math.inf and kc == math.inf
        for mode in (1, 2):
            wk, kc = ca.factorial_moments(STRONG, STRONG_T, 64, scope="single", mode=mode)
            assert not (math.isnan(wk) or math.isnan(kc))


# --- the kernel against a per-row reference loop --------------------------------------


def loop_coefficients(t_coef, k_coef, rows, n_max, size=None):
    """The reference for the kernel: one array pass per row (kind, p, a, b),
    accumulated per class from zero in row order, one irfft per class, at the
    kernel's FFT length unless a size is given."""
    size = size or photon_stats._fft_length(2 * (n_max + 1))
    u = -np.expm1(np.arange(size // 2 + 1) * (-2j * math.pi / size))
    den = 1.0 + t_coef * u + k_coef * u * u
    w = u / den
    uw = u * w
    sums = {}
    for kind, p, a, b in rows:
        acc = sums.setdefault(kind, np.zeros_like(u))
        z = a * w + b * uw
        acc += p * np.exp(z, out=z)
    return {kind: np.fft.irfft(acc / den, size)[: n_max + 1] for kind, acc in sums.items()}


def symmetrized_rows(ev, mode):
    """The 8 paired rows (p, a, b), each averaged with the conjugate of its
    adjoint, row _ADJOINT[i], one scalar at a time."""
    _, _, a, b = ca.generating_quantities(ev, mode)
    rows = list(zip((ev.prefactor[:8] + ev.prefactor[:7:-1]).tolist(),
                    a[:8].tolist(), b[:8].tolist()))
    return [tuple(0.5 * (x + y.conjugate()) for x, y in zip(row, rows[j]))
            for row, j in zip(rows, _ADJOINT)]


def loop_pnd(system, t, n_max, mode, size=None):
    """P(n) and the class parts from loop_coefficients on the symmetrized
    rows, summed part by part."""
    ev = ca.evolve_terms(system, t)
    t_coef, k_coef, _, _ = ca.generating_quantities(ev, mode)
    kinds, order = (ev.kind[:8], ca.TermClass) if mode is None else ((None,) * 8, (None,))
    rows = ((kind, *row) for kind, row in zip(kinds, symmetrized_rows(ev, mode)))
    coeffs = loop_coefficients(t_coef, k_coef, rows, n_max, size)
    parts = {kind: ev.norm * coeffs[kind] for kind in order}
    return functools.reduce(np.add, parts.values()), parts


# the kernel samples N / 2 + 1 points, N = _fft_length(2 (n_max + 1)): the odd
# counts 501, 512 + 1, 512 + 29, 3 * 512 + 1 and 4 * 512 + 113.  Exactly 512
# samples (N = 1022) cannot be reached: N / 2 = 511 = 7 * 73 is not 5-smooth.
BLOCK = 512
EDGE_N_MAX = (BLOCK - 13, BLOCK - 1, BLOCK, 3 * BLOCK - 1, 4 * BLOCK)
EDGE_SAMPLES = (501, BLOCK + 1, BLOCK + 29, 3 * BLOCK + 1, 4 * BLOCK + 113)
FIG6 = ca.System(ca.CatSpec.even(3.0), ca.CatSpec.even(2.0),
                 ca.AmplifierParams(g=1e4, pump_phase=np.pi / 2))


def assert_matches_row_loop(system, t, n_max):
    dist = ca.sum_pnd(system, t, n_max=n_max)
    probs, parts = loop_pnd(system, t, dist.n_max, None)
    assert dist.probs.tobytes() == probs.tobytes()
    for kind in ca.TermClass:
        assert dist.class_parts[kind].tobytes() == parts[kind].tobytes()
    for mode in (1, 2):
        dist = ca.single_pnd(mode, system, t, n_max=n_max)
        probs, _ = loop_pnd(system, t, dist.n_max, mode)
        assert dist.probs.tobytes() == probs.tobytes()


class TestBlockKernelReference:
    """_real_coefficients (one array pass per row) bit for bit against the row loop."""

    def test_edge_sample_counts(self):
        assert tuple(photon_stats._fft_length(2 * (n + 1)) // 2 + 1
                     for n in EDGE_N_MAX) == EDGE_SAMPLES

    @pytest.mark.filterwarnings("ignore::catamp.photon_stats.TruncationWarning")
    @pytest.mark.parametrize("label, system, t", SWEEP, ids=[c[0] for c in SWEEP])
    def test_sweep_at_block_edges(self, label, system, t):
        for n_max in (None, *EDGE_N_MAX):
            assert_matches_row_loop(system, t, n_max)

    def test_figure_6(self):
        assert ca.sum_pnd(FIG6, 3e-4).n_max == 18383
        assert_matches_row_loop(FIG6, 3e-4, None)

    @pytest.mark.filterwarnings("ignore::catamp.photon_stats.TruncationWarning")
    def test_sum_keeps_a_negative_zero(self, monkeypatch):
        # at 5-smooth FFT lengths no sweep distribution holds a P(n) of -0.0
        # (none at any length up to 29 160), so one is made: with every class
        # part -0.0 at n = 3, P(3) is -0.0, as the part-by-part sum gives
        kernel = photon_stats._real_coefficients

        def with_negative_zero(*args):
            coeffs = kernel(*args)
            coeffs[:, 3] = -0.0
            return coeffs

        monkeypatch.setattr(photon_stats, "_real_coefficients", with_negative_zero)
        system, t = SWEEP[0][1:]
        for dist in (ca.sum_pnd(system, t, n_max=40), ca.single_pnd(1, system, t, n_max=40)):
            assert dist.probs[3] == 0.0 and math.copysign(1.0, dist.probs[3]) == -1.0
            if dist.class_parts is not None:
                total = functools.reduce(np.add, dist.class_parts.values())
                assert dist.probs.tobytes() == total.tobytes()


class TestKernelMemory:
    def test_working_set_is_a_few_sample_vectors(self):
        # the kernel holds the samples, the class sums and one row's terms at a
        # time, never the (8, N / 2 + 1) terms of all rows: figure 6's
        # distributions peak below 12 vectors of N / 2 + 1 complex samples
        for pnd in (ca.sum_pnd, functools.partial(ca.single_pnd, 1)):
            pnd(FIG6, 3e-4)  # the record is cached and numpy.fft imported before tracing
            tracemalloc.start()
            try:
                dist = pnd(FIG6, 3e-4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            vector = 16 * (photon_stats._fft_length(2 * (dist.n_max + 1)) // 2 + 1)
            assert peak < 12 * vector


# --- automatic truncation: one kernel call, at a 5-smooth FFT length -------------------


def _benchmark_inputs():
    """The benchmark's seeded input generators (standard library only)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_REL_PHASE = {"even": 0.0, "odd": math.pi, "yurke_stoler": math.pi / 2}


def _input_system(spec):
    def cat(d):
        return ca.CatSpec(d["amp_mag"], d["amp_phase"], _REL_PHASE[d["kind"]])

    return ca.System(cat(spec["cat1"]), cat(spec["cat2"]), ca.AmplifierParams(**spec["params"]))


class TestAutomaticTruncation:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = photon_stats._real_coefficients

        def counted(*args):
            calls.append(args[-1])
            return kernel(*args)

        monkeypatch.setattr(photon_stats, "_real_coefficients", counted)
        return calls

    @pytest.mark.parametrize("workload, seed, modes", [
        ("scan_small", 1, (None, 2)), ("scan_small", 7, (None, 2)), ("pnd_large", 1, (None, 1))])
    def test_one_kernel_call_meets_the_target(self, kernel_calls, workload, seed, modes):
        # the benchmark's own distributions: sum_pnd and the single_pnd it times
        for spec in getattr(_benchmark_inputs(), workload)(seed):
            system, t = _input_system(spec), spec["t"]
            for mode in modes:
                kernel_calls.clear()
                dist = ca.sum_pnd(system, t) if mode is None else ca.single_pnd(mode, system, t)
                assert kernel_calls == [dist.n_max] == [len(dist.probs) - 1]
                assert 1.0 - dist.total <= photon_stats._AUTO_TAIL_TARGET

    @pytest.mark.parametrize("t", [0.0, 1e-12])
    def test_no_evolution_needs_few_photon_numbers(self, t):
        # the grid of s is absolute, not scaled to the pole: at t = 0 there is
        # no pole, and the cats alone need a few dozen photon numbers
        for cat1, cat2 in itertools.product(
                (ca.CatSpec.even(2.0, 0.4), ca.CatSpec.odd(0.3), ca.CatSpec.yurke_stoler(2.0)),
                repeat=2):
            system = ca.System(cat1, cat2, ca.AmplifierParams(
                g=1.5, gamma1=2.0, gamma2=0.5, nbar1=1.0, nbar2=0.3))
            for dist in (ca.sum_pnd(system, t), *(ca.single_pnd(m, system, t) for m in (1, 2))):
                assert dist.n_max < 64
                assert 1.0 - dist.total <= photon_stats._AUTO_TAIL_TARGET


def _brute_fft_length(n):
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    return next(m for m in itertools.count(max(n, 2)) if m % 2 == 0 and smooth(m))


class TestFftLength:
    def test_least_even_5_smooth_length(self):
        assert all(photon_stats._fft_length(n) == _brute_fft_length(n) for n in range(10**4 + 1))
        past_cap = 2 * (photon_stats._AUTO_N_MAX_CAP + 1) + 2 * 3**5
        assert photon_stats._fft_length(past_cap) == _brute_fft_length(past_cap)

    @pytest.mark.filterwarnings("ignore::catamp.photon_stats.TruncationWarning")
    def test_explicit_n_max_keeps_its_rows(self):
        system = make_system("even", 1.5, "yss", 1.0)
        for n_max in (0, 1, 7, 478, 4789):
            assert len(ca.sum_pnd(system, 0.4, n_max=n_max).probs) == n_max + 1
            assert len(ca.single_pnd(2, system, 0.4, n_max=n_max).probs) == n_max + 1

    @pytest.mark.filterwarnings("ignore::catamp.photon_stats.TruncationWarning")
    @pytest.mark.parametrize("label, system, t", SWEEP[::4], ids=[c[0] for c in SWEEP[::4]])
    def test_matches_the_unpadded_length(self, label, system, t):
        # the longer circle moves only the aliased mass, which lies beyond twice
        # a truncation that holds the tail, and the rounding, which scales with
        # the total mass 1: within 1e-15 of the row loop at N = 2 (n_max + 1),
        # at the automatic n_max and past it
        for mode in (None, 1, 2):
            pnd = ca.sum_pnd if mode is None else functools.partial(ca.single_pnd, mode)
            auto = pnd(system, t).n_max
            for n_max in (auto, auto + 7, 4789):
                probs, _ = loop_pnd(system, t, n_max, mode, 2 * (n_max + 1))
                assert np.max(np.abs(pnd(system, t, n_max=n_max).probs - probs)) <= 1e-15


def test_ladder_matches_mpmath_through_renormalizations():
    # x -> 0 with xy = c makes e^c * (-xy)^m / m!, close to a Poisson ladder of
    # mean 1000: the unscaled recurrence climbs past 1e400 and then falls below
    # 1e-400, so the running pair is renormalized down and then up
    x, xy, c, n = 1e-5 + 2e-6j, -1000.0 + 30.0j, -1000.0 + 0.4j, 4000
    got = _ladder(x, xy, c, n)
    with mpmath.workdps(40):
        mx, mxy = mpmath.mpc(x), mpmath.mpc(xy)
        prev, cur = mpmath.mpc(1), mx - mxy
        unscaled = [prev, cur]
        for m in range(1, n):
            prev, cur = cur, ((mx * (2 * m + 1) - mxy) * cur - m * mx * mx * prev) / (m + 1)
            unscaled.append(cur)
        mags = [abs(v) for v in unscaled]
        assert max(mags) > mpmath.mpf("1e400") > mpmath.mpf("1e-400") > min(mags[1000:])
        ref = [complex(mpmath.exp(mpmath.mpc(c)) * v) for v in unscaled]
    ref = np.array(ref)
    shown = np.abs(ref) > 1e-290
    assert shown.sum() > 1500
    assert np.all(np.abs(got[shown] - ref[shown]) <= 1e-10 * np.abs(ref[shown]))
    assert np.all(np.abs(got[~shown]) < 1e-280)


# --- a 50-digit power-series reference near the degenerate noise covariance ------------


def mp_rows(ev, mode):
    """T, K and the 16 rows' (p, a, b) from the float record, in mpmath."""
    c = ev.coeffs
    b1, b2, d = mpmath.mpf(c.B1N), mpmath.mpf(c.B2N), mpmath.mpc(c.D)
    rows = []
    for i in range(16):
        ab1, ab2, abp1, abp2 = (mpmath.mpc(x[i]) for x in (ev.ab1, ev.ab2, ev.abp1, ev.abp2))
        c1, c2 = ab1 * abp1, ab2 * abp2
        if mode is None:
            cross = abp1 * abp2 * d + ab1 * ab2 * mpmath.conj(d)
            rows.append((mpmath.mpc(ev.prefactor[i]), -(c1 + c2), cross - c1 * b2 - c2 * b1))
        else:
            rows.append((mpmath.mpc(ev.prefactor[i]), -(c1 if mode == 1 else c2), 0))
    if mode is None:
        return b1 + b2, b1 * b2 - abs(d) ** 2, rows
    return (b1 if mode == 1 else b2), 0, rows


def mp_series(den, num, n):
    """Coefficients 0..n of exp(num(x) / den(x)) / den(x) for quadratics den, num:
    1/den by its own recurrence, exp by the J.C.P. Miller recurrence, then their product."""
    inv = [1 / den[0]]
    for m in range(1, n + 1):
        inv.append(-(den[1] * inv[m - 1] + (den[2] * inv[m - 2] if m > 1 else 0)) / den[0])
    expo = [sum(num[j] * inv[m - j] for j in range(3) if j <= m) for m in range(n + 1)]
    ex = [mpmath.exp(expo[0])]
    for m in range(1, n + 1):
        ex.append(sum(j * expo[j] * ex[m - j] for j in range(1, m + 1)) / m)
    return [sum(ex[j] * inv[m - j] for j in range(m + 1)) for m in range(n + 1)]


def mp_factorial_moments(ev, ks, mode):
    """<W^k> for k in ks: k! [v^k] of G(1 + v) = exp(-v (a - b v) / P) / P, P = 1 - T v + K v^2."""
    with mpmath.workdps(50):
        t_coef, k_coef, rows = mp_rows(ev, mode)
        total = [0] * (max(ks) + 1)
        for p, a, b in rows:
            coefs = mp_series((1, -t_coef, k_coef), (0, -a, b), max(ks))
            total = [x + p * y for x, y in zip(total, coefs)]
        return [float(mpmath.re(ev.norm * total[k]) * mpmath.factorial(k)) for k in ks]


def mp_sum_pnd(ev, n_max):
    """P(0..n_max) of n1 + n2: [s^n] of exp(u (a + b u) / Delta(u)) / Delta(u), u = 1 - s."""
    with mpmath.workdps(50):
        t_coef, k_coef, rows = mp_rows(ev, None)
        den = (1 + t_coef + k_coef, -(t_coef + 2 * k_coef), k_coef)
        total = [0] * (n_max + 1)
        for p, a, b in rows:
            coefs = mp_series(den, (a + b, -(a + 2 * b), b), n_max)
            total = [x + p * y for x, y in zip(total, coefs)]
        return np.array([float(mpmath.re(ev.norm * x)) for x in total])


# equal losses and reservoirs with a weak pump: the noise covariance is nearly
# a multiple of the identity, so its two eigenvalues nearly coincide
NEAR_DEGENERATE = [ca.System(ca.CatSpec.even(1.1), ca.CatSpec.odd(0.8),
                             ca.AmplifierParams(g=g, gamma1=0.5, gamma2=0.5,
                                                nbar1=0.3, nbar2=0.3)) for g in (1e-6, 1e-9)]


@pytest.mark.parametrize("system", NEAR_DEGENERATE, ids=["g1e-6", "g1e-9"])
class TestNearDegenerateCovariance:
    t = 0.7

    def test_factorial_moments_match_a_50_digit_series(self, system):
        ev = ca.evolve_terms(system, self.t)
        ks = (5, 20, 64)
        for scope, mode in (("compound", None), ("single", 1), ("single", 2)):
            ref = mp_factorial_moments(ev, ks, mode)
            got = [ca.factorial_moments(system, self.t, k, scope=scope, mode=mode or 1)[0]
                   for k in ks]
            assert got == pytest.approx(ref, rel=1e-12, abs=0)

    def test_sum_pnd_matches_a_50_digit_series(self, system):
        dist = ca.sum_pnd(system, self.t)
        ref = mp_sum_pnd(ca.evolve_terms(system, self.t), dist.n_max)
        assert np.max(np.abs(dist.probs - ref)) <= 1e-14 * np.max(ref)


# --- property-based invariants of the auto-truncated sum distribution -------------------


@settings(derandomize=True, max_examples=30, deadline=None)
@given(cat1=cats, cat2=cats, params=amplifiers, t=st.floats(0.0, 1.0))
def test_sum_pnd_invariants(cat1, cat2, params, t):
    system = ca.System(cat1, cat2, params)
    dist = ca.sum_pnd(system, t)
    expect = (ca.moment(1, 1, 0, 0, system, t) + ca.moment(0, 0, 1, 1, system, t)).real
    marginals = [ca.single_pnd(mode, system, t) for mode in (1, 2)]
    swapped_marginals = [ca.single_pnd(mode, swap_modes(system), t, n_max=m.n_max)
                         for mode, m in zip((2, 1), marginals)]
    assert abs(dist.total - 1.0) <= 1e-8
    assert dist.probs.min() >= -1e-12 * dist.probs.max()
    # the truncated support misses the tail's first moment, at most about
    # twice (n_max + 1) times the tail mass for these geometric tails
    deficit = expect - dist.mean()
    tail_moment = 2.0 * (dist.n_max + 1) * max(0.0, 1.0 - dist.total)
    assert -1e-8 * max(1.0, expect) <= deficit <= 1e-8 * max(1.0, expect) + tail_moment
    for mine, theirs in zip(marginals, swapped_marginals):
        assert np.max(np.abs(mine.probs - theirs.probs)) <= 1e-12


@settings(derandomize=True, max_examples=25, deadline=None)
@given(cat1=cats, cat2=cats, params=amplifiers, t=st.floats(0.0, 1.0))
def test_uncoupled_modes_convolve(cat1, cat2, params, t):
    # at g = 0 each mode evolves alone, so the sum distribution is the
    # convolution of the two marginals, for any losses and reservoirs
    system = ca.System(cat1, cat2, dataclasses.replace(params, g=0.0))
    dist = ca.sum_pnd(system, t)
    p1, p2 = (ca.single_pnd(mode, system, t, n_max=dist.n_max).probs for mode in (1, 2))
    conv = np.convolve(p1, p2)[: dist.n_max + 1]
    assert np.max(np.abs(dist.probs - conv)) <= 1e-14 * np.max(dist.probs)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(cat1=cats, cat2=cats, params=amplifiers, t=st.floats(0.0, 1.0))
@example(cat1=ca.CatSpec.even(2.0), cat2=ca.CatSpec.yurke_stoler(1.5, 0.4),
         params=ca.AmplifierParams(g=1.5, pump_phase=1.2, gamma1=0.2, gamma2=1.9,
                                   nbar1=1.0, nbar2=0.3), t=1.0)
def test_distribution_factorial_moments_match(cat1, cat2, params, t):
    # sum_pnd's P(n) and the closed-form <W^k> share only the evolved record;
    # the truncated tail holds at most (2 (n_max + 1))^k times its mass of n^(k)
    system = ca.System(cat1, cat2, params)
    dist = ca.sum_pnd(system, t)
    moments = [ca.factorial_moments(system, t, k)[0] for k in (1, 2, 3)]
    n = np.arange(dist.n_max + 1, dtype=float)
    tail = max(0.0, 1.0 - dist.total)
    falling = np.ones_like(n)
    for k, wk in zip((1, 2, 3), moments):
        falling *= n - (k - 1)
        deficit = wk - float(np.dot(falling, dist.probs))
        tolerance = 1e-10 * max(1.0, wk)
        assert -tolerance <= deficit <= tolerance + (2.0 * (dist.n_max + 1)) ** k * tail


def cat_distribution(cat, n_max):
    """P(n) of the cat itself: N^2 e^{-|a|^2} |a|^{2n} / n! |1 + e^{i phi} (-1)^n|^2."""
    n = np.arange(n_max + 1)
    poisson = np.exp(-cat.amp_mag**2 + 2 * n * np.log(cat.amp_mag)
                     - np.array([math.lgamma(k + 1) for k in n]))
    return ca.normalization(cat) * poisson * np.abs(1 + np.exp(1j * cat.rel_phase) * (-1.0) ** n) ** 2


@settings(derandomize=True, max_examples=25, deadline=None)
@given(cat1=cats, cat2=cats, params=amplifiers)
@example(cat1=ca.CatSpec.odd(0.3), cat2=ca.CatSpec.yurke_stoler(2.0, 3.0),
         params=ca.AmplifierParams(g=1.0))
def test_single_pnd_at_t0_is_the_input_cat(cat1, cat2, params):
    system = ca.System(cat1, cat2, params)
    for mode, cat in ((1, cat1), (2, cat2)):
        dist = ca.single_pnd(mode, system, 0.0, n_max=40)
        expect = cat_distribution(cat, 40)
        assert np.max(np.abs(dist.probs - expect)) <= 1e-13 * np.max(expect)
