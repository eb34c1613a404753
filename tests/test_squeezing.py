import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

import catamp as ca
from catamp import oracle
from catamp.squeezing import _f_even, _f_odd

from conftest import amplifiers, cats, make_system, random_cat, swap_modes


class TestSingleMode:
    def test_vacuum_factors_vanish(self):
        system = make_system("even", 0.0, "even", 0.0)
        sq = ca.single_mode_squeezing(1, system, 0.0)
        assert sq.S == pytest.approx(0.0, abs=1e-14)
        assert sq.Q == pytest.approx(0.0, abs=1e-14)

    def test_even_even_matches_closed_form(self, rng):
        # generic moment machinery against the specialized expression
        for _ in range(25):
            a1 = float(rng.uniform(0.2, 1.8))
            a2 = float(rng.uniform(0.2, 1.8))
            params = ca.AmplifierParams(
                g=float(rng.uniform(0.3, 1.5)),
                pump_phase=float(rng.uniform(0.0, 2.0 * np.pi)),
                gamma1=float(rng.uniform(0.0, 1.5)),
                gamma2=float(rng.uniform(0.0, 1.5)),
                nbar1=float(rng.uniform(0.0, 1.0)),
                nbar2=float(rng.uniform(0.0, 1.0)),
            )
            # the closed form needs symmetric losses for B1N only; it holds
            # for any gamma pair since only mode-1 noise enters
            t = float(rng.uniform(0.0, 1.0))
            system = ca.System(ca.CatSpec.even(a1), ca.CatSpec.even(a2), params)
            generic = ca.single_mode_squeezing(1, system, t).Q
            closed = ca.q_factor_even_even(a1, a2, params, t)
            assert generic == pytest.approx(closed, abs=1e-10)

    def test_odd_even_matches_closed_form(self, rng):
        for _ in range(10):
            a1 = float(rng.uniform(0.3, 1.5))
            a2 = float(rng.uniform(0.3, 1.5))
            params = ca.AmplifierParams(g=1.0, pump_phase=float(rng.uniform(0, 6)),
                                        gamma1=0.8, gamma2=0.8, nbar1=0.3, nbar2=0.3)
            t = float(rng.uniform(0.0, 1.0))
            system = ca.System(ca.CatSpec.odd(a1), ca.CatSpec.even(a2), params)
            generic = ca.single_mode_squeezing(1, system, t).Q
            closed = ca.q_factor_odd_even(a1, a2, params, t)
            assert generic == pytest.approx(closed, abs=1e-10)

    def test_even_yurke_matches_closed_form(self, rng):
        for _ in range(10):
            a1 = float(rng.uniform(0.3, 1.5))
            a2 = float(rng.uniform(0.3, 1.5))
            params = ca.AmplifierParams(g=0.8, pump_phase=float(rng.uniform(0, 6)))
            t = float(rng.uniform(0.0, 1.2))
            system = ca.System(ca.CatSpec.even(a1), ca.CatSpec.yurke_stoler(a2), params)
            generic = ca.single_mode_squeezing(1, system, t).Q
            closed = ca.q_factor_even_yurke(a1, a2, params, t)
            assert generic == pytest.approx(closed, abs=1e-10)

    def test_initial_even_cat_y_factor(self):
        # t=0 reduces to half the even-cat noise function
        a1 = 0.9
        system = make_system("even", a1, "even", 1.1)
        sq = ca.single_mode_squeezing(1, system, 0.0)
        assert sq.Q == pytest.approx(0.5 * _f_even(a1**2), rel=1e-12)
        assert sq.Q < 0.0

    def test_odd_signal_never_squeezed(self):
        # no Y squeezing from an odd signal cat at any time or amplitude
        for a1 in (0.2, 0.7, 1.4, 2.2):
            for t in np.linspace(0.0, 2.0, 9):
                q = ca.q_factor_odd_even(
                    a1, 1.0, ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2), float(t))
                assert q >= -1e-12
        # the odd cat at zero amplitude is the zero vector
        with pytest.raises(ca.DomainError):
            ca.q_factor_odd_even(0.0, 1.0, ca.AmplifierParams(g=1.0), 0.3)

    def test_closed_forms_reject_non_finite_amplitudes(self):
        params = ca.AmplifierParams(g=1.0, pump_phase=0.4)
        for q_factor in (ca.q_factor_even_even, ca.q_factor_odd_even, ca.q_factor_even_yurke):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="alpha1 must be finite"):
                    q_factor(bad, 1.0, params, 0.3)
                with pytest.raises(ValueError, match="alpha2 must be finite"):
                    q_factor(1.0, bad, params, 0.3)

    def test_matches_oracle(self):
        system = ca.System(ca.CatSpec.even(1.0, 0.2), ca.CatSpec.odd(0.8, 1.0),
                           ca.AmplifierParams(g=1.0, pump_phase=1.3))
        t = 0.4
        state = oracle.build_initial(system.cat1, system.cat2, 24, 24)
        evolved = oracle.evolve(state, system.params, t)
        ref = oracle.squeeze_factors(evolved)
        for mode in (1, 2):
            sq = ca.single_mode_squeezing(mode, system, t)
            assert sq.S == pytest.approx(ref[f"S{mode}"], abs=1e-9)
            assert sq.Q == pytest.approx(ref[f"Q{mode}"], abs=1e-9)

    def test_uncertainty_product(self, rng):
        for _ in range(40):
            system = ca.System(random_cat(rng, 1.8), random_cat(rng, 1.8),
                               ca.AmplifierParams(g=1.0,
                                                  pump_phase=float(rng.uniform(0, 6)),
                                                  gamma1=float(rng.uniform(0, 2)),
                                                  gamma2=float(rng.uniform(0, 2)),
                                                  nbar1=float(rng.uniform(0, 1)),
                                                  nbar2=float(rng.uniform(0, 1))))
            t = float(rng.uniform(0, 1.0))
            sq = ca.single_mode_squeezing(1, system, t)
            assert sq.S > -1.0 and sq.Q > -1.0
            assert (sq.S + 1.0) * (sq.Q + 1.0) >= 1.0 - 1e-10


class TestNoiseFunctions:
    def test_even_noise_function_range(self):
        res = minimize_scalar(_f_even, bounds=(0.01, 5.0), method="bounded",
                              options={"xatol": 1e-12})
        assert 0.55 <= res.x <= 0.80
        assert -0.30 < res.fun < -0.25
        # 50-digit reference: argmin 0.639232271, minimum -0.278464543
        assert res.x == pytest.approx(0.6392322713805369, abs=1e-6)
        assert res.fun == pytest.approx(-0.2784645427610738, abs=1e-9)

    def test_odd_noise_function_positive(self):
        for x in np.linspace(0.01, 8.0, 50):
            assert 0.0 < _f_odd(float(x)) <= 1.0
        with pytest.raises(ca.DomainError):
            _f_odd(0.0)


class TestSurvivalTime:
    def test_zero_amplitude_signal(self):
        t = ca.squeeze_survival_time(ca.CatSpec.even(0.0), ca.CatSpec.even(1.0), 1.0)
        assert t == 0.0

    def test_boundary_brackets_sign_change(self):
        # for squared amplitudes (0.7, 1.0) the Y factor changes sign at the bound
        a1, a2 = math.sqrt(0.7), math.sqrt(1.0)
        g = 1.0
        bound = ca.squeeze_survival_time(ca.CatSpec.even(a1), ca.CatSpec.even(a2), g)
        assert bound is not None and bound > 0.0
        params = ca.AmplifierParams(g=g, pump_phase=np.pi / 2)
        below = ca.q_factor_even_even(a1, a2, params, bound * 0.995)
        above = ca.q_factor_even_even(a1, a2, params, bound * 1.005)
        assert below < 0.0 <= above

    def test_odd_signal_gives_none(self):
        out = ca.squeeze_survival_time(ca.CatSpec.odd(0.9), ca.CatSpec.even(1.0), 1.0)
        assert out is None

    def test_yurke_stoler_rejected(self):
        with pytest.raises(ValueError):
            ca.squeeze_survival_time(ca.CatSpec.yurke_stoler(1.0), ca.CatSpec.even(1.0), 1.0)

    def test_bad_gain_rejected(self):
        cat1, cat2 = ca.CatSpec.even(0.8), ca.CatSpec.even(1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="g must be finite"):
                ca.squeeze_survival_time(cat1, cat2, bad)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="g must be > 0"):
                ca.squeeze_survival_time(cat1, cat2, bad)


class TestTwoMode:
    def test_vacuum_factors_vanish(self):
        system = make_system("even", 0.0, "even", 0.0)
        sq = ca.two_mode_squeezing(system, 0.0)
        assert sq.S == pytest.approx(0.0, abs=1e-14)
        assert sq.Q == pytest.approx(0.0, abs=1e-14)

    def test_decomposition_real_amplitudes_zero_pump(self, rng):
        # compound Q is the mean of the single-mode Q's
        kinds = ("even", "odd", "yss")
        for _ in range(30):
            k1, k2 = kinds[rng.integers(0, 3)], kinds[rng.integers(0, 3)]
            system = make_system(k1, float(rng.uniform(0.2, 1.6)),
                                 k2, float(rng.uniform(0.2, 1.6)),
                                 pump=0.0, g=float(rng.uniform(0.3, 1.4)),
                                 gamma=float(rng.uniform(0.0, 1.0)),
                                 nbar=float(rng.uniform(0.0, 0.8)))
            t = float(rng.uniform(0.0, 1.0))
            q_c = ca.two_mode_squeezing(system, t).Q
            q_1 = ca.single_mode_squeezing(1, system, t).Q
            q_2 = ca.single_mode_squeezing(2, system, t).Q
            assert q_c == pytest.approx(0.5 * (q_1 + q_2), abs=1e-12)

    def test_matches_oracle(self):
        system = ca.System(ca.CatSpec.even(1.0, 0.4), ca.CatSpec.yurke_stoler(0.7),
                           ca.AmplifierParams(g=1.0, pump_phase=0.9))
        t = 0.45
        state = oracle.build_initial(system.cat1, system.cat2, 22, 22)
        evolved = oracle.evolve(state, system.params, t)
        ref = oracle.squeeze_factors(evolved)
        sq = ca.two_mode_squeezing(system, t)
        assert sq.S == pytest.approx(ref["S"], abs=1e-8)
        assert sq.Q == pytest.approx(ref["Q"], abs=1e-8)

    def test_fig9_extrema_locations(self):
        # X-factor minima at half-integer multiples of pi in both phases
        psis = np.linspace(0.0, 2.0 * np.pi, 41)
        surf = np.empty((41, 41))
        for i, p1 in enumerate(psis):
            for j, p2 in enumerate(psis):
                system = ca.System(ca.CatSpec.even(0.7, float(p1)),
                                   ca.CatSpec.even(0.7, float(p2)),
                                   ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2))
                surf[i, j] = ca.two_mode_squeezing(system, 0.2).S
        idx = np.argwhere(surf < surf.min() + 1e-10)
        locations = {(round(psis[i] / np.pi, 3), round(psis[j] / np.pi, 3))
                     for i, j in idx}
        assert locations == {(0.5, 0.5), (0.5, 1.5), (1.5, 0.5), (1.5, 1.5)}
        assert surf.min() < 0.0


class TestTimeBound:
    def test_optimum_matches_reference_point(self):
        # scan over squared amplitudes; the bound peaks near (0.6, 2.4)
        from scipy.optimize import minimize

        def neg(p):
            x, y = p
            if x <= 0.0 or y <= 1e-8:
                return 1.0
            val = ca.two_mode_squeeze_time_bound(math.sqrt(x), math.sqrt(y))
            return 1.0 if val is None else -val

        best = min(
            (minimize(neg, x0, method="Nelder-Mead",
                      options={"xatol": 1e-10, "fatol": 1e-14})
             for x0 in ((0.5, 2.0), (0.6, 2.4), (0.8, 3.0))),
            key=lambda r: r.fun,
        )
        tau = -best.fun
        assert tau == pytest.approx(0.1769, abs=2e-3)
        assert best.x[0] == pytest.approx(0.6, abs=0.05)
        assert best.x[1] == pytest.approx(2.4, abs=0.05)

    def test_reference_point_value(self):
        # the bound itself at squared amplitudes (0.6, 2.4)
        val = ca.two_mode_squeeze_time_bound(math.sqrt(0.6), math.sqrt(2.4))
        assert val == pytest.approx(0.1769, abs=1e-4)

    def test_zero_signal_amplitude(self):
        # only the odd-cat excess remains: never squeezed
        assert ca.two_mode_squeeze_time_bound(0.0, 1.5) is None

    def test_odd_zero_amplitude_rejected(self):
        with pytest.raises(ca.DomainError):
            ca.two_mode_squeeze_time_bound(1.0, 0.0)

    def test_non_finite_amplitudes_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha1 must be finite"):
                ca.two_mode_squeeze_time_bound(bad, 1.0)
            with pytest.raises(ValueError, match="alpha2 must be finite"):
                ca.two_mode_squeeze_time_bound(1.0, bad)

    def test_bound_brackets_sign_change(self):
        # compound Q changes sign across the bound for the reference point
        a1, a2 = math.sqrt(0.6), math.sqrt(2.4)
        bound = ca.two_mode_squeeze_time_bound(a1, a2)
        system = ca.System(ca.CatSpec.even(a1), ca.CatSpec.odd(a2),
                           ca.AmplifierParams(g=1.0, pump_phase=0.0))
        below = ca.two_mode_squeezing(system, bound * 0.99).Q
        above = ca.two_mode_squeezing(system, bound * 1.01).Q
        assert below < 0.0 <= above


class TestDegradation:
    def test_reservoir_noise_never_helps(self):
        # same gamma, hotter reservoir: Y factor never decreases
        a1 = math.sqrt(0.7)
        for x2 in np.linspace(0.05, 4.0, 12):
            cold = ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2,
                                      gamma1=0.4, gamma2=0.4)
            hot = ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2,
                                     gamma1=0.4, gamma2=0.4, nbar1=0.1, nbar2=0.1)
            q_cold = ca.q_factor_even_even(a1, math.sqrt(float(x2)), cold, 0.2)
            q_hot = ca.q_factor_even_even(a1, math.sqrt(float(x2)), hot, 0.2)
            assert q_hot >= q_cold - 1e-14


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cat1=cats, cat2=cats, params=amplifiers, t=st.floats(0.0, 1.0))
@example(cat1=ca.CatSpec.even(1.5), cat2=ca.CatSpec.odd(0.8, 2.0),
         params=ca.AmplifierParams(g=0.7, pump_phase=0.3, gamma1=1.4, gamma2=0.1,
                                   nbar1=0.0, nbar2=0.9), t=0.8)
def test_mode_swap_symmetry(cat1, cat2, params, t):
    # exchanging the cats together with their losses and reservoirs leaves the
    # compound factors alone and exchanges the single-mode ones
    system = ca.System(cat1, cat2, params)
    swapped = swap_modes(system)
    pairs = [(ca.two_mode_squeezing(system, t), ca.two_mode_squeezing(swapped, t)),
             (ca.single_mode_squeezing(1, system, t), ca.single_mode_squeezing(2, swapped, t)),
             (ca.single_mode_squeezing(2, system, t), ca.single_mode_squeezing(1, swapped, t))]
    for mine, theirs in pairs:
        for a, b in ((mine.S, theirs.S), (mine.Q, theirs.Q)):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
