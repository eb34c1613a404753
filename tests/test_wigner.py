import math

import numpy as np
import pytest

import catamp as ca
from catamp import oracle
from catamp.wigner import GridSpec, SupportWarning

from conftest import make_system, random_cat


def wigner_at(system, z, mode=1):
    """Wigner value at one phase-space point: a one-point cut through it."""
    _, w = ca.wigner_cut(system, 0.0, y=z.imag, x=np.array([z.real]), mode=mode)
    return float(w[0])


class TestPointValues:
    def test_vacuum_peak(self):
        system = make_system("even", 0.0, "even", 0.0)
        assert wigner_at(system, 0j) == pytest.approx(2.0 / math.pi)

    def test_odd_cat_negative_at_origin(self):
        system = make_system("odd", 1.0, "even", 0.5)
        w0 = wigner_at(system, 0j)
        assert w0 < 0.0
        # displaced-parity reference
        state = oracle.build_initial(system.cat1, system.cat2, 25, 20)
        assert w0 == pytest.approx(oracle.wigner(state, 0j), abs=1e-10)

    def test_even_cat_positive_at_origin(self):
        system = make_system("even", 1.0, "even", 0.5)
        w0 = wigner_at(system, 0j)
        assert w0 > 0.0
        state = oracle.build_initial(system.cat1, system.cat2, 25, 20)
        assert w0 == pytest.approx(oracle.wigner(state, 0j), abs=1e-10)

    def test_t0_matches_independent_cat_formula(self):
        # fringe + two-bell structure written out by hand
        mag, rel = 1.1, 0.0
        system = make_system("even", mag, "even", 0.4)
        n2 = 2.0 * (1.0 + math.exp(-2.0 * mag**2))
        for z in (0.0 + 0.0j, 0.5 + 0.3j, -1.1 - 0.25j):
            x, p = z.real, z.imag
            expect = (2.0 / math.pi) / n2 * (
                np.exp(-2 * ((x - mag) ** 2 + p**2))
                + np.exp(-2 * ((x + mag) ** 2 + p**2))
                + 2.0 * np.exp(-2 * (x**2 + p**2)) * np.cos(4.0 * mag * p)
            )
            assert wigner_at(system, z) == pytest.approx(expect, abs=1e-12)

    def test_idler_mode(self):
        system = make_system("even", 0.6, "odd", 1.0)
        w0 = wigner_at(system, 0j, mode=2)
        assert w0 < 0.0


class TestGrid:
    def test_normalization(self, rng):
        for _ in range(4):
            system = ca.System(random_cat(rng, 1.5), random_cat(rng, 1.5),
                               ca.AmplifierParams(g=1.0, pump_phase=1.2,
                                                  gamma1=0.4, gamma2=0.4,
                                                  nbar1=0.3, nbar2=0.3))
            grid = ca.wigner_grid(system, float(rng.uniform(0.0, 0.7)))
            assert grid.integral() == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.filterwarnings("ignore::catamp.SupportWarning")
    def test_matches_oracle_pointwise(self):
        system = ca.System(ca.CatSpec.even(1.0, 0.5), ca.CatSpec.yurke_stoler(0.8),
                           ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2))
        t = 0.4
        state = oracle.build_initial(system.cat1, system.cat2, 26, 24)
        evolved = oracle.evolve(state, system.params, t)
        xs = np.linspace(-4.0, 4.0, 41)
        z = xs[None, :] + 1j * xs[:, None]
        ref = oracle.wigner(evolved, z)
        grid = ca.wigner_grid(system, t, GridSpec(-4, 4, -4, 4, 41, 41))
        assert np.max(np.abs(grid.values - ref)) < 1e-6

    def test_realness_residue(self):
        system = make_system("yss", 1.2, "odd", 0.9, psi1=0.8, psi2=2.1, pump=0.9)
        grid = ca.wigner_grid(system, 0.5)  # raises internally if residue is large
        assert grid.values.dtype == np.float64

    def test_noise_broadens_width(self):
        # second moment of the vacuum-input function grows as (1+2*B1N)/4
        for gamma, nbar in ((0.0, 0.0), (1.0, 0.5), (1.0, 1.5)):
            params = ca.AmplifierParams(g=1.0, pump_phase=0.3, gamma1=gamma,
                                        gamma2=gamma, nbar1=nbar, nbar2=nbar)
            system = ca.System(ca.CatSpec.even(0.0), ca.CatSpec.even(0.0), params)
            t = 0.5
            b1 = ca.noise_coeffs(params, t)[0]
            spec = GridSpec(-8, 8, -8, 8, 161, 161)
            grid = ca.wigner_grid(system, t, spec)
            xs = grid.x
            dx = xs[1] - xs[0]
            var_x = float(np.sum(grid.values * xs[None, :] ** 2)) * dx * dx
            assert var_x == pytest.approx((1.0 + 2.0 * b1) / 4.0, rel=1e-3)

    def test_support_warning_on_clipped_grid(self):
        system = make_system("even", 2.0, "even", 2.0)
        with pytest.warns(SupportWarning):
            ca.wigner_grid(system, 0.5, GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 21))

    def test_default_grid_covers_drift(self):
        system = make_system("even", 3.0, "even", 2.0)
        spec = ca.default_grid(system, 0.55)
        # drift amplitudes reach 3*cosh + 2*sinh at gt = 0.55
        reach = 3 * math.cosh(0.55) + 2 * math.sinh(0.55)
        assert spec.x_max >= reach + 4.0


class TestCutAndPeaks:
    @pytest.mark.filterwarnings("ignore::catamp.SupportWarning")
    def test_cut_equals_grid_row(self):
        system = make_system("even", 1.5, "even", 1.0)
        spec = GridSpec(-6, 6, -0.25, -0.25, 101, 1)
        grid = ca.wigner_grid(system, 0.3, spec)
        xs, cut = ca.wigner_cut(system, 0.3, y=-0.25, x=grid.x)
        assert np.allclose(cut, grid.values[0], atol=1e-15)

    @pytest.mark.parametrize("field", ["x_min", "x_max", "y_min", "y_max"])
    def test_non_finite_bounds_rejected(self, field):
        bounds = dict(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                GridSpec(**dict(bounds, **{field: bad}))

    def test_single_point_axis_needs_zero_width(self):
        with pytest.raises(ValueError, match="nx must be >= 2"):
            GridSpec(-1.0, 1.0, -1.0, 1.0, nx=1)
        line = ca.PhaseGrid(GridSpec(-6, 6, -0.25, -0.25, 11, 1), np.zeros((1, 11)))
        with pytest.raises(ValueError, match="line grid has no area"):
            line.integral()

    def test_fig1_negativity_switch(self):
        # negativity on the reference cut appears only for a larger signal cat
        vals = {}
        for label, amps in (("1a", (2.0, 2.0)), ("1b", (3.0, 2.0)), ("1c", (2.0, 3.0))):
            system = make_system("even", amps[0], "even", amps[1])
            _, cut = ca.wigner_cut(system, 0.55, y=-0.25)
            grid = ca.wigner_grid(system, 0.55)
            assert grid.integral() == pytest.approx(1.0, abs=1e-3)
            vals[label] = (float(cut.min()), float(grid.values.max()))
        assert vals["1b"][0] < -0.01 * vals["1b"][1]
        assert vals["1a"][0] > -1e-3 * vals["1a"][1]
        assert vals["1c"][0] > -1e-3 * vals["1c"][1]

    def test_fig2_morphology(self):
        # overdamped: single thermal-like bump at the origin, no negativity;
        # underdamped: the two-lobe structure survives
        over = make_system("even", 3.0, "even", 2.0, gamma=5.0, nbar=1.0)
        grid_over = ca.wigner_grid(over, 0.55)
        assert ca.count_peaks(grid_over) == 1
        assert grid_over.values.min() > -1e-3 * grid_over.values.max()
        j, i = np.unravel_index(np.argmax(grid_over.values), grid_over.values.shape)
        assert abs(grid_over.x[i] + 1j * grid_over.y[j]) < 0.5

        under = make_system("even", 3.0, "even", 2.0, gamma=1.0, nbar=1.0)
        grid_under = ca.wigner_grid(under, 0.55)
        assert ca.count_peaks(grid_under) == 2

    def test_three_peak_structure_fig1c(self):
        system = make_system("even", 2.0, "even", 3.0)
        grid = ca.wigner_grid(system, 0.55)
        assert ca.count_peaks(grid) == 3
