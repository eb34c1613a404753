import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import catamp as ca
from catamp import oracle
from catamp.coeffs import evolve_terms
from catamp.wigner import GridSpec, SupportWarning, _strict_maxima

from conftest import amplifiers, cats, make_system, random_cat, run_fresh_python, swap_modes


def complex_z_sum(ev, z, mode):
    """Reference Wigner sum: each row a complex Gaussian in z = x + iy, added
    one row at a time (no split into x and y factors)."""
    b, abar, abarp = ev.mode(mode)
    z = np.asarray(z, dtype=complex)
    zc = np.conj(z)
    width = 1.0 + 2.0 * b
    height = 2.0 / (math.pi * width)
    return (ev.norm * sum(
        height * pref * np.exp(-2.0 * (ab - zc) * (abp - z) / width)
        for pref, ab, abp in zip(ev.prefactor.tolist(), abar.tolist(), abarp.tolist())
    )).real


def mp_wigner(ev, z, mode):
    """The same sum at 40 digits, from the float record."""
    b, abar, abarp = ev.mode(mode)
    with mpmath.workdps(40):
        z = mpmath.mpc(z)
        width = 1 + 2 * mpmath.mpf(b)
        total = sum(
            mpmath.mpc(pref) * mpmath.exp(-2 * (mpmath.mpc(ab) - mpmath.conj(z))
                                          * (mpmath.mpc(abp) - z) / width)
            for pref, ab, abp in zip(ev.prefactor.tolist(), abar.tolist(), abarp.tolist())
        )
        return float((mpmath.mpf(ev.norm) * 2 / (mpmath.pi * width) * total).real)


def _saddle_to_higher(v, peak):
    """Highest level at which the peak's super-level component reaches a
    strictly higher point (binary search over connected components)."""
    val, j, i = peak
    lo, hi = float(np.min(v)), val
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        labels, _ = ndimage.label(v >= mid)
        comp = labels == labels[j, i]
        if float(np.max(v[comp])) > val:
            lo = mid
        else:
            hi = mid
    return lo


def bisection_count(v, rel_threshold=0.05, rel_prominence=0.05):
    """Reference peak count: each saddle located by 40-step bisection, then
    the same 5 % threshold and prominence rule as count_peaks."""
    vmax = float(np.max(v))
    if vmax <= 0.0:
        return 0
    maxima = _strict_maxima(v, rel_threshold * vmax)
    if not maxima:
        return 0
    count = 0
    for k, peak in enumerate(maxima):
        if k == 0:
            count += 1
            continue
        prominence = peak[0] - _saddle_to_higher(v, peak)
        if prominence >= rel_prominence * vmax:
            count += 1
    return count


# figure id -> (|alpha1|, |alpha2|, gamma, nbar, peak count), g = 1, t = 0.55
FIGURE_PEAKS = {
    "1a": (2.0, 2.0, 0.0, 0.0, 4),
    "1b": (3.0, 2.0, 0.0, 0.0, 9),
    "1c": (2.0, 3.0, 0.0, 0.0, 3),
    "2a": (3.0, 2.0, 5.0, 1.0, 1),
    "2b": (3.0, 2.0, 1.0, 1.0, 2),
}


def on_grid(values):
    ny, nx = values.shape
    return ca.PhaseGrid(GridSpec(-1.0, 1.0, -1.0, 1.0, nx, ny), values)


def two_bumps(lower, saddle):
    """Bumps of height 1 and lower on the middle row, joined through saddle;
    every path between them crosses the middle column, whose top is saddle."""
    row = np.interp(np.arange(81), [0, 20, 40, 60, 80], [0.0, 1.0, saddle, lower, 0.0])
    col = np.exp(-((np.arange(41) - 20) / 8.0) ** 2)
    return on_grid(col[:, None] * row[None, :])


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
            b1 = ca.coeffs_at(params, t).B1N
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
        spec = GridSpec(-6, 6, -0.25, 0.25, 101, 2)
        grid = ca.wigner_grid(system, 0.3, spec)
        xs, cut = ca.wigner_cut(system, 0.3, y=-0.25, x=grid.x)
        assert np.allclose(cut, grid.values[0], atol=1e-15)

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_non_finite_cut_y_rejected(self, y):
        system = make_system("even", 1.5, "even", 1.0)
        with pytest.raises(ValueError, match="y must be finite"):
            ca.wigner_cut(system, 0.3, y=y)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cut_x_rejected(self, bad):
        system = make_system("even", 1.5, "even", 1.0)
        with pytest.raises(ValueError, match="x must be a 1-D array of finite values"):
            ca.wigner_cut(system, 0.3, x=np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize("field", ["x_min", "x_max", "y_min", "y_max"])
    def test_non_finite_bounds_rejected(self, field):
        bounds = dict(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                GridSpec(**dict(bounds, **{field: bad}))

    def test_single_point_axis_needs_zero_width(self):
        # refused on every axis, a zero-width one included: a grid has an area
        with pytest.raises(ValueError, match="nx must be >= 2, got 1"):
            GridSpec(-1.0, 1.0, -1.0, 1.0, nx=1)
        for y_max in (1.0, -1.0):
            with pytest.raises(ValueError, match="ny must be >= 2, got 1"):
                GridSpec(-1.0, 1.0, -1.0, y_max, ny=1)

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("low, high", [(1.0, -1.0), (0.5, 0.5)], ids=["reversed", "zero_width"])
    def test_reversed_or_empty_range_rejected(self, axis, low, high):
        bounds = dict(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0)
        bounds.update({f"{axis}_min": low, f"{axis}_max": high})
        with pytest.raises(ValueError, match=f"{axis}_max must be > {axis}_min"):
            GridSpec(**bounds)

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


# (system, mode) of the kernel checks: figures 1a-2b, figure 1b's idler and
# an overdamped case
KERNEL_CASES = {
    **{fig: (make_system("even", a1, "even", a2, gamma=gamma, nbar=nbar), 1)
       for fig, (a1, a2, gamma, nbar, _) in FIGURE_PEAKS.items()},
    "1b_mode2": (make_system("even", 3.0, "even", 2.0), 2),
    "overdamped": (make_system("yss", 2.0, "odd", 1.5, psi1=0.7, gamma=3.0, nbar=1.0), 1),
}


class TestSeparableKernel:
    """wigner_grid (x and y factors, one matrix product) against the complex-z sum."""

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_matches_complex_z_sum(self, case):
        system, mode = KERNEL_CASES[case]
        grid = ca.wigner_grid(system, 0.55, mode=mode)
        ref = complex_z_sum(evolve_terms(system, 0.55), grid.x[None, :] + 1j * grid.y[:, None],
                            mode)
        assert np.max(np.abs(grid.values - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", ["1b", "overdamped"])
    def test_matches_40_digits(self, case):
        system, mode = KERNEL_CASES[case]
        grid = ca.wigner_grid(system, 0.55, mode=mode)
        v = grid.values
        rng = np.random.default_rng(7)
        points = [np.unravel_index(np.argmax(v), v.shape), np.unravel_index(np.argmin(v), v.shape),
                  *zip(rng.integers(0, v.shape[0], 30), rng.integers(0, v.shape[1], 30))]
        ev = evolve_terms(system, 0.55)
        err = max(abs(v[j, i] - mp_wigner(ev, complex(grid.x[i], grid.y[j]), mode))
                  for j, i in points)
        assert err <= 1e-14 * np.max(np.abs(v))

    def test_cut_is_the_one_row_case(self):
        system, mode = KERNEL_CASES["1b"]
        xs, cut = ca.wigner_cut(system, 0.55, y=-0.25, mode=mode)
        ref = complex_z_sum(evolve_terms(system, 0.55), xs - 0.25j, mode)
        assert cut.shape == xs.shape
        assert np.max(np.abs(cut - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.filterwarnings("ignore::catamp.SupportWarning")
@settings(derandomize=True, max_examples=30, deadline=None)
@given(cat1=cats, cat2=cats, params=amplifiers, t=st.floats(0.0, 1.0))
def test_mode_swap_symmetry(cat1, cat2, params, t):
    # the signal's Wigner function is the idler's once the cats, losses and
    # reservoirs are exchanged
    system = ca.System(cat1, cat2, params)
    spec = GridSpec(-7.0, 7.0, -6.0, 6.0, 57, 49)
    mine = ca.wigner_grid(system, t, spec, mode=1).values
    theirs = ca.wigner_grid(swap_modes(system), t, spec, mode=2).values
    assert np.max(np.abs(mine - theirs)) <= 1e-13 * np.max(np.abs(mine))


class TestPeakCountReference:
    """count_peaks (one labelling per maximum) against the bisection."""

    @pytest.mark.parametrize("fig_id", FIGURE_PEAKS)
    def test_figure_grids(self, fig_id):
        a1, a2, gamma, nbar, expected = FIGURE_PEAKS[fig_id]
        grid = ca.wigner_grid(make_system("even", a1, "even", a2, gamma=gamma, nbar=nbar), 0.55)
        assert ca.count_peaks(grid) == bisection_count(grid.values) == expected

    def test_filtered_noise_fields(self):
        counts, edge_max = [], 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            v = ndimage.gaussian_filter(rng.standard_normal((96, 96)), 4.0 + 4.0 * seed / 29)
            j, i = np.unravel_index(np.argmax(v), v.shape)
            edge_max += j in (0, 95) or i in (0, 95)
            counts.append(ca.count_peaks(on_grid(v)))
            assert counts[-1] == bisection_count(v), seed
        # the highest interior maximum counts even below a higher edge value
        assert edge_max > 0
        assert min(counts) < max(counts)

    @pytest.mark.parametrize("lower, saddle, expected", [
        (1.0, 0.1, 2),    # two equal maxima split by a deep dip
        (0.5, 0.46, 1),   # the lower bump rises 4 % of the maximum above the saddle
        (0.5, 0.44, 2),   # ... and 6 %
    ])
    def test_synthetic_saddles(self, lower, saddle, expected):
        grid = two_bumps(lower, saddle)
        assert ca.count_peaks(grid) == bisection_count(grid.values) == expected

    def test_one_maximum_leaves_ndimage_unimported(self):
        # figure 2a has one maximum, figure 2b two; only a second maximum
        # reaches scipy.ndimage
        run_fresh_python("""
            import math, sys
            import catamp as ca
            def grid(gamma):
                amp = ca.AmplifierParams(g=1.0, pump_phase=math.pi / 2, gamma1=gamma,
                                         gamma2=gamma, nbar1=1.0, nbar2=1.0)
                return ca.wigner_grid(ca.System(ca.CatSpec.even(3.0), ca.CatSpec.even(2.0), amp), 0.55)
            assert ca.count_peaks(grid(5.0)) == 1
            assert "scipy.ndimage" not in sys.modules
            assert ca.count_peaks(grid(1.0)) == 2
            assert "scipy.ndimage" in sys.modules
        """)
