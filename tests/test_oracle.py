import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import expm

import catamp as ca
from catamp import oracle

from conftest import run_fresh_python


class TestBuildInitial:
    def test_vacuum_cats(self):
        state = oracle.build_initial(ca.CatSpec.even(0.0), ca.CatSpec.even(0.0), 6, 6)
        expect = np.zeros((36, 36))
        expect[0, 0] = 1.0
        assert np.allclose(state.rho, expect)

    def test_pure_and_normalized(self):
        state = oracle.build_initial(ca.CatSpec.even(1.2), ca.CatSpec.odd(0.9), 24, 24)
        assert state.trace() == pytest.approx(1.0, abs=1e-12)
        assert state.purity() == pytest.approx(1.0, abs=1e-12)

    def test_even_cat_mean_photon(self):
        state = oracle.build_initial(ca.CatSpec.even(1.0), ca.CatSpec.even(0.0), 24, 4)
        mean = oracle.fock_moment(state, 1, 1, 0, 0).real
        assert mean == pytest.approx(math.tanh(1.0), rel=1e-12)

    def test_dim_too_small(self):
        with pytest.raises(oracle.DimTooSmall):
            oracle.build_initial(ca.CatSpec.even(2.5), ca.CatSpec.even(0.5), 8, 8)


def test_scipy_loads_on_first_oracle_use():
    run_fresh_python("""
        import sys
        import catamp
        import catamp.cli
        from catamp import oracle
        lazy = ("scipy.sparse", "scipy.special", "scipy.linalg", "scipy.ndimage")
        loaded = [name for name in lazy if name in sys.modules]
        assert not loaded, loaded
        params = catamp.AmplifierParams(g=1.0, pump_phase=0.7, gamma1=1.0, gamma2=0.5,
                                        nbar1=0.3, nbar2=0.2)
        state = oracle.build_initial(catamp.CatSpec.even(0.5), catamp.CatSpec.odd(0.4), 10, 10)
        assert abs(oracle.evolve(state, params, 0.1).trace() - 1.0) < 1e-10
        loaded = [name for name in lazy if name in sys.modules]
        assert loaded == ["scipy.sparse", "scipy.special", "scipy.linalg"], loaded
    """)


class TestEvolve:
    @pytest.mark.parametrize("params", [
        ca.AmplifierParams(g=1.0, pump_phase=0.7),
        ca.AmplifierParams(g=1.0, pump_phase=0.7, gamma1=1.0, gamma2=0.5, nbar1=0.3, nbar2=0.2),
    ], ids=["lossless", "damped"])
    def test_trace_is_kept_not_forced_to_one(self, params):
        # evolution is linear: half the operator evolves to half the state
        state = oracle.build_initial(ca.CatSpec.even(0.8), ca.CatSpec.odd(0.6), 14, 14)
        half = oracle.FockState(14, 14, 0.5 * state.rho)
        expect = 0.5 * oracle.evolve(state, params, 0.3).rho
        assert np.allclose(oracle.evolve(half, params, 0.3).rho, expect, rtol=0, atol=1e-15)
    def test_vacuum_two_mode_squeezing(self):
        params = ca.AmplifierParams(g=1.0, pump_phase=0.4)
        state = oracle.build_initial(ca.CatSpec.even(0.0), ca.CatSpec.even(0.0), 18, 18)
        evolved = oracle.evolve(state, params, 0.6)
        mean = oracle.fock_moment(evolved, 1, 1, 0, 0).real
        assert mean == pytest.approx(math.sinh(0.6) ** 2, rel=1e-8)
        assert evolved.purity() == pytest.approx(1.0, abs=1e-8)

    def test_pure_decay(self):
        params = ca.AmplifierParams(g=0.0, gamma1=0.8, gamma2=0.8)
        state = oracle.build_initial(ca.CatSpec.even(1.0), ca.CatSpec.even(0.8), 20, 18)
        n0 = oracle.fock_moment(state, 1, 1, 0, 0).real
        evolved = oracle.evolve(state, params, 0.9)
        n1 = oracle.fock_moment(evolved, 1, 1, 0, 0).real
        assert n1 == pytest.approx(n0 * math.exp(-0.8 * 0.9), rel=1e-8)

    def test_thermal_fixed_point(self):
        nbar = 0.6
        params = ca.AmplifierParams(g=0.0, gamma1=2.5, gamma2=2.5, nbar1=nbar)
        state = oracle.build_initial(ca.CatSpec.even(0.7), ca.CatSpec.even(0.0), 22, 3)
        evolved = oracle.evolve(state, params, 6.0)
        p1 = oracle.pnd_single(evolved, 1)
        n = np.arange(len(p1))
        thermal = (nbar / (1 + nbar)) ** n / (1 + nbar)
        # fidelity of the diagonal distributions
        assert float(np.sum(np.sqrt(np.clip(p1, 0, None) * thermal)) ** 2) > 1 - 1e-6
        assert oracle.fock_moment(evolved, 1, 1, 0, 0).real == pytest.approx(nbar, abs=1e-5)

    def test_trace_hermiticity_positivity(self):
        params = ca.AmplifierParams(g=1.0, pump_phase=1.0, gamma1=1.2, gamma2=0.6,
                                    nbar1=0.5, nbar2=0.2)
        state = oracle.build_initial(ca.CatSpec.even(0.9), ca.CatSpec.yurke_stoler(0.7),
                                     20, 20)
        evolved = oracle.evolve(state, params, 0.5)
        assert evolved.trace() == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(evolved.rho - evolved.rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(evolved.rho).min() > -1e-10

    def test_step_doubling_convergence(self):
        # semigroup: evolving 0.3 at once equals two 0.15 evolutions at the 1e-8 level
        params = ca.AmplifierParams(g=1.0, pump_phase=0.7, gamma1=1.5, gamma2=1.5,
                                    nbar1=0.4, nbar2=0.4)
        state = oracle.build_initial(ca.CatSpec.even(0.8), ca.CatSpec.even(0.6), 16, 16)
        coarse = oracle.evolve(state, params, 0.3)
        fine = oracle.evolve(oracle.evolve(state, params, 0.15), params, 0.15)
        for getter in (lambda s: oracle.fock_moment(s, 1, 1, 0, 0).real,
                       lambda s: oracle.pnd_sum(s)[0],
                       lambda s: oracle.squeeze_factors(s)["Q"]):
            assert getter(coarse) == pytest.approx(getter(fine), abs=1e-8)

    @pytest.mark.parametrize("params", [
        ca.AmplifierParams(g=1.0, pump_phase=0.7),
        ca.AmplifierParams(g=1.0, pump_phase=0.7, gamma1=1.0, gamma2=0.5, nbar1=0.3, nbar2=0.2),
    ], ids=["lossless", "damped"])
    def test_zero_time_is_identity(self, params):
        # the Liouvillian is scaled by t in place; at t = 0 every entry comes
        # back exactly (only a zero's sign may flip: expm_multiply's closing
        # factor e^0 = 1 turns a -0.0 imaginary part into +0.0), and the input
        # array is left as it was, byte for byte
        state = oracle.build_initial(ca.CatSpec.even(0.8), ca.CatSpec.odd(0.6), 14, 14)
        before = state.rho.copy()
        assert np.array_equal(oracle.evolve(state, params, 0.0).rho, before)
        assert state.rho.tobytes() == before.tobytes()

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    @pytest.mark.parametrize("params", [
        ca.AmplifierParams(g=1.0, pump_phase=0.7),
        ca.AmplifierParams(g=1.0, pump_phase=0.7, gamma1=1.0, gamma2=0.5, nbar1=0.3, nbar2=0.2),
    ], ids=["lossless", "damped"])
    def test_non_finite_t_rejected(self, params, t):
        state = oracle.build_initial(ca.CatSpec.even(0.8), ca.CatSpec.odd(0.6), 14, 14)
        with pytest.raises(ValueError, match="t must be finite"):
            oracle.evolve(state, params, t)


def _dense_generator(params, state):
    """Master-equation generator on row-major vec(rho), column by column."""
    a1, a2 = oracle.mode_ops(state)
    k = np.exp(-1j * params.pump_phase) * (a1 @ a2)
    h = -params.g * (k + k.conj().T)
    modes = ((a1, params.gamma1, params.nbar1), (a2, params.gamma2, params.nbar2))
    jumps = [(gamma * (nbar + 1.0), aj) for aj, gamma, nbar in modes]
    jumps += [(gamma * nbar, aj.conj().T) for aj, gamma, nbar in modes]

    def rhs(rho):
        out = -1j * (h @ rho - rho @ h)
        for rate, j in jumps:
            jd = j.conj().T
            out += rate * (j @ rho @ jd - 0.5 * (jd @ j @ rho + rho @ jd @ j))
        return out

    dim = state.dim1 * state.dim2
    cols = []
    for idx in range(dim * dim):
        unit = np.zeros(dim * dim, dtype=complex)
        unit[idx] = 1.0
        cols.append(rhs(unit.reshape(dim, dim)).reshape(-1))
    return np.array(cols).T


class TestPropagator:
    """evolve is exp(tL) vec(rho), checked against dense references."""

    def test_lossless_matches_squeeze_unitary(self):
        params = ca.AmplifierParams(g=1.0, pump_phase=0.7)
        t = 0.4
        state = oracle.build_initial(ca.CatSpec.even(0.5), ca.CatSpec.yurke_stoler(0.4), 10, 9)
        a1, a2 = oracle.mode_ops(state)
        k = np.exp(-1j * params.pump_phase) * (a1 @ a2)
        u = expm(1j * params.g * t * (k + k.conj().T))
        expect = u @ state.rho @ u.conj().T
        got = oracle.evolve(state, params, t).rho
        assert np.max(np.abs(got - expect)) < 1e-13

    @pytest.mark.parametrize("params", [
        ca.AmplifierParams(g=1.0, pump_phase=0.7),
        ca.AmplifierParams(g=0.8, pump_phase=1.3, gamma1=1.0, gamma2=0.5, nbar1=0.3, nbar2=0.2),
        ca.AmplifierParams(g=1.2, pump_phase=0.4, gamma1=0.7),
    ], ids=["lossless", "damped-thermal", "one-sided-zero-nbar"])
    def test_liouvillian_matches_dense_generator(self, params):
        state = oracle.FockState(4, 3, np.zeros((12, 12), dtype=complex))
        expect = _dense_generator(params, state)
        got = oracle._liouvillian(params, 4, 3).toarray()
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))

    def test_damped_matches_dense_exponential(self):
        params = ca.AmplifierParams(g=1.0, pump_phase=0.7, gamma1=1.0, gamma2=0.5,
                                    nbar1=0.3, nbar2=0.2)
        t = 0.3
        state = oracle.build_initial(ca.CatSpec.even(0.25), ca.CatSpec.yurke_stoler(0.15), 6, 5)
        expect = expm(t * _dense_generator(params, state)) @ state.rho.reshape(-1)
        got = oracle.evolve(state, params, t).rho.reshape(-1)
        assert np.max(np.abs(got - expect)) < 1e-13

    def test_bit_identical_under_any_global_rng_state(self):
        # expm_multiply takes the exact 1-norm of the sparse tL; it draws from
        # np.random (seeded by evolve) only to estimate 1-norms of powers of a
        # large tL, which t = 3 reaches here and t = 0.3 does not
        params = ca.AmplifierParams(g=1.0, pump_phase=0.7, gamma1=1.0, gamma2=0.5,
                                    nbar1=0.3, nbar2=0.2)
        state = oracle.build_initial(ca.CatSpec.even(0.8), ca.CatSpec.odd(0.6), 12, 12)
        saved = np.random.get_state()
        try:
            for t in (0.3, 3.0):
                digests = set()
                for seed in (0, 12345):
                    np.random.seed(seed)
                    rho = oracle.evolve(state, params, t).rho
                    digests.add(hashlib.sha256(rho.tobytes()).hexdigest())
                assert len(digests) == 1
        finally:
            np.random.set_state(saved)

    def test_large_tl_is_reproducible_and_keeps_the_global_rng_state(self):
        # strong damping makes ||tL - mu I||_1 far exceed 63.4, where
        # expm_multiply estimates 1-norms from random vectors; unseeded, seeds
        # 0-5 of the global generator gave two different results here
        params = ca.AmplifierParams(g=1.0, pump_phase=0.0, gamma1=3.0, gamma2=3.0,
                                    nbar1=0.5, nbar2=0.5)
        state = oracle.build_initial(ca.CatSpec.even(0.6), ca.CatSpec.odd(0.5), 10, 10)
        saved = np.random.get_state()
        try:
            digests = set()
            for seed in range(6):
                np.random.seed(seed)
                before = np.random.get_state(legacy=False)
                rho = oracle.evolve(state, params, 2.0).rho
                after = np.random.get_state(legacy=False)
                assert after["state"]["pos"] == before["state"]["pos"]
                assert np.array_equal(after["state"]["key"], before["state"]["key"])
                digests.add(hashlib.sha256(rho.tobytes()).hexdigest())
            assert len(digests) == 1
        finally:
            np.random.set_state(saved)


class TestObservables:
    def test_vacuum_variances(self):
        state = oracle.build_initial(ca.CatSpec.even(0.0), ca.CatSpec.even(0.0), 8, 8)
        v = oracle.quadrature_variances(state)
        assert v["x1"] == pytest.approx(0.25, abs=1e-12)
        assert v["y1"] == pytest.approx(0.25, abs=1e-12)
        sf = oracle.squeeze_factors(state)
        assert all(abs(val) < 1e-12 for val in sf.values())

    def test_variances_match_three_product_form(self):
        params = ca.AmplifierParams(g=1.0, pump_phase=0.7, gamma1=1.0, gamma2=0.5,
                                    nbar1=0.3, nbar2=0.2)
        state = oracle.build_initial(ca.CatSpec.even(0.8), ca.CatSpec.yurke_stoler(0.6), 12, 12)
        evolved = oracle.evolve(state, params, 0.3)
        a1, a2 = oracle.mode_ops(evolved)
        rho = evolved.rho
        got = oracle.quadrature_variances(evolved)
        for label, op in (("1", a1), ("2", a2), ("c", a1 + a2)):
            x = 0.5 * (op + op.conj().T)
            y = -0.5j * (op - op.conj().T)
            for q, key in ((x, f"x{label}"), (y, f"y{label}")):
                # Tr(rho q^2) - Tr(rho q)^2
                expect = np.trace(rho @ q @ q).real - np.trace(rho @ q).real ** 2
                assert got[key] == pytest.approx(expect, rel=0, abs=1e-14)

    def test_sum_pnd_of_fock_pair(self):
        # |1> (x) |1> has its entire mass at total n = 2
        state = oracle.build_initial(ca.CatSpec.even(0.0), ca.CatSpec.even(0.0), 6, 6)
        rho = np.zeros_like(state.rho)
        idx = 1 * 6 + 1
        rho[idx, idx] = 1.0
        fock = oracle.FockState(6, 6, rho)
        p = oracle.pnd_sum(fock)
        assert p[2] == pytest.approx(1.0)
        assert float(np.sum(p)) == pytest.approx(1.0)

    def test_wigner_origin_even_cat(self):
        state = oracle.build_initial(ca.CatSpec.even(1.0), ca.CatSpec.even(0.0), 24, 4)
        got = oracle.wigner(state, 0j)
        n2 = 2.0 * (1.0 + math.exp(-2.0))
        expect = (2.0 / math.pi) * (2.0 * math.exp(-2.0) + 2.0) / n2
        assert got == pytest.approx(expect, rel=1e-10)

    def test_factorial_moment_poisson(self):
        # coherent-state falling factorials are powers of the mean
        state = oracle.build_initial(ca.CatSpec.even(0.0), ca.CatSpec.even(0.0), 20, 4)
        alpha = 1.1
        v = oracle._coherent_vec(alpha, 20)
        rho1 = np.outer(v, v.conj())
        rho = np.kron(rho1, state.reduced(2))
        coh = oracle.FockState(20, 4, rho)
        for k in (1, 2, 3):
            assert oracle.factorial_moment(coh, k) == pytest.approx(
                alpha ** (2 * k), rel=1e-9)

    def test_observables_bundle(self):
        state = oracle.build_initial(ca.CatSpec.even(0.8), ca.CatSpec.odd(0.6), 16, 16)
        mean_n1 = oracle.fock_moment(state, 1, 1, 0, 0).real
        assert mean_n1 == pytest.approx(0.64 * math.tanh(0.64), rel=1e-10)
        assert oracle.pnd_sum(state).sum() == pytest.approx(1.0, abs=1e-12)
        assert set(oracle.squeeze_factors(state)) == {"S1", "Q1", "S2", "Q2", "S", "Q"}
