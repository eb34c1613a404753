import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import eval_genlaguerre

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


def test_oracle_loads_no_scipy():
    run_fresh_python("""
        import sys
        import catamp
        import catamp.cli
        from catamp import oracle
        params = catamp.AmplifierParams(g=1.0, pump_phase=0.7, gamma1=1.0, gamma2=0.5,
                                        nbar1=0.3, nbar2=0.2)
        state = oracle.build_initial(catamp.CatSpec.even(0.5), catamp.CatSpec.odd(0.4), 10, 10)
        evolved = oracle.evolve(state, params, 0.1)
        assert abs(evolved.trace() - 1.0) < 1e-10
        oracle.wigner(evolved, [0.1, 0.2j])
        oracle.squeeze_factors(evolved)
        oracle.char_fn(evolved, 0.2, 0.1j)
        loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
        assert not loaded, loaded
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
        # at t = 0 every Taylor term is zero, so every entry comes back exactly
        # (only a zero's sign may flip: adding a +0.0 term turns a -0.0
        # imaginary part into +0.0), and the input array is left as it was,
        # byte for byte
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


def _dense_mode_ops(d1, d2):
    """Annihilation operators of both modes on the joint space, row n1*d2 + n2."""
    a1, a2 = (np.diag(np.sqrt(np.arange(1.0, d)), 1) for d in (d1, d2))
    return np.kron(a1, np.eye(d2)), np.kron(np.eye(d1), a2)


def _dense_generator(params, state):
    """Master-equation generator on row-major vec(rho), column by column."""
    a1, a2 = _dense_mode_ops(state.dim1, state.dim2)
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
        a1, a2 = _dense_mode_ops(10, 9)
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
        got = sum(np.diag(coef, offset) for offset, coef in oracle._generator(params, 4, 3))
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))

    @pytest.mark.parametrize("params", [
        ca.AmplifierParams(g=1.0, pump_phase=0.7),
        ca.AmplifierParams(g=0.8, pump_phase=1.3, gamma1=1.0, gamma2=0.5, nbar1=0.3, nbar2=0.2),
        ca.AmplifierParams(g=1.2, pump_phase=0.4, gamma1=0.7),
    ], ids=["lossless", "damped-thermal", "one-sided-zero-nbar"])
    def test_shifted_norm_is_the_dense_column_sum_norm(self, params):
        state = oracle.FockState(4, 3, np.zeros((12, 12), dtype=complex))
        dense = _dense_generator(params, state)
        mu = float(np.mean(np.diag(dense).real))
        expect = np.max(np.sum(np.abs(dense - mu * np.eye(dense.shape[0])), axis=0))
        got = oracle._shifted_norm(oracle._generator(params, 4, 3), mu)
        assert got == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("block", [1, 7, 13, 50, 144, 1000])
    def test_blocked_product_is_the_whole_vector_product(self, block, monkeypatch, rng):
        # the row blocks change no bit: each entry sums its diagonals in order
        params = ca.AmplifierParams(g=0.8, pump_phase=1.3, gamma1=1.0, gamma2=0.5,
                                    nbar1=0.3, nbar2=0.2)
        diagonals = oracle._generator(params, 4, 3)
        v = rng.normal(size=144) + 1j * rng.normal(size=144)
        expect = np.zeros_like(v)
        for offset, coef in diagonals:
            if offset >= 0:
                expect[:coef.size] += coef * v[offset:]
            else:
                expect[-offset:] += coef * v[:coef.size]
        monkeypatch.setattr(oracle, "_ROW_BLOCK", block)
        # out starts as NaN: every entry is written, none accumulates onto it
        out = np.full_like(v, np.nan)
        assert oracle._apply(diagonals, v, out, np.empty(min(block, v.size), complex)) is out
        assert np.array_equal(out, expect)
        dense = sum(np.diag(coef, offset) for offset, coef in diagonals)
        assert np.allclose(expect, dense @ v, rtol=0, atol=1e-14 * np.max(np.abs(dense @ v)))

    @pytest.mark.parametrize("case", [
        (ca.CatSpec.even(0.79), ca.CatSpec.yurke_stoler(0.6),
         ca.AmplifierParams(g=1.0, pump_phase=0.7), 0.295, (14, 14)),
        (ca.CatSpec.even(0.75), ca.CatSpec.odd(0.6),
         ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2, gamma1=1.0, gamma2=1.0,
                            nbar1=0.49, nbar2=0.49), 0.295, (14, 14)),
        (ca.CatSpec.even(1.1), ca.CatSpec.yurke_stoler(0.9),
         ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2, gamma1=1.0, gamma2=1.0,
                            nbar1=0.0, nbar2=0.0), 0.4, (22, 22)),
    ], ids=["lossless-14", "damped-14", "underdamped-22"])
    def test_matches_scipy_expm_multiply(self, case):
        # the reference is scipy's action of exp(tL) on the sparse Liouvillian
        # kronsum(i conj(H_eff), -i H_eff) + sum kron(c, conj(c)), built
        # without _generator; the 14 x 14 cases are two of the benchmark's
        cat1, cat2, params, t, (d1, d2) = case
        a1, a2 = (sp.csr_matrix(a) for a in _dense_mode_ops(d1, d2))
        k = np.exp(-1j * params.pump_phase) * (a1 @ a2)
        jumps = [np.sqrt(rate) * c
                 for a, gamma, nbar in ((a1, params.gamma1, params.nbar1),
                                        (a2, params.gamma2, params.nbar2))
                 for rate, c in ((gamma * (nbar + 1.0), a), (gamma * nbar, a.T))
                 if rate > 0.0]
        h_eff = -params.g * (k + k.conj().T) - 0.5j * sum(c.conj().T @ c for c in jumps)
        liou = sp.kronsum(1j * h_eff.conj(), -1j * h_eff, format="csr")
        for c in jumps:
            liou += sp.kron(c, c.conj(), format="csr")
        state = oracle.build_initial(cat1, cat2, d1, d2)
        expect = expm_multiply(t * liou, state.rho.reshape(-1), traceA=t * liou.diagonal().sum())
        got = oracle.evolve(state, params, t).rho.reshape(-1)
        assert np.max(np.abs(got - expect)) <= 1e-14

    def test_damped_matches_dense_exponential(self):
        params = ca.AmplifierParams(g=1.0, pump_phase=0.7, gamma1=1.0, gamma2=0.5,
                                    nbar1=0.3, nbar2=0.2)
        t = 0.3
        state = oracle.build_initial(ca.CatSpec.even(0.25), ca.CatSpec.yurke_stoler(0.15), 6, 5)
        expect = expm(t * _dense_generator(params, state)) @ state.rho.reshape(-1)
        got = oracle.evolve(state, params, t).rho.reshape(-1)
        assert np.max(np.abs(got - expect)) < 1e-13

    def test_bit_identical_under_any_global_rng_state(self):
        # the Taylor loop takes s = ceil(t ||L - mu I||_1 / 9.9) steps, with the
        # 1-norm (76.15 here) read exactly off the diagonals: s = 3 at t = 0.3
        # and s = 24 at t = 3; neither count nor any step draws from np.random
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
        # strong damping makes ||tL - mu I||_1 far exceed 63.4, where scipy's
        # expm_multiply estimated 1-norms from random vectors (unseeded, seeds
        # 0-5 of the global generator gave two different results here); the
        # Taylor propagator takes the exact 1-norm and draws nothing
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


_DAMPED = ca.AmplifierParams(g=1.0, pump_phase=0.7, gamma1=1.0, gamma2=0.5, nbar1=0.3, nbar2=0.2)


class TestObservables:
    def test_vacuum_variances(self):
        state = oracle.build_initial(ca.CatSpec.even(0.0), ca.CatSpec.even(0.0), 8, 8)
        v = oracle.quadrature_variances(state)
        assert v["x1"] == pytest.approx(0.25, abs=1e-12)
        assert v["y1"] == pytest.approx(0.25, abs=1e-12)
        sf = oracle.squeeze_factors(state)
        assert all(abs(val) < 1e-12 for val in sf.values())

    def test_variances_match_three_product_form(self):
        # unequal dimensions catch a swap of d1 and d2 in the tensor reading of rho
        for cat1, cat2, dims in ((ca.CatSpec.even(0.8), ca.CatSpec.yurke_stoler(0.6), (12, 12)),
                                 (ca.CatSpec.even(0.5), ca.CatSpec.yurke_stoler(0.3), (9, 7))):
            state = oracle.build_initial(cat1, cat2, *dims)
            evolved = oracle.evolve(state, _DAMPED, 0.3)
            a1, a2 = _dense_mode_ops(*dims)
            rho = evolved.rho
            got = oracle.quadrature_variances(evolved)
            for label, op in (("1", a1), ("2", a2), ("c", a1 + a2)):
                x = 0.5 * (op + op.conj().T)
                y = -0.5j * (op - op.conj().T)
                for q, key in ((x, f"x{label}"), (y, f"y{label}")):
                    # Tr(rho q^2) - Tr(rho q)^2
                    expect = np.trace(rho @ q @ q).real - np.trace(rho @ q).real ** 2
                    assert got[key] == pytest.approx(expect, rel=0, abs=1e-14)

    def test_observables_match_dense_kron_at_unequal_dims(self):
        # every observable against operators on the joint space, at 9 x 7
        state = oracle.build_initial(ca.CatSpec.even(0.5), ca.CatSpec.yurke_stoler(0.3), 9, 7)
        evolved = oracle.evolve(state, _DAMPED, 0.3)
        rho = evolved.rho
        a1, a2 = _dense_mode_ops(9, 7)
        power = np.linalg.matrix_power
        for m1, n1, m2, n2 in itertools.product(range(5), repeat=4):
            if m1 + n1 + m2 + n2 <= 4:
                op = power(a1.T, m1) @ power(a1, n1) @ power(a2.T, m2) @ power(a2, n2)
                expect = np.trace(rho @ op)
                assert abs(oracle.fock_moment(evolved, m1, n1, m2, n2) - expect) <= 1e-14
        for z1, z2 in ((0.3 - 0.2j, 0.5j), (-0.6, 0.4 + 0.1j)):
            # e^{z1 a1+} e^{-z1* a1} e^{z2 a2+} e^{-z2* a2}, from scipy's expm
            op = (expm(z1 * a1.T) @ expm(-np.conj(z1) * a1)
                  @ expm(z2 * a2.T) @ expm(-np.conj(z2) * a2))
            assert abs(oracle.char_fn(evolved, z1, z2) - np.trace(rho @ op)) <= 1e-14
        total = np.diag(np.kron(np.diag(np.arange(9)), np.eye(7))
                        + np.kron(np.eye(9), np.diag(np.arange(7))))
        expect = [np.trace(rho @ np.diag(total == n)).real for n in range(15)]
        assert np.allclose(oracle.pnd_sum(evolved), expect, rtol=0, atol=1e-15)
        # one class part: |alpha><-alpha| (x) |cat2><cat2|, evolved, is not Hermitian
        cat2 = oracle._cat_vec(ca.CatSpec.yurke_stoler(0.3), 7)
        ket, bra = (np.kron(oracle._coherent_vec(alpha, 9), cat2) for alpha in (0.5, -0.5))
        part = oracle.evolve(oracle.FockState(9, 7, np.outer(ket, bra.conj())), _DAMPED, 0.3)
        assert np.max(np.abs(part.rho - part.rho.conj().T)) > 1e-3
        expect = np.trace(part.rho @ part.rho).real
        assert part.purity() == pytest.approx(expect, rel=0, abs=1e-15)

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

    def test_displacement_elements_match_scipy_laguerre(self):
        # |w|^2 up to 130 covers the oracle-check lattices (|2z|^2 <= 128)
        dim = 30
        x = np.concatenate([np.linspace(0.0, 130.0, 261), [1e-3, 0.37, 127.9]])
        w = np.sqrt(x)
        worst = 0.0
        for k, elems in enumerate(oracle._displacement_diagonals(w, dim)):
            for n in range(dim - k):
                weight = math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(n + k + 1)))
                expect = weight * w ** k * np.exp(-0.5 * x) * eval_genlaguerre(n, k, x)
                worst = max(worst, float(np.max(np.abs(elems[n] - expect))))
        assert worst <= 1e-14

    def test_wigner_matches_the_double_sum(self):
        # Tr[rho D(2z) parity] summed pair by pair, with the scipy Laguerre polynomials
        state = oracle.build_initial(ca.CatSpec.even(0.9, 0.4), ca.CatSpec.yurke_stoler(0.5),
                                     16, 10)
        params = ca.AmplifierParams(g=1.0, pump_phase=0.7, gamma1=0.8, nbar1=0.3)
        evolved = oracle.evolve(state, params, 0.2)
        rho1 = evolved.reduced(1)
        z = np.array([0.0, 0.3 - 0.2j, -1.1 + 0.7j, 2.5 + 1.5j])
        w = 2.0 * z
        x = np.abs(w) ** 2
        expect = np.zeros(z.shape, dtype=complex)
        for m in range(16):
            for n in range(16):
                lo, hi = min(m, n), max(m, n)
                power = w ** (n - m) if n >= m else (-np.conj(w)) ** (m - n)
                elem = (math.exp(0.5 * (math.lgamma(lo + 1) - math.lgamma(hi + 1))) * power
                        * np.exp(-0.5 * x) * eval_genlaguerre(lo, hi - lo, x))
                expect += rho1[m, n] * (-1) ** m * elem
        got = oracle.wigner(evolved, z)
        assert np.max(np.abs(got - (2.0 / math.pi) * expect.real)) <= 1e-14

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
