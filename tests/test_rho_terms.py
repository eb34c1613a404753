import cmath
import math

import numpy as np
import pytest

import catamp as ca
from catamp import oracle
from catamp.rho_terms import coherent_overlap


def _rows(table):
    """(a1_ket, a1_bra, a2_ket, a2_bra, weight) of each row, rounded for set keys."""
    cols = (table.a1_ket, table.a1_bra, table.a2_ket, table.a2_bra, table.weight)
    return [tuple(complex(v) for v in row) for row in np.round(np.array(cols), 12).T]


class TestEnumeration:
    def test_counts_and_unit_weights(self, rng):
        from conftest import random_cat

        for _ in range(8):
            c1, c2 = random_cat(rng), random_cat(rng)
            table, _ = ca.enumerate_terms(c1, c2)
            assert len(table.kind) == 16
            for col in (table.a1_ket, table.a1_bra, table.a2_ket, table.a2_bra,
                        table.weight, table.prefactor):
                assert col.shape == (16,)
            counts = {kind: table.kind.count(kind) for kind in ca.TermClass}
            assert np.all(np.abs(np.abs(table.weight) - 1.0) < 1e-14)
            assert counts[ca.TermClass.MIXTURE] == 4
            assert counts[ca.TermClass.SYM_INTERFERENCE] == 4
            assert counts[ca.TermClass.ASYM_INTERFERENCE] == 8

    def test_even_even_weights_are_one(self):
        table, _ = ca.enumerate_terms(ca.CatSpec.even(1.0), ca.CatSpec.even(2.0))
        for weight in table.weight:
            assert weight == pytest.approx(1.0)

    def test_odd_even_weight_pattern(self):
        table, _ = ca.enumerate_terms(ca.CatSpec.odd(1.0), ca.CatSpec.even(2.0))
        for kind, weight, k1, b1 in zip(table.kind, table.weight, table.a1_ket, table.a1_bra):
            if kind is ca.TermClass.MIXTURE:
                assert weight == pytest.approx(1.0)
            elif kind is ca.TermClass.SYM_INTERFERENCE:
                assert weight.real == pytest.approx(-1.0, abs=1e-12)
            else:
                # mode-1 off-diagonal carry e^{+-i pi} = -1; mode-2 ones carry 1
                expect = -1.0 if k1 != b1 else 1.0
                assert weight.real == pytest.approx(expect, abs=1e-12)

    def test_hermiticity_closure(self, rng):
        from conftest import random_cat

        for _ in range(6):
            table, _ = ca.enumerate_terms(random_cat(rng), random_cat(rng))
            rows = _rows(table)
            keys = set(rows)
            for k1, b1, k2, b2, w in rows:
                assert (b1, k1, b2, k2, w.conjugate()) in keys

    def test_parity_partner_is_row_15_minus_i(self, rng):
        from conftest import random_cat

        for _ in range(6):
            table, _ = ca.enumerate_terms(random_cat(rng), random_cat(rng))
            for col in (table.a1_ket, table.a1_bra, table.a2_ket, table.a2_bra):
                assert np.array_equal(col[::-1], -col)
            assert table.kind[::-1] == table.kind
            assert np.allclose(table.weight[::-1], np.conj(table.weight), rtol=0, atol=1e-15)

    def test_canonical_ordering(self):
        table, _ = ca.enumerate_terms(ca.CatSpec.even(1.0), ca.CatSpec.even(2.0))
        signs = [
            (np.sign(k1.real), np.sign(b1.real), np.sign(k2.real), np.sign(b2.real))
            for k1, b1, k2, b2 in zip(table.a1_ket, table.a1_bra, table.a2_ket, table.a2_bra)
        ]
        expected = [
            (s1k, s1b, s2k, s2b)
            for s1k in (1, -1) for s1b in (1, -1) for s2k in (1, -1) for s2b in (1, -1)
        ]
        assert signs == expected

    def test_trace_via_overlaps(self, rng):
        from conftest import random_cat

        for _ in range(10):
            c1, c2 = random_cat(rng), random_cat(rng)
            table, norm = ca.enumerate_terms(c1, c2)
            # each prefactor is the row's weight times both coherent overlaps
            for k1, b1, k2, b2, w, pref in zip(table.a1_ket, table.a1_bra, table.a2_ket,
                                               table.a2_bra, table.weight, table.prefactor):
                expect = w * coherent_overlap(b1, k1) * coherent_overlap(b2, k2)
                assert pref == pytest.approx(expect, rel=1e-14, abs=1e-300)
            trace = norm * sum(table.prefactor.tolist())
            assert trace.real == pytest.approx(1.0, abs=1e-12)
            assert abs(trace.imag) < 1e-12

    def test_norm_factor(self):
        c1, c2 = ca.CatSpec.even(1.0), ca.CatSpec.odd(1.5)
        _, norm = ca.enumerate_terms(c1, c2)
        assert norm == pytest.approx(ca.normalization(c1) * ca.normalization(c2))


class TestFockReconstruction:
    def test_matches_direct_density_matrix(self, rng):
        # sum of weighted |ket><bra| outer products equals cat (x) cat
        dim = 40
        for mags in ((3.0, 2.0), (1.2, 2.8)):
            c1 = ca.CatSpec.even(mags[0], 0.3)
            c2 = ca.CatSpec.yurke_stoler(mags[1], 1.2)
            table, norm = ca.enumerate_terms(c1, c2)
            rho_direct = oracle.build_initial(c1, c2, dim, dim).rho
            rho_terms = np.zeros_like(rho_direct)
            for k1, b1, k2, b2, w in zip(table.a1_ket, table.a1_bra, table.a2_ket,
                                         table.a2_bra, table.weight):
                k = np.kron(oracle._coherent_vec(k1, dim), oracle._coherent_vec(k2, dim))
                b = np.kron(oracle._coherent_vec(b1, dim), oracle._coherent_vec(b2, dim))
                rho_terms += w * np.outer(k, b.conj())
            rho_terms *= norm
            assert np.max(np.abs(rho_terms - rho_direct)) < 1e-12
            assert abs(np.trace(rho_terms).real - 1.0) < 1e-10


class TestOverlap:
    def test_coherent_overlap(self):
        assert coherent_overlap(1.0, 1.0) == pytest.approx(1.0)
        assert coherent_overlap(1.0, -1.0) == pytest.approx(math.exp(-2.0))
        b, k = 0.7 + 0.2j, -0.3 + 1.1j
        expect = cmath.exp(np.conj(b) * k - abs(b) ** 2 / 2 - abs(k) ** 2 / 2)
        assert coherent_overlap(b, k) == pytest.approx(expect)
