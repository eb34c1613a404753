"""Acceptance suite: one test per criterion (two for criterion 7), each
printing a PASS/FAIL line.

Criterion 7 (phase decoherence) checks that a relative phase alone hides a
cat's coherence from the photon-number-sum distribution P(n).  The total
parity (-1)^(n1+n2) commutes with the amplifier, with the thermal losses and
with the projector onto n1 + n2 = n, so a density term and its partner with
every sign flipped contribute equally to P(n).  Their weights are complex
conjugates, so each interference class enters P(n) with a cosine of the
relative phases phi1 (signal) and phi2 (idler):

* symmetric interference (both modes off-diagonal): cos(phi1 +- phi2);
* asymmetric interference, idler off-diagonal: cos(phi2);
* asymmetric interference, signal off-diagonal: cos(phi1).

No pair of cats makes all three vanish, so P = P_M (the mixture class) is not
an identity.  For an even signal and a Yurke-Stoler idler (phi2 = pi/2)
every term with the idler off-diagonal drops out, so P(n) equals that of the
same signal with the idler replaced by its statistical mixture
((1 + x) even + (1 - x) odd) / 2, x = exp(-2|alpha2|^2).  That identity is
tested pointwise at 1e-12; the signal-side class (weight cos 0 = 1) that
keeps P away from P_M is reported for information.  A second test shows both
facts in the independent Fock oracle.
"""

import math
import time
import warnings

import numpy as np
from scipy.optimize import minimize, minimize_scalar

import catamp as ca
from catamp import oracle
from catamp.cli import _oracle_deviations, main as cli_main
from catamp.squeezing import _f_even

from conftest import record_criterion


SEED = 987654321


def _random_system(rng):
    def cat():
        kind = rng.integers(0, 3)
        mag = float(rng.uniform(0.05, 2.0))
        phase = float(rng.uniform(0, 2 * np.pi))
        if kind == 0:
            return ca.CatSpec.even(mag, phase)
        if kind == 1:
            return ca.CatSpec.odd(mag, phase)
        return ca.CatSpec.yurke_stoler(mag, phase)

    g = float(rng.uniform(0.3, 1.5))
    gamma = float(rng.uniform(0.0, 4.0 * g))
    return ca.System(cat(), cat(), ca.AmplifierParams(
        g=g, pump_phase=float(rng.uniform(0, 2 * np.pi)),
        gamma1=gamma, gamma2=gamma,
        nbar1=float(rng.uniform(0, 2)), nbar2=float(rng.uniform(0, 2)),
    )), float(rng.uniform(0.0, 1.0 / g))


def test_criterion_1_normalization_suite():
    rng = np.random.default_rng(SEED)
    start = time.time()
    worst_pnd = 0.0
    worst_wig = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(200):
            system, t = _random_system(rng)
            if i % 2 == 0:
                dist = ca.sum_pnd(system, t)
                worst_pnd = max(worst_pnd, abs(dist.total - 1.0))
            else:
                grid = ca.wigner_grid(system, t)
                worst_wig = max(worst_wig, abs(grid.integral() - 1.0))
    elapsed = time.time() - start
    ok = worst_pnd <= 1e-8 and worst_wig <= 1e-3 and elapsed < 120.0
    record_criterion(
        "criterion 1: normalization sweep",
        ok, f"pnd dev {worst_pnd:.2e}, wigner dev {worst_wig:.2e}, {elapsed:.0f}s")
    assert worst_pnd <= 1e-8
    assert worst_wig <= 1e-3
    assert elapsed < 120.0


def test_criterion_2_oracle_equivalence():
    start = time.time()
    undamped = [
        ca.System(ca.CatSpec.even(1.2, 0.3), ca.CatSpec.odd(0.9),
                  ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2)),
        ca.System(ca.CatSpec.yurke_stoler(1.0), ca.CatSpec.even(1.1, 1.2),
                  ca.AmplifierParams(g=1.0, pump_phase=0.6)),
    ]
    worst_undamped = 0.0
    for system in undamped:
        worst = max(_oracle_deviations(system, 0.5, (26, 24), 4.0, 41).values())
        worst_undamped = max(worst_undamped, worst)

    worst_damped = 0.0
    for gamma in (1.0, 3.0):  # 2g - 1 and 2g + 1 at g = 1
        for nbar in (0.0, 0.5, 1.0):
            system = ca.System(
                ca.CatSpec.even(1.1), ca.CatSpec.yurke_stoler(0.9),
                ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2, gamma1=gamma,
                                   gamma2=gamma, nbar1=nbar, nbar2=nbar))
            worst = max(_oracle_deviations(system, 0.4, (22, 22), 4.0, 41).values())
            worst_damped = max(worst_damped, worst)
    elapsed = time.time() - start
    ok = worst_undamped <= 1e-6 and worst_damped <= 1e-4 and elapsed < 600.0
    record_criterion(
        "criterion 2: oracle equivalence",
        ok, f"undamped {worst_undamped:.2e}, damped {worst_damped:.2e}, {elapsed:.0f}s")
    assert worst_undamped <= 1e-6
    assert worst_damped <= 1e-4
    assert elapsed < 600.0


def test_criterion_3_sum_parity():
    system = ca.System(ca.CatSpec.even(3.0), ca.CatSpec.even(2.0),
                       ca.AmplifierParams(g=1e4, pump_phase=np.pi / 2))
    dist = ca.sum_pnd(system, 3e-4)
    odd_mass = abs(float(np.sum(dist.probs[1::2])))
    ok = odd_mass < 1e-10
    record_criterion("criterion 3: photon-sum parity", ok, f"odd mass {odd_mass:.2e}")
    assert odd_mass < 1e-10


def test_criterion_4_wigner_negativity_switch():
    results = {}
    for label, amps in (("3_2", (3.0, 2.0)), ("2_2", (2.0, 2.0)), ("2_3", (2.0, 3.0))):
        system = ca.System(ca.CatSpec.even(amps[0]), ca.CatSpec.even(amps[1]),
                           ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2))
        _, cut = ca.wigner_cut(system, 0.55, y=-0.25)
        wmax = float(ca.wigner_grid(system, 0.55).values.max())
        results[label] = (float(cut.min()), wmax)
    ok = (results["3_2"][0] < -0.01 * results["3_2"][1]
          and results["2_2"][0] > -1e-3 * results["2_2"][1]
          and results["2_3"][0] > -1e-3 * results["2_3"][1])
    record_criterion(
        "criterion 4: negativity switch on the reference cut", ok,
        f"min/max (3,2) {results['3_2'][0]/results['3_2'][1]:.3f}, "
        f"(2,2) {results['2_2'][0]/results['2_2'][1]:.1e}, "
        f"(2,3) {results['2_3'][0]/results['2_3'][1]:.1e}")
    assert ok


def test_criterion_5_regime_morphology():
    over = ca.System(ca.CatSpec.even(3.0), ca.CatSpec.even(2.0),
                     ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2, gamma1=5.0,
                                        gamma2=5.0, nbar1=1.0, nbar2=1.0))
    grid_over = ca.wigner_grid(over, 0.55)
    peaks_over = ca.count_peaks(grid_over)
    no_neg = grid_over.values.min() > -1e-3 * grid_over.values.max()

    under = ca.System(ca.CatSpec.even(3.0), ca.CatSpec.even(2.0),
                      ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2, gamma1=1.0,
                                         gamma2=1.0, nbar1=1.0, nbar2=1.0))
    peaks_under = ca.count_peaks(ca.wigner_grid(under, 0.55))
    ok = peaks_over == 1 and no_neg and peaks_under == 2
    record_criterion(
        "criterion 5: damped regime morphology", ok,
        f"overdamped peaks {peaks_over}, underdamped peaks {peaks_under}")
    assert peaks_over == 1
    assert no_neg
    assert peaks_under == 2


def test_criterion_6_squeezing_numerics():
    # (a) minimizer and minimum of the even-cat noise function
    res = minimize_scalar(_f_even, bounds=(0.01, 5.0), method="bounded",
                          options={"xatol": 1e-12})
    ok_a = (0.55 <= res.x <= 0.80) and (-0.30 < res.fun < -0.25)

    # (b) optimum of the compound squeeze-time bound, squared-amplitude axes
    def neg(p):
        x, y = p
        if x <= 0.0 or y <= 1e-8:
            return 1.0
        val = ca.two_mode_squeeze_time_bound(math.sqrt(x), math.sqrt(y))
        return 1.0 if val is None else -val

    best = min((minimize(neg, x0, method="Nelder-Mead",
                         options={"xatol": 1e-10, "fatol": 1e-14})
                for x0 in ((0.5, 2.0), (0.6, 2.4), (0.8, 3.0))),
               key=lambda r: r.fun)
    tau = -best.fun
    ok_b = (abs(tau - 0.1769) <= 0.002 and abs(best.x[0] - 0.6) <= 0.05
            and abs(best.x[1] - 2.4) <= 0.05)

    # (c) odd signal cat is never squeezed
    params = ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2)
    worst_q = np.inf
    for x1 in np.linspace(0.05, 4.0, 15):
        for x2 in np.linspace(0.05, 4.0, 7):
            for t in np.linspace(0.0, 2.0, 15):
                q = ca.q_factor_odd_even(math.sqrt(x1), math.sqrt(x2), params, float(t))
                worst_q = min(worst_q, q)
    ok_c = worst_q >= -1e-12

    # (d) single-mode survival bound brackets the sign change
    a1, a2 = math.sqrt(0.7), 1.0
    bound = ca.squeeze_survival_time(ca.CatSpec.even(a1), ca.CatSpec.even(a2), 1.0)
    below = ca.q_factor_even_even(a1, a2, params, bound * 0.995)
    above = ca.q_factor_even_even(a1, a2, params, bound * 1.005)
    ok_d = below < 0.0 <= above

    ok = ok_a and ok_b and ok_c and ok_d
    record_criterion(
        "criterion 6: squeezing numerics", ok,
        f"min f at {res.x:.4f} -> {res.fun:.4f}; tau {tau:.5f} at "
        f"({best.x[0]:.3f},{best.x[1]:.3f}); min Q_oe {worst_q:.1e}; "
        f"bracket ({below:.1e}, {above:.1e})")
    assert ok_a and ok_b and ok_c and ok_d


def _idler_mixture(p_even, p_odd, idler_mag):
    """P(n) of the idler mixture from the even- and odd-idler distributions."""
    x = math.exp(-2.0 * idler_mag**2)
    return 0.5 * ((1.0 + x) * p_even + (1.0 - x) * p_odd)


def test_criterion_7_phase_decoherence():
    a1, a2, t = 3.0, 2.0, 3e-4
    params = ca.AmplifierParams(g=1e4, pump_phase=np.pi / 2)
    dist = ca.sum_pnd(
        ca.System(ca.CatSpec.even(a1), ca.CatSpec.yurke_stoler(a2), params), t)
    p_even, p_odd = (
        ca.sum_pnd(ca.System(ca.CatSpec.even(a1), idler(a2), params), t,
                   n_max=dist.n_max).probs
        for idler in (ca.CatSpec.even, ca.CatSpec.odd))
    dev = float(np.max(np.abs(dist.probs - _idler_mixture(p_even, p_odd, a2))))
    signal_side = float(np.max(np.abs(
        dist.probs - dist.class_parts[ca.TermClass.MIXTURE])))
    ok = dev <= 1e-12
    record_criterion(
        "criterion 7: phase decoherence pointwise identity", ok,
        f"max|P - P_idler mixture| = {dev:.2e}; max|P - P_M| = {signal_side:.2e} "
        f"(signal-side asymmetric interference, weight cos(phi1) = 1; "
        f"relative to max P = {signal_side / dist.probs.max():.1e})")
    assert dev <= 1e-12


def test_criterion_7_identity_in_the_oracle():
    # the Fock oracle alone (no closed form) shows the idler-mixture identity
    # and the O(1e-1) gap between P and P_M that rules P = P_M out
    a1, a2, t, dim = 1.2, 0.9, 0.3, 28
    params = ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2)

    def oracle_pnd(state):
        return oracle.pnd_sum(oracle.evolve(state, params, t))

    def initial(cat1, cat2):
        return oracle.build_initial(cat1, cat2, dim, dim)

    signal = ca.CatSpec.even(a1)
    p_ys = oracle_pnd(initial(signal, ca.CatSpec.yurke_stoler(a2)))
    p_even = oracle_pnd(initial(signal, ca.CatSpec.even(a2)))
    p_odd = oracle_pnd(initial(signal, ca.CatSpec.odd(a2)))
    dev = float(np.max(np.abs(p_ys - _idler_mixture(p_even, p_odd, a2))))

    # mixture class of even (x) YS: N1^2 N2^2 times the four diagonal coherent
    # projectors, i.e. (signal mixture (x) idler mixture) / (1 + x1); each
    # mixture is ((1 + x) even + (1 - x) odd) / 2
    x1, x2 = math.exp(-2.0 * a1**2), math.exp(-2.0 * a2**2)
    kinds = ((ca.CatSpec.even, 1.0), (ca.CatSpec.odd, -1.0))
    rho = sum(0.25 * (1.0 + s1 * x1) * (1.0 + s2 * x2)
              * initial(cat1(a1), cat2(a2)).rho
              for cat1, s1 in kinds for cat2, s2 in kinds)
    p_m = oracle_pnd(oracle.FockState(dim, dim, rho)) / (1.0 + x1)
    gap = float(np.max(np.abs(p_ys - p_m)))

    # every (n1, n2) with n1 + n2 < dim lies inside the basis
    dist = ca.sum_pnd(ca.System(signal, ca.CatSpec.yurke_stoler(a2), params), t,
                      n_max=dim - 1)
    closed = max(
        float(np.max(np.abs(dist.probs - p_ys[:dim]))),
        float(np.max(np.abs(dist.class_parts[ca.TermClass.MIXTURE] - p_m[:dim]))))

    ok = dev <= 1e-12 and closed <= 1e-12 and gap > 1e-2
    record_criterion(
        "criterion 7: oracle evidence", ok,
        f"oracle max|P - P_idler mixture| = {dev:.2e}, closed form vs oracle "
        f"{closed:.2e}, oracle max|P - P_M| = {gap:.2e}")
    assert dev <= 1e-12
    assert closed <= 1e-12
    assert gap > 1e-2


def test_criterion_8_compound_decomposition():
    rng = np.random.default_rng(SEED + 8)
    kinds = (ca.CatSpec.even, ca.CatSpec.odd, ca.CatSpec.yurke_stoler)
    worst = 0.0
    for i in range(50):
        c1 = kinds[rng.integers(0, 3)](float(rng.uniform(0.2, 1.8)))
        c2 = kinds[rng.integers(0, 3)](float(rng.uniform(0.2, 1.8)))
        gamma = float(rng.uniform(0.0, 1.5)) if i % 2 else 0.0
        params = ca.AmplifierParams(g=float(rng.uniform(0.3, 1.4)), pump_phase=0.0,
                                    gamma1=gamma, gamma2=gamma,
                                    nbar1=float(rng.uniform(0, 1)) if gamma else 0.0,
                                    nbar2=float(rng.uniform(0, 1)) if gamma else 0.0)
        system = ca.System(c1, c2, params)
        t = float(rng.uniform(0.0, 1.0))
        q_c = ca.two_mode_squeezing(system, t).Q
        half_sum = 0.5 * (ca.single_mode_squeezing(1, system, t).Q
                          + ca.single_mode_squeezing(2, system, t).Q)
        worst = max(worst, abs(q_c - half_sum))
    ok = worst <= 1e-12
    record_criterion("criterion 8: compound Y-factor decomposition", ok,
                     f"max deviation {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_9_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli_main(["figure", "6", "--out", str(out1)]) == 0
    assert cli_main(["figure", "6", "--out", str(out2)]) == 0
    same_data = out1.read_bytes() == out2.read_bytes()
    same_meta = ((tmp_path / "r1.meta.json").read_bytes()
                 == (tmp_path / "r2.meta.json").read_bytes())
    ok = same_data and same_meta
    record_criterion("criterion 9: byte-identical reruns", ok,
                     f"data {same_data}, sidecar {same_meta}")
    assert ok
