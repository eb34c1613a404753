"""Seeded input generators for the four benchmark workloads.

Standard library only: the set-up probe builds its inputs before it starts
timing ``import catamp``, so nothing here may pull in numpy or catamp.

Each generator draws from a ``random.Random`` keyed by workload name and
seed.  The seed picks the inputs; it is never passed to catamp.

The workloads whose cost grows steeply with the inputs (``pnd_large``,
``phase_space``, ``oracle_xcheck``) are stratified: every task belongs to a
fixed stratum (cat kinds, |alpha|, g*t, damping, mismatch phase) and the seed
jitters the cost-setting values by at most 1 % (g*t by 0.2 %) and draws the
values the cost does not depend on: the gain g (the time is g*t / g), and,
except in ``phase_space``, a random phase frame for the two amplitudes with
the pump phase following so that the mismatch phase
psi = pump_phase - amp_phase1 - amp_phase2 keeps its stratum value.
Without this, one draw of |alpha| and g*t moves the photon-number truncation
(and the O(n^2) convolution) by a factor of ten and the run time with it,
and two seeds would not measure the same workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("pnd_large", "scan_small", "phase_space", "oracle_xcheck")
KINDS = ("even", "odd", "yurke_stoler")
TWO_PI = 2.0 * math.pi


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{int(seed)}")


def _jitter(rng: random.Random, center: float, rel: float = 0.01) -> float:
    return center * (1.0 + rng.uniform(-rel, rel))


def _frame(rng: random.Random, psi: float) -> tuple[float, float, float]:
    """Random amplitude phases and the pump phase that keeps the mismatch psi."""
    phi1 = rng.uniform(0.0, TWO_PI)
    phi2 = rng.uniform(0.0, TWO_PI)
    return phi1, phi2, math.fmod(psi + phi1 + phi2, TWO_PI)


def _cat(kind: str, amp_mag: float, amp_phase: float) -> dict:
    return {"kind": kind, "amp_mag": amp_mag, "amp_phase": amp_phase}


def _params(g: float, pump_phase: float, gamma1: float = 0.0, gamma2: float = 0.0,
            nbar1: float = 0.0, nbar2: float = 0.0) -> dict:
    return {"g": g, "pump_phase": pump_phase, "gamma1": gamma1, "gamma2": gamma2,
            "nbar1": nbar1, "nbar2": nbar2}


def _stratified_point(rng, task_id, kinds, amps, gt, psi, damping=None, rotate=True) -> dict:
    """One task of a stratified workload.

    damping -- (gamma1/g, gamma2/g, nbar1, nbar2) stratum centre, or None
    rotate  -- draw the phase frame; without it the amplitudes are real and
               the pump phase is psi
    """
    g = rng.uniform(0.5, 2.0)
    phi1, phi2, pump = _frame(rng, psi) if rotate else (0.0, 0.0, psi)
    if damping is None:
        params = _params(g, pump)
    else:
        r1, r2, n1, n2 = damping
        params = _params(g, pump, gamma1=g * _jitter(rng, r1), gamma2=g * _jitter(rng, r2),
                         nbar1=_jitter(rng, n1), nbar2=_jitter(rng, n2))
    return {
        "id": task_id,
        "cat1": _cat(kinds[0], _jitter(rng, amps[0]), phi1),
        "cat2": _cat(kinds[1], _jitter(rng, amps[1]), phi2),
        "params": params,
        "t": _jitter(rng, gt, 0.002) / g,
    }


# --- pnd_large -------------------------------------------------------------------

# (signal kind, idler kind), (|alpha1|, |alpha2|), g*t, psi; each level runs
# once lossless and once lightly damped.  Auto n_max spans about 1.7k-5k; the
# figure-6 configuration (n_max 23 924) closes the list.
_PND_LEVELS = (
    (("even", "odd"), (2.0, 1.6), 2.0, math.pi / 2),
    (("odd", "even"), (1.8, 1.5), 2.4, 0.0),
    (("yurke_stoler", "yurke_stoler"), (2.5, 2.0), 2.3, math.pi / 2),
    (("even", "even"), (3.0, 2.0), 2.3, 0.0),
    (("odd", "yurke_stoler"), (2.2, 1.8), 2.4, math.pi / 2),
)
# gamma1/g, gamma2/g, nbar1, nbar2: gamma <= 0.5 g and nbar <= 1
_PND_DAMPING = (0.4, 0.3, 0.8, 0.6)

FIGURE_6 = {
    "id": "figure6",
    "cat1": _cat("even", 3.0, 0.0),
    "cat2": _cat("even", 2.0, 0.0),
    "params": _params(1e4, math.pi / 2),
    "t": 3e-4,
}


def pnd_large(seed: int) -> list[dict]:
    rng = _rng("pnd_large", seed)
    tasks = []
    for i, (kinds, amps, gt, psi) in enumerate(_PND_LEVELS):
        for damped in (False, True):
            tasks.append(_stratified_point(
                rng, f"L{i}{'d' if damped else 'u'}", kinds, amps, gt, psi,
                _PND_DAMPING if damped else None))
    tasks.append(dict(FIGURE_6))
    return tasks


# --- scan_small ------------------------------------------------------------------

SCAN_POINTS = 500


def scan_small(seed: int) -> list[dict]:
    """Points drawn like the acceptance suite's random systems (criterion 1),
    with independent (asymmetric) decay rates at every odd point."""
    rng = _rng("scan_small", seed)

    def cat():
        return _cat(rng.choice(KINDS), rng.uniform(0.05, 2.0), rng.uniform(0.0, TWO_PI))

    tasks = []
    for i in range(SCAN_POINTS):
        cat1, cat2 = cat(), cat()
        g = rng.uniform(0.3, 1.5)
        gamma1 = rng.uniform(0.0, 4.0 * g)
        gamma2 = rng.uniform(0.0, 4.0 * g) if i % 2 else gamma1
        params = _params(g, rng.uniform(0.0, TWO_PI), gamma1, gamma2,
                         rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
        tasks.append({"id": f"p{i}", "cat1": cat1, "cat2": cat2, "params": params,
                      "t": rng.uniform(0.0, 1.0 / g)})
    return tasks


# --- phase_space -----------------------------------------------------------------

PHASE_SPACE_COMMANDS = 25


def phase_space(seed: int) -> list[dict]:
    """`catamp wigner` configs: all kind pairs, |alpha| 1-3, g*t 0.3-0.8, odd
    strata damped at gamma = 2g * (0.5 or 1.5), i.e. on both sides of 2g.

    The phase frame is not drawn here: a rotated pattern on the fixed square
    grid changes the number of strict local maxima that count_peaks has to
    resolve (15 to 31 for one stratum), and with it the cost of a command
    by a factor of two.
    """
    rng = _rng("phase_space", seed)
    n = PHASE_SPACE_COMMANDS
    tasks = []
    for i in range(n):
        kinds = (KINDS[i % 3], KINDS[(i // 3) % 3])
        amps = (1.0 + 2.0 * ((7 * i) % n) / (n - 1), 1.0 + 2.0 * ((11 * i + 5) % n) / (n - 1))
        gt = 0.3 + 0.5 * ((3 * i + 1) % n) / (n - 1)
        psi = (math.pi / 2, 0.0, math.pi)[i % 3]
        damping = None
        if i % 2:
            ratio = 2.0 * (0.5 if (i // 2) % 2 else 1.5)
            damping = (ratio, ratio, 0.5, 0.5)
        point = _stratified_point(rng, f"w{i}", kinds, amps, gt, psi, damping, rotate=False)
        tasks.append({
            "id": point["id"],
            "config": {
                "scenario": f"perfbench-{point['id']}",
                "cat1": point["cat1"],
                "cat2": point["cat2"],
                "params": point["params"],
                "time": point["t"],
            },
        })
    return tasks


# --- oracle_xcheck ---------------------------------------------------------------

ORACLE_DIMS = (14, 14)
# (kinds, amps, g*t, psi, damping): two lossless and three damped cases inside
# the oracle's converged domain |alpha| <= 0.8, g*t <= 0.3, gamma <= 3g,
# nbar <= 0.5, with room for the jitter.
_ORACLE_CASES = (
    (("even", "yurke_stoler"), (0.79, 0.6), 0.295, 0.7, None),
    (("odd", "even"), (0.7, 0.79), 0.25, math.pi / 2, None),
    (("even", "odd"), (0.75, 0.6), 0.295, math.pi / 2, (1.0, 1.0, 0.49, 0.49)),
    (("yurke_stoler", "yurke_stoler"), (0.6, 0.75), 0.2, 0.0, (2.9, 2.0, 0.3, 0.49)),
    (("odd", "yurke_stoler"), (0.7, 0.7), 0.25, 2.0, (1.5, 2.5, 0.2, 0.4)),
)


def oracle_xcheck(seed: int) -> list[dict]:
    rng = _rng("oracle_xcheck", seed)
    tasks = []
    for i, (kinds, amps, gt, psi, damping) in enumerate(_ORACLE_CASES):
        point = _stratified_point(rng, f"o{i}{'d' if damping else 'u'}",
                                  kinds, amps, gt, psi, damping)
        point["dims"] = list(ORACLE_DIMS)
        point["damped"] = damping is not None
        tasks.append(point)
    return tasks


GENERATORS = {
    "pnd_large": pnd_large,
    "scan_small": scan_small,
    "phase_space": phase_space,
    "oracle_xcheck": oracle_xcheck,
}


def generate(workload: str, seed: int) -> list[dict]:
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return GENERATORS[workload](seed)


def digest(tasks: list[dict]) -> str:
    """sha256 of the canonical JSON of the generated inputs."""
    blob = json.dumps(tasks, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
