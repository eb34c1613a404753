"""Task bodies and per-task correctness checks of the four workloads.

A task is split in two: ``call()`` is the timed part and touches only the
public API of catamp; ``check(result)`` runs after the timer stops and
returns a list of failure messages (empty when the outputs are correct).
The tolerances were measured at the commit that introduced the benchmark;
they are fixed here, never tuned per seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import catamp as ca
from catamp import cli, oracle

REL_PHASE = {"even": 0.0, "odd": math.pi, "yurke_stoler": math.pi / 2}

# pnd_large / scan_small
NORM_TOL = 1e-8          # |sum P - 1|
NEG_TOL = 1e-9           # min P >= -NEG_TOL * max P
PARTS_TOL = 1e-12        # class parts sum to P, relative to max |part|
MEAN_TOL = 1e-8          # sum_pnd mean vs <n1> + <n2>, relative, beyond the tail
# phase_space
INTEGRAL_TOL = 1e-3      # sidecar integral vs 1
# oracle_xcheck (criterion 2 bounds)
ORACLE_TOL_LOSSLESS = 1e-6
ORACLE_TOL_DAMPED = 1e-4
ORACLE_WIGNER_EXTENT = 3.0
ORACLE_WIGNER_N = 21


@dataclass
class Task:
    """One prepared task: the timed call and its check."""

    id: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    # counts the trace reports that no wrapped function sees (bytes written)
    counters: Callable[[Any], dict[str, float]] = lambda result: {}


def system_of(spec: dict) -> ca.System:
    def cat(d):
        return ca.CatSpec(d["amp_mag"], d["amp_phase"], REL_PHASE[d["kind"]])

    return ca.System(cat(spec["cat1"]), cat(spec["cat2"]), ca.AmplifierParams(**spec["params"]))


# --- shared distribution checks -----------------------------------------------------


def check_distribution(label: str, probs: np.ndarray) -> list[str]:
    if not np.all(np.isfinite(probs)):
        return [f"{label}: non-finite probabilities"]
    out = []
    dev = abs(float(np.sum(probs)) - 1.0)
    if dev > NORM_TOL:
        out.append(f"{label}: |sum P - 1| = {dev:.2e} > {NORM_TOL:.0e}")
    pmax = float(np.max(probs))
    pmin = float(np.min(probs))
    if pmin < -NEG_TOL * pmax:
        out.append(f"{label}: min P = {pmin:.2e} below -{NEG_TOL:.0e} * max P")
    return out


def check_sum_distribution(dist, system, t) -> list[str]:
    """Normalization, positivity, class parts and mean of a sum distribution."""
    out = check_distribution("sum_pnd", dist.probs)
    parts = list(dist.class_parts.values())
    if not all(np.all(np.isfinite(p)) for p in parts):
        return out + ["sum_pnd: non-finite class part"]
    scale = max(float(np.max(np.abs(p))) for p in parts)
    gap = float(np.max(np.abs(sum(parts) - dist.probs)))
    if gap > PARTS_TOL * scale:
        out.append(f"sum_pnd: class parts miss P by {gap:.2e}")
    # the truncated support misses the tail's first moment, which lies
    # between (n_max + 1) * tail and, for the geometric tails here, twice that
    expect = (ca.moment(1, 1, 0, 0, system, t) + ca.moment(0, 0, 1, 1, system, t)).real
    tol = MEAN_TOL * max(1.0, abs(expect))
    deficit = expect - dist.mean()
    tail_moment = 2.0 * (dist.n_max + 1) * max(0.0, 1.0 - dist.total)
    if not -tol <= deficit <= tol + tail_moment:
        out.append(f"sum_pnd: mean {dist.mean():.10g} vs moments {expect:.10g} "
                   f"(deficit {deficit:.2e}, tail allowance {tail_moment:.2e})")
    return out


def _finite(label: str, values) -> list[str]:
    arr = np.asarray(values, dtype=complex)
    return [] if np.all(np.isfinite(arr)) else [f"{label}: non-finite value"]


# --- pnd_large --------------------------------------------------------------------


def pnd_task(spec: dict) -> Task:
    system, t = system_of(spec), spec["t"]

    def call():
        return ca.sum_pnd(system, t), ca.single_pnd(1, system, t)

    def check(result):
        dist, single = result
        return check_sum_distribution(dist, system, t) + check_distribution(
            "single_pnd(1)", single.probs)

    return Task(spec["id"], call, check)


# --- scan_small -------------------------------------------------------------------


def scan_task(spec: dict) -> Task:
    system, t = system_of(spec), spec["t"]

    def call():
        return {
            "two_mode": ca.two_mode_squeezing(system, t),
            "single1": ca.single_mode_squeezing(1, system, t),
            "single2": ca.single_mode_squeezing(2, system, t),
            "n1": ca.moment(1, 1, 0, 0, system, t),
            "kc2": ca.factorial_moments(system, t, 2),
            "kc5": ca.factorial_moments(system, t, 5),
            "kc2_single": ca.factorial_moments(system, t, 2, scope="single"),
            "sum": ca.sum_pnd(system, t),
            "single2_pnd": ca.single_pnd(2, system, t),
        }

    def check(r):
        scalars = [r["two_mode"].S, r["two_mode"].Q, r["single1"].S, r["single1"].Q,
                   r["single2"].S, r["single2"].Q, r["n1"],
                   *r["kc2"], *r["kc5"], *r["kc2_single"]]
        return (_finite("squeezing/moments", scalars)
                + check_sum_distribution(r["sum"], system, t)
                + check_distribution("single_pnd(2)", r["single2_pnd"].probs))

    return Task(spec["id"], call, check)


# --- phase_space ------------------------------------------------------------------


def wigner_task(spec: dict, workdir: str) -> Task:
    """One `catamp wigner --config` command, in-process, outputs in workdir."""
    stem = os.path.join(workdir, spec["id"])
    out = stem + ".csv"
    side = stem + ".meta.json"
    config = dict(spec["config"], out=out)
    config_path = stem + ".config.json"
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(config, f)

    def call():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(["wigner", "--config", config_path])

    def counters(code):
        return {"cli.bytes_written": float(sum(
            os.path.getsize(p) for p in (out, side) if os.path.exists(p)))}

    def check(code):
        try:
            return check_wigner_command(code, side)
        finally:
            for path in (out, side):
                if os.path.exists(path):
                    os.remove(path)

    return Task(spec["id"], call, check, counters)


def check_wigner_command(code: int, sidecar: str) -> list[str]:
    if code != 0:
        return [f"catamp wigner exited {code}"]
    try:
        with open(sidecar, "r", encoding="utf-8") as f:
            integral = json.load(f)["features"]["integral"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"sidecar unreadable: {exc}"]
    dev = abs(float(integral) - 1.0)
    if not dev <= INTEGRAL_TOL:
        return [f"Wigner integral off by {dev:.2e}"]
    return []


# --- oracle_xcheck ----------------------------------------------------------------


def oracle_task(spec: dict) -> Task:
    system, t = system_of(spec), spec["t"]
    d1, d2 = spec["dims"]
    tol = ORACLE_TOL_DAMPED if spec["damped"] else ORACLE_TOL_LOSSLESS
    ext, npts = ORACLE_WIGNER_EXTENT, ORACLE_WIGNER_N
    xs = np.linspace(-ext, ext, npts)
    z = xs[None, :] + 1j * xs[:, None]
    grid_spec = ca.GridSpec(-ext, ext, -ext, ext, npts, npts)

    def call():
        state = oracle.build_initial(system.cat1, system.cat2, d1, d2)
        evolved = oracle.evolve(state, system.params, t)
        ref = {
            "pnd_sum": oracle.pnd_sum(evolved),
            "pnd_1": oracle.pnd_single(evolved, 1),
            "pnd_2": oracle.pnd_single(evolved, 2),
            "squeeze": oracle.squeeze_factors(evolved),
            "wigner": oracle.wigner(evolved, z),
        }
        s1 = ca.single_mode_squeezing(1, system, t)
        s2 = ca.single_mode_squeezing(2, system, t)
        comp = ca.two_mode_squeezing(system, t)
        closed = {
            "pnd_sum": ca.sum_pnd(system, t, n_max=len(ref["pnd_sum"]) - 1).probs,
            "pnd_1": ca.single_pnd(1, system, t, n_max=len(ref["pnd_1"]) - 1).probs,
            "pnd_2": ca.single_pnd(2, system, t, n_max=len(ref["pnd_2"]) - 1).probs,
            "squeeze": {"S1": s1.S, "Q1": s1.Q, "S2": s2.S, "Q2": s2.Q,
                        "S": comp.S, "Q": comp.Q},
            "wigner": ca.wigner_grid(system, t, grid_spec).values,
        }
        return ref, closed

    def check(result):
        return check_oracle_deviation(*result, tol)

    return Task(spec["id"], call, check)


def oracle_deviations(ref: dict, closed: dict) -> dict[str, float]:
    devs = {key: float(np.max(np.abs(np.asarray(closed[key]) - np.asarray(ref[key]))))
            for key in ("pnd_sum", "pnd_1", "pnd_2", "wigner")}
    devs["squeeze"] = max(abs(closed["squeeze"][k] - ref["squeeze"][k]) for k in ref["squeeze"])
    return devs


def check_oracle_deviation(ref: dict, closed: dict, tol: float) -> list[str]:
    devs = oracle_deviations(ref, closed)
    return [f"oracle {key}: deviation {dev:.2e} > {tol:.0e}"
            for key, dev in sorted(devs.items()) if not dev <= tol]


# --- assembly ---------------------------------------------------------------------


def prepare(workload: str, specs: list[dict], workdir: str) -> list[Task]:
    if workload == "pnd_large":
        return [pnd_task(s) for s in specs]
    if workload == "scan_small":
        return [scan_task(s) for s in specs]
    if workload == "phase_space":
        return [wigner_task(s, workdir) for s in specs]
    if workload == "oracle_xcheck":
        return [oracle_task(s) for s in specs]
    raise ValueError(f"unknown workload {workload!r}")


def run_checked(task: Task, result: Any) -> list[str]:
    """The task's check; an exception in the check counts as a failure."""
    try:
        return task.check(result)
    except Exception as exc:  # a failed check must not abort the run
        return [f"check raised {type(exc).__name__}: {exc}"]
