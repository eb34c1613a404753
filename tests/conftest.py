"""Shared fixtures and the acceptance-criteria summary hook."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import strategies as st

import catamp as ca

# one pass/fail line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(name: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, ok, detail))


def run_fresh_python(code: str) -> None:
    """Run code in a new interpreter that imports this checkout's catamp.

    The test modules import scipy themselves, so only a fresh process shows
    which modules a code path loads.
    """
    src = os.path.dirname(os.path.dirname(ca.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def undamped_params() -> ca.AmplifierParams:
    return ca.AmplifierParams(g=1.0, pump_phase=np.pi / 2)


CAT_MAKERS = {"even": ca.CatSpec.even, "odd": ca.CatSpec.odd,
              "yss": ca.CatSpec.yurke_stoler}


def make_system(kind1: str, a1: float, kind2: str, a2: float,
                psi1: float = 0.0, psi2: float = 0.0, *, g: float = 1.0,
                pump: float = np.pi / 2, gamma: float = 0.0,
                nbar: float = 0.0) -> ca.System:
    return ca.System(
        CAT_MAKERS[kind1](a1, psi1),
        CAT_MAKERS[kind2](a2, psi2),
        ca.AmplifierParams(g=g, pump_phase=pump, gamma1=gamma, gamma2=gamma,
                           nbar1=nbar, nbar2=nbar),
    )


def random_cat(rng: np.random.Generator, max_mag: float = 2.0) -> ca.CatSpec:
    kind = rng.integers(0, 3)
    mag = float(rng.uniform(0.05, max_mag))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    if kind == 0:
        return ca.CatSpec.even(mag, phase)
    if kind == 1:
        return ca.CatSpec.odd(mag, phase)
    return ca.CatSpec.yurke_stoler(mag, phase)


def swap_modes(system: ca.System) -> ca.System:
    """The same configuration with signal and idler exchanged."""
    p = system.params
    return ca.System(system.cat2, system.cat1, dataclasses.replace(
        p, gamma1=p.gamma2, gamma2=p.gamma1, nbar1=p.nbar2, nbar2=p.nbar1))


# hypothesis strategies of the property-based tests
cats = st.builds(lambda kind, mag, phase: CAT_MAKERS[kind](mag, phase),
                 st.sampled_from(sorted(CAT_MAKERS)), st.floats(0.3, 2.0), st.floats(0.0, 6.28))
amplifiers = st.builds(ca.AmplifierParams, g=st.floats(0.1, 1.5),
                       pump_phase=st.floats(0.0, 6.28), gamma1=st.floats(0.0, 2.0),
                       gamma2=st.floats(0.0, 2.0), nbar1=st.floats(0.0, 1.0),
                       nbar2=st.floats(0.0, 1.0))
