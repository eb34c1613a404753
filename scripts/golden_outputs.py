"""Write a fixed set of CLI outputs and print their sha256 manifest.

    python scripts/golden_outputs.py OUTDIR

Runs ``catamp.cli.main`` in-process inside OUTDIR with relative output paths,
so the sidecars, which record the ``out`` path, compare across directories.
It writes every figure (CSV and sidecar), figure 5 as JSON, a ``t`` x
``cat2.rel_phase`` scan of every scan observable, the ``pnd`` sum and
single-mode distributions (the sum also as JSON, which pins each column's
JSON type), the squeezing factors, the Wigner grid at the default and at a
61 x 51 mode-2 grid (that one also as JSON, which pins the expanded x and y
columns), and both ``oracle-check`` envelopes.
Every command runs under ``--strict``, so a numeric warning (a truncation
tail or clipped Wigner support) fails the run, as does any nonzero exit.
It then prints one ``sha256  name`` line per file in OUTDIR, so give it a new
or empty directory. Two runs (under different BLAS thread counts, or of two
versions of the package) that print the same manifest wrote the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

from catamp.cli import _OBSERVABLES, FIGURE_IDS, main

OBSERVABLES = tuple(_OBSERVABLES)

BASE = {
    "scenario": "golden",
    "cat1": {"kind": "even", "amp_mag": 1.1, "amp_phase": 0.3},
    "cat2": {"kind": "yurke_stoler", "amp_mag": 0.8},
    "params": {"g": 1.0, "pump_phase": math.pi / 2, "gamma1": 0.4, "gamma2": 0.4,
               "nbar1": 0.2, "nbar2": 0.2},
    "time": 0.3,
}

SCAN = {"parameter": "t", "values": [0.1, 0.35],
        "parameter2": "cat2.rel_phase", "values2": [0.0, 1.0, math.pi]}
SCAN_GRID = {"x_min": -5, "x_max": 5, "y_min": -5, "y_max": 5, "nx": 41, "ny": 41}
WIGNER_GRID = {"x_min": -6, "x_max": 6, "y_min": -5, "y_max": 5, "nx": 61, "ny": 51}


def commands(configs: str) -> list[list[str]]:
    """The argument lists of every golden run; config files go into configs."""
    def config(name: str, **extra) -> list[str]:
        path = os.path.join(configs, f"{name}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**BASE, "out": f"{name}.{extra.get('format', 'csv')}", **extra}, f)
        return ["--config", path]

    runs = [["figure", fig, "--out", f"figure_{fig}.csv"] for fig in FIGURE_IDS]
    runs.append(["figure", "5", "--format", "json", "--out", "figure_5.json"])
    runs += [["scan", *config(f"scan_{name}", observable=name, scan=SCAN, grid=SCAN_GRID)]
             for name in OBSERVABLES]
    runs += [["pnd", *config("pnd_sum")],
             ["pnd", *config("pnd_sum_json", format="json")],
             ["pnd", *config("pnd_single", observable="single", mode=2)],
             ["squeeze", *config("squeeze")],
             ["wigner", *config("wigner_default")],
             ["wigner", *config("wigner_61x51_mode2", mode=2, cut_y=0.4, grid=WIGNER_GRID)],
             ["wigner", *config("wigner_61x51_mode2_json", mode=2, cut_y=0.4, grid=WIGNER_GRID,
                                format="json")]]
    runs += [["oracle-check", "--envelope", env, "--out", f"oracle_check_{env}.csv"]
             for env in ("small", "full")]
    return runs


def manifest(outdir: str) -> list[str]:
    lines = []
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as f:
            lines.append(f"{hashlib.sha256(f.read()).hexdigest()}  {name}")
    return lines


def run(outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as configs:
        os.chdir(outdir)
        try:
            for argv in commands(configs):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main([*argv, "--strict"])
                if code != 0:
                    print(f"catamp {' '.join(argv)} exited {code}", file=sys.stderr)
                    return 1
        finally:
            os.chdir(here)
    print("\n".join(manifest(outdir)))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    raise SystemExit(run(sys.argv[1]))
