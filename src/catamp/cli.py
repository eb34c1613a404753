"""Command-line front end: figure-reproduction datasets, scans, checks.

Outputs are machine-readable and byte-deterministic for a fixed configuration:
CSV data (header row, 17 significant digits) plus a JSON sidecar with the
resolved parameters and feature metrics.  Each cmd_* function builds its
dataset and writes nothing; main writes it.  Exit codes: 0 success, 2 bad
configuration, 3 numeric warning escalated under --strict.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import warnings
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from . import oracle
from ._g17 import g17_cells
from .charfn import moment
from .coeffs import evolve_terms
from .params import AmplifierParams, CatSpec, System
from .photon_stats import (MAX_FACTORIAL_ORDER, TruncationWarning, factorial_moments,
                           single_pnd, sum_pnd)
from .rho_terms import TermClass
from .squeezing import single_mode_squeezing, two_mode_squeezing
from .wigner import GridSpec, SupportWarning, _wigner_sum, count_peaks, wigner_cut, wigner_grid


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


class UnknownFigure(ConfigError):
    """Figure id is not one of the built-in presets."""


_ESCALATED = (TruncationWarning, SupportWarning)

# what every command returns and main writes: (header, columns, sidecar metadata)
_Dataset = tuple[list[str], list, dict]


# --- configuration ------------------------------------------------------------


_CAT_KINDS = {"even": 0.0, "odd": math.pi, "yurke_stoler": math.pi / 2}
# (field, values) per scan axis; the second axis is optional
_SCAN_AXES = (("parameter", "values"), ("parameter2", "values2"))


def _number(value, where: str, kind=float):
    """value as a float, or as an int when kind is int; ConfigError naming the
    field.  Only a JSON number is read: text and booleans are refused, and an
    int field refuses a non-integral value instead of truncating it (40.0 is
    40, 40.5 is an error)."""
    not_a_number = ConfigError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise not_a_number
    try:
        number = float(value)
        whole = int(number) if kind is int else number
    except (ValueError, OverflowError):
        raise not_a_number from None
    if kind is int and whole != number:
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return whole


def _object(d, where: str, allowed) -> None:
    """ConfigError naming the object unless d is an object whose keys all lie
    in allowed."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    bad = set(d) - set(allowed)
    if bad:
        raise ConfigError(f"{where}: unknown fields {sorted(bad)}")


def _read(cls, d, where: str = ""):
    """cls built from the JSON object d, whose schema is cls's dataclass fields.

    A field without a default is required, and each value is read by the
    field's annotation (_READERS).  A value that cls itself refuses is a
    ConfigError naming the object: where, the top-level config when empty.
    """
    name = where or "config"
    _object(d, name, [f.name for f in fields(cls)])
    prefix = f"{where}." if where else ""
    values = {}
    for f in fields(cls):
        if f.name in d:
            values[f.name] = _READERS[f.type](d[f.name], prefix + f.name)
        elif f.default is MISSING:
            raise ConfigError(f"{prefix}{f.name}: required")
    try:
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _read_cat(d, where: str) -> CatSpec:
    """A cat object; it may name its rel_phase by kind (even, odd, yurke_stoler)."""
    if isinstance(d, dict) and "kind" in d:
        if "rel_phase" in d:
            raise ConfigError(f"{where}: give kind or rel_phase, not both")
        d = dict(d)
        kind = d.pop("kind")
        if not isinstance(kind, str) or kind not in _CAT_KINDS:
            raise ConfigError(f"{where}.kind: must be one of {sorted(_CAT_KINDS)}")
        d["rel_phase"] = _CAT_KINDS[kind]
    return _read(CatSpec, d, where)


# field annotation -> reader(value, where)
_READERS = {
    "float": _number,
    "int": lambda v, where: _number(v, where, int),
    "int | None": lambda v, where: None if v is None else _number(v, where, int),
    "str": _string,
    "dict | None": lambda v, where: v,  # grid and scan: RunConfig checks them
    "CatSpec": _read_cat,
    "AmplifierParams": lambda v, where: _read(AmplifierParams, v, where),
}


@dataclass
class RunConfig:
    """One command's full configuration; round-trips through JSON.

    The fields are the config file's schema (see _read).  grid and scan are
    kept as given, so the sidecar records them as written; grid is also
    resolved once into the GridSpec _grid (None for the default grid).
    """

    cat1: CatSpec
    cat2: CatSpec
    params: AmplifierParams
    time: float
    scenario: str = "run"
    observable: str = ""
    mode: int = 1
    k: int = 2
    n_max: int | None = None
    cut_y: float = -0.25
    grid: dict | None = None
    scan: dict | None = None
    out: str = "out.csv"
    format: str = "csv"

    def __post_init__(self):
        try:
            evolve_terms(self.system, self.time)  # the record the command reads
        except ValueError as exc:
            raise ConfigError(f"time: {exc}") from None
        if not math.isfinite(self.cut_y):
            raise ConfigError("cut_y: must be finite")
        if self.mode not in (1, 2):
            raise ConfigError("mode: must be 1 or 2")
        if not 0 <= self.k <= MAX_FACTORIAL_ORDER:
            raise ConfigError(f"k: must be between 0 and {MAX_FACTORIAL_ORDER}")
        if self.n_max is not None and self.n_max < 0:
            raise ConfigError("n_max: must be >= 0")
        if self.format not in ("csv", "json"):
            raise ConfigError("format: must be 'csv' or 'json'")
        if self.scan is not None:
            _object(self.scan, "scan", itertools.chain(*_SCAN_AXES))
        # {} asks for the default grid, as None does
        self._grid = None if self.grid in (None, {}) else _read(GridSpec, self.grid, "grid")

    @property
    def system(self) -> System:
        return System(self.cat1, self.cat2, self.params)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return _read(cls, d)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file: invalid JSON ({exc})") from None
    return RunConfig.from_dict(raw)


# --- output writers -----------------------------------------------------------


# printf conversion per numpy dtype kind; every other column is written as %.17g
_CSV_CONVERSIONS = {"i": "%d", "u": "%d", "O": "%s", "U": "%s"}
# rows formatted and joined per write: the whole file at once costs memory,
# one row at a time speed
_CSV_BLOCK = 4096


def _cells(c: np.ndarray) -> np.ndarray:
    """A column's cells by its %-format, UTF-8 encoded, as NUL-padded uint8 rows."""
    if c.dtype == np.float64:
        return g17_cells(c)
    conv = _CSV_CONVERSIONS.get(c.dtype.kind, "%.17g")
    text = np.array([(conv % v).encode() for v in c.tolist()], dtype=bytes)
    return text.view(np.uint8).reshape(len(c), -1)


def _block_rows(block: list[tuple[np.ndarray, np.ndarray | None]]) -> np.ndarray:
    """The block's CSV rows, CRLF included, as a NUL-padded uint8 matrix.

    Each column is a (table, rows) pair: its cells are the rows of its table
    of cell texts, or the whole table in order where rows is None. The tables
    are stacked, each text followed by a comma, and one take lays out the block.
    """
    cells = np.zeros((sum(len(t) for t, _ in block), max(t.shape[1] for t, _ in block) + 2),
                     np.uint8)
    index, row = [], 0
    for t, rows in block:
        cells[row:row + len(t), :t.shape[1]] = t
        index.append(row + (np.arange(len(t)) if rows is None else rows))
        row += len(t)
    cells[:, -2] = ord(",")
    out = np.take(cells, np.stack(index, axis=1), axis=0).reshape(len(index[0]), -1)
    # the last cell's comma and its NUL, as one 2-byte item per row
    out[:, -2:].view(np.uint16)[:] = np.frombuffer(b"\r\n", np.uint16)
    return out


def _expanded(c) -> np.ndarray:
    """A column as one array: a (values, rows) pair stands for values[rows]."""
    return np.take(*c) if isinstance(c, tuple) else c


def write_csv(path: str, header: list[str], columns: list) -> None:
    """Write the columns as CRLF rows, each cell formatted by its column's %-format.

    A column is an array, or a pair (values, rows) that stands for values[rows]:
    a pair's values are formatted once per file and each block takes their
    texts by row. Cells are assembled NUL-padded, so a NUL character in a text
    cell is dropped."""
    tables = [_cells(c[0]) if isinstance(c, tuple) else None for c in columns]
    n = min((len(c[1] if isinstance(c, tuple) else c) for c in columns), default=0)
    with open(path, "wb") as f:
        f.write((",".join(header) + "\r\n").encode())
        for lo in range(0, n, _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, n)
            block = _block_rows([(_cells(c[lo:hi]), None) if t is None else (t, c[1][lo:hi])
                                 for t, c in zip(tables, columns)])
            f.write(block.tobytes().translate(None, b"\0"))


def write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=1)
        f.write("\n")


def _emit(out: str, fmt: str, header: list[str], columns: list, meta: dict) -> list[str]:
    """Write the dataset and return the paths written; an unwritable path is a
    ConfigError naming out.  main is its one caller."""
    try:
        if fmt == "csv":
            write_csv(out, header, columns)
            side = (out[:-4] if out.endswith(".csv") else out) + ".meta.json"
            write_json(side, meta)
            return [out, side]
        write_json(out, {**meta, "data": {h: _expanded(c).tolist()
                                          for h, c in zip(header, columns)}})
    except OSError as exc:
        raise ConfigError(f"out: {exc}") from None
    return [out]


def _cat(kind: str, amp_mag: float, amp_phase: float = 0.0) -> CatSpec:
    return CatSpec(amp_mag, amp_phase, _CAT_KINDS[kind])


def _amp(g: float, gamma: float = 0.0, nbar: float = 0.0,
         pump: float = math.pi / 2) -> AmplifierParams:
    """Amplifier with equal losses and reservoirs on both modes."""
    return AmplifierParams(g=g, pump_phase=pump, gamma1=gamma, gamma2=gamma,
                           nbar1=nbar, nbar2=nbar)


def _resolved(system: System, t: float, **extra) -> dict:
    return {**asdict(system), "time": t, **extra}


def _wigner(system: System, t: float, spec: GridSpec | None, mode: int, cut_y: float):
    """Columns x, y, w of one mode's Wigner grid, its features, cut and grid spec."""
    grid = wigner_grid(system, t, spec, mode=mode)
    xs, ws = wigner_cut(system, t, y=cut_y, mode=mode)
    nx, ny = grid.spec.nx, grid.spec.ny
    columns = [(grid.x, np.tile(np.arange(nx), ny)), (grid.y, np.repeat(np.arange(ny), nx)),
               grid.values.reshape(-1)]
    features = {
        "grid_min": float(grid.values.min()),
        "grid_max": float(grid.values.max()),
        "min_on_cut": float(ws.min()),
        "peak_count": count_peaks(grid),
        "integral": grid.integral(),
    }
    cut = {"x": [float(v) for v in xs], "w": [float(v) for v in ws]}
    return columns, features, cut, grid.spec


def _pnd_features(columns: dict[str, np.ndarray]) -> dict:
    out = {}
    for name, p in columns.items():
        out[f"odd_mass_{name}"] = float(np.sum(p[1::2]))
        out[f"argmax_{name}"] = int(np.argmax(p))
        out[f"total_{name}"] = float(np.sum(p))
    return out


# --- figure presets -------------------------------------------------------------
#
# Each preset function returns (header, columns, features, resolved parameters); cats
# are (kind, |alpha|[, arg alpha]) and amplifier settings are _amp keywords.


def _fig_wigner(amps, gamma=0.0, nbar=0.0, t=0.55, cut_y=-0.25):
    """Signal-mode Wigner function of even(amps[0]) x even(amps[1]), g = 1."""
    system = System(_cat("even", amps[0]), _cat("even", amps[1]), _amp(1.0, gamma, nbar))
    columns, features, cut, spec = _wigner(system, t, None, 1, cut_y)
    features.update(min_on_cut_rel=features["min_on_cut"] / features["grid_max"], cut_y=cut_y)
    return (["x", "y", "w"], columns, features,
            _resolved(system, t, cut=cut, grid_spec=asdict(spec)))


def _fig_pnd(cats, runs, mode=None, n_max=None, ref=None, t=0.55, **extra):
    """Photon-number distributions of one cat pair, one column per run.

    runs maps column name -> amplifier settings; mode None takes the sum
    n1 + n2, 1 or 2 that mode's marginal.  The sidecar records the run named
    by ref, the first by default.
    """
    systems = {col: System(_cat(*cats[0]), _cat(*cats[1]), _amp(**run))
               for col, run in runs.items()}
    out = {col: (sum_pnd(s, t, n_max=n_max) if mode is None
                 else single_pnd(mode, s, t, n_max=n_max)).probs
           for col, s in systems.items()}
    n = np.arange(len(next(iter(out.values()))))
    features = _pnd_features({col.removeprefix("p_"): p for col, p in out.items()})
    return (["n", *out], [n, *out.values()], features,
            _resolved(systems[ref or next(iter(runs))], t, **extra))


def _fig_curves(x_name, xs, amps, value, curves, t=0.2, **extra):
    """Curve families value(system, t) along x = np.linspace(*xs).

    amps(x) gives (|alpha1|, |alpha2|); each curve is (kind1, kind2, amplifier
    settings).  The sidecar records the first curve at x = 1.
    """
    def system_at(x, kind1, kind2, run):
        a1, a2 = amps(x)
        return System(_cat(kind1, a1), _cat(kind2, a2), _amp(**run))

    xs = np.linspace(*xs)
    rows = np.array([[value(system_at(x, *curve), t) for curve in curves.values()]
                     for x in xs])
    features = {f"min_{name}": float(np.min(col)) for name, col in zip(curves, rows.T)}
    return ([x_name, *curves], [xs, *rows.T], features,
            _resolved(system_at(1.0, *next(iter(curves.values()))), t, scan=x_name, **extra))


def _fig_parts(component, part, t=3e-4):
    """Figure 6 distribution of n1 + n2 (part None) or one class part of it."""
    system = System(_cat("even", 3.0), _cat("even", 2.0), _amp(1e4))
    dist = sum_pnd(system, t)
    p = dist.probs if part is None else dist.class_parts[part]
    features = {
        "odd_mass": float(np.sum(p[1::2])),
        "total": float(np.sum(p)),
        "min": float(np.min(p)),
        "max": float(np.max(p)),
        "n_max": dist.n_max,
    }
    return (["n", "p"], [np.arange(dist.n_max + 1), p], features,
            _resolved(system, t, component=component))


def _fig_phase_scan(component):
    """Two-mode squeezing factor S or Q over the amplitude phases psi1 x psi2."""
    def system_at(psi1, psi2):
        return System(_cat("even", 0.7, psi1), _cat("even", 0.7, psi2), _amp(1.0))

    psis = np.linspace(0.0, 2.0 * math.pi, 61)
    p1col, p2col = np.repeat(psis, 61), np.tile(psis, 61)
    vals = np.array([getattr(two_mode_squeezing(system_at(p1, p2), 0.2), component)
                     for p1, p2 in zip(p1col, p2col)])
    imin = int(np.argmin(vals))
    features = {
        "min": float(vals.min()),
        "max": float(vals.max()),
        "argmin_psi1": float(p1col[imin]),
        "argmin_psi2": float(p2col[imin]),
    }
    return (["psi1", "psi2", "factor"], [p1col, p2col, vals], features,
            _resolved(system_at(0.0, 0.0), 0.2, scan="psi1 x psi2", component=component))


_YS32 = (("yurke_stoler", 3.0), ("yurke_stoler", 2.0))

_FIGURES = {
    "1a": (_fig_wigner, dict(amps=(2.0, 2.0))),
    "1b": (_fig_wigner, dict(amps=(3.0, 2.0))),
    "1c": (_fig_wigner, dict(amps=(2.0, 3.0))),
    # gamma = 2g+3 (overdamped) and 2g-1 (underdamped) at g = 1
    "2a": (_fig_wigner, dict(amps=(3.0, 2.0), gamma=5.0, nbar=1.0)),
    "2b": (_fig_wigner, dict(amps=(3.0, 2.0), gamma=1.0, nbar=1.0)),
    "3": (_fig_pnd, dict(
        cats=_YS32, mode=1, n_max=120, ref="p_psi_minus", note="two pump phases +-pi/2",
        runs={"p_psi_plus": dict(g=1.0), "p_psi_minus": dict(g=1.0, pump=-math.pi / 2)})),
    "4": (_fig_pnd, dict(
        cats=(("yurke_stoler", 2.0), ("yurke_stoler", 3.0)), mode=1, n_max=120,
        damped="underdamped gamma=2g-1, overdamped 2g+1, nbar=1",
        runs={"p_undamped": dict(g=1.0),
              "p_underdamped": dict(g=1.0, gamma=1.0, nbar=1.0),
              "p_overdamped": dict(g=1.0, gamma=3.0, nbar=1.0)})),
    "5": (_fig_curves, dict(
        x_name="alpha2_sq", xs=(0.01, 6.0, 120), amps=lambda x: (math.sqrt(0.7), math.sqrt(x)),
        value=lambda s, t: single_mode_squeezing(1, s, t).Q,
        damped="gamma=2g-1.6, nbar in {0, 0.1}",
        curves={"q_ee": ("even", "even", dict(g=1.0)),
                "q_ey": ("even", "yurke_stoler", dict(g=1.0)),
                "q_eo": ("even", "odd", dict(g=1.0)),
                "q_ee_damped_nbar0": ("even", "even", dict(g=1.0, gamma=0.4)),
                "q_ee_damped_nbar01": ("even", "even", dict(g=1.0, gamma=0.4, nbar=0.1))})),
    "6": (_fig_parts, dict(component="6", part=None)),
    "7a": (_fig_parts, dict(component="7a", part=TermClass.MIXTURE)),
    "7b": (_fig_parts, dict(component="7b", part=TermClass.SYM_INTERFERENCE)),
    "7c": (_fig_parts, dict(component="7c", part=TermClass.ASYM_INTERFERENCE)),
    # a single run names its column "p"
    "8a": (_fig_pnd, dict(cats=_YS32, runs={"p": dict(g=1.0)})),
    "8b": (_fig_pnd, dict(
        cats=_YS32, n_max=100, damped="(g,nbar,gamma) = (0.5,0.5,2g-+0.9/0.1)",
        runs={"p_underdamped": dict(g=0.5, gamma=0.1, nbar=0.5),
              "p_overdamped": dict(g=0.5, gamma=1.1, nbar=0.5)})),
    "9a": (_fig_phase_scan, dict(component="S")),
    "9b": (_fig_phase_scan, dict(component="Q")),
    "10": (_fig_curves, dict(
        x_name="alpha1", xs=(0.05, 3.0, 120), amps=lambda x: (x, 0.25),
        value=lambda s, t: factorial_moments(s, t, 5)[1], k=5,
        curves={"kc_oo": ("odd", "odd", dict(g=0.5)),
                "kc_oe": ("odd", "even", dict(g=0.5)),
                "kc_oo_underdamped": ("odd", "odd", dict(g=0.5, gamma=0.4, nbar=0.5)),
                "kc_oo_overdamped": ("odd", "odd", dict(g=0.5, gamma=1.1, nbar=0.5))})),
}

FIGURE_IDS = tuple(_FIGURES)


def cmd_figure(fig_id: str) -> _Dataset:
    if fig_id not in _FIGURES:
        raise UnknownFigure(f"unknown figure id {fig_id!r}; choose from {FIGURE_IDS}")
    make, kwargs = _FIGURES[fig_id]
    header, cols, features, resolved = make(**kwargs)
    return header, cols, {"figure": fig_id, "features": features, "resolved": resolved}


# --- generic commands ----------------------------------------------------------


# scan observable -> evaluator(cfg, system, t)
_OBSERVABLES = {
    "S1": lambda c, s, t: single_mode_squeezing(1, s, t).S,
    "Q1": lambda c, s, t: single_mode_squeezing(1, s, t).Q,
    "S2": lambda c, s, t: single_mode_squeezing(2, s, t).S,
    "Q2": lambda c, s, t: single_mode_squeezing(2, s, t).Q,
    "S": lambda c, s, t: two_mode_squeezing(s, t).S,
    "Q": lambda c, s, t: two_mode_squeezing(s, t).Q,
    "mean_n1": lambda c, s, t: moment(1, 1, 0, 0, s, t).real,
    "mean_n2": lambda c, s, t: moment(0, 0, 1, 1, s, t).real,
    "kc_compound": lambda c, s, t: factorial_moments(s, t, c.k, "compound", c.mode)[1],
    "kc_single": lambda c, s, t: factorial_moments(s, t, c.k, "single", c.mode)[1],
    "pnd_odd_mass": lambda c, s, t: float(np.sum(sum_pnd(s, t, n_max=c.n_max).probs[1::2])),
    "wigner_min": lambda c, s, t: float(wigner_grid(s, t, c._grid, c.mode).values.min()),
    "wigner_cut_min": lambda c, s, t: float(wigner_cut(s, t, c.cut_y, mode=c.mode)[1].min()),
}


def _with_field(system: System, t: float, point: dict[str, float]) -> tuple[System, float]:
    """system and t with the fields of point ("t" or "<group>.<field>") set, a
    group's fields at once; refused unless evolve_terms builds the result's
    record, which the scan's observable then reads."""
    groups: dict[str, dict[str, float]] = {}
    for name, value in point.items():
        group, _, attr = name.rpartition(".")  # "t" is in the group ""
        groups.setdefault(group, {})[attr] = float(value)
    try:
        t = groups.pop("", {}).get("t", t)
        system = replace(system, **{group: replace(getattr(system, group), **values)
                                    for group, values in groups.items()})
        evolve_terms(system, t)
    except ValueError as exc:
        where = ", ".join(f"{value} for {name}" for name, value in point.items())
        raise ConfigError(f"scan value {where}: {exc}") from None
    return system, t


def _scan_axis(scan: dict, key: str, vkey: str, known: set[str]) -> tuple[str, np.ndarray]:
    if key not in scan:
        raise ConfigError(f"scan.{key}: required")
    fieldname = scan[key]
    if not isinstance(fieldname, str) or fieldname not in known:
        raise ConfigError(f"scan.{key}: unknown field {fieldname!r}")
    vals = scan.get(vkey)
    if not isinstance(vals, list) or len(vals) == 0:
        raise ConfigError(f"scan.{vkey}: must be a non-empty list")
    return fieldname, np.asarray([_number(v, f"scan.{vkey}") for v in vals])


def cmd_scan(cfg: RunConfig) -> _Dataset:
    if not cfg.scan:
        raise ConfigError("scan: required for the scan command")
    if not cfg.observable:
        raise ConfigError("observable: required for the scan command")
    evaluate = _OBSERVABLES.get(cfg.observable)
    if evaluate is None:
        raise ConfigError(f"observable: unknown {cfg.observable!r}; "
                          f"choose from {tuple(_OBSERVABLES)}")
    base = cfg.system
    known = {"t", *(f"{group.name}.{f.name}" for group in fields(base)
                    for f in fields(getattr(base, group.name)))}
    names, grids = zip(*(_scan_axis(cfg.scan, key, vkey, known)
                         for key, vkey in _SCAN_AXES
                         if key == "parameter" or cfg.scan.keys() & {key, vkey}))
    if len(set(names)) < len(names):
        raise ConfigError(f"scan.parameter2: {names[1]!r} is already scan.parameter")
    points = list(itertools.product(*grids))
    results = [evaluate(cfg, *_with_field(base, cfg.time, dict(zip(names, point))))
               for point in points]
    return [*names, cfg.observable], [*map(np.asarray, zip(*points)), np.asarray(results)], {}


def cmd_wigner(cfg: RunConfig) -> _Dataset:
    columns, features, cut, _ = _wigner(cfg.system, cfg.time, cfg._grid, cfg.mode, cfg.cut_y)
    return ["x", "y", "w"], columns, {"features": features, "cut": cut}


def cmd_pnd(cfg: RunConfig) -> _Dataset:
    if cfg.observable not in ("", "single"):
        raise ConfigError(f"observable: unknown {cfg.observable!r} for pnd; choose '' "
                          "(the sum n1 + n2) or 'single' (the marginal of mode)")
    dist = (single_pnd(cfg.mode, cfg.system, cfg.time, n_max=cfg.n_max)
            if cfg.observable == "single" else sum_pnd(cfg.system, cfg.time, n_max=cfg.n_max))
    parts = {f"p_{c.name.lower()}": p for c, p in (dist.class_parts or {}).items()}
    return (["n", "p", *parts], [np.arange(dist.n_max + 1), dist.probs, *parts.values()],
            {"features": _pnd_features({"p": dist.probs})})


def _squeeze_factors(system: System, t: float) -> dict[str, float]:
    """All six squeezing factors, keyed as in oracle.squeeze_factors."""
    single1 = single_mode_squeezing(1, system, t)
    single2 = single_mode_squeezing(2, system, t)
    compound = two_mode_squeezing(system, t)
    return {"S1": single1.S, "Q1": single1.Q, "S2": single2.S, "Q2": single2.Q,
            "S": compound.S, "Q": compound.Q}


def cmd_squeeze(cfg: RunConfig) -> _Dataset:
    factors = _squeeze_factors(cfg.system, cfg.time)
    return list(factors), [np.array([v]) for v in factors.values()], {}


# --- oracle comparison ----------------------------------------------------------


def _oracle_deviations(system: System, t: float, dims: tuple[int, int],
                       wigner_extent: float, wigner_n: int) -> dict[str, float]:
    """Max |closed form - Fock oracle| per observable; oracle-check and criterion 2 run it."""
    state = oracle.build_initial(system.cat1, system.cat2, *dims)
    evolved = oracle.evolve(state, system.params, t)
    out: dict[str, float] = {}

    p_sum = oracle.pnd_sum(evolved)
    d_sum = sum_pnd(system, t, n_max=len(p_sum) - 1)
    out["pnd_sum"] = float(np.max(np.abs(d_sum.probs - p_sum)))

    for mode in (1, 2):
        p1 = oracle.pnd_single(evolved, mode)
        d1 = single_pnd(mode, system, t, n_max=len(p1) - 1)
        out[f"pnd_single_{mode}"] = float(np.max(np.abs(d1.probs - p1)))

    ref = oracle.squeeze_factors(evolved)
    out["squeeze"] = max(abs(v - ref[k]) for k, v in _squeeze_factors(system, t).items())

    # compared point by point, so evaluated without wigner_grid: its boundary-mass
    # check guards integrals and peak counts, which this lattice does not take
    axis = np.linspace(-wigner_extent, wigner_extent, wigner_n)
    w = _wigner_sum(evolve_terms(system, t), axis, axis, 1)
    w_ref = oracle.wigner(evolved, axis[None, :] + 1j * axis[:, None])
    out["wigner"] = float(np.max(np.abs(w - w_ref)))
    return out


# envelope -> ([(case, cat1, cat2, amplifier settings, t, Fock dims)],
#              Wigner grid half-width, Wigner points per axis)
_ENVELOPES = {
    "small": ([("undamped", ("even", 0.8), ("yurke_stoler", 0.6, 0.4),
                dict(g=1.0, pump=0.7), 0.3, (16, 14))], 3.0, 21),
    "full": ([("undamped", ("even", 1.2, 0.3), ("odd", 0.9), dict(g=1.0), 0.5, (26, 24)),
              ("underdamped", ("even", 1.1), ("yurke_stoler", 0.9),
               dict(g=1.0, gamma=1.0, nbar=0.5), 0.4, (22, 22)),
              ("overdamped", ("even", 1.1), ("yurke_stoler", 0.9),
               dict(g=1.0, gamma=3.0, nbar=0.5), 0.4, (22, 22))], 4.0, 41),
}


def cmd_oracle_check(envelope: str) -> _Dataset:
    cases, extent, npts = _ENVELOPES[envelope]
    rows = []
    for label, cat1, cat2, run, t, dims in cases:
        system = System(_cat(*cat1), _cat(*cat2), _amp(**run))
        devs = _oracle_deviations(system, t, dims, extent, npts)
        rows += [(label, k, v) for k, v in sorted(devs.items())]
    labels, observables, deviations = zip(*rows)
    return (["case", "observable", "max_abs_deviation"],
            [np.array(labels, dtype=object), np.array(observables, dtype=object),
             np.array(deviations)],
            {"envelope": envelope, "max_abs_deviation": float(np.max(deviations))})


# --- entry point ----------------------------------------------------------------


def _config_command(help_text: str, cmd) -> tuple:
    """The _COMMANDS entry of a command that runs cmd on its --config file, which
    names the output and its format; the sidecar records the config."""
    def run(args):
        cfg = load_config(args.config)
        header, columns, meta = cmd(cfg)
        return (cfg.out, cfg.format, header, columns,
                {"scenario": cfg.scenario, "config": cfg.to_dict(), **meta})
    return help_text, {"--config": dict(required=True)}, None, run


# command -> (help, its own arguments, default output name or None, run(args)); a
# command with a default output name takes --out and --format, every one --strict.
# run returns (out, format, header, columns, meta), which main writes
_COMMANDS = {
    "figure": ("emit a built-in figure dataset",
               {"id": dict(help=f"figure id, one of {', '.join(FIGURE_IDS)}")},
               "figure_{id}", lambda args: (args.out, args.format, *cmd_figure(args.id))),
    "scan": _config_command("sweep a parameter and record an observable", cmd_scan),
    "wigner": _config_command("phase-space grid and cut", cmd_wigner),
    "pnd": _config_command("photon-number distribution", cmd_pnd),
    "squeeze": _config_command("squeezing factors", cmd_squeeze),
    "oracle-check": ("compare closed forms against the Fock-space reference",
                     {"--envelope": dict(choices=tuple(_ENVELOPES), default="small")},
                     "oracle_check_{envelope}",
                     lambda args: (args.out, args.format, *cmd_oracle_check(args.envelope))),
}


@functools.cache  # one parser per process: main runs once per command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catamp",
        description="Cat states through a dissipative parametric amplifier: "
                    "figure datasets, scans and reference checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, out, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments.items():
            p.add_argument(flag, **options)
        if out:
            p.add_argument("--out", default=None, help=f"default {out}.<format>")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--strict", action="store_true",
                       help="exit 3 when a numeric warning fires")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, _, out, run = _COMMANDS[args.command]
    if out and args.out is None:
        args.out = f"{out.format_map(vars(args))}.{args.format}"
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            written = _emit(*run(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    numeric = [w for w in caught if issubclass(w.category, _ESCALATED)]
    for w in numeric:
        print(f"warning: {w.message}", file=sys.stderr)
    if numeric and args.strict:
        return 3
    return 0


def entry() -> None:  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
