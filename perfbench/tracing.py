"""Span recording around catamp's public functions, from outside the package.

``install`` wraps each public function named in ``LAYERS`` in its defining
module and in every loaded ``catamp`` module namespace that binds the same
object (``from .charfn import moment`` in ``squeezing`` and ``cli``, the
package re-exports in ``catamp/__init__``).  ``Installation.restore`` puts
the originals back and proves that every patched attribute is the original
object again.  A name that no longer exists is reported as missing.

Spans are kept in memory as ``[name, start, end, parent, task, work]`` and
only recorded inside a task's root span, so checks run after a task are not
traced.  Self time is a span's duration minus the part of it covered by its
child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable

# public functions per layer (module of src/catamp); params only builds
# frozen value objects and is not traced
LAYERS = {
    "rho_terms": ("enumerate_terms",),
    "coeffs": ("coeffs_at",),
    "charfn": ("moment",),
    "squeezing": ("two_mode_squeezing", "single_mode_squeezing"),
    "photon_stats": ("sum_pnd", "single_pnd", "factorial_moments", "generating_quantities"),
    "wigner": ("wigner_grid", "count_peaks", "wigner_cut", "default_grid"),
    "cli": ("main",),
    "oracle": ("evolve", "build_initial", "wigner", "pnd_sum", "pnd_single", "squeeze_factors"),
}

TASK_SPAN = "task"
NAME, START, END, PARENT, TASK, WORK_AT = range(6)


def _n_probs(args, kwargs, result) -> float:
    return float(result.n_max + 1)


def _grid_points(args, kwargs, result) -> float:
    return float(result.values.size)


def _rho_entries(args, kwargs, result) -> float:
    state = args[0] if args else kwargs["state"]
    return float((state.dim1 * state.dim2) ** 2)


# work counted per span, read off public arguments and results
WORK_OF = {
    "photon_stats.sum_pnd": _n_probs,
    "photon_stats.single_pnd": _n_probs,
    "wigner.wigner_grid": _grid_points,
    "oracle.evolve": _rho_entries,
}


class Recorder:
    """In-memory span store with a parent stack (one thread)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._task: str | None = None
        self._clock = clock

    @contextmanager
    def task(self, task_id: str):
        """Root span of one task; wrapped calls inside it become its children."""
        idx = len(self.spans)
        span = [TASK_SPAN, self._clock(), 0.0, -1, task_id, 0.0]
        self.spans.append(span)
        self._stack.append(idx)
        self._task = task_id
        try:
            yield
        finally:
            span[END] = self._clock()
            self._stack.pop()
            self._task = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        work = WORK_OF.get(name)
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1], self._task, 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                self._stack.pop()
            if work is not None:
                span[WORK_AT] = work(args, kwargs, result)
            return result

        return traced


class Installation:
    """The patches made by ``install``; ``restore`` undoes them."""

    def __init__(self):
        self.patched: list[tuple[Any, str, Callable]] = []  # (module, attr, original)
        self.wrapped: list[str] = []
        self.missing: list[str] = []

    def restore(self) -> bool:
        """Put every original back; True when each patched attribute is the
        original object again."""
        for module, attr, original in self.patched:
            setattr(module, attr, original)
        return all(getattr(module, attr, None) is original
                   for module, attr, original in self.patched)


def _catamp_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "catamp" or name.startswith("catamp."))]


def install(recorder: Recorder, layers: dict[str, tuple[str, ...]] = LAYERS) -> Installation:
    inst = Installation()
    for layer, names in layers.items():
        try:
            module = importlib.import_module(f"catamp.{layer}")
        except ImportError:
            inst.missing.extend(f"{layer}.{n}" for n in names)
            continue
        for name in names:
            span_name = f"{layer}.{name}"
            original = getattr(module, name, None)
            if not callable(original):
                inst.missing.append(span_name)
                continue
            wrapper = recorder.wrap(span_name, original)
            for mod in _catamp_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        inst.patched.append((mod, attr, original))
            inst.wrapped.append(span_name)
    return inst


# --- analysis -----------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the union of the direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def task_self_gaps(spans: list[list], selfs: list[float]) -> list[float]:
    """Per task: |sum of self times in the task - root span duration|."""
    totals: dict[str, float] = {}
    roots: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        totals[span[TASK]] = totals.get(span[TASK], 0.0) + own
        if span[NAME] == TASK_SPAN:
            roots[span[TASK]] = span[END] - span[START]
    return [abs(totals[t] - roots[t]) for t in roots]


def _ancestor_named(spans, idx, names) -> bool:
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], selfs: list[float], n_tasks: int,
                  counters: dict[str, float], wrapped: list[str]) -> dict[str, float]:
    """Per-layer numbers of one traced pass, by metric name.

    Ratios whose base is zero (the layer did no work on this workload) read 0.
    """
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    work: dict[str, float] = {}
    for span, s in zip(spans, selfs):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + s
        work[name] = work.get(name, 0.0) + span[WORK_AT]

    out: dict[str, float] = {}
    for name in wrapped:
        out[f"{name}.calls"] = float(calls.get(name, 0))
        out[f"{name}.self_s"] = own.get(name, 0.0)

    dist_names = ("photon_stats.sum_pnd", "photon_stats.single_pnd")
    n_dists = calls.get(dist_names[0], 0) + calls.get(dist_names[1], 0)
    auto_fm = sum(1 for i, span in enumerate(spans)
                  if span[NAME] == "photon_stats.factorial_moments"
                  and _ancestor_named(spans, i, dist_names))
    probs_sum = work.get(dist_names[0], 0.0)
    points = work.get("wigner.wigner_grid", 0.0)
    bytes_written = counters.get("cli.bytes_written", 0.0)

    out["coeffs.coeffs_at.calls_per_task"] = _ratio(calls.get("coeffs.coeffs_at", 0), n_tasks)
    out["photon_stats.sum_pnd.ns_per_prob"] = 1e9 * _ratio(
        own.get(dist_names[0], 0.0), probs_sum)
    out["photon_stats.factorial_moments.calls_per_dist"] = _ratio(auto_fm, n_dists)
    out["photon_stats.probs_out"] = probs_sum + work.get(dist_names[1], 0.0)
    out["wigner.wigner_grid.ns_per_point"] = 1e9 * _ratio(
        own.get("wigner.wigner_grid", 0.0), points)
    out["wigner.points"] = points
    out["cli.bytes_written"] = bytes_written
    out["cli.main.ns_per_byte"] = 1e9 * _ratio(own.get("cli.main", 0.0), bytes_written)
    out["oracle.evolve.rho_entries"] = work.get("oracle.evolve", 0.0)
    return out
