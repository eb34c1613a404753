"""Workload process of the benchmark; run.py starts it with pinned threads.

    worker.py setup   --workload W --seed N --workdir D
    worker.py measure --workload W --seed N --seconds S --trace 0|1 --workdir D --spans F

``setup`` times ``import catamp`` plus one warm-up task in this fresh
process.  ``measure`` runs whole passes over the workload's tasks, closed
loop and back to back: with ``--trace 0`` until the next pass would overrun
``--seconds`` (at least one pass); with ``--trace 1`` an untraced, a traced
and another untraced pass.  Either mode prints one JSON object as its last
stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402  (standard library only)

clock = time.perf_counter


class Yardstick:
    """A fixed reference kernel timed between tasks, to track the host's speed.

    On a shared host the same code runs up to half again as slow for minutes
    at a time.  Measured side by side over three minutes, this kernel's
    slow-downs followed those of the workloads (correlation 0.86-0.88), and
    dividing by it halved their spread.  Bursts are taken at most every
    INTERVAL_S, before a task, and their time is kept out of the pass.
    """

    INTERVAL_S = 0.25
    BURST = 3

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 1.0, 1536) * (1.0 + 1.0j)
        self._last = -float("inf")
        self.samples: list[float] = []
        self.kernel()

    def kernel(self) -> int:
        acc = 0
        for i in range(20000):
            acc += i * i
        self._np.convolve(self._x, self._x)
        return acc

    def sample(self, count: int) -> float:
        """Time the kernel count times; return the time spent."""
        start = clock()
        for _ in range(count):
            t0 = clock()
            self.kernel()
            self.samples.append(clock() - t0)
        self._last = clock()
        return self._last - start

    def maybe_sample(self) -> float:
        """A burst if the last one is old enough; return the time spent."""
        if clock() - self._last < self.INTERVAL_S:
            return 0.0
        return self.sample(self.BURST)


def run_pass(tasks, recorder=None, yardstick=None) -> dict:
    """Every task once, in order.  Checks run after each task's timer stops."""
    from tasks import run_checked

    latencies, failures, counters = [], [], {}
    start = clock()
    reference = 0.0
    first_sample = len(yardstick.samples) if yardstick is not None else 0
    for task in tasks:
        if yardstick is not None:
            reference += yardstick.maybe_sample()
        t0 = clock()
        try:
            if recorder is None:
                result = task.call()
            else:
                with recorder.task(task.id):
                    result = task.call()
        except Exception as exc:  # a failing task is counted, not fatal
            latencies.append(clock() - t0)
            failures.append({"task": task.id, "errors": [f"raised {type(exc).__name__}: {exc}"]})
            continue
        latencies.append(clock() - t0)
        for key, value in task.counters(result).items():
            counters[key] = counters.get(key, 0.0) + value
        errors = run_checked(task, result)
        if errors:
            failures.append({"task": task.id, "errors": errors})
    out = {"wall_s": clock() - start - reference, "latencies_s": latencies,
           "failures": failures, "counters": counters}
    if yardstick is not None and len(yardstick.samples) > first_sample:
        out["reference_s"] = statistics.median(yardstick.samples[first_sample:])
    return out


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def cmd_setup(args) -> dict:
    specs = inputs.generate(args.workload, args.seed)[:1]
    t0 = clock()
    import catamp  # noqa: F401  (the import is what is being timed)
    import tasks

    warnings.simplefilter("ignore")
    task = tasks.prepare(args.workload, specs, args.workdir)[0]
    result = task.call()
    setup = clock() - t0
    yardstick = Yardstick()
    yardstick.sample(9)
    return {"setup_s": setup, "reference_s": statistics.median(yardstick.samples),
            "errors": tasks.run_checked(task, result)}


def cmd_measure(args) -> dict:
    import tasks

    warnings.simplefilter("ignore")
    specs = inputs.generate(args.workload, args.seed)
    prepared = tasks.prepare(args.workload, specs, args.workdir)
    warm = run_pass(prepared[:1])
    out = {"digest": inputs.digest(specs), "n_tasks": len(prepared),
           "warmup_failures": warm["failures"], "versions": _versions()}
    if args.trace:
        out.update(trace_passes(prepared, args.spans))
    else:
        yardstick = Yardstick()
        passes = []
        start = clock()
        while True:
            passes.append(run_pass(prepared, yardstick=yardstick))
            if clock() - start + passes[-1]["wall_s"] > args.seconds:
                break
        out["passes"] = passes
        out["reference_samples_s"] = yardstick.samples
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


def trace_passes(prepared, spans_path: str) -> dict:
    import tracing

    before = run_pass(prepared)
    recorder = tracing.Recorder()
    installation = tracing.install(recorder)
    try:
        traced = run_pass(prepared, recorder)
    finally:
        restored = installation.restore()
    after = run_pass(prepared)
    selfs = tracing.self_times(recorder.spans)
    gaps = tracing.task_self_gaps(recorder.spans, selfs)
    layers = tracing.layer_metrics(recorder.spans, selfs, len(prepared),
                                   traced["counters"], installation.wrapped)
    # the traced pass sits between two untraced ones, which cancels a linear drift
    layers["trace.overhead_s"] = traced["wall_s"] - 0.5 * (before["wall_s"] + after["wall_s"])
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "task", "work", "self_s"],
                   "spans": [span + [own] for span, own in zip(recorder.spans, selfs)]},
                  f, separators=(",", ":"))
    return {"passes": [before, traced, after], "layers": layers,
            "wrapped": installation.wrapped, "missing": installation.missing,
            "restored": restored, "max_self_gap_s": max(gaps, default=0.0),
            "n_spans": len(recorder.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=os.devnull)
    args = parser.parse_args(argv)
    result = cmd_setup(args) if args.mode == "setup" else cmd_measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
