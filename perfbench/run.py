"""catamp benchmark: one seeded workload, every metric by name and unit.

    python3 perfbench/run.py --workload pnd_large --seed 1 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` it prints the end-to-end
metrics (set-up time, pass wall time, median task latency, peak memory), with
``--trace 1`` the per-layer numbers of a traced pass.  The last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it are a readable table with the input digest
and the environment.  Details (per-task latencies, failures, environment,
spans) go to ``.perfbench_out/`` in the repository root.

This launcher uses the standard library only.  The workload runs in child
processes whose environment pins BLAS/OpenMP to one thread and puts
``src`` on ``PYTHONPATH``; the machine itself is left as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

# set in the children's environment only
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60.0
# the whole invocation must end within 180 s
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load1() -> float | None:
    try:
        with open("/proc/loadavg", "r", encoding="ascii") as f:
            return float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_worker(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, WORKER, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(probes: list[dict], measured: dict) -> tuple[dict, dict]:
    """The gated metrics (scaled to the nominal reference speed), and the
    printed-only ones: task_p95_ms where it has 10 samples beyond it, and the
    raw times."""
    nominal = metrics.REFERENCE_NOMINAL_S
    passes = measured["passes"]
    run_reference = statistics.median(measured["reference_samples_s"])
    latencies = [x for p in passes for x in p["latencies_s"]]
    gated = {
        "setup_s": statistics.median(p["setup_s"] * nominal / p["reference_s"] for p in probes),
        "wall_s": statistics.median(p["wall_s"] * nominal / p.get("reference_s", run_reference)
                                    for p in passes),
        "task_p50_ms": 1e3 * statistics.median(latencies) * nominal / run_reference,
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    raw = {
        "raw setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "raw wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "raw task_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "reference_ms": (1e3 * run_reference, "ms"),
    }
    p95 = metrics.percentile(latencies, 0.95)
    if p95 is not None:
        raw["task_p95_ms"] = (1e3 * p95 * nominal / run_reference, "ms")
        raw["raw task_p95_ms"] = (1e3 * p95, "ms")
    return gated, raw


def print_table(args, measured: dict, values: dict, units: dict, env: dict,
                attempted: int, failed: int, extra: list[str]) -> None:
    print(f"catamp benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}  inputs sha256:{measured['digest'][:16]}  "
          f"tasks={measured['n_tasks']} x passes={len(measured['passes'])}")
    for name, value in values.items():
        print(f"  {name:<52} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':<52} {failed / attempted:>16.6g} 1  ({failed}/{attempted})")
    for line in extra:
        print(f"  {line}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_pins")
          + " pins=" + ",".join(f"{k}={v}" for k, v in env["thread_pins"].items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="catamp benchmark (one workload)")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "catamp", "__init__.py")):
        print(f"error: no catamp sources under {os.path.join(ROOT, 'src')}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    env = child_env()
    load_before = load1()
    nproc = os.cpu_count() or 1
    if load_before is not None and load_before >= nproc:
        print(f"warning: 1-min load {load_before} >= nproc {nproc}; "
              "timings from a loaded machine are not comparable", file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(OUT_DIR, f"{tag}.spans.json")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    try:
        probes = []
        if not args.trace:
            probes = [run_worker(["setup", *common], env, SETUP_TIMEOUT_S)
                      for _ in range(SETUP_PROBES)]
        remaining = DEADLINE_S - (time.monotonic() - started)
        measured = run_worker(["measure", *common, "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--spans", spans_path],
                              env, remaining)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    environment = {
        "nproc": nproc,
        "cpu": cpu_model().replace(" ", "_"),
        "load1_before": load_before,
        "load1_after": load1(),
        "loaded": load_before is not None and load_before >= nproc,
        **measured["versions"],
        "thread_pins": THREAD_PINS,
    }
    passes = measured["passes"]
    attempted = sum(len(p["latencies_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    setup_errors = [e for p in probes for e in p["errors"]]
    correct = failed == 0 and not setup_errors and not measured["warmup_failures"]
    extra = []
    if args.trace:
        spec = metrics.PER_LAYER
        layers = measured["layers"]
        missing = sorted(set(measured["missing"])
                         | {name for name, _, _ in spec if name not in layers})
        values = {name: float(layers.get(name, 0.0)) for name, _, _ in spec}
        correct = correct and measured["restored"] and measured["max_self_gap_s"] < 1e-6
        extra.append(f"spans={measured['n_spans']} max|sum(self)-root|="
                     f"{measured['max_self_gap_s']:.2e}s wrappers_restored={measured['restored']}")
        extra.append("missing: " + (", ".join(missing) if missing else "none"))
    else:
        spec = metrics.END_TO_END
        values, raw = end_to_end(probes, measured)
        for name, (value, unit) in raw.items():
            extra.append(f"{name:<52} {value:>16.6g} {unit}")
        extra.append(f"task latencies n={attempted}; setup_s median of {len(probes)} fresh "
                     f"processes; times scaled by {1e3 * metrics.REFERENCE_NOMINAL_S:g} ms / "
                     f"reference_ms (n={len(measured['reference_samples_s'])})")
    units = {name: unit for name, unit, _ in spec}

    print_table(args, measured, values, units, environment, attempted, failed, extra)
    for failure in [*measured["warmup_failures"], *(f for p in passes for f in p["failures"])]:
        print(f"  FAILED {failure['task']}: {'; '.join(failure['errors'])}")
    for error in setup_errors:
        print(f"  FAILED setup warm-up: {error}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_sha256": measured["digest"],
              "environment": environment, "setup_probes": probes,
              "metrics": values, "measured": measured}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
