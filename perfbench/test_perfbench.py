"""Self-tests of the benchmark: inputs, checks, span arithmetic, wrappers.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import metrics  # noqa: E402
import tasks  # noqa: E402
import tracing  # noqa: E402

import catamp  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_digest(workload):
    first = inputs.generate(workload, 7)
    assert inputs.digest(first) == inputs.digest(inputs.generate(workload, 7))
    assert inputs.digest(first) != inputs.digest(inputs.generate(workload, 8))


def test_oracle_inputs_stay_in_the_converged_domain():
    for seed in range(20):
        for spec in inputs.oracle_xcheck(seed):
            g, p = spec["params"]["g"], spec["params"]
            assert spec["cat1"]["amp_mag"] <= 0.8 and spec["cat2"]["amp_mag"] <= 0.8
            assert g * spec["t"] <= 0.3 + 1e-12
            assert max(p["gamma1"], p["gamma2"]) <= 3.0 * g
            assert max(p["nbar1"], p["nbar2"]) <= 0.5


class _Clock:
    """Returns the queued readings in order."""

    def __init__(self, readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def test_self_times_on_a_synthetic_tree():
    # task [0, 10]: a [1, 6] containing b [2, 3] and c [4, 5.5]; d [7, 9]
    rec = tracing.Recorder(clock=_Clock([0, 1, 2, 3, 4, 5.5, 6, 7, 9, 10]))
    b = rec.wrap("b", lambda: None)
    c = rec.wrap("c", lambda: None)

    def a_body():
        b()
        c()

    a = rec.wrap("a", a_body)
    d = rec.wrap("d", lambda: None)
    with rec.task("t0"):
        a()
        d()
    selfs = tracing.self_times(rec.spans)
    by_name = {span[tracing.NAME]: own for span, own in zip(rec.spans, selfs)}
    assert by_name == pytest.approx({"task": 10 - 5 - 2, "a": 5 - 1 - 1.5,
                                     "b": 1, "c": 1.5, "d": 2})
    assert tracing.task_self_gaps(rec.spans, selfs) == [pytest.approx(0.0)]
    assert [s[tracing.PARENT] for s in rec.spans] == [-1, 0, 1, 1, 0]


def test_overlapping_children_are_counted_once():
    spans = [["task", 0.0, 10.0, -1, "t", 0.0],
             ["x", 1.0, 5.0, 0, "t", 0.0],
             ["y", 3.0, 7.0, 0, "t", 0.0]]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_calls_outside_a_task_are_not_recorded():
    rec = tracing.Recorder()
    f = rec.wrap("f", lambda x: x + 1)
    assert f(1) == 2
    assert rec.spans == []


def _corrupted_task():
    spec = inputs.scan_small(3)[0]
    task = tasks.scan_task(spec)
    result = task.call()
    assert tasks.run_checked(task, result) == []
    return task, result


def test_corrupted_distribution_fails_its_check():
    task, result = _corrupted_task()
    dist = result["sum"]
    bad = dist.probs.copy()
    bad[1] -= 0.01
    result["sum"] = catamp.Distribution(bad, dist.n_max, dist.class_parts)
    errors = tasks.run_checked(task, result)
    assert any("sum P - 1" in e for e in errors)
    assert any("class parts" in e for e in errors)


def test_nan_in_a_distribution_fails_its_check():
    task, result = _corrupted_task()
    single = result["single2_pnd"]
    bad = single.probs.copy()
    bad[0] = np.nan
    result["single2_pnd"] = catamp.Distribution(bad, single.n_max)
    assert tasks.run_checked(task, result) == ["single_pnd(2): non-finite probabilities"]


def test_nonzero_cli_exit_fails(tmp_path):
    assert tasks.check_wigner_command(2, str(tmp_path / "absent.meta.json")) == [
        "catamp wigner exited 2"]


def test_wigner_command_task_round_trip(tmp_path):
    spec = inputs.phase_space(1)[0]
    task = tasks.wigner_task(spec, str(tmp_path))
    code = task.call()
    assert task.counters(code)["cli.bytes_written"] > 0
    assert tasks.run_checked(task, code) == []
    assert not (tmp_path / f"{spec['id']}.csv").exists()


def test_worker_pass_counts_a_raising_task():
    import worker

    def boom():
        raise RuntimeError("boom")

    result = worker.run_pass([tasks.Task("x", boom, lambda r: [])])
    assert result["failures"] == [{"task": "x", "errors": ["raised RuntimeError: boom"]}]
    assert len(result["latencies_s"]) == 1


def test_wrappers_are_installed_everywhere_and_restored():
    from catamp import charfn, squeezing

    original = charfn.moment
    rec = tracing.Recorder()
    inst = tracing.install(rec)
    try:
        assert inst.missing == []
        assert charfn.moment is not original
        assert squeezing.moment is charfn.moment
        assert catamp.moment is charfn.moment
        system = tasks.system_of(inputs.scan_small(1)[0])
        with rec.task("t"):
            catamp.two_mode_squeezing(system, 0.1)
    finally:
        assert inst.restore()
    assert charfn.moment is original and squeezing.moment is original
    assert catamp.moment is original
    names = {span[tracing.NAME] for span in rec.spans}
    assert {"squeezing.two_mode_squeezing", "charfn.moment",
            "rho_terms.enumerate_terms", "coeffs.coeffs_at"} <= names


def test_missing_public_name_is_reported_not_raised():
    inst = tracing.install(tracing.Recorder(), {"charfn": ("no_such_function",),
                                                "no_such_module": ("f",)})
    assert inst.restore()
    assert inst.missing == ["charfn.no_such_function", "no_such_module.f"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        metrics.PER_LAYER)


def test_percentile_needs_ten_samples_beyond():
    assert metrics.percentile(list(range(100)), 0.95) is None
    assert metrics.percentile([float(x) for x in range(200)], 0.95) == pytest.approx(189.05)
