"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json at the repository root lists the same metrics; the
self-tests check that the two agree.  Standard library only.
"""

from __future__ import annotations

import statistics

# Timings are scaled to a nominal host on which the benchmark's reference
# kernel (worker.Yardstick) takes REFERENCE_NOMINAL_S: each raw time is
# multiplied by REFERENCE_NOMINAL_S / (the kernel's median time measured in
# the same process, around the same work).  The raw times are printed too.
REFERENCE_NOMINAL_S = 2.5e-3

# (name, unit, better); reported by every workload with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower"),        # fresh process: import catamp + one warm-up task
    ("wall_s", "s", "lower"),         # one full pass over the workload's tasks
    ("task_p50_ms", "ms", "lower"),   # median task latency
    ("peak_rss_mb", "MB", "lower"),   # peak resident memory of the workload process
)


def _layer(name: str, unit: str) -> tuple[str, str, str]:
    return (name, unit, "lower")


# reported by every workload with --trace 1; a metric of a layer the
# workload leaves idle reads 0
PER_LAYER = (
    _layer("rho_terms.enumerate_terms.calls", "count"),
    _layer("rho_terms.enumerate_terms.self_s", "s"),
    _layer("coeffs.coeffs_at.calls", "count"),
    _layer("coeffs.coeffs_at.self_s", "s"),
    _layer("coeffs.coeffs_at.calls_per_task", "count/task"),
    _layer("charfn.moment.calls", "count"),
    _layer("charfn.moment.self_s", "s"),
    _layer("squeezing.two_mode_squeezing.calls", "count"),
    _layer("squeezing.two_mode_squeezing.self_s", "s"),
    _layer("squeezing.single_mode_squeezing.calls", "count"),
    _layer("squeezing.single_mode_squeezing.self_s", "s"),
    _layer("photon_stats.sum_pnd.calls", "count"),
    _layer("photon_stats.sum_pnd.self_s", "s"),
    _layer("photon_stats.sum_pnd.ns_per_prob", "ns"),
    _layer("photon_stats.single_pnd.calls", "count"),
    _layer("photon_stats.single_pnd.self_s", "s"),
    _layer("photon_stats.factorial_moments.calls", "count"),
    _layer("photon_stats.factorial_moments.self_s", "s"),
    _layer("photon_stats.factorial_moments.calls_per_dist", "count/dist"),
    _layer("photon_stats.generating_quantities.calls", "count"),
    _layer("photon_stats.generating_quantities.self_s", "s"),
    _layer("photon_stats.probs_out", "count"),
    _layer("wigner.wigner_grid.calls", "count"),
    _layer("wigner.wigner_grid.self_s", "s"),
    _layer("wigner.wigner_grid.ns_per_point", "ns"),
    _layer("wigner.count_peaks.calls", "count"),
    _layer("wigner.count_peaks.self_s", "s"),
    _layer("wigner.wigner_cut.self_s", "s"),
    _layer("wigner.default_grid.self_s", "s"),
    _layer("wigner.points", "count"),
    _layer("cli.main.calls", "count"),
    _layer("cli.main.self_s", "s"),
    _layer("cli.bytes_written", "B"),
    _layer("cli.main.ns_per_byte", "ns"),
    _layer("oracle.evolve.calls", "count"),
    _layer("oracle.evolve.self_s", "s"),
    _layer("oracle.evolve.rho_entries", "count"),
    _layer("oracle.build_initial.self_s", "s"),
    _layer("oracle.wigner.self_s", "s"),
    _layer("oracle.pnd_sum.self_s", "s"),
    _layer("oracle.pnd_single.self_s", "s"),
    _layer("oracle.squeeze_factors.self_s", "s"),
    _layer("trace.overhead_s", "s"),
)

# a percentile is reported only with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10


def percentile(values: list[float], q: float) -> float | None:
    """The q-quantile (0 < q < 1), or None when fewer than MIN_TAIL_SAMPLES
    samples lie beyond it."""
    if len(values) * (1.0 - q) < MIN_TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]
