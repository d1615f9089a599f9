"""Run one workload and turn its measurement into the result line.

An untraced run reports the end-to-end metrics.  A traced run first
measures an untraced run (the reference for ``trace.overhead_share``),
then the same run with the ledger's wrappers installed, and reports the
per-layer metrics.  Every run checks the outputs of the run it reports.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

from perfbench.layers import relative_objective_gaps
from perfbench.ledger import Ledger
from perfbench.workloads import WORKLOADS, Measurement

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "packets_per_s": "1/s",
    "latency_p90_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

#: Per-layer time metrics: metric → (ledger layer, "self" or "total").
LAYER_TIMES = {
    "serve.admit_s": ("serve.admit", "self"),
    "serve.fix_s": ("serve.fix", "self"),
    "optim.solve_s": ("optim.solve", "total"),
    "optim.products_s": ("optim.products", "total"),
    "optim.other_s": ("optim.solve", "self"),
    "core.steering_warmup_s": ("core.steering_warmup", "total"),
    "core.fusion_s": ("core.fusion", "self"),
    "core.align_s": ("core.align", "self"),
    "core.svd_s": ("core.svd", "self"),
    "core.direct_path_s": ("core.direct_path", "self"),
    "core.localize_s": ("core.localize", "self"),
    "core.track_s": ("core.track", "self"),
    "baselines.spotfi_s": ("baselines.spotfi", "self"),
    "baselines.arraytrack_s": ("baselines.arraytrack", "self"),
    "channel.synth_s": ("channel.synth", "self"),
    "runtime.batch_overhead_s": ("runtime.batch_overhead", "self"),
    "experiments.sweep_s": ("experiments.sweep", "self"),
    "resilience.supervisor_s": ("resilience.supervisor", "self"),
    "resilience.snapshot_s": ("resilience.snapshot", "self"),
    "resilience.journal_s": ("resilience.journal", "self"),
    "resilience.restore_s": ("resilience.restore", "self"),
    "io.ingest_s": ("io.ingest", "self"),
    "io.parse_s": ("io.parse", "self"),
    "io.stages_s": ("io.stages", "self"),
    "io.calibration_s": ("io.calibration", "self"),
    "io.write_s": ("io.write", "self"),
    "loadgen.idle_s": ("loadgen.idle", "self"),
}

#: Every per-layer metric (``--trace 1``) and its unit.
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.batch_problems_mean": "problems",
    "serve.fix_latency_p50_ms": "ms",
    "serve.fix_latency_p99_ms": "ms",
    "serve.reported_fix_latency_p99_ms": "ms",
    "optim.solve_calls": "count",
    "optim.problems": "count",
    "optim.iterations_mean_warm": "iterations",
    "optim.iterations_mean_cold": "iterations",
    "optim.converged_share": "share",
    "optim.warm_hit_share": "share",
    "optim.warm_mb": "MB",
    "optim.rel_objective_gap_p50": "ratio",
    "optim.rel_objective_gap_p90": "ratio",
    "resilience.snapshot_count": "count",
    "resilience.snapshot_mb": "MB",
    "loadgen.lag_p99_ms": "ms",
    "accuracy.loc_error_median_m": "m",
    "accuracy.aoa_error_median_deg": "deg",
    "trace.overhead_share": "share",
    "ledger.coverage": "share",
}

#: Problems re-solved by the solve-quality probe per traced run.
PROBE_SAMPLE = 6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(setup_s: float, measured: Measurement, rss_mb: float) -> dict:
    latencies = np.asarray(measured.latencies_s) * 1e3
    return {
        "setup_s": setup_s,
        "packets_per_s": measured.packets / measured.wall_s,
        "latency_p90_ms": float(np.percentile(latencies, 90)),
        "ok_share": measured.ok / measured.attempted,
        "peak_rss_mb": rss_mb,
    }


def coverage(ledger: Ledger, measured: Measurement) -> float:
    """Top-level span time inside the measured window, over its wall time."""
    start, end = measured.started, measured.started + measured.wall_s
    covered = sum(
        stop - begin for _, begin, stop, depth in ledger.spans
        if depth == 0 and begin >= start and stop <= end
    )
    return covered / (end - start)


def per_layer_metrics(workload, ledger: Ledger, plain: Measurement, traced: Measurement) -> dict:
    metrics = {name: 0.0 for name in PER_LAYER}
    for name, (layer, kind) in LAYER_TIMES.items():
        metrics[name] = (ledger.self_s if kind == "self" else ledger.total_s).get(layer, 0.0)
    metrics.update(workload.layer_metrics(ledger, traced))
    gaps = relative_objective_gaps(workload.probe_problems(), sample=PROBE_SAMPLE)
    if gaps:
        metrics["optim.rel_objective_gap_p50"] = float(np.percentile(gaps, 50))
        metrics["optim.rel_objective_gap_p90"] = float(np.percentile(gaps, 90))
    metrics["trace.overhead_share"] = (
        (traced.busy_s / traced.packets) / (plain.busy_s / plain.packets) - 1.0
    )
    metrics["ledger.coverage"] = coverage(ledger, traced)
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Prepare, set up, measure and check one workload; the result line."""
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        workload = WORKLOADS[name](seed, workdir)
        workload.prepare(seconds)
        if trace:
            plain = workload.measure(seconds)
            ledger = Ledger()
            with ledger.installed(workload.patches(ledger)):
                measured = workload.measure(seconds, ledger)
            problems = workload.check(measured)
            values = per_layer_metrics(workload, ledger, plain, measured)
            ledger.write(out_dir / f"spans-{name}-seed{seed}.json")
            units = PER_LAYER
        else:
            # Set-ups run in three bursts around the measurement: host
            # speed drifts over seconds, and one burst sees one speed.
            burst = workload.setup_repeats // 3
            setups = [workload.setup_once() for _ in range(burst)]
            measured = workload.measure(seconds)
            rss_mb = peak_rss_mb()
            setups += [workload.setup_once() for _ in range(burst)]
            problems = workload.check(measured)
            setups += [workload.setup_once() for _ in range(burst)]
            values = end_to_end_metrics(statistics.median(setups), measured, rss_mb)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": int(measured.attempted),
        "failed": int(measured.failed),
        "metrics": {
            metric: {"value": float(values[metric]), "unit": unit} for metric, unit in units.items()
        },
    }
