"""Journal and snapshot overhead budgets.

Batch checkpoints: the journal appends one fsync'd JSONL record per
finished job, so the relevant comparison is per-append cost against the
joint-solve wall time at the evaluation working point (the solve runs
at least once per job, the append exactly once).  The payload is a
realistic journaled outcome — a full :class:`~repro.runtime.jobs.JobOutcome`
dict with an analysis attached — not a toy record.

Serve resilience: the supervisor's snapshots, ack-journal appends, and
per-packet breaker and backpressure work are held to per-operation
bounds on a fixed 40-client stream, so a faster or slower solver moves
neither side of the comparison.

Scale knobs: ``REPRO_SMOKE=1`` shortens the solve pin and the append
loop (CI).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.channel.csi import CsiSynthesizer
from repro.channel.impairments import ImpairmentModel
from repro.channel.paths import random_profile
from repro.core.grids import AngleGrid, DelayGrid
from repro.core.pipeline import RoArrayEstimator
from repro.experiments.runner import evaluation_roarray_config
from repro.runtime import BatchEvaluator, CheckpointPolicy
from repro.runtime.bench import joint_solve_benchmark
from repro.runtime.checkpoint import CheckpointJournal, JsonlLog, job_key
from repro.serve import (
    BackpressureController,
    BackpressurePolicy,
    BreakerBoard,
    LoadGenerator,
    LocalizationService,
    ServeConfig,
    ServiceSupervisor,
    SnapshotPolicy,
    resilience,
)

OVERHEAD_LIMIT = 0.02

#: Serve resilience bounds, per operation, on the 40-client stream
#: below: twice the worst of five runs of the code before the bounds
#: were set (17.05 ms per snapshot, 1.056 ms per append, 1.77 us of
#: guards per packet on a 2-vCPU host), rounded up to two figures.
SNAPSHOT_S_LIMIT = 0.035
APPEND_S_LIMIT = 0.0022
GUARD_US_LIMIT = 3.6
SNAPSHOT_EVERY = 64


def _smoke() -> bool:
    return os.environ.get("REPRO_SMOKE", "") == "1"


def _journaled_payload() -> dict:
    """One realistic job record: a real analysis at a small working point."""
    estimator = RoArrayEstimator(config=evaluation_roarray_config())
    rng = np.random.default_rng(2017)
    profile = random_profile(rng, direct_aoa_deg=150.0)
    synthesizer = CsiSynthesizer(
        estimator.array, estimator.layout, ImpairmentModel(), seed=2017
    )
    trace = synthesizer.packets(profile, n_packets=4, snr_db=12.0, rng=rng)
    outcome = BatchEvaluator(estimator).evaluate([trace]).outcomes[0]
    return outcome.to_dict()


@pytest.mark.benchmark(group="checkpoint")
def test_journal_append_overhead_within_two_percent(tmp_path):
    iterations = 120 if _smoke() else None
    result = joint_solve_benchmark(repeats=2, max_iterations=iterations)
    solve_s = result["operator_seconds"]

    payload = _journaled_payload()
    n = 50 if _smoke() else 200
    best = float("inf")
    for attempt in range(3):
        policy = CheckpointPolicy(
            path=tmp_path / f"bench_{attempt}.jsonl", experiment="bench"
        )
        with CheckpointJournal(policy) as journal:
            journal.open(config_digest="bench", n_jobs=n)
            start = time.perf_counter()
            for index in range(n):
                journal.append(job_key("bench", index, index), payload, index=index)
            best = min(best, (time.perf_counter() - start) / n)

    overhead = best / solve_s
    print(
        f"\n-- checkpoint overhead -- append {best * 1e6:.1f} us/job, "
        f"solve {solve_s * 1e3:.2f} ms, "
        f"overhead {overhead * 100:.3f}% (limit {OVERHEAD_LIMIT * 100:.0f}%)"
    )
    assert overhead <= OVERHEAD_LIMIT, (
        f"per-job journaling overhead {overhead * 100:.2f}% exceeds "
        f"{OVERHEAD_LIMIT * 100:.0f}% of the joint solve"
    )


def _timed(function, durations: list[float]):
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - started)

    return wrapper


@pytest.mark.benchmark(group="checkpoint")
def test_serve_resilience_within_per_operation_budget(tmp_path, monkeypatch):
    """Snapshots, journal appends, breakers and backpressure, per operation.

    Every snapshot write and every journal append (one fsync each) is
    timed where it happens, and counted: snapshots must land exactly on
    the cadence plus the final one, and the journal may take at most one
    append per micro-batch, the most delivery batches the stream can
    produce.  The breaker and backpressure bookkeeping is micro-timed
    per packet.
    """
    workload = LoadGenerator(
        n_clients=40,
        duration_s=1.0,
        sample_interval_s=0.5,
        stationary_fraction=0.3,
        n_aps=3,
        band="high",
        seed=2017,
    ).generate()
    config = ServeConfig(
        batch_size=16,
        max_delay_s=0.05,
        window_packets=2,
        resolution_m=0.5,
        angle_grid=AngleGrid(n_points=61),
        delay_grid=DelayGrid(n_points=21),
        max_iterations=100,
    )

    def build(clock):
        return LocalizationService(
            workload.room,
            workload.access_points,
            array=workload.array,
            layout=workload.layout,
            config=config,
            clock=clock,
        )

    snapshots: list[float] = []
    appends: list[float] = []
    monkeypatch.setattr(resilience, "save_snapshot", _timed(resilience.save_snapshot, snapshots))
    monkeypatch.setattr(JsonlLog, "append", _timed(JsonlLog.append, appends))
    expected_snapshots = len(workload.packets) // SNAPSHOT_EVERY + 1
    per_snapshot, per_append = [], []
    # Best of two: one slow fsync on a shared disk should not fail the
    # budget; the counts must hold on every trial.
    for trial in range(2):
        snapshots.clear()
        appends.clear()
        policy = SnapshotPolicy(
            directory=tmp_path / f"trial-{trial}", every_packets=SNAPSHOT_EVERY, max_duty=0.0
        )
        with ServiceSupervisor(build, policy) as supervisor:
            result = supervisor.run(workload.packets)
        n_batches = sum(supervisor.service.batch_triggers.values())
        assert result.n_delivered > 0 and result.n_restarts == 0
        assert len(snapshots) == expected_snapshots, (
            f"{len(snapshots)} snapshot writes, cadence allows {expected_snapshots}"
        )
        assert len(appends) <= n_batches, (
            f"{len(appends)} journal appends for {n_batches} micro-batches "
            f"({result.n_delivered} fixes)"
        )
        per_snapshot.append(sum(snapshots) / len(snapshots))
        per_append.append(sum(appends) / len(appends))

    names = [ap.name for ap in workload.access_points]
    board = BreakerBoard(names)
    ladder = BackpressureController(BackpressurePolicy(), max_pending=256)
    reps = 10_000
    started = time.perf_counter()
    for index in range(reps):
        board.allow(names[index % len(names)], float(index))
        board.record_success(names[index % len(names)], float(index))
        ladder.update(index % 256)
    guard_us = (time.perf_counter() - started) / reps * 1e6

    snapshot_s, append_s = min(per_snapshot), min(per_append)
    print(
        f"\n-- serve resilience -- {expected_snapshots} snapshots at "
        f"{snapshot_s * 1e3:.2f} ms (limit {SNAPSHOT_S_LIMIT * 1e3:.1f}), "
        f"{len(appends)} appends for {result.n_delivered} fixes at "
        f"{append_s * 1e3:.3f} ms (limit {APPEND_S_LIMIT * 1e3:.2f}), "
        f"guards {guard_us:.2f} us/packet (limit {GUARD_US_LIMIT:.1f})"
    )
    assert snapshot_s <= SNAPSHOT_S_LIMIT
    assert append_s <= APPEND_S_LIMIT
    assert guard_us <= GUARD_US_LIMIT
