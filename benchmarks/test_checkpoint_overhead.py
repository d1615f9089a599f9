"""Checkpoint overhead budget: journaling must cost <= 2% of a job.

The journal appends one fsync'd JSONL record per finished job, so the
relevant comparison is per-append cost against the joint-solve wall
time at the evaluation working point (the solve runs at least once per
job, the append exactly once).  The payload is a realistic journaled
outcome — a full :class:`~repro.runtime.jobs.JobOutcome` dict with an
analysis attached — not a toy record.

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
from repro.core.pipeline import RoArrayEstimator
from repro.experiments.runner import evaluation_roarray_config
from repro.runtime import BatchEvaluator, CheckpointPolicy
from repro.runtime.bench import joint_solve_benchmark
from repro.runtime.checkpoint import CheckpointJournal, job_key

OVERHEAD_LIMIT = 0.02


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
