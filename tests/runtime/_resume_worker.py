"""Subprocess entry point for the kill-and-resume parity tests.

Runs the runtime suite's deterministic workload through a checkpointed
:class:`~repro.runtime.BatchEvaluator` and writes the outcomes as JSON.
With ``--kill-after K`` the process group is SIGKILLed right after
the K-th job record is appended (and fsync'd) to the journal — a hard
crash mid-sweep, not a graceful drain — so the surviving journal is
exactly what a preempted run leaves behind, however fast the jobs run.
``test_resume_parity.py`` then re-runs the same command and asserts the
resumed results are byte-identical to an uninterrupted reference.

The estimator/workload construction mirrors the ``small_estimator`` /
``make_traces`` fixtures; the trace generator itself is imported from
the conftest so the two can never drift apart.
"""

from __future__ import annotations

import argparse
import os
import signal
from pathlib import Path

from repro.channel.array import UniformLinearArray
from repro.channel.ofdm import SubcarrierLayout
from repro.core.config import RoArrayConfig
from repro.core.grids import AngleGrid, DelayGrid
from repro.core.pipeline import RoArrayEstimator
from repro.runtime import BatchEvaluator, CheckpointJournal, CheckpointPolicy
from repro.runtime.checkpoint import atomic_write
from tests.runtime.conftest import make_traces

JOURNAL_NAME = "parity.jsonl"


def build_estimator() -> RoArrayEstimator:
    """The runtime suite's ``small_estimator`` fixture, subprocess-safe."""
    return RoArrayEstimator(
        array=UniformLinearArray(),
        layout=SubcarrierLayout(n_subcarriers=16, spacing=1.25e6),
        config=RoArrayConfig(
            angle_grid=AngleGrid(n_points=61),
            delay_grid=DelayGrid(n_points=21, stop_s=800e-9),
            max_iterations=150,
        ),
    )


def _arm_self_kill(kill_after: int) -> None:
    """Wrap ``CheckpointJournal.append`` to die after ``kill_after`` appends.

    The kill runs in the thread that journals, synchronously after the
    append returns, so exactly ``kill_after`` job records are on disk
    however fast the pool completes jobs.
    """
    append = CheckpointJournal.append
    appended = 0

    def append_then_kill(self, key, payload, *, index=None):
        nonlocal appended
        append(self, key, payload, index=index)
        appended += 1
        if appended >= kill_after:
            # Kill the whole process group — the parent AND any pool
            # workers.  The test launches this script in its own
            # session (start_new_session=True), so the group is ours;
            # orphaned workers would otherwise hold the stdout pipe
            # open and hang the test's communicate().
            os.killpg(os.getpgrp(), signal.SIGKILL)

    CheckpointJournal.append = append_then_kill


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checkpoint", required=True, help="checkpoint directory")
    parser.add_argument("--results", required=True, help="output JSON path")
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--n-traces", type=int, default=10)
    parser.add_argument(
        "--kill-after",
        type=int,
        default=0,
        help="SIGKILL self right after this many job records are journaled",
    )
    args = parser.parse_args()

    estimator = build_estimator()
    traces = make_traces(estimator, args.n_traces)
    journal_path = Path(args.checkpoint) / JOURNAL_NAME
    if args.kill_after:
        _arm_self_kill(args.kill_after)

    result = BatchEvaluator(estimator, workers=args.workers).evaluate(
        traces,
        checkpoint=CheckpointPolicy(path=journal_path, experiment="parity"),
    )
    atomic_write(
        Path(args.results),
        {
            "outcomes": [outcome.to_dict() for outcome in result.outcomes],
            "n_jobs": result.report.n_jobs,
            "n_failures": result.report.n_failures,
            "n_replayed": result.report.n_replayed,
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
