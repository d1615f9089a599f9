"""Kill-and-resume parity: a preempted sweep finishes byte-identically.

The crash tests run ``_resume_worker.py`` in a subprocess, SIGKILL it
mid-sweep (a hard crash — no drain, no flush beyond the per-job fsync),
re-run the same command, and compare the resumed results against an
uninterrupted in-process reference.  Only deterministic fields are
compared (analyses, failure taxonomy, attempts); timings are the
original run's measurements and legitimately differ.

The in-process tests cover the graceful path: SIGINT mid-batch raises
:class:`~repro.exceptions.ResumableInterrupt` with the journal flushed,
and the follow-up call replays exactly the journaled jobs.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.runtime.batch as batch_module
from repro.core.pipeline import RoArrayEstimator
from repro.exceptions import ResumableInterrupt
from repro.runtime import BatchEvaluator, CheckpointPolicy
from repro.runtime.checkpoint import CheckpointJournal, trace_fingerprint
from repro.runtime.jobs import EstimatorSpec
from tests.runtime.conftest import make_traces

REPO_ROOT = Path(__file__).resolve().parents[2]
WORKER = Path(__file__).with_name("_resume_worker.py")
N_TRACES = 10


def _deterministic(outcome: dict) -> dict:
    """An outcome dict with the timing/telemetry fields stripped."""
    return {
        key: value
        for key, value in outcome.items()
        if key not in ("elapsed_s", "stage_seconds", "spans")
    }


def _reference_outcomes(small_estimator) -> list[dict]:
    """The uninterrupted ground truth, computed in-process."""
    traces = make_traces(small_estimator, N_TRACES)
    result = BatchEvaluator(small_estimator).evaluate(traces)
    return [_deterministic(outcome.to_dict()) for outcome in result.outcomes]


def _run_worker(checkpoint_dir: Path, results: Path, *, workers: int, kill_after: int = 0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable,
        str(WORKER),
        "--checkpoint",
        str(checkpoint_dir),
        "--results",
        str(results),
        "--workers",
        str(workers),
        "--n-traces",
        str(N_TRACES),
    ]
    if kill_after:
        command += ["--kill-after", str(kill_after)]
    # Own session/process group: the self-kill SIGKILLs the whole group,
    # so a crashed parallel run can't leave orphaned pool workers behind
    # (they'd hold the captured-output pipes open and hang this call).
    return subprocess.run(
        command,
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        start_new_session=True,
    )


@pytest.mark.slow
@pytest.mark.parametrize("workers", [0, 2])
def test_sigkill_mid_sweep_then_resume_is_byte_identical(
    small_estimator, tmp_path, workers
):
    results = tmp_path / "results.json"

    crashed = _run_worker(tmp_path, results, workers=workers, kill_after=2)
    assert crashed.returncode == -signal.SIGKILL, crashed.stderr
    assert not results.exists()  # died mid-sweep, before any results were written
    journal = tmp_path / "parity.jsonl"
    assert journal.exists()

    resumed = _run_worker(tmp_path, results, workers=workers)
    assert resumed.returncode == 0, resumed.stderr
    payload = json.loads(results.read_text())
    assert payload["n_jobs"] == N_TRACES
    # The kill fired right after the 2nd job record was journaled, so
    # at least one journaled job must be reused and not all of them.
    assert 1 <= payload["n_replayed"] < N_TRACES
    assert [
        _deterministic(outcome) for outcome in payload["outcomes"]
    ] == _reference_outcomes(small_estimator)


@pytest.mark.slow
def test_journal_resumes_across_worker_counts(small_estimator, tmp_path):
    """A journal written sequentially resumes under a process pool."""
    results = tmp_path / "results.json"
    full = _run_worker(tmp_path, results, workers=0)
    assert full.returncode == 0, full.stderr
    reference = json.loads(results.read_text())

    # Keep the header plus the first three job records — a partial run.
    journal = tmp_path / "parity.jsonl"
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:4]) + "\n")

    results.unlink()
    resumed = _run_worker(tmp_path, results, workers=2)
    assert resumed.returncode == 0, resumed.stderr
    payload = json.loads(results.read_text())
    assert payload["n_replayed"] == 3
    assert [_deterministic(o) for o in payload["outcomes"]] == [
        _deterministic(o) for o in reference["outcomes"]
    ]


class _GatedEstimator(RoArrayEstimator):
    """ROArray whose jobs, except the ``free`` traces, wait for a gate file.

    Shipped to the pool whole (an ``instance`` spec), so pooled jobs
    wait on the same file.  The wait is bounded: a gate that never
    opens fails the test instead of hanging it.
    """

    GATE_TIMEOUT_S = 60.0

    def __init__(self, estimator: RoArrayEstimator, gate: Path, free: set[str]) -> None:
        super().__init__(array=estimator.array, layout=estimator.layout, config=estimator.config)
        self.gate = gate
        self.free = free

    def joint_spectrum(self, trace, *, packet=None):
        if trace_fingerprint(trace) not in self.free:
            deadline = time.monotonic() + self.GATE_TIMEOUT_S
            while not self.gate.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
        return super().joint_spectrum(trace, packet=packet)


class TestGracefulInterrupt:
    # Several times the pool's in-flight window (workers + 1 queued
    # calls at chunk_size=1), so the drain has queued work to cancel.
    N_GRACEFUL = 24

    def _evaluate_with_sigint(self, estimator, tmp_path, monkeypatch, *, workers: int):
        # Two seeds: make_traces spaces AoAs 12° apart, which caps one
        # call at 13 traces before leaving the [0, 180]° sector.
        traces = make_traces(estimator, self.N_GRACEFUL // 2) + make_traces(
            estimator, self.N_GRACEFUL // 2, seed=5
        )
        journal = tmp_path / "batch.jsonl"
        # Every job but the first two waits for the gate, which opens
        # only after the SIGINT below: on a fast host the whole batch
        # could otherwise finish within one drain poll of the parallel
        # loop, before it ever looks at the signal.
        gate = tmp_path / "gate"
        spec = EstimatorSpec(
            kind="instance",
            system=_GatedEstimator(
                estimator, gate, {trace_fingerprint(trace) for trace in traces[:2]}
            ),
        )

        # SIGINT arrives right after the 2nd job record is appended, in
        # the thread that appends it, so the drain check that follows the
        # same append loop already sees it.  A watcher thread polling the
        # journal file could fire a whole drain poll later, by which time
        # fast jobs may have finished the batch.
        append = CheckpointJournal.append
        appended = 0

        def append_then_interrupt(self, key, payload, *, index=None):
            nonlocal appended
            append(self, key, payload, index=index)
            appended += 1
            if appended == 2:
                os.kill(os.getpid(), signal.SIGINT)
                gate.touch()

        monkeypatch.setattr(CheckpointJournal, "append", append_then_interrupt)
        # chunk_size=1 keeps most futures out of the pool's pre-buffered
        # call queue, so the drain can actually cancel pending work — with
        # big chunks a small batch may finish entirely despite the signal.
        with pytest.raises(ResumableInterrupt) as exc_info:
            BatchEvaluator(spec, workers=workers, chunk_size=1).evaluate(
                traces, checkpoint=CheckpointPolicy(path=journal, experiment="t")
            )
        monkeypatch.setattr(CheckpointJournal, "append", append)
        return traces, journal, spec, exc_info.value

    @pytest.mark.parametrize("workers", [0, 2])
    def test_sigint_drains_and_raises_resumable(
        self, small_estimator, tmp_path, monkeypatch, workers
    ):
        traces, journal, spec, interrupt = self._evaluate_with_sigint(
            small_estimator, tmp_path, monkeypatch, workers=workers
        )
        assert 0 < interrupt.completed < interrupt.total == self.N_GRACEFUL
        assert str(journal) in str(interrupt)
        # Every drained job was flushed before the exception propagated.
        job_lines = [
            json.loads(line)
            for line in journal.read_text().splitlines()
            if '"record": "job"' in line
        ]
        assert len(job_lines) == interrupt.completed

        # Rerunning the same evaluation resumes and matches a fresh run.
        resumed = BatchEvaluator(spec, workers=workers).evaluate(
            traces, checkpoint=CheckpointPolicy(path=journal, experiment="t")
        )
        assert resumed.report.n_replayed == interrupt.completed
        fresh = BatchEvaluator(small_estimator).evaluate(traces)
        assert [
            _deterministic(outcome.to_dict()) for outcome in resumed.outcomes
        ] == [_deterministic(outcome.to_dict()) for outcome in fresh.outcomes]

    def test_sigint_without_checkpoint_stays_keyboard_interrupt(
        self, small_estimator, monkeypatch
    ):
        traces = make_traces(small_estimator, 6)
        # SIGINT right after the first job group, in the evaluating
        # thread: a timer could fire after a fast batch has returned.
        evaluate_group = batch_module._evaluate_group
        calls = 0

        def evaluate_then_interrupt(*args, **kwargs):
            nonlocal calls
            outcomes = evaluate_group(*args, **kwargs)
            calls += 1
            if calls == 1:
                os.kill(os.getpid(), signal.SIGINT)
            return outcomes

        monkeypatch.setattr(batch_module, "_evaluate_group", evaluate_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            BatchEvaluator(small_estimator).evaluate(traces)
        assert calls == 1

    def test_sigint_on_the_last_group_without_checkpoint_still_interrupts(
        self, small_estimator, monkeypatch
    ):
        """Nothing is journaled, so a SIGINT stands even when the group it
        lands in finishes the batch."""
        traces = make_traces(small_estimator, 2)
        evaluate_group = batch_module._evaluate_group

        def evaluate_then_interrupt(*args, **kwargs):
            outcomes = evaluate_group(*args, **kwargs)
            os.kill(os.getpid(), signal.SIGINT)
            return outcomes

        monkeypatch.setattr(batch_module, "_evaluate_group", evaluate_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            BatchEvaluator(small_estimator).evaluate(traces)

    def test_completed_journal_replays_everything(self, small_estimator, tmp_path):
        traces = make_traces(small_estimator, 4)
        checkpoint = CheckpointPolicy(path=tmp_path / "done.jsonl", experiment="t")
        first = BatchEvaluator(small_estimator).evaluate(traces, checkpoint=checkpoint)
        assert first.report.n_replayed == 0
        second = BatchEvaluator(small_estimator, workers=2).evaluate(
            traces, checkpoint=checkpoint
        )
        assert second.report.n_replayed == len(traces)
        assert [
            _deterministic(outcome.to_dict()) for outcome in second.outcomes
        ] == [_deterministic(outcome.to_dict()) for outcome in first.outcomes]
