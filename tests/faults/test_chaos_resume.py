"""Chaos sweeps resume from their checkpoint with identical results.

The hard-crash (SIGKILL) path is exercised subprocess-style by
``tests/runtime/test_resume_parity.py``; here the preemption is
simulated deterministically by truncating the faulted-batch journal to
a partial prefix, which is exactly the state a killed run leaves behind
after torn-tail recovery.  The resumed run must replay the surviving
records, recompute the rest under the same retry policy, and produce a
byte-identical degradation report.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import RoArrayConfig
from repro.core.grids import AngleGrid, DelayGrid
from repro.faults import run_chaos_experiment
from repro.runtime import ExecutionPolicy

pytestmark = pytest.mark.chaos


def _kwargs() -> dict:
    return dict(
        n_aps=4,
        n_locations=2,
        n_packets=4,
        seed=3,
        policy=ExecutionPolicy(validate=True, max_retries=1),
        config=RoArrayConfig(
            angle_grid=AngleGrid(n_points=61),
            delay_grid=DelayGrid(n_points=21, stop_s=800e-9),
            max_iterations=150,
        ),
    )


def _locations_json(result) -> str:
    return json.dumps(result.to_dict()["locations"], sort_keys=True)


class TestChaosCheckpointResume:
    def test_truncated_journal_resumes_byte_identically(self, tmp_path):
        reference = run_chaos_experiment(**_kwargs())
        first = run_chaos_experiment(**_kwargs(), checkpoint_dir=tmp_path)
        assert first.report.n_replayed == 0
        assert _locations_json(first) == _locations_json(reference)

        # Preempt: keep the header plus the first two faulted-job records.
        journal = tmp_path / "chaos_faulted.jsonl"
        lines = journal.read_text().splitlines()
        assert len(lines) > 3  # header + >2 job records to truncate away
        journal.write_text("\n".join(lines[:3]) + "\n")

        resumed = run_chaos_experiment(**_kwargs(), checkpoint_dir=tmp_path)
        assert resumed.report.n_replayed == 2
        assert _locations_json(resumed) == _locations_json(reference)
        # The merged report keeps the full failure/quarantine taxonomy —
        # replayed outcomes contribute their original counts.
        for key in ("n_jobs", "n_failures", "n_quarantined_packets"):
            assert resumed.report.to_dict()[key] == reference.report.to_dict()[key]

    def test_completed_checkpoint_replays_everything(self, tmp_path):
        first = run_chaos_experiment(**_kwargs(), checkpoint_dir=tmp_path)
        rerun = run_chaos_experiment(**_kwargs(), checkpoint_dir=tmp_path)
        assert rerun.report.n_replayed == rerun.report.n_jobs > 0
        assert _locations_json(rerun) == _locations_json(first)
