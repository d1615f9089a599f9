"""Unit tests for the durable checkpoint store (repro.runtime.checkpoint)."""

from __future__ import annotations

import dataclasses
import json
import warnings

import numpy as np
import pytest

from repro.exceptions import CheckpointError
from repro.obs import MetricsRegistry
from repro.runtime.checkpoint import (
    EXIT_RESUMABLE,
    CheckpointJournal,
    CheckpointPolicy,
    JournalStatus,
    JsonlLog,
    atomic_write,
    checkpoint_status,
    config_digest,
    describe_for_digest,
    job_key,
    read_manifest,
    trace_fingerprint,
    write_manifest,
)
from repro.runtime.jobs import JobFailure, JobOutcome

from tests.runtime.conftest import make_traces


# ---------------------------------------------------------------------------
# atomic_write
# ---------------------------------------------------------------------------


class TestAtomicWrite:
    def test_json_payload(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write(path, {"b": 2, "a": [1.5, None]})
        payload = json.loads(path.read_text())
        assert payload == {"b": 2, "a": [1.5, None]}
        assert path.read_text().endswith("\n")

    def test_text_and_bytes(self, tmp_path):
        atomic_write(tmp_path / "t.txt", "hello\n")
        assert (tmp_path / "t.txt").read_text() == "hello\n"
        atomic_write(tmp_path / "b.bin", b"\x00\x01")
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"

    def test_callable_streams_binary(self, tmp_path):
        path = tmp_path / "arr.npz"
        atomic_write(path, lambda handle: np.savez_compressed(handle, x=np.arange(4)))
        with np.load(path) as data:
            assert data["x"].tolist() == [0, 1, 2, 3]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "a.json"
        atomic_write(path, {"v": 1})
        atomic_write(path, {"v": 2})
        assert json.loads(path.read_text()) == {"v": 2}

    def test_no_temp_residue_on_failure(self, tmp_path):
        def explode(handle):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            atomic_write(tmp_path / "x.json", explode)
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Content hashing
# ---------------------------------------------------------------------------


class TestDigests:
    def test_digest_stable_and_sensitive(self):
        a = config_digest({"grid": 91}, 7)
        assert a == config_digest({"grid": 91}, 7)
        assert a != config_digest({"grid": 92}, 7)
        assert a != config_digest({"grid": 91}, 8)

    def test_describe_handles_numpy_and_dataclasses(self):
        description = describe_for_digest(
            {"arr": np.arange(3), "f": np.float64(1.5), "c": 1 + 2j}
        )
        assert description["f"] == 1.5
        assert description["c"] == {"__complex__": [1.0, 2.0]}
        assert set(description["arr"]) == {"__ndarray__", "shape", "dtype"}
        policy = CheckpointPolicy(path="x.jsonl")
        assert describe_for_digest(policy)["__class__"] == "CheckpointPolicy"

    def test_trace_fingerprint_pins_bytes(self, small_estimator):
        trace_a, trace_b = make_traces(small_estimator, 2)
        assert trace_fingerprint(trace_a) == trace_fingerprint(trace_a)
        assert trace_fingerprint(trace_a) != trace_fingerprint(trace_b)

    def test_job_key_components(self):
        base = job_key("d", 0, 0, "c")
        assert base != job_key("e", 0, 0, "c")
        assert base != job_key("d", 1, 0, "c")
        assert base != job_key("d", 0, 1, "c")
        assert base != job_key("d", 0, 0, "x")


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------


def _payload(index: int) -> dict:
    return JobOutcome(index=index, failure=JobFailure("E", "m", kind="solver")).to_dict()


class TestJournal:
    def test_policy_validation(self, tmp_path):
        # Every append is fsync'd: the policy has no durability knobs.
        fields = [f.name for f in dataclasses.fields(CheckpointPolicy)]
        assert fields == ["path", "experiment", "metrics"]
        with pytest.raises(TypeError):
            CheckpointPolicy(path=tmp_path / "j.jsonl", flush_every=1)

    def test_append_and_reload(self, tmp_path):
        policy = CheckpointPolicy(path=tmp_path / "j.jsonl")
        with CheckpointJournal(policy) as journal:
            state = journal.open(config_digest="d", n_jobs=3)
            assert state.n_recorded == 0
            journal.append(job_key("d", 0, 0), _payload(0), index=0)
            journal.append(job_key("d", 1, 1), _payload(1), index=1)

        with CheckpointJournal(policy) as journal:
            state = journal.open(config_digest="d", n_jobs=3)
        assert state.n_recorded == 2
        record = state.payloads[job_key("d", 0, 0)]
        assert JobOutcome.from_dict(record["payload"]).failure.error_type == "E"

    def test_digest_mismatch_refuses(self, tmp_path):
        policy = CheckpointPolicy(path=tmp_path / "j.jsonl")
        with CheckpointJournal(policy) as journal:
            journal.open(config_digest="d", n_jobs=1)
        with CheckpointJournal(policy) as journal:
            with pytest.raises(CheckpointError, match="different experiment"):
                journal.open(config_digest="OTHER", n_jobs=1)

    def test_evaluate_resume_with_another_config_refuses(self, small_estimator, tmp_path):
        """A journal resumed under another RoArrayConfig is refused, and
        the refusal leaves every journaled byte as it was."""
        from repro.core.pipeline import RoArrayEstimator
        from repro.runtime.batch import BatchEvaluator

        traces = make_traces(small_estimator, 2)
        policy = CheckpointPolicy(path=tmp_path / "j.jsonl", experiment="t")
        BatchEvaluator(small_estimator).evaluate(traces, checkpoint=policy)
        journaled = policy.path.read_bytes()
        other = RoArrayEstimator(
            array=small_estimator.array,
            layout=small_estimator.layout,
            config=dataclasses.replace(small_estimator.config, kappa_fraction=0.25),
        )
        with pytest.raises(CheckpointError, match="different experiment"):
            BatchEvaluator(other).evaluate(traces, checkpoint=policy)
        assert policy.path.read_bytes() == journaled

    def test_version_mismatch_refuses(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps(
                {"record": "header", "version": 99, "experiment": "t",
                 "config_digest": "d", "n_jobs": 1}
            )
            + "\n"
        )
        with CheckpointJournal(CheckpointPolicy(path=path)) as journal:
            with pytest.raises(CheckpointError, match="version"):
                journal.open(config_digest="d", n_jobs=1)

    def test_torn_tail_skipped_and_counted(self, tmp_path):
        path = tmp_path / "j.jsonl"
        policy = CheckpointPolicy(path=path)
        with CheckpointJournal(policy) as journal:
            journal.open(config_digest="d", n_jobs=3)
            journal.append(job_key("d", 0, 0), _payload(0), index=0)
            journal.append(job_key("d", 1, 1), _payload(1), index=1)
        # Simulate a crash mid-append: truncate the last record mid-line.
        torn = path.read_text()[:-25]
        path.write_text(torn)

        metrics = MetricsRegistry()
        reopened = CheckpointPolicy(path=path, metrics=metrics)
        with CheckpointJournal(reopened) as journal:
            with pytest.warns(RuntimeWarning, match="torn record"):
                state = journal.open(config_digest="d", n_jobs=3)
        assert state.n_recorded == 1  # the torn record is dropped, not half-read
        assert metrics.to_dict()["checkpoint.validation_warnings"]["value"] == 1
        # The reopen healed the file: every line now parses cleanly.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_headerless_file_recreated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"truncated...')
        with CheckpointJournal(CheckpointPolicy(path=path)) as journal:
            with pytest.warns(RuntimeWarning, match="unreadable header"):
                state = journal.open(config_digest="d", n_jobs=2)
        assert state.n_recorded == 0
        header = json.loads(path.read_text().splitlines()[0])
        assert header["record"] == "header"
        assert header["config_digest"] == "d"

    def test_compaction_dedupes_last_record_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        policy = CheckpointPolicy(path=path)
        key = job_key("d", 0, 0)
        with CheckpointJournal(policy) as journal:
            journal.open(config_digest="d", n_jobs=1)
            journal.append(key, _payload(0), index=0)
            journal.append(key, _payload(7), index=0)  # re-run of the same job
            journal.finalize()
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # header + one deduped record
        assert json.loads(lines[1])["payload"]["index"] == 7

    def test_newline_less_tail_survives_the_next_append(self, tmp_path):
        # A crash that lands a record but not its newline must not glue
        # the next append onto the same line.
        path = tmp_path / "j.jsonl"
        policy = CheckpointPolicy(path=path)
        with CheckpointJournal(policy) as journal:
            journal.open(config_digest="d", n_jobs=3)
            journal.append(job_key("d", 0, 0), _payload(0), index=0)
            journal.append(job_key("d", 1, 1), _payload(1), index=1)
        path.write_bytes(path.read_bytes()[:-1])
        with CheckpointJournal(policy) as journal:
            journal.open(config_digest="d", n_jobs=3)
            journal.append(job_key("d", 2, 2), _payload(2), index=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with CheckpointJournal(policy) as journal:
                state = journal.open(config_digest="d", n_jobs=3)
        assert state.n_recorded == 3

    def test_outcome_round_trip_is_exact(self, small_estimator, workload):
        from repro.runtime.batch import BatchEvaluator

        outcome = BatchEvaluator(small_estimator).evaluate(workload[:1]).outcomes[0]
        restored = JobOutcome.from_dict(
            json.loads(json.dumps(outcome.to_dict()))
        )
        assert restored.analysis.to_dict() == outcome.analysis.to_dict()
        assert restored.analysis.direct.aoa_deg == outcome.analysis.direct.aoa_deg
        assert restored.analysis.candidate_aoas_deg == outcome.analysis.candidate_aoas_deg


# ---------------------------------------------------------------------------
# The framing rule
# ---------------------------------------------------------------------------

A = b'{"n": 1}\n'
B = b'{"n": 2}\n'


@pytest.mark.parametrize(
    "on_disk, kept, healed",
    [
        pytest.param(None, [], b"", id="missing-file"),
        pytest.param(A + b"\n" + B, [1, 2], A + b"\n" + B, id="blank-line"),
        pytest.param(A + B[:4], [1], A, id="torn-mid-line"),
        pytest.param(A + B[:-1], [1, 2], A + B, id="missing-only-newline"),
        pytest.param(A + b"[1, 2]\n" + B, [1], A, id="non-object-line"),
    ],
)
def test_framing_rule(tmp_path, on_disk, kept, healed):
    path = tmp_path / "log.jsonl"
    if on_disk is not None:
        path.write_bytes(on_disk)
    with JsonlLog(path) as log:
        assert [record["n"] for record in log.records] == kept
    assert path.read_bytes() == healed
    with JsonlLog(path) as log:
        log.append([{"n": 3}])
    assert path.read_bytes() == healed + b'{"n": 3}\n'


# ---------------------------------------------------------------------------
# Status + manifest
# ---------------------------------------------------------------------------


class TestStatusAndManifest:
    def test_checkpoint_status(self, tmp_path):
        policy = CheckpointPolicy(path=tmp_path / "sweep.jsonl", experiment="sweep")
        with CheckpointJournal(policy) as journal:
            journal.open(config_digest="d", n_jobs=4)
            journal.append(job_key("d", 0, 0), _payload(0), index=0)
        statuses = checkpoint_status(tmp_path)
        assert len(statuses) == 1
        status = statuses[0]
        assert status.experiment == "sweep"
        assert status.n_recorded == 1 and status.n_jobs == 4
        assert status.percent_complete == pytest.approx(25.0)
        assert not status.complete

    def test_checkpoint_status_never_heals(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with CheckpointJournal(CheckpointPolicy(path=path)) as journal:
            journal.open(config_digest="d", n_jobs=4)
            journal.append(job_key("d", 0, 0), _payload(0), index=0)
            journal.append(job_key("d", 1, 1), _payload(1), index=1)
        torn = path.read_bytes()[:-25]
        path.write_bytes(torn)
        (status,) = checkpoint_status(tmp_path)
        assert status.n_recorded == 1
        assert path.read_bytes() == torn

    def test_status_percent_edge_cases(self):
        assert JournalStatus("p", "e", 0, 0).percent_complete == 0.0
        assert JournalStatus("p", "e", 2, 2).complete

    def test_manifest_round_trip(self, tmp_path):
        write_manifest(tmp_path, ["batch", "--synthetic", "3"])
        assert read_manifest(tmp_path) == ["batch", "--synthetic", "3"]

    def test_manifest_missing_or_corrupt(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            read_manifest(tmp_path)
        (tmp_path / "manifest.json").write_text("{broken")
        with pytest.raises(CheckpointError, match="unreadable"):
            read_manifest(tmp_path)

    def test_exit_resumable_is_distinct(self):
        assert EXIT_RESUMABLE not in (0, 1, 2)
