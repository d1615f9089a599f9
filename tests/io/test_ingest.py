"""Bulk ingestion: artifacts, failure tolerance, checkpoint replay."""

import json

import numpy as np
import pytest

from repro.channel.trace import CsiTrace
from repro.io.ingest import IngestRecord, ingest_sources
from repro.io.intel import write_intel_dat
from repro.io.registry import DatasetRegistry


class TestHappyPath:
    def test_dat_source_produces_artifact(self, tmp_path, int8_csi):
        capture = tmp_path / "west.dat"
        write_intel_dat(capture, int8_csi)
        result = ingest_sources([capture], out_dir=tmp_path / "out")
        assert result.ok and result.n_failed == 0
        [record] = result.records
        assert record.source_format == "intel-dat"
        assert record.n_packets == int8_csi.shape[0]
        # The artifact is the *cleaned* trace, reloadable as npz.
        reloaded = CsiTrace.load(record.output_path)
        assert reloaded.n_antennas == 3
        assert record.calibration is not None
        assert [r["stage"] for r in record.stage_reports] == [
            "sto-removal",
            "quarantine-gate",
        ]

    def test_synthetic_source_fans_out(self, tmp_path):
        result = ingest_sources(
            ["synthetic://random?n=3&packets=4&seed=1"], out_dir=tmp_path / "out"
        )
        assert [r.label for r in result.records] == [
            "synthetic[0]",
            "synthetic[1]",
            "synthetic[2]",
        ]
        assert result.ok

    def test_no_out_dir_skips_writing(self, tmp_path, int8_csi):
        capture = tmp_path / "west.dat"
        write_intel_dat(capture, int8_csi)
        [record] = ingest_sources([capture]).records
        assert record.ok and record.output_path is None


class TestRecordSerialisation:
    @pytest.fixture
    def record(self, tmp_path, rng):
        shape = (400, 3, 30)
        csi = rng.integers(-128, 128, size=shape) + 1j * rng.integers(-128, 128, size=shape)
        capture = write_intel_dat(tmp_path / "long.dat", csi)
        [record] = ingest_sources([capture], out_dir=tmp_path / "out").records
        assert record.ok and record.n_packets == 400
        return record

    def test_per_packet_series_are_arrays_in_memory(self, record):
        sto = record.stage_reports[0]
        assert sto["stage"] == "sto-removal"
        series = [
            sto["details"]["slopes_rad"],
            sto["details"]["delays_ns"],
            record.calibration["relative_delays_s"],
        ]
        for values in series:
            assert isinstance(values, np.ndarray)
            assert values.dtype == np.float64 and values.shape == (400,)

    def test_to_dict_is_strict_json_and_round_trips(self, record):
        payload = record.to_dict()
        text = json.dumps(payload, allow_nan=False)
        assert json.loads(text) == payload
        assert isinstance(payload["stage_reports"][0]["details"]["slopes_rad"], list)
        assert isinstance(payload["calibration"]["relative_delays_s"], list)
        assert IngestRecord.from_dict(payload).to_dict() == payload
        # to_dict copies: the record keeps its arrays.
        assert isinstance(record.calibration["relative_delays_s"], np.ndarray)


class TestFailureTolerance:
    @pytest.mark.filterwarnings("ignore:dropping torn final record")
    def test_bad_source_fails_run_continues(self, tmp_path, int8_csi):
        good = tmp_path / "good.dat"
        write_intel_dat(good, int8_csi)
        bad = tmp_path / "bad.dat"
        bad.write_bytes(b"definitely not a bfee log")
        result = ingest_sources([bad, good], out_dir=tmp_path / "out")
        assert not result.ok and result.n_failed == 1
        assert not result.records[0].ok
        assert "IngestError" in result.records[0].error
        assert result.records[1].ok

    def test_shape_gate_fails_wrong_capture(self, tmp_path, int8_csi):
        capture = tmp_path / "west.dat"
        write_intel_dat(capture, int8_csi)
        result = ingest_sources([capture], expected_shape=(2, 56))
        assert not result.ok
        assert "shape_mismatch" in result.records[0].error

    @pytest.mark.filterwarnings("ignore:dropping torn final record")
    def test_failures_carry_source_and_fault_kind(self, tmp_path):
        bad = tmp_path / "bad.dat"
        bad.write_bytes(b"definitely not a bfee log")
        [record] = ingest_sources([bad]).records
        assert not record.ok
        assert record.source == str(bad)
        assert record.error_kind == "empty"
        assert record.to_dict()["error_kind"] == "empty"

    @pytest.mark.filterwarnings("ignore:dropping torn final record")
    def test_failure_summary_dedupes_same_defect(self, tmp_path, int8_csi):
        # Three captures broken the same way, one broken differently,
        # one fine: the summary tells two stories, not four.
        same_defect = []
        for name in ("a", "b", "c"):
            bad = tmp_path / f"{name}.dat"
            bad.write_bytes(b"not a bfee log either")
            same_defect.append(bad)
        missing = tmp_path / "gone.dat"
        good = tmp_path / "good.dat"
        write_intel_dat(good, int8_csi)
        result = ingest_sources([*same_defect, missing, good])
        summary = result.failure_summary()
        assert [entry["count"] for entry in summary] == [3, 1]
        assert summary[0]["error_kind"] == "empty"
        assert summary[1]["error_kind"] == "unresolved"
        # Per-path prose is masked so one defect groups across files,
        # but the offending sources are still listed.
        assert "<source>" in summary[0]["error"]
        assert summary[0]["sources"] == [str(path) for path in same_defect]


class TestRegistration:
    def test_register_prefix_lands_in_manifest(self, tmp_path, int8_csi):
        capture = tmp_path / "west.dat"
        write_intel_dat(capture, int8_csi)
        registry = DatasetRegistry(tmp_path / "data")
        result = ingest_sources(
            [capture],
            out_dir=tmp_path / "data" / "traces",
            registry=registry,
            register_prefix="lab/",
        )
        [record] = result.records
        assert record.dataset == "lab/west"
        # Manifest was saved; a fresh registry can load the artifact.
        reloaded = DatasetRegistry(tmp_path / "data")
        trace = reloaded.load_trace("lab/west")
        assert trace.n_packets == int8_csi.shape[0]


class TestCheckpoint:
    def test_rerun_replays_finished_sources(self, tmp_path, int8_csi):
        capture = tmp_path / "west.dat"
        write_intel_dat(capture, int8_csi)
        sources = [str(capture), "synthetic://random?n=2&packets=3&seed=5"]
        first = ingest_sources(
            sources, out_dir=tmp_path / "out", checkpoint_dir=tmp_path / "ckpt"
        )
        assert first.n_replayed == 0
        second = ingest_sources(
            sources, out_dir=tmp_path / "out", checkpoint_dir=tmp_path / "ckpt"
        )
        assert second.n_replayed == len(sources)
        assert [r.to_dict() for r in second.records] == [
            r.to_dict() for r in first.records
        ]

    def test_config_change_refuses_stale_journal(self, tmp_path, int8_csi):
        from repro.exceptions import CheckpointError

        capture = tmp_path / "west.dat"
        write_intel_dat(capture, int8_csi)
        ingest_sources([capture], checkpoint_dir=tmp_path / "ckpt")
        # A different configuration must not silently mix with the old
        # journal — the runtime refuses, same as batch experiments.
        with pytest.raises(CheckpointError, match="different experiment"):
            ingest_sources([capture], calibrate=False, checkpoint_dir=tmp_path / "ckpt")
