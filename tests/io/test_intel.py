"""Intel 5300 .dat parser/encoder tests.

The encoder and decoder are independent implementations of the bfee
bit packing; the round-trip tests exercise each against the other.
"""

import itertools
import json
import struct
import warnings

import numpy as np
import pytest

from repro.channel.trace import CsiTrace
from repro.cli import main
from repro.exceptions import IngestError
from repro.io.ingest import ingest_sources
from repro.io.intel import (
    BFEE_CODE,
    IDENTITY_ANTENNA_SEL,
    SM_2_20,
    SM_2_40,
    SM_3_20,
    read_bfee_records,
    read_intel_dat,
    remove_spatial_mapping,
    write_intel_dat,
)


def int8_stack(rng, shape):
    """Random integer CSI of ``shape`` that hits both int8 extremes."""
    csi = rng.integers(-128, 128, size=shape) + 1j * rng.integers(-128, 128, size=shape)
    csi.flat[0], csi.flat[-1] = -128 + 127j, 127 - 128j
    return csi


def concatenate_logs(path, *parts):
    """One ``.dat`` log holding the records of every part, in order."""
    path.write_bytes(b"".join(part.read_bytes() for part in parts))
    return path


class TestRoundTrip:
    @pytest.mark.parametrize("n_rx, n_tx", list(itertools.product((1, 2, 3), repeat=2)))
    def test_every_shape_round_trips(self, tmp_path, rng, n_rx, n_tx):
        csi = int8_stack(rng, (4, n_rx, n_tx, 30))
        path = write_intel_dat(tmp_path / "shape.dat", csi)
        records = read_bfee_records(path)
        assert [(r.n_rx, r.n_tx) for r in records] == [(n_rx, n_tx)] * 4
        np.testing.assert_array_equal(np.array([r.csi for r in records]), csi)
        assert all(type(r.timestamp_low) is int and type(r.rssi[0]) is int for r in records)

    def test_mixed_shapes_keep_file_order(self, tmp_path, rng):
        shapes = [(2, 3, 1, 30), (1, 2, 3, 30), (2, 3, 1, 30)]
        parts = [int8_stack(rng, shape) for shape in shapes]
        files = [write_intel_dat(tmp_path / f"part{k}.dat", part) for k, part in enumerate(parts)]
        records = read_bfee_records(concatenate_logs(tmp_path / "mixed.dat", *files))
        assert [(r.n_rx, r.n_tx) for r in records] == [(3, 1), (3, 1), (2, 3), (3, 1), (3, 1)]
        for record, expected in zip(records, [m for part in parts for m in part]):
            np.testing.assert_array_equal(record.csi, expected)
        with pytest.raises(IngestError, match="mixed antenna configurations"):
            read_intel_dat(tmp_path / "mixed.dat")

    def test_bit_exact(self, tmp_path, int8_csi):
        path = tmp_path / "capture.dat"
        write_intel_dat(path, int8_csi)
        records = read_bfee_records(path)
        assert len(records) == int8_csi.shape[0]
        for p, record in enumerate(records):
            assert record.n_rx == 3 and record.n_tx == 1
            np.testing.assert_array_equal(record.csi[:, 0, :], int8_csi[p])

    def test_multi_stream_round_trip(self, tmp_path, rng):
        csi = (
            rng.integers(-100, 100, size=(3, 3, 2, 30))
            + 1j * rng.integers(-100, 100, size=(3, 3, 2, 30))
        )
        path = tmp_path / "mimo.dat"
        write_intel_dat(path, csi)
        records = read_bfee_records(path)
        for p, record in enumerate(records):
            assert record.n_tx == 2
            np.testing.assert_array_equal(record.csi, csi[p])

    def test_metadata_round_trip(self, tmp_path, int8_csi):
        path = tmp_path / "meta.dat"
        timestamps = np.array([11, 22, 33, 44, 55], dtype=np.int64)
        write_intel_dat(
            path, int8_csi, timestamps_us=timestamps, rssi=(30, 31, 32), noise=-89, agc=35
        )
        records = read_bfee_records(path)
        assert [r.timestamp_low for r in records] == timestamps.tolist()
        assert records[0].rssi == (30, 31, 32)
        assert records[0].noise == -89
        assert records[0].agc == 35

    def test_rejects_non_integer_components(self, tmp_path, rng):
        csi = rng.standard_normal((2, 3, 30)) + 1j * rng.standard_normal((2, 3, 30))
        with pytest.raises(IngestError, match="integer-valued"):
            write_intel_dat(tmp_path / "bad.dat", csi)

    def test_rejects_out_of_range(self, tmp_path):
        csi = np.full((1, 3, 30), 200 + 0j)
        with pytest.raises(IngestError, match="int8"):
            write_intel_dat(tmp_path / "bad.dat", csi)


class TestStreamRobustness:
    def test_skips_non_bfee_records(self, tmp_path, int8_csi):
        path = tmp_path / "mixed.dat"
        write_intel_dat(path, int8_csi)
        raw = path.read_bytes()
        beacon = struct.pack(">H", 5) + bytes([0xC1, 1, 2, 3, 4])
        path.write_bytes(beacon + raw + beacon)
        records = read_bfee_records(path)
        assert len(records) == int8_csi.shape[0]

    def test_torn_tail_dropped_with_warning(self, tmp_path, int8_csi):
        path = tmp_path / "torn.dat"
        write_intel_dat(path, int8_csi)
        raw = path.read_bytes()
        path.write_bytes(raw[:-40])
        with pytest.warns(RuntimeWarning, match="torn final record"):
            records = read_bfee_records(path)
        assert len(records) == int8_csi.shape[0] - 1

    def test_empty_log_rejected(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_bytes(struct.pack(">H", 5) + bytes([0xC1, 1, 2, 3, 4]))
        with pytest.raises(IngestError, match="no bfee records"):
            read_bfee_records(path)

    def test_antenna_permutation_restored(self, tmp_path, int8_csi):
        identity = tmp_path / "identity.dat"
        rotated = tmp_path / "rotated.dat"
        write_intel_dat(identity, int8_csi, antenna_sel=IDENTITY_ANTENNA_SEL)
        # antenna_sel = (1, 2, 0): captured stream k holds physical
        # antenna perm[k], so the decoder must undo the rotation.
        write_intel_dat(rotated, int8_csi, antenna_sel=0b00_10_01)
        base = read_bfee_records(identity)[0].csi
        permuted = read_bfee_records(rotated)[0].csi
        np.testing.assert_array_equal(permuted[1], base[0])
        np.testing.assert_array_equal(permuted[2], base[1])
        np.testing.assert_array_equal(permuted[0], base[2])

    def test_per_record_antenna_sel(self, tmp_path, rng):
        csi = int8_stack(rng, (4, 3, 30))
        selections = [IDENTITY_ANTENNA_SEL, 0b00_10_01, 0b00_00_00, 0b01_00_10]
        files = [
            write_intel_dat(tmp_path / f"r{p}.dat", csi[p : p + 1], antenna_sel=sel)
            for p, sel in enumerate(selections)
        ]
        with pytest.warns(RuntimeWarning, match=r"invalid antenna_sel permutation \[0, 0, 0\]"):
            records = read_bfee_records(concatenate_logs(tmp_path / "sel.dat", *files))
        decoded = [record.csi[:, 0] for record in records]
        np.testing.assert_array_equal(decoded[0], csi[0])
        # (1, 2, 0): captured stream k holds physical antenna perm[k].
        np.testing.assert_array_equal(decoded[1], csi[1][[2, 0, 1]])
        # Not a permutation: warned above, captured order kept.
        np.testing.assert_array_equal(decoded[2], csi[2])
        # (2, 0, 1)
        np.testing.assert_array_equal(decoded[3], csi[3][[1, 2, 0]])


class TestScaling:
    def test_scaled_csi_matches_reference_formula(self, tmp_path, int8_csi):
        path = tmp_path / "scaled.dat"
        write_intel_dat(path, int8_csi, rssi=(33, 33, 33), noise=-92, agc=30)
        record = read_bfee_records(path)[0]
        csi = record.csi.astype(complex)
        csi_pwr = float(np.sum(np.abs(csi) ** 2))
        rssi_pwr = 10 ** (record.rssi_dbm / 10)
        scale = rssi_pwr / (csi_pwr / 30.0)
        total_noise = 10 ** (record.noise_dbm / 10) + scale * 3 * 1
        np.testing.assert_allclose(
            record.scaled_csi(), csi * np.sqrt(scale / total_noise), rtol=1e-12
        )

    def test_scaling_preserves_phase(self, tmp_path, int8_csi):
        path = tmp_path / "phase.dat"
        write_intel_dat(path, int8_csi)
        record = read_bfee_records(path)[0]
        raw = record.csi.astype(complex)
        nonzero = raw != 0
        np.testing.assert_allclose(
            np.angle(record.scaled_csi()[nonzero]), np.angle(raw[nonzero]), atol=1e-12
        )

    def test_noise_sentinel_maps_to_minus_92(self, tmp_path, int8_csi):
        path = tmp_path / "sentinel.dat"
        write_intel_dat(path, int8_csi, noise=-127)
        assert read_bfee_records(path)[0].noise_dbm == -92.0

    def test_trace_snr_reflects_fields(self, tmp_path, int8_csi):
        path = tmp_path / "snr.dat"
        write_intel_dat(path, int8_csi, rssi=(33, 33, 33), noise=-92, agc=30)
        trace = read_intel_dat(path)
        expected = (33 + 10 * np.log10(3)) - 44 - 30 - (-92)
        assert trace.snr_db == pytest.approx(expected, abs=1e-9)
        assert trace.source_format == "intel-dat"
        assert trace.capture_times_s.shape == (int8_csi.shape[0],)

    def test_unmeasured_rssi_record_does_not_poison_the_capture(self, tmp_path, capsys, rng):
        csi = int8_stack(rng, (20, 3, 30))
        good = write_intel_dat(tmp_path / "good.dat", csi[:19], rssi=(33, 33, 33))
        dead = write_intel_dat(tmp_path / "dead.dat", csi[19:], rssi=(0, 0, 0))
        capture = concatenate_logs(tmp_path / "capture.dat", good, dead)
        expected = read_intel_dat(good).snr_db
        assert read_intel_dat(capture).snr_db == expected

        [record] = ingest_sources([capture], out_dir=tmp_path / "out").records
        gate = record.stage_reports[-1]
        assert record.n_packets == 19 and gate["metrics"]["n_quarantined"] == 1.0
        assert record.snr_db == expected
        assert CsiTrace.load(record.output_path).snr_db == expected

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        assert main(["ingest", str(capture), "--out", str(tmp_path / "cli"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["records"][0]["snr_db"] == expected

    def test_no_measured_rssi_means_unknown_snr(self, tmp_path, int8_csi):
        path = write_intel_dat(tmp_path / "dark.dat", int8_csi, rssi=(0, 0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = read_intel_dat(path)
        assert np.isnan(trace.snr_db) and np.isnan(trace.rssi_dbm)


class TestSpatialMapping:
    @pytest.mark.parametrize(
        "q, n_tx, bandwidth",
        [(SM_2_20, 2, 20), (SM_2_40, 2, 40), (SM_3_20, 3, 20)],
    )
    def test_matrices_are_unitary(self, q, n_tx, bandwidth):
        np.testing.assert_allclose(q @ q.conj().T, np.eye(n_tx), atol=1e-12)

    @pytest.mark.parametrize(
        "q, n_tx, bandwidth",
        [(SM_2_20, 2, 20), (SM_2_40, 2, 40), (SM_3_20, 3, 20)],
    )
    def test_removal_inverts_mapping(self, rng, q, n_tx, bandwidth):
        channel = rng.standard_normal((3, 30, n_tx)) + 1j * rng.standard_normal((3, 30, n_tx))
        measured = channel @ q.T
        recovered = remove_spatial_mapping(measured, n_tx, bandwidth_mhz=bandwidth)
        np.testing.assert_allclose(recovered, channel, atol=1e-10)

    def test_three_stream_40mhz_warns_and_passes_through(self, rng):
        measured = rng.standard_normal((3, 30, 3)) + 0j
        with pytest.warns(RuntimeWarning, match="no spatial-mapping matrix"):
            out = remove_spatial_mapping(measured, 3, bandwidth_mhz=40)
        np.testing.assert_array_equal(out, measured)

    def test_single_stream_passthrough(self, rng):
        measured = rng.standard_normal((3, 30, 1)) + 0j
        assert remove_spatial_mapping(measured, 1, bandwidth_mhz=20) is measured


class TestFixtures:
    def test_committed_captures_parse(self, fixture_dir):
        for name in ("ap_west.dat", "ap_east.dat", "ap_south_1.dat"):
            trace = read_intel_dat(fixture_dir / name)
            assert trace.n_packets == 8
            assert (trace.n_antennas, trace.n_subcarriers) == (3, 30)
            assert np.all(np.isfinite(trace.csi))
            assert trace.snr_db == pytest.approx(22.0, abs=0.5)
