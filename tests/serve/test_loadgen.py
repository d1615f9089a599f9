"""Tests for the streaming workload generator and its offline baseline."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.serve import LoadGenerator, Workload, median_fix_error_m, offline_reference

from tests.serve.conftest import small_serve_config


class TestGeneration:
    def test_deterministic_for_a_seed(self):
        a = LoadGenerator(n_clients=2, duration_s=0.5, n_aps=2, seed=3).generate()
        b = LoadGenerator(n_clients=2, duration_s=0.5, n_aps=2, seed=3).generate()
        assert len(a.packets) == len(b.packets)
        for pa, pb in zip(a.packets, b.packets):
            assert (pa.client, pa.ap, pa.time_s) == (pb.client, pb.ap, pb.time_s)
            np.testing.assert_array_equal(pa.csi, pb.csi)
        c = LoadGenerator(n_clients=2, duration_s=0.5, n_aps=2, seed=4).generate()
        assert any(
            not np.array_equal(pa.csi, pc.csi) for pa, pc in zip(a.packets, c.packets)
        )

    def test_one_packet_per_ap_per_sample(self):
        workload = LoadGenerator(
            n_clients=2, duration_s=1.0, sample_interval_s=0.5, n_aps=3, seed=0
        ).generate()
        # 2 clients × 3 samples (t=0, .5, 1) × 3 APs.
        assert len(workload.packets) == 2 * 3 * 3
        assert sorted({p.ap for p in workload.packets}) == sorted(
            ap.name for ap in workload.access_points
        )
        times = [p.time_s for p in workload.packets]
        assert times == sorted(times)

    def test_stationary_fraction_pins_clients(self):
        workload = LoadGenerator(
            n_clients=3, duration_s=1.0, stationary_fraction=1.0, n_aps=2, seed=1
        ).generate()
        for client in workload.clients:
            positions = {pos for _, pos in workload.truth[client]}
            assert len(positions) == 1

    def test_mobile_clients_move(self):
        workload = LoadGenerator(
            n_clients=2, duration_s=4.0, stationary_fraction=0.0, n_aps=2, seed=2
        ).generate()
        moved = [
            len({pos for _, pos in workload.truth[client]}) > 1
            for client in workload.clients
        ]
        assert any(moved)

    def test_outage_window_filters_packets(self):
        outages = {"ap-east": (0.4, 0.9)}
        workload = LoadGenerator(
            n_clients=2, duration_s=1.5, n_aps=2, seed=5, outages=outages
        ).generate()
        east = [p.time_s for p in workload.packets if p.ap == "ap-east"]
        assert east, "AP must still emit outside the window"
        assert not [t for t in east if 0.4 <= t < 0.9]
        west = [p.time_s for p in workload.packets if p.ap == "ap-west"]
        assert [t for t in west if 0.4 <= t < 0.9]

    def test_truth_position_nearest_sample(self):
        workload = LoadGenerator(n_clients=1, duration_s=1.0, n_aps=2, seed=6).generate()
        client = workload.clients[0]
        time_s, position = workload.truth[client][0]
        assert workload.truth_position(client, time_s) == position
        assert workload.truth_position(client, time_s + 0.01) == position
        with pytest.raises(ConfigurationError):
            workload.truth_position("nobody", 0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            LoadGenerator(n_clients=0)
        with pytest.raises(ConfigurationError):
            LoadGenerator(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            LoadGenerator(stationary_fraction=1.5)
        with pytest.raises(ConfigurationError):
            LoadGenerator(band="ultra")
        with pytest.raises(ConfigurationError):
            LoadGenerator(outages={"ap-mars": (0.0, 1.0)}).generate()


class TestPersistence:
    def test_npz_round_trip(self, tmp_path):
        original = LoadGenerator(n_clients=2, duration_s=0.5, n_aps=2, seed=9).generate()
        path = tmp_path / "workload.npz"
        original.save(path)
        loaded = Workload.load(path)
        assert loaded.clients == original.clients
        assert [ap.name for ap in loaded.access_points] == [
            ap.name for ap in original.access_points
        ]
        assert loaded.room.width == original.room.width
        assert loaded.array.n_antennas == original.array.n_antennas
        assert loaded.layout.n_subcarriers == original.layout.n_subcarriers
        assert len(loaded.packets) == len(original.packets)
        for pa, pb in zip(original.packets, loaded.packets):
            assert (pa.client, pa.ap, pa.time_s, pa.rssi_dbm) == (
                pb.client, pb.ap, pb.time_s, pb.rssi_dbm,
            )
            np.testing.assert_array_equal(pa.csi, pb.csi)
        assert loaded.truth == original.truth
        assert loaded.meta["seed"] == 9


class TestOfflineReference:
    def test_offline_reference_scores_near_truth(self, workload):
        fixes = offline_reference(workload, config=small_serve_config())
        assert {fix.client for fix in fixes} == set(workload.clients)
        assert median_fix_error_m(fixes, workload) < 2.0

    def test_median_error_requires_fixes(self, workload):
        with pytest.raises(ConfigurationError):
            median_fix_error_m([], workload)
