"""End-to-end tests for the streaming localization service."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.serve import (
    CsiPacket,
    LoadGenerator,
    LocalizationService,
    ManualClock,
    ServiceSupervisor,
    SnapshotPolicy,
)

from tests.serve.conftest import small_serve_config


def make_service(workload, config, **kwargs):
    return LocalizationService(
        workload.room,
        workload.access_points,
        array=workload.array,
        layout=workload.layout,
        config=config,
        **kwargs,
    )


def run_sync(service, packets):
    """Feed packets through the synchronous core and drain."""
    fixes = []
    for packet in packets:
        service.submit(packet)
        fixes.extend(service.process_due())
    fixes.extend(service.drain())
    return fixes


class TestEndToEnd:
    def test_every_client_gets_accurate_fixes(self, workload, serve_config):
        service = make_service(workload, serve_config)
        fixes = run_sync(service, workload.packets)
        fixed_clients = {fix.client for fix in fixes}
        assert fixed_clients == set(workload.clients)
        errors = [
            fix.error_to(workload.truth_position(fix.client, fix.time_s))
            for fix in fixes
        ]
        assert float(np.median(errors)) < 2.0
        # Solves actually batched (not per-packet).
        assert service.max_batch_observed >= serve_config.batch_size

    def test_supervised_run_summary(self, workload, serve_config, tmp_path):
        def factory(clock):
            return make_service(workload, serve_config, clock=clock)

        policy = SnapshotPolicy(directory=tmp_path, every_packets=0)
        with ServiceSupervisor(factory, policy) as supervisor:
            result = supervisor.run(workload.packets)
        service = supervisor.service
        metrics = service.metrics.to_dict()
        assert result.n_consumed == len(workload.packets)
        assert metrics["serve.packets_accepted"]["value"] == len(workload.packets)
        assert {fix.client for fix in result.fixes} == set(workload.clients)
        assert metrics["serve.fixes"]["value"] == len(result.fixes)
        assert metrics["serve.fix_latency_s"]["count"] == len(result.fixes)
        assert metrics["serve.estimate_age_s"]["count"] == len(result.fixes)
        assert all(fix.latency_s >= 0.0 for fix in result.fixes)
        assert sum(service.batch_triggers.values()) >= 1
        for health in service.health.to_dict(service.latest_packet_time_s).values():
            assert health["status"] == "healthy"

    def test_fix_latency_runs_from_the_newest_packet(self, workload):
        # Three APs' packets for one client, admitted at service-clock
        # 0.0, 0.1 and 0.2 and solved together at 0.5: the fix is 0.3 s
        # behind its newest packet and rests on a 0.5 s old estimate.
        clock = ManualClock()
        config = small_serve_config(batch_size=16, max_delay_s=10.0)
        service = make_service(workload, config, clock=clock)
        client = workload.packets[0].client
        first = [p for p in workload.packets if p.client == client][:3]
        assert len({packet.ap for packet in first}) == 3
        for admitted, packet in zip((0.0, 0.1, 0.2), first):
            clock.advance_to(admitted)
            assert service.submit(packet) is None
        assert service.process_due() == []
        clock.advance_to(0.5)
        (fix,) = service.drain()
        assert fix.latency_s == pytest.approx(0.3)
        metrics = service.metrics.to_dict()
        assert metrics["serve.fix_latency_s"]["max"] == pytest.approx(0.3)
        assert metrics["serve.estimate_age_s"]["max"] == pytest.approx(0.5)

    def test_warm_starts_hit_in_steady_state(self, workload, serve_config):
        # window_packets=1 pins every solve to width 1, so the second
        # solve of each (client, AP) pair warms from the first.
        config = small_serve_config(window_packets=1)
        service = make_service(workload, config)
        run_sync(service, workload.packets)
        assert service.warm_state.hits > 0
        assert len(service.warm_state) > 0

    def test_warm_start_does_not_change_which_clients_fix(self, workload):
        warm = make_service(workload, small_serve_config())
        cold = make_service(workload, small_serve_config(warm_start=False))
        warm_fixes = run_sync(warm, workload.packets)
        cold_fixes = run_sync(cold, workload.packets)
        assert {f.client for f in warm_fixes} == {f.client for f in cold_fixes}
        assert cold.warm_state.hits == cold.warm_state.misses == 0


class TestAdmissionControl:
    def test_unknown_ap_rejected(self, workload, serve_config):
        service = make_service(workload, serve_config)
        packet = workload.packets[0]
        bad = CsiPacket(
            client=packet.client, ap="ap-nowhere", time_s=packet.time_s, csi=packet.csi
        )
        assert service.submit(bad) == "unknown_ap"
        assert service.metrics.to_dict()["serve.rejected.unknown_ap"]["value"] == 1

    def test_invalid_csi_rejected_and_counted_against_ap(self, workload, serve_config):
        service = make_service(workload, serve_config)
        packet = workload.packets[0]
        wrong_shape = CsiPacket(
            client="c", ap=packet.ap, time_s=0.0, csi=np.ones((2, 5), dtype=complex)
        )
        assert service.submit(wrong_shape) == "invalid_csi"
        poisoned = np.array(packet.csi, copy=True)
        poisoned[0, 0] = np.nan
        assert (
            service.submit(
                CsiPacket(client="c", ap=packet.ap, time_s=0.0, csi=poisoned)
            )
            == "invalid_csi"
        )
        assert service.health.to_dict(0.0)[packet.ap]["failures"] == {"invalid_csi": 2}

    def test_stale_packet_rejected(self, workload, serve_config):
        service = make_service(workload, serve_config)
        packet = workload.packets[0]
        service.submit(
            CsiPacket(client="c", ap=packet.ap, time_s=10.0, csi=packet.csi)
        )
        late = CsiPacket(
            client="c",
            ap=packet.ap,
            time_s=10.0 - serve_config.window_s - 0.1,
            csi=packet.csi,
        )
        assert service.submit(late) == "stale"

    def test_queue_full_backpressure(self, workload):
        config = small_serve_config(batch_size=2, max_pending=2, max_delay_s=100.0)
        service = make_service(workload, config)
        template = workload.packets[0]
        for index in range(2):
            packet = CsiPacket(
                client=f"c{index}", ap=template.ap, time_s=0.0, csi=template.csi
            )
            assert service.submit(packet) is None
        overflow = CsiPacket(client="c9", ap=template.ap, time_s=0.0, csi=template.csi)
        assert service.submit(overflow) == "queue_full"

    def test_draining_rejects_new_packets(self, workload, serve_config):
        service = make_service(workload, serve_config)
        service.drain()
        assert service.submit(workload.packets[0]) == "draining"


class TestDegradedMode:
    @pytest.fixture(scope="class")
    def outage_result(self):
        generator = LoadGenerator(
            n_clients=3,
            duration_s=2.0,
            sample_interval_s=0.5,
            stationary_fraction=0.34,
            n_aps=3,
            band="high",
            seed=11,
            outages={"ap-east": (0.8, 10.0)},
        )
        workload = generator.generate()
        # Tight staleness bounds so the blackout surfaces within the
        # short stream: estimates older than 1 s leave fixes, and an AP
        # silent for 1 s is an outage.
        config = small_serve_config(outage_after_s=1.0, observation_max_age_s=1.0)
        service = LocalizationService(
            workload.room,
            workload.access_points,
            array=workload.array,
            layout=workload.layout,
            config=config,
        )
        fixes = []
        for packet in workload.packets:
            service.submit(packet)
            fixes.extend(service.process_due())
        fixes.extend(service.drain())
        return workload, service, fixes

    def test_mid_stream_outage_keeps_fixing_with_quorum(self, outage_result):
        workload, _, fixes = outage_result
        assert {fix.client for fix in fixes} == set(workload.clients)
        degraded = [fix for fix in fixes if fix.degraded]
        assert degraded, "outage never surfaced as a degraded fix"
        # Fixes after the blackout exclude the dead AP with its reason.
        late = [fix for fix in degraded if fix.time_s > 2.0]
        assert late
        assert any(
            dropped.name == "ap-east" and "outage" in dropped.reason
            for fix in late
            for dropped in fix.dropped_aps
        )

    def test_degraded_fixes_have_lowered_confidence(self, outage_result):
        _, _, fixes = outage_result
        # Confidence is bounded by the surviving-AP fraction: 2 of 3.
        for fix in fixes:
            if fix.degraded and len(fix.used_aps) == 2:
                assert fix.confidence <= 2.0 / 3.0 + 1e-9

    def test_outage_taxonomized_in_metrics_and_health(self, outage_result):
        workload, service, _ = outage_result
        metrics = service.metrics.to_dict()
        assert metrics["serve.dropped_ap.outage"]["value"] > 0
        assert metrics["serve.degraded_fixes"]["value"] > 0
        health = service.health.to_dict(service.latest_packet_time_s)
        assert health["ap-east"]["status"] == "outage"


class TestFailureHandling:
    def test_solver_failure_degrades_instead_of_crashing(
        self, workload, serve_config, monkeypatch
    ):
        service = make_service(workload, serve_config)

        def explode(*args, **kwargs):
            raise SolverError("backend fault")

        monkeypatch.setattr("repro.serve.service.solve_batch", explode)
        fixes = run_sync(service, workload.packets)
        assert fixes == []
        metrics = service.metrics.to_dict()
        assert metrics["serve.solve_failures"]["value"] > 0
        assert "serve.fixes" not in metrics
        health = service.health.to_dict(service.latest_packet_time_s)
        assert all(record["failures"].get("solver", 0) > 0 for record in health.values())
        assert all(record["status"] == "outage" for record in health.values())


class TestRobustMode:
    def test_robust_fixes_carry_trust_scores(self, workload):
        service = make_service(workload, small_serve_config(robust=True))
        fixes = run_sync(service, workload.packets)
        assert {fix.client for fix in fixes} == set(workload.clients)
        for fix in fixes:
            assert set(fix.trust) == set(fix.used_aps)
            assert all(0.0 <= value <= 1.0 for value in fix.trust.values())
        # Clean workload: nothing should look corrupted.
        assert not any(fix.contaminated for fix in fixes)
        errors = [
            fix.error_to(workload.truth_position(fix.client, fix.time_s))
            for fix in fixes
        ]
        assert float(np.median(errors)) < 2.0

    def test_robust_trust_feeds_health(self, workload):
        service = make_service(workload, small_serve_config(robust=True))
        run_sync(service, workload.packets)
        health = service.health.to_dict(max(p.time_s for p in workload.packets))
        for record in health.values():
            assert record["last_trust"] is not None
        assert service.metrics.histogram("serve.ap_trust").to_dict()["count"] > 0

    def test_robust_fix_to_dict_serializable(self, workload):
        import json

        service = make_service(workload, small_serve_config(robust=True))
        fixes = run_sync(service, workload.packets)
        payload = json.dumps([fix.to_dict() for fix in fixes])
        decoded = json.loads(payload)
        assert "trust" in decoded[0] and "contaminated" in decoded[0]

    def test_default_mode_has_no_trust(self, workload, serve_config):
        service = make_service(workload, serve_config)
        fixes = run_sync(service, workload.packets)
        assert all(fix.trust == {} for fix in fixes)
        assert all(not fix.contaminated for fix in fixes)

    def test_rejects_bad_trust_threshold(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="trust_threshold"):
            small_serve_config(robust=True, trust_threshold=0.0)
