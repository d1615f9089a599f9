"""The drill catalogue: scripted failures, scored into one scorecard.

Every drill is a seeded function ``drill(seed=, workers=, checkpoint_dir=,
tracer=) → DrillOutcome(name, passed, details)``; :data:`DRILLS` lists
them in catalogue order and :func:`run_drills` runs any subset into the
scorecard ``roarray chaos --scenario NAME`` prints and CI archives.

The first five drills aim at the live service.  Each scripts one
production failure mode against a small deterministic workload and
asserts the resilience machinery actually engaged:

* ``baseline`` — the clean path through the supervisor: snapshots
  written, every client fixed, zero restarts.
* ``ap_blackout`` — one AP goes dark mid-stream; the service must keep
  fixing clients from the survivors and account for the outage.
* ``queue_storm`` — admission outruns solving; the backpressure ladder
  must escalate and every turned-away packet must carry a taxonomized
  reason (never an exception).
* ``corrupted_packets`` — one AP emits garbage CSI; the per-AP circuit
  breaker must trip so the flood stops costing validation work, while
  the remaining APs keep the fix stream alive.
* ``mid_stream_crash`` — the service is crashed twice mid-stream; the
  supervisor's restore-and-replay must deliver a fix journal
  *byte-identical* to an uninterrupted run (exactly-once recovery).

Service drills always run in a fresh temporary directory and ignore
``workers`` and ``checkpoint_dir``: a drill that restored an earlier
run's snapshot would replay nothing and fail.  The last three drills
(``nlos_single_ap``, ``nlos_majority``, ``ghost_multipath``) corrupt
the measurements themselves; see :mod:`repro.faults.nlos`.  They
journal their batches to ``checkpoint_dir`` and are worker-count
independent.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.grids import AngleGrid, DelayGrid
from repro.exceptions import ConfigurationError
from repro.faults.nlos import NLOS_SCENARIOS, run_nlos_drill
from repro.obs import NULL_TRACER, MetricsRegistry
from repro.serve.loadgen import LoadGenerator, Workload
from repro.serve.packets import REJECT_REASONS, CsiPacket
from repro.serve.resilience import ServiceSupervisor, SnapshotPolicy
from repro.serve.service import LocalizationService, ServeConfig

#: Scorecard format version.
SCORECARD_VERSION = 2

#: The service drills' workload (before the seed): 3 clients, 3 APs.
SERVE_WORKLOAD = dict(
    n_clients=3,
    duration_s=1.0,
    sample_interval_s=0.5,
    stationary_fraction=0.34,
    n_aps=3,
    band="high",
)
#: Supervisor snapshot cadence and restart budget of the service drills.
SNAPSHOT_EVERY = 8
MAX_RESTARTS = 4


@dataclass(frozen=True)
class DrillOutcome:
    """One drill's verdict plus the evidence behind it."""

    name: str
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


def _chaos_config(**overrides) -> ServeConfig:
    """The service drills' solver working point: small grids, tier-1 speed."""
    defaults = dict(
        batch_size=4,
        max_delay_s=0.01,
        window_packets=4,
        min_quorum=2,
        resolution_m=0.5,
        angle_grid=AngleGrid(n_points=61),
        delay_grid=DelayGrid(n_points=21),
        max_iterations=100,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _workload(seed: int, **overrides) -> Workload:
    return LoadGenerator(**{**SERVE_WORKLOAD, "seed": seed, **overrides}).generate()


def _factory(workload: Workload, config: ServeConfig):
    def build(clock) -> LocalizationService:
        return LocalizationService(
            workload.room,
            workload.access_points,
            array=workload.array,
            layout=workload.layout,
            config=config,
            clock=clock,
            metrics=MetricsRegistry(),
        )

    return build


def _supervised_run(
    workload: Workload, config: ServeConfig, workdir: Path, *, fault_hook=None
):
    policy = SnapshotPolicy(directory=workdir, every_packets=SNAPSHOT_EVERY)
    with ServiceSupervisor(
        _factory(workload, config), policy, max_restarts=MAX_RESTARTS
    ) as supervisor:
        result = supervisor.run(workload.packets, fault_hook=fault_hook)
        service = supervisor.service
    return result, service, policy


def _reject_counts(service: LocalizationService) -> dict[str, int]:
    counts = {}
    for reason in REJECT_REASONS:
        value = service.metrics.counter(f"serve.rejected.{reason}").value
        if value:
            counts[reason] = int(value)
    return counts


# ---------------------------------------------------------------------------
# Service drills: ``(seed, workdir) → DrillOutcome``
# ---------------------------------------------------------------------------


def _baseline(seed: int, workdir: Path) -> DrillOutcome:
    workload = _workload(seed)
    result, service, _ = _supervised_run(workload, _chaos_config(), workdir)
    fixed = {fix.client for fix in result.fixes}
    details = {
        "n_packets": len(workload.packets),
        "n_fixes": len(result.fixes),
        "clients_fixed": len(fixed),
        "clients_total": len(workload.clients),
        "n_snapshots": result.n_snapshots,
        "n_restarts": result.n_restarts,
    }
    passed = (
        fixed == set(workload.clients)
        and result.n_snapshots >= 1
        and result.n_restarts == 0
    )
    return DrillOutcome("baseline", passed, details)


def _ap_blackout(seed: int, workdir: Path) -> DrillOutcome:
    # The blackout AP simply stops transmitting for the middle of the
    # stream; the service must keep fixing from the survivors and its
    # health monitor must notice the silence.
    probe = _workload(seed)
    dark = probe.access_points[0].name
    start = SERVE_WORKLOAD["duration_s"] * 0.3
    end = SERVE_WORKLOAD["duration_s"] * 1.5
    workload = _workload(seed, outages={dark: (start, end)})
    config = _chaos_config(outage_after_s=SERVE_WORKLOAD["sample_interval_s"])
    result, service, _ = _supervised_run(workload, config, workdir)
    health = service.health.to_dict(service.latest_packet_time_s)
    details = {
        "dark_ap": dark,
        "outage_window_s": [start, end],
        "n_fixes": len(result.fixes),
        "clients_fixed": len({fix.client for fix in result.fixes}),
        "clients_total": len(workload.clients),
        "dark_ap_status": health[dark]["status"],
        "n_restarts": result.n_restarts,
    }
    passed = (
        len(result.fixes) > 0
        and health[dark]["status"] == "outage"
        and result.n_restarts == 0
    )
    return DrillOutcome("ap_blackout", passed, details)


def _queue_storm(seed: int, workdir: Path) -> DrillOutcome:
    # Admission outruns solving: a tiny pending bound and a storm of
    # submissions with no processing in between.  The ladder must
    # escalate and the overflow must become taxonomized rejects.
    workload = _workload(seed)
    distinct_keys = len({(p.client, p.ap) for p in workload.packets})
    max_pending = max(2, distinct_keys - 1)
    config = _chaos_config(
        batch_size=max_pending, max_delay_s=60.0, max_pending=max_pending
    )
    service = _factory(workload, config)(lambda: 0.0)
    reasons = []
    for packet in workload.packets:
        reason = service.submit(packet)
        if reason is not None:
            reasons.append(reason)
    fixes = service.drain()
    counts = _reject_counts(service)
    escalations = sum(
        int(service.metrics.counter(f"serve.backpressure.escalate.to_level_{n}").value)
        for n in (1, 2, 3)
    )
    details = {
        "max_pending": max_pending,
        "distinct_keys": distinct_keys,
        "reject_counts": counts,
        "backpressure_escalations": escalations,
        "final_level": service.backpressure.level,
        "n_fixes": len(fixes),
    }
    passed = (
        counts.get("queue_full", 0) > 0
        and escalations >= 1
        and all(reason in REJECT_REASONS for reason in reasons)
        and len(fixes) > 0
    )
    return DrillOutcome("queue_storm", passed, details)


def _corrupted_packets(seed: int, workdir: Path) -> DrillOutcome:
    # One AP floods garbage: every one of its packets arrives NaN-
    # poisoned.  Validation must reject them all, the breaker must trip
    # so the flood stops being inspected at all, and the surviving APs
    # must keep the fix stream alive.
    workload = _workload(seed)
    bad_ap = workload.access_points[0].name
    packets = []
    for packet in workload.packets:
        if packet.ap == bad_ap:
            poisoned = np.full_like(np.asarray(packet.csi), np.nan + 0j)
            packet = CsiPacket(
                client=packet.client,
                ap=packet.ap,
                time_s=packet.time_s,
                csi=poisoned,
                rssi_dbm=packet.rssi_dbm,
            )
        packets.append(packet)
    config = _chaos_config(breaker_failure_threshold=3, breaker_open_for_s=60.0)
    workload = replace(workload, packets=packets)
    result, service, _ = _supervised_run(workload, config, workdir)
    counts = _reject_counts(service)
    trips = int(service.metrics.counter("serve.breaker.trips").value)
    details = {
        "bad_ap": bad_ap,
        "reject_counts": counts,
        "breaker_trips": trips,
        "breaker_state": service.breakers.state(bad_ap),
        "n_fixes": len(result.fixes),
        "n_restarts": result.n_restarts,
    }
    passed = (
        counts.get("invalid_csi", 0) >= config.breaker_failure_threshold
        and trips >= 1
        and counts.get("breaker_open", 0) >= 1
        and len(result.fixes) > 0
        and result.n_restarts == 0
    )
    return DrillOutcome("corrupted_packets", passed, details)


def _mid_stream_crash(seed: int, workdir: Path) -> DrillOutcome:
    # The exactly-once drill: crash the service twice mid-stream and
    # demand the recovered fix journal match an uninterrupted run's
    # journal byte for byte.
    workload = _workload(seed)
    config = _chaos_config()
    steady_dir = workdir / "steady"
    crashy_dir = workdir / "crashy"
    steady_dir.mkdir(parents=True, exist_ok=True)
    crashy_dir.mkdir(parents=True, exist_ok=True)

    steady, _, steady_policy = _supervised_run(workload, config, steady_dir)

    n = len(workload.packets)
    crash_points = {max(1, n // 3), max(2, (2 * n) // 3)}
    armed = set(crash_points)

    def crash_hook(index: int) -> None:
        if index in armed:
            armed.discard(index)
            raise RuntimeError(f"chaos: injected crash before packet {index}")

    crashy, _, crashy_policy = _supervised_run(
        workload, config, crashy_dir, fault_hook=crash_hook
    )

    steady_bytes = steady_policy.fixes_path.read_bytes()
    crashy_bytes = crashy_policy.fixes_path.read_bytes()
    details = {
        "n_packets": n,
        "crash_points": sorted(crash_points),
        "n_restarts": crashy.n_restarts,
        "n_suppressed": crashy.n_suppressed,
        "steady_fixes": steady.n_delivered,
        "crashy_fixes": crashy.n_delivered,
        "journals_identical": steady_bytes == crashy_bytes,
    }
    passed = (
        steady_bytes == crashy_bytes
        and len(steady_bytes) > 0
        and crashy.n_restarts == len(crash_points)
    )
    return DrillOutcome("mid_stream_crash", passed, details)


def _in_fresh_dir(scenario):
    """A service drill with the catalogue signature, in a new temp dir."""

    def drill(*, seed, workers, checkpoint_dir, tracer) -> DrillOutcome:
        with tempfile.TemporaryDirectory(prefix="serve-drill-") as tmp:
            return scenario(seed, Path(tmp))

    return drill


#: The catalogue, in order: five service drills, then three NLOS drills.
DRILLS = {
    "baseline": _in_fresh_dir(_baseline),
    "ap_blackout": _in_fresh_dir(_ap_blackout),
    "queue_storm": _in_fresh_dir(_queue_storm),
    "corrupted_packets": _in_fresh_dir(_corrupted_packets),
    "mid_stream_crash": _in_fresh_dir(_mid_stream_crash),
    **{name: partial(run_nlos_drill, name) for name in NLOS_SCENARIOS},
}


def run_drills(
    names=None,
    *,
    seed: int = 0,
    workers: int = 0,
    checkpoint_dir=None,
    tracer=NULL_TRACER,
) -> dict:
    """Run the named drills (default: the whole catalogue) into a scorecard."""
    names = list(DRILLS) if names is None else list(names)
    unknown = [name for name in names if name not in DRILLS]
    if unknown:
        raise ConfigurationError(f"unknown drill(s) {unknown}; available: {list(DRILLS)}")
    outcomes = [
        DRILLS[name](seed=seed, workers=workers, checkpoint_dir=checkpoint_dir, tracer=tracer)
        for name in names
    ]
    return {
        "version": SCORECARD_VERSION,
        "passed": all(outcome.passed for outcome in outcomes),
        "n_scenarios": len(outcomes),
        "n_passed": sum(outcome.passed for outcome in outcomes),
        "seed": seed,
        "scenarios": [outcome.to_dict() for outcome in outcomes],
    }
