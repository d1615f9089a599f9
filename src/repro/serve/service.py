"""The streaming localization service (``repro.serve``).

:class:`LocalizationService` is the long-lived, asyncio-hosted
deployment shape of the paper's pipeline: per-AP CSI packet streams in,
per-client :class:`~repro.serve.packets.PositionFix` streams out.

Dataflow::

    CsiPacket ──admission──> ClientSession window ──┐
                                                    │ SolveRequest
                   MicroBatcher (size / deadline) <─┘
                          │  MicroBatch
                          ▼
        solve_batch(method="mmv", warm_state=, warm_keys=)
                          │  per-(client, AP) joint spectrum
                          ▼
        direct-path AoA → localize_robust → KalmanTracker → PositionFix

The synchronous core (:meth:`~LocalizationService.submit`,
:meth:`~LocalizationService.process_due`, :meth:`~LocalizationService.drain`)
takes all times explicitly from the injected clock, so tests drive it
deterministically; :meth:`~LocalizationService.run` is the asyncio host
loop that pumps an async packet source through it.

Warm starts are first-class state here: one service-level
:class:`~repro.optim.warm.WarmStartState` keyed ``"<client>:<ap>"``
carries each pair's previous solution into its next micro-batch via
``solve_batch(warm_state=, warm_keys=)``, and
:meth:`~LocalizationService.save_warm_state` /
:meth:`~LocalizationService.load_warm_state` snapshot it across
restarts.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.channel.array import UniformLinearArray
from repro.channel.geometry import AccessPoint, Room
from repro.channel.ofdm import SubcarrierLayout, intel5300_layout
from repro.core.direct_path import identify_direct_path
from repro.core.grids import AngleGrid, DelayGrid
from repro.core.joint import coefficients_to_joint_power
from repro.core.localization import (
    TRUST_THRESHOLD,
    ApObservation,
    DroppedAp,
    localize_consensus,
    localize_robust,
)
from repro.core.steering import SteeringCache, vectorize_csi_matrix
from repro.exceptions import ConfigurationError, QuorumError, ServiceError, SolverError
from repro.obs import NULL_TRACER, MetricsRegistry
from repro.optim.batch import solve_batch
from repro.optim.warm import WarmStartState
from repro.serve.backpressure import BackpressureController, BackpressurePolicy
from repro.serve.batcher import MicroBatch, MicroBatcher, SolveRequest
from repro.serve.breaker import BreakerBoard
from repro.serve.codec import decode_array, encode_array
from repro.serve.health import ApHealthMonitor
from repro.serve.packets import CsiPacket, PositionFix, RejectedPacket
from repro.serve.session import ClientSession
from repro.spectral.spectrum import JointSpectrum


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the streaming service.

    The solver knobs (grids, κ fraction, iteration cap, peak picking)
    mirror :class:`~repro.core.config.RoArrayConfig`; the rest shape
    the streaming behavior — micro-batch triggers, sliding windows,
    admission control and health thresholds.
    """

    #: Micro-batch size trigger (and the MMV batch width cap).
    batch_size: int = 16
    #: Micro-batch deadline trigger, on the service clock (seconds).
    max_delay_s: float = 0.05
    #: Bound on distinct pending (client, AP) solves — backpressure.
    max_pending: int = 4096
    #: Sliding window depth per (client, AP): packets and seconds.
    window_packets: int = 4
    window_s: float = 2.0
    #: AoA estimates older than this (packet time) drop out of fixes.
    observation_max_age_s: float = 2.0
    #: Minimum surviving APs for a fix (below → no fix, counted).
    min_quorum: int = 2
    #: Localization grid pitch in meters.
    resolution_m: float = 0.25
    #: AP health thresholds (packet staleness / consecutive failures).
    outage_after_s: float = 2.0
    failure_threshold: int = 3
    #: Per-AP circuit breaker: consecutive failures to trip, packet-time
    #: cool-down while open, and probes admitted half-open.  The breaker
    #: trips *after* health degrades (default 5 > failure_threshold 3)
    #: so dashboards see the AP flap before its packets stop costing
    #: solver budget.
    breaker_failure_threshold: int = 5
    breaker_open_for_s: float = 1.0
    breaker_half_open_probes: int = 1
    #: NLOS/corruption-aware fixes: localize by AP consensus, score
    #: per-AP trust, and demote persistently-untrusted APs in health.
    robust: bool = False
    #: Trust below this marks an AP untrusted (consensus exclusion and
    #: health demotion); only meaningful with ``robust=True``.
    trust_threshold: float = TRUST_THRESHOLD
    #: Adaptive-backpressure degradation ladder (queue watermarks).
    backpressure: BackpressurePolicy = field(default_factory=BackpressurePolicy)
    #: Chain per-(client, AP) solutions across micro-batches.
    warm_start: bool = True
    #: Sparse-solve working point.
    angle_grid: AngleGrid = field(default_factory=lambda: AngleGrid(n_points=91))
    delay_grid: DelayGrid = field(default_factory=lambda: DelayGrid(n_points=50))
    kappa_fraction: float = 0.15
    max_iterations: int = 150
    max_paths: int = 6
    peak_floor: float = 0.3

    def __post_init__(self) -> None:
        if self.window_s <= 0 or self.observation_max_age_s <= 0:
            raise ConfigurationError("window_s and observation_max_age_s must be positive")
        if self.resolution_m <= 0:
            raise ConfigurationError(f"resolution_m must be positive, got {self.resolution_m}")
        if not 0 < self.kappa_fraction < 1:
            raise ConfigurationError(
                f"kappa_fraction must be in (0, 1), got {self.kappa_fraction}"
            )
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if not 0 < self.trust_threshold <= 1:
            raise ConfigurationError(
                f"trust_threshold must be in (0, 1], got {self.trust_threshold}"
            )


@dataclass(frozen=True)
class ServeResult:
    """Summary of one service run."""

    fixes: tuple[PositionFix, ...]
    rejected: tuple[RejectedPacket, ...]
    n_packets: int
    n_accepted: int
    wall_seconds: float
    max_batch_observed: int
    batch_triggers: dict[str, int]
    warm: dict
    metrics: dict
    health: dict
    breakers: dict = field(default_factory=dict)
    backpressure: dict = field(default_factory=dict)

    @property
    def n_fixes(self) -> int:
        return len(self.fixes)

    @property
    def fixes_per_second(self) -> float:
        return self.n_fixes / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def fix_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for fix in self.fixes:
            counts[fix.client] = counts.get(fix.client, 0) + 1
        return counts

    @property
    def reject_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for packet in self.rejected:
            counts[packet.reason] = counts.get(packet.reason, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "n_packets": self.n_packets,
            "n_accepted": self.n_accepted,
            "n_fixes": self.n_fixes,
            "fixes_per_second": self.fixes_per_second,
            "wall_seconds": self.wall_seconds,
            "max_batch_observed": self.max_batch_observed,
            "batch_triggers": dict(self.batch_triggers),
            "fix_counts": dict(sorted(self.fix_counts.items())),
            "reject_counts": dict(sorted(self.reject_counts.items())),
            "warm": self.warm,
            "fixes": [fix.to_dict() for fix in self.fixes],
            "rejected": [packet.to_dict() for packet in self.rejected],
            "metrics": self.metrics,
            "health": self.health,
            "breakers": self.breakers,
            "backpressure": self.backpressure,
        }


class LocalizationService:
    """Long-lived multi-client localization over streaming CSI.

    Parameters
    ----------
    room / access_points:
        The deployment geometry.  Packets from APs not registered here
        are rejected (``"unknown_ap"``).
    array / layout:
        Receiver hardware model shared by every AP; packet CSI must
        match its ``(antennas, subcarriers)`` shape.
    config:
        :class:`ServeConfig` streaming and solver tunables.
    tracer / metrics:
        Optional :class:`~repro.obs.Tracer` and
        :class:`~repro.obs.MetricsRegistry`; defaults are the no-op
        tracer and a fresh registry.
    clock:
        Monotonic-seconds callable for micro-batch deadlines and
        latency accounting (packet ``time_s`` stays the deployment's
        own clock).  Injected for deterministic tests.
    """

    def __init__(
        self,
        room: Room,
        access_points: list[AccessPoint],
        *,
        array: UniformLinearArray | None = None,
        layout: SubcarrierLayout | None = None,
        config: ServeConfig | None = None,
        tracer=NULL_TRACER,
        metrics: MetricsRegistry | None = None,
        clock=time.monotonic,
    ) -> None:
        if not access_points:
            raise ConfigurationError("service needs at least one access point")
        names = [ap.name for ap in access_points]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate AP names: {names}")
        self.room = room
        self.access_points = {ap.name: ap for ap in access_points}
        self.array = array or UniformLinearArray()
        self.layout = layout or intel5300_layout()
        self.config = config or ServeConfig()
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = clock

        self.cache = SteeringCache(
            self.array, self.layout, self.config.angle_grid, self.config.delay_grid
        )
        self.warm_state = WarmStartState()
        self.health = ApHealthMonitor(
            names,
            outage_after_s=self.config.outage_after_s,
            failure_threshold=self.config.failure_threshold,
            trust_threshold=self.config.trust_threshold,
            metrics=self.metrics,
        )
        self.breakers = BreakerBoard(
            names,
            failure_threshold=self.config.breaker_failure_threshold,
            open_for_s=self.config.breaker_open_for_s,
            half_open_probes=self.config.breaker_half_open_probes,
            metrics=self.metrics,
        )
        self.backpressure = BackpressureController(
            self.config.backpressure,
            max_pending=self.config.max_pending,
            metrics=self.metrics,
        )
        self.sessions: dict[str, ClientSession] = {}
        self._batcher = MicroBatcher(
            batch_size=self.config.batch_size,
            max_delay_s=self.config.max_delay_s,
            max_pending=self.config.max_pending,
        )
        self._dirty: set[str] = set()
        # Snapshot encode cache for warm slots, keyed by the slot's
        # array object identity.  Safe because WarmStartState.put always
        # rebinds a fresh copy (an unchanged identity means unchanged
        # bytes), and the solver never mutates a stored slot in place
        # (warm seeds are copied into the stacked x0).
        self._warm_encode_cache: dict[str, tuple] = {}
        self._draining = False
        self._running = False
        self.max_batch_observed = 0
        self.batch_triggers: dict[str, int] = {}
        #: Newest packet time seen — the service's view of "now" on the
        #: deployment clock, which drives health staleness.
        self.latest_packet_time_s = 0.0

    # -- admission control ---------------------------------------------------

    def submit(self, packet: CsiPacket) -> str | None:
        """Admit one packet; returns ``None`` or the reject reason."""
        reason = self._admit(packet)
        if reason is None:
            self.metrics.counter("serve.packets_accepted").inc()
        else:
            self.metrics.counter(f"serve.rejected.{reason}").inc()
        return reason

    def _admit(self, packet: CsiPacket) -> str | None:
        if self._draining:
            return "draining"
        if packet.ap not in self.access_points:
            return "unknown_ap"
        # A tripped breaker rejects before validation or any window
        # work: a flapping AP's packets must not consume solver budget
        # — or even the cost of looking at them.
        if not self.breakers.allow(packet.ap, packet.time_s):
            return "breaker_open"
        csi = np.asarray(packet.csi)
        expected = (self.array.n_antennas, self.layout.n_subcarriers)
        if csi.shape != expected or not np.all(np.isfinite(csi)):
            self.health.record_failure(packet.ap, "invalid_csi", packet.time_s)
            self.breakers.record_failure(packet.ap, packet.time_s)
            return "invalid_csi"

        level = self.backpressure.update(self._batcher.pending)
        session = self.sessions.get(packet.client)
        if session is None:
            session = ClientSession(
                packet.client,
                window_packets=self.config.window_packets,
                window_s=self.config.window_s,
            )
            self.sessions[packet.client] = session
        elif packet.time_s < session.latest_time_s - self.config.window_s:
            # Older than anything the window could still hold.
            return "stale"
        elif level >= 3:
            # Ladder step 3: under heavy overload, shed stale data
            # first — packets well behind the session clock are the
            # cheapest accuracy to give up.
            horizon = self.backpressure.shed_horizon_s(self.config.window_s)
            if horizon is not None and packet.time_s < session.latest_time_s - horizon:
                return "shed_stale"

        now = self.clock()
        session.add_packet(packet.ap, packet.time_s, vectorize_csi_matrix(csi))
        snapshots = session.snapshots(packet.ap)
        # Ladder step 1: shrink the MMV window (keep the newest
        # columns) so each joint solve gets cheaper under load.
        cap = self.backpressure.window_cap(self.config.window_packets)
        if snapshots.shape[1] > cap:
            snapshots = snapshots[:, -cap:]
        request = SolveRequest(
            key=f"{packet.client}:{packet.ap}",
            client=packet.client,
            ap=packet.ap,
            snapshots=snapshots,
            packet_time_s=packet.time_s,
            rssi_dbm=packet.rssi_dbm,
            enqueued_at=now,
        )
        if not self._batcher.offer(request, now):
            return "queue_full"
        self.health.record_packet(packet.ap, packet.time_s)
        if packet.time_s > self.latest_packet_time_s:
            self.latest_packet_time_s = float(packet.time_s)
        return None

    # -- solving -------------------------------------------------------------

    @property
    def pending(self) -> int:
        return self._batcher.pending

    def process_due(self) -> list[PositionFix]:
        """Solve every due micro-batch and fix the affected clients."""
        now = self.clock()
        processed = False
        while (batch := self._batcher.poll(now)) is not None:
            self._process_batch(batch)
            processed = True
            now = self.clock()
        return self._fix_dirty_clients(now) if processed else []

    def drain(self) -> list[PositionFix]:
        """Stop admitting, flush everything pending, emit final fixes."""
        self._draining = True
        for batch in self._batcher.flush():
            self._process_batch(batch)
        return self._fix_dirty_clients(self.clock())

    def _process_batch(self, batch: MicroBatch) -> None:
        """One micro-batch → grouped MMV solves → per-AP estimates."""
        self.max_batch_observed = max(self.max_batch_observed, len(batch))
        self.batch_triggers[batch.trigger] = self.batch_triggers.get(batch.trigger, 0) + 1
        self.metrics.histogram("serve.batch_size").observe(len(batch))
        # solve_batch requires one shared problem shape; windows grow
        # from 1 to window_packets snapshots, so group by width.
        by_width: dict[int, list[SolveRequest]] = {}
        for request in batch.requests:
            by_width.setdefault(request.width, []).append(request)
        # Ladder step 2: cap the solve-group width under load so one
        # giant matmul cannot hold the event loop for a full batch.
        group_cap = self.backpressure.batch_cap(self.config.batch_size)
        with self.tracer.span(
            "serve.micro_batch", size=len(batch), trigger=batch.trigger
        ):
            for width, requests in sorted(by_width.items()):
                for start in range(0, len(requests), group_cap):
                    self._solve_group(width, requests[start : start + group_cap])

    def _solve_group(self, width: int, requests: list[SolveRequest]) -> None:
        warm = self.config.warm_start
        try:
            with self.tracer.span("serve.solve", width=width, n_problems=len(requests)):
                result = solve_batch(
                    self.cache.joint_operator,
                    [request.snapshots for request in requests],
                    "mmv",
                    kappa_fraction=self.config.kappa_fraction,
                    warm_state=self.warm_state if warm else None,
                    warm_keys=[request.key for request in requests] if warm else None,
                    max_iterations=self.config.max_iterations,
                    lipschitz=self.cache.joint_lipschitz,
                )
        except SolverError as error:
            # The whole group failed (bad conditioning, numerical fault):
            # taxonomize per AP and keep serving the other groups.
            self.metrics.counter("serve.solve_failures").inc(len(requests))
            for request in requests:
                self.health.record_failure(request.ap, "solver", request.packet_time_s)
                self.breakers.record_failure(request.ap, request.packet_time_s)
            with self.tracer.span("serve.solve_failure", error=str(error)):
                pass
            return

        solutions = result.to_numpy()
        n_angles = self.config.angle_grid.n_points
        n_toas = self.config.delay_grid.n_points
        for index, request in enumerate(requests):
            power = coefficients_to_joint_power(solutions[index], n_angles, n_toas)
            spectrum = JointSpectrum(
                self.config.angle_grid.angles_deg, self.config.delay_grid.toas_s, power
            )
            direct = identify_direct_path(
                spectrum, max_paths=self.config.max_paths, peak_floor=self.config.peak_floor
            )
            session = self.sessions[request.client]
            session.record_estimate(
                request.ap,
                request.packet_time_s,
                direct.aoa_deg,
                request.rssi_dbm,
                request.enqueued_at,
            )
            self.health.record_success(request.ap, request.packet_time_s)
            self.breakers.record_success(request.ap, request.packet_time_s)
            self._dirty.add(request.client)
        self.metrics.counter("serve.solves").inc(len(requests))

    # -- fixes ---------------------------------------------------------------

    def _fix_dirty_clients(self, now: float) -> list[PositionFix]:
        fixes = []
        for client in sorted(self._dirty):
            fix = self._fix_client(self.sessions[client], now)
            if fix is not None:
                fixes.append(fix)
        self._dirty.clear()
        return fixes

    def _fix_client(self, session: ClientSession, now: float) -> PositionFix | None:
        fresh = session.fresh_estimates(max_age_s=self.config.observation_max_age_s)
        observations = [
            ApObservation(
                access_point=self.access_points[ap],
                aoa_deg=estimate.aoa_deg,
                rssi_dbm=estimate.rssi_dbm,
            )
            for ap, estimate in fresh.items()
        ]
        dropped: list[DroppedAp] = []
        for name in self.access_points:
            if name in fresh:
                continue
            if self.breakers.state(name) == "open":
                reason = self.breakers.open_reason(name)
                bucket = "breaker_open"
            elif self.health.status(name, session.latest_time_s) == "outage":
                reason = f"AP outage: {self.health.outage_reason(name, session.latest_time_s)}"
                bucket = "outage"
            elif name in session.estimates:
                reason = "stale estimate"
                bucket = "stale"
            else:
                reason = "no estimate yet"
                bucket = "no_estimate"
            dropped.append(DroppedAp(name=name, reason=reason))
            self.metrics.counter(f"serve.dropped_ap.{bucket}").inc()

        trust: dict[str, float] = {}
        contaminated = False
        try:
            if self.config.robust:
                located = localize_consensus(
                    observations,
                    self.room,
                    dropped=dropped,
                    min_quorum=self.config.min_quorum,
                    resolution_m=self.config.resolution_m,
                    trust_threshold=self.config.trust_threshold,
                )
                contaminated = located.contaminated
                for score in located.trust_scores:
                    trust[score.name] = score.trust
                    self.health.record_trust(score.name, score.trust)
                    self.metrics.histogram("serve.ap_trust").observe(score.trust)
                if contaminated:
                    self.metrics.counter("serve.contaminated_fixes").inc()
            else:
                located = localize_robust(
                    observations,
                    self.room,
                    dropped=dropped,
                    min_quorum=self.config.min_quorum,
                    resolution_m=self.config.resolution_m,
                )
        except QuorumError:
            self.metrics.counter("serve.below_quorum").inc()
            return None

        state = session.tracker.update(session.latest_time_s, located.position)
        session.last_fix_time_s = session.latest_time_s
        latency = max(
            0.0, now - min(estimate.enqueued_at for estimate in fresh.values())
        )
        self.metrics.counter("serve.fixes").inc()
        self.metrics.histogram("serve.fix_latency_s").observe(latency)
        self.metrics.histogram("serve.confidence").observe(located.confidence)
        if located.degraded:
            self.metrics.counter("serve.degraded_fixes").inc()
        if not state.accepted:
            self.metrics.counter("serve.gated_fixes").inc()
        return PositionFix(
            client=session.client,
            time_s=session.latest_time_s,
            position=located.position,
            confidence=located.confidence,
            used_aps=located.used_aps,
            dropped_aps=located.dropped_aps,
            degraded=located.degraded,
            tracked_position=state.position,
            velocity=state.velocity,
            accepted=state.accepted,
            latency_s=latency,
            trust=trust,
            contaminated=contaminated,
        )

    # -- asyncio host --------------------------------------------------------

    async def run(self, source, *, poll_interval_s: float = 0.002) -> ServeResult:
        """Pump an async packet source through the service to completion.

        ``source`` is any async iterable of
        :class:`~repro.serve.packets.CsiPacket` (e.g.
        :func:`repro.serve.loadgen.replay`).  Ingest and solving share
        the event loop: full batches are solved inline with ingest
        (size trigger), and a poll task sweeps deadline batches while
        the stream idles.  When the source ends, the service drains —
        remaining windows are flushed through final micro-batches and
        last fixes emitted — and the run summary is returned.
        """
        if self._running:
            raise ServiceError("service is already running")
        self._running = True
        started = self.clock()
        fixes: list[PositionFix] = []
        rejected: list[RejectedPacket] = []
        n_packets = 0
        try:
            with self.tracer.span("serve.run"):
                ingest_done = False

                async def _ingest():
                    nonlocal n_packets, ingest_done
                    async for packet in source:
                        n_packets += 1
                        reason = self.submit(packet)
                        if reason is not None:
                            rejected.append(
                                RejectedPacket(
                                    packet.client, packet.ap, packet.time_s, reason
                                )
                            )
                        # Solve full batches inline so a fast producer
                        # cannot grow the backlog unboundedly.
                        if self._batcher.pending >= self.config.batch_size:
                            fixes.extend(self.process_due())
                    ingest_done = True

                ingest = asyncio.ensure_future(_ingest())
                try:
                    while not ingest_done:
                        fixes.extend(self.process_due())
                        await asyncio.sleep(poll_interval_s)
                    await ingest
                finally:
                    if not ingest.done():
                        ingest.cancel()
                fixes.extend(self.drain())
        finally:
            self._running = False
        wall = self.clock() - started
        return ServeResult(
            fixes=tuple(fixes),
            rejected=tuple(rejected),
            n_packets=n_packets,
            n_accepted=n_packets - len(rejected),
            wall_seconds=wall,
            max_batch_observed=self.max_batch_observed,
            batch_triggers=dict(self.batch_triggers),
            warm={
                "enabled": self.config.warm_start,
                "hits": self.warm_state.hits,
                "misses": self.warm_state.misses,
                "slots": len(self.warm_state),
                "nbytes": self.warm_state.nbytes,
            },
            metrics=self.metrics.to_dict(),
            health=self.health.to_dict(self.latest_packet_time_s),
            breakers=self.breakers.to_dict(),
            backpressure=self.backpressure.to_dict(),
        )

    # -- snapshot / restore --------------------------------------------------

    #: Bump when the snapshot layout changes incompatibly.
    SNAPSHOT_VERSION = 1

    def snapshot_state(self) -> dict:
        """Every piece of mutable service state, losslessly.

        The contract: a fresh service that ``restore_state``s this
        payload and then receives the same packet sequence produces
        *byte-identical* fixes to the service that never stopped.  That
        requires exact float round-trips everywhere (see
        :mod:`repro.serve.codec`) and packet-time clocks throughout —
        anything keyed to a wall clock would replay differently.
        """
        return {
            "version": self.SNAPSHOT_VERSION,
            # Warm slots go through the fast binary-exact codec, not
            # WarmStartState.to_dict — at thousands of slots the
            # repr-per-float path would dominate snapshot cost.  An
            # identity-keyed cache skips re-encoding slots untouched
            # since the previous snapshot.
            "warm": {"slots": self._encode_warm_slots()},
            "health": self.health.state_dict(),
            "breakers": self.breakers.state_dict(),
            "backpressure": self.backpressure.state_dict(),
            "sessions": {
                client: session.state_dict()
                for client, session in self.sessions.items()
            },
            "batcher": self._batcher.state_dict(),
            "dirty": sorted(self._dirty),
            "draining": self._draining,
            "max_batch_observed": self.max_batch_observed,
            "batch_triggers": dict(self.batch_triggers),
            "latest_packet_time_s": self.latest_packet_time_s,
        }

    def _encode_warm_slots(self) -> dict:
        cache = self._warm_encode_cache
        slots = self.warm_state.slots
        encoded = {}
        for key, value in slots.items():
            ref, payload = cache.get(key, (None, None))
            if value is not ref:
                payload = encode_array(value)
                cache[key] = (value, payload)
            encoded[key] = payload
        for key in [key for key in cache if key not in slots]:
            del cache[key]
        return encoded

    def restore_state(self, payload: dict) -> None:
        """Restore a :meth:`snapshot_state` payload into this service."""
        version = payload.get("version")
        if version != self.SNAPSHOT_VERSION:
            raise ServiceError(
                f"unsupported service snapshot version {version!r} "
                f"(this build writes {self.SNAPSHOT_VERSION})"
            )
        self.warm_state = WarmStartState(
            slots={
                key: decode_array(value)
                for key, value in payload["warm"]["slots"].items()
            }
        )
        self._warm_encode_cache.clear()
        self.health.restore_state(payload["health"])
        self.breakers.restore_state(payload["breakers"])
        self.backpressure.restore_state(payload["backpressure"])
        self.sessions = {
            client: ClientSession.from_state_dict(state)
            for client, state in payload["sessions"].items()
        }
        self._batcher.restore_state(payload["batcher"])
        self._dirty = set(payload["dirty"])
        self._draining = bool(payload["draining"])
        self.max_batch_observed = int(payload["max_batch_observed"])
        self.batch_triggers = {
            str(k): int(v) for k, v in payload["batch_triggers"].items()
        }
        self.latest_packet_time_s = float(payload["latest_packet_time_s"])

    # -- warm-start persistence ----------------------------------------------

    def save_warm_state(self, path) -> None:
        """Snapshot the service's warm-start state to JSON (atomic)."""
        from repro.runtime.checkpoint import atomic_write

        atomic_write(path, self.warm_state.to_dict())

    def load_warm_state(self, path) -> int:
        """Restore a snapshot; returns the number of slots loaded."""
        with open(path) as handle:
            self.warm_state = WarmStartState.from_dict(json.load(handle))
        self._warm_encode_cache.clear()
        return len(self.warm_state)
