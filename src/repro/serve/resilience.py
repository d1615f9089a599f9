"""Supervised crash recovery for the streaming service.

A deployment's localization service dies for reasons that have nothing
to do with CSI: OOM kills, host preemption, a driver fault in an
accelerator backend.  This module makes those deaths boring.  The
:class:`ServiceSupervisor` drives a packet stream through a
:class:`~repro.serve.service.LocalizationService` while journaling two
things:

* a periodic **service snapshot** — every piece of mutable service
  state (sessions, warm starts, health, breakers, backpressure, the
  micro-batch backlog), written atomically via
  :func:`~repro.runtime.checkpoint.atomic_write` together with the
  stream cursor ``n_consumed`` and the delivery cursor ``n_fixes``;
* an **ack journal** (``fixes.jsonl``) — one JSON line per fix, fsync'd
  *before* it counts as delivered, so the supervisor always knows
  exactly which fixes the downstream consumer has already seen.  It is
  a :class:`~repro.runtime.checkpoint.JsonlLog`, the journal format the
  batch checkpoints use, so both share one torn-tail rule.

Recovery is replay with suppression: restore the latest snapshot,
re-feed the packets after its ``n_consumed`` cursor, and swallow the
first ``journaled − snapshot.n_fixes`` regenerated fixes — they were
already delivered before the crash.  Because every snapshot codec is
lossless (:mod:`repro.serve.codec`) and the service runs on a
packet-time :class:`ManualClock` (no wall-clock anywhere in the replay
path), the regenerated fixes are *byte-identical* to the ones an
uninterrupted run would have produced — exactly-once delivery without
idempotency hacks downstream.

The same machinery serves two masters: in-process restarts (the
supervisor catches a crash, rebuilds the service from its factory and
resumes, up to ``max_restarts`` times before raising
:class:`~repro.exceptions.SupervisorError`) and cross-process
resumption (``roarray serve --snapshot-dir`` after a ``kill -9``
restores from disk and continues the stream where it died).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.exceptions import ConfigurationError, ServiceError, SupervisorError
from repro.obs import MetricsRegistry
from repro.runtime.checkpoint import JsonlLog, atomic_write
from repro.serve.packets import CsiPacket, PositionFix
from repro.serve.service import LocalizationService

#: Snapshot payload version; bumped on incompatible layout changes.
SNAPSHOT_FILE_VERSION = 1

#: File names inside a snapshot directory.
SNAPSHOT_NAME = "service.json"
FIXES_JOURNAL_NAME = "fixes.jsonl"


class ManualClock:
    """A callable clock driven by packet time, not the wall.

    The service takes its clock as a callable; handing it one that
    advances only when the supervisor feeds a packet makes every
    clock-dependent decision (micro-batch deadlines, latency
    accounting, breaker cool-downs) a pure function of the packet
    stream — which is what lets a crash-and-replay run reproduce an
    uninterrupted run byte for byte.
    """

    def __init__(self, start_s: float = 0.0) -> None:
        self.now_s = float(start_s)

    def __call__(self) -> float:
        return self.now_s

    def advance_to(self, time_s: float) -> None:
        """Move forward to ``time_s``; the clock never runs backwards."""
        if time_s > self.now_s:
            self.now_s = float(time_s)


@dataclass(frozen=True)
class SnapshotPolicy:
    """Where and how often the supervisor snapshots the service.

    Attributes
    ----------
    directory:
        Snapshot directory: holds ``service.json`` (the atomic service
        snapshot) and ``fixes.jsonl`` (the delivery ack journal).
    every_packets:
        Snapshot after every N consumed packets.  Smaller values bound
        replay work after a crash at the price of more snapshot I/O on
        the clean path; ``0`` disables periodic snapshots (only the
        final one is written).
    max_duty:
        Duty-cycle throttle on periodic snapshots: after each snapshot
        the next one is deferred until the snapshot's own duration is at
        most ``max_duty`` of the wall time between them, so snapshot I/O
        can never eat more than this fraction of clean-path throughput
        no matter how large the service state grows.  Deferring a
        snapshot only widens the replay window after a crash — the fix
        stream is unaffected (snapshots are pure observers), which is
        what makes throttling on the wall clock safe in a byte-replay
        system.  ``0`` disables the throttle (snapshot on every cadence
        hit).  Interrupt/final snapshots are never throttled.
    """

    directory: str | Path
    every_packets: int = 64
    max_duty: float = 0.01

    def __post_init__(self) -> None:
        if self.every_packets < 0:
            raise ConfigurationError(
                f"every_packets must be >= 0, got {self.every_packets}"
            )
        if not 0.0 <= self.max_duty < 1.0:
            raise ConfigurationError(
                f"max_duty must be in [0, 1), got {self.max_duty}"
            )

    @property
    def snapshot_path(self) -> Path:
        return Path(self.directory) / SNAPSHOT_NAME

    @property
    def fixes_path(self) -> Path:
        return Path(self.directory) / FIXES_JOURNAL_NAME


def save_snapshot(
    path: str | Path,
    service: LocalizationService,
    *,
    clock_s: float,
    n_consumed: int,
    n_fixes: int,
) -> Path:
    """Atomically persist the service plus the stream/delivery cursors."""
    return atomic_write(
        path,
        {
            "version": SNAPSHOT_FILE_VERSION,
            "clock_s": clock_s,
            "n_consumed": int(n_consumed),
            "n_fixes": int(n_fixes),
            "service": service.snapshot_state(),
        },
        indent=None,
    )


def load_snapshot(path: str | Path) -> dict:
    """Read a snapshot payload; raises :class:`ServiceError` if unusable."""
    path = Path(path)
    try:
        payload = json.loads(path.read_bytes())
    except (OSError, ValueError) as error:
        raise ServiceError(f"{path}: unreadable service snapshot ({error})") from error
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != SNAPSHOT_FILE_VERSION:
        raise ServiceError(
            f"{path}: unsupported snapshot version {version!r} "
            f"(this build reads {SNAPSHOT_FILE_VERSION})"
        )
    return payload


def count_journaled_fixes(path: str | Path) -> int:
    """Complete fix records in an ack journal, healing any torn tail.

    Opening the journal applies :class:`~repro.runtime.checkpoint.JsonlLog`'s
    framing rule: a hard kill's partial final line is truncated so the
    next append starts on a record boundary.  A fix whose line was torn
    was *not* delivered (its fsync never returned), so it is correctly
    regenerated on replay.  Creates an empty journal if none exists.
    """
    with JsonlLog(path) as journal:
        return len(journal.records)


@dataclass
class SupervisorResult:
    """What one supervised run produced and what it cost."""

    #: Fixes delivered *by this run* (replayed-and-suppressed fixes from
    #: an earlier incarnation are excluded — they were already acked).
    fixes: list[PositionFix] = field(default_factory=list)
    n_consumed: int = 0
    n_delivered: int = 0
    n_suppressed: int = 0
    n_restarts: int = 0
    n_snapshots: int = 0
    resumed: bool = False
    #: True when a ``stop`` callable ended the run early (graceful
    #: shutdown); the snapshot on disk resumes the stream exactly.
    interrupted: bool = False
    #: Wall seconds this run spent writing snapshots / fsyncing the ack
    #: journal — the resilience machinery's clean-path bill.
    snapshot_seconds: float = 0.0
    journal_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "n_fixes": len(self.fixes),
            "n_consumed": self.n_consumed,
            "n_delivered": self.n_delivered,
            "n_suppressed": self.n_suppressed,
            "n_restarts": self.n_restarts,
            "n_snapshots": self.n_snapshots,
            "resumed": self.resumed,
            "interrupted": self.interrupted,
            "snapshot_seconds": self.snapshot_seconds,
            "journal_seconds": self.journal_seconds,
        }


class ServiceSupervisor:
    """Crash-supervised, exactly-once drive of a packet stream.

    Parameters
    ----------
    factory:
        ``factory(clock) -> LocalizationService`` — builds a *fresh*
        service wired to the given clock callable.  Called once at
        startup and once per restart; it must be deterministic (same
        geometry, same config) or restored state will not line up.
    policy:
        :class:`SnapshotPolicy` — snapshot directory and cadence.
    max_restarts:
        In-process restart budget.  A crash beyond the budget raises
        :class:`~repro.exceptions.SupervisorError` (carrying the last
        crash as ``__cause__``) instead of looping forever on a
        deterministic fault.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; restart, snapshot
        and suppression counters land there.
    """

    def __init__(
        self,
        factory: Callable[[Callable[[], float]], LocalizationService],
        policy: SnapshotPolicy,
        *,
        max_restarts: int = 3,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_restarts < 0:
            raise ConfigurationError(f"max_restarts must be >= 0, got {max_restarts}")
        self.factory = factory
        self.policy = policy
        self.max_restarts = max_restarts
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        Path(policy.directory).mkdir(parents=True, exist_ok=True)
        self.clock = ManualClock()
        self.service: LocalizationService | None = None
        #: Stream cursor: packets fully consumed (submit + solve + fix).
        self.n_consumed = 0
        #: Delivery cursor: fixes acked into the journal, ever.
        self.n_delivered = 0
        #: Regenerated fixes still to swallow after a restore.
        self._suppress = 0
        self.n_restarts = 0
        self.n_snapshots = 0
        #: Lifetime wall seconds spent in snapshot writes / journal fsyncs.
        self.snapshot_seconds = 0.0
        self.journal_seconds = 0.0
        #: Wall instant before which the duty throttle defers periodic
        #: snapshots (perf_counter basis).
        self._snapshot_allowed_at = 0.0
        self._resumed = False
        self._journal: JsonlLog | None = None
        self._boot()

    # -- lifecycle -----------------------------------------------------------

    def _boot(self) -> None:
        """Build (or rebuild) the service, restoring any snapshot on disk."""
        snapshot_path = self.policy.snapshot_path
        self.n_delivered = count_journaled_fixes(self.policy.fixes_path)
        if snapshot_path.exists():
            payload = load_snapshot(snapshot_path)
            self.clock = ManualClock(float(payload["clock_s"]))
            self.service = self.factory(self.clock)
            self.service.restore_state(payload["service"])
            self.n_consumed = int(payload["n_consumed"])
            self._suppress = self.n_delivered - int(payload["n_fixes"])
            if self._suppress < 0:
                raise ServiceError(
                    f"{snapshot_path} claims {payload['n_fixes']} delivered fixes "
                    f"but the ack journal holds only {self.n_delivered} — the "
                    "journal and snapshot belong to different runs"
                )
            self._resumed = True
        else:
            self.clock = ManualClock()
            self.service = self.factory(self.clock)
            self.n_consumed = 0
            # A journal without a snapshot means the run died before its
            # first snapshot: replay starts from zero and every fix
            # already journaled must be suppressed.
            self._suppress = self.n_delivered
            self._resumed = self._resumed or self.n_delivered > 0
        self._journal = JsonlLog(self.policy.fixes_path)

    @property
    def resumed(self) -> bool:
        """True when this supervisor restored earlier on-disk state."""
        return self._resumed

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "ServiceSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the drive loop ------------------------------------------------------

    def run(
        self,
        packets: Sequence[CsiPacket] | Iterable[CsiPacket],
        *,
        fault_hook: Callable[[int], None] | None = None,
        stop: Callable[[], bool] | None = None,
        drain: bool = True,
    ) -> SupervisorResult:
        """Feed the whole stream through the service, surviving crashes.

        ``packets`` must be the *full* stream from time zero — on a
        resumed run the supervisor skips the first ``n_consumed``
        entries itself (they are already inside the restored state).
        ``fault_hook(index)`` is called before each packet and may
        raise to inject a crash (the chaos harness uses this);
        whatever it raises is treated exactly like a service crash.
        ``stop()`` is polled between packets: returning ``True`` ends
        the run *gracefully* — the in-flight step finishes, a final
        snapshot is written (pending solves included, nothing force-
        flushed) and the result is marked ``interrupted`` so a later
        run resumes the stream byte-identically.  ``drain=False``
        leaves the service running (pending solves stay queued for a
        later stream) instead of flushing at EOF.
        """
        packets = packets if isinstance(packets, Sequence) else list(packets)
        result = SupervisorResult(resumed=self._resumed)
        snapshot_s0 = self.snapshot_seconds
        journal_s0 = self.journal_seconds
        while True:
            try:
                while self.n_consumed < len(packets):
                    if stop is not None and stop():
                        result.interrupted = True
                        break
                    index = self.n_consumed
                    if fault_hook is not None:
                        fault_hook(index)
                    self._step(packets[index], result)
                if result.interrupted:
                    self.save_snapshot()
                elif drain:
                    self._deliver(self.service.drain(), result)
                    self.save_snapshot()
                result.n_snapshots = self.n_snapshots
                break
            except SupervisorError:
                raise
            except Exception as error:
                self._recover(error)
                result.n_restarts = self.n_restarts
        result.n_consumed = self.n_consumed
        result.n_delivered = self.n_delivered
        result.n_restarts = self.n_restarts
        result.n_snapshots = self.n_snapshots
        result.snapshot_seconds = self.snapshot_seconds - snapshot_s0
        result.journal_seconds = self.journal_seconds - journal_s0
        return result

    def _step(self, packet: CsiPacket, result: SupervisorResult) -> None:
        self.clock.advance_to(packet.time_s)
        self.service.submit(packet)
        fixes = self.service.process_due()
        # Consume-then-deliver: a crash between the two replays the
        # packet (its fixes were never journaled), a crash after both
        # is covered by the suppression count.  Either way no fix is
        # lost and none is delivered twice.
        self.n_consumed += 1
        self._deliver(fixes, result)
        if (
            self.policy.every_packets
            and self.n_consumed % self.policy.every_packets == 0
        ):
            if self.policy.max_duty and time.perf_counter() < self._snapshot_allowed_at:
                self.metrics.counter("serve.supervisor.snapshots_deferred").inc()
            else:
                self.save_snapshot()
                result.n_snapshots = self.n_snapshots

    def _deliver(self, fixes: list[PositionFix], result: SupervisorResult) -> None:
        delivered: list[PositionFix] = []
        for fix in fixes:
            if self._suppress > 0:
                # Regenerated during replay; the original line is
                # already in the journal (and was already consumed
                # downstream), so deliver nothing.
                self._suppress -= 1
                result.n_suppressed += 1
                self.metrics.counter("serve.supervisor.fixes_suppressed").inc()
                continue
            delivered.append(fix)
        if not delivered:
            return
        # Ack-then-deliver, one fsync per delivery batch: every line is
        # durable before any fix in the batch counts as delivered, so a
        # crash mid-batch regenerates the whole batch (torn tail healed
        # by count_journaled_fixes) instead of double-delivering.
        started = time.perf_counter()
        self._journal.append(fix.to_dict() for fix in delivered)
        self.journal_seconds += time.perf_counter() - started
        for fix in delivered:
            self.n_delivered += 1
            result.fixes.append(fix)
            self.metrics.counter("serve.supervisor.fixes_delivered").inc()

    def save_snapshot(self) -> None:
        started = time.perf_counter()
        save_snapshot(
            self.policy.snapshot_path,
            self.service,
            clock_s=self.clock.now_s,
            n_consumed=self.n_consumed,
            n_fixes=self.n_delivered,
        )
        duration = time.perf_counter() - started
        self.snapshot_seconds += duration
        if self.policy.max_duty:
            # Defer the next periodic snapshot until this one's cost
            # amortizes below the duty budget.
            self._snapshot_allowed_at = (
                time.perf_counter() + duration / self.policy.max_duty
            )
        self.n_snapshots += 1
        self.metrics.counter("serve.supervisor.snapshots").inc()

    def _recover(self, error: Exception) -> None:
        """One crash: burn a restart, rebuild and restore, or give up."""
        self.n_restarts += 1
        self.metrics.counter("serve.supervisor.restarts").inc()
        if self.n_restarts > self.max_restarts:
            raise SupervisorError(
                f"service crashed {self.n_restarts} times "
                f"(budget {self.max_restarts}); last crash: {error!r}"
            ) from error
        self.close()
        self._boot()
