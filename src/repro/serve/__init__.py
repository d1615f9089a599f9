"""Streaming localization service.

The offline pipeline answers "where was the client, given this
recording"; :mod:`repro.serve` answers it *continuously*: per-AP CSI
packet streams are admitted, micro-batched into the batched sparse
solver, fused per client over sliding windows with first-class
warm-start state, and turned into robust position fixes with
confidence, degraded-mode AP accounting and Kalman tracks.

Entry points: :class:`LocalizationService` (the service itself),
:class:`ServiceSupervisor` (the crash-safe loop that feeds it a packet
stream), :class:`LoadGenerator` (synthetic workloads to drive it), and
:func:`offline_reference` (the cold, unbatched accuracy baseline).  The
``roarray serve`` / ``roarray loadgen`` CLI pair wraps them.
"""

from repro.serve.backpressure import BackpressureController, BackpressurePolicy
from repro.serve.batcher import MicroBatch, MicroBatcher, SolveRequest
from repro.serve.breaker import BREAKER_STATES, BreakerBoard, CircuitBreaker
from repro.serve.health import HEALTH_FAILURE_KINDS, ApHealth, ApHealthMonitor
from repro.serve.loadgen import LoadGenerator, Workload, median_fix_error_m, offline_reference
from repro.serve.packets import REJECT_REASONS, CsiPacket, PositionFix
from repro.serve.resilience import (
    ManualClock,
    ServiceSupervisor,
    SnapshotPolicy,
    SupervisorResult,
)
from repro.serve.service import LocalizationService, ServeConfig
from repro.serve.session import ApEstimate, ClientSession

__all__ = [
    "ApEstimate",
    "ApHealth",
    "ApHealthMonitor",
    "BREAKER_STATES",
    "BackpressureController",
    "BackpressurePolicy",
    "BreakerBoard",
    "CircuitBreaker",
    "ClientSession",
    "CsiPacket",
    "HEALTH_FAILURE_KINDS",
    "LoadGenerator",
    "LocalizationService",
    "ManualClock",
    "MicroBatch",
    "MicroBatcher",
    "PositionFix",
    "REJECT_REASONS",
    "ServeConfig",
    "ServiceSupervisor",
    "SnapshotPolicy",
    "SolveRequest",
    "SupervisorResult",
    "Workload",
    "median_fix_error_m",
    "offline_reference",
]
