"""Wire types of the streaming localization service.

A deployment feeds the service one :class:`CsiPacket` per received
frame, tagged with the client and AP it belongs to; the service answers
with :class:`PositionFix` records.  A packet that fails admission
control gets one of the :data:`REJECT_REASONS` back from
:meth:`~repro.serve.service.LocalizationService.submit` — backpressure
and malformed input are data, not exceptions, so a misbehaving client
can never take the service down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.localization import DroppedAp
from repro.exceptions import ConfigurationError

#: The full admission-control taxonomy.  Every rejected packet carries
#: exactly one of these, and the service counts each under
#: ``serve.rejected.<reason>`` so an operator can tell backpressure
#: ("queue_full", and "shed_stale" when the degradation ladder sheds
#: old data first) from bad input ("invalid_csi", "unknown_ap"), late
#: arrivals ("stale"), a tripped per-AP circuit breaker
#: ("breaker_open") and shutdown ("draining") at a glance.
REJECT_REASONS = (
    "queue_full",
    "draining",
    "unknown_ap",
    "invalid_csi",
    "stale",
    "shed_stale",
    "breaker_open",
)


@dataclass(frozen=True)
class CsiPacket:
    """One received frame's CSI, tagged with its origin.

    Attributes
    ----------
    client / ap:
        Who transmitted and which AP received.  The AP name must match
        one of the service's registered access points.
    time_s:
        Capture timestamp on the deployment's clock (drives sliding
        windows and the tracker; distinct from the service's own
        micro-batching clock).
    csi:
        The per-packet CSI matrix, shape ``(antennas, subcarriers)``
        (paper Eq. 4).
    rssi_dbm:
        Link RSSI, the localization weight of paper Eq. 19.
    """

    client: str
    ap: str
    time_s: float
    csi: np.ndarray = field(repr=False)
    rssi_dbm: float = -50.0

    def __post_init__(self) -> None:
        if not self.client or not self.ap:
            raise ConfigurationError("packet needs non-empty client and ap names")
        csi = np.asarray(self.csi)
        if csi.ndim != 2:
            raise ConfigurationError(
                f"packet CSI must be 2-D (antennas × subcarriers), got shape {csi.shape}"
            )


@dataclass(frozen=True)
class PositionFix:
    """One client's localization output, raw and tracked.

    ``position`` / ``confidence`` / ``used_aps`` / ``dropped_aps`` come
    straight from degraded-mode localization
    (:func:`~repro.core.localization.localize_robust`);
    ``tracked_position`` / ``velocity`` / ``accepted`` are the
    per-client Kalman tracker's posterior (``accepted=False`` means the
    innovation gate rejected the raw fix and the track coasted).
    ``latency_s`` runs from the admission of the newest packet behind
    the fix to the fix, on the service clock.  Under
    :class:`~repro.serve.resilience.ServiceSupervisor`, which drives
    every ``roarray serve`` run, that clock is packet time: the value
    includes stream time spent waiting for the micro-batch deadline
    and is not a wall-clock packet → fix latency.
    ``trust`` / ``contaminated`` are populated only when the service
    runs with ``ServeConfig.robust``: per-AP consensus trust in [0, 1]
    and whether the fix was computed after excluding measurement-domain
    corruption (NLOS bias, ghost paths).
    """

    client: str
    time_s: float
    position: tuple[float, float]
    confidence: float
    used_aps: tuple[str, ...]
    dropped_aps: tuple[DroppedAp, ...]
    degraded: bool
    tracked_position: tuple[float, float]
    velocity: tuple[float, float]
    accepted: bool
    latency_s: float
    trust: dict = field(default_factory=dict)
    contaminated: bool = False

    def to_dict(self) -> dict:
        return {
            "client": self.client,
            "time_s": self.time_s,
            "position": [self.position[0], self.position[1]],
            "confidence": self.confidence,
            "used_aps": list(self.used_aps),
            "dropped_aps": [ap.to_dict() for ap in self.dropped_aps],
            "degraded": self.degraded,
            "tracked_position": [self.tracked_position[0], self.tracked_position[1]],
            "velocity": [self.velocity[0], self.velocity[1]],
            "accepted": self.accepted,
            "latency_s": self.latency_s,
            "trust": {name: float(value) for name, value in sorted(self.trust.items())},
            "contaminated": self.contaminated,
        }

    def error_to(self, true_position: tuple[float, float]) -> float:
        """Euclidean error of the raw fix in meters."""
        dx = self.position[0] - true_position[0]
        dy = self.position[1] - true_position[1]
        return float(np.hypot(dx, dy))
