"""Position tracking over per-fix localization estimates.

ROArray produces an independent position fix per packet burst; a moving
client benefits from fusing consecutive fixes with a motion model.
This module implements a constant-velocity Kalman filter over the 2-D
fix stream — the standard downstream smoother a deployment would put
behind the localizer — plus an innovation gate that rejects the gross
outliers low-SNR fixes occasionally produce.

State: ``[x, y, vx, vy]``; measurements: raw (x, y) fixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass
class TrackState:
    """Posterior state after one tracker update."""

    time_s: float
    position: tuple[float, float]
    velocity: tuple[float, float]
    accepted: bool
    reinitialized: bool = False


@dataclass
class KalmanTracker:
    """Constant-velocity Kalman filter with innovation gating.

    Attributes
    ----------
    process_noise:
        Acceleration noise density (m/s²); ~0.5 suits pedestrians.
    measurement_noise_m:
        Standard deviation of a localization fix (meters).  ROArray's
        medium-SNR fixes are ~0.5 m.
    gate_sigmas:
        Mahalanobis gate: fixes farther than this many standard
        deviations from the prediction are rejected (the filter coasts).
    reinit_after_rejects:
        After this many *consecutive* gate rejections the filter
        concludes the track is lost (the client genuinely moved — e.g.
        an elevator ride, or a long NLOS episode ended with the client
        somewhere else) and reinitializes on the next fix instead of
        coasting forever on a stale prediction.  Without this, a gated
        filter that diverges once rejects every subsequent honest fix:
        the covariance stops growing through measurement updates slower
        than the true position drifts away.
    """

    process_noise: float = 0.5
    measurement_noise_m: float = 0.7
    gate_sigmas: float = 4.0
    reinit_after_rejects: int = 5

    _state: np.ndarray | None = field(default=None, repr=False)
    _covariance: np.ndarray | None = field(default=None, repr=False)
    _last_time: float = field(default=0.0, repr=False)
    _reject_streak: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.process_noise <= 0 or self.measurement_noise_m <= 0:
            raise ConfigurationError("noise parameters must be positive")
        if self.gate_sigmas <= 0:
            raise ConfigurationError("gate_sigmas must be positive")
        if int(self.reinit_after_rejects) != self.reinit_after_rejects or (
            self.reinit_after_rejects < 1
        ):
            raise ConfigurationError("reinit_after_rejects must be a positive integer")
        self.reinit_after_rejects = int(self.reinit_after_rejects)

    @property
    def initialized(self) -> bool:
        return self._state is not None

    def state_dict(self) -> dict:
        """The filter's exact state for service snapshots.

        Floats round-trip exactly through JSON (Python's ``repr`` is
        lossless for float64), so a restored tracker continues the
        track bit-for-bit — which is what makes supervised crash
        recovery byte-identical.
        """
        return {
            "process_noise": self.process_noise,
            "measurement_noise_m": self.measurement_noise_m,
            "gate_sigmas": self.gate_sigmas,
            "reinit_after_rejects": self.reinit_after_rejects,
            "state": None if self._state is None else [float(v) for v in self._state],
            "covariance": (
                None
                if self._covariance is None
                else [[float(v) for v in row] for row in self._covariance]
            ),
            "last_time": self._last_time,
            "reject_streak": self._reject_streak,
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "KalmanTracker":
        tracker = cls(
            process_noise=float(payload["process_noise"]),
            measurement_noise_m=float(payload["measurement_noise_m"]),
            gate_sigmas=float(payload["gate_sigmas"]),
            # Snapshots written before the reject-streak reset existed
            # lack these keys; restore with the defaults.
            reinit_after_rejects=int(payload.get("reinit_after_rejects", 5)),
        )
        if payload["state"] is not None:
            tracker._state = np.array(payload["state"], dtype=float)
            tracker._covariance = np.array(payload["covariance"], dtype=float)
        tracker._last_time = float(payload["last_time"])
        tracker._reject_streak = int(payload.get("reject_streak", 0))
        return tracker

    def update(self, time_s: float, fix: tuple[float, float]) -> TrackState:
        """Ingest one localization fix; returns the posterior state.

        The first fix initializes the track (zero velocity, wide
        covariance).  Later fixes are gated: an implausible fix is
        rejected and the filter returns the coasted prediction — unless
        the last ``reinit_after_rejects`` fixes were all rejected, in
        which case the measurements have outvoted the model and the
        track reinitializes at this fix.
        """
        measurement = np.asarray(fix, dtype=float)
        if measurement.shape != (2,):
            raise ConfigurationError(f"fix must be (x, y), got shape {measurement.shape}")

        if self._state is None:
            return self._reinitialize(time_s, measurement, reinitialized=False)

        dt = time_s - self._last_time
        if dt < 0:
            raise ConfigurationError(f"time went backwards: {self._last_time} → {time_s}")
        dt = max(dt, 1e-6)
        self._last_time = time_s

        # Predict.
        transition = np.eye(4)
        transition[0, 2] = transition[1, 3] = dt
        q = self.process_noise**2
        process = np.array(
            [
                [dt**4 / 4, 0, dt**3 / 2, 0],
                [0, dt**4 / 4, 0, dt**3 / 2],
                [dt**3 / 2, 0, dt**2, 0],
                [0, dt**3 / 2, 0, dt**2],
            ]
        ) * q
        state = transition @ self._state
        covariance = transition @ self._covariance @ transition.T + process

        # Gate.
        observation = np.zeros((2, 4))
        observation[0, 0] = observation[1, 1] = 1.0
        innovation = measurement - observation @ state
        innovation_cov = (
            observation @ covariance @ observation.T
            + self.measurement_noise_m**2 * np.eye(2)
        )
        mahalanobis = float(innovation @ np.linalg.solve(innovation_cov, innovation))
        accepted = mahalanobis <= self.gate_sigmas**2

        if accepted:
            self._reject_streak = 0
            gain = covariance @ observation.T @ np.linalg.inv(innovation_cov)
            state = state + gain @ innovation
            covariance = (np.eye(4) - gain @ observation) @ covariance
        else:
            self._reject_streak += 1
            if self._reject_streak >= self.reinit_after_rejects:
                return self._reinitialize(time_s, measurement, reinitialized=True)

        self._state = state
        self._covariance = covariance
        return TrackState(
            time_s=time_s,
            position=(float(state[0]), float(state[1])),
            velocity=(float(state[2]), float(state[3])),
            accepted=accepted,
        )

    def _reinitialize(
        self, time_s: float, measurement: np.ndarray, *, reinitialized: bool
    ) -> TrackState:
        """Start (or restart) the track at ``measurement``."""
        self._state = np.array([measurement[0], measurement[1], 0.0, 0.0])
        self._covariance = np.diag(
            [self.measurement_noise_m**2, self.measurement_noise_m**2, 4.0, 4.0]
        )
        self._last_time = time_s
        self._reject_streak = 0
        return TrackState(
            time_s,
            (float(measurement[0]), float(measurement[1])),
            (0.0, 0.0),
            accepted=True,
            reinitialized=reinitialized,
        )
