"""Client mobility models.

The paper's motivation for single-packet operation is mobile clients
(§I): clustering across dozens of packets is useless when the client
moved between them.  This module generates client trajectories through
a room so the tracking experiments and examples can evaluate
localization *along a path* rather than at isolated spots.

Two models are provided:

* :func:`stationary_track` — a client that does not move.
* :class:`RandomWaypointModel` — the standard random-waypoint mobility
  model: pick a uniform random destination and speed, walk there,
  pause, repeat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.geometry import Room
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class TrajectorySample:
    """One sampled point of a trajectory."""

    time_s: float
    position: tuple[float, float]
    speed_mps: float


def stationary_track(
    position: tuple[float, float],
    *,
    duration_s: float,
    sample_interval_s: float = 0.5,
) -> list[TrajectorySample]:
    """A client that does not move: constant position, zero speed.

    Stationary clients are the degenerate trajectory the streaming load
    generator mixes in (real deployments are mostly people sitting
    still).  ``duration_s=0`` is allowed and yields exactly one sample
    at ``t=0`` — the zero-duration track.
    """
    if duration_s < 0:
        raise ConfigurationError(f"duration must be >= 0, got {duration_s}")
    if sample_interval_s <= 0:
        raise ConfigurationError("sample interval must be positive")
    x, y = float(position[0]), float(position[1])
    samples = []
    t = 0.0
    while t <= duration_s + 1e-9:
        samples.append(TrajectorySample(time_s=t, position=(x, y), speed_mps=0.0))
        t += sample_interval_s
    return samples


@dataclass
class RandomWaypointModel:
    """The random-waypoint mobility model inside a room.

    Attributes
    ----------
    room:
        Movement area; destinations keep ``margin`` meters off the walls.
    speed_range_mps:
        Each leg draws a uniform speed from this range.
    pause_s:
        Dwell time at each destination.
    margin:
        Wall clearance for destinations.
    """

    room: Room
    speed_range_mps: tuple[float, float] = (0.5, 1.5)
    pause_s: float = 1.0
    margin: float = 0.5

    def __post_init__(self) -> None:
        low, high = self.speed_range_mps
        if low <= 0 or high < low:
            raise ConfigurationError(f"bad speed range {self.speed_range_mps}")
        if self.pause_s < 0:
            raise ConfigurationError("pause must be non-negative")
        if 2 * self.margin >= min(self.room.width, self.room.depth):
            raise ConfigurationError("margin leaves no interior")

    def _draw_destination(self, rng: np.random.Generator) -> np.ndarray:
        return np.array(
            [
                rng.uniform(self.margin, self.room.width - self.margin),
                rng.uniform(self.margin, self.room.depth - self.margin),
            ]
        )

    def generate(
        self,
        rng: np.random.Generator,
        *,
        duration_s: float,
        sample_interval_s: float = 0.5,
        start: tuple[float, float] | None = None,
    ) -> list[TrajectorySample]:
        """Sample a trajectory of the given duration."""
        if duration_s <= 0 or sample_interval_s <= 0:
            raise ConfigurationError("duration and sample interval must be positive")
        position = (
            np.asarray(start, dtype=float) if start is not None else self._draw_destination(rng)
        )
        if not self.room.contains(position):
            raise ConfigurationError(f"start {tuple(position)} outside the room")

        samples: list[TrajectorySample] = []
        t = 0.0
        destination = self._draw_destination(rng)
        speed = float(rng.uniform(*self.speed_range_mps))
        pause_left = 0.0
        while t <= duration_s + 1e-9:
            samples.append(
                TrajectorySample(
                    time_s=t,
                    position=(float(position[0]), float(position[1])),
                    speed_mps=0.0 if pause_left > 0 else speed,
                )
            )
            step = sample_interval_s
            if pause_left > 0:
                pause_left = max(0.0, pause_left - step)
            else:
                offset = destination - position
                distance = float(np.linalg.norm(offset))
                travel = speed * step
                if travel >= distance:
                    position = destination
                    destination = self._draw_destination(rng)
                    speed = float(rng.uniform(*self.speed_range_mps))
                    pause_left = self.pause_s
                else:
                    position = position + offset / distance * travel
            t += step
        return samples
