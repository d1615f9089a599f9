"""Tests for the client mobility models."""

import numpy as np
import pytest

from repro.channel.geometry import Room
from repro.channel.mobility import RandomWaypointModel, stationary_track
from repro.exceptions import ConfigurationError


class TestRandomWaypoint:
    def make_model(self):
        return RandomWaypointModel(room=Room(width=10.0, depth=8.0))

    def test_stays_inside_room(self, rng):
        model = self.make_model()
        samples = model.generate(rng, duration_s=60.0)
        for sample in samples:
            assert 0.0 <= sample.position[0] <= 10.0
            assert 0.0 <= sample.position[1] <= 8.0

    def test_moves(self, rng):
        model = self.make_model()
        samples = model.generate(rng, duration_s=30.0)
        positions = {s.position for s in samples}
        assert len(positions) > 5

    def test_speed_bounded(self, rng):
        model = RandomWaypointModel(room=Room(), speed_range_mps=(0.5, 1.5))
        samples = model.generate(rng, duration_s=30.0, sample_interval_s=0.5)
        positions = np.array([s.position for s in samples])
        steps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
        assert steps.max() <= 1.5 * 0.5 + 1e-9

    def test_explicit_start(self, rng):
        model = self.make_model()
        samples = model.generate(rng, duration_s=5.0, start=(5.0, 4.0))
        assert samples[0].position == (5.0, 4.0)

    def test_deterministic(self):
        model = self.make_model()
        a = model.generate(np.random.default_rng(3), duration_s=10.0)
        b = model.generate(np.random.default_rng(3), duration_s=10.0)
        assert [s.position for s in a] == [s.position for s in b]

    def test_rejects_bad_speed_range(self):
        with pytest.raises(ConfigurationError):
            RandomWaypointModel(room=Room(), speed_range_mps=(2.0, 1.0))

    def test_rejects_start_outside(self, rng):
        with pytest.raises(ConfigurationError):
            self.make_model().generate(rng, duration_s=5.0, start=(99.0, 0.0))

    def test_rejects_bad_duration(self, rng):
        with pytest.raises(ConfigurationError):
            self.make_model().generate(rng, duration_s=0.0)


class TestStationaryTrack:
    def test_constant_position_and_zero_speed(self):
        samples = stationary_track((3.0, 4.0), duration_s=2.0, sample_interval_s=0.5)
        assert {s.position for s in samples} == {(3.0, 4.0)}
        assert {s.speed_mps for s in samples} == {0.0}

    def test_zero_duration_yields_single_t0_sample(self):
        samples = stationary_track((1.0, 1.0), duration_s=0.0)
        assert len(samples) == 1
        assert samples[0].time_s == 0.0
        assert samples[0].position == (1.0, 1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            stationary_track((1.0, 1.0), duration_s=-0.5)

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            stationary_track((1.0, 1.0), duration_s=1.0, sample_interval_s=0.0)


class TestSampleRateBoundaries:
    """Edge cases at the sample-rate / duration boundary."""

    def test_interval_longer_than_duration_gives_one_sample(self):
        samples = stationary_track((2.0, 2.0), duration_s=0.3, sample_interval_s=0.5)
        assert [s.time_s for s in samples] == [0.0]

    def test_divisible_duration_includes_endpoint(self):
        samples = stationary_track((2.0, 2.0), duration_s=2.0, sample_interval_s=0.5)
        assert len(samples) == 5
        assert samples[-1].time_s == pytest.approx(2.0)

    def test_fractional_interval_survives_float_accumulation(self):
        # 0.1 is not exactly representable; the endpoint must still be
        # emitted despite the accumulated drift in t += interval.
        samples = stationary_track((2.0, 2.0), duration_s=1.0, sample_interval_s=0.1)
        assert len(samples) == 11
        assert samples[-1].time_s == pytest.approx(1.0)

    def test_random_waypoint_interval_longer_than_duration(self, rng):
        model = RandomWaypointModel(room=Room())
        samples = model.generate(rng, duration_s=0.2, sample_interval_s=0.5)
        assert len(samples) == 1
        assert samples[0].time_s == 0.0

    def test_random_waypoint_divisible_duration_includes_endpoint(self, rng):
        model = RandomWaypointModel(room=Room())
        samples = model.generate(rng, duration_s=2.0, sample_interval_s=0.5)
        assert samples[-1].time_s == pytest.approx(2.0)
        assert len(samples) == 5
