"""Tests for the Kalman tracker over localization fixes."""

import numpy as np
import pytest

from repro.core.tracking import KalmanTracker
from repro.exceptions import ConfigurationError


def noisy_line_fixes(rng, n=30, noise=0.3, dt=0.5, vx=1.0):
    """Fixes along a straight line with Gaussian fix noise."""
    fixes = []
    for i in range(n):
        t = i * dt
        truth = np.array([vx * t, 2.0])
        fix = truth + rng.normal(0, noise, 2)
        fixes.append((t, (float(fix[0]), float(fix[1])), tuple(truth)))
    return fixes


class TestTracking:
    def test_first_fix_initializes(self):
        tracker = KalmanTracker()
        state = tracker.update(0.0, (3.0, 4.0))
        assert state.position == (3.0, 4.0)
        assert state.velocity == (0.0, 0.0)
        assert state.accepted
        assert tracker.initialized

    def test_smooths_noise(self, rng):
        fixes = noisy_line_fixes(rng)
        tracker = KalmanTracker(measurement_noise_m=0.3)
        raw_errors, tracked_errors = [], []
        for t, fix, truth in fixes:
            state = tracker.update(t, fix)
            raw_errors.append(np.linalg.norm(np.array(fix) - truth))
            tracked_errors.append(np.linalg.norm(np.array(state.position) - truth))
        # Steady-state (after convergence) tracking beats raw fixes.
        assert np.mean(tracked_errors[10:]) < np.mean(raw_errors[10:])

    def test_estimates_velocity(self, rng):
        fixes = noisy_line_fixes(rng, n=40, noise=0.1, vx=1.2)
        tracker = KalmanTracker(measurement_noise_m=0.1)
        state = None
        for t, fix, _ in fixes:
            state = tracker.update(t, fix)
        assert state.velocity[0] == pytest.approx(1.2, abs=0.3)
        assert state.velocity[1] == pytest.approx(0.0, abs=0.3)

    def test_gates_gross_outlier(self, rng):
        tracker = KalmanTracker(measurement_noise_m=0.2, gate_sigmas=4.0)
        for i in range(10):
            tracker.update(i * 0.5, (i * 0.5, 2.0))
        outlier_state = tracker.update(5.0, (15.0, 10.0))  # 10+ m jump
        assert not outlier_state.accepted
        # The coasted prediction stays near the trajectory.
        assert outlier_state.position[0] == pytest.approx(5.0, abs=1.0)

    def test_recovers_after_outlier(self, rng):
        tracker = KalmanTracker(measurement_noise_m=0.2)
        for i in range(10):
            tracker.update(i * 0.5, (i * 0.5, 2.0))
        tracker.update(5.0, (20.0, 20.0))
        state = tracker.update(5.5, (5.5, 2.0))
        assert state.accepted

    def test_rejects_time_reversal(self):
        tracker = KalmanTracker()
        tracker.update(1.0, (0.0, 0.0))
        with pytest.raises(ConfigurationError):
            tracker.update(0.5, (0.1, 0.0))

    def test_rejects_bad_fix_shape(self):
        tracker = KalmanTracker()
        with pytest.raises(ConfigurationError):
            tracker.update(0.0, (1.0, 2.0, 3.0))  # type: ignore[arg-type]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            KalmanTracker(process_noise=0.0)
        with pytest.raises(ConfigurationError):
            KalmanTracker(gate_sigmas=-1.0)


class TestRejectStreakReinit:
    def _converged_tracker(self, **kwargs):
        tracker = KalmanTracker(measurement_noise_m=0.2, **kwargs)
        for i in range(10):
            tracker.update(i * 0.5, (i * 0.5, 2.0))
        return tracker

    def test_teleporting_client_reacquired(self):
        """A genuine teleport (elevator, stairwell) must not strand the track.

        After the client reappears far away, every honest fix fails the
        gate; once the streak hits the limit the filter restarts there
        instead of coasting on the stale trajectory forever.
        """
        tracker = self._converged_tracker(reinit_after_rejects=3)
        states = [
            tracker.update(5.0 + i * 0.5, (20.0, 15.0)) for i in range(4)
        ]
        assert [s.accepted for s in states[:2]] == [False, False]
        reinit = states[2]
        assert reinit.reinitialized
        assert reinit.accepted
        assert reinit.position == (20.0, 15.0)
        # Subsequent fixes near the new location pass the gate normally.
        assert states[3].accepted
        assert not states[3].reinitialized

    def test_streak_resets_on_accept(self):
        tracker = self._converged_tracker(reinit_after_rejects=3)
        tracker.update(5.0, (20.0, 15.0))
        tracker.update(5.5, (20.0, 15.0))
        tracker.update(6.0, (5.9, 2.0))  # honest fix breaks the streak
        state = tracker.update(6.5, (20.0, 15.0))
        assert not state.accepted
        assert not state.reinitialized

    def test_streak_survives_snapshot_roundtrip(self):
        tracker = self._converged_tracker(reinit_after_rejects=3)
        tracker.update(5.0, (20.0, 15.0))
        tracker.update(5.5, (20.0, 15.0))
        restored = KalmanTracker.from_state_dict(tracker.state_dict())
        state = restored.update(6.0, (20.0, 15.0))
        assert state.reinitialized
        assert state.position == (20.0, 15.0)

    def test_legacy_snapshot_without_streak_fields(self):
        tracker = self._converged_tracker()
        payload = tracker.state_dict()
        del payload["reject_streak"]
        del payload["reinit_after_rejects"]
        restored = KalmanTracker.from_state_dict(payload)
        assert restored.reinit_after_rejects == 5
        state = restored.update(5.0, (5.0, 2.0))
        assert state.accepted

    def test_rejects_bad_reinit_parameter(self):
        with pytest.raises(ConfigurationError):
            KalmanTracker(reinit_after_rejects=0)
        with pytest.raises(ConfigurationError):
            KalmanTracker(reinit_after_rejects=2.5)  # type: ignore[arg-type]
