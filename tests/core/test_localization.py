"""Tests for RSSI-weighted multi-AP localization (paper Eq. 19)."""

import numpy as np
import pytest

from repro.channel.geometry import AccessPoint, Room
from repro.core.localization import (
    ApObservation,
    DroppedAp,
    candidate_axes,
    localize_robust,
    localize_weighted_aoa,
    predicted_aoa_grid,
    room_aoa_grid,
    rssi_weights,
)
from repro.exceptions import ConfigurationError, QuorumError


ROOM = Room(width=10.0, depth=8.0)
AP_WEST = AccessPoint(position=(0.0, 4.0), axis_direction_deg=90.0, name="west")
AP_SOUTH = AccessPoint(position=(5.0, 0.0), axis_direction_deg=0.0, name="south")


def truth_observation(ap, client, rssi=-50.0):
    return ApObservation(ap, ap.bearing_to_aoa(np.array(client)), rssi)


class TestRssiWeights:
    def test_normalized(self):
        weights = rssi_weights(np.array([-40.0, -50.0, -60.0]))
        assert weights.sum() == pytest.approx(1.0)

    def test_stronger_link_gets_more_weight(self):
        weights = rssi_weights(np.array([-40.0, -60.0]))
        assert weights[0] > weights[1]

    def test_dynamic_range_clipped(self):
        weights = rssi_weights(np.array([-30.0, -100.0]))
        assert weights[1] > 0.0
        assert weights[0] / weights[1] <= 10.0 ** 3 + 1e-9  # 30 dB cap

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            rssi_weights(np.array([]))


class TestPredictedAoaGrid:
    def test_matches_pointwise_bearing(self):
        xs = np.linspace(0.5, 9.5, 7)
        ys = np.linspace(0.5, 7.5, 5)
        grid = predicted_aoa_grid(AP_WEST, xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                expected = AP_WEST.bearing_to_aoa(np.array([x, y]))
                assert grid[i, j] == pytest.approx(expected, abs=1e-9)

    def test_ap_cell_is_finite(self):
        grid = predicted_aoa_grid(AP_WEST, np.array([0.0]), np.array([4.0]))
        assert np.isfinite(grid).all()

    def test_room_grid_is_the_formula_built_once_and_read_only(self):
        xs, ys = candidate_axes(ROOM, 0.1)
        grid = room_aoa_grid(AP_SOUTH, ROOM, 0.1)
        np.testing.assert_array_equal(grid, predicted_aoa_grid(AP_SOUTH, xs, ys))
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0
        same_ap = AccessPoint(position=[5, 0], axis_direction_deg=0, name="other")
        assert room_aoa_grid(same_ap, Room(width=10, depth=8), 0.1) is grid
        assert room_aoa_grid(AP_WEST, ROOM, 0.1) is not grid


class TestLocalization:
    def test_exact_recovery_with_true_aoas(self):
        client = (6.0, 5.0)
        observations = [
            truth_observation(AP_WEST, client),
            truth_observation(AP_SOUTH, client),
        ]
        result = localize_weighted_aoa(observations, ROOM, resolution_m=0.1)
        assert result.error_to(client) < 0.15

    def test_third_ap_improves_noisy_fix(self):
        client = (6.0, 5.0)
        ap_east = AccessPoint(position=(10.0, 4.0), axis_direction_deg=90.0, name="east")
        noisy = [
            ApObservation(AP_WEST, AP_WEST.bearing_to_aoa(np.array(client)) + 8.0, -50.0),
            ApObservation(AP_SOUTH, AP_SOUTH.bearing_to_aoa(np.array(client)) - 8.0, -50.0),
        ]
        two = localize_weighted_aoa(noisy, ROOM, resolution_m=0.1)
        three = localize_weighted_aoa(
            noisy + [truth_observation(ap_east, client)], ROOM, resolution_m=0.1
        )
        assert three.error_to(client) <= two.error_to(client)

    def test_rssi_weight_pulls_toward_trusted_ap(self):
        client = (6.0, 5.0)
        # West AP reports a wrong angle but with weak RSSI: the fix must
        # stay close to what the trusted (strong) APs indicate.
        ap_east = AccessPoint(position=(10.0, 4.0), axis_direction_deg=90.0, name="east")
        bad_weak = [
            ApObservation(AP_WEST, AP_WEST.bearing_to_aoa(np.array(client)) + 40.0, -80.0),
            truth_observation(AP_SOUTH, client, rssi=-40.0),
            truth_observation(ap_east, client, rssi=-40.0),
        ]
        bad_strong = [
            ApObservation(AP_WEST, AP_WEST.bearing_to_aoa(np.array(client)) + 40.0, -30.0),
            truth_observation(AP_SOUTH, client, rssi=-70.0),
            truth_observation(ap_east, client, rssi=-70.0),
        ]
        weak_error = localize_weighted_aoa(bad_weak, ROOM, resolution_m=0.1).error_to(client)
        strong_error = localize_weighted_aoa(bad_strong, ROOM, resolution_m=0.1).error_to(client)
        assert weak_error < strong_error

    def test_requires_two_aps(self):
        with pytest.raises(ConfigurationError):
            localize_weighted_aoa([truth_observation(AP_WEST, (5.0, 5.0))], ROOM)

    def test_rejects_bad_resolution(self):
        observations = [
            truth_observation(AP_WEST, (5.0, 5.0)),
            truth_observation(AP_SOUTH, (5.0, 5.0)),
        ]
        with pytest.raises(ConfigurationError):
            localize_weighted_aoa(observations, ROOM, resolution_m=0.0)

    def test_result_within_room(self):
        observations = [
            ApObservation(AP_WEST, 5.0, -50.0),
            ApObservation(AP_SOUTH, 175.0, -50.0),
        ]
        result = localize_weighted_aoa(observations, ROOM, resolution_m=0.25)
        assert 0 <= result.position[0] <= ROOM.width
        assert 0 <= result.position[1] <= ROOM.depth

    def test_observation_validates_aoa(self):
        with pytest.raises(ConfigurationError):
            ApObservation(AP_WEST, aoa_deg=200.0)


AP_EAST = AccessPoint(position=(10.0, 4.0), axis_direction_deg=90.0, name="east")
AP_NORTH = AccessPoint(position=(5.0, 8.0), axis_direction_deg=0.0, name="north")


class TestDegradedLocalization:
    def _observations(self, client, aps=(AP_WEST, AP_SOUTH, AP_EAST, AP_NORTH)):
        return [truth_observation(ap, client) for ap in aps]

    def test_full_survivor_fix_matches_plain_localization(self):
        client = (4.0, 3.0)
        observations = self._observations(client)
        plain = localize_weighted_aoa(observations, ROOM, resolution_m=0.1)
        robust = localize_robust(observations, ROOM, resolution_m=0.1)
        assert robust.position == plain.position
        assert robust.cost == plain.cost
        assert not robust.degraded
        assert robust.dropped_aps == ()
        assert robust.used_aps == ("west", "south", "east", "north")

    def test_consistent_full_quorum_fix_has_high_confidence(self):
        robust = localize_robust(self._observations((4.0, 3.0)), ROOM)
        assert 0.9 < robust.confidence <= 1.0

    def test_dropping_aps_lowers_confidence_and_flags_degraded(self):
        client = (4.0, 3.0)
        full = localize_robust(self._observations(client), ROOM)
        degraded = localize_robust(
            self._observations(client, aps=(AP_WEST, AP_SOUTH)),
            ROOM,
            dropped=[DroppedAp("east", "outage"), DroppedAp("north", "outage")],
        )
        assert degraded.degraded
        assert degraded.confidence < full.confidence
        assert degraded.dropped_aps == (
            DroppedAp("east", "outage"),
            DroppedAp("north", "outage"),
        )

    def test_disagreeing_survivors_lower_confidence(self):
        client = (4.0, 3.0)
        consistent = localize_robust(self._observations(client), ROOM)
        skewed = [
            truth_observation(AP_WEST, client),
            truth_observation(AP_SOUTH, client),
            ApObservation(AP_EAST, 30.0, -50.0),  # way off the truth
            truth_observation(AP_NORTH, client),
        ]
        assert localize_robust(skewed, ROOM).confidence < consistent.confidence

    def test_below_quorum_raises_with_reasons(self):
        with pytest.raises(QuorumError, match="below quorum") as excinfo:
            localize_robust(
                [truth_observation(AP_WEST, (4.0, 3.0))],
                ROOM,
                dropped=[DroppedAp("south", "solver: diverged")],
            )
        assert "south: solver: diverged" in str(excinfo.value)

    def test_min_quorum_must_be_at_least_two(self):
        with pytest.raises(ConfigurationError):
            localize_robust(self._observations((4.0, 3.0)), ROOM, min_quorum=1)

    def test_raised_quorum_is_enforced(self):
        observations = self._observations((4.0, 3.0), aps=(AP_WEST, AP_SOUTH))
        localize_robust(observations, ROOM, min_quorum=2)  # passes
        with pytest.raises(QuorumError):
            localize_robust(observations, ROOM, min_quorum=3)

    def test_to_dict_is_json_serializable(self):
        import json

        robust = localize_robust(
            self._observations((4.0, 3.0), aps=(AP_WEST, AP_SOUTH)),
            ROOM,
            dropped=[DroppedAp("east", "outage")],
        )
        payload = json.loads(json.dumps(robust.to_dict()))
        assert payload["degraded"] is True
        assert payload["quorum"] == 2
        assert payload["dropped_aps"] == [{"name": "east", "reason": "outage"}]


# ---------------------------------------------------------------------------
# Trust scoring and consensus localization
# ---------------------------------------------------------------------------

from repro.core.localization import (  # noqa: E402
    TRUST_THRESHOLD,
    ApEvidence,
    ApTrustScore,
    ConsensusResult,
    localize_consensus,
    peak_dispersion,
    score_ap_trust,
)

ALL_APS = (AP_WEST, AP_SOUTH, AP_EAST, AP_NORTH)


def _biased_observation(ap, client, bias_deg, rssi=-50.0):
    aoa = float(np.clip(ap.bearing_to_aoa(np.array(client)) + bias_deg, 0.0, 180.0))
    return ApObservation(ap, aoa, rssi)


class TestPeakDispersion:
    def test_single_spike_has_zero_dispersion(self):
        angles = np.linspace(0.0, 180.0, 181)
        power = np.zeros(181)
        power[90] = 1.0
        assert peak_dispersion(angles, power) == 0.0

    def test_flat_spectrum_is_dispersed(self):
        angles = np.linspace(0.0, 180.0, 181)
        dispersion = peak_dispersion(angles, np.ones(181))
        assert dispersion > 0.8

    def test_zero_spectrum_is_maximally_dispersed(self):
        angles = np.linspace(0.0, 180.0, 11)
        assert peak_dispersion(angles, np.zeros(11)) == 1.0

    def test_rejects_shape_mismatch_and_bad_window(self):
        with pytest.raises(ConfigurationError):
            peak_dispersion(np.arange(5.0), np.ones(4))
        with pytest.raises(ConfigurationError):
            peak_dispersion(np.arange(5.0), np.ones(5), window_deg=0.0)


class TestScoreApTrust:
    def test_clean_ap_scores_near_one(self):
        assert score_ap_trust(0.0) == pytest.approx(1.0)
        assert score_ap_trust(2.0) > 0.9

    def test_large_disagreement_falls_below_threshold(self):
        assert score_ap_trust(15.0) < TRUST_THRESHOLD
        assert score_ap_trust(15.0) < score_ap_trust(8.0)

    def test_solver_evidence_lowers_trust(self):
        base = score_ap_trust(3.0)
        with_outliers = score_ap_trust(3.0, ApEvidence(outlier_fraction=0.6))
        with_smear = score_ap_trust(3.0, ApEvidence(peak_dispersion=0.8))
        assert with_outliers < base
        assert with_smear < base

    def test_small_evidence_is_free(self):
        # Below-floor evidence (noise-level e energy, ordinary multipath
        # spread) must not penalize clean APs.
        clean = score_ap_trust(3.0)
        slight = score_ap_trust(
            3.0, ApEvidence(outlier_fraction=0.05, peak_dispersion=0.2)
        )
        assert slight == pytest.approx(clean)

    def test_evidence_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            ApEvidence(outlier_fraction=-0.1)
        with pytest.raises(ConfigurationError):
            ApEvidence(peak_dispersion=float("nan"))


class TestWeightedLocalization:
    def test_explicit_weights_override_rssi(self):
        client = (4.0, 3.0)
        observations = [
            truth_observation(AP_WEST, client, rssi=-40.0),
            truth_observation(AP_SOUTH, client, rssi=-70.0),
            ApObservation(AP_EAST, 40.0, -40.0),  # strong but wrong
        ]
        # Zero weight on the wrong AP recovers the clean fix even though
        # its RSSI would dominate.
        located = localize_weighted_aoa(
            observations, ROOM, weights=[1.0, 1.0, 0.0]
        )
        assert located.error_to(client) < 0.2

    def test_weights_validated(self):
        client = (4.0, 3.0)
        observations = [
            truth_observation(AP_WEST, client),
            truth_observation(AP_SOUTH, client),
        ]
        with pytest.raises(ConfigurationError):
            localize_weighted_aoa(observations, ROOM, weights=[1.0])
        with pytest.raises(ConfigurationError):
            localize_weighted_aoa(observations, ROOM, weights=[-1.0, 1.0])
        with pytest.raises(ConfigurationError):
            localize_weighted_aoa(observations, ROOM, weights=[0.0, 0.0])

    def test_trust_mapping_shrinks_bad_ap_influence(self):
        client = (4.0, 3.0)
        observations = [
            truth_observation(AP_WEST, client),
            truth_observation(AP_SOUTH, client),
            _biased_observation(AP_EAST, client, 25.0),
            truth_observation(AP_NORTH, client),
        ]
        blind = localize_robust(observations, ROOM)
        trusted = localize_robust(observations, ROOM, trust={"east": 0.01})
        assert trusted.error_to(client) < blind.error_to(client)

    def test_all_zero_trust_falls_back_to_rssi_weights(self):
        client = (4.0, 3.0)
        observations = [
            truth_observation(AP_WEST, client),
            truth_observation(AP_SOUTH, client),
        ]
        fix = localize_robust(
            observations, ROOM, trust={"west": 0.0, "south": 0.0}
        )
        assert fix.error_to(client) < 0.2


class TestConsensusLocalization:
    def _observations(self, client, bias=None):
        out = []
        for ap in ALL_APS:
            bias_deg = bias.get(ap.name, 0.0) if bias else 0.0
            out.append(_biased_observation(ap, client, bias_deg))
        return out

    def test_clean_scene_matches_robust_fix(self):
        client = (4.0, 3.0)
        cons = localize_consensus(self._observations(client), ROOM)
        robust = localize_robust(self._observations(client), ROOM)
        assert cons.position == robust.position
        assert not cons.contaminated
        assert all(score.trusted for score in cons.trust_scores)
        assert cons.used_aps == tuple(ap.name for ap in ALL_APS)

    def test_single_nlos_ap_is_flagged_and_excluded(self):
        client = (4.0, 3.0)
        cons = localize_consensus(
            self._observations(client, bias={"east": 18.0}), ROOM
        )
        assert cons.contaminated
        assert cons.trust_for("east") < TRUST_THRESHOLD
        assert "east" not in cons.used_aps
        assert any(d.name == "east" and "untrusted" in d.reason for d in cons.dropped_aps)
        assert cons.error_to(client) < 0.3

    def test_consensus_beats_blind_fix_under_nlos(self):
        client = (6.0, 5.0)
        observations = self._observations(client, bias={"north": 20.0})
        blind = localize_robust(observations, ROOM)
        cons = localize_consensus(observations, ROOM)
        assert cons.error_to(client) < blind.error_to(client)

    def test_solver_evidence_feeds_trust(self):
        client = (4.0, 3.0)
        cons = localize_consensus(
            self._observations(client),
            ROOM,
            evidence={"east": ApEvidence(outlier_fraction=0.9, peak_dispersion=0.9)},
        )
        east = [s for s in cons.trust_scores if s.name == "east"][0]
        west = [s for s in cons.trust_scores if s.name == "west"][0]
        assert east.trust < west.trust
        assert east.outlier_fraction == 0.9

    def test_majority_contamination_is_detected(self):
        client = (4.0, 3.0)
        cons = localize_consensus(
            self._observations(
                client, bias={"south": 22.0, "east": 22.0, "north": 22.0}
            ),
            ROOM,
        )
        assert cons.contaminated

    def test_below_quorum_raises(self):
        with pytest.raises(QuorumError):
            localize_consensus(
                [truth_observation(AP_WEST, (4.0, 3.0))], ROOM
            )

    def test_validates_parameters(self):
        observations = self._observations((4.0, 3.0))
        with pytest.raises(ConfigurationError):
            localize_consensus(observations, ROOM, min_quorum=1)
        with pytest.raises(ConfigurationError):
            localize_consensus(observations, ROOM, inlier_rms_deg=0.0)

    def test_deterministic(self):
        observations = self._observations((4.0, 3.0), bias={"east": 18.0})
        first = localize_consensus(observations, ROOM)
        second = localize_consensus(observations, ROOM)
        assert first == second

    def test_to_dict_is_json_serializable(self):
        import json

        cons = localize_consensus(
            self._observations((4.0, 3.0), bias={"east": 18.0}),
            ROOM,
            dropped=[DroppedAp("extra", "outage")],
        )
        payload = json.loads(json.dumps(cons.to_dict()))
        assert payload["contaminated"] is True
        assert {s["name"] for s in payload["trust_scores"]} == {
            "west", "south", "east", "north"
        }
        assert payload["dropped_aps"][0] == {"name": "extra", "reason": "outage"}

    def test_trust_for_unknown_ap_raises(self):
        cons = localize_consensus(self._observations((4.0, 3.0)), ROOM)
        with pytest.raises(KeyError):
            cons.trust_for("nonexistent")
