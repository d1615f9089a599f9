"""Service-level drills from the one catalogue, and the scorecard."""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.faults.drills import DRILLS, SCORECARD_VERSION, run_drills

pytestmark = pytest.mark.chaos

SERVE_DRILLS = (
    "baseline",
    "ap_blackout",
    "queue_storm",
    "corrupted_packets",
    "mid_stream_crash",
)


@pytest.fixture(scope="module")
def scorecard():
    """One full pass over every service drill (the expensive part, run once)."""
    return run_drills(SERVE_DRILLS, seed=7)


def _outcome(scorecard, name):
    return {s["name"]: s for s in scorecard["scenarios"]}[name]


class TestScenarios:
    def test_every_scenario_passes(self, scorecard):
        verdicts = {s["name"]: s["passed"] for s in scorecard["scenarios"]}
        assert verdicts == {name: True for name in SERVE_DRILLS}
        assert scorecard["passed"] and scorecard["n_passed"] == len(SERVE_DRILLS)

    def test_blackout_detected_and_survived(self, scorecard):
        details = _outcome(scorecard, "ap_blackout")["details"]
        assert details["dark_ap_status"] == "outage"
        assert details["n_fixes"] > 0

    def test_storm_is_taxonomized_not_thrown(self, scorecard):
        details = _outcome(scorecard, "queue_storm")["details"]
        assert details["reject_counts"].get("queue_full", 0) > 0
        assert details["backpressure_escalations"] >= 1

    def test_breaker_trips_on_corruption(self, scorecard):
        details = _outcome(scorecard, "corrupted_packets")["details"]
        assert details["breaker_trips"] >= 1
        assert details["breaker_state"] == "open"

    def test_crash_recovery_journals_identical(self, scorecard):
        details = _outcome(scorecard, "mid_stream_crash")["details"]
        assert details["journals_identical"]
        assert details["n_restarts"] == len(details["crash_points"])


class TestScorecard:
    def test_scorecard_shape(self, scorecard):
        assert scorecard["version"] == SCORECARD_VERSION == 2
        assert scorecard["passed"] is True
        assert scorecard["seed"] == 7
        assert scorecard["n_scenarios"] == len(SERVE_DRILLS)
        assert [s["name"] for s in scorecard["scenarios"]] == list(SERVE_DRILLS)
        for entry in scorecard["scenarios"]:
            assert set(entry) == {"name", "passed", "details"}
        # The scorecard is the CI artifact: it must be JSON-serializable.
        json.dumps(scorecard)

    def test_catalogue_order(self):
        assert list(DRILLS) == [
            *SERVE_DRILLS,
            "nlos_single_ap",
            "nlos_majority",
            "ghost_multipath",
        ]


class TestSelection:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="power_cut"):
            run_drills(["power_cut"])

    def test_subset_runs_only_named(self):
        result = run_drills(["queue_storm"])
        assert [s["name"] for s in result["scenarios"]] == ["queue_storm"]
        assert result["passed"]

    def test_serve_drills_ignore_checkpoint_dir(self, tmp_path):
        # A service drill never restores from (or writes to) a checkpoint
        # directory: a rerun against the same directory replays nothing
        # and delivers every fix again.
        runs = [
            run_drills(["baseline"], checkpoint_dir=tmp_path)["scenarios"][0]
            for _ in range(2)
        ]
        assert all(run["passed"] for run in runs)
        assert runs[1]["details"]["n_fixes"] == runs[0]["details"]["n_fixes"] > 0
        assert list(tmp_path.iterdir()) == []
