"""End-to-end NLOS drill harness tests.

The full 10-trial drills run in CI's ``drills`` job (and via
``roarray chaos --scenario nlos_*``); here we pin the harness contract
on a reduced working point: validation, scorecard shape, and the same
determinism guarantees the chaos runner makes — identical results at
any worker count and across a checkpoint resume.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import RoArrayConfig
from repro.core.grids import AngleGrid, DelayGrid
from repro.exceptions import ConfigurationError
from repro.faults.drills import DrillOutcome
from repro.faults.nlos import NLOS_SCENARIOS, nlos_scenario, run_nlos_drill

pytestmark = pytest.mark.chaos


def _kwargs() -> dict:
    return dict(
        n_trials=2,
        seed=5,
        config=RoArrayConfig(
            angle_grid=AngleGrid(n_points=61),
            delay_grid=DelayGrid(n_points=21, stop_s=800e-9),
            max_iterations=150,
        ),
    )


def _drill_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestDrillValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown NLOS scenario"):
            run_nlos_drill("nlos_everything")

    def test_bad_trial_count_rejected(self):
        with pytest.raises(ConfigurationError, match="n_trials"):
            run_nlos_drill("nlos_single_ap", n_trials=0)

    def test_sub_floor_bias_rejected(self):
        with pytest.raises(ConfigurationError, match="bias_deg"):
            run_nlos_drill("nlos_single_ap", bias_deg=10.0)

    def test_scenario_victims_validated(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            nlos_scenario("nlos_single_ap", n_aps=4, victims=(7,))

    def test_scenario_catalogue(self):
        assert NLOS_SCENARIOS == ("nlos_single_ap", "nlos_majority", "ghost_multipath")


class TestDrillHarness:
    def test_drill_shape_and_scorecard(self):
        result = run_nlos_drill("nlos_single_ap", **_kwargs())
        assert isinstance(result, DrillOutcome)
        assert result.name == "nlos_single_ap"
        trials = result.details["trials"]
        assert len(trials) == 2
        for trial in trials:
            assert len(trial["victims"]) == 1
            assert set(trial["trust"]) <= set(trial["evidence"])
            assert trial["clean_error_m"] >= 0.0
        assert result.passed == all(result.details["checks"].values())
        entry = result.to_dict()
        assert set(entry) == {"name", "passed", "details"}
        json.dumps(entry)  # must be JSON-serializable as-is

    def test_majority_drill_rotates_honest_ap(self):
        result = run_nlos_drill("nlos_majority", **_kwargs())
        for trial in result.details["trials"]:
            assert len(trial["victims"]) == 3

    def test_workers_parity(self):
        serial = run_nlos_drill("ghost_multipath", **_kwargs(), workers=0)
        parallel = run_nlos_drill("ghost_multipath", **_kwargs(), workers=2)
        assert _drill_json(serial) == _drill_json(parallel)

    def test_checkpoint_resume_is_byte_identical(self, tmp_path):
        reference = run_nlos_drill("nlos_single_ap", **_kwargs())
        first = run_nlos_drill("nlos_single_ap", **_kwargs(), checkpoint_dir=tmp_path)
        assert _drill_json(first) == _drill_json(reference)

        # Preempt: truncate the faulted-batch journal to a partial prefix,
        # the state a killed run leaves behind after torn-tail recovery.
        journal = tmp_path / "nlos_nlos_single_ap_faulted.jsonl"
        lines = journal.read_text().splitlines()
        assert len(lines) > 3
        journal.write_text("\n".join(lines[:3]) + "\n")

        resumed = run_nlos_drill("nlos_single_ap", **_kwargs(), checkpoint_dir=tmp_path)
        assert _drill_json(resumed) == _drill_json(reference)
