"""The NLOS bias sweep at reduced scale: baseline row and point count."""

from __future__ import annotations

import pytest

from repro.core.config import RoArrayConfig
from repro.core.grids import AngleGrid, DelayGrid
from repro.exceptions import ConfigurationError
from repro.experiments.nlos import format_sweep_table, run_nlos_sweep, sweep_improvement
from repro.faults.nlos import run_nlos_drill

pytestmark = pytest.mark.chaos

_CONFIG = RoArrayConfig(
    angle_grid=AngleGrid(n_points=61),
    delay_grid=DelayGrid(n_points=21, stop_s=800e-9),
    max_iterations=150,
)


@pytest.fixture(scope="module")
def sweep():
    return run_nlos_sweep(biases=(15.0, 30.0), n_trials=2, seed=5, config=_CONFIG)


class TestNlosSweep:
    def test_one_point_per_bias_after_the_baseline(self, sweep):
        assert [point.bias_deg for point in sweep.points] == [0.0, 15.0, 30.0]
        assert sweep.n_trials == 2 and sweep.seed == 5

    def test_baseline_row_is_the_clean_median(self, sweep):
        baseline, first = sweep.points[0], sweep.points[1]
        assert baseline.detection_rate is None
        assert baseline.false_flag_rate is None
        assert baseline.clean_median_m == first.clean_median_m
        assert baseline.blind_median_m == baseline.clean_median_m
        assert baseline.consensus_median_m == baseline.clean_median_m

    def test_points_match_the_drill_criteria(self, sweep):
        drill = run_nlos_drill(
            "nlos_single_ap", n_trials=2, bias_deg=30.0, seed=5, config=_CONFIG
        )
        last = sweep.points[-1]
        assert last.blind_median_m == drill.details["blind_median_m"]
        assert last.consensus_median_m == drill.details["consensus_median_m"]
        assert last.detection_rate == drill.details["detection_rate"]

    def test_table_and_improvement_render(self, sweep):
        table = format_sweep_table(sweep)
        assert table.count("\n") == 1 + len(sweep.points)
        assert "0 (clean)" in table
        assert sweep_improvement(sweep) > 0.0

    def test_sub_floor_bias_rejected(self):
        with pytest.raises(ConfigurationError, match="detectability floor"):
            run_nlos_sweep(biases=(10.0,))
