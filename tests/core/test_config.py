"""Validation tests for RoArrayConfig."""

import pytest

from repro.core.config import RoArrayConfig
from repro.core.grids import AngleGrid, DelayGrid
from repro.exceptions import ConfigurationError


class TestDefaults:
    def test_paper_working_point(self):
        config = RoArrayConfig()
        assert config.angle_grid.n_points == 91
        assert config.delay_grid.n_points == 50
        assert config.delay_grid.stop_s == pytest.approx(800e-9)


class TestValidation:
    def test_rejects_bad_kappa_fraction(self):
        for fraction in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ConfigurationError):
                RoArrayConfig(kappa_fraction=fraction)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ConfigurationError):
            RoArrayConfig(max_iterations=0)

    def test_rejects_zero_svd_rank(self):
        with pytest.raises(ConfigurationError):
            RoArrayConfig(svd_rank=0)

    def test_rejects_zero_max_paths(self):
        with pytest.raises(ConfigurationError):
            RoArrayConfig(max_paths=0)

    def test_rejects_bad_peak_floor(self):
        for floor in (0.0, 1.0):
            with pytest.raises(ConfigurationError):
                RoArrayConfig(peak_floor=floor)

    def test_custom_grids_accepted(self):
        config = RoArrayConfig(
            angle_grid=AngleGrid(n_points=37), delay_grid=DelayGrid(n_points=11)
        )
        assert config.angle_grid.spacing_deg == pytest.approx(5.0)

    def test_frozen(self):
        config = RoArrayConfig()
        with pytest.raises(AttributeError):
            config.max_paths = 3  # type: ignore[misc]
