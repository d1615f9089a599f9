"""Smoke and contract tests for the per-figure experiment drivers.

These runs are deliberately tiny (1–3 locations, few packets) — they
verify plumbing, determinism and result structure.  The benchmark suite
runs the figures at meaningful scale.
"""

import numpy as np
import pytest

from repro.core.pipeline import RoArrayEstimator
from repro.experiments.runner import (
    run_ap_density_experiment,
    run_calibration_experiment,
    run_fusion_experiment,
    run_iteration_progress_experiment,
    run_music_snr_experiment,
    run_polarization_experiment,
    run_snr_band_experiment,
)
from repro.exceptions import ConfigurationError


def small_systems(small_config):
    return [RoArrayEstimator(config=small_config)]


class TestBlockageCoupling:
    def test_monotone_decreasing_with_snr(self):
        from repro.experiments.runner import snr_coupled_blockage_db

        values = [snr_coupled_blockage_db(snr) for snr in (20.0, 12.0, 5.0, 0.0, -10.0)]
        assert values[0] == 0.0
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 12.0  # capped

    def test_matches_band_severity(self):
        """The deterministic coupling sits inside the band blockage ranges."""
        from repro.experiments.runner import snr_coupled_blockage_db
        from repro.experiments.scenarios import SNR_BANDS

        low = SNR_BANDS["low"]
        value = snr_coupled_blockage_db(0.0)
        assert low.blockage_low_db <= value <= low.blockage_high_db + 1.0


class TestSnrBandExperiment:
    def test_structure_and_counts(self, small_config):
        result = run_snr_band_experiment(
            "high", n_locations=2, n_packets=3, n_aps=3,
            systems=small_systems(small_config), resolution_m=0.25,
        )
        assert result.band == "high"
        cdf = result.cdf("ROArray")
        assert len(cdf) == 2
        # AoA errors: one per AP per location.
        assert len(result.cdf("ROArray", kind="aoa")) == 6
        assert len(result.cdf("ROArray", kind="direct_aoa")) == 6

    def test_deterministic_given_seed(self, small_config):
        kwargs = dict(
            n_locations=1, n_packets=2, n_aps=3, seed=5,
            systems=small_systems(small_config), resolution_m=0.25,
        )
        a = run_snr_band_experiment("medium", **kwargs)
        b = run_snr_band_experiment("medium", **kwargs)
        assert (
            a.outcomes["ROArray"][0].location_error_m
            == b.outcomes["ROArray"][0].location_error_m
        )

    def test_band_object_accepted(self, small_config):
        from repro.experiments.scenarios import SNR_BANDS

        result = run_snr_band_experiment(
            SNR_BANDS["high"], n_locations=1, n_packets=2, n_aps=3,
            systems=small_systems(small_config), resolution_m=0.25,
        )
        assert result.band == "high"

    def test_rejects_zero_locations(self, small_config):
        with pytest.raises(ConfigurationError):
            run_snr_band_experiment(
                "high", n_locations=0, systems=small_systems(small_config)
            )


class TestMusicSnrExperiment:
    def test_degradation_trend(self):
        points = run_music_snr_experiment(snrs_db=(20.0, -2.0), n_packets=4)
        assert len(points) == 2
        high, low = points
        # Fig. 2 claims: lower SNR → duller beam and (usually) worse peak.
        assert high.sharpness >= low.sharpness * 0.8
        assert all(p.spectrum.power.max() <= 1.0 + 1e-9 for p in points)

    def test_custom_system(self, small_config):
        points = run_music_snr_experiment(
            snrs_db=(15.0,), n_packets=2, system=RoArrayEstimator(config=small_config)
        )
        assert points[0].closest_peak_error_deg < 20.0


class TestIterationProgress:
    def test_sharpens_with_iterations(self):
        points = run_iteration_progress_experiment(iteration_counts=(3, 30))
        assert points[1].sharpness >= points[0].sharpness
        assert points[1].closest_peak_error_deg <= points[0].closest_peak_error_deg + 3.0

    def test_reports_all_counts(self):
        points = run_iteration_progress_experiment(iteration_counts=(3, 6, 9))
        assert [p.iterations for p in points] == [3, 6, 9]


class TestFusionExperiment:
    def test_fused_at_least_as_accurate(self):
        result = run_fusion_experiment(n_packets=8, n_single_examples=2, snr_db=5.0)
        assert len(result.single_spectra) == 2
        assert result.fused_direct_aoa_error_deg <= max(
            result.single_direct_aoa_errors_deg
        ) + 2.0

    def test_single_packet_toas_scatter(self):
        """Fig. 4a/b: different detection delays → different ToA peaks."""
        result = run_fusion_experiment(n_packets=6, n_single_examples=4, snr_db=15.0)
        toas = np.array(result.single_direct_toas_s)
        assert toas.std() > 0.0


class TestApDensity:
    @pytest.mark.slow
    def test_returns_cdf_per_count(self):
        results = run_ap_density_experiment(
            ap_counts=(3, 4), n_locations=2, n_packets=3, resolution_m=0.25
        )
        assert set(results.keys()) == {3, 4}
        for cdf in results.values():
            assert len(cdf) == 2


class TestCalibrationExperiment:
    @pytest.mark.slow
    def test_modes_present(self):
        results = run_calibration_experiment(
            modes=("roarray", "none"), n_locations=2, n_packets=3, n_aps=3,
            resolution_m=0.25,
        )
        assert set(results.keys()) == {"roarray", "none"}
        for cdf in results.values():
            assert len(cdf) == 2


class TestPolarizationExperiment:
    @pytest.mark.slow
    def test_ranges_reported(self):
        results = run_polarization_experiment(
            deviation_ranges_deg=((0.0, 0.0), (20.0, 45.0)),
            n_locations=2, n_packets=3, n_aps=3, resolution_m=0.25,
        )
        assert len(results) == 2
        for cdf in results.values():
            assert len(cdf) == 2
