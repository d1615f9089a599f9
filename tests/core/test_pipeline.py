"""End-to-end tests for the ROArray estimator."""

import numpy as np
import pytest

from repro.channel.csi import CsiSynthesizer
from repro.channel.impairments import ImpairmentModel
from repro.channel.paths import random_profile
from repro.core.config import RoArrayConfig
from repro.core.grids import AngleGrid, DelayGrid
from repro.core.pipeline import RoArrayEstimator


@pytest.fixture
def estimator(small_config):
    return RoArrayEstimator(config=small_config)


def trace_for(estimator, rng, *, n_packets=5, snr_db=15.0, direct_aoa=150.0, blockage_db=0.0):
    profile = random_profile(
        rng, n_paths=4, direct_aoa_deg=direct_aoa, direct_toa_s=30e-9
    ).with_direct_attenuation(blockage_db)
    synthesizer = CsiSynthesizer(estimator.array, estimator.layout, ImpairmentModel(), seed=3)
    return synthesizer.packets(profile, n_packets=n_packets, snr_db=snr_db, rng=rng)


class TestDirectPath:
    def test_single_packet_operation(self, estimator, rng):
        """The §I claim: works with as little as one packet."""
        trace = trace_for(estimator, rng, n_packets=1)
        estimate = estimator.estimate_direct_path(trace)
        assert estimate.aoa_deg == pytest.approx(150.0, abs=10.0)

    def test_multi_packet_operation(self, estimator, rng):
        trace = trace_for(estimator, rng, n_packets=10)
        estimate = estimator.estimate_direct_path(trace)
        assert estimate.aoa_deg == pytest.approx(150.0, abs=6.0)

    def test_low_snr_with_blockage(self, estimator, rng):
        """The headline robustness: blocked LoS at 0 dB still localized."""
        trace = trace_for(estimator, rng, n_packets=15, snr_db=0.0, blockage_db=6.0)
        estimate = estimator.estimate_direct_path(trace)
        assert estimate.aoa_deg == pytest.approx(150.0, abs=15.0)

    def test_estimate_reports_toa_within_grid(self, estimator, rng):
        trace = trace_for(estimator, rng)
        estimate = estimator.estimate_direct_path(trace)
        assert 0 <= estimate.toa_s <= estimator.config.delay_grid.stop_s

    def test_analyze_candidates_contain_direct(self, estimator, rng):
        trace = trace_for(estimator, rng)
        analysis = estimator.analyze(trace)
        assert analysis.direct.aoa_deg in analysis.candidate_aoas_deg


class TestSpectra:
    def test_aoa_spectrum_grid(self, estimator, rng):
        trace = trace_for(estimator, rng)
        spectrum = estimator.aoa_spectrum(trace)
        assert spectrum.angles_deg.size == estimator.config.angle_grid.n_points

    def test_joint_spectrum_grids(self, estimator, rng):
        trace = trace_for(estimator, rng)
        spectrum = estimator.joint_spectrum(trace)
        assert spectrum.power.shape == (
            estimator.config.angle_grid.n_points,
            estimator.config.delay_grid.n_points,
        )

    def test_packet_selection(self, estimator, rng):
        trace = trace_for(estimator, rng, n_packets=3)
        s0 = estimator.joint_spectrum(trace, packet=0)
        s2 = estimator.joint_spectrum(trace, packet=2)
        assert not np.allclose(s0.power, s2.power)


class TestConfiguration:
    def test_default_construction(self):
        estimator = RoArrayEstimator()
        assert estimator.array.n_antennas == 3
        assert estimator.layout.n_subcarriers == 30

    def test_custom_grids_flow_through(self):
        config = RoArrayConfig(
            angle_grid=AngleGrid(n_points=31), delay_grid=DelayGrid(n_points=11)
        )
        estimator = RoArrayEstimator(config=config)
        assert estimator.cache.joint_dictionary.shape == (90, 31 * 11)

    def test_name(self):
        assert RoArrayEstimator().name == "ROArray"
