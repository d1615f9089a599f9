"""Tests for delay alignment, SVD reduction and multi-packet fusion."""

import numpy as np
import pytest

from repro.channel.csi import CsiSynthesizer, synthesize_csi_matrix
from repro.channel.impairments import ImpairmentModel
from repro.channel.paths import MultipathProfile, PropagationPath, random_profile
from repro.core.fusion import (
    _delay_ramp_bank,
    align_packet_delays,
    estimate_relative_delay,
    fuse_packets,
    svd_reduce_snapshots,
)
from repro.core.grids import AngleGrid, DelayGrid
from repro.core.steering import SteeringCache
from repro.exceptions import SolverError


@pytest.fixture
def cache(array, layout):
    return SteeringCache(
        array, layout, AngleGrid(n_points=61), DelayGrid(n_points=21, stop_s=800e-9)
    )


class TestRelativeDelay:
    def test_recovers_known_shift(self, array, layout, two_path_profile):
        base = synthesize_csi_matrix(two_path_profile, array, layout)
        for true_delay in (0.0, 25e-9, 120e-9, 300e-9):
            shifted = synthesize_csi_matrix(
                two_path_profile, array, layout, extra_delay_s=true_delay
            )
            estimated = estimate_relative_delay(base, shifted, layout)
            assert estimated == pytest.approx(true_delay, abs=2e-9)

    def test_negative_shift(self, array, layout, two_path_profile):
        late = synthesize_csi_matrix(two_path_profile, array, layout, extra_delay_s=100e-9)
        early = synthesize_csi_matrix(two_path_profile, array, layout, extra_delay_s=20e-9)
        assert estimate_relative_delay(late, early, layout) == pytest.approx(-80e-9, abs=2e-9)

    def test_robust_to_noise(self, array, layout, two_path_profile, rng):
        from repro.channel.noise import awgn

        base = awgn(synthesize_csi_matrix(two_path_profile, array, layout), 0.0, rng)
        shifted = awgn(
            synthesize_csi_matrix(two_path_profile, array, layout, extra_delay_s=150e-9),
            0.0,
            rng,
        )
        assert estimate_relative_delay(base, shifted, layout) == pytest.approx(150e-9, abs=10e-9)

    def test_rejects_shape_mismatch(self, layout):
        with pytest.raises(SolverError):
            estimate_relative_delay(np.zeros((3, 16)), np.zeros((3, 8)), layout)


class TestAlignment:
    def test_aligned_packets_become_identical(self, array, layout, two_path_profile):
        delays = [0.0, 60e-9, 140e-9]
        batch = np.stack(
            [
                synthesize_csi_matrix(two_path_profile, array, layout, extra_delay_s=d)
                for d in delays
            ]
        )
        aligned, estimated = align_packet_delays(batch, layout)
        np.testing.assert_allclose(estimated, [0.0, 60e-9, 140e-9], atol=2e-9)
        for p in range(1, 3):
            np.testing.assert_allclose(aligned[p], aligned[0], atol=1e-3)

    def test_rejects_2d(self, layout):
        with pytest.raises(SolverError):
            align_packet_delays(np.zeros((3, 16)), layout)

    def test_matches_per_packet_reference_formula(self, layout, rng):
        """The shared ramp bank, every delay and every aligned packet are
        bit-identical to the per-packet formula."""
        batch = rng.standard_normal((5, 3, 16)) + 1j * rng.standard_normal((5, 3, 16))
        aligned, delays = align_packet_delays(batch, layout)

        candidates = np.arange(-400e-9, 400e-9 + 1e-9, 1e-9)
        subcarriers = np.arange(16)
        ramps = np.exp(2j * np.pi * layout.spacing * candidates[:, None] * subcarriers[None, :])
        bank_candidates, bank_ramps = _delay_ramp_bank(layout.spacing, 16, 400e-9, 1e-9)
        assert np.array_equal(bank_candidates, candidates)
        assert np.array_equal(bank_ramps, ramps)
        expected = batch.copy()
        expected_delays = np.zeros(5)
        for p in range(1, 5):
            cross = np.mean(batch[p] * batch[0].conj(), axis=0)
            expected_delays[p] = float(candidates[int(np.argmax(np.abs(ramps @ cross)))])
            compensation = np.exp(2j * np.pi * layout.spacing * expected_delays[p] * subcarriers)
            expected[p] = batch[p] * compensation[None, :]
        assert np.array_equal(delays, expected_delays)
        assert np.array_equal(aligned, expected)

    def test_ramp_bank_is_read_only(self, layout):
        candidates, ramps = _delay_ramp_bank(layout.spacing, 16, 400e-9, 1e-9)
        assert ramps.shape == (candidates.size, 16)
        with pytest.raises(ValueError):
            ramps[0, 0] = 0.0
        with pytest.raises(ValueError):
            candidates[0] = 0.0


class TestSvdReduce:
    def test_preserves_column_space(self, rng):
        y = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 12))
        reduced = svd_reduce_snapshots(y, rank=3)
        assert reduced.shape == (20, 3)
        # Column spaces coincide for an exactly rank-3 matrix.
        q_full, _ = np.linalg.qr(y[:, :3])
        projection = q_full @ (q_full.T @ reduced)
        np.testing.assert_allclose(projection, reduced, atol=1e-8)

    def test_no_op_when_already_small(self, rng):
        y = rng.standard_normal((10, 2))
        assert svd_reduce_snapshots(y, rank=5) is y

    def test_preserves_frobenius_energy_of_signal(self, rng):
        y = rng.standard_normal((15, 2)) @ rng.standard_normal((2, 30))
        reduced = svd_reduce_snapshots(y, rank=2)
        assert np.linalg.norm(reduced) == pytest.approx(np.linalg.norm(y), rel=1e-9)

    def test_rejects_bad_rank(self, rng):
        with pytest.raises(SolverError):
            svd_reduce_snapshots(rng.standard_normal((4, 4)), rank=0)


class TestFusePackets:
    def test_fused_sharper_than_single_at_low_snr(self, array, layout, cache, rng):
        """The paper Fig. 4 claim: fusion sharpens the spectrum."""
        profile = random_profile(rng, n_paths=3, direct_aoa_deg=120.0)
        synthesizer = CsiSynthesizer(array, layout, ImpairmentModel(), seed=0)
        trace = synthesizer.packets(profile, n_packets=15, snr_db=2.0, rng=rng)

        from repro.core.joint import estimate_joint_spectrum

        single, _ = estimate_joint_spectrum(trace.packet(0), cache)
        ((fused, _),) = fuse_packets([trace.csi], cache)
        single_error = single.angle_marginal().closest_peak_error(120.0, max_peaks=4)
        fused_error = fused.angle_marginal().closest_peak_error(120.0, max_peaks=4)
        assert fused_error <= single_error + 2.0

    def test_single_packet_input_accepted(self, array, layout, cache, two_path_profile, rng):
        csi = synthesize_csi_matrix(two_path_profile, array, layout)
        ((spectrum, _),) = fuse_packets([csi], cache)
        assert spectrum.power.shape == (61, 21)

    def test_alignment_flag_matters_with_large_delays(self, array, layout, cache, rng):
        """Without alignment the joint-support assumption breaks."""
        profile = MultipathProfile(
            paths=[PropagationPath(90.0, 100e-9, 1.0, is_direct=True)]
        )
        impairments = ImpairmentModel(detection_delay_range_s=400e-9, sfo_std_s=0.0)
        synthesizer = CsiSynthesizer(array, layout, impairments, seed=0)
        trace = synthesizer.packets(profile, n_packets=8, snr_db=15.0, rng=rng)

        ((aligned, _),) = fuse_packets([trace.csi], cache, align_delays=True)
        ((unaligned, _),) = fuse_packets([trace.csi], cache, align_delays=False)
        # Aligned: a single dominant ToA ridge.  Unaligned: energy smeared
        # across many delays.
        def toa_spread(spectrum):
            marginal = spectrum.power.max(axis=0)
            marginal = marginal / marginal.max()
            return np.count_nonzero(marginal > 0.3)

        assert toa_spread(aligned) <= toa_spread(unaligned)

    def test_deterministic(self, array, layout, cache, two_path_profile):
        rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
        synth1 = CsiSynthesizer(array, layout, ImpairmentModel(), seed=1)
        synth2 = CsiSynthesizer(array, layout, ImpairmentModel(), seed=1)
        t1 = synth1.packets(two_path_profile, n_packets=3, snr_db=10.0, rng=rng1)
        t2 = synth2.packets(two_path_profile, n_packets=3, snr_db=10.0, rng=rng2)
        ((s1, _),) = fuse_packets([t1.csi], cache)
        ((s2, _),) = fuse_packets([t2.csi], cache)
        np.testing.assert_allclose(s1.power, s2.power)

    def test_rejects_a_bare_packet_array(self, array, layout, cache, two_path_profile):
        csi = synthesize_csi_matrix(two_path_profile, array, layout)
        with pytest.raises(SolverError, match="sequence of packet batches"):
            fuse_packets(np.stack([csi, csi]), cache)

    def test_batches_fuse_as_they_do_alone(self, array, layout, cache, rng):
        """Several batches, of two snapshot widths, give each batch's lone
        solve: the same solution, objective and iterations."""
        synthesizer = CsiSynthesizer(array, layout, ImpairmentModel(), seed=2)
        batches = [
            synthesizer.packets(
                random_profile(rng, n_paths=3, direct_aoa_deg=40.0 + 25.0 * i),
                n_packets=n_packets, snr_db=8.0, rng=rng,
            ).csi
            for i, n_packets in enumerate((8, 3, 8, 8, 3))
        ]
        together = fuse_packets(batches, cache, max_iterations=80)
        for csi, (spectrum, result) in zip(batches, together):
            ((alone_spectrum, alone),) = fuse_packets([csi], cache, max_iterations=80)
            np.testing.assert_array_equal(result.x, alone.x)
            assert result.objective == alone.objective
            assert result.iterations == alone.iterations
            np.testing.assert_array_equal(spectrum.power, alone_spectrum.power)
