"""Preprocessing-stage tests: STO removal golden + properties."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.io.matio import read_spotfi_mat
from repro.io.stages import (
    PhaseOffsetCorrection,
    PreprocessingStage,
    QuarantineGate,
    StoRemoval,
    default_stages,
    run_stages,
    subcarrier_indices,
)


class TestSubcarrierIndices:
    def test_20mhz_grid(self):
        indices = subcarrier_indices(20)
        assert indices.shape == (30,)
        assert indices[0] == -28 and indices[-1] == 28
        assert np.all(np.diff(indices) > 0)

    def test_40mhz_grid(self):
        indices = subcarrier_indices(40)
        assert indices.shape == (30,)
        assert indices[0] == -58 and indices[-1] == 58

    def test_rejects_other_bandwidths(self):
        with pytest.raises(ConfigurationError):
            subcarrier_indices(80)

    def test_rejects_wrong_grouping(self):
        with pytest.raises(ConfigurationError):
            subcarrier_indices(20, grouping=4)


class TestStoGolden:
    """The committed .mat capture pinned through SpotFi STO removal."""

    def test_matches_pinned_output(self, fixture_dir):
        trace = read_spotfi_mat(fixture_dir / "sample_spotfi.mat")
        cleaned, report = StoRemoval.for_bandwidth(20).apply(trace)
        golden = np.load(fixture_dir / "sto_golden.npz")
        np.testing.assert_allclose(cleaned.csi, golden["cleaned_csi"], atol=1e-12)
        np.testing.assert_allclose(
            report.details["slopes_rad"], golden["slopes_rad"], atol=1e-12
        )
        np.testing.assert_allclose(
            report.details["delays_ns"], golden["delays_ns"], atol=1e-9
        )
        assert report.changed


class TestStoProperties:
    def test_idempotent_on_multipath(self, smooth_trace):
        stage = StoRemoval()
        once, report1 = stage.apply(smooth_trace)
        twice, report2 = stage.apply(once)
        assert report1.changed
        # Second pass finds nothing left: zero slope, zero intercept.
        assert report2.metrics["max_abs_slope_rad"] < 1e-10
        np.testing.assert_allclose(twice.csi, once.csi, atol=1e-9)

    def test_zero_slope_fixed_point(self, smooth_trace):
        # A trace whose ramp was already removed is a fixed point: the
        # stage returns the *same object* (changed=False contract).
        stage = StoRemoval()
        cleaned, _ = stage.apply(smooth_trace)
        again, report = stage.apply(cleaned)
        slopes = np.asarray(report.details["slopes_rad"])
        assert np.max(np.abs(slopes)) < 1e-10
        np.testing.assert_allclose(again.csi, cleaned.csi, atol=1e-9)

    def test_preserves_antenna_phase_differences(self, smooth_trace):
        # The removed ramp is common to all antennas, so inter-antenna
        # phase (the AoA information) must be untouched.
        cleaned, _ = StoRemoval().apply(smooth_trace)
        before = smooth_trace.csi[:, 1:, :] * np.conj(smooth_trace.csi[:, :1, :])
        after = cleaned.csi[:, 1:, :] * np.conj(cleaned.csi[:, :1, :])
        np.testing.assert_allclose(np.angle(after), np.angle(before), atol=1e-9)

    def test_removes_injected_ramp(self, smooth_trace):
        indices = np.arange(smooth_trace.n_subcarriers, dtype=float)
        ramp = np.exp(-1j * 0.21 * indices)
        from dataclasses import replace

        ramped = replace(smooth_trace, csi=smooth_trace.csi * ramp)
        base_clean, _ = StoRemoval().apply(smooth_trace)
        ramp_clean, report = StoRemoval().apply(ramped)
        np.testing.assert_allclose(ramp_clean.csi, base_clean.csi, atol=1e-9)
        slopes = np.asarray(report.details["slopes_rad"])
        # Injected slope on top of the trace's own detection delays.
        base_slopes = np.asarray(
            StoRemoval().apply(smooth_trace)[1].details["slopes_rad"]
        )
        np.testing.assert_allclose(slopes - base_slopes, -0.21, atol=1e-9)

    def test_index_count_mismatch_rejected(self, smooth_trace):
        stage = StoRemoval(indices=np.arange(5, dtype=float))
        with pytest.raises(ConfigurationError, match="subcarrier"):
            stage.apply(smooth_trace)


class TestOtherStages:
    def test_phase_offset_correction_identity_on_zero(self, smooth_trace):
        stage = PhaseOffsetCorrection(offsets_rad=(0.0, 0.0, 0.0))
        out, report = stage.apply(smooth_trace)
        assert out is smooth_trace
        assert not report.changed

    def test_phase_offset_correction_undoes_offsets(self, smooth_trace):
        from repro.core.calibration import apply_phase_calibration

        offsets = (0.0, 0.4, -0.9)
        from dataclasses import replace

        skewed = replace(
            smooth_trace,
            csi=apply_phase_calibration(smooth_trace.csi, -np.asarray(offsets)),
        )
        corrected, report = PhaseOffsetCorrection(offsets_rad=offsets).apply(skewed)
        assert report.changed
        np.testing.assert_allclose(corrected.csi, smooth_trace.csi, atol=1e-12)

    def test_quarantine_gate_identity_on_clean(self, smooth_trace):
        out, report = QuarantineGate().apply(smooth_trace)
        assert out is smooth_trace
        assert not report.changed

    def test_quarantine_gate_drops_nan_packets(self, smooth_trace):
        from dataclasses import replace

        csi = smooth_trace.csi.copy()
        csi[1] = np.nan
        out, report = QuarantineGate().apply(replace(smooth_trace, csi=csi))
        assert report.changed
        assert out.n_packets == smooth_trace.n_packets - 1

    def test_stages_satisfy_protocol(self):
        for stage in (StoRemoval(), PhaseOffsetCorrection((0.0,)), QuarantineGate()):
            assert isinstance(stage, PreprocessingStage)


class TestRunStages:
    def test_reports_in_order(self, smooth_trace):
        stages = [StoRemoval(), QuarantineGate()]
        _, reports = run_stages(smooth_trace, stages)
        assert [r.stage for r in reports] == ["sto-removal", "quarantine-gate"]

    def test_empty_pipeline_is_identity(self, smooth_trace):
        out, reports = run_stages(smooth_trace, [])
        assert out is smooth_trace
        assert reports == []

    def test_spans_emitted(self, smooth_trace):
        from repro.obs import Tracer

        tracer = Tracer()
        run_stages(smooth_trace, [StoRemoval()], tracer=tracer)
        names = [span.name for span in tracer.spans]
        assert "preprocess" in names


class TestDefaultStages:
    @pytest.mark.parametrize(
        "source_format, expected",
        [
            ("intel-dat", ["sto-removal", "quarantine-gate"]),
            ("spotfi-mat", ["sto-removal", "quarantine-gate"]),
            ("synthetic", ["quarantine-gate"]),
            ("", ["quarantine-gate"]),
        ],
    )
    def test_pipeline_by_provenance(self, source_format, expected):
        assert [s.name for s in default_stages(source_format)] == expected

    def test_intel_uses_raw_40mhz_grid(self):
        stage = default_stages("intel-dat")[0]
        np.testing.assert_array_equal(stage.indices, subcarrier_indices(40))
