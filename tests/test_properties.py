"""Cross-cutting property-based tests (hypothesis).

These pin the invariants that hold across the whole parameter space,
complementing the example-based tests in each module's suite.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.array import UniformLinearArray
from repro.channel.csi import synthesize_csi_matrix
from repro.channel.geometry import AccessPoint, Room, trace_paths
from repro.channel.ofdm import SubcarrierLayout
from repro.channel.paths import MultipathProfile, PropagationPath
from repro.core.steering import vectorize_csi_matrix

angles = st.floats(0.0, 180.0, allow_nan=False)
delays = st.floats(0.0, 700e-9, allow_nan=False)


class TestSteeringInvariants:
    @given(angles, delays)
    @settings(max_examples=40, deadline=None)
    def test_csi_magnitude_is_gain_magnitude(self, aoa, toa):
        """A unit-gain single path yields |CSI| ≡ 1 at every cell —
        steering only rotates phases."""
        array = UniformLinearArray()
        layout = SubcarrierLayout(n_subcarriers=8, spacing=1.25e6)
        profile = MultipathProfile(paths=[PropagationPath(aoa, toa, 1.0, is_direct=True)])
        csi = synthesize_csi_matrix(profile, array, layout)
        np.testing.assert_allclose(np.abs(csi), 1.0, atol=1e-12)

    @given(angles, delays, st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_linearity_in_gain(self, aoa, toa, gain):
        array = UniformLinearArray()
        layout = SubcarrierLayout(n_subcarriers=8, spacing=1.25e6)
        unit = MultipathProfile(paths=[PropagationPath(aoa, toa, 1.0, is_direct=True)])
        scaled = MultipathProfile(paths=[PropagationPath(aoa, toa, gain, is_direct=True)])
        np.testing.assert_allclose(
            synthesize_csi_matrix(scaled, array, layout),
            gain * synthesize_csi_matrix(unit, array, layout),
            atol=1e-9,
        )

    @given(angles, delays)
    @settings(max_examples=40, deadline=None)
    def test_vectorization_preserves_energy(self, aoa, toa):
        array = UniformLinearArray()
        layout = SubcarrierLayout(n_subcarriers=8, spacing=1.25e6)
        profile = MultipathProfile(paths=[PropagationPath(aoa, toa, 0.7j, is_direct=True)])
        csi = synthesize_csi_matrix(profile, array, layout)
        assert np.linalg.norm(vectorize_csi_matrix(csi)) == pytest.approx(
            np.linalg.norm(csi)
        )


class TestGeometryInvariants:
    @given(st.floats(1.0, 17.0), st.floats(1.0, 11.0))
    @settings(max_examples=40, deadline=None)
    def test_direct_path_is_always_earliest(self, x, y):
        room = Room()
        receiver = AccessPoint(position=(0.0, 6.0), axis_direction_deg=90.0)
        if (x, y) == (0.0, 6.0):
            return
        profile = trace_paths(room, np.array([x, y]), receiver, 0.056, max_reflections=2)
        assert profile.direct_path.toa_s == min(profile.toas_s)

    @given(st.floats(1.0, 17.0), st.floats(1.0, 11.0))
    @settings(max_examples=40, deadline=None)
    def test_all_aoas_in_physical_range(self, x, y):
        room = Room()
        receiver = AccessPoint(position=(9.0, 0.0), axis_direction_deg=0.0)
        profile = trace_paths(room, np.array([x, y]), receiver, 0.056, max_reflections=2)
        assert np.all((profile.aoas_deg >= 0.0) & (profile.aoas_deg <= 180.0))

    @given(st.floats(1.0, 17.0), st.floats(1.0, 11.0))
    @settings(max_examples=40, deadline=None)
    def test_reflections_never_stronger_than_direct(self, x, y):
        room = Room(reflection_coefficient=0.7)
        receiver = AccessPoint(position=(0.0, 6.0), axis_direction_deg=90.0)
        profile = trace_paths(room, np.array([x, y]), receiver, 0.056, max_reflections=2)
        direct_gain = abs(profile.direct_path.gain)
        for path in profile.paths:
            if not path.is_direct:
                assert abs(path.gain) <= direct_gain + 1e-12
