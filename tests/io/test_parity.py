"""Bit parity of whole-capture ingest with one-record-at-a-time references.

``repro.io`` decodes, scales and phase-fits each capture as one array
stack; :mod:`tests.io.reference` runs the same arithmetic one value,
record or packet at a time.  Every comparison is exact — the stacked
path must reproduce the per-record result bit for bit, which is what
keeps ingested artifacts byte-identical.
"""

import itertools

import numpy as np
import pytest

import repro.io.calibration as calibration
from repro.io.intel import read_intel_dat, write_intel_dat
from repro.io.stages import StoRemoval, fit_phase_slope, subcarrier_indices
from tests.io import reference
from tests.io.conftest import FIXTURE_DIR

# Seeded 3-stream captures read at 40 MHz, which has no published Q.
pytestmark = pytest.mark.filterwarnings("ignore:no spatial-mapping matrix")

FIXTURES = sorted(FIXTURE_DIR.glob("*.dat"))
SHAPES = list(itertools.product((1, 2, 3), repeat=2))


def seeded_capture(directory, seed):
    """A random well-formed capture: shape, length and metadata drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n_rx, n_tx = SHAPES[seed % len(SHAPES)]
    shape = (int(rng.integers(1, 40)), n_rx, n_tx, 30)
    csi = rng.integers(-128, 128, size=shape) + 1j * rng.integers(-128, 128, size=shape)
    perm = rng.permutation(3)
    rssi = tuple(int(v) for v in rng.integers(0, 60, size=3) * (rng.random(3) < 0.8))
    return write_intel_dat(
        directory / f"seeded{seed}.dat",
        csi,
        timestamps_us=np.cumsum(rng.integers(1, 50_000, size=shape[0])),
        rssi=rssi,
        noise=int(rng.choice([-127, -95, -92, -88])),
        agc=int(rng.integers(20, 60)),
        antenna_sel=int(perm[0] | perm[1] << 2 | perm[2] << 4),
    )


def capture_names(min_rx=1):
    seeds = [s for s in range(18) if SHAPES[s % len(SHAPES)][0] >= min_rx]
    return [f.name for f in FIXTURES] + [f"seed{s}" for s in seeds]


def open_capture(directory, name):
    if name.startswith("seed"):
        return seeded_capture(directory, int(name[4:]))
    return FIXTURE_DIR / name


def assert_bit_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.array_equal(actual, expected, equal_nan=True)
    assert actual.dtype == expected.dtype
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("name", capture_names())
@pytest.mark.parametrize("scale, bandwidth_mhz", [(True, 40), (True, 20), (False, 40)])
def test_read_intel_dat_matches_per_record_decode(tmp_path, name, scale, bandwidth_mhz):
    capture = open_capture(tmp_path, name)
    n_tx = reference.read_bfee(capture)[0][0]["n_tx"]
    for stream in range(n_tx):
        options = dict(stream=stream, scale=scale, bandwidth_mhz=bandwidth_mhz)
        trace = read_intel_dat(capture, **options)
        csi, times, rssi, snr = reference.read_intel_dat(capture, **options)
        assert_bit_equal(trace.csi, csi)
        assert_bit_equal(trace.capture_times_s, times)
        assert_bit_equal(trace.rssi_dbm, rssi)
        assert_bit_equal(trace.snr_db, snr)


@pytest.mark.parametrize(
    "stage",
    [
        StoRemoval.for_bandwidth(40),
        StoRemoval(),
        StoRemoval.for_bandwidth(20, remove_intercept=False),
    ],
    ids=["40mhz", "uniform", "20mhz-slope-only"],
)
@pytest.mark.parametrize("name", capture_names())
def test_sto_removal_matches_per_packet_fit(tmp_path, name, stage):
    trace = read_intel_dat(open_capture(tmp_path, name))
    cleaned, report = stage.apply(trace)
    indices = stage._indices_for(trace)
    expected, slopes = reference.sto_removal(
        trace.csi, indices, remove_intercept=stage.remove_intercept
    )
    assert_bit_equal(cleaned.csi, expected)
    assert_bit_equal(report.details["slopes_rad"], slopes)
    for p in range(min(trace.n_packets, 3)):
        slope, intercepts = fit_phase_slope(trace.csi[p], indices)
        expected_slope, expected_intercepts = reference.fit_phase_slope(trace.csi[p], indices)
        assert slope == expected_slope
        assert_bit_equal(intercepts, expected_intercepts)


@pytest.mark.parametrize("name", capture_names(min_rx=2))
def test_fit_calibration_matches_per_packet_fit(tmp_path, name, monkeypatch):
    trace = read_intel_dat(open_capture(tmp_path, name))
    indices = subcarrier_indices(40)
    stacked = calibration.fit_calibration(trace, indices=indices, index_spacing_hz=312.5e3)
    monkeypatch.setattr(calibration, "fit_phase_slopes", reference.fit_phase_slopes)
    looped = calibration.fit_calibration(trace, indices=indices, index_spacing_hz=312.5e3)
    assert_bit_equal(stacked.relative_delays_s, looped.relative_delays_s)
    assert_bit_equal(stacked.phase_offsets_rad, looped.phase_offsets_rad)
    assert stacked.to_dict() == looped.to_dict()
