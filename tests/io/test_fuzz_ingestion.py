"""Differential fuzz: hostile capture bytes never escape the taxonomy.

Every parser in :mod:`repro.io` is driven with seeded byte-level
corruptions of a known-valid capture (plus raw hypothesis garbage) and
must either return a usable trace or raise :class:`IngestError` with a
``kind`` from :data:`INGEST_FAULT_KINDS` — never a stray
``struct.error``, ``IndexError``, or infinite loop.  ``REPRO_FUZZ_N``
scales the corpus (the CI ``fuzz-smoke`` job runs 1000 variants per
format; the default keeps tier-1 fast).
"""

import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import savemat

from repro.channel.trace import CsiTrace
from repro.exceptions import INGEST_FAULT_KINDS, IngestError
from repro.io import (
    fuzz_corpus,
    read_intel_dat,
    read_npz_trace,
    read_spotfi_mat,
    write_intel_dat,
)

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "24"))
FUZZ_SEED = 20260807
FORMATS = ("dat", "mat", "npz")
REGRESSION_DIR = Path(__file__).parent.parent / "fixtures" / "fuzz_regressions"

PARSERS = {
    "dat": read_intel_dat,
    "mat": read_spotfi_mat,
    "npz": read_npz_trace,
}


@pytest.fixture(scope="module")
def seed_captures(tmp_path_factory):
    """One small, definitely-valid capture per wire format, as bytes."""
    root = tmp_path_factory.mktemp("fuzz-seeds")
    rng = np.random.default_rng(7)
    csi_int = rng.integers(-128, 128, size=(4, 3, 30)) + 1j * rng.integers(
        -128, 128, size=(4, 3, 30)
    )
    csi = rng.normal(size=(4, 3, 30)) + 1j * rng.normal(size=(4, 3, 30))
    write_intel_dat(root / "seed.dat", csi_int)
    savemat(root / "seed.mat", {"csi": csi})
    CsiTrace(csi=csi, snr_db=20.0).save(root / "seed.npz")
    return {fmt: (root / f"seed.{fmt}").read_bytes() for fmt in FORMATS}


def _parse(fmt, path):
    """Run one parser with its (expected, already-tested) warnings muted."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return PARSERS[fmt](path)


class TestSeedCorpus:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_uncorrupted_seed_parses(self, fmt, seed_captures, tmp_path):
        path = tmp_path / f"seed.{fmt}"
        path.write_bytes(seed_captures[fmt])
        trace = _parse(fmt, path)
        assert trace.csi.shape == (4, 3, 30)


class TestDifferentialFuzz:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_corrupted_captures_parse_or_raise_taxonomized(
        self, fmt, seed_captures, tmp_path
    ):
        path = tmp_path / f"variant.{fmt}"
        n_ok = n_rejected = 0
        kinds_seen = set()
        for seed, corrupted, faults in fuzz_corpus(
            seed_captures[fmt], seed=FUZZ_SEED, n=FUZZ_N
        ):
            path.write_bytes(corrupted)
            try:
                trace = _parse(fmt, path)
            except IngestError as error:
                assert error.kind in INGEST_FAULT_KINDS
                assert str(error)
                kinds_seen.add(error.kind)
                n_rejected += 1
            except Exception as error:  # noqa: BLE001 - the contract under test
                injected = [fault.to_dict() for fault in faults]
                pytest.fail(
                    f"{fmt} variant seed={seed} escaped the taxonomy with "
                    f"{type(error).__name__}: {error} (injected faults: {injected})"
                )
            else:
                # Survivors must be structurally sound, not half-parsed.
                assert trace.csi.ndim == 3
                assert trace.csi.shape[0] >= 1
                n_ok += 1
        assert n_ok + n_rejected == FUZZ_N
        assert kinds_seen <= set(INGEST_FAULT_KINDS)

    @pytest.mark.parametrize("fmt", FORMATS)
    @given(data=st.binary(max_size=512))
    @settings(max_examples=20, deadline=None)
    def test_raw_garbage_never_escapes(self, fmt, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("garbage") / f"junk.{fmt}"
        path.write_bytes(data)
        try:
            _parse(fmt, path)
        except IngestError as error:
            assert error.kind in INGEST_FAULT_KINDS


class TestCraftedFraming:
    """Regressions for the framing attacks the resync logic must survive."""

    @pytest.fixture()
    def valid_dat(self, seed_captures):
        return seed_captures["dat"]

    def test_zero_length_field_resynchronizes(self, valid_dat, tmp_path):
        path = tmp_path / "zero-len.dat"
        path.write_bytes(b"\x00\x00" + valid_dat)
        with pytest.warns(RuntimeWarning, match="zero field_len"):
            trace = read_intel_dat(path)
        assert trace.n_packets == 4

    def test_past_eof_length_resynchronizes(self, valid_dat, tmp_path):
        corrupted = bytearray(valid_dat)
        corrupted[0:2] = (0xFFFF).to_bytes(2, "big")
        path = tmp_path / "past-eof.dat"
        path.write_bytes(bytes(corrupted))
        with pytest.warns(RuntimeWarning, match="past EOF"):
            trace = read_intel_dat(path)
        # The lying record is lost; every record behind it is recovered.
        assert trace.n_packets == 3

    def test_self_referential_record_is_skipped(self, valid_dat, tmp_path):
        # field_len = 1 frames a bfee "record" that is only its own code
        # byte; the decoder must reject it and resync on the real stream.
        path = tmp_path / "self-ref.dat"
        path.write_bytes(b"\x00\x01\xbb" + valid_dat)
        with pytest.warns(RuntimeWarning, match="too short"):
            trace = read_intel_dat(path)
        assert trace.n_packets == 4

    def test_tiny_file_is_empty_not_a_crash(self, tmp_path):
        path = tmp_path / "tiny.dat"
        path.write_bytes(b"\x00")
        with pytest.warns(RuntimeWarning, match="trailing bytes"):
            with pytest.raises(IngestError) as excinfo:
                read_intel_dat(path)
        assert excinfo.value.kind == "empty"

    def test_missing_file_is_io_kind(self, tmp_path):
        with pytest.raises(IngestError) as excinfo:
            read_intel_dat(tmp_path / "nope.dat")
        assert excinfo.value.kind == "io"

    def test_non_zip_npz_is_taxonomized(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(IngestError) as excinfo:
            read_npz_trace(path)
        assert excinfo.value.kind in INGEST_FAULT_KINDS

    def test_non_mat_bytes_are_taxonomized(self, tmp_path):
        path = tmp_path / "junk.mat"
        path.write_bytes(bytes(range(128)))
        with pytest.raises(IngestError) as excinfo:
            read_spotfi_mat(path)
        assert excinfo.value.kind in INGEST_FAULT_KINDS


class TestNpzRegressions:
    """Corpus variants (``FUZZ_SEED`` at ``REPRO_FUZZ_N=1000``) that once
    escaped :func:`read_npz_trace` with a non-taxonomy exception."""

    @pytest.mark.parametrize(
        ("name", "kind", "cause"),
        [
            # zipfile: NotImplementedError "zip file version 13.4"
            ("npz_zip_version_20261275.npz", "invalid", "zip file version"),
            # numpy's npy-header parse: tokenize.TokenError on 3.11,
            # SyntaxError on 3.12
            ("npz_header_tokenize_20261386.npz", "truncated", "damaged trace archive member"),
        ],
    )
    def test_escaped_variant_is_taxonomized(self, name, kind, cause):
        with pytest.raises(IngestError, match=cause) as excinfo:
            _parse("npz", REGRESSION_DIR / name)
        assert excinfo.value.kind == kind
