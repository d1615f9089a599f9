"""The native ``.npz`` trace format.

This module owns the single ``np.load``-for-traces call site in the
package: everything that reads a saved :class:`CsiTrace` — including
``CsiTrace.load`` itself — funnels through
:func:`repro.io.open_trace` into :func:`read_npz_trace`.

The format is append-only across releases: archives written before the
capture-metadata fields existed load with those fields at their
defaults, and fields written by a *newer* release than this reader are
skipped with a warning instead of an error, so fixture files never
bit-rot in either direction.
"""

from __future__ import annotations

import tokenize
import warnings
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.channel.trace import CsiTrace
from repro.exceptions import IngestError, ReproError

# np.load on hostile bytes surfaces zip-container and npy-header damage
# through this zoo; inside the archive, member decompression adds
# zlib.error and short reads add EOFError.  zipfile raises
# NotImplementedError for a member whose version or compression method
# it does not support, and numpy parses the npy header dict with
# tokenize + ast, which raise TokenError (Python 3.11) or SyntaxError
# (Python 3.12, e.g. on null bytes) when that dict is mangled.
_ARCHIVE_ERRORS = (
    OSError,
    ValueError,
    TypeError,
    KeyError,
    EOFError,
    IndexError,
    OverflowError,
    MemoryError,
    NotImplementedError,
    SyntaxError,
    tokenize.TokenError,
    zipfile.BadZipFile,
    zlib.error,
)

#: Every field a trace archive may carry, by CsiTrace attribute name.
KNOWN_FIELDS = frozenset(
    {
        "csi",
        "snr_db",
        "detection_delays_s",
        "antenna_phase_offsets",
        "true_aoas_deg",
        "true_toas_s",
        "direct_aoa_deg",
        "direct_toa_s",
        "rssi_dbm",
        "capture_times_s",
        "ap_id",
        "source_format",
    }
)

_ARRAY_FIELDS = (
    "detection_delays_s",
    "antenna_phase_offsets",
    "true_aoas_deg",
    "true_toas_s",
    "capture_times_s",
)
_SCALAR_FIELDS = ("direct_aoa_deg", "direct_toa_s", "rssi_dbm")


def read_npz_trace(path: str | Path) -> CsiTrace:
    """Load a ``.npz`` archive written by :meth:`CsiTrace.save`.

    Missing optional fields default (old fixtures stay loadable);
    unknown fields warn and are ignored (new fixtures degrade
    gracefully on old readers).  Only ``csi`` and ``snr_db`` are
    mandatory.
    """
    path = Path(path)
    try:
        archive = np.load(path)
    except _ARCHIVE_ERRORS as error:
        kind = "io" if isinstance(error, (FileNotFoundError, PermissionError)) else "invalid"
        raise IngestError(
            f"cannot read {path} as a trace archive: {error}", kind=kind
        ) from error
    with archive:
        try:
            fields = set(archive.files)
            unknown = sorted(fields - KNOWN_FIELDS)
            if unknown:
                warnings.warn(
                    f"{path} carries unknown trace fields {unknown} "
                    "(written by a newer version?); ignoring them",
                    RuntimeWarning,
                    stacklevel=2,
                )
            missing = {"csi", "snr_db"} - fields
            if missing:
                raise IngestError(
                    f"{path} is not a trace archive: missing {sorted(missing)}",
                    kind="bad_field",
                )

            kwargs: dict = {
                "csi": np.asarray(archive["csi"]),
                "snr_db": float(archive["snr_db"]),
            }
            for name in _ARRAY_FIELDS:
                if name in fields:
                    kwargs[name] = np.asarray(archive[name])
            for name in _SCALAR_FIELDS:
                if name in fields:
                    kwargs[name] = float(archive[name])
            for name in ("ap_id", "source_format"):
                if name in fields:
                    kwargs[name] = str(archive[name])
        except _ARCHIVE_ERRORS as error:
            # The container opened but a member is damaged (short
            # deflate stream, corrupt npy header, non-scalar scalar).
            raise IngestError(
                f"{path} holds a damaged trace archive member: "
                f"{type(error).__name__}: {error}",
                kind="truncated",
            ) from error
    # source_format is preserved verbatim (a synthesized-then-saved
    # trace stays "synthetic"); archives predating the field load as ""
    # — "origin unknown" — rather than being retroactively relabeled.
    try:
        return CsiTrace(**kwargs)
    except ReproError as error:
        raise IngestError(
            f"{path} does not form a valid trace: {error}", kind="bad_shape"
        ) from error
