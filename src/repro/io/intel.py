"""Intel 5300 CSI ``.dat`` log parser (and encoder, for fixtures).

The Linux 802.11n CSI Tool logs a stream of length-prefixed records::

    [u16 big-endian field_len] [u8 code] [field_len - 1 payload bytes]

Code ``0xBB`` is a beamforming-feedback ("bfee") record carrying one
CSI measurement; every other code is metadata and skipped.  Inside a
bfee payload (offsets relative to the byte after the code):

====== ====================================================
0:4    ``timestamp_low`` — µs since NIC power-up (u32 LE)
4:6    ``bfee_count`` (u16 LE)
6:8    reserved
8, 9   ``Nrx``, ``Ntx``
10:13  per-chain RSSI A/B/C (dB, u8)
13     noise floor (dBm, i8; −127 ⇒ unmeasured)
14     AGC gain (dB, u8)
15     ``antenna_sel`` — RX permutation, 2 bits per antenna
16:18  CSI payload length (u16 LE)
18:20  rate/flags (u16 LE)
20:    bit-packed CSI
====== ====================================================

The CSI itself is 30 subcarriers × ``Nrx·Ntx`` complex values, each
component a signed 8-bit integer, packed with a 3-bit skip before every
subcarrier group — hence the reference decoder's
``calc_len = (30·(Nrx·Ntx·8·2 + 3) + 7) // 8``.  Within a subcarrier
the values are transmit-stream-major: value ``j`` belongs to TX stream
``j % Ntx`` on RX antenna ``j // Ntx``.

Two hardware corrections land the raw integers in channel units
(mirroring the reference ``get_scaled_csi`` / ``get_scaled_csi_sm``):

* **Scaling** — the integers are an AGC-scaled quantization; the RSSI
  and AGC fields recover absolute received power, and the noise floor
  plus quantization error normalize to an SNR-like magnitude.
* **Spatial-mapping removal** — with multiple TX streams the NIC mixes
  streams through a unitary spatial-mapping matrix Q before the air;
  right-multiplying by ``Q*`` recovers the physical per-antenna
  channel.  Q is published for 2 streams (both bandwidths) and for
  3 streams at 20 MHz; 3 streams at 40 MHz is left uncorrected with a
  warning.

:func:`write_intel_dat` is the exact inverse of the record layout and
bit packing — it exists so the repository can commit small, *valid*
``.dat`` fixtures generated from the synthetic channel model, and so
the parser is tested against an independent encoder rather than only
against itself.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.channel.trace import CsiTrace
from repro.exceptions import IngestError

#: Record code of a beamforming-feedback (CSI) record.
BFEE_CODE = 0xBB

#: Subcarriers reported per bfee record, fixed by the hardware.
N_SUBCARRIERS = 30

#: ``antenna_sel`` for the identity RX permutation (A→0, B→1, C→2).
IDENTITY_ANTENNA_SEL = 0b100100

_SQRT2 = float(np.sqrt(2.0))

# Spatial-mapping matrices Q used by the Intel 5300 transmitter
# (iwlwifi convention; rows index TX streams).  All are unitary — the
# removal below right-multiplies by Q* which is then exactly Q⁻¹.
SM_2_20 = np.array([[1.0, 1.0], [1.0, -1.0]]) / _SQRT2
SM_2_40 = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / _SQRT2
_TWO_PI = 2.0 * np.pi
SM_3_20 = (
    np.exp(
        1j
        * np.array(
            [
                [-_TWO_PI / 16, -_TWO_PI / (80 / 33), _TWO_PI / (80 / 3)],
                [_TWO_PI / (80 / 23), _TWO_PI / (48 / 13), _TWO_PI / (240 / 13)],
                [-_TWO_PI / (80 / 13), _TWO_PI / (240 / 37), _TWO_PI / (48 / 13)],
            ]
        )
    )
    / np.sqrt(3.0)
)


def _dbinv(x: float | np.ndarray) -> float | np.ndarray:
    return 10.0 ** (np.asarray(x, dtype=float) / 10.0)


def _calc_len(n_rx: int, n_tx: int) -> int:
    return (N_SUBCARRIERS * (n_rx * n_tx * 8 * 2 + 3) + 7) // 8


#: The 20 bytes before the bit-packed CSI (see the module docstring).
_BFEE_HEADER = struct.Struct("<IH2xBB3BbBBHH")
#: A framed bfee record: :data:`_BFEE_HEADER`'s fields, then its CSI's file offset.
_FRAMED = np.dtype(
    [(name, np.int64) for name in "timestamp_low bfee_count n_rx n_tx rssi_a rssi_b "
     "rssi_c noise agc antenna_sel length rate csi_at".split()]
)


@lru_cache(maxsize=None)
def _bit_table(n_rx: int, n_tx: int) -> tuple[np.ndarray, np.ndarray]:
    """Byte offset and bit shift of every CSI component, ``(n_rx, n_tx, 30, 2)``.

    Value ``j = rx·n_tx + tx`` of subcarrier ``s`` starts at bit
    ``s·(16·n_rx·n_tx + 3) + 3 + 16·j``; its imaginary part 8 bits later.
    At most nine shapes are cached; the tables are read-only.
    """
    rx, tx, subcarrier, part = np.ix_(
        np.arange(n_rx), np.arange(n_tx), np.arange(N_SUBCARRIERS), np.arange(2)
    )
    bit = subcarrier * (16 * n_rx * n_tx + 3) + 3 + 16 * (rx * n_tx + tx) + 8 * part
    byte, shift = bit // 8, (bit % 8).astype(np.uint16)
    byte.flags.writeable = shift.flags.writeable = False
    return byte, shift


def _decode_csi(raw: np.ndarray, framed: np.ndarray, n_rx: int, n_tx: int) -> np.ndarray:
    """RX-permuted integer CSI ``(records, n_rx, n_tx, 30)`` of same-shape
    :data:`_FRAMED` records.

    Each component is the 16-bit little-endian window at its byte,
    shifted down to 8 bits (a payload is 2 mod 8 bits long, so no window
    leaves its record).  Captured RX stream ``k`` of a 3-RX record holds
    physical antenna ``perm[k]``, 2 bits per antenna of ``antenna_sel``;
    a record whose field is no permutation warns and keeps its order.
    """
    byte, shift = _bit_table(n_rx, n_tx)
    at = framed["csi_at"][:, None, None, None, None] + byte
    window = raw[at].astype(np.uint16) | (raw[at + 1].astype(np.uint16) << 8)
    values = (window >> shift).astype(np.uint8).view(np.int8)
    csi = values.astype(float).view(complex)[..., 0]
    if n_rx != 3:
        return csi
    perm = (framed["antenna_sel"][:, None] >> (2 * np.arange(3))) & 0x3
    invalid = np.any(np.sort(perm, axis=1) != np.arange(3), axis=1)
    for bad in perm[invalid]:
        warnings.warn(
            f"invalid antenna_sel permutation {bad.tolist()}; leaving RX order as captured",
            RuntimeWarning,
            stacklevel=4,
        )
    perm[invalid] = np.arange(3)
    permuted = np.empty_like(csi)
    permuted[np.arange(len(csi))[:, None], perm] = csi
    return permuted


def _rssi_dbm(chains, agc: np.ndarray) -> np.ndarray:
    """Received power in dBm from the three chains' RSSI (0 = unmeasured;
    −inf when no chain is), in csitool's −44 − AGC convention."""
    a, b, c = (np.where(rssi != 0, _dbinv(rssi), 0.0) for rssi in chains)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(a + b + c) - 44.0 - agc


def _noise_dbm(noise: np.ndarray) -> np.ndarray:
    """Measured noise floor, with the −127 sentinel mapped to −92 dBm."""
    return np.where(noise == -127, -92.0, noise)


def _scale_csi(csi: np.ndarray, rssi_dbm: np.ndarray, noise_dbm: np.ndarray) -> np.ndarray:
    """CSI stack in absolute channel units (reference ``get_scaled_csi``).

    Scales each record so ``|csi|²`` measures the per-subcarrier SNR:
    total CSI power is matched to the RSSI-derived received power, then
    normalized by thermal noise plus the quantization-error power the
    integer format introduces.  All-zero records pass through."""
    n_records, n_rx, n_tx, _ = csi.shape
    csi_pwr = np.sum(np.abs(csi.reshape(n_records, -1)) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = _dbinv(rssi_dbm) / (csi_pwr / 30.0)
        total_noise_pwr = _dbinv(noise_dbm) + scale * n_rx * n_tx
        factor = np.where(csi_pwr == 0, 1.0, np.sqrt(scale / total_noise_pwr))
    ret = csi * factor[:, None, None, None]
    # The NIC backs off TX power per extra stream; undo it so
    # multi-stream magnitudes are comparable to single-stream.
    if n_tx == 2:
        ret *= _SQRT2
    elif n_tx == 3:
        ret *= np.sqrt(_dbinv(4.5))
    return ret


@dataclass(frozen=True)
class BfeeRecord:
    """One decoded beamforming-feedback record.

    ``csi`` is the *raw* integer-valued channel, shape
    ``(n_rx, n_tx, 30)``, already RX-permuted back to physical antenna
    order (``antenna_sel``) but not yet scaled.  The derived values are
    one-record views of the code :func:`read_intel_dat` runs per capture.
    """

    timestamp_low: int
    bfee_count: int
    n_rx: int
    n_tx: int
    rssi: tuple[int, int, int]
    noise: int
    agc: int
    antenna_sel: int
    rate: int
    csi: np.ndarray

    @property
    def rssi_dbm(self) -> float:
        """Total received power in dBm (csitool convention: −44 − AGC)."""
        return float(_rssi_dbm(self.rssi, self.agc))

    @property
    def noise_dbm(self) -> float:
        """Measured noise floor, with the −127 sentinel mapped to −92 dBm."""
        return float(_noise_dbm(self.noise))

    def scaled_csi(self) -> np.ndarray:
        """CSI in absolute channel units (reference ``get_scaled_csi``)."""
        return _scale_csi(self.csi[None], self.rssi_dbm, self.noise_dbm)[0]


def _bfee_header(raw: bytes, start: int, end: int) -> tuple:
    """Unpack and check the header of the bfee payload ``raw[start:end]``."""
    if end - start < 20:
        raise IngestError(
            f"bfee record too short: {end - start} bytes (need >= 20)", kind="truncated"
        )
    header = _BFEE_HEADER.unpack_from(raw, start)
    n_rx, n_tx, length = header[2], header[3], header[10]
    if not 1 <= n_rx <= 3 or not 1 <= n_tx <= 3:
        raise IngestError(
            f"bfee record claims {n_rx}×{n_tx} antennas (expected 1..3 each)",
            kind="bad_field",
        )
    expected = _calc_len(n_rx, n_tx)
    if length != expected:
        raise IngestError(
            f"bfee CSI length {length} != expected {expected} for "
            f"{n_rx}×{n_tx}: truncated or corrupt record",
            kind="bad_length",
        )
    if end - start < 20 + length:
        raise IngestError(
            f"bfee record truncated: {end - start - 20} CSI bytes, need {length}",
            kind="truncated",
        )
    return header


def _plausible_bfee_at(raw: bytes, pos: int) -> bool:
    """O(1) check: does a well-framed bfee record plausibly start at ``pos``?

    Used by resynchronization after corrupt framing.  Demands full
    internal consistency — code byte, antenna counts in range, and the
    in-payload CSI length matching both ``_calc_len`` and the outer
    ``field_len`` — so random garbage essentially never matches.
    """
    if pos + 3 + 20 > len(raw) or raw[pos + 2] != BFEE_CODE:
        return False
    (field_len,) = struct.unpack_from(">H", raw, pos)
    try:
        return field_len == 21 + _bfee_header(raw, pos + 3, pos + 2 + field_len)[10]
    except IngestError:
        return False


def _read_bfee(path: str | Path, max_resync_bytes: int = 1 << 16) -> dict:
    """Frame a log record by record (see :func:`read_bfee_records`), then
    decode its CSI per antenna shape: ``{(n_rx, n_tx): (framed, csi)}``
    with the records' :data:`_FRAMED` fields (``csi_at`` keeps file
    order) and :func:`_decode_csi`'s stack."""
    try:
        raw = Path(path).read_bytes()
    except OSError as error:
        raise IngestError(f"cannot read {path}: {error}", kind="io") from error
    records: list[tuple] = []
    offset = 0
    resync_budget = max_resync_bytes

    def try_resync(start: int, why: str) -> int | None:
        nonlocal resync_budget
        if resync_budget <= 0:
            return None
        # One bounded forward pass of O(1) tests: a corrupt length costs
        # linear work, and the offset found is always past the corrupt one.
        limit = min(len(raw), start + resync_budget)
        found = next((pos for pos in range(start, limit) if _plausible_bfee_at(raw, pos)), None)
        if found is None:
            resync_budget = 0
            return None
        resync_budget -= found - start
        warnings.warn(
            f"skipping corrupt record at byte {start - 1} of {path} ({why}); "
            f"resynchronized at byte {found}",
            RuntimeWarning,
            stacklevel=4,
        )
        return found

    while offset + 3 <= len(raw):
        (field_len,) = struct.unpack_from(">H", raw, offset)
        code = raw[offset + 2]
        if field_len < 1:
            resumed = try_resync(offset + 1, "zero field_len")
            if resumed is None:
                break
            offset = resumed
            continue
        end = offset + 2 + field_len
        if end > len(raw):
            resumed = try_resync(offset + 1, f"field_len {field_len} past EOF")
            if resumed is None:
                warnings.warn(
                    f"dropping torn final record at byte {offset} of {path}",
                    RuntimeWarning,
                    stacklevel=3,
                )
                break
            offset = resumed
            continue
        if code == BFEE_CODE:
            try:
                records.append((*_bfee_header(raw, offset + 3, end), offset + 23))
            except IngestError as error:
                # The framing may be lying about where this record ends;
                # don't trust `end` — rescan from just past the header.
                resumed = try_resync(offset + 1, str(error))
                if resumed is None:
                    break
                offset = resumed
                continue
        offset = end
    if offset < len(raw) and offset + 3 > len(raw):
        warnings.warn(
            f"dropping {len(raw) - offset} trailing bytes of {path}",
            RuntimeWarning,
            stacklevel=3,
        )
    if not records:
        raise IngestError(
            f"no bfee records in {path}: not an Intel 5300 CSI log?", kind="empty"
        )
    data, table = np.frombuffer(raw, dtype=np.uint8), np.array(records, dtype=_FRAMED)
    groups = {}
    for n_rx, n_tx in sorted({(r[2], r[3]) for r in records}):
        framed = table[(table["n_rx"] == n_rx) & (table["n_tx"] == n_tx)]
        groups[n_rx, n_tx] = (framed, _decode_csi(data, framed, n_rx, n_tx))
    return groups


def read_bfee_records(path: str | Path, *, max_resync_bytes: int = 1 << 16) -> list[BfeeRecord]:
    """Decode every bfee record in an Intel 5300 ``.dat`` log.

    Framing and validation run record by record; the CSI payloads then
    decode as one batch per antenna shape.

    Non-bfee records are skipped; a torn final record (the logger was
    killed mid-write) is dropped with a warning rather than rejected,
    matching how the reference MATLAB reader treats truncated logs.

    Corrupt framing — a zero/self-referential length field, a length
    pointing past EOF with data still behind it, or a bfee whose header
    lies about its payload — does not abort the file: the parser skips
    the damaged record and resynchronizes on the next internally
    consistent bfee header.  Resynchronization is a bounded single
    forward pass (``max_resync_bytes`` total across the file), and the
    cursor advances strictly monotonically, so hostile bytes can force
    neither an infinite loop nor quadratic work.  Files yielding no
    decodable record raise :class:`IngestError` (kind ``"empty"``).
    """
    decoded = {}
    for framed, csi in _read_bfee(path, max_resync_bytes).values():
        for fields, matrix in zip(framed.tolist(), csi):
            stamp, count, n_rx, n_tx, *rssi, noise, agc, sel, _, rate, csi_at = fields
            decoded[csi_at] = BfeeRecord(
                stamp, count, n_rx, n_tx, tuple(rssi), noise, agc, sel, rate, matrix
            )
    return [decoded[csi_at] for csi_at in sorted(decoded)]


def remove_spatial_mapping(csi: np.ndarray, n_tx: int, *, bandwidth_mhz: int) -> np.ndarray:
    """Undo the transmitter's spatial-mapping matrix on the TX axis.

    ``csi`` has shape ``(..., n_tx)`` on its last axis (per RX antenna
    and subcarrier).  The measured channel is ``H·Qᵀ`` for unitary Q, so
    right-multiplying by ``conj(Q)`` recovers H.  Single-stream captures
    pass through; 3 streams at 40 MHz is returned uncorrected with a
    warning because that Q is not reliably documented.
    """
    if n_tx == 1:
        return csi
    if n_tx == 2:
        q = SM_2_20 if bandwidth_mhz == 20 else SM_2_40
    elif n_tx == 3 and bandwidth_mhz == 20:
        q = SM_3_20
    else:
        warnings.warn(
            f"no spatial-mapping matrix for {n_tx} streams at {bandwidth_mhz} MHz; "
            "returning the mixed-stream channel",
            RuntimeWarning,
            stacklevel=2,
        )
        return csi
    return csi @ np.conj(q)


def read_intel_dat(
    path: str | Path,
    *,
    stream: int = 0,
    bandwidth_mhz: int = 40,
    scale: bool = True,
    ap_id: str = "",
) -> CsiTrace:
    """Parse an Intel 5300 ``.dat`` log into a :class:`CsiTrace`.

    Every bfee record becomes one packet: scaled (unless ``scale`` is
    false), spatial-mapping-corrected, and reduced to TX stream
    ``stream`` so the result is the paper's ``(antennas, subcarriers)``
    per-packet matrix.  ``snr_db`` and ``rssi_dbm`` are measured from
    the RSSI/AGC/noise fields: means across packets, leaving out records
    with no measured RSSI chain (NaN if none has one).  Ground-truth
    fields stay at their unknown defaults — a registry entry or site
    survey supplies those.
    """
    groups = _read_bfee(path)
    if len(groups) != 1:
        raise IngestError(
            f"mixed antenna configurations in {path}: {sorted(groups)}", kind="bad_shape"
        )
    (((n_rx, n_tx), (framed, csi)),) = groups.items()
    if not 0 <= stream < n_tx:
        raise IngestError(
            f"stream {stream} out of range for {n_tx} TX stream(s)", kind="bad_field"
        )

    rssi_dbm = _rssi_dbm([framed["rssi_a"], framed["rssi_b"], framed["rssi_c"]], framed["agc"])
    noise_dbm = _noise_dbm(framed["noise"])
    csi = _scale_csi(csi, rssi_dbm, noise_dbm) if scale else csi
    # (…, n_tx, 30) → (…, 30, n_tx) so the TX axis is last for
    # spatial-mapping removal, then select the requested stream.
    csi = remove_spatial_mapping(np.moveaxis(csi, 2, 3), n_tx, bandwidth_mhz=bandwidth_mhz)
    measured = np.isfinite(rssi_dbm)
    rssi = float(np.mean(rssi_dbm[measured])) if measured.any() else float("nan")
    noise = float(np.mean(noise_dbm))
    return CsiTrace(
        csi=np.ascontiguousarray(csi[..., stream]),
        snr_db=rssi - noise,
        rssi_dbm=rssi,
        capture_times_s=framed["timestamp_low"] * 1e-6,
        ap_id=ap_id,
        source_format="intel-dat",
    )


def _encode_bfee_payload(csi_int: np.ndarray) -> bytes:
    """Bit-pack one record's integer CSI, shape ``(n_rx, n_tx, 30)``."""
    n_rx, n_tx, _ = csi_int.shape
    length = _calc_len(n_rx, n_tx)
    buffer = bytearray(length)

    def put(bit_offset: int, value: int) -> None:
        raw = int(value) & 0xFF
        byte, remainder = divmod(bit_offset, 8)
        buffer[byte] |= (raw << remainder) & 0xFF
        if remainder:
            buffer[byte + 1] |= raw >> (8 - remainder)

    index = 0
    for subcarrier in range(N_SUBCARRIERS):
        index += 3
        for j in range(n_rx * n_tx):
            value = csi_int[j // n_tx, j % n_tx, subcarrier]
            put(index, int(value.real))
            put(index + 8, int(value.imag))
            index += 16
    return bytes(buffer)


def write_intel_dat(
    path: str | Path,
    csi_int: np.ndarray,
    *,
    timestamps_us: np.ndarray | None = None,
    rssi: tuple[int, int, int] = (33, 32, 34),
    noise: int = -92,
    agc: int = 40,
    antenna_sel: int = IDENTITY_ANTENNA_SEL,
    rate: int = 0x1101,
) -> Path:
    """Encode integer CSI as a valid Intel 5300 ``.dat`` log.

    ``csi_int`` is complex with integer-valued components in
    ``[−128, 127]``, shape ``(packets, n_rx, 30)`` for single-stream or
    ``(packets, n_rx, n_tx, 30)``.  The encoder writes bit-exact bfee
    records — :func:`read_bfee_records` on the result returns the same
    integers — which is what makes committed fixtures trustworthy: the
    parser is exercised against an independent implementation of the
    packing, not a copy of itself.
    """
    csi_int = np.asarray(csi_int)
    if csi_int.ndim == 3:
        csi_int = csi_int[:, :, None, :]
    if csi_int.ndim != 4 or csi_int.shape[3] != N_SUBCARRIERS:
        raise IngestError(
            f"csi_int must be (packets, n_rx[, n_tx], {N_SUBCARRIERS}), got {csi_int.shape}"
        )
    components = np.concatenate([csi_int.real.ravel(), csi_int.imag.ravel()])
    if not np.allclose(components, np.round(components)):
        raise IngestError("csi_int components must be integer-valued")
    if components.min() < -128 or components.max() > 127:
        raise IngestError("csi_int components must fit in int8")
    n_packets, n_rx, n_tx, _ = csi_int.shape
    if timestamps_us is None:
        timestamps_us = np.arange(n_packets, dtype=np.int64) * 10_000
    timestamps_us = np.asarray(timestamps_us, dtype=np.int64)
    if timestamps_us.shape != (n_packets,):
        raise IngestError(
            f"timestamps_us must have shape ({n_packets},), got {timestamps_us.shape}"
        )

    chunks: list[bytes] = []
    for p in range(n_packets):
        bits = _encode_bfee_payload(csi_int[p])
        body = (
            struct.pack("<IHH", int(timestamps_us[p]) & 0xFFFFFFFF, p + 1, 0)
            + bytes([n_rx, n_tx, rssi[0], rssi[1], rssi[2]])
            + struct.pack("<b", noise)
            + bytes([agc, antenna_sel])
            + struct.pack("<HH", len(bits), rate)
            + bits
        )
        chunks.append(struct.pack(">H", len(body) + 1) + bytes([BFEE_CODE]) + body)

    from repro.runtime.checkpoint import atomic_write

    return atomic_write(Path(path), b"".join(chunks))
