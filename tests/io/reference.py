"""Per-value / per-packet reference implementations for bit-parity tests.

``repro.io`` decodes, scales and phase-fits whole captures as array
stacks.  These are the straightforward one-record-at-a-time forms of
the same arithmetic — a bit loop over every CSI component, the
csitool scaling formula per record, and one phase-slope fit per
packet — kept only so the tests can demand ``np.array_equal`` between
the two.  They assume well-framed logs (no resync).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from repro.io.intel import N_SUBCARRIERS, remove_spatial_mapping


def decode_bfee_csi(payload: bytes) -> tuple[dict, np.ndarray]:
    """Header fields and RX-permuted integer CSI ``(n_rx, n_tx, 30)``."""
    n_rx, n_tx = payload[8], payload[9]
    header = {
        "timestamp_low": struct.unpack_from("<I", payload, 0)[0],
        "n_rx": n_rx,
        "n_tx": n_tx,
        "rssi": (payload[10], payload[11], payload[12]),
        "noise": struct.unpack_from("<b", payload, 13)[0],
        "agc": payload[14],
    }
    length = struct.unpack_from("<H", payload, 16)[0]
    bits = payload[20 : 20 + length] + b"\x00\x00"
    csi = np.empty((n_rx, n_tx, N_SUBCARRIERS), dtype=complex)
    index = 0
    for subcarrier in range(N_SUBCARRIERS):
        index += 3
        remainder = index % 8
        for j in range(n_rx * n_tx):
            byte = index // 8
            if remainder:
                real = ((bits[byte] >> remainder) | (bits[byte + 1] << (8 - remainder))) & 0xFF
                imag = ((bits[byte + 1] >> remainder) | (bits[byte + 2] << (8 - remainder))) & 0xFF
            else:
                real, imag = bits[byte], bits[byte + 1]
            value = complex(real - 256 if real >= 128 else real, imag - 256 if imag >= 128 else imag)
            csi[j // n_tx, j % n_tx, subcarrier] = value
            index += 16
    if n_rx == 3:
        antenna_sel = payload[15]
        perm = [(antenna_sel >> (2 * k)) & 0x3 for k in range(n_rx)]
        if sorted(perm) == list(range(n_rx)):
            permuted = np.empty_like(csi)
            permuted[perm, :, :] = csi
            csi = permuted
    return header, csi


def read_bfee(path) -> list[tuple[dict, np.ndarray]]:
    """Every bfee record of a well-framed log, decoded one value at a time."""
    raw = Path(path).read_bytes()
    records, offset = [], 0
    while offset + 3 <= len(raw):
        (field_len,) = struct.unpack_from(">H", raw, offset)
        if raw[offset + 2] == 0xBB:
            records.append(decode_bfee_csi(raw[offset + 3 : offset + 2 + field_len]))
        offset += 2 + field_len
    return records


def rssi_dbm(header: dict) -> float:
    mag = sum(10.0 ** (np.asarray(r, dtype=float) / 10.0) for r in header["rssi"] if r != 0)
    if mag <= 0:
        return float("-inf")
    return float(10.0 * np.log10(mag)) - 44.0 - header["agc"]


def noise_dbm(header: dict) -> float:
    return -92.0 if header["noise"] == -127 else float(header["noise"])


def scaled_csi(header: dict, csi: np.ndarray) -> np.ndarray:
    """The csitool ``get_scaled_csi`` formula for one record."""
    csi = csi.astype(complex)
    csi_pwr = float(np.sum(np.abs(csi) ** 2))
    if csi_pwr == 0:
        return csi
    scale = 10.0 ** (np.asarray(rssi_dbm(header)) / 10.0) / (csi_pwr / 30.0)
    total_noise_pwr = 10.0 ** (np.asarray(noise_dbm(header)) / 10.0) + (
        scale * header["n_rx"] * header["n_tx"]
    )
    ret = csi * np.sqrt(scale / total_noise_pwr)
    if header["n_tx"] == 2:
        ret *= np.sqrt(2.0)
    elif header["n_tx"] == 3:
        ret *= np.sqrt(10.0 ** (np.asarray(4.5) / 10.0))
    return ret


def read_intel_dat(path, *, stream=0, bandwidth_mhz=40, scale=True):
    """``(csi, times, rssi_dbm, snr_db)`` of a single-shape log, one record at a time."""
    records = read_bfee(path)
    n_tx = records[0][0]["n_tx"]
    matrices = []
    for header, raw_csi in records:
        csi = scaled_csi(header, raw_csi) if scale else raw_csi.astype(complex)
        csi = remove_spatial_mapping(np.moveaxis(csi, 1, 2), n_tx, bandwidth_mhz=bandwidth_mhz)
        matrices.append(csi[:, :, stream])
    times = np.array([header["timestamp_low"] * 1e-6 for header, _ in records])
    measured = [rssi_dbm(h) for h, _ in records if np.isfinite(rssi_dbm(h))]
    rssi = float(np.mean(measured)) if measured else float("nan")
    noise = float(np.mean([noise_dbm(h) for h, _ in records]))
    return np.array(matrices), times, rssi, rssi - noise


def fit_phase_slope(csi: np.ndarray, indices: np.ndarray) -> tuple[float, np.ndarray]:
    """SpotFi's joint common-slope fit for one ``(antennas, subcarriers)`` packet."""
    phases = np.unwrap(np.angle(csi), axis=-1)
    shift = np.round((phases[:, 0] - phases[0, 0]) / (2 * np.pi)) * 2 * np.pi
    phases = phases - shift[:, None]
    centered_idx = indices - indices.mean()
    slope = float(
        np.sum((phases - phases.mean(axis=1, keepdims=True)) * centered_idx)
        / (phases.shape[0] * np.sum(centered_idx**2))
    )
    return slope, phases.mean(axis=1) - slope * indices.mean()


def fit_phase_slopes(csi: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`fit_phase_slope` looped over a ``(packets, antennas, subcarriers)`` stack."""
    slopes = np.empty(len(csi))
    intercepts = np.empty(csi.shape[:2])
    for p in range(len(csi)):
        slopes[p], intercepts[p] = fit_phase_slope(csi[p], indices)
    return slopes, intercepts


def sto_removal(csi: np.ndarray, indices: np.ndarray, *, remove_intercept=True):
    """SpotFi Algorithm 1 packet by packet: ``(cleaned, slopes)``."""
    cleaned = np.empty_like(csi)
    slopes = np.empty(len(csi))
    for p in range(len(csi)):
        slope, intercepts = fit_phase_slope(csi[p], indices)
        ramp = slope * indices
        if remove_intercept:
            ramp = ramp + float(intercepts.mean())
        cleaned[p] = csi[p] * np.exp(-1j * ramp)
        slopes[p] = slope
    return cleaned, slopes
