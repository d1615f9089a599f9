"""Direct-path identification (paper §III-B).

ROArray's rule is geometric and needs no motion or clustering: the
line-of-sight path is the shortest one, so among the joint spectrum's
peaks the one with the **smallest ToA** is the direct path.  (The
per-packet detection delay shifts all ToAs equally, so the ranking
survives it.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spectral.spectrum import JointSpectrum, SpectrumPeak


@dataclass(frozen=True)
class DirectPathEstimate:
    """The per-AP output of ROArray's estimation chain.

    Attributes
    ----------
    aoa_deg:
        Direct-path angle of arrival — the quantity localization uses.
    toa_s:
        Direct-path ToA *including* the residual detection delay; usable
        only for ranking, not absolute ranging (paper §V).
    power:
        Spectrum power of the chosen peak.
    n_paths:
        How many paths the spectrum resolved (for diagnostics and the
        sparsity ablations).
    """

    aoa_deg: float
    toa_s: float
    power: float
    n_paths: int

    def __post_init__(self) -> None:
        if np.isnan(self.aoa_deg):
            raise ValueError("direct-path AoA is NaN")

    def to_dict(self) -> dict:
        """JSON-ready view (round-trips exactly through :meth:`from_dict`)."""
        return {
            "aoa_deg": float(self.aoa_deg),
            "toa_s": float(self.toa_s),
            "power": float(self.power),
            "n_paths": int(self.n_paths),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DirectPathEstimate":
        return cls(
            aoa_deg=float(payload["aoa_deg"]),
            toa_s=float(payload["toa_s"]),
            power=float(payload["power"]),
            n_paths=int(payload["n_paths"]),
        )


@dataclass(frozen=True)
class ApAnalysis:
    """Everything a system extracts from one AP's trace.

    ``direct`` feeds localization; ``candidate_aoas_deg`` (all resolved
    path angles) feeds the closest-peak AoA-error metric of paper
    Fig. 7.
    """

    direct: DirectPathEstimate
    candidate_aoas_deg: tuple[float, ...]

    def closest_aoa_error(self, true_aoa_deg: float) -> float:
        """Paper Fig. 7 metric: |truth − closest resolved angle|."""
        if not self.candidate_aoas_deg:
            return abs(self.direct.aoa_deg - true_aoa_deg)
        return min(abs(aoa - true_aoa_deg) for aoa in self.candidate_aoas_deg)

    def to_dict(self) -> dict:
        """JSON-ready view (round-trips exactly through :meth:`from_dict`).

        Floats survive byte-exactly: ``json`` serializes Python floats
        with ``repr``, which round-trips every IEEE-754 double — the
        property the checkpoint journal's replayed-equals-recomputed
        guarantee rests on.
        """
        return {
            "direct": self.direct.to_dict(),
            "candidate_aoas_deg": [float(a) for a in self.candidate_aoas_deg],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ApAnalysis":
        return cls(
            direct=DirectPathEstimate.from_dict(payload["direct"]),
            candidate_aoas_deg=tuple(float(a) for a in payload["candidate_aoas_deg"]),
        )


def identify_direct_path(
    spectrum: JointSpectrum,
    *,
    max_paths: int = 8,
    peak_floor: float = 0.1,
    peaks: list[SpectrumPeak] | None = None,
) -> DirectPathEstimate:
    """Pick the smallest-ToA peak of a joint (AoA, ToA) spectrum.

    Parameters
    ----------
    max_paths:
        Peak-count cap — the sparsity prior (~5 dominant indoor paths).
    peak_floor:
        Minimum relative height for a local maximum to count as a path;
        keeps solver ripple from becoming phantom early arrivals.
    peaks:
        ``spectrum.peaks(max_peaks=max_paths,
        min_relative_height=peak_floor)`` when the caller has already
        searched for them; searched here otherwise.
    """
    if peaks is None:
        peaks = spectrum.peaks(max_peaks=max_paths, min_relative_height=peak_floor)
    if not peaks:
        best = spectrum.direct_path_peak(max_peaks=max_paths, min_relative_height=peak_floor)
        return DirectPathEstimate(best.aoa_deg, best.toa_s, best.power, n_paths=1)
    chosen = min(peaks, key=_toa_key)
    return DirectPathEstimate(chosen.aoa_deg, chosen.toa_s, chosen.power, n_paths=len(peaks))


def _toa_key(peak: SpectrumPeak) -> float:
    return peak.toa_s
