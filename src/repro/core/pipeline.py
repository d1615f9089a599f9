"""The end-to-end ROArray estimator.

:class:`RoArrayEstimator` packages the full per-AP chain — joint sparse
recovery (single packet) or delay-aligned multi-packet fusion, followed
by smallest-ToA direct-path identification — behind the same
``estimate_direct_path(trace)`` interface the baselines implement, so
the evaluation harness treats all three systems uniformly.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Sequence

import numpy as np

from repro.channel.array import UniformLinearArray
from repro.channel.ofdm import SubcarrierLayout, intel5300_layout
from repro.channel.trace import CsiTrace
from repro.core.aoa import estimate_aoa_spectrum
from repro.core.config import RoArrayConfig
from repro.core.direct_path import ApAnalysis, DirectPathEstimate, identify_direct_path
from repro.core.fusion import fuse_packets
from repro.core.joint import estimate_joint_spectrum
from repro.core.steering import SteeringCache
from repro.obs import NULL_TRACER
from repro.spectral.spectrum import AngleSpectrum, JointSpectrum


class RoArrayEstimator:
    """ROArray's per-AP estimation pipeline.

    Parameters
    ----------
    array / layout:
        The receiver hardware model; defaults to the paper's 3-antenna
        half-wavelength ULA on the Intel 5300 subcarrier layout.
    config:
        Grids and solver tunables (:class:`~repro.core.config.RoArrayConfig`).
    tracer:
        Optional :class:`~repro.obs.Tracer`.  When enabled, every stage
        (steering warmup, joint/fused spectrum, direct-path selection)
        runs inside a named span and the sparse solves record
        per-iteration :class:`~repro.obs.ConvergenceTrace` telemetry.
        The default is the shared no-op tracer, which adds no work and
        leaves every numerical output byte-identical.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.channel import CsiSynthesizer, UniformLinearArray
    >>> from repro.channel import intel5300_layout, random_profile
    >>> rng = np.random.default_rng(0)
    >>> synthesizer = CsiSynthesizer(UniformLinearArray(), intel5300_layout())
    >>> profile = random_profile(rng, direct_aoa_deg=150.0)
    >>> trace = synthesizer.packets(profile, n_packets=1, snr_db=10, rng=rng)
    >>> estimate = RoArrayEstimator().estimate_direct_path(trace)
    >>> abs(estimate.aoa_deg - 150.0) < 10
    True
    """

    name = "ROArray"

    def __init__(
        self,
        array: UniformLinearArray | None = None,
        layout: SubcarrierLayout | None = None,
        config: RoArrayConfig | None = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.array = array or UniformLinearArray()
        self.layout = layout or intel5300_layout()
        self.config = config or RoArrayConfig()
        self.tracer = tracer
        self.cache = SteeringCache(
            self.array, self.layout, self.config.angle_grid, self.config.delay_grid
        )

    def warm_cache(self) -> None:
        """Build the steering-cache artifacts inside a traced span.

        Memoized — the second call is free — so callers (the batch
        runtime's workers, the experiment drivers) can invoke it
        unconditionally; the ``steering_warmup`` span records the
        amortized (near-zero) cost on every call after the first.
        """
        with self.tracer.span("steering_warmup") as span:
            self.cache.warmup()
            span.annotate(warmup_s=self.cache.warmup_seconds)

    # -- spectra -----------------------------------------------------------

    def aoa_spectrum(
        self,
        trace: CsiTrace,
        *,
        max_iterations: int | None = None,
        method: str = "joint",
    ) -> AngleSpectrum:
        """ROArray's AoA spectrum.

        ``method="joint"`` (default) collapses the fused joint (AoA, ToA)
        spectrum onto the angle axis — the full coherent treatment, and
        what the system's accuracy rests on.  ``method="spatial"`` runs
        the narrowband sparse recovery of §III-A alone (every subcarrier
        of every packet as a snapshot), which is what the iteration-
        progress figure (Fig. 3) illustrates.
        """
        if method == "joint":
            return self.joint_spectrum(trace).angle_marginal()
        if method != "spatial":
            raise ValueError(f"method must be 'joint' or 'spatial', got {method!r}")
        with self.tracer.span("aoa_spectrum", method=method):
            snapshots = np.moveaxis(trace.csi, 1, 0).reshape(trace.n_antennas, -1)
            spectrum, _ = estimate_aoa_spectrum(
                snapshots,
                self.array,
                self.config.angle_grid,
                kappa_fraction=self.config.kappa_fraction,
                max_iterations=max_iterations or self.config.max_iterations,
                dictionary=self.cache.angle_dictionary,
                lipschitz=self.cache.angle_lipschitz,
                tracer=self.tracer,
            )
        return spectrum

    def joint_spectrum(self, trace: CsiTrace, *, packet: int | None = None) -> JointSpectrum:
        """Joint (AoA, ToA) spectrum (paper §III-B / Fig. 4).

        With ``packet`` given, estimates from that single packet;
        otherwise fuses all packets coherently (delay alignment + SVD +
        ℓ2,1 recovery, §III-D).
        """
        if packet is not None:
            with self.tracer.span("joint_spectrum", packet=packet):
                spectrum, _ = estimate_joint_spectrum(
                    trace.packet(packet),
                    self.cache,
                    kappa_fraction=self.config.kappa_fraction,
                    max_iterations=self.config.max_iterations,
                    tracer=self.tracer,
                )
            return spectrum
        return self.joint_spectra([trace])[0]

    def joint_spectra(
        self, traces: Sequence[CsiTrace], *, tracers: Sequence | None = None
    ) -> list[JointSpectrum]:
        """The fused joint spectra of several traces, e.g. a location's APs.

        Each spectrum is the one :meth:`joint_spectrum` gives its trace
        alone, bit for bit: :func:`~repro.core.fusion.fuse_packets`
        solves the traces' ℓ2,1 programs as lockstep blocks.  ``tracers``
        gives one tracer per trace (the estimator's own by default); each
        distinct tracer gets one ``fusion`` span around the call, with
        its traces' alignment, SVD and solver spans inside.
        """
        traces = list(traces)
        tracers = [self.tracer] * len(traces) if tracers is None else list(tracers)
        with ExitStack() as spans:
            for tracer in {id(tracer): tracer for tracer in tracers}.values():
                n_packets = sum(t.n_packets for t, owner in zip(traces, tracers) if owner is tracer)
                spans.enter_context(tracer.span("fusion", n_packets=n_packets))
            fused = fuse_packets(
                [trace.csi for trace in traces],
                self.cache,
                kappa_fraction=self.config.kappa_fraction,
                max_iterations=self.config.max_iterations,
                svd_rank=self.config.svd_rank,
                tracers=tracers,
            )
        return [spectrum for spectrum, _ in fused]

    # -- direct path -------------------------------------------------------

    def analyze(self, trace: CsiTrace) -> ApAnalysis:
        """Full per-AP analysis: fused joint spectrum → paths → direct path."""
        return self.analysis_from_spectrum(self.joint_spectrum(trace))

    def analysis_from_spectrum(self, spectrum: JointSpectrum) -> ApAnalysis:
        """The peak-picking half of :meth:`analyze`.

        Split out so callers that already hold the fused spectrum (the
        batch runtime, which times the solve and peak stages separately)
        can finish the analysis without re-solving; ``analyze(trace)``
        is exactly ``analysis_from_spectrum(joint_spectrum(trace))``.
        One peak search yields both the candidate angles and the
        smallest-ToA direct path.
        """
        with self.tracer.span("direct_path") as span:
            peaks = spectrum.peaks(
                max_peaks=self.config.max_paths, min_relative_height=self.config.peak_floor
            )
            direct = identify_direct_path(
                spectrum,
                max_paths=self.config.max_paths,
                peak_floor=self.config.peak_floor,
                peaks=peaks,
            )
            span.annotate(n_paths=direct.n_paths, aoa_deg=direct.aoa_deg)
        return ApAnalysis(direct=direct, candidate_aoas_deg=tuple(peak.aoa_deg for peak in peaks))

    def estimate_direct_path(self, trace: CsiTrace) -> DirectPathEstimate:
        """Full chain: fused joint spectrum → smallest-ToA peak."""
        return self.analyze(trace).direct
