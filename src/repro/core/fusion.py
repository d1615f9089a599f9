"""Multi-packet fusion (paper §III-D).

Two obstacles keep packets from being averaged naively:

1. **Per-packet detection delay** — every packet's ToAs are shifted by
   an unknown common delay (paper Fig. 4a vs. 4b), so the joint-sparse
   assumption (all packets share the same active grid cells) only holds
   *after* the packets are delay-aligned.  :func:`estimate_relative_delay`
   recovers each packet's delay relative to the first by matched
   filtering the inter-packet phase ramp, and
   :func:`align_packet_delays` compensates it.
2. **Problem size** — P packets multiply the snapshot dimension.  After
   the method of Malioutov et al. [25], :func:`svd_reduce_snapshots`
   projects the snapshot matrix onto its top singular vectors (the
   signal subspace), keeping the joint-sparse structure while shrinking
   the MMV problem to at most ``rank`` columns.

:func:`fuse_packets` chains align → vectorize → SVD-reduce → ℓ2,1 solve
and returns the fused 2-D spectrum of paper Fig. 4c for each of several
packet batches — one per access point of a location, which all share
the cache's dictionary — solving their ℓ2,1 programs as lockstep
blocks (:func:`~repro.optim.batch.solve_batch`).
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.channel.ofdm import SubcarrierLayout
from repro.core.joint import coefficients_to_joint_power
from repro.core.steering import SteeringCache, vectorize_csi_matrix
from repro.exceptions import SolverError
from repro.obs import NULL_TRACER, ConvergenceTrace
# perfbench's Fig. 6 ledger looks solve_mmv_fista up on this module, so
# the name stays importable here although fuse_packets calls solve_batch.
from repro.optim import solve_batch, solve_mmv_fista  # noqa: F401
from repro.optim.result import SolverResult, check_divergence
from repro.optim.tuning import mmv_residual_kappa
from repro.spectral.spectrum import JointSpectrum


def estimate_relative_delay(
    reference: np.ndarray,
    packet: np.ndarray,
    layout: SubcarrierLayout,
    *,
    search_range_s: float = 400e-9,
    resolution_s: float = 1e-9,
) -> float:
    """Delay of ``packet`` relative to ``reference`` (seconds).

    Both inputs are CSI matrices of the *same static link*; their
    element-wise cross term ``packet · reference*`` carries a pure phase
    ramp ``exp(−j2π·fδ·Δτ·l)`` across subcarriers.  We matched-filter
    that ramp over a fine delay grid, which is robust at low SNR where
    phase unwrapping fails.
    """
    reference = np.asarray(reference)
    packet = np.asarray(packet)
    if reference.shape != packet.shape:
        raise SolverError(f"packet shapes differ: {reference.shape} vs {packet.shape}")
    cross = np.mean(packet * reference.conj(), axis=0)  # (L,) averaged over antennas

    candidates, ramps = _delay_ramp_bank(
        layout.spacing, cross.size, search_range_s, resolution_s
    )
    scores = np.abs(ramps @ cross)
    return float(candidates[int(np.argmax(scores))])


@lru_cache(maxsize=16)
def _delay_ramp_bank(
    spacing: float, n_subcarriers: int, search_range_s: float, resolution_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate delays and their ``(n_candidates, L)`` phase ramps.

    The bank depends only on the subcarrier spacing, the width and the
    search grid, so it is built once per combination and shared by
    every packet; both arrays are read-only.
    """
    candidates = np.arange(-search_range_s, search_range_s + resolution_s, resolution_s)
    subcarriers = np.arange(n_subcarriers)
    ramps = np.exp(2j * np.pi * spacing * candidates[:, None] * subcarriers[None, :])
    candidates.flags.writeable = False
    ramps.flags.writeable = False
    return candidates, ramps


def align_packet_delays(
    csi: np.ndarray, layout: SubcarrierLayout, *, search_range_s: float = 400e-9
) -> tuple[np.ndarray, np.ndarray]:
    """Remove per-packet detection delay relative to the first packet.

    Parameters
    ----------
    csi:
        Packet batch of shape ``(P, M, L)``.

    Returns
    -------
    (aligned, delays)
        The delay-compensated batch and the estimated relative delays
        (``delays[0]`` is 0 by construction).
    """
    csi = np.asarray(csi, dtype=complex)
    if csi.ndim != 3:
        raise SolverError(f"csi batch must be 3-D (packets, antennas, subcarriers), got {csi.shape}")
    n_packets = csi.shape[0]
    aligned = csi.copy()
    delays = np.zeros(n_packets)
    subcarriers = np.arange(csi.shape[2])
    for p in range(1, n_packets):
        delay = estimate_relative_delay(csi[0], csi[p], layout, search_range_s=search_range_s)
        delays[p] = delay
        compensation = np.exp(2j * np.pi * layout.spacing * delay * subcarriers)
        aligned[p] = csi[p] * compensation[None, :]
    return aligned, delays


def svd_reduce_snapshots(snapshots: np.ndarray, rank: int) -> np.ndarray:
    """Project a snapshot matrix onto its dominant singular vectors.

    Following Malioutov et al. [25]: for ``Y ∈ ℂ^{m×P}`` with SVD
    ``Y = UΣVᴴ``, return ``Y V_r = U_r Σ_r`` of shape ``(m, r)`` with
    ``r = min(rank, P, m)``.  The retained columns span the signal
    subspace, so the jointly sparse representation is preserved while
    the MMV width drops from P to r.
    """
    snapshots = np.asarray(snapshots)
    if snapshots.ndim != 2:
        raise SolverError(f"snapshots must be 2-D, got shape {snapshots.shape}")
    if rank < 1:
        raise SolverError(f"rank must be >= 1, got {rank}")
    effective = min(rank, *snapshots.shape)
    if snapshots.shape[1] <= effective:
        return snapshots
    _, _, vh = np.linalg.svd(snapshots, full_matrices=False)
    return snapshots @ vh[:effective].conj().T


def fuse_packets(
    batches: Sequence[np.ndarray],
    cache: SteeringCache,
    *,
    kappa_fraction: float = 0.05,
    max_iterations: int = 300,
    svd_rank: int = 6,
    align_delays: bool = True,
    tracers: Sequence | None = None,
) -> list[tuple[JointSpectrum, SolverResult]]:
    """Coherent multi-packet joint (AoA, ToA) spectra (paper Fig. 4c).

    Each packet batch is delay-aligned, SVD-reduced and given its own κ
    as a lone batch would be; then the ℓ2,1 programs of one snapshot
    width are solved together, one
    :func:`~repro.optim.batch.solve_batch` call on the cache's
    structured :attr:`~repro.core.steering.SteeringCache.joint_operator`,
    whose lockstep blocks give every problem the solution of its own
    ``B = 1`` solve bit for bit.

    Parameters
    ----------
    batches:
        A sequence of packet batches ``(P, M, L)`` (a 2-D CSI matrix is
        one packet), e.g. one per access point.  A bare 3-D array is
        refused, since it would read as one batch per packet.
    align_delays:
        Compensate per-packet detection delay first (on by default; the
        ablation benchmark turns it off to show why it matters).
    tracers:
        Optional tracer per batch (the no-op tracer by default): the
        batch's delay alignment and SVD reduction each get a span on
        it, and its solve a ``solver`` span carrying a per-iteration
        :class:`~repro.obs.ConvergenceTrace` and an equal share of its
        solve call's wall and CPU time.

    Returns
    -------
    list of (JointSpectrum, SolverResult)
        One per batch, in order: the fused spectrum on the cache's
        grids, whose ToA axis carries the batch's first packet's
        (unknown, common) detection delay — harmless for direct-path
        identification, which only ranks delays — and its solve.

    Raises
    ------
    SolverError
        When a batch is malformed or non-finite.
    SolverDivergenceError
        When a solve's objective is non-finite or worse than the zero
        solution's (:func:`~repro.optim.result.check_divergence`).
    """
    if isinstance(batches, np.ndarray):
        raise SolverError(
            "fuse_packets takes a sequence of packet batches, not one array; "
            "pass [csi] for a single batch"
        )
    batches = list(batches)
    tracers = [NULL_TRACER] * len(batches) if tracers is None else list(tracers)
    if len(tracers) != len(batches):
        raise SolverError(f"{len(tracers)} tracers for {len(batches)} packet batches")
    dictionary = cache.joint_operator
    snapshots, kappas = [], []
    for csi, tracer in zip(batches, tracers):
        reduced = _reduced_snapshots(csi, cache, svd_rank, align_delays, tracer)
        try:
            kappas.append(mmv_residual_kappa(dictionary, reduced, fraction=kappa_fraction))
        except SolverError:
            raise SolverError("packets are orthogonal to every steering vector") from None
        snapshots.append(reduced)

    fused = [None] * len(batches)
    for width in dict.fromkeys(y.shape[1] for y in snapshots):
        members = [i for i, y in enumerate(snapshots) if y.shape[1] == width]
        telemetry = [
            ConvergenceTrace(solver="mmv_fista") if tracers[i].enabled else None for i in members
        ]
        wall, cpu = time.perf_counter(), time.process_time()
        solved = solve_batch(
            dictionary,
            [snapshots[i] for i in members],
            "mmv",
            kappa=[kappas[i] for i in members],
            max_iterations=max_iterations,
            lipschitz=cache.joint_lipschitz,
            telemetry=telemetry,
        )
        wall = (time.perf_counter() - wall) / len(members)
        cpu = (time.process_time() - cpu) / len(members)
        for slot, i in enumerate(members):
            result = SolverResult(
                x=solved.x[slot],
                objective=solved.objectives[slot],
                iterations=solved.iterations[slot],
                converged=solved.converged[slot],
                convergence=telemetry[slot],
            )
            attributes = {"iterations": result.iterations, "converged": result.converged}
            if result.convergence is not None:
                attributes["convergence"] = result.convergence.to_dict()
            tracers[i].record(
                "solver", wall_s=wall, cpu_s=cpu, solver="mmv_fista", stage="fusion", **attributes
            )
            check_divergence(result, snapshots[i])
            power = coefficients_to_joint_power(
                result.x, cache.angle_grid.n_points, cache.delay_grid.n_points
            )
            spectrum = JointSpectrum(cache.angle_grid.angles_deg, cache.delay_grid.toas_s, power)
            fused[i] = (spectrum, result)
    return fused


def _reduced_snapshots(csi, cache, svd_rank, align_delays, tracer) -> np.ndarray:
    """One batch's checked, delay-aligned, SVD-reduced ``(m, r)`` snapshots."""
    csi = np.asarray(csi, dtype=complex)
    if csi.ndim == 2:
        csi = csi[None]
    expected = (cache.array.n_antennas, cache.layout.n_subcarriers)
    if csi.ndim != 3 or csi.shape[1:] != expected:
        raise SolverError(
            f"csi batch has shape {csi.shape}, expected (packets, {expected[0]}, {expected[1]})"
        )
    if not np.all(np.isfinite(csi)):
        raise SolverError("csi batch contains non-finite entries")
    if align_delays and csi.shape[0] > 1:
        with tracer.span("delay_alignment", n_packets=int(csi.shape[0])):
            csi, _ = align_packet_delays(csi, cache.layout)

    with tracer.span("svd_reduction", rank=svd_rank):
        snapshots = np.stack([vectorize_csi_matrix(packet) for packet in csi], axis=1)
        return svd_reduce_snapshots(snapshots, svd_rank)
