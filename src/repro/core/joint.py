"""Joint ToA&AoA sparse recovery (paper §III-B, Eq. 14–18).

Stacks all subcarrier measurements of one packet into the 90-element
vector of Eq. 15, and solves the LASSO against the joint dictionary of
Eq. 16.  The recovered coefficient magnitudes, reshaped onto the
(angle × delay) grid, are the 2-D spectrum of paper Fig. 4; its
smallest-ToA peak is the direct path.

The aperture argument of §III-B falls out of the shapes: the stacked
measurement has M·L = 90 entries instead of M = 3, so many more than
M − 1 paths are resolvable.
"""

from __future__ import annotations

import numpy as np

from repro.core.steering import SteeringCache, vectorize_csi_matrix
from repro.exceptions import SolverError
from repro.obs import NULL_TRACER, ConvergenceTrace
from repro.optim import solve_lasso_fista
from repro.optim.result import SolverResult, check_divergence
from repro.optim.tuning import residual_kappa
from repro.spectral.spectrum import JointSpectrum


def coefficients_to_joint_power(coefficients: np.ndarray, n_angles: int, n_toas: int) -> np.ndarray:
    """Reshape a delay-major coefficient vector into an (angle, delay) grid.

    Column ``j·Nθ + i`` of the Eq. 16 dictionary corresponds to angle
    ``i`` and delay ``j``, so the magnitude vector reshapes to
    ``(Nτ, Nθ)`` and transposes into the ``(Nθ, Nτ)`` layout of
    :class:`~repro.spectral.spectrum.JointSpectrum`.
    """
    magnitudes = np.abs(np.asarray(coefficients))
    if magnitudes.ndim == 2:
        magnitudes = np.linalg.norm(magnitudes, axis=1)
    if magnitudes.size != n_angles * n_toas:
        raise SolverError(
            f"coefficient vector has {magnitudes.size} entries, expected {n_angles}×{n_toas}"
        )
    return magnitudes.reshape(n_toas, n_angles).T


def estimate_joint_spectrum(
    csi_matrix: np.ndarray,
    cache: SteeringCache,
    *,
    kappa: float | None = None,
    kappa_fraction: float = 0.05,
    max_iterations: int = 300,
    tracer=NULL_TRACER,
    telemetry: ConvergenceTrace | None = None,
) -> tuple[JointSpectrum, SolverResult]:
    """Single-packet joint (AoA, ToA) spectrum (paper Eq. 18).

    The solve runs on the cache's structured
    :attr:`~repro.core.steering.SteeringCache.joint_operator` — the
    Kronecker form of the Eq. 16 dictionary — so the dense ``(M·L) ×
    (Nθ·Nτ)`` matrix is never materialized.

    Parameters
    ----------
    csi_matrix:
        One packet's CSI, shape ``(M, L)`` (paper Eq. 4).
    cache:
        The steering cache providing the Eq. 16 dictionary; its grids
        define the spectrum axes.
    tracer:
        Optional :class:`~repro.obs.Tracer`; when enabled the solve runs
        inside a ``"solver"`` span carrying iteration counts and (unless
        a ``telemetry`` trace was passed explicitly) a freshly recorded
        per-iteration :class:`~repro.obs.ConvergenceTrace`.  The default
        no-op tracer adds no work.
    telemetry:
        Optional :class:`~repro.obs.ConvergenceTrace` forwarded to the
        solver and attached to the returned
        :class:`~repro.optim.result.SolverResult`.

    Returns
    -------
    (JointSpectrum, SolverResult)

    Raises
    ------
    SolverDivergenceError
        When the solve's objective is non-finite or worse than the zero
        solution's (:func:`~repro.optim.result.check_divergence`).
    """
    csi_matrix = np.asarray(csi_matrix, dtype=complex)
    expected = (cache.array.n_antennas, cache.layout.n_subcarriers)
    if csi_matrix.shape != expected:
        raise SolverError(f"csi matrix has shape {csi_matrix.shape}, expected {expected}")

    y = vectorize_csi_matrix(csi_matrix)
    dictionary = cache.joint_operator
    if kappa is None:
        kappa = residual_kappa(dictionary, y, fraction=kappa_fraction)
    if telemetry is None and tracer.enabled:
        telemetry = ConvergenceTrace(solver="fista")
    with tracer.span("solver", solver="fista", stage="joint_spectrum") as span:
        result = solve_lasso_fista(
            dictionary,
            y,
            kappa,
            max_iterations=max_iterations,
            lipschitz=cache.joint_lipschitz,
            telemetry=telemetry,
        )
        span.annotate(iterations=result.iterations, converged=result.converged)
        if telemetry is not None:
            span.annotate(convergence=telemetry.to_dict())
        check_divergence(result, y)

    power = coefficients_to_joint_power(
        result.x, cache.angle_grid.n_points, cache.delay_grid.n_points
    )
    spectrum = JointSpectrum(cache.angle_grid.angles_deg, cache.delay_grid.toas_s, power)
    return spectrum, result
