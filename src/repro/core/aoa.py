"""Sparse AoA estimation (paper §III-A, Eq. 11).

Casts the narrowband array equation ``y = S a`` into the grid-linearized
LASSO ``min ‖y − S̃ã‖₂² + κ‖ã‖₁`` and reads the AoA spectrum off the
recovered coefficient magnitudes.  Accepts either a single snapshot
(one subcarrier of one packet) or a snapshot matrix (e.g. all 30
subcarriers), in which case the joint-sparse MMV solver produces one
coherent spectrum instead of 30 independent ones.  Both are one ℓ2,1
solve: a single snapshot is its one-column case, where the ℓ2,1
program is the LASSO.
"""

from __future__ import annotations

import numpy as np

from repro.channel.array import UniformLinearArray
from repro.core.grids import AngleGrid
from repro.core.steering import angle_steering_dictionary
from repro.exceptions import SolverError
from repro.obs import NULL_TRACER, ConvergenceTrace
from repro.optim import solve_mmv_fista
from repro.optim.linalg import estimate_lipschitz
from repro.optim.result import SolverResult
from repro.optim.tuning import mmv_residual_kappa
from repro.spectral.spectrum import AngleSpectrum


def estimate_aoa_spectrum(
    snapshots: np.ndarray,
    array: UniformLinearArray,
    grid: AngleGrid | None = None,
    *,
    kappa: float | None = None,
    kappa_fraction: float = 0.05,
    max_iterations: int = 300,
    dictionary=None,
    lipschitz: float | None = None,
    tracer=NULL_TRACER,
    telemetry: ConvergenceTrace | None = None,
) -> tuple[AngleSpectrum, SolverResult]:
    """Sparse-recovery AoA spectrum from one or more array snapshots.

    Parameters
    ----------
    snapshots:
        Shape ``(M,)`` for a single snapshot or ``(M, N)`` for N
        snapshots (subcarriers and/or packets).
    grid:
        Angle grid; defaults to 1°-spaced [0°, 180°].
    kappa:
        Explicit sparsity weight; derived from ``kappa_fraction`` of the
        zero-solution gradient when omitted (robust without an SNR
        estimate).
    dictionary / lipschitz:
        Optional precomputed Eq. 6 dictionary (dense ndarray or
        :class:`~repro.optim.operators.DictionaryOperator`) and its
        ‖S̃ᴴS̃‖₂ — pass both when solving repeatedly on the same grid.
    tracer / telemetry:
        As in :func:`~repro.core.joint.estimate_joint_spectrum` — the
        solve runs inside a ``"solver"`` span and records a
        per-iteration :class:`~repro.obs.ConvergenceTrace` when tracing
        is enabled.

    Returns
    -------
    (AngleSpectrum, SolverResult)
        The spectrum is the recovered coefficient magnitude profile
        (row ℓ2 norms in the multi-snapshot case); peaks are AoA
        estimates (paper Fig. 3).
    """
    snapshots = np.asarray(snapshots, dtype=complex)
    if snapshots.ndim not in (1, 2):
        raise SolverError(f"snapshots must be 1-D or 2-D, got ndim={snapshots.ndim}")
    if grid is None:
        grid = AngleGrid()

    if dictionary is None:
        dictionary = angle_steering_dictionary(array, grid)
    if dictionary.shape[0] != snapshots.shape[0]:
        raise SolverError(
            f"snapshots have {snapshots.shape[0]} sensors but dictionary expects {dictionary.shape[0]}"
        )
    if lipschitz is None:
        lipschitz = estimate_lipschitz(dictionary)

    solver_name = "fista" if snapshots.ndim == 1 else "mmv_fista"
    if telemetry is None and tracer.enabled:
        telemetry = ConvergenceTrace(solver=solver_name)
    with tracer.span("solver", solver=solver_name, stage="aoa_spectrum") as span:
        # One ℓ2,1 solve: a single snapshot is one column, and the
        # power is each row's norm (the entry's modulus for one column).
        columns = snapshots.reshape(len(snapshots), -1)
        if kappa is None:
            try:
                kappa = mmv_residual_kappa(dictionary, columns, fraction=kappa_fraction)
            except SolverError:
                raise SolverError("snapshots are orthogonal to every steering vector") from None
        result = solve_mmv_fista(
            dictionary,
            columns,
            kappa,
            max_iterations=max_iterations,
            lipschitz=lipschitz,
            telemetry=telemetry,
        )
        power = np.linalg.norm(result.x, axis=1)
        result.x = result.x.reshape(-1, *snapshots.shape[1:])
        span.annotate(iterations=result.iterations, converged=result.converged)
        if telemetry is not None:
            span.annotate(convergence=telemetry.to_dict())

    return AngleSpectrum(grid.angles_deg, power), result
