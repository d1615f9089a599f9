"""Heuristics for choosing the sparsity weight κ.

The paper's Eq. 10 bounds the residual by a noise-tolerance parameter γ
and Eq. 11 folds it into the Lagrangian weight κ.  Neither value is
reported, so κ is chosen as a fraction of the zero-solution gradient,
in its LASSO and ℓ2,1 forms, consistently across the core and the
baselines' ablations.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SolverError
from repro.optim.linalg import squared_norms
from repro.optim.operators import as_operator


def residual_kappa(matrix, rhs: np.ndarray, *, fraction: float = 0.05) -> float:
    """κ as a fraction of the zero-solution gradient, κ = f·‖2Aᴴy‖_∞.

    ``‖2Aᴴy‖_∞`` is the smallest κ for which x = 0 is the LASSO
    minimizer; any κ below it admits a nonzero solution.  Choosing a
    small fraction of it adapts the sparsity weight to the measurement
    scale without needing a noise estimate — the choice we use when the
    receiver has no SNR side information.  It is the one-column case of
    :func:`mmv_residual_kappa`, as the LASSO is the one-column ℓ2,1
    program.
    """
    return mmv_residual_kappa(matrix, np.asarray(rhs)[:, None], fraction=fraction)


def mmv_residual_kappa(matrix, snapshots: np.ndarray, *, fraction: float = 0.05) -> float:
    """κ for the ℓ2,1 program, as a fraction of its critical value.

    For ``min ‖AX − Y‖_F² + κ Σᵢ‖Xᵢ,:‖₂`` the zero solution is optimal
    iff ``κ ≥ max_i 2‖(AᴴY)ᵢ,:‖₂``; κ is chosen as a fraction of that
    critical value.
    """
    if not 0 < fraction < 1:
        raise SolverError(f"fraction must be in (0, 1), got {fraction}")
    if snapshots.ndim != 2:
        raise SolverError(f"snapshot matrix must be 2-D, got ndim={snapshots.ndim}")
    rows = squared_norms(as_operator(matrix).rmatvec(snapshots), axis=1)
    peak = 2.0 * float(np.sqrt(rows.max(initial=0.0)))
    if peak == 0.0:
        raise SolverError("measurement is orthogonal to every dictionary atom (all-zero gradient)")
    return fraction * peak
