"""Heuristics for choosing the sparsity weight κ.

The paper's Eq. 10 bounds the residual by a noise-tolerance parameter γ
and Eq. 11 folds it into the Lagrangian weight κ.  Neither value is
reported, so we expose the two standard, well-behaved choices and use
them consistently across the core and the baselines' ablations.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SolverError
from repro.optim.operators import as_operator


def noise_scaled_kappa(matrix, noise_std: float, *, confidence: float = 1.0) -> float:
    """κ from the universal-threshold rule, κ = c·σ·√(2·log n)·‖A‖_col.

    For i.i.d. complex Gaussian noise of standard deviation ``noise_std``
    per measurement entry, ``max_i |Aᴴn|_i`` concentrates around
    ``σ·√(2 log n)`` times the largest column norm; choosing κ at that
    scale keeps pure-noise atoms out of the solution with high
    probability while barely biasing true paths.

    Parameters
    ----------
    matrix:
        Dictionary — a dense ndarray or any
        :class:`~repro.optim.operators.DictionaryOperator`.
    confidence:
        Multiplier ``c``; >1 prunes more aggressively, <1 keeps weaker
        paths.
    """
    if noise_std < 0:
        raise SolverError(f"noise_std must be non-negative, got {noise_std}")
    operator = as_operator(matrix)
    n = operator.shape[1]
    if n == 0:
        raise SolverError("dictionary has zero columns")
    max_column_norm = float(operator.column_norms().max())
    return confidence * noise_std * np.sqrt(2.0 * np.log(max(n, 2))) * max_column_norm


def residual_kappa(matrix, rhs: np.ndarray, *, fraction: float = 0.05) -> float:
    """κ as a fraction of the zero-solution gradient, κ = f·‖2Aᴴy‖_∞.

    ``‖2Aᴴy‖_∞`` is the smallest κ for which x = 0 is the LASSO
    minimizer; any κ below it admits a nonzero solution.  Choosing a
    small fraction of it adapts the sparsity weight to the measurement
    scale without needing a noise estimate — the choice we use when the
    receiver has no SNR side information.
    """
    if not 0 < fraction < 1:
        raise SolverError(f"fraction must be in (0, 1), got {fraction}")
    gradient_at_zero = 2.0 * np.abs(as_operator(matrix).rmatvec(rhs))
    peak = float(gradient_at_zero.max(initial=0.0))
    if peak == 0.0:
        raise SolverError("measurement is orthogonal to every dictionary atom (all-zero gradient)")
    return fraction * peak


def mmv_residual_kappa(matrix, snapshots: np.ndarray, *, fraction: float = 0.05) -> float:
    """MMV analogue of :func:`residual_kappa` for the ℓ2,1 program.

    For ``min ‖AX − Y‖_F² + κ Σᵢ‖Xᵢ,:‖₂`` the zero solution is optimal
    iff ``κ ≥ max_i 2‖(AᴴY)ᵢ,:‖₂``; κ is chosen as a fraction of that
    critical value, mirroring the single-measurement rule.
    """
    if not 0 < fraction < 1:
        raise SolverError(f"fraction must be in (0, 1), got {fraction}")
    if snapshots.ndim != 2:
        raise SolverError(f"snapshot matrix must be 2-D, got ndim={snapshots.ndim}")
    gradient_rows = 2.0 * np.linalg.norm(as_operator(matrix).rmatvec(snapshots), axis=1)
    peak = float(gradient_rows.max(initial=0.0))
    if peak == 0.0:
        raise SolverError("snapshots are orthogonal to every dictionary atom (all-zero gradient)")
    return fraction * peak
