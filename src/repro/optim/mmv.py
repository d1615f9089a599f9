"""Joint-sparse (MMV) recovery for multi-packet fusion.

The multi-packet model of the paper's §III-D stacks one measurement
vector per packet into a matrix ``Y = [y₁ … y_P]`` and requires the
coefficient *rows* to share a common support across packets — every
packet sees the same physical paths.  Following Malioutov et al. [25]
this is the ℓ2,1 program

    min_X  ‖A X − Y‖_F² + κ Σ_i ‖X_{i,:}‖₂,

solved here by FISTA with the row-wise group soft-threshold.  The SVD
reduction that keeps the snapshot dimension small lives in
:mod:`repro.core.fusion`; this module is the pure solver.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.exceptions import SolverError
from repro.obs.convergence import ConvergenceTrace, support_size
from repro.optim.linalg import row_soft_threshold, validate_penalty_weights, validate_system
from repro.optim.operators import as_operator
from repro.optim.result import SolverResult


def mmv_objective(
    matrix, rhs: np.ndarray, x: np.ndarray, kappa: float, *, penalty_weights=None
) -> float:
    """``‖AX − Y‖_F² + κ·Σᵢ‖Xᵢ,:‖₂`` (``κ·Σᵢ wᵢ‖Xᵢ,:‖₂`` when weighted)."""
    residual = as_operator(matrix).matvec(x) - np.asarray(rhs)
    data_term = float(np.vdot(residual, residual).real)
    row_norms = np.linalg.norm(x, axis=1)
    if penalty_weights is not None:
        row_norms = np.asarray(penalty_weights, dtype=float) * row_norms
    return data_term + kappa * float(row_norms.sum())


def solve_mmv_fista(
    matrix,
    rhs: np.ndarray,
    kappa: float,
    *,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    x0: np.ndarray | None = None,
    lipschitz: float | None = None,
    penalty_weights: np.ndarray | None = None,
    track_history: bool = False,
    telemetry: ConvergenceTrace | None = None,
    callback: Callable[[int, np.ndarray, float], None] | None = None,
) -> SolverResult:
    """Solve the ℓ2,1 joint-sparse program by FISTA.

    Parameters
    ----------
    matrix:
        Dictionary ``A`` of shape ``(m, n)`` — a dense ndarray or any
        :class:`~repro.optim.operators.DictionaryOperator`.
    rhs:
        Snapshot matrix ``Y`` of shape ``(m, p)`` — one column per packet
        (or per retained singular vector after SVD reduction).
    kappa:
        Row-sparsity weight.
    x0:
        Optional ``(n, p)`` warm start; a previous solution of a nearby
        problem reaches the shared minimizer in fewer iterations.
    lipschitz:
        Optional precomputed ``‖AᴴA‖₂``; operator dictionaries default
        to ``matrix.lipschitz()``.
    penalty_weights:
        Optional per-row ℓ2,1 weights ``w ≥ 0`` of shape ``(n,)``: the
        penalty becomes ``κ·Σᵢ wᵢ‖Xᵢ,:‖₂`` (the outlier-augmented
        program of :mod:`repro.optim.robust` prices its identity rows
        this way).
    telemetry / callback:
        Per-iteration hooks as in
        :func:`~repro.optim.fista.solve_lasso_fista` — objective,
        Frobenius residual norm and active-row count per iteration,
        recorded only when requested (one extra dictionary multiply per
        iteration when enabled, nothing otherwise).

    Returns
    -------
    SolverResult
        ``result.x`` has shape ``(n, p)``; the row ℓ2 norms form the
        fused spectrum.
    """
    validate_system(matrix, rhs)
    if rhs.ndim != 2:
        raise SolverError("solve_mmv_fista expects a 2-D snapshot matrix; use solve_lasso_fista for vectors")
    if kappa < 0:
        raise SolverError(f"kappa must be non-negative, got {kappa}")

    operator = as_operator(matrix)
    rhs = np.asarray(rhs, dtype=complex)
    n = operator.shape[1]
    p = rhs.shape[1]
    if p == 0:
        raise SolverError("snapshot matrix has zero columns")
    penalty_weights = validate_penalty_weights(penalty_weights, n)
    weight_column = None if penalty_weights is None else penalty_weights.reshape(n, 1)

    if lipschitz is None:
        lipschitz = 2.0 * operator.lipschitz()
    else:
        lipschitz = 2.0 * float(lipschitz)
    if lipschitz <= 0:
        x = np.zeros((n, p), dtype=complex)
        return SolverResult(
            x=x,
            objective=mmv_objective(
                operator, rhs, x, kappa, penalty_weights=penalty_weights
            ),
            iterations=0,
            converged=True,
            convergence=telemetry,
        )

    step = 1.0 / lipschitz
    threshold = kappa * step

    x = np.zeros((n, p), dtype=complex) if x0 is None else np.asarray(x0, dtype=complex).copy()
    if x.shape != (n, p):
        raise SolverError(f"x0 has shape {x.shape}, expected ({n}, {p})")
    momentum_point = x.copy()
    t = 1.0

    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        gradient = 2.0 * operator.rmatvec(operator.matvec(momentum_point) - rhs)
        point = momentum_point - step * gradient
        if weight_column is None:
            x_next = row_soft_threshold(point, threshold)
        else:
            # Per-row thresholds (the weighted ℓ2,1 prox): same shrinkage
            # as row_soft_threshold with threshold·wᵢ on row i.
            row_norms = np.linalg.norm(point, axis=1, keepdims=True)
            shrunk = np.maximum(row_norms - threshold * weight_column, 0.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                factors = np.where(
                    row_norms > 0, shrunk / np.where(row_norms > 0, row_norms, 1.0), 0.0
                )
            x_next = point * factors

        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        momentum_point = x_next + ((t - 1.0) / t_next) * (x_next - x)

        delta = float(np.linalg.norm(x_next - x))
        scale = max(1.0, float(np.linalg.norm(x)))
        x, t = x_next, t_next

        if track_history:
            history.append(
                mmv_objective(operator, rhs, x, kappa, penalty_weights=penalty_weights)
            )
        if telemetry is not None or callback is not None:
            residual = operator.matvec(x) - rhs
            residual_norm = float(np.linalg.norm(residual))
            row_norms = np.linalg.norm(x, axis=1)
            if penalty_weights is not None:
                row_norms = penalty_weights * row_norms
            current = residual_norm**2 + kappa * float(row_norms.sum())
            if telemetry is not None:
                telemetry.record(
                    objective=current,
                    residual_norm=residual_norm,
                    support_size=support_size(x),
                )
            if callback is not None:
                callback(iterations, x, current)
        if delta <= tolerance * scale:
            converged = True
            break

    return SolverResult(
        x=x,
        objective=mmv_objective(operator, rhs, x, kappa, penalty_weights=penalty_weights),
        iterations=iterations,
        converged=converged,
        history=history,
        convergence=telemetry,
    )
