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
:func:`mmv_lockstep` is its one iteration loop, over ``B`` stacked
problems, and the package's one FISTA loop: the LASSO of
:mod:`repro.optim.fista` is this program with one snapshot column.
:func:`solve_mmv_fista` is the ``B = 1`` front door.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.exceptions import SolverError
from repro.obs.convergence import ConvergenceTrace
from repro.optim.linalg import (
    squared_norms,
    validate_kernel_inputs,
    validate_penalty_weights,
    validate_system,
)
from repro.optim.operators import as_operator
from repro.optim.result import (
    BatchSolverResult,
    LockstepProgress,
    Observer,
    SolverResult,
    observation_hook,
)


def mmv_objective(
    matrix, rhs: np.ndarray, x: np.ndarray, kappa: float, *, penalty_weights=None
) -> float:
    """``‖AX − Y‖_F² + κ·Σᵢ‖Xᵢ,:‖₂`` (``κ·Σᵢ wᵢ‖Xᵢ,:‖₂`` when weighted)."""
    residual = as_operator(matrix).matvec(x) - np.asarray(rhs)
    data_term = float(np.vdot(residual, residual).real)
    row_norms = np.sqrt(squared_norms(x, axis=1))
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
    max_iterations / tolerance:
        As in :func:`~repro.optim.fista.solve_lasso_fista`.
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
    operator = as_operator(matrix)
    rhs = np.asarray(rhs, dtype=complex)
    n = operator.shape[1]
    p = rhs.shape[1]
    warm = None
    if x0 is not None:
        warm = np.asarray(x0, dtype=complex)
        if warm.shape != (n, p):
            raise SolverError(f"x0 has shape {warm.shape}, expected ({n}, {p})")
        warm = warm[None]
    weights = validate_penalty_weights(penalty_weights, n)

    def penalty(x):
        row_norms = np.sqrt(squared_norms(x, axis=1))
        if weights is not None:
            row_norms = weights * row_norms
        return kappa * float(row_norms.sum())

    return mmv_lockstep(
        operator,
        rhs[None],
        (kappa,),
        warm,
        max_iterations=max_iterations,
        tolerance=tolerance,
        lipschitz=lipschitz,
        penalty_weights=weights,
        observe=observation_hook(operator, rhs, penalty, telemetry, callback),
    ).single(telemetry)


def mmv_lockstep(
    operator,
    Ys: np.ndarray,
    kappas,
    warm: np.ndarray | None = None,
    *,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    lipschitz: float | None = None,
    penalty_weights=None,
    observe: Observer | None = None,
) -> BatchSolverResult:
    """ℓ2,1 FISTA on ``B`` problems at once: the one FISTA iteration loop.

    ``Ys`` stacks the snapshot matrices, ``(B, m, p)``; ``kappas`` holds
    one weight per problem and ``warm`` an optional ``(B, n, p)`` start.
    The iterate lives as one ``(B, p, n)`` array, grid axis innermost, so
    the row prox reduces and broadcasts along the long axis and each
    problem's stop norm is one BLAS dot over its contiguous ``p·n``
    slice.  Its ``(B·p, n)`` row stack goes to the operator as the
    transposed ``(n, B·p)`` view, and the residual comes back as a
    ``(B·p, m)`` row stack: one pair of factor GEMMs for the whole stack
    with no copy either way, and at ``B = 1`` exactly the products of a
    lone ``(n, p)`` solve.  Converged problems are frozen while the rest
    iterate on.
    """
    m, n = operator.shape
    n_problems, _, n_snapshots = Ys.shape
    progress = LockstepProgress(n_problems, max_iterations)
    if n_snapshots == 0:
        raise SolverError("snapshot matrices have zero columns")
    kap = validate_kernel_inputs(kappas, lipschitz, warm)
    weights = validate_penalty_weights(penalty_weights, n)

    lipschitz = 2.0 * (operator.lipschitz() if lipschitz is None else float(lipschitz))
    if lipschitz <= 0:
        X = np.zeros((n_problems, n, n_snapshots), dtype=complex)
        progress.settle(0, np.ones(n_problems, dtype=bool))
        objectives = mmv_batch_objectives(operator, X, Ys, kap, weights)
        return progress.result(X, objectives, "mmv", kappas)
    step = 1.0 / lipschitz
    # One threshold per problem, or per (problem, row) when weighted.
    thresholds = (kap * step).reshape(n_problems, 1)
    if weights is not None:
        thresholds = thresholds * weights.reshape(1, n)

    folded = n_problems * n_snapshots
    Y = np.ascontiguousarray(Ys.transpose(0, 2, 1)).reshape(folded, m)
    X = (
        np.zeros((n_problems, n_snapshots, n), dtype=complex)
        if warm is None
        else np.asarray(warm, dtype=complex).transpose(0, 2, 1).copy()
    )
    momentum = X.copy()
    t = 1.0

    active = progress.active
    check = tolerance > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        for it in range(1, max_iterations + 1):
            residual = operator.matvec(momentum.reshape(folded, n).T).T
            residual -= Y
            # point = momentum − step·2Aᴴr: the factor −2·step scales the
            # short residual rows before the adjoint, not the gradient.
            residual *= -2.0 * step
            point = operator.rmatvec(residual.T).T.reshape(X.shape)
            point += momentum
            # Row prox: fmax(1 − t/‖row‖, 0) scales each row; the clamp
            # also zeroes ‖row‖ = 0 (−inf, or NaN when t = 0).
            factors = squared_norms(point, axis=1)
            np.sqrt(factors, out=factors)
            np.divide(thresholds, factors, out=factors)
            np.subtract(1.0, factors, out=factors)
            np.fmax(factors, 0.0, out=factors)
            point *= factors[:, None, :]
            candidate = point
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            change = candidate - X

            if check:
                # ‖ΔX‖ ≤ tol·max(1, ‖X‖) per problem, compared as squares.
                delta = _problem_squared_norms(change)
                scale = np.maximum(1.0, _problem_squared_norms(X))

            # candidate + ((t − 1)/t_next)·(candidate − X), in place on the change.
            momentum_next = change
            momentum_next *= (t - 1.0) / t_next
            momentum_next += candidate

            if progress.all_active:
                X, momentum = candidate, momentum_next
            else:
                mask = active.reshape(n_problems, 1, 1)
                X = np.where(mask, candidate, X)
                momentum = np.where(mask, momentum_next, momentum)
            t = t_next

            if observe is not None:
                observe(it, X.transpose(0, 2, 1))
            if check and progress.settle(it, delta <= tolerance**2 * scale):
                break

    X = np.ascontiguousarray(X.transpose(0, 2, 1))
    objectives = mmv_batch_objectives(operator, X, Ys, kap, weights)
    return progress.result(X, objectives, "mmv", kappas)


def _problem_squared_norms(stack: np.ndarray) -> np.ndarray:
    """``‖stack[b]‖_F²`` per problem, one BLAS dot per contiguous slice."""
    return np.array([np.vdot(block, block).real for block in stack.reshape(len(stack), -1)])


def mmv_batch_objectives(operator, X, Ys, kap, penalty_weights=None):
    """Per-problem ℓ2,1 objectives of a ``(B, n, p)`` iterate stack."""
    residual = operator.matmul_batch(X) - Ys
    data = squared_norms(residual, axis=(1, 2))
    row_norms = np.sqrt(squared_norms(X, axis=2))
    if penalty_weights is not None:
        row_norms = penalty_weights.reshape(1, X.shape[1]) * row_norms
    return data + kap * row_norms.sum(axis=1)
