"""FISTA for the complex LASSO.

Solves

    min_x  ‖A x − y‖₂² + κ ‖x‖₁

(the Lagrangian form of the paper's Eq. 9–11) with the accelerated
proximal-gradient method of Beck & Teboulle.  The paper solves this
program with CVX second-order cone solvers; FISTA reaches the same
minimizer because the objective is convex, and its per-iteration cost is
one dictionary multiply each way, which matters for the 90 × (Nθ·Nτ)
joint dictionaries of §III-B.

:func:`fista_lockstep` is the one FISTA loop: it advances ``B`` stacked
problems in lockstep, and :func:`solve_lasso_fista` is its ``B = 1``
front door (:func:`~repro.optim.batch.solve_batch` feeds it column
blocks).
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


def lasso_objective(
    matrix, rhs: np.ndarray, x: np.ndarray, kappa: float, *, penalty_weights=None
) -> float:
    """The LASSO objective ``‖Ax − y‖₂² + κ‖x‖₁`` (paper Eq. 11).

    With ``penalty_weights`` the ℓ1 term is the weighted
    ``κ·Σⱼ wⱼ|xⱼ|`` — the penalty of the outlier-augmented program in
    :mod:`repro.optim.robust`.
    """
    residual = as_operator(matrix).matvec(x) - np.asarray(rhs)
    if penalty_weights is None:
        l1 = float(np.abs(x).sum())
    else:
        l1 = float((np.asarray(penalty_weights, dtype=float) * np.abs(x)).sum())
    return float(np.vdot(residual, residual).real) + kappa * l1


def solve_lasso_fista(
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
    """Solve ``min ‖Ax − y‖₂² + κ‖x‖₁`` by FISTA.

    Parameters
    ----------
    matrix:
        The (typically complex) dictionary ``A`` of shape ``(m, n)`` —
        a dense ndarray or any
        :class:`~repro.optim.operators.DictionaryOperator` (e.g. the
        structured :class:`~repro.optim.operators.KroneckerJointOperator`
        for the Eq. 16 joint dictionary).
    rhs:
        The measurement vector ``y`` of shape ``(m,)``.
    kappa:
        Sparsity weight κ ≥ 0, finite.  See :mod:`repro.optim.tuning`
        for the κ heuristic used by the higher layers.
    max_iterations:
        Iteration cap (≥ 1).  The iterates are feasible at every step, so
        a small cap yields a coarse spectrum (paper Fig. 3) rather than
        garbage.
    tolerance:
        Relative change in the iterate below which we declare
        convergence: ``‖x_{t+1} − x_t‖ ≤ tolerance · max(1, ‖x_t‖)``.
        ``0`` disables the test and pins the iteration count.
    x0:
        Optional warm start.  Seeding with a previous solution of a
        nearby problem (same dictionary, perturbed measurement or κ)
        reaches the minimizer in far fewer iterations; the minimizer
        itself is unchanged, so warm and cold starts agree to within
        ``tolerance``.
    lipschitz:
        Optional precomputed Lipschitz constant ``‖AᴴA‖₂`` — pass it
        when re-solving with the same dictionary (the grids in
        :mod:`repro.core.steering` cache it).  Operator dictionaries
        that omit it use ``matrix.lipschitz()``.
    penalty_weights:
        Optional per-coefficient ℓ1 weights ``w ≥ 0`` of shape ``(n,)``:
        the penalty becomes ``κ·Σⱼ wⱼ|xⱼ|`` (proximal step threshold
        ``κ·wⱼ/L`` per coordinate).  This is how the outlier-augmented
        program of :mod:`repro.optim.robust` prices its identity block
        at ``λ = κ·w`` without a second solver.
    telemetry:
        Optional :class:`~repro.obs.convergence.ConvergenceTrace` that
        receives per-iteration objective, residual norm and support
        size, and is attached to the result as
        :attr:`~repro.optim.result.SolverResult.convergence`.  Costs one
        extra dictionary multiply per iteration; the default (``None``)
        does no telemetry work at all.
    callback:
        Optional per-iteration hook ``callback(iteration, x, objective)``
        invoked after each iterate (same cost note as ``telemetry``).

    Notes
    -----
    The gradient of the smooth part ``f(x) = ‖Ax − y‖₂²`` is
    ``∇f = 2 Aᴴ(Ax − y)``, hence its Lipschitz constant is
    ``L = 2‖AᴴA‖₂`` and the step is the fixed ``1/L`` with proximal
    threshold ``κ / L``.
    """
    validate_system(matrix, rhs)
    if rhs.ndim != 1:
        raise SolverError("solve_lasso_fista expects a 1-D measurement; use solve_mmv_fista for matrices")
    operator = as_operator(matrix)
    rhs = np.asarray(rhs, dtype=complex)
    n = operator.shape[1]
    warm = None
    if x0 is not None:
        warm = np.asarray(x0, dtype=complex)
        if warm.shape != (n,):
            raise SolverError(f"x0 has shape {warm.shape}, expected ({n},)")
        warm = warm[None]
    weights = validate_penalty_weights(penalty_weights, n)

    def penalty(x):
        magnitudes = np.abs(x) if weights is None else weights * np.abs(x)
        return kappa * float(magnitudes.sum())

    return fista_lockstep(
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


def fista_lockstep(
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
    """FISTA on ``B`` problems at once: the one FISTA iteration loop.

    ``Ys`` holds one measurement per row, ``(B, m)``; ``kappas`` one
    weight per problem; ``warm`` an optional ``(B, n)`` start.  The
    iterate lives as one ``(B, n)`` row stack, as in
    :func:`~repro.optim.mmv.mmv_lockstep`: it goes to the operator as
    the transposed ``(n, B)`` view and both products come back as
    ``.T`` views of row stacks, so the Kronecker operator copies
    neither way.  The proximal step broadcasts one threshold per row,
    and a problem whose stop test passes is frozen while the rest
    iterate on, so each problem follows exactly its own ``B = 1``
    trajectory up to GEMM rounding.
    """
    n = operator.shape[1]
    n_problems = Ys.shape[0]
    progress = LockstepProgress(n_problems, max_iterations)
    kap = validate_kernel_inputs(kappas, lipschitz, warm)
    weights = validate_penalty_weights(penalty_weights, n)

    lipschitz = 2.0 * (operator.lipschitz() if lipschitz is None else float(lipschitz))
    if lipschitz <= 0:
        # A zero dictionary: the minimizer is x = 0.
        X = np.zeros((n_problems, n), dtype=complex)
        progress.settle(0, np.ones(n_problems, dtype=bool))
        objectives = lasso_batch_objectives(operator, X, Ys, kap, weights)
        return progress.result(X, objectives, "fista", kappas)
    step = 1.0 / lipschitz
    thresholds = (kap * step).reshape(n_problems, 1)
    if weights is not None:
        # Per-coefficient weighted ℓ1: one threshold per (problem, coefficient).
        thresholds = thresholds * weights.reshape(1, n)

    X = (
        np.zeros((n_problems, n), dtype=complex)
        if warm is None
        else np.array(warm, dtype=complex)
    )
    momentum = X.copy()
    t = 1.0

    active = progress.active
    check = tolerance > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        for it in range(1, max_iterations + 1):
            residual = operator.matvec(momentum.T).T
            residual -= Ys
            raw_gradient = operator.rmatvec(residual.T).T
            candidate = _prox_gradient_step(momentum, raw_gradient, 2.0 * step, thresholds)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            change = candidate - X

            if check:
                # ‖Δx‖ ≤ tol·max(1, ‖x‖) per problem, compared as squares.
                delta = squared_norms(change, axis=1)
                scale = np.maximum(1.0, squared_norms(X, axis=1))

            # candidate + ((t − 1)/t_next)·(candidate − X), in place on the change.
            momentum_next = change
            momentum_next *= (t - 1.0) / t_next
            momentum_next += candidate

            if progress.all_active:
                X, momentum = candidate, momentum_next
            else:
                # Freeze converged problems: their iterate (and momentum)
                # stop moving, preserving per-problem equivalence with B = 1.
                mask = active.reshape(n_problems, 1)
                X = np.where(mask, candidate, X)
                momentum = np.where(mask, momentum_next, momentum)
            t = t_next

            if observe is not None:
                observe(it, X)
            if check and progress.settle(it, delta <= tolerance**2 * scale):
                break

    objectives = lasso_batch_objectives(operator, X, Ys, kap, weights)
    return progress.result(X, objectives, "fista", kappas)


def lasso_batch_objectives(operator, X, Ys, kap, penalty_weights=None):
    """Per-problem LASSO objectives of a ``(B, n)`` iterate stack."""
    residual = operator.matvec(X.T) - Ys.T
    data = np.linalg.norm(residual, axis=0) ** 2
    magnitudes = np.abs(X)
    if penalty_weights is not None:
        magnitudes = penalty_weights.reshape(1, X.shape[1]) * magnitudes
    return data + kap * magnitudes.sum(axis=1)


# -- fused lockstep step ------------------------------------------------
# The kernel's hot inner step, done in place: the lockstep iterate
# (B × n) no longer fits in cache, so every avoided pass over it is a
# measurable win.


def _prox_gradient_step(momentum, gradient, step2, thresholds):
    """``soft_threshold(momentum − step2·gradient, thresholds)``.

    ``gradient`` is ``Aᴴ(Ax − y)`` *without* the factor 2 — ``step2``
    carries it (``2·step``; exact, a power-of-two scale).  ``gradient``
    is clobbered (the caller owns and discards it); ``momentum`` is left
    untouched.  The shrink is ``fmax(1 − t/|z|, 0)·z``: same as the
    reference formula to rounding, with no boolean mask — ``|z| = 0``
    gives −inf (or NaN when ``t = 0``), which the clamp sends to 0.  The
    kernel calls it under ``np.errstate(invalid/divide="ignore")``.
    """
    point = np.multiply(gradient, -step2, out=gradient)
    point += momentum
    scale = np.abs(point)
    np.divide(thresholds, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    np.fmax(scale, 0.0, out=scale)
    point *= scale
    return point
