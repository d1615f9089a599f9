"""FISTA for the complex LASSO.

Solves

    min_x  ‖A x − y‖₂² + κ ‖x‖₁

(the Lagrangian form of the paper's Eq. 9–11) with the accelerated
proximal-gradient method of Beck & Teboulle.  The paper solves this
program with CVX second-order cone solvers; FISTA reaches the same
minimizer because the objective is convex, and its per-iteration cost is
one dictionary multiply each way, which matters for the 90 × (Nθ·Nτ)
joint dictionaries of §III-B.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.exceptions import SolverError
from repro.obs.convergence import ConvergenceTrace, support_size
from repro.optim.linalg import soft_threshold, validate_penalty_weights, validate_system
from repro.optim.operators import as_operator
from repro.optim.result import SolverResult


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
    track_history: bool = False,
    monotone: bool = False,
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
        Sparsity weight κ ≥ 0.  See :mod:`repro.optim.tuning` for the
        noise-scaled heuristics used by the higher layers.
    max_iterations:
        Iteration cap.  The iterates are feasible at every step, so a
        small cap yields a coarse spectrum (paper Fig. 3) rather than
        garbage.
    tolerance:
        Relative change in the iterate below which we declare
        convergence: ``‖x_{t+1} − x_t‖ ≤ tolerance · max(1, ‖x_t‖)``.
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
    track_history:
        Record the objective at every iteration (used by the Fig. 3
        experiment and by tests that assert monotone-ish descent).
    monotone:
        Use the MFISTA variant of Beck & Teboulle: a proximal candidate
        that would *increase* the objective is rejected (the previous
        iterate is kept) while the momentum sequence still advances
        through the candidate.  Guarantees a non-increasing objective at
        the cost of one extra objective evaluation per iteration; plain
        FISTA (the default) can overshoot transiently.
    telemetry:
        Optional :class:`~repro.obs.convergence.ConvergenceTrace` that
        receives per-iteration objective, residual norm and support
        size, and is attached to the result as
        :attr:`~repro.optim.result.SolverResult.convergence`.  Costs one
        extra dictionary multiply per iteration; the default (``None``)
        does no telemetry work at all.
    callback:
        Optional per-iteration hook ``callback(iteration, x, objective)``
        invoked after each accepted iterate (same cost note as
        ``telemetry``).

    Notes
    -----
    The gradient of the smooth part ``f(x) = ‖Ax − y‖₂²`` is
    ``∇f = 2 Aᴴ(Ax − y)``, hence its Lipschitz constant is
    ``L = 2‖AᴴA‖₂`` and the proximal step threshold is ``κ / L``.
    """
    validate_system(matrix, rhs)
    if rhs.ndim != 1:
        raise SolverError("solve_lasso_fista expects a 1-D measurement; use solve_mmv_fista for matrices")
    if kappa < 0:
        raise SolverError(f"kappa must be non-negative, got {kappa}")
    if max_iterations < 1:
        raise SolverError(f"max_iterations must be >= 1, got {max_iterations}")

    operator = as_operator(matrix)
    rhs = np.asarray(rhs, dtype=complex)
    n = operator.shape[1]
    penalty_weights = validate_penalty_weights(penalty_weights, n)
    if lipschitz is None:
        lipschitz = 2.0 * operator.lipschitz()
    else:
        lipschitz = 2.0 * float(lipschitz)
    if lipschitz <= 0:
        # A zero dictionary: the minimizer is x = 0.
        x = np.zeros(n, dtype=complex)
        return SolverResult(
            x=x,
            objective=lasso_objective(
                operator, rhs, x, kappa, penalty_weights=penalty_weights
            ),
            iterations=0,
            converged=True,
            convergence=telemetry,
        )

    step = 1.0 / lipschitz
    threshold = kappa * step if penalty_weights is None else (kappa * step) * penalty_weights

    x = np.zeros(n, dtype=complex) if x0 is None else np.asarray(x0, dtype=complex).copy()
    if x.shape != (n,):
        raise SolverError(f"x0 has shape {x.shape}, expected ({n},)")
    momentum_point = x.copy()
    t = 1.0
    objective = (
        lasso_objective(operator, rhs, x, kappa, penalty_weights=penalty_weights)
        if monotone
        else None
    )

    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        gradient = 2.0 * operator.rmatvec(operator.matvec(momentum_point) - rhs)
        candidate = soft_threshold(momentum_point - step * gradient, threshold)

        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        if monotone:
            # MFISTA: accept the candidate only if it does not increase
            # the objective; the momentum point always moves through the
            # candidate so acceleration is preserved.
            candidate_objective = lasso_objective(
                operator, rhs, candidate, kappa, penalty_weights=penalty_weights
            )
            if candidate_objective <= objective:
                x_next, objective = candidate, candidate_objective
            else:
                x_next = x
            momentum_point = (
                x_next
                + (t / t_next) * (candidate - x_next)
                + ((t - 1.0) / t_next) * (x_next - x)
            )
        else:
            x_next = candidate
            momentum_point = x_next + ((t - 1.0) / t_next) * (x_next - x)

        # Convergence is judged on the proximal candidate: in monotone
        # mode a rejected candidate leaves x unchanged, which must not
        # read as a zero-length (converged) step.
        delta = float(np.linalg.norm(candidate - x))
        scale = max(1.0, float(np.linalg.norm(x)))
        x, t = x_next, t_next

        if track_history:
            history.append(
                objective
                if monotone
                else lasso_objective(
                    operator, rhs, x, kappa, penalty_weights=penalty_weights
                )
            )
        if telemetry is not None or callback is not None:
            residual_norm = float(np.linalg.norm(operator.matvec(x) - rhs))
            if monotone:
                current = objective
            elif penalty_weights is None:
                current = residual_norm**2 + kappa * float(np.abs(x).sum())
            else:
                current = residual_norm**2 + kappa * float(
                    (penalty_weights * np.abs(x)).sum()
                )
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
        objective=lasso_objective(operator, rhs, x, kappa, penalty_weights=penalty_weights),
        iterations=iterations,
        converged=converged,
        history=history,
        convergence=telemetry,
    )
