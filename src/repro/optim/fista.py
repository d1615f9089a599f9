"""FISTA for the complex LASSO.

Solves

    min_x  ‖A x − y‖₂² + κ ‖x‖₁

(the Lagrangian form of the paper's Eq. 9–11) with the accelerated
proximal-gradient method of Beck & Teboulle.  The paper solves this
program with CVX second-order cone solvers; FISTA reaches the same
minimizer because the objective is convex, and its per-iteration cost is
one dictionary multiply each way, which matters for the 90 × (Nθ·Nτ)
joint dictionaries of §III-B.

With one snapshot column a row's ℓ2 norm is the entry's modulus, so
this program is the ℓ2,1 program of :mod:`repro.optim.mmv` with
``p = 1``: :func:`solve_lasso_fista` solves ``y`` as one ``(m, 1)``
column through :func:`~repro.optim.mmv.mmv_lockstep`, the one FISTA
iteration loop, and returns the column as a vector.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import SolverError
from repro.obs.convergence import ConvergenceTrace
from repro.optim.linalg import validate_penalty_weights, validate_system
from repro.optim.mmv import mmv_lockstep
from repro.optim.operators import as_operator
from repro.optim.result import SolverResult, observation_hook


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
        warm = warm.reshape(1, n, 1)
    weights = validate_penalty_weights(penalty_weights, n)

    def penalty(x):
        magnitudes = np.abs(x) if weights is None else weights * np.abs(x)
        return kappa * float(magnitudes.sum())

    result = mmv_lockstep(
        operator,
        rhs.reshape(1, -1, 1),
        (kappa,),
        warm,
        max_iterations=max_iterations,
        tolerance=tolerance,
        lipschitz=lipschitz,
        penalty_weights=weights,
        observe=observation_hook(operator, rhs, penalty, telemetry, callback),
    ).single(telemetry)
    result.x = result.x[:, 0]
    return result
