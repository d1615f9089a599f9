"""ADMM for the complex LASSO.

Solves the same program as :mod:`repro.optim.fista`,

    min_x  ‖A x − y‖₂² + κ ‖x‖₁,

by the alternating direction method of multipliers (Boyd et al. [18] in
the paper's bibliography).  ADMM trades a one-time factorization of
``AᴴA + ρI`` for very cheap iterations, which wins when the same
dictionary is solved against many right-hand sides — exactly the
multi-AP, multi-location sweeps of the evaluation harness.

The solver normalizes the problem by κ internally (solve ``A, y/κ`` with
unit sparsity weight, then un-scale the minimizer), so the cached
factorization depends on ``(A, ρ)`` only — never on κ — and one
:class:`CachedAdmmFactors` serves every κ.

:func:`admm_lockstep` is the one ADMM loop, over ``B`` stacked problems;
:func:`solve_lasso_admm` is its ``B = 1`` front door.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg

from repro.exceptions import SolverError
from repro.obs.convergence import ConvergenceTrace
from repro.optim.fista import lasso_batch_objectives
from repro.optim.linalg import soft_threshold, validate_system
from repro.optim.operators import DenseOperator, as_operator
from repro.optim.result import (
    BatchSolverResult,
    LockstepProgress,
    Observer,
    SolverResult,
    observation_hook,
)


class CachedAdmmFactors:
    """Pre-factorized normal equations for repeated ADMM solves.

    The factorization depends on the dictionary and ρ — *not* on the
    right-hand side or on κ — so one instance serves a whole sweep of
    measurements and sparsity weights.

    For an ``(m, n)`` dictionary with ``m < n`` (always the case for the
    paper's overcomplete grids) we factor the *small* ``m × m`` system
    via the matrix-inversion lemma:

        (AᴴA + ρI)⁻¹ = (I − Aᴴ(ρI + AAᴴ)⁻¹A) / ρ
    """

    def __init__(self, matrix, rho: float) -> None:
        if rho <= 0:
            raise SolverError(f"rho must be positive, got {rho}")
        # Keep the caller's handle for identity checks; structured
        # operators are materialized once here (ADMM's x-update needs
        # the factored Gram either way).
        self.source = matrix
        self.matrix = as_operator(matrix).to_dense()
        self.rho = rho
        m, n = self.matrix.shape
        self.wide = m < n
        if self.wide:
            gram_small = self.matrix @ self.matrix.conj().T
            self._factor = scipy.linalg.cho_factor(gram_small + rho * np.eye(m))
        else:
            gram = self.matrix.conj().T @ self.matrix
            self._factor = scipy.linalg.cho_factor(gram + rho * np.eye(n))

    def solve(self, q):
        """Return ``(AᴴA + ρI)⁻¹ q``."""
        if self.wide:
            inner = scipy.linalg.cho_solve(self._factor, self.matrix @ q)
            return (q - self.matrix.conj().T @ inner) / self.rho
        return scipy.linalg.cho_solve(self._factor, q)

    def matches(self, matrix) -> bool:
        """Whether these factors were built for ``matrix`` (by identity)."""
        # A DenseOperator is just a view over its array — factors built
        # from the array serve the wrapper and vice versa (solve_batch
        # wraps the caller's matrix before reaching the ADMM core).
        handles = [matrix]
        if isinstance(matrix, DenseOperator):
            handles.append(matrix.matrix)
        if isinstance(self.source, DenseOperator):
            handles.append(self.source.matrix)
        return any(h is self.source or h is self.matrix for h in handles)


def solve_lasso_admm(
    matrix,
    rhs: np.ndarray,
    kappa: float,
    *,
    rho: float | None = None,
    max_iterations: int = 500,
    tolerance: float = 1e-6,
    factors: CachedAdmmFactors | None = None,
    telemetry: ConvergenceTrace | None = None,
    callback: Callable[[int, np.ndarray, float], None] | None = None,
) -> SolverResult:
    """Solve ``min ‖Ax − y‖₂² + κ‖x‖₁`` by ADMM.

    Parameters
    ----------
    matrix:
        Dictionary ``A`` — a dense ndarray or any
        :class:`~repro.optim.operators.DictionaryOperator` (materialized
        once for the factorization).
    rho:
        ADMM penalty parameter, defaulting to 1.  Because the iterations
        run on the κ-normalized problem (see below), the effective
        shrinkage threshold is ``1/(2ρ)`` regardless of κ and the
        default needs no κ coupling.
    max_iterations / tolerance:
        Iteration cap (≥ 1) and the primal/dual residual tolerance;
        ``tolerance=0`` pins the iteration count.
    factors:
        Optional pre-built :class:`CachedAdmmFactors` for ``(matrix,
        rho)``; build once and reuse across right-hand sides *and*
        sparsity weights κ.
    telemetry / callback:
        Per-iteration hooks as in
        :func:`~repro.optim.fista.solve_lasso_fista`, measured on the
        un-normalized iterate ``κ·z`` so traces are comparable across
        solvers.  One extra dictionary multiply per iteration when
        enabled, nothing otherwise.

    Notes
    -----
    The split is ``min ‖Ax − y‖² + κ‖z‖₁  s.t. x = z``.  Internally the
    problem is normalized by κ: substituting ``x = κ x̃`` and
    ``ỹ = y/κ`` turns Eq. 11 into ``κ²(‖Ax̃ − ỹ‖² + ‖x̃‖₁)``, so we run
    the textbook updates with unit sparsity weight on ``(A, ỹ)`` and
    scale the minimizer back by κ.  For a fixed ρ the two trajectories
    are *exactly* equivalent (soft-thresholding commutes with positive
    scaling), and the factorization of ``AᴴA + ρI`` is untouched by κ.
    """
    validate_system(matrix, rhs)
    if rhs.ndim != 1:
        raise SolverError("solve_lasso_admm expects a 1-D measurement vector")
    operator = as_operator(matrix)
    rhs = np.asarray(rhs, dtype=complex)
    return admm_lockstep(
        operator,
        rhs.reshape(-1, 1),
        (kappa,),
        rho=rho,
        max_iterations=max_iterations,
        tolerance=tolerance,
        factors=factors,
        observe=observation_hook(
            operator, rhs, lambda x: kappa * float(np.abs(x).sum()), telemetry, callback
        ),
    ).single(telemetry)


def admm_lockstep(
    operator,
    Y: np.ndarray,
    kappas,
    *,
    rho: float | None = None,
    max_iterations: int = 500,
    tolerance: float = 1e-6,
    factors: CachedAdmmFactors | None = None,
    observe: Observer | None = None,
) -> BatchSolverResult:
    """ADMM on ``B`` problems at once: the one ADMM iteration loop.

    ``Y`` holds one measurement per column, ``(m, B)``.  Every problem
    shares the factorization (it depends on ``(A, ρ)`` only); each
    column runs the κ-normalized iteration with its own scale, and
    converged columns are frozen while the rest iterate on.
    """
    n_problems = Y.shape[1]
    progress = LockstepProgress(n_problems, max_iterations)
    kap = np.asarray(kappas, dtype=np.float64)
    if np.any(kap < 0):
        raise SolverError(f"kappa must be non-negative, got {kappas}")

    if rho is None:
        rho = factors.rho if factors is not None else 1.0
    if factors is None:
        factors = CachedAdmmFactors(operator, rho)
    elif not factors.matches(operator) or factors.rho != rho:
        raise SolverError(
            "provided CachedAdmmFactors were built for a different (matrix, rho)"
        )
    dense = factors.matrix
    n = dense.shape[1]

    # κ-normalized problems: min ‖Ax̃ − ỹ‖² + ‖x̃‖₁ with ỹ = y/κ; the
    # 1/2-scaled textbook updates then threshold at (1/2)/ρ.
    scale_row = np.where(kap > 0, kap, 1.0).reshape(1, n_problems)
    thresholds = np.where(kap > 0, 0.5 / rho, 0.0).reshape(1, n_problems)
    atb = dense.conj().T @ (Y / scale_row)

    X = np.zeros((n, n_problems), dtype=complex)
    Z = np.zeros((n, n_problems), dtype=complex)
    U = np.zeros((n, n_problems), dtype=complex)

    active = progress.active
    check = tolerance > 0
    for it in range(1, max_iterations + 1):
        X_next = factors.solve(atb + rho * (Z - U))
        Z_prev = Z
        Z_next = soft_threshold(X_next + U, thresholds)
        U_next = U + X_next - Z_next

        if check:
            primal = np.linalg.norm(X_next - Z_next, axis=0)
            dual = rho * np.linalg.norm(Z_next - Z_prev, axis=0)
            scale = np.maximum(1.0, np.linalg.norm(Z_next, axis=0))

        if progress.all_active:
            X, Z, U = X_next, Z_next, U_next
        else:
            mask = active.reshape(1, n_problems)
            X = np.where(mask, X_next, X)
            Z = np.where(mask, Z_next, Z)
            U = np.where(mask, U_next, U)

        if observe is not None:
            observe(it, np.moveaxis(scale_row * Z, 0, 1))
        if check and progress.settle(
            it, (primal <= tolerance * scale) & (dual <= tolerance * scale)
        ):
            break

    X_out = scale_row * Z
    objectives = lasso_batch_objectives(operator, X_out, Y, kap)
    return progress.result(np.moveaxis(X_out, 0, 1), objectives, "admm", kappas)
