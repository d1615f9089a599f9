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
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg

from repro.exceptions import SolverError
from repro.obs.convergence import ConvergenceTrace, support_size
from repro.optim.fista import lasso_objective
from repro.optim.linalg import soft_threshold, validate_system
from repro.optim.operators import DenseOperator, as_operator
from repro.optim.result import SolverResult


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
    track_history: bool = False,
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
    if kappa < 0:
        raise SolverError(f"kappa must be non-negative, got {kappa}")

    if rho is None:
        rho = factors.rho if factors is not None else 1.0
    if factors is None:
        factors = CachedAdmmFactors(matrix, rho)
    elif not factors.matches(matrix) or factors.rho != rho:
        raise SolverError(
            "provided CachedAdmmFactors were built for a different (matrix, rho)"
        )

    dense = factors.matrix
    n = dense.shape[1]
    rhs = np.asarray(rhs, dtype=complex)

    # κ-normalized problem: min ‖Ax̃ − ỹ‖² + ‖x̃‖₁ with ỹ = y/κ; the
    # 1/2-scaled textbook updates then threshold at (1/2)/ρ.
    scale_factor = kappa if kappa > 0 else 1.0
    scaled_rhs = rhs / scale_factor
    threshold = 0.5 / rho if kappa > 0 else 0.0

    atb = dense.conj().T @ scaled_rhs
    x = np.zeros(n, dtype=complex)
    z = np.zeros(n, dtype=complex)
    u = np.zeros(n, dtype=complex)

    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        x = factors.solve(atb + rho * (z - u))
        z_prev = z
        z = soft_threshold(x + u, threshold)
        u = u + x - z

        primal_residual = float(np.linalg.norm(x - z))
        dual_residual = rho * float(np.linalg.norm(z - z_prev))
        if track_history:
            history.append(lasso_objective(dense, rhs, scale_factor * z, kappa))
        if telemetry is not None or callback is not None:
            iterate = scale_factor * z
            residual_norm = float(np.linalg.norm(dense @ iterate - rhs))
            current = residual_norm**2 + kappa * float(np.abs(iterate).sum())
            if telemetry is not None:
                telemetry.record(
                    objective=current,
                    residual_norm=residual_norm,
                    support_size=support_size(iterate),
                )
            if callback is not None:
                callback(iterations, iterate, current)
        scale = max(1.0, float(np.linalg.norm(z)))
        if primal_residual <= tolerance * scale and dual_residual <= tolerance * scale:
            converged = True
            break

    x_final = scale_factor * z
    return SolverResult(
        x=x_final,
        objective=lasso_objective(dense, rhs, x_final, kappa),
        iterations=iterations,
        converged=converged,
        history=history,
        convergence=telemetry,
    )
