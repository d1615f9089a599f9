"""A plain one-problem FISTA loop, kept as a fixed yardstick.

:func:`reference_lasso_fista` is the textbook, unfused FISTA iteration
on a single vector: one ``matvec``/``rmatvec`` pair, an out-of-place
soft-threshold and momentum step per iteration.  It is deliberately
*not* the solver (that is :func:`~repro.optim.mmv.mmv_lockstep`, the
one FISTA loop, which solves the LASSO as the one-column ℓ2,1
program): the batched-solve benchmark times ``solve_batch`` against a
loop of these solves, so the recorded speedup measures the kernel
against a stable baseline, and the kernel-vs-reference tests check the
fused lockstep arithmetic against the plain definition.
"""

from __future__ import annotations

import math

import numpy as np

from repro.optim.linalg import soft_threshold
from repro.optim.operators import as_operator


def reference_lasso_fista(
    matrix,
    rhs: np.ndarray,
    kappa: float,
    *,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    lipschitz: float | None = None,
    penalty_weights: np.ndarray | None = None,
) -> np.ndarray:
    """The minimizer of ``‖Ax − y‖₂² + κ‖x‖₁`` by plain sequential FISTA.

    Same program, step, stop rule and options as
    :func:`~repro.optim.fista.solve_lasso_fista` (cold start); returns
    the final iterate only.
    """
    operator = as_operator(matrix)
    rhs = np.asarray(rhs, dtype=complex)
    n = operator.shape[1]
    lipschitz = 2.0 * (operator.lipschitz() if lipschitz is None else float(lipschitz))
    x = np.zeros(n, dtype=complex)
    if lipschitz <= 0:
        return x
    step = 1.0 / lipschitz
    threshold = kappa * step
    if penalty_weights is not None:
        threshold = threshold * np.asarray(penalty_weights, dtype=float)

    momentum_point = x.copy()
    t = 1.0
    for _ in range(max_iterations):
        gradient = 2.0 * operator.rmatvec(operator.matvec(momentum_point) - rhs)
        x_next = soft_threshold(momentum_point - step * gradient, threshold)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        momentum_point = x_next + ((t - 1.0) / t_next) * (x_next - x)
        delta = float(np.linalg.norm(x_next - x))
        scale = max(1.0, float(np.linalg.norm(x)))
        x, t = x_next, t_next
        if delta <= tolerance * scale:
            break
    return x
