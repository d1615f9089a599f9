"""Result containers and the shared lockstep bookkeeping of the solvers.

There are two iteration loops, each a lockstep kernel over a stack of
``B`` problems that returns a :class:`BatchSolverResult`: one FISTA
loop (:func:`~repro.optim.mmv.mmv_lockstep`) for the ℓ2,1 program and
for the LASSO, which it solves as the one-column ℓ2,1 program, and
OMP's loop.  The sequential front doors (``solve_lasso_fista`` & co.) call
a kernel with ``B = 1``; :func:`~repro.optim.batch.solve_batch` calls
the FISTA kernel with column blocks.
:func:`check_divergence` is the O(1) sanity check the pipeline runs on
every solve it makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import SolverDivergenceError, SolverError
from repro.obs.convergence import ConvergenceTrace, support_size


@dataclass
class SolverResult:
    """Outcome of one sparse-recovery solve.

    Attributes
    ----------
    x:
        The recovered coefficient vector (1-D, complex) or matrix (2-D for
        the MMV solver: one row per dictionary atom, one column per
        snapshot).
    objective:
        Final value of the solver's objective function.
    iterations:
        Number of iterations actually performed.
    converged:
        ``True`` when the stopping tolerance was met before the iteration
        cap; ``False`` when the solver ran out of iterations.  A
        non-converged result is still usable — FISTA iterates are
        feasible at every step — which is what paper Fig. 3 exploits when
        it shows spectra after 3/6/9/14 iterations.
    convergence:
        The :class:`~repro.obs.convergence.ConvergenceTrace` the caller
        passed via the solver's ``telemetry=`` hook, filled with
        per-iteration objective / residual / support telemetry; ``None``
        when telemetry was not requested.
    solver:
        Name of the batched method when the result was sliced out of a
        :class:`BatchSolverResult`; empty for a direct solver call.
    """

    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    convergence: "ConvergenceTrace | None" = None
    solver: str = ""

    @property
    def support(self) -> np.ndarray:
        """Indices of the nonzero entries (rows for MMV) of ``x``."""
        if self.x.ndim == 1:
            magnitude = np.abs(self.x)
        else:
            magnitude = np.linalg.norm(self.x, axis=1)
        return np.flatnonzero(magnitude > 0)

    def sparsity(self, rtol: float = 1e-3) -> int:
        """Number of entries whose magnitude exceeds ``rtol`` × the peak."""
        if self.x.ndim == 1:
            magnitude = np.abs(self.x)
        else:
            magnitude = np.linalg.norm(self.x, axis=1)
        peak = magnitude.max(initial=0.0)
        if peak == 0.0:
            return 0
        return int(np.count_nonzero(magnitude > rtol * peak))


def check_divergence(result: SolverResult, rhs: np.ndarray) -> None:
    """Reject a result that did worse than the zero solution.

    ``x = 0`` has objective ``‖y‖²``, and every healthy solve of
    Eq. 11/18 beats it, so an objective that is non-finite or above
    ``‖y‖²`` (plus a rounding allowance) means the iteration diverged.
    The check is O(1) on the final result.

    Raises
    ------
    SolverDivergenceError
        When the objective is non-finite or exceeds the bound.
    """
    baseline = float(np.sum(np.abs(np.asarray(rhs)) ** 2))
    bound = baseline + 1e-12 * max(baseline, 1.0)
    if not np.isfinite(result.objective) or result.objective > bound:
        raise SolverDivergenceError(
            f"solve diverged: objective {result.objective:.3g} exceeds the "
            f"zero-solution bound {bound:.3g}"
        )


@dataclass
class BatchSolverResult:
    """Solutions of a whole batch.

    ``x`` has shape ``(B, n)`` (``(B, n, p)`` for MMV);
    :meth:`problem` slices one problem out as a standard
    :class:`SolverResult` (handy for the spectrum pipeline).
    """

    x: np.ndarray
    objectives: tuple[float, ...]
    iterations: tuple[int, ...]
    converged: tuple[bool, ...]
    method: str
    kappas: tuple[float, ...] | None = None

    @property
    def n_problems(self) -> int:
        return len(self.objectives)

    def to_numpy(self) -> np.ndarray:
        return np.asarray(self.x)

    def problem(self, index: int) -> SolverResult:
        return SolverResult(
            x=self.to_numpy()[index],
            objective=self.objectives[index],
            iterations=self.iterations[index],
            converged=self.converged[index],
            solver=self.method,
        )

    def single(self, telemetry: ConvergenceTrace | None = None) -> SolverResult:
        """The one problem of a ``B = 1`` kernel call, as a front door returns it."""
        return SolverResult(
            x=self.to_numpy()[0],
            objective=self.objectives[0],
            iterations=self.iterations[0],
            converged=self.converged[0],
            convergence=telemetry,
        )


class LockstepProgress:
    """Per-problem stop bookkeeping shared by the iterative kernels.

    Every problem starts active with ``iterations = max_iterations``;
    :meth:`settle` freezes the problems whose stop test passed, so a
    converged column stops moving while its neighbours iterate on.
    """

    def __init__(self, n_problems: int, max_iterations: int) -> None:
        if max_iterations < 1:
            raise SolverError(f"max_iterations must be >= 1, got {max_iterations}")
        self.active = np.ones(n_problems, dtype=bool)
        self.all_active = True
        self.iterations = np.full(n_problems, max_iterations, dtype=int)
        self.converged = np.zeros(n_problems, dtype=bool)

    def settle(self, iteration: int, done: np.ndarray) -> bool:
        """Freeze the active problems with ``done`` set; ``True`` once none is left."""
        newly = self.active & done
        if not newly.any():
            return False
        self.iterations[newly] = iteration
        self.converged[newly] = True
        self.active &= ~newly
        self.all_active = False
        return not self.active.any()

    def result(self, x, objectives, method, kappas) -> BatchSolverResult:
        return BatchSolverResult(
            x=x,
            objectives=tuple(float(v) for v in objectives),
            iterations=tuple(int(v) for v in self.iterations),
            converged=tuple(bool(v) for v in self.converged),
            method=method,
            kappas=kappas,
        )


#: A kernel's per-iteration hook: ``observe(iteration, x)`` with ``x``
#: the current ``(B, n[, p])`` iterate stack, a fresh array the hook may
#: keep (the kernels update their own buffers in place).
Observer = Callable[[int, np.ndarray], None]


def observation_hook(
    operator,
    rhs: np.ndarray,
    penalty: Callable[[np.ndarray], float],
    telemetry: ConvergenceTrace | None,
    callback: Callable[[int, np.ndarray, float], None] | None = None,
) -> Observer | None:
    """One problem's ``telemetry=`` / ``callback=`` as a kernel hook.

    Per iteration it measures the first problem ``x`` of the stack it
    is handed, shaped like that problem's solution (``(n,)`` for a
    one-column ℓ1 solve of a 1-D ``rhs``, ``(n, p)`` otherwise): the
    residual norm ``‖Ax − y‖``, the objective ``‖Ax − y‖² + penalty(x)``
    and the support size, then feeds ``telemetry.record`` and
    ``callback(iteration, x, objective)``.  That costs one dictionary
    multiply per iteration; with neither requested it returns ``None``
    and the kernel does no observation work at all.
    :func:`stacked_observer` runs one such hook per problem of a stack.
    """
    if telemetry is None and callback is None:
        return None

    def observe(iteration: int, stack: np.ndarray) -> None:
        x = stack[0].reshape(stack.shape[1], *rhs.shape[1:])
        residual_norm = float(np.linalg.norm(operator.matvec(x) - rhs))
        objective = residual_norm**2 + penalty(x)
        if telemetry is not None:
            telemetry.record(
                objective=objective,
                residual_norm=residual_norm,
                support_size=support_size(x),
            )
        if callback is not None:
            callback(iteration, x, objective)

    return observe


def stacked_observer(observers) -> Observer | None:
    """One kernel hook for a stack: problem ``b``'s hook (``None`` for
    none) sees ``stack[b : b + 1]``; ``None`` when no problem has one."""
    hooks = [(b, hook) for b, hook in enumerate(observers) if hook is not None]
    if not hooks:
        return None

    def observe(iteration: int, stack: np.ndarray) -> None:
        for b, hook in hooks:
            hook(iteration, stack[b : b + 1])

    return observe
