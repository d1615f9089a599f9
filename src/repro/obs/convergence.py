"""Per-iteration solver telemetry.

A :class:`ConvergenceTrace` records what a sparse-recovery solver did on
every iteration — objective value, residual norm, support size — when
the caller opts in by passing ``telemetry=ConvergenceTrace(...)`` to any
solver in :mod:`repro.optim`.  With no trace passed (the default) the
solvers skip all telemetry work: no extra matvecs, no objective
evaluations, no recording.

The trace rides back on :attr:`repro.optim.result.SolverResult.convergence`
and, when the pipeline runs under an enabled tracer, lands in the span
tree as a ``convergence`` attribute of the ``solver`` span — which is
how ``roarray trace`` exposes FISTA iteration behaviour per solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np


def support_size(x: np.ndarray) -> int:
    """Exact nonzero count of a coefficient vector (rows for MMV).

    Proximal solvers produce exact zeros through soft-thresholding, so
    the plain nonzero count is the natural per-iteration sparsity
    measure (contrast :meth:`repro.optim.result.SolverResult.sparsity`,
    which applies a relative floor for peak counting).
    """
    if x.ndim == 1:
        return int(np.count_nonzero(x))
    return int(np.count_nonzero(np.linalg.norm(x, axis=1)))


@dataclass
class ConvergenceTrace:
    """Per-iteration objective / residual / support telemetry.

    Attributes
    ----------
    solver:
        Which solver produced the trace (``"fista"``, ``"mmv_fista"``,
        ``"omp"``, …).
    objectives:
        The solver's objective value after each iteration.
    residual_norms:
        ``‖Ax − y‖`` (Frobenius norm for MMV) after each iteration.
    support_sizes:
        Nonzero count of the iterate after each iteration.
    """

    solver: str = ""
    objectives: list[float] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)
    support_sizes: list[int] = field(default_factory=list)

    def record(self, *, objective: float, residual_norm: float, support_size: int) -> None:
        """Append one iteration's telemetry."""
        self.objectives.append(float(objective))
        self.residual_norms.append(float(residual_norm))
        self.support_sizes.append(int(support_size))

    def __len__(self) -> int:
        return len(self.objectives)

    @property
    def iterations(self) -> int:
        return len(self.objectives)

    def objective_decay(self) -> float:
        """First-to-last objective drop (0 for traces under 2 entries)."""
        if len(self.objectives) < 2:
            return 0.0
        return float(self.objectives[0] - self.objectives[-1])

    def to_dict(self) -> dict[str, Any]:
        return {
            "solver": self.solver,
            "objectives": [float(v) for v in self.objectives],
            "residual_norms": [float(v) for v in self.residual_norms],
            "support_sizes": [int(v) for v in self.support_sizes],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ConvergenceTrace":
        return cls(
            solver=str(payload.get("solver", "")),
            objectives=[float(v) for v in payload.get("objectives", [])],
            residual_norms=[float(v) for v in payload.get("residual_norms", [])],
            support_sizes=[int(v) for v in payload.get("support_sizes", [])],
        )
