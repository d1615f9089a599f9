"""The unified solver entry point, ``repro.optim.solve``.

The per-solver functions (``solve_lasso_fista`` & co.) remain the
stable low-level surface; :func:`solve` is the one-call front door that
picks the solver by name, derives a sensible sparsity weight when none
is given, and accepts dense arrays or
:class:`~repro.optim.operators.DictionaryOperator` dictionaries
uniformly.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SolverError
from repro.optim.admm import solve_lasso_admm
from repro.optim.fista import solve_lasso_fista
from repro.optim.mmv import solve_mmv_fista
from repro.optim.omp import solve_omp
from repro.optim.result import SolverResult
from repro.optim.reweighted import solve_reweighted_lasso
from repro.optim.sbl import solve_sbl
from repro.optim.tuning import mmv_residual_kappa, residual_kappa

#: method name → (solver, takes κ).  OMP is parameterized by the model
#: order instead of κ; SBL learns per-atom relevance and needs neither.
_METHODS = {
    "fista": (solve_lasso_fista, True),
    "admm": (solve_lasso_admm, True),
    "omp": (solve_omp, False),
    "mmv": (solve_mmv_fista, True),
    "reweighted": (solve_reweighted_lasso, True),
    "sbl": (solve_sbl, False),
}


def solve(
    matrix,
    rhs: np.ndarray,
    method: str = "fista",
    *,
    kappa: float | None = None,
    kappa_fraction: float = 0.05,
    **options,
) -> SolverResult:
    """Sparse recovery with the solver chosen by name.

    Parameters
    ----------
    matrix:
        Dictionary ``A`` — a dense ndarray or any
        :class:`~repro.optim.operators.DictionaryOperator`.
    rhs:
        Measurement vector ``(m,)`` (or snapshot matrix ``(m, p)`` for
        ``method="mmv"`` / ``"sbl"``).
    method:
        ``"fista"`` (default), ``"admm"``, ``"omp"``, ``"mmv"``,
        ``"reweighted"``, or ``"sbl"``.
    kappa:
        Sparsity weight for the ℓ1/ℓ2,1 methods.  Derived from
        ``kappa_fraction`` of the zero-solution gradient when omitted
        (:func:`~repro.optim.tuning.residual_kappa`, or its MMV
        analogue for 2-D measurements).  Rejected by ``"omp"`` (which
        takes ``sparsity=``) and ``"sbl"`` (no weight to tune).
    **options:
        Forwarded verbatim to the underlying solver — e.g.
        ``max_iterations``, ``tolerance``, ``x0``, ``lipschitz``,
        ``sparsity`` (OMP), ``rho`` / ``factors`` (ADMM).

    Returns
    -------
    SolverResult
    """
    try:
        solver, takes_kappa = _METHODS[method]
    except KeyError:
        raise SolverError(
            f"unknown method {method!r}; expected one of {sorted(_METHODS)}"
        ) from None

    if not takes_kappa:
        if kappa is not None:
            raise SolverError(f"method {method!r} does not take a kappa weight")
        return solver(matrix, rhs, **options)

    if kappa is None:
        rhs_array = np.asarray(rhs)
        if method == "mmv" or rhs_array.ndim == 2:
            kappa = mmv_residual_kappa(matrix, rhs_array, fraction=kappa_fraction)
        else:
            kappa = residual_kappa(matrix, rhs_array, fraction=kappa_fraction)
    return solver(matrix, rhs, kappa, **options)
