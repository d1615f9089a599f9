"""Batched sparse recovery: many problems, one stack of factor GEMMs.

The evaluation harness solves the *same* joint dictionary against many
measurements — one per (packet × client), or one per access point of a
location — and the per-problem Python loop, not the arithmetic,
dominates at scale.  :func:`solve_batch` stacks ``B`` problems and
hands them to the one FISTA loop, :func:`~repro.optim.mmv.mmv_lockstep`;
a ``"fista"`` (ℓ1) measurement goes in as one ``(m, 1)`` snapshot
column, because the ℓ1 program is the ℓ2,1 program with ``p = 1``, and
its solution comes out as a vector.  Every dictionary product is a
single batched matmul (two factor GEMMs for the Kronecker operator),
the row prox broadcasts one threshold per problem, and per-problem
convergence is tracked with freeze masks so a problem that has
converged stops moving while its neighbours iterate on.

Correctness contract:

* The kernel is the only iteration loop: the sequential solvers
  (``solve_lasso_fista``, ``solve_mmv_fista``) are ``B = 1`` calls of
  the same code, so a one-problem batch equals the sequential solve
  exactly.
* Larger batches run the same per-problem iteration on the same
  values: every GEMM output is one problem's own dot product and every
  per-problem sum runs over that problem's entries in the same order,
  so each problem's solution, iteration count and objective equal its
  ``B = 1`` solve's bit for bit, up to the sign of a zero
  (``tests/optim/test_batch_identity.py``).
  :data:`FLOAT64_PARITY_TOLERANCE` (1e-12 relative) is the looser
  budget the benchmarks assert.
* Warm starts carry across consecutive batches through a keyed
  :class:`~repro.optim.warm.WarmStartState` (``warm_state=`` /
  ``warm_keys=``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import SolverError
from repro.optim.mmv import mmv_lockstep
from repro.optim.operators import as_operator
from repro.optim.linalg import squared_norms, validate_penalty_weights
from repro.optim.result import BatchSolverResult, observation_hook, stacked_observer
from repro.optim.tuning import mmv_residual_kappa

#: Parity budget: a problem solved inside a batch must match its
#: ``B = 1`` solve to this relative tolerance.
FLOAT64_PARITY_TOLERANCE = 1e-12

#: The kernel options solve_batch forwards; both methods take them all.
_BATCH_OPTIONS = {"max_iterations", "tolerance", "lipschitz", "penalty_weights"}

#: Stacked size ``B·p·n`` of one lockstep block.  Problems are
#: independent, so a big batch is solved block by block with identical
#: per-problem results.  The budget bounds what a block keeps live — its
#: iterate and candidate rows, which early on cover about a third of the
#: grid — and so the resident memory a batched solve adds over ``B = 1``
#: solves.  It holds three Fig. 6 fusion problems (91×50 grid, p = 6),
#: which run a third faster per problem-iteration than alone (the
#: ``fig6_location`` row of ``BENCH_batched_solve.json``); a block of six
#: gained no more in a location's solves and peaked higher.  On the same
#: grid it holds 18 one-column problems (blocks measured ~1.5× faster
#: than one monolithic sweep at B = 64), and every serve batch whole.
BLOCK_SIZE = 3 * 6 * 4550


def block_problems(n_snapshots: int, n: int) -> int:
    """Problems per lockstep block for ``(n, p)`` solutions: :data:`BLOCK_SIZE`
    stacked entries, and at least one problem."""
    return max(1, BLOCK_SIZE // (n_snapshots * n))


def solve_batch(
    matrix,
    ys: Sequence,
    method: str = "fista",
    *,
    kappa=None,
    kappa_fraction: float = 0.05,
    warm_state=None,
    warm_keys: Sequence[str] | None = None,
    telemetry: Sequence | None = None,
    **options,
) -> BatchSolverResult:
    """Solve ``B`` sparse-recovery problems against one dictionary.

    Parameters
    ----------
    matrix:
        Dictionary ``A`` — ndarray or
        :class:`~repro.optim.operators.DictionaryOperator`.
    ys:
        Sequence of ``B`` measurements: 1-D vectors of length ``m``
        (``method="fista"``) or 2-D ``(m, p)`` snapshot matrices
        (``method="mmv"``).  All problems must share one shape — a
        ragged batch is an error, as is an empty one.
    kappa:
        Scalar (shared), a length-``B`` sequence (per problem), or
        ``None`` to derive each problem's κ via
        :func:`~repro.optim.tuning.mmv_residual_kappa` (of which
        :func:`~repro.optim.tuning.residual_kappa` is the one-column
        call) exactly as the sequential loop would.
    warm_state / warm_keys:
        Keyed cross-batch carry-over: a
        :class:`~repro.optim.warm.WarmStartState` plus one key per
        problem.  Each problem warms from its key's stored solution
        (zeros — a cold start — where the key is missing or the shape
        changed) and writes its solution back after the solve, so
        consecutive batches over an evolving problem population (the
        streaming service's micro-batches) chain warm starts without
        the caller stacking arrays.
    telemetry:
        Optional sequence of ``B`` entries, each a
        :class:`~repro.obs.ConvergenceTrace` that records its problem's
        per-iteration objective, residual norm and support size (one
        extra dictionary multiply per traced problem and iteration), or
        ``None``.  Tracing never changes the solve.
    **options:
        Kernel options: ``max_iterations``, ``tolerance``, ``lipschitz``
        and ``penalty_weights``.
    """
    if method not in ("fista", "mmv"):
        raise SolverError(
            f"solve_batch does not support method {method!r}; "
            "batchable methods: ['fista', 'mmv']"
        )
    stray = sorted(set(options) - _BATCH_OPTIONS)
    if stray:
        raise TypeError(f"solve_batch() got an unexpected keyword argument {stray[0]!r}")

    ys = list(ys)
    n_problems = len(ys)
    if n_problems == 0:
        raise SolverError("solve_batch received an empty batch")
    expected_ndim = 2 if method == "mmv" else 1
    shapes = {np.shape(y) for y in ys}
    if len(shapes) > 1:
        raise SolverError(
            f"solve_batch received a ragged batch: problem shapes {sorted(shapes)}"
        )
    (problem_shape,) = shapes
    if len(problem_shape) != expected_ndim:
        raise SolverError(
            f"method {method!r} expects {expected_ndim}-D measurements, "
            f"got shape {problem_shape}"
        )

    operator = as_operator(matrix)
    m, n = operator.shape
    if problem_shape[0] != m:
        raise SolverError(
            f"dictionary and batch are incompatible: A is {operator.shape}, "
            f"measurements have leading dimension {problem_shape[0]}"
        )

    # The ℓ1 program is the ℓ2,1 program with one snapshot column: each
    # measurement goes in as an (m, p) matrix (p = 1 for "fista") and
    # each solution comes back in the caller's (n[, p]) shape.
    solution_shape = (n, *problem_shape[1:])
    ys = [np.reshape(y, (m, -1)) for y in ys]
    kappas = _resolve_kappas(operator, ys, kappa, kappa_fraction, n_problems)
    warm = None
    if warm_state is not None:
        warm = _keyed_starts(warm_state, warm_keys, n_problems, solution_shape)
    elif warm_keys is not None:
        raise SolverError("warm_keys requires warm_state")

    observers = [None] * n_problems
    if telemetry is not None:
        if len(telemetry) != n_problems:
            raise SolverError(
                f"telemetry has {len(telemetry)} entries, expected {n_problems}"
            )
        weights = validate_penalty_weights(options.get("penalty_weights"), n)
        observers = [
            _telemetry_hook(operator, y, kappa, weights, trace)
            for y, kappa, trace in zip(ys, kappas, telemetry)
        ]

    blocks = []
    size = block_problems(ys[0].shape[1], n)
    for start in range(0, n_problems, size):
        stop = min(start + size, n_problems)
        blocks.append(
            _solve_stacked(
                operator,
                ys[start:stop],
                kappas[start:stop],
                warm[start:stop] if warm is not None else None,
                stacked_observer(observers[start:stop]),
                options,
            )
        )
    x = blocks[0].x if len(blocks) == 1 else np.concatenate([block.x for block in blocks])
    result = BatchSolverResult(
        x=x.reshape(n_problems, *solution_shape),
        objectives=tuple(v for block in blocks for v in block.objectives),
        iterations=tuple(v for block in blocks for v in block.iterations),
        converged=tuple(v for block in blocks for v in block.converged),
        method=method,
        kappas=kappas,
    )

    if warm_state is not None:
        solutions = result.to_numpy()
        for index, key in enumerate(warm_keys):
            warm_state.put(key, solutions[index])
    return result


def _resolve_kappas(operator, ys, kappa, kappa_fraction, n_problems):
    if kappa is None:
        return tuple(mmv_residual_kappa(operator, y, fraction=kappa_fraction) for y in ys)
    if np.ndim(kappa) == 0:
        return (float(kappa),) * n_problems
    kappas = tuple(float(k) for k in kappa)
    if len(kappas) != n_problems:
        raise SolverError(
            f"kappa sequence has length {len(kappas)}, expected {n_problems}"
        )
    return kappas


def _keyed_starts(warm_state, warm_keys, n_problems, shape):
    """Per-key warm starts out of a WarmStartState, stacked ``(B, n, p)``.

    Missing keys (and shape-mismatched slots — e.g. a client's snapshot
    window grew since the last batch) contribute a zero column, which is
    exactly the solvers' cold-start iterate, so warm and cold problems
    mix freely inside one batch.
    """
    if warm_keys is None or len(warm_keys) != n_problems:
        n_keys = 0 if warm_keys is None else len(warm_keys)
        raise SolverError(
            f"warm_state requires one warm key per problem: got {n_keys} keys "
            f"for {n_problems} problems"
        )
    starts = np.zeros((n_problems, *shape), dtype=complex)
    for index, key in enumerate(warm_keys):
        stored = warm_state.get(str(key), shape)
        if stored is not None:
            starts[index] = stored
    return starts.reshape(n_problems, shape[0], -1)


def _telemetry_hook(operator, y, kappa, weights, trace):
    """One problem's ℓ2,1 telemetry hook (``None`` without a trace)."""

    def penalty(x):
        row_norms = np.sqrt(squared_norms(x, axis=1))
        if weights is not None:
            row_norms = weights * row_norms
        return kappa * float(row_norms.sum())

    return observation_hook(operator, y, penalty, trace)


def _solve_stacked(operator, ys, kappas, warm, observe, options):
    stacked = np.stack([np.asarray(y, dtype=complex) for y in ys])
    if not np.all(np.isfinite(stacked)):
        raise SolverError("batch contains non-finite measurements")
    return mmv_lockstep(operator, stacked, kappas, warm, observe=observe, **options)
