"""Shared linear-algebra helpers for the sparse solvers."""

from __future__ import annotations

import numpy as np

from repro.exceptions import SolverError


def soft_threshold(x: np.ndarray, threshold) -> np.ndarray:
    """Complex soft-thresholding (proximal operator of ``threshold·‖·‖₁``).

    Shrinks each entry's magnitude by ``threshold`` while preserving its
    phase; entries whose magnitude falls below ``threshold`` become
    exactly zero.  For real input this reduces to the familiar
    ``sign(x)·max(|x|−t, 0)``.  ``threshold`` may be a scalar or an
    array broadcastable against ``x`` (the batched solver passes one
    threshold per problem column).
    """
    if np.any(np.asarray(threshold) < 0):
        raise SolverError(f"soft_threshold requires threshold >= 0, got {threshold}")
    magnitude = np.abs(x)
    scale = np.maximum(magnitude - threshold, 0.0)
    # Avoid 0/0 where the magnitude is zero; those entries stay zero.
    with np.errstate(invalid="ignore", divide="ignore"):
        shrunk = np.where(magnitude > 0, x * (scale / np.where(magnitude > 0, magnitude, 1.0)), 0.0)
    return shrunk


def row_soft_threshold(x: np.ndarray, threshold) -> np.ndarray:
    """Row-wise group soft-thresholding (proximal operator of ℓ2,1).

    Each row of ``x`` is treated as one group: its ℓ2 norm is shrunk by
    ``threshold`` and the row is rescaled, which either preserves the
    row's direction or zeroes the row entirely.  This is the operator
    that makes the multi-snapshot (MMV) problem *jointly* sparse — all
    snapshots agree on the active dictionary atoms.  ``threshold`` is a
    scalar or one threshold per row (the weighted ℓ2,1 prox).
    """
    if x.ndim != 2:
        raise SolverError(f"row_soft_threshold expects a 2-D array, got ndim={x.ndim}")
    threshold = np.reshape(threshold, (-1, 1)) if np.ndim(threshold) else threshold
    if np.any(np.asarray(threshold) < 0):
        raise SolverError(f"row_soft_threshold requires threshold >= 0, got {threshold}")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    scale = np.maximum(norms - threshold, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        factors = np.where(norms > 0, scale / np.where(norms > 0, norms, 1.0), 0.0)
    return x * factors


def squared_norms(x: np.ndarray, axis) -> np.ndarray:
    """``Σ|x|²`` along ``axis``, squared from the real and imaginary parts.

    The ℓ2,1 row norms and stop norms of the solvers: no
    ``np.linalg.norm`` dispatch, no ``|x|`` square roots and no conjugate
    temporary, and callers take the root only where a norm is needed.
    """
    squares = np.square(x.real)
    squares += np.square(x.imag)
    return squares.sum(axis=axis)


def estimate_lipschitz(matrix, iterations: int = 50, seed: int = 0) -> float:
    """Estimate ``‖AᴴA‖₂`` (the gradient Lipschitz constant) by power iteration.

    A tight upper bound keeps the FISTA step size ``1/L`` as large as
    possible.  Power iteration on ``AᴴA`` converges fast for the
    steering dictionaries used here (their spectrum is heavily
    top-weighted), and we inflate the estimate by 1% for safety.

    Accepts either a 2-D ndarray or a
    :class:`~repro.optim.operators.DictionaryOperator` (duck-typed on
    ``matvec``/``rmatvec`` to keep this module import-free of the
    operator layer); both run the identical iteration, so a structured
    operator yields the same constant as its dense form up to rounding.
    """
    if hasattr(matrix, "matvec"):
        forward, adjoint = matrix.matvec, matrix.rmatvec
    else:
        if matrix.ndim != 2:
            raise SolverError(f"estimate_lipschitz expects a 2-D matrix, got ndim={matrix.ndim}")
        forward = matrix.__matmul__
        adjoint = matrix.conj().T.__matmul__
    rng = np.random.default_rng(seed)
    n = matrix.shape[1]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    eigenvalue = 0.0
    for _ in range(iterations):
        w = adjoint(forward(v))
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        eigenvalue = float(norm)
        v = w / norm
    return 1.01 * eigenvalue


def validate_penalty_weights(penalty_weights, n: int) -> np.ndarray | None:
    """Per-coefficient ℓ1/ℓ2,1 weights as a float64 ``(n,)`` array (or None)."""
    if penalty_weights is None:
        return None
    weights = np.asarray(penalty_weights, dtype=np.float64)
    if weights.shape != (n,):
        raise SolverError(f"penalty_weights must have shape ({n},), got {weights.shape}")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise SolverError("penalty_weights must be finite and non-negative")
    return weights


def validate_kernel_inputs(kappas, lipschitz, warm) -> np.ndarray:
    """A kernel's κ as a float64 array, after checking its numeric inputs.

    κ must be finite and ≥ 0, a supplied ``lipschitz`` finite and > 0
    (only the operator's own bound may be 0, for a zero dictionary),
    and a warm start finite — so NaN or inf fails here instead of
    coming back as a "converged" result.
    """
    kap = np.asarray(kappas, dtype=np.float64)
    if not np.all(np.isfinite(kap)) or np.any(kap < 0):
        raise SolverError(f"kappa must be finite and non-negative, got {kappas}")
    if lipschitz is not None and not 0 < float(lipschitz) < np.inf:
        raise SolverError(f"lipschitz must be finite and positive, got {lipschitz}")
    if warm is not None and not np.all(np.isfinite(warm)):
        raise SolverError("x0 contains non-finite entries")
    return kap


def validate_system(matrix, rhs: np.ndarray) -> None:
    """Check that ``matrix`` (ndarray or operator) and ``rhs`` are consistent."""
    is_operator = hasattr(matrix, "matvec")
    if not is_operator and matrix.ndim != 2:
        raise SolverError(f"dictionary must be 2-D, got ndim={matrix.ndim}")
    if rhs.ndim not in (1, 2):
        raise SolverError(f"measurement must be 1-D or 2-D, got ndim={rhs.ndim}")
    if rhs.shape[0] != matrix.shape[0]:
        raise SolverError(
            "dictionary and measurement are incompatible: "
            f"A is {matrix.shape}, y has leading dimension {rhs.shape[0]}"
        )
    # Structured operators validate their factors at construction; the
    # dense entry check only applies to materialized dictionaries.
    if not is_operator and not np.all(np.isfinite(matrix)):
        raise SolverError("dictionary contains non-finite entries")
    if not np.all(np.isfinite(rhs)):
        raise SolverError("measurement contains non-finite entries")
