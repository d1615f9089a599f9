"""Structured dictionary operators for the sparse solvers.

Every solver in :mod:`repro.optim` needs only four things from a
dictionary ``A``: forward products ``A @ x``, adjoint products
``Aᴴ @ r``, the shape, and the gradient Lipschitz constant ``‖AᴴA‖₂``.
:class:`DictionaryOperator` abstracts exactly that quadruple so a
dictionary with exploitable structure never has to be materialized.

The payoff case is the paper's Eq. 16 joint dictionary: it is by
construction a Kronecker product ``kron(G, S̃)`` of the delay phase
ramps ``G ∈ ℂ^{L×Nτ}`` and the angle steering matrix ``S̃ ∈ ℂ^{M×Nθ}``
(see :mod:`repro.core.steering`).  :class:`KroneckerJointOperator`
applies it as two small matmuls over the ``Nθ × Nτ`` grid instead of one
dense ``(M·L) × (Nθ·Nτ)`` GEMM — the separable-dictionary trick of
multidimensional OMP (Palacios et al.) applied to the ℓ1/ℓ2,1 path —
and its Lipschitz constant factorizes exactly as
``λmax(S̃ᴴS̃)·λmax(GᴴG)``.  It serves two estimators: ROArray's ℓ1 and
ℓ2,1 solves (:attr:`repro.core.steering.SteeringCache.joint_operator`)
and SpotFi's 2-D MUSIC, whose smoothing-window steering is the same
Kronecker structure on a 2-antenna × 15-subcarrier window
(:func:`repro.baselines.spotfi.subarray_joint_operator`) and whose
pseudospectrum needs only ``rmatvec``
(:func:`repro.baselines.music.music_pseudospectrum`).

Operators also expose batched products ``matmul_batch``/``rmatmul_batch``
that apply the dictionary to a whole stack of problems in one GEMM — the
seam :func:`repro.optim.solve_batch` is built on.

:func:`as_operator` adapts plain arrays, so solver internals are written
once against the operator interface and accept either form.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.exceptions import SolverError
from repro.optim.linalg import estimate_lipschitz


class DictionaryOperator(ABC):
    """Abstract dictionary: matvec / rmatvec / shape / Lipschitz / dense.

    Subclasses must set ``shape = (m, n)`` and implement the abstract
    methods below; ``matvec`` and ``rmatvec`` must accept both a vector
    (1-D) and a snapshot matrix (2-D, one column per snapshot) and return
    the matching shape.  ``A @ x`` is sugar for ``matvec``.
    """

    shape: tuple[int, int]

    @abstractmethod
    def matvec(self, x):
        """``A @ x`` for ``x`` of shape ``(n,)`` or ``(n, p)``."""

    @abstractmethod
    def rmatvec(self, r):
        """``Aᴴ @ r`` for ``r`` of shape ``(m,)`` or ``(m, p)``."""

    @abstractmethod
    def to_dense(self):
        """The materialized ``(m, n)`` dictionary (for tests / fallbacks)."""

    @abstractmethod
    def lipschitz(self) -> float:
        """``‖AᴴA‖₂``, the Lipschitz constant of ``x ↦ Aᴴ(Ax)``."""

    def column_norms(self):
        """Per-column ℓ2 norms (used by OMP and the κ heuristics)."""
        return np.linalg.norm(self.to_dense(), axis=0)

    def columns(self, indices: Sequence[int]):
        """Materialize the selected columns as a dense ``(m, k)`` block."""
        return self.to_dense()[:, list(indices)]

    def matmul_batch(self, x):
        """``A`` applied to a stack of problems in one batched product.

        ``x`` of shape ``(B, n)`` → ``(B, m)``; for MMV problems,
        ``(B, n, p)`` → ``(B, m, p)``.  The stack is folded into the
        2-D ``matvec`` path, so one GEMM (or one pair of factor GEMMs
        for the Kronecker operator) covers the whole batch.
        """
        if x.ndim == 2:
            return np.moveaxis(self.matvec(np.moveaxis(x, 0, 1)), 0, 1)
        if x.ndim == 3:
            batch, n, p = x.shape
            folded = np.moveaxis(x, 0, 1).reshape(n, batch * p)
            product = self.matvec(folded)
            return np.moveaxis(product.reshape(self.shape[0], batch, p), 0, 1)
        raise SolverError(f"matmul_batch operand must be 2-D or 3-D, got ndim={x.ndim}")

    def rmatmul_batch(self, r):
        """Adjoint of :meth:`matmul_batch`: ``(B, m[, p]) → (B, n[, p])``."""
        if r.ndim == 2:
            return np.moveaxis(self.rmatvec(np.moveaxis(r, 0, 1)), 0, 1)
        if r.ndim == 3:
            batch, m, p = r.shape
            folded = np.moveaxis(r, 0, 1).reshape(m, batch * p)
            product = self.rmatvec(folded)
            return np.moveaxis(product.reshape(self.shape[1], batch, p), 0, 1)
        raise SolverError(f"rmatmul_batch operand must be 2-D or 3-D, got ndim={r.ndim}")

    def __matmul__(self, x):
        return self.matvec(x)


class DenseOperator(DictionaryOperator):
    """Adapter giving a plain 2-D array the operator interface."""

    def __init__(self, matrix, *, lipschitz: float | None = None) -> None:
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise SolverError(f"dictionary must be 2-D, got ndim={matrix.ndim}")
        self.matrix = matrix
        self.shape = tuple(matrix.shape)
        self._lipschitz = lipschitz

    def matvec(self, x):
        return self.matrix @ np.asarray(x)

    def rmatvec(self, r):
        return self.matrix.conj().T @ np.asarray(r)

    def to_dense(self):
        return self.matrix

    def lipschitz(self) -> float:
        if self._lipschitz is None:
            self._lipschitz = estimate_lipschitz(self.matrix)
        return self._lipschitz

    def column_norms(self):
        return np.linalg.norm(self.matrix, axis=0)

    def columns(self, indices: Sequence[int]):
        return self.matrix[:, list(indices)]


class KroneckerJointOperator(DictionaryOperator):
    """The Eq. 16 joint dictionary ``kron(temporal, spatial)``, unmaterialized.

    Parameters
    ----------
    temporal:
        Delay phase ramps ``G`` of shape ``(L, Nτ)``
        (:func:`repro.core.steering.delay_ramp_dictionary`).
    spatial:
        Angle steering matrix ``S̃`` of shape ``(M, Nθ)``
        (:func:`repro.core.steering.angle_steering_dictionary`).

    The represented dictionary is ``kron(G, S̃)`` of shape
    ``(M·L, Nθ·Nτ)`` with rows ordered antenna-fastest (Eq. 15) and
    columns delay-major (column ``j·Nθ + i`` ↔ angle ``i``, delay ``j``)
    — identical to :func:`repro.core.steering.joint_steering_dictionary`.
    A matvec costs two small matmuls, ``O(Nθ·Nτ·(M + L))`` instead of
    the dense ``O(M·L·Nθ·Nτ)`` — and the 2-D path doubles as the batched
    engine: :meth:`matmul_batch` folds a whole stack of problems into
    the same two factor GEMMs.

    The 2-D path works on the operand's row stack ``xᵀ``, one
    ``(Nτ, Nθ)`` coefficient grid per column, and returns the ``.T`` of
    its ``(p, m)`` row-stack result.  A caller that keeps its iterate as
    rows (the MMV kernel) hands over ``rows.T`` and reads back
    ``product.T``, so neither side copies; any other ``(n, p)`` operand
    pays one contiguous copy of its row stack.
    """

    def __init__(self, temporal, spatial) -> None:
        temporal = np.asarray(temporal)
        spatial = np.asarray(spatial)
        if temporal.ndim != 2 or spatial.ndim != 2:
            raise SolverError("KroneckerJointOperator factors must be 2-D")
        if not (np.all(np.isfinite(temporal)) and np.all(np.isfinite(spatial))):
            raise SolverError("KroneckerJointOperator factors contain non-finite entries")
        self.temporal = temporal
        self.spatial = spatial
        # Factors of the 2-D adjoint, materialized once (the 1-D paths
        # conjugate per call, matching the reference expressions bit for
        # bit).
        self._temporal_adjoint = temporal.conj().T
        self._spatial_conj = spatial.conj()
        self.n_subcarriers, self.n_delays = tuple(temporal.shape)
        self.n_antennas, self.n_angles = tuple(spatial.shape)
        self.shape = (
            self.n_antennas * self.n_subcarriers,
            self.n_angles * self.n_delays,
        )
        self._lipschitz: float | None = None

    def matvec(self, x):
        x = np.asarray(x)
        if x.ndim == 1:
            # Delay-major coefficients → (Nτ, Nθ) grid; the product
            # S̃ Xᵀ Gᵀ is the (M, L) CSI matrix, re-vectorized
            # antenna-fastest exactly like vectorize_csi_matrix.
            grid = x.reshape(self.n_delays, self.n_angles)
            csi = self.spatial @ grid.T @ self.temporal.T
            return csi.T.reshape(-1)
        if x.ndim == 2:
            # Row stack: contract the wide angle axis first (Nθ → M
            # shrinks ~30×, Nτ → L only ~2×) as one GEMM over every grid
            # X_k, then G (X_k S̃ᵀ) per grid — the (L, M) CSI matrix of
            # column k, whose C-order flattening is antenna-fastest.
            rows = np.ascontiguousarray(x.T)
            p = rows.shape[0]
            angles = rows.reshape(p * self.n_delays, self.n_angles) @ self.spatial.T
            csi = self.temporal @ angles.reshape(p, self.n_delays, self.n_antennas)
            return csi.reshape(p, self.shape[0]).T
        raise SolverError(f"matvec operand must be 1-D or 2-D, got ndim={x.ndim}")

    def rmatvec(self, r):
        r = np.asarray(r)
        if r.ndim == 1:
            csi = r.reshape(self.n_subcarriers, self.n_antennas).T  # (M, L)
            grid = self.spatial.conj().T @ csi @ np.conj(self.temporal)  # (Nθ, Nτ)
            return grid.T.reshape(-1)
        if r.ndim == 2:
            # Adjoint of the 2-D matvec on the row stack: Gᴴ R_k per CSI
            # matrix, then one GEMM with conj(S̃) for every grid at once.
            rows = np.ascontiguousarray(r.T)
            p = rows.shape[0]
            delays = self._temporal_adjoint @ rows.reshape(
                p, self.n_subcarriers, self.n_antennas
            )
            grid = delays.reshape(p * self.n_delays, self.n_antennas) @ self._spatial_conj
            return grid.reshape(p, self.shape[1]).T
        raise SolverError(f"rmatvec operand must be 1-D or 2-D, got ndim={r.ndim}")

    def to_dense(self):
        return np.kron(self.temporal, self.spatial)

    def lipschitz(self) -> float:
        """Exact: ``‖AᴴA‖₂ = λmax(S̃ᴴS̃)·λmax(GᴴG)`` for Kronecker products."""
        if self._lipschitz is None:
            spatial_top = float(np.linalg.eigvalsh(self.spatial.conj().T @ self.spatial)[-1])
            temporal_top = float(
                np.linalg.eigvalsh(self.temporal.conj().T @ self.temporal)[-1]
            )
            self._lipschitz = spatial_top * temporal_top
        return self._lipschitz

    def column_norms(self):
        spatial_norms = np.linalg.norm(self.spatial, axis=0)
        temporal_norms = np.linalg.norm(self.temporal, axis=0)
        return (temporal_norms.reshape(-1, 1) * spatial_norms.reshape(1, -1)).reshape(-1)

    def columns(self, indices: Sequence[int]):
        cols = []
        for index in indices:
            delay, angle = divmod(int(index), self.n_angles)
            cols.append(
                (
                    self.temporal[:, delay].reshape(-1, 1)
                    * self.spatial[:, angle].reshape(1, -1)
                ).reshape(-1)
            )
        return np.stack(cols, axis=1)


def as_operator(matrix) -> DictionaryOperator:
    """Adapt ``matrix`` (ndarray or operator) to the operator interface.

    Operators pass through untouched; arrays are wrapped in a
    :class:`DenseOperator`.
    """
    if isinstance(matrix, DictionaryOperator):
        return matrix
    return DenseOperator(matrix)
