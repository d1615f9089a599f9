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

import math
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
    #: Smallest snapshot count ``p`` from which the MMV kernel screens
    #: rows with :meth:`rmatvec_energies` instead of forming the full
    #: adjoint: where the energy form is the cheaper product.  Never here.
    screen_snapshots: float = math.inf

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

    # Row-screened products of the MMV kernel's gathered tail.  A 2-D
    # operand of shape (·, B·p) stacks B problems of p consecutive
    # columns; a "row" is a flat index b·n + j into the (B, n) grid.

    def matvec_rows(self, x, rows, n_snapshots: int):
        """``A @ x`` for a 2-D ``(n, B·p)`` ``x`` that is zero off ``rows``.

        ``rows`` lists the flat grid rows ``b·n + j`` where problem ``b``
        may be nonzero; an operator may skip the others.  This one
        computes the full :meth:`matvec`.
        """
        return self.matvec(x)

    def rmatvec_energies(self, r, n_snapshots: int):
        """Upper bounds on the row energies of ``Aᴴ r``, and a stage.

        ``r`` is ``(m, B·p)`` with ``p = n_snapshots``.  Returns a
        ``(B, n)`` array ``bound`` with ``bound[b, j] ≥ Σ_k |(Aᴴr)_{j,b·p+k}|²``,
        the sum evaluated in floating point, in ``k`` order and as
        ``Re² + Im²`` per term, from the values :meth:`rmatvec_rows`
        returns; and the stage those values are picked from.  Here the
        bound is that sum itself, from the full :meth:`rmatvec`, and the
        stage is the ``(B, p, n)`` adjoint.
        """
        stage = np.ascontiguousarray(self.rmatvec(r).T, dtype=complex)
        stage = stage.reshape(-1, n_snapshots, self.shape[1])
        squares = np.square(stage.view(np.float64))
        energies = squares[..., 0::2] + squares[..., 1::2]
        return energies.sum(axis=1), stage

    def rmatvec_rows(self, stage, mask):
        """``Aᴴ r`` on the rows of the ``(B, n)`` boolean ``mask``.

        Returns ``(p, count)`` values, one column per ``True`` row in
        C order: entry ``[k, c]`` is column ``b·p + k`` of the adjoint at
        grid row ``j`` for the ``c``-th row ``b·n + j``, bit-equal to the
        full :meth:`rmatvec`'s.  ``stage`` comes from
        :meth:`rmatvec_energies`.
        """
        n_snapshots, n = stage.shape[1], self.shape[1]
        rows = np.flatnonzero(mask)
        offsets = rows + rows // n * ((n_snapshots - 1) * n)
        return stage.reshape(-1).take(offsets + (np.arange(n_snapshots) * n)[:, None])

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


#: Grid size ``Nθ·Nτ`` from which :class:`KroneckerJointOperator` screens
#: rows (see :attr:`KroneckerJointOperator.screen_snapshots`): the
#: screened route loses on 3,050 rows and wins on 4,550.
SCREEN_MIN_ROWS = 4096


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
    pays one contiguous copy of its row stack.  The 2-D :meth:`rmatvec`
    also writes into a caller's ``out=`` buffer, so the kernel's adjoint
    lands in the same ``(p, n)`` row stack every iteration.

    The two spatial GEMMs of the 2-D path, ``(p·Nτ, Nθ) @ S̃ᵀ`` and
    ``(p·Nτ, M) @ conj(S̃)``, run in real arithmetic: a complex row
    stack viewed as float64 interleaves real and imaginary parts, and
    right-multiplying it by the ``(2K, 2N)`` real form of a complex
    ``(K, N)`` factor (each entry ``c + id`` a 2×2 block
    ``[[c, d], [−d, c]]``, built once here) is the complex product —
    one float64 GEMM, about twice as fast as the complex one at these
    skinny shapes, equal to it up to rounding.
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
        # Factors of the 2-D paths, materialized once (the 1-D paths
        # conjugate per call, matching the reference expressions bit for
        # bit); the spatial ones in real 2×2-block form.
        self._temporal_adjoint = temporal.conj().T
        self._spatial_forward = _real_block_form(spatial.T)
        self._spatial_adjoint = _real_block_form(spatial.conj())
        self.n_subcarriers, self.n_delays = tuple(temporal.shape)
        self.n_antennas, self.n_angles = tuple(spatial.shape)
        self.shape = (
            self.n_antennas * self.n_subcarriers,
            self.n_angles * self.n_delays,
        )
        self._lipschitz: float | None = None
        self._energy_features: dict[int, np.ndarray] = {}

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
            rows = np.ascontiguousarray(x.T, dtype=complex)
            p = rows.shape[0]
            angles = _real_view(rows, p * self.n_delays) @ self._spatial_forward
            csi = self.temporal @ angles.view(complex).reshape(
                p, self.n_delays, self.n_antennas
            )
            return csi.reshape(p, self.shape[0]).T
        raise SolverError(f"matvec operand must be 1-D or 2-D, got ndim={x.ndim}")

    def rmatvec(self, r, *, out=None):
        """``Aᴴ @ r``; a 2-D ``r`` may write into ``out``.

        ``out`` is an ``(n, p)`` complex array whose transpose is a
        C-contiguous ``(p, n)`` row stack — the view a row-stack caller
        hands over — and is returned filled.
        """
        r = np.asarray(r)
        if r.ndim == 1:
            csi = r.reshape(self.n_subcarriers, self.n_antennas).T  # (M, L)
            grid = self.spatial.conj().T @ csi @ np.conj(self.temporal)  # (Nθ, Nτ)
            return grid.T.reshape(-1)
        if r.ndim == 2:
            # Adjoint of the 2-D matvec on the row stack: Gᴴ R_k per CSI
            # matrix, then one GEMM with conj(S̃) for every grid at once.
            rows = np.ascontiguousarray(r.T, dtype=complex)
            p = rows.shape[0]
            delays = self._temporal_adjoint @ rows.reshape(
                p, self.n_subcarriers, self.n_antennas
            )
            if out is None:
                out = np.empty((p, self.shape[1]), dtype=complex).T
            elif out.shape != (self.shape[1], p) or not (
                out.dtype == complex and out.T.flags.c_contiguous
            ):
                raise SolverError(
                    f"rmatvec out must be a complex ({self.shape[1]}, {p}) array "
                    "whose transpose is C-contiguous"
                )
            np.matmul(
                _real_view(delays, p * self.n_delays),
                self._spatial_adjoint,
                out=_real_view(out.T, p * self.n_delays),
            )
            return out
        raise SolverError(f"rmatvec operand must be 1-D or 2-D, got ndim={r.ndim}")

    @property
    def screen_snapshots(self) -> float:
        """``2M`` on grids of :data:`SCREEN_MIN_ROWS` rows or more, else never.

        The energy GEMM has ``2M²`` terms per grid row against the full
        adjoint's ``2M·p`` and its ``p`` squares, but forming ``Q_d`` and
        the screen's bookkeeping cost a few dozen numpy calls per
        iteration.  Measured on one BLAS thread, kernel time of the
        screened route over the full one: ``p = 1, 2`` lose 15–45 %
        (61×21 and 91×50 grids, B = 4–64), ``p = 3–5`` lose 6–15 %;
        ``p = 6`` wins 0.80–0.84 on the Fig. 6 fusion solves (91×50)
        and 0.74 on 181×50, ``p = 8, 12`` win 0.76–0.79 (91×50); at
        ``p = 6–12`` the 61×21, 91×21 and 61×50 grids lose 9–28 %.
        """
        return 2 * self.n_antennas if self.shape[1] >= SCREEN_MIN_ROWS else math.inf

    def matvec_rows(self, x, rows, n_snapshots: int):
        """The 2-D :meth:`matvec` with only the (column, delay) grid rows
        that ``rows`` touch in the spatial GEMM; the other ``(Nτ, M)``
        stage rows are zero, and the temporal GEMM keeps its full ``Nτ``
        contraction, so the product equals :meth:`matvec`'s bit for bit."""
        stack = np.ascontiguousarray(x.T, dtype=complex)
        columns = stack.shape[0]
        touched = np.zeros(columns // n_snapshots * self.n_delays, dtype=bool)
        touched[rows // self.n_angles] = True
        pairs = np.flatnonzero(touched)
        if 2 * len(pairs) > len(touched):
            # Gathering most of the grid costs more than it skips.
            return self.matvec(x)
        # Pair b·Nτ + d owns lines (b·p + k)·Nτ + d, k < p, of the stack's
        # (B·p·Nτ, ·) delay-line views.
        if columns > n_snapshots:
            pairs = pairs + pairs // self.n_delays * ((n_snapshots - 1) * self.n_delays)
        lines = (pairs[:, None] + np.arange(n_snapshots) * self.n_delays).reshape(-1)
        angles = np.zeros((columns * self.n_delays, self.n_antennas), dtype=complex)
        if len(lines):
            grid = stack.reshape(-1, self.n_angles).take(lines, axis=0)
            product = _real_view(grid, len(lines)) @ self._spatial_forward
            angles[lines] = product.view(complex)
        csi = self.temporal @ angles.reshape(columns, self.n_delays, self.n_antennas)
        return csi.reshape(columns, self.shape[0]).T

    def rmatvec_energies(self, r, n_snapshots: int):
        """Row-energy bounds from per-delay Gram forms, without ``Aᴴr``.

        With ``D = Gᴴ R`` (the ``(B·p, Nτ, M)`` stage of :meth:`rmatvec`)
        the adjoint at angle ``i``, delay ``d`` of column ``k`` is
        ``D[k, d] · conj(s̃ᵢ)``, so its energy over a problem's columns is
        the ``M × M`` quadratic form
        ``Σ_{a,c} conj(s̃ᵢ[a]) s̃ᵢ[c] Q_d[a, c]``, with
        ``Q_d[a, c] = Σ_k D[k, d, a] conj(D[k, d, c])``.  For the whole
        grid that is one real GEMM, ``(B·Nτ, 2M²) @ (2M², Nθ)``, against
        a feature matrix built on first use per ``p``.

        The bound adds a per-delay slack ``2(M² + 3M + p + 3)·ε·T_d``,
        ``T_d = tr(Q_d)·maxᵢ‖s̃ᵢ‖²``, folded into the GEMM through the
        features of ``Q_d``'s diagonal.  This energy and the rounded sum
        of :meth:`rmatvec_rows`' squares each lie within a few rounding
        errors of the exact one, each error at most ``T_d`` times
        ``u = ε/2``: the 2M-term dot products of the adjoint and the
        squaring and p-sum give ``(4√2M + p + 1)u``; ``Q_d``, the
        features and the 2M²-term GEMM give ``(2M² + p + 5)u``.  Their sum
        is at most ``(M² + 3M + p + 3)ε``; the factor 2 covers the
        second-order terms and the rounding of the slack.
        """
        features = self._energy_features.get(n_snapshots)
        if features is None:
            features = self._energy_features[n_snapshots] = self._gram_features(n_snapshots)
        rows = np.ascontiguousarray(r.T, dtype=complex)
        problems = rows.shape[0] // n_snapshots
        stage = (
            self._temporal_adjoint @ rows.reshape(-1, self.n_subcarriers, self.n_antennas)
        ).reshape(problems, n_snapshots, self.n_delays, self.n_antennas)
        # Q per (problem, delay), formed with the delay axis innermost
        # so that the products run over long rows.
        columns = np.ascontiguousarray(stage.transpose(0, 1, 3, 2))
        gram = (columns[:, :, :, None, :] * columns.conj()[:, :, None, :, :]).sum(axis=1)
        gram = np.ascontiguousarray(gram.transpose(0, 3, 1, 2))
        energies = _real_view(gram, problems * self.n_delays) @ features
        return energies.reshape(problems, self.shape[1]), stage

    def _gram_features(self, n_snapshots: int) -> np.ndarray:
        """``(2M², Nθ)`` real weights of the interleaved ``(Re Q, Im Q)``
        entries: ``Re(w·Q) = Re w·Re Q − Im w·Im Q`` with
        ``w = conj(s̃[a])·s̃[c]``, plus the slack on the diagonal."""
        m = self.n_antennas
        weights = np.conj(self.spatial)[:, None, :] * self.spatial[None, :, :]
        features = np.stack([weights.real, -weights.imag], axis=2)
        steering = float(np.max(np.sum(np.abs(self.spatial) ** 2, axis=0)))
        slack = 2.0 * (m * m + 3 * m + n_snapshots + 3) * np.finfo(float).eps * steering
        features[np.arange(m), np.arange(m), 0] += slack
        return features.reshape(-1, self.n_angles)

    def rmatvec_rows(self, stage, mask):
        """:meth:`rmatvec`'s values on ``mask``'s rows: the spatial GEMM runs
        on the (problem, delay) pairs they touch, each output the same
        2M-term dot product as in the full GEMM."""
        problems, n_snapshots = stage.shape[:2]
        grid = mask.reshape(-1, self.n_angles)
        pairs = np.flatnonzero(grid.any(axis=1))
        picks = np.flatnonzero(grid[pairs])
        if not len(pairs):
            return np.empty((n_snapshots, 0), dtype=complex)
        delays = stage[0] if problems == 1 else stage.transpose(1, 0, 2, 3).reshape(
            n_snapshots, -1, self.n_antennas
        )
        picked = delays[:, pairs]
        adjoint = _real_view(picked, n_snapshots * len(pairs)) @ self._spatial_adjoint
        return adjoint.view(complex).reshape(n_snapshots, -1).take(picks, axis=1)

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


def _real_block_form(factor: np.ndarray) -> np.ndarray:
    """The ``(2K, 2N)`` float64 matrix that right-multiplies like ``factor``.

    For a complex ``(K, N)`` factor, a row ``x`` viewed as interleaved
    ``[Re x₀, Im x₀, Re x₁, …]`` times this matrix is ``x @ factor``
    viewed the same way: entry ``c + id`` becomes ``[[c, d], [−d, c]]``.
    """
    k, n = factor.shape
    block = np.empty((k, 2, n, 2))
    block[:, 0, :, 0] = factor.real
    block[:, 0, :, 1] = factor.imag
    block[:, 1, :, 0] = -factor.imag
    block[:, 1, :, 1] = factor.real
    return block.reshape(2 * k, 2 * n)


def _real_view(stack: np.ndarray, rows: int) -> np.ndarray:
    """A C-contiguous complex stack as ``rows`` interleaved float64 rows."""
    return stack.reshape(rows, -1).view(np.float64)


def as_operator(matrix) -> DictionaryOperator:
    """Adapt ``matrix`` (ndarray or operator) to the operator interface.

    Operators pass through untouched; arrays are wrapped in a
    :class:`DenseOperator`.
    """
    if isinstance(matrix, DictionaryOperator):
        return matrix
    return DenseOperator(matrix)
