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
each factor one real GEMM over a stack of lines, and its Lipschitz
constant factorizes exactly as ``λmax(S̃ᴴS̃)·λmax(GᴴG)``.  It serves two
estimators: ROArray's ℓ1 and ℓ2,1 solves
(:attr:`repro.core.steering.SteeringCache.joint_operator`) and SpotFi's
2-D MUSIC, whose smoothing-window steering is the same Kronecker
structure on a 2-antenna × 15-subcarrier window
(:func:`repro.baselines.spotfi.subarray_joint_operator`) and whose
pseudospectrum reads only the adjoint's row energies
(:meth:`DictionaryOperator.row_energies`, per-delay Gram forms here),
never ``Aᴴ E_n`` itself (:func:`repro.baselines.music.music_pseudospectrum`).

Operators also expose batched products ``matmul_batch``/``rmatmul_batch``
that apply the dictionary to a whole stack of problems in one GEMM — the
seam :func:`repro.optim.solve_batch` is built on.

:func:`as_operator` adapts plain arrays, so solver internals are written
once against the operator interface and accept either form.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import cached_property
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

    # The MMV kernel's products.  Its residual and snapshot matrices live
    # in the operator's line layout: measurement row ``line_order[i]`` at
    # position ``i`` (``None``: the row order itself).  A 2-D operand of
    # shape (·, B·p) stacks B problems of p consecutive columns; a "row"
    # is a flat index b·n + j into the (B, n) grid.

    #: Measurement rows in the order of the line-layout products, or
    #: ``None`` where that is the row order itself.
    line_order: np.ndarray | None = None

    def matvec_lines(self, x, *, n_snapshots: int | None = None):
        """The 2-D :meth:`matvec`, its rows in :attr:`line_order`.

        ``n_snapshots`` (``p``) marks ``x`` as a stack of problems of
        ``p`` columns each, which an operator may use to give every
        problem the bits of its lone product; ``None`` is one problem.
        """
        return self.matvec(x)

    def rmatvec_lines(self, r, *, out=None, n_snapshots: int | None = None):
        """The 2-D :meth:`rmatvec` of an ``r`` whose rows are in
        :attr:`line_order`, written into ``out`` when given (an
        ``(n, B·p)`` complex array, returned filled); ``n_snapshots`` as
        in :meth:`matvec_lines`."""
        product = self.rmatvec(r)
        if out is None:
            return product
        out[...] = product
        return out

    def matvec_rows(self, rows, values, n_problems: int):
        """:meth:`matvec_lines` of a row-sparse ``(n, B·p)`` stack given by its rows.

        ``rows`` lists, ascending, the flat grid rows ``b·n + j`` where
        the stack may be nonzero, and ``values`` their ``(len(rows), p)``
        entries: column ``b·p + k`` of the stack holds ``values[:, k]``
        on problem ``b``'s rows and zeros elsewhere.  This one scatters
        them into the full stack and computes the full product.
        """
        n_snapshots, n = values.shape[1], self.shape[1]
        stack = np.zeros((n_problems, n_snapshots, n), dtype=complex)
        problem, column = np.divmod(rows, n)
        stack[problem, :, column] = values
        return self.matvec_lines(stack.reshape(-1, n).T, n_snapshots=n_snapshots)

    def row_energies(self, r, n_snapshots: int):
        """The ``(B, n)`` row energies ``Σ_k |(Aᴴr)_{j,b·p+k}|²`` of the adjoint.

        ``r`` is ``(m, B·p)`` in the line layout, ``p = n_snapshots``;
        the result is a new array the caller may overwrite.  Here the
        energies are the squares of the explicit adjoint, summed per row
        in ``k`` order (MUSIC's denominators for dense steering).
        """
        projections = self.rmatvec_lines(r)
        # Squared in place in the product (ours to clobber): a temporary
        # the size of the product would cost page faults per call.
        energies, imaginary = projections.real, projections.imag
        np.square(energies, out=energies)
        energies += np.square(imaginary, out=imaginary)
        return energies.reshape(self.shape[1], -1, n_snapshots).sum(axis=2).T

    def rmatvec_energies(self, r, n_snapshots: int):
        """Upper bounds on the row energies of ``Aᴴ r``, and a stage.

        ``r`` is ``(m, B·p)`` in the line layout, ``p = n_snapshots``.
        Returns a ``(B, n)`` array ``bound`` with
        ``bound[b, j] ≥ Σ_k |(Aᴴr)_{j,b·p+k}|²``, the sum evaluated in
        floating point, in ``k`` order and as ``Re² + Im²`` per term,
        from the values :meth:`rmatvec_rows` returns; and the stage those
        values are picked from.  Here the bound is that sum itself, from
        the full adjoint, and the stage is the ``(B, p, n)`` adjoint.
        """
        product = self.rmatvec_lines(r, n_snapshots=n_snapshots)
        stage = np.ascontiguousarray(product.T, dtype=complex)
        stage = stage.reshape(-1, n_snapshots, self.shape[1])
        squares = np.square(stage.view(np.float64))
        energies = squares[..., 0::2] + squares[..., 1::2]
        return energies.sum(axis=1), stage

    def rmatvec_rows(self, stage, mask):
        """``Aᴴ r`` on the rows of the ``(B, n)`` boolean ``mask``.

        Returns ``(p, count)`` values, one column per ``True`` row in
        C order: entry ``[k, c]`` is column ``b·p + k`` of the adjoint at
        grid row ``j`` for the ``c``-th row ``b·n + j``, bit-equal to
        :meth:`rmatvec_lines`'.  ``stage`` comes from
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

#: (problem, delay) pairs per spatial GEMM of the screened products, so
#: their transients stay the size of one problem's on the Fig. 6 grid
#: (50 delays) however many problems are stacked: at p = 6 on 91 angles
#: a slice's grid lines take 0.56 MB.
PAIR_SLICE = 64


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

    The 2-D products apply each factor as one GEMM over a stack of
    lines.  The spatial GEMM maps the operand's row stack ``xᵀ`` — one
    ``(Nτ, Nθ)`` coefficient grid per column, ``(p·Nτ, Nθ)`` lines —
    to the ``(p·Nτ, M)`` stage; each column's small ``(Nτ, M)`` stage
    is then transposed into antenna-major lines, and the temporal GEMM
    maps ``(p·M, Nτ) ↔ (p·M, L)``.  Its output is the measurement with
    rows antenna-major, the *line layout* (:attr:`line_order`), which
    the MMV kernel keeps its residual in (:meth:`matvec_lines`,
    :meth:`rmatvec_lines` and the screened products);
    :meth:`matvec` and :meth:`rmatvec` permute to and from the
    antenna-fastest rows, one copy of the ``(p, m)`` stack each.  A
    caller that keeps its iterate as rows (the MMV kernel) hands over
    ``rows.T`` and reads back ``product.T``, so neither side copies; the
    2-D adjoints also write into a caller's ``out=`` buffer, so the
    kernel's adjoint lands in the same ``(p, n)`` row stack every
    iteration.

    All four GEMMs run in real arithmetic: a complex row stack viewed as
    float64 interleaves real and imaginary parts, and right-multiplying
    it by the ``(2K, 2N)`` real form of a complex ``(K, N)`` factor (each
    entry ``c + id`` a 2×2 block ``[[c, d], [−d, c]]``) is the complex
    product — one float64 GEMM, about twice as fast as the complex one
    at these skinny shapes, equal to it up to rounding.  The real forms
    are built on first use.
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
        self.n_subcarriers, self.n_delays = tuple(temporal.shape)
        self.n_antennas, self.n_angles = tuple(spatial.shape)
        self.shape = (
            self.n_antennas * self.n_subcarriers,
            self.n_angles * self.n_delays,
        )
        self._lipschitz: float | None = None
        self._energy_features: dict[int, np.ndarray] = {}

    @cached_property
    def line_order(self) -> np.ndarray:
        """Antenna-major lines: line-layout row ``a·L + l`` is row ``l·M + a``."""
        rows = np.arange(self.shape[0]).reshape(self.n_subcarriers, self.n_antennas)
        return rows.T.reshape(-1)

    # The factors of the 2-D paths in real 2×2-block form, built on first
    # use (the 1-D paths conjugate per call, matching the reference
    # expressions bit for bit).

    @cached_property
    def _spatial_forward(self) -> np.ndarray:
        """``S̃ᵀ``: grid lines ``(·, Nθ)`` → stage rows ``(·, M)``."""
        return _real_block_form(self.spatial.T)

    @cached_property
    def _spatial_adjoint(self) -> np.ndarray:
        """``conj(S̃)``: stage rows → grid lines."""
        return _real_block_form(self.spatial.conj())

    @cached_property
    def _temporal_forward(self) -> np.ndarray:
        """``Gᵀ`` in real block form: stage lines → measurement lines."""
        return _real_block_form(self.temporal.T)

    @cached_property
    def _temporal_adjoint(self) -> np.ndarray:
        """``conj(G)`` in real block form: measurement lines → stage lines."""
        return _real_block_form(self.temporal.conj())

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
            lines = self.matvec_lines(x).T
            rows = lines.reshape(-1, self.n_antennas, self.n_subcarriers).transpose(0, 2, 1)
            return rows.reshape(len(lines), self.shape[0]).T
        raise SolverError(f"matvec operand must be 1-D or 2-D, got ndim={x.ndim}")

    def matvec_lines(self, x, *, n_snapshots: int | None = None):
        # Contract the wide angle axis first (Nθ → M shrinks ~30×, Nτ → L
        # only ~2×) as one GEMM over every grid X_k, then Gᵀ on the lines.
        rows = np.ascontiguousarray(x.T, dtype=complex)
        columns = rows.shape[0]
        angles = _real_view(rows, columns * self.n_delays) @ self._spatial_forward
        return self._measurement_lines(angles.view(complex), columns, n_snapshots)

    def _measurement_lines(self, angles, columns: int, n_snapshots: int | None = None):
        """The temporal GEMM of the ``(columns·Nτ, M)`` spatial stage, on its
        antenna-major lines: the ``(m, columns)`` product in the line layout.

        With ``n_snapshots`` it is one GEMM per problem's ``p·M`` lines
        (a stacked matmul), each of a lone problem's shape: BLAS may round
        a row differently in a taller GEMM (OpenBLAS does for the 21-delay
        grids), which would tie a problem's bits to its batch.
        """
        stage = angles.reshape(columns, self.n_delays, self.n_antennas).transpose(0, 2, 1)
        stage = np.ascontiguousarray(stage)
        problems = 1 if n_snapshots is None else columns // n_snapshots
        lines = _real_view(stage, columns * self.n_antennas)
        lines = lines.reshape(problems, -1, 2 * self.n_delays) @ self._temporal_forward
        return lines.view(complex).reshape(columns, self.shape[0]).T

    def rmatvec(self, r, *, out=None):
        """``Aᴴ @ r``; a 2-D ``r`` may write into ``out`` (see :meth:`rmatvec_lines`)."""
        r = np.asarray(r)
        if r.ndim == 1:
            csi = r.reshape(self.n_subcarriers, self.n_antennas).T  # (M, L)
            grid = self.spatial.conj().T @ csi @ np.conj(self.temporal)  # (Nθ, Nτ)
            return grid.T.reshape(-1)
        if r.ndim == 2:
            lines = r.reshape(self.n_subcarriers, self.n_antennas, -1).transpose(2, 1, 0)
            lines = np.ascontiguousarray(lines, dtype=complex).reshape(-1, self.shape[0])
            return self.rmatvec_lines(lines.T, out=out)
        raise SolverError(f"rmatvec operand must be 1-D or 2-D, got ndim={r.ndim}")

    def rmatvec_lines(self, r, *, out=None, n_snapshots: int | None = None):
        """The 2-D adjoint of a line-layout ``r``, ``Gᴴ`` on the lines (per
        problem with ``n_snapshots``, see :meth:`_measurement_lines`) and
        then one GEMM with ``conj(S̃)`` for every grid at once.

        ``out`` is an ``(n, p)`` complex array whose transpose is a
        C-contiguous ``(p, n)`` row stack — the view a row-stack caller
        hands over — and is returned filled.
        """
        stage = self._stage_lines(r, n_snapshots)
        columns = stage.shape[0]
        if out is None:
            out = np.empty((columns, self.shape[1]), dtype=complex).T
        elif out.shape != (self.shape[1], columns) or not (
            out.dtype == complex and out.T.flags.c_contiguous
        ):
            raise SolverError(
                f"rmatvec out must be a complex ({self.shape[1]}, {columns}) array "
                "whose transpose is C-contiguous"
            )
        delays = np.ascontiguousarray(stage.transpose(0, 2, 1))
        np.matmul(
            _real_view(delays, columns * self.n_delays),
            self._spatial_adjoint,
            out=_real_view(out.T, columns * self.n_delays),
        )
        return out

    def _stage_lines(self, r, n_snapshots: int | None = None):
        """``Gᴴ`` on every measurement line of a line-layout ``(m, columns)``
        ``r``: the ``(columns, M, Nτ)`` stage ``D`` of the adjoint; one GEMM
        per problem with ``n_snapshots`` (see :meth:`_measurement_lines`)."""
        rows = np.ascontiguousarray(r.T, dtype=complex)
        columns = rows.shape[0]
        problems = 1 if n_snapshots is None else columns // n_snapshots
        stage = _real_view(rows, columns * self.n_antennas)
        stage = stage.reshape(problems, -1, 2 * self.n_subcarriers) @ self._temporal_adjoint
        return stage.view(complex).reshape(columns, self.n_antennas, self.n_delays)

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

    def matvec_rows(self, rows, values, n_problems: int):
        """:meth:`matvec_lines` from the (problem, delay) pairs that
        ``rows`` touch: the spatial GEMM runs on their grid lines, built
        from ``values`` :data:`PAIR_SLICE` pairs at a time; the other
        stage rows are zero, and the temporal GEMM keeps its full ``Nτ``
        contraction, so the product equals :meth:`matvec_lines`' bit for
        bit."""
        n_snapshots = values.shape[1]
        columns = n_problems * n_snapshots
        angles = np.zeros((columns * self.n_delays, self.n_antennas), dtype=complex)
        # Row b·n + d·Nθ + i belongs to pair b·Nτ + d, at angle i.
        owners, angle = np.divmod(rows, self.n_angles)
        touched = np.zeros(n_problems * self.n_delays, dtype=bool)
        touched[owners] = True
        pairs = np.flatnonzero(touched)
        slots = np.searchsorted(pairs, owners)
        # Pair b·Nτ + d owns grid lines (b·p + k)·Nτ + d, k < p, of the
        # stack's (B·p·Nτ, Nθ) view.
        firsts = pairs + pairs // self.n_delays * ((n_snapshots - 1) * self.n_delays)
        lines = (firsts[:, None] + np.arange(n_snapshots) * self.n_delays).reshape(-1)
        for start in range(0, len(pairs), PAIR_SLICE):
            count = min(PAIR_SLICE, len(pairs) - start)
            if count == len(pairs):
                picks, slot = slice(None), slots
            else:
                first, last = np.searchsorted(slots, (start, start + count))
                picks = slice(first, last)
                slot = slots[picks] - start
            grid = np.zeros((count, n_snapshots, self.n_angles), dtype=complex)
            grid[slot, :, angle[picks]] = values[picks]
            product = _real_view(grid, count * n_snapshots) @ self._spatial_forward
            span = slice(start * n_snapshots, (start + count) * n_snapshots)
            angles[lines[span]] = product.view(complex)
        return self._measurement_lines(angles, columns, n_snapshots)

    def row_energies(self, r, n_snapshots: int):
        """The adjoint's row energies from per-delay Gram forms (see
        :meth:`rmatvec_energies`), without the screen's slack."""
        gram = self._gram(self._stage_lines(r), n_snapshots)  # the stage is freed here
        return self._energies(gram, self._gram_weights)

    def rmatvec_energies(self, r, n_snapshots: int):
        """Row-energy bounds from per-delay Gram forms, without ``Aᴴr``.

        With ``D = Gᴴ R`` (the ``(B·p, M, Nτ)`` stage of
        :meth:`rmatvec_lines`) the adjoint at angle ``i``, delay ``d`` of
        column ``k`` is ``D[k, :, d] · conj(s̃ᵢ)``, so its energy over a
        problem's columns is the ``M × M`` quadratic form
        ``Σ_{a,c} conj(s̃ᵢ[a]) s̃ᵢ[c] Q_d[a, c]``, with
        ``Q_d[a, c] = Σ_k D[k, a, d] conj(D[k, c, d])``.  For the whole
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
        second-order terms and the rounding of the slack.  The stage
        returned is ``D`` as ``(B, p, M, Nτ)``.
        """
        features = self._energy_features.get(n_snapshots)
        if features is None:
            features = self._energy_features[n_snapshots] = self._screen_features(n_snapshots)
        stage = self._stage_lines(r, n_snapshots)
        energies = self._energies(self._gram(stage, n_snapshots), features)
        return energies, stage.reshape(len(energies), n_snapshots, *stage.shape[1:])

    def _gram(self, stage, n_snapshots: int):
        """The ``(B, Nτ, M, M)`` Gram forms ``Q`` of a ``(B·p, M, Nτ)`` stage.

        Every ``Q_d[a, c]`` of every problem is one conjugating dot over
        the ``p`` columns (``np.vecdot``, broadcast over the antenna
        pairs), written straight into the ``(B, Nτ, M, M)`` layout the
        feature GEMM reads: no conjugate copy of the stage and no
        ``(B, p, M, M, Nτ)`` product temporary."""
        problems = len(stage) // n_snapshots
        m = self.n_antennas
        lines = stage.reshape(problems, n_snapshots, m, self.n_delays)
        gram = np.empty((problems, self.n_delays, m, m), dtype=complex)
        np.vecdot(
            lines[:, :, None], lines[:, :, :, None], axis=1, out=gram.transpose(0, 2, 3, 1)
        )
        return gram

    def _energies(self, gram, features):
        """``(B, n)`` energies: the Gram forms against ``features``, one GEMM."""
        problems = len(gram)
        energies = _real_view(gram, problems * self.n_delays) @ features
        return energies.reshape(problems, self.shape[1])

    @cached_property
    def _gram_weights(self) -> np.ndarray:
        """``(2M², Nθ)`` real weights of the interleaved ``(Re Q, Im Q)``
        entries: ``Re(w·Q) = Re w·Re Q − Im w·Im Q`` with
        ``w = conj(s̃[a])·s̃[c]``."""
        weights = np.conj(self.spatial)[:, None, :] * self.spatial[None, :, :]
        return np.stack([weights.real, -weights.imag], axis=2).reshape(-1, self.n_angles)

    def _screen_features(self, n_snapshots: int) -> np.ndarray:
        """:attr:`_gram_weights` plus the screen's slack on ``Q``'s diagonal."""
        m = self.n_antennas
        steering = float(np.max(np.sum(np.abs(self.spatial) ** 2, axis=0)))
        slack = 2.0 * (m * m + 3 * m + n_snapshots + 3) * np.finfo(float).eps * steering
        features = self._gram_weights.copy()
        features.reshape(m, m, 2, self.n_angles)[np.arange(m), np.arange(m), 0] += slack
        return features

    def rmatvec_rows(self, stage, mask):
        """:meth:`rmatvec_lines`' values on ``mask``'s rows: the spatial GEMM
        runs on the (problem, delay) pairs they touch, :data:`PAIR_SLICE`
        pairs at a time, each output the same 2M-term dot product as in
        the full GEMM."""
        n_snapshots = stage.shape[1]
        grid = mask.reshape(-1, self.n_angles)
        pairs = np.flatnonzero(grid.any(axis=1))
        # (p, B, Nτ, M): pair b·Nτ + d's M values for every column.
        delays = stage.transpose(1, 0, 3, 2)
        parts = []
        for start in range(0, len(pairs), PAIR_SLICE):
            chunk = pairs[start : start + PAIR_SLICE]
            picked = delays[:, chunk // self.n_delays, chunk % self.n_delays]
            adjoint = _real_view(picked, n_snapshots * len(chunk)) @ self._spatial_adjoint
            picks = np.flatnonzero(grid[chunk])
            parts.append(adjoint.view(complex).reshape(n_snapshots, -1).take(picks, axis=1))
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=1) if parts else np.empty((n_snapshots, 0), complex)

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
